"""Rule programs compiled to one-hot bit masks.

Every body literal of the rule language tests exactly one feature, so a rule
body is a product of per-feature value sets.  :class:`CompiledRules` gives
each feature value one bit (the feature's offset plus the value's domain
index), so a state is an int with one bit set per feature.  Each body
compiles to one *forbidden* mask, the union of the values that fail its
literals (numeric ``=<`` tests become masks over the feature's finite
domain).  The body fires iff ``bits & forbidden == 0`` and its
exception-predicate calls hold; those are compiled the same way and keep
negation as failure.  Each causal alternative gets a head mask of the values
that satisfy it, direction-aware (``at_least``/``at_most``), so the
completion semantics of :mod:`p2c.consistency` become a few integer ANDs per
group.  Rule text for provenance and errors is rendered only when read.

The package imports this module on a dataset's first query, not at import.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence as SequenceABC
from functools import reduce
from typing import Sequence

from .consistency import CausalGroup, Entailment
from .domain import DatasetConfig, State, Value
from .errors import CausalProgramError, EvaluationError
from .rules import (
    AUX_CALL,
    COMPARISON,
    FEATURE_TEST,
    NEG_AUX_CALL,
    NEG_COMPARISON,
    NEG_FEATURE_TEST,
    NUMERIC_BINDING,
    Rule,
    RuleProgram,
    unparse_rule,
)


class RuleText(SequenceABC):
    """The text of the rules of one alternative that fire on a state.

    Behaves as a tuple of strings, rendered on first read, so entailments
    and causal actions carry their provenance without paying for it.
    """

    __slots__ = ("_source", "_text")

    def __init__(self, rules: tuple[Rule, ...], bodies: tuple, bits: int):
        self._source = (rules, bodies, bits)
        self._text: tuple[str, ...] | None = None

    def _rendered(self) -> tuple[str, ...]:
        if self._text is None:
            rules, bodies, bits = self._source
            self._text = tuple(
                unparse_rule(r) for r, body in zip(rules, bodies) if _any_fires(bits, (body,))
            )
        return self._text

    def __getitem__(self, i):
        return self._rendered()[i]

    def __len__(self) -> int:
        return len(self._rendered())

    def __eq__(self, other) -> bool:
        if isinstance(other, SequenceABC) and not isinstance(other, str):
            return self._rendered() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rendered())

    def __repr__(self) -> str:
        return repr(self._rendered())


# A compiled body is an int (its forbidden mask) when it calls no exception
# predicate, else a tuple (forbidden, positive calls, negated calls); each
# call is the tuple of compiled bodies of the aux rules with that head.


def _any_fires(bits: int, bodies) -> bool:
    for body in bodies:
        if body.__class__ is int:
            if not bits & body:
                return True
        elif _fires(bits, body):
            return True
    return False


def _fires(bits: int, body: tuple) -> bool:
    forbidden, positive, negated = body
    if bits & forbidden:
        return False
    for call in positive:
        if not _any_fires(bits, call):
            return False
    for call in negated:
        if _any_fires(bits, call):
            return False
    return True


def _forbidden_of(body) -> int:
    return body if body.__class__ is int else body[0]


class _ProgramCompiler:
    """Compiles the bodies of one program's rules against one bit layout."""

    def __init__(self, config: DatasetConfig, offsets: tuple[int, ...], program: RuleProgram):
        self.config = config
        self.offsets = offsets
        self.program = program
        self.aux: dict[tuple[str, Value], tuple] = {}

    def mask(self, fi: int, fails) -> int:
        """Bits of feature ``fi``'s values for which ``fails`` holds."""
        off = self.offsets[fi]
        return sum(
            1 << (off + j) for j, v in enumerate(self.config.features[fi].domain) if fails(v)
        )

    def feature_index(self, name: str) -> int:
        if not self.config.has_feature(name):
            raise EvaluationError(f"state does not assign feature {name!r}")
        return self.config.feature_index(name)

    def call(self, predicate: str, value: Value) -> tuple:
        key = (predicate, value)
        if key not in self.aux:
            self.aux[key] = tuple(
                self.body(r)
                for r in self.program.aux_rules
                if r.head.predicate == predicate and r.head.value == value
            )
        return self.aux[key]

    def body(self, rule: Rule):
        forbidden = 0
        positive: list[tuple] = []
        negated: list[tuple] = []
        bound: dict[str, int] = {}  # numeric variable -> feature index
        for lit in rule.body:
            kind = lit.kind
            if kind == AUX_CALL:
                positive.append(self.call(lit.predicate, lit.value))
            elif kind == NEG_AUX_CALL:
                negated.append(self.call(lit.predicate, lit.value))
            elif kind == FEATURE_TEST:
                fi = self.feature_index(lit.predicate)
                forbidden |= self.mask(fi, lambda v, c=lit.value: not v == c)
            elif kind == NEG_FEATURE_TEST:
                fi = self.feature_index(lit.predicate)
                forbidden |= self.mask(fi, lambda v, c=lit.value: v == c)
            elif kind == NUMERIC_BINDING:
                fi = self.feature_index(lit.predicate)
                if any(
                    not isinstance(v, (int, float)) or isinstance(v, bool)
                    for v in self.config.features[fi].domain
                ):
                    raise EvaluationError(
                        f"numeric binding on non-numeric feature {lit.predicate!r}"
                    )
                bound[lit.variable] = fi
            elif kind == COMPARISON:
                forbidden |= self.mask(
                    bound[lit.variable], lambda v, b=lit.bound: not float(v) <= b
                )
            elif kind == NEG_COMPARISON:
                forbidden |= self.mask(bound[lit.variable], lambda v, b=lit.bound: float(v) <= b)
            else:
                raise ValueError(f"unknown literal kind {lit.kind!r}")
        if not positive and not negated:
            return forbidden
        return (forbidden, tuple(positive), tuple(negated))


class _CompiledGroup:
    """One causal group: per alternative its head mask, the head masks of the
    other alternatives, and its compiled bodies."""

    __slots__ = ("group", "fi", "heads", "others", "all_heads", "bodies", "may_overlap")

    def __init__(self, group: CausalGroup, fi: int, heads, bodies, boxes_meet):
        self.group = group
        self.fi = fi
        self.heads = heads
        self.all_heads = reduce(operator.or_, heads, 0)
        self.others = tuple(
            reduce(operator.or_, (h for b, h in enumerate(heads) if b != a), 0)
            for a in range(len(heads))
        )
        self.bodies = bodies
        # Two alternatives can fire together only if two of their bodies'
        # boxes meet; exception calls only narrow a body, so this is safe.
        self.may_overlap = any(
            boxes_meet(_forbidden_of(x) | _forbidden_of(y))
            for a, b in itertools.combinations(range(len(bodies)), 2)
            for x in bodies[a]
            for y in bodies[b]
        )

    def fired(self, bits: int) -> int:
        """Index of the fired alternative, or -1; two fired ones are an error."""
        fired = -1
        for a, bodies in enumerate(self.bodies):
            if _any_fires(bits, bodies):
                if fired >= 0:
                    raise self._conflict(bits)
                fired = a
                if not self.may_overlap:
                    return a
        return fired

    def covers(self, bits: int) -> bool:
        """Whether some body of some alternative fires."""
        return any(_any_fires(bits, bodies) for bodies in self.bodies)

    def satisfied(self, bits: int, fired: int) -> bool:
        if fired < 0:
            return not bits & self.all_heads
        return bool(bits & self.heads[fired]) and not bits & self.others[fired]

    def _conflict(self, bits: int) -> CausalProgramError:
        offending = "; ".join(
            unparse_rule(r)
            for alt, bodies in zip(self.group.alternatives, self.bodies)
            for r, body in zip(alt.rules, bodies)
            if _any_fires(bits, (body,))
        )
        return CausalProgramError(
            f"two alternatives for feature {self.group.feature!r} fired simultaneously: "
            f"{offending}"
        )


class CompiledRules:
    """A config's causal groups (and optionally its decision program) as bit masks.

    Feature ``i``'s value with domain index ``j`` is bit ``offsets[i] + j``;
    :meth:`bits` encodes a state.  Every test below takes such bits.
    """

    __slots__ = ("config", "offsets", "domains", "groups", "last_overlap", "decision",
                 "undesired")

    def __init__(
        self,
        config: DatasetConfig,
        groups: Sequence[CausalGroup],
        causal: RuleProgram,
        decision: RuleProgram | None = None,
    ):
        offsets = []
        off = 0
        for spec in config.features:
            offsets.append(off)
            off += len(spec.domain)
        self.config = config
        self.offsets = tuple(offsets)
        self.domains = tuple(spec.domain for spec in config.features)
        feature_masks = tuple(
            ((1 << len(spec.domain)) - 1) << o for o, spec in zip(offsets, config.features)
        )

        def boxes_meet(forbidden: int) -> bool:
            return all(fm & ~forbidden for fm in feature_masks)

        compiler = _ProgramCompiler(config, self.offsets, causal)
        compiled = []
        for group in groups:
            fi = config.feature_index(group.feature)
            spec = config.features[fi]
            heads = tuple(
                compiler.mask(fi, lambda v, t=alt.value: spec.satisfies(v, t))
                for alt in group.alternatives
            )
            bodies = tuple(
                tuple(compiler.body(r) for r in alt.rules) for alt in group.alternatives
            )
            compiled.append(_CompiledGroup(group, fi, heads, bodies, boxes_meet))
        self.groups = tuple(compiled)
        # past this group index no group can raise, so a violation may return early
        self.last_overlap = max(
            (k for k, g in enumerate(self.groups) if g.may_overlap), default=-1
        )
        if decision is not None:
            dc = _ProgramCompiler(config, self.offsets, decision)
            self.decision = tuple(dc.body(r) for r in decision.rules)
            self.undesired = decision.describes_undesired

    def bits(self, state: State) -> int:
        if len(state.values) != len(self.domains):
            raise EvaluationError("state does not match the config's feature tuple")
        try:
            indices = map(tuple.index, self.domains, state.values)
            positions = map(operator.add, self.offsets, indices)
            return sum(map(operator.lshift, itertools.repeat(1), positions))
        except ValueError:
            for spec, v in zip(self.config.features, state.values):
                spec.index_of(v)  # raises StateValidationError naming the value
            raise

    def consistent(self, bits: int) -> bool:
        violated = False
        for k, g in enumerate(self.groups):
            if violated and not g.may_overlap:
                continue
            if g.satisfied(bits, g.fired(bits)):
                continue
            if k >= self.last_overlap:
                return False
            violated = True
        return not violated

    def decision_positive(self, bits: int) -> bool:
        return _any_fires(bits, self.decision) == self.undesired

    def is_goal(self, bits: int) -> bool:
        return self.consistent(bits) and _any_fires(bits, self.decision) != self.undesired

    def _provenance(self, g: _CompiledGroup, bits: int, fired: int):
        if fired < 0:
            return ()
        return RuleText(g.group.alternatives[fired].rules, g.bodies[fired], bits)

    def _entailment(self, g: _CompiledGroup, bits: int) -> Entailment:
        fired = g.fired(bits)
        alts = g.group.alternatives
        return Entailment(
            feature=g.group.feature,
            required=alts[fired].value if fired >= 0 else None,
            excluded=tuple(alt.value for a, alt in enumerate(alts) if a != fired),
            provenance=self._provenance(g, bits, fired),
        )

    def entailments(self, bits: int) -> tuple[Entailment, ...]:
        return tuple(self._entailment(g, bits) for g in self.groups)

    def _allowed(self, g: _CompiledGroup, fired: int) -> tuple[Value, ...]:
        """Values of ``g``'s feature that satisfy the group, given which
        alternative fired; the fired head value (the declared representative)
        comes first, the rest follow in domain order."""
        if fired >= 0:
            allowed = g.heads[fired] & ~g.others[fired]
        else:
            allowed = ~g.all_heads
        off = self.offsets[g.fi]
        ok = [v for j, v in enumerate(self.domains[g.fi]) if allowed >> (off + j) & 1]
        if fired >= 0:
            required = g.group.alternatives[fired].value
            if required in ok:
                ok.remove(required)
                ok.insert(0, required)
        return tuple(ok)

    def repair_values(self, bits: int, feature: str) -> tuple[Value, ...]:
        g = next((g for g in self.groups if g.group.feature == feature), None)
        if g is None:
            return ()
        return self._allowed(g, g.fired(bits))

    def violations(self, bits: int) -> list[tuple[int, tuple[Value, ...], Sequence[str]]]:
        """``(feature index, repair values, provenance)`` of every violated
        group, in feature order.

        Every group is evaluated, so two co-firing alternatives raise as in
        :meth:`entailments`, whether or not their group is violated.
        """
        out = []
        for g in self.groups:
            fired = g.fired(bits)
            if not g.satisfied(bits, fired):
                out.append((g.fi, self._allowed(g, fired), self._provenance(g, bits, fired)))
        out.sort(key=lambda v: v[0])
        return out
