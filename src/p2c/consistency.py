"""Causal and decision consistency tests over total states.

Causal rules are grouped per head feature; each group is read under program
completion, i.e. the "if" rules become "if and only if": a head value is
satisfied exactly when one of its bodies fires.  A fired alternative entails
its head value; an alternative whose bodies all fail excludes it.

The tests run on the one-hot bit masks of :class:`p2c.masks.CompiledRules`:
one bit per feature value, one forbidden mask per rule body, one head mask
per causal alternative.  A ``Dataset`` compiles its programs once, on its
first query; the free-standing functions here compile the rules they are
given on each call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .domain import DatasetConfig, FeatureSpec, State, Value, search_space_size
from .errors import ConfigError, SpaceTooLargeError
from .rules import Rule, RuleProgram, program_decides


@dataclass(frozen=True)
class CausalAlternative:
    value: Value
    rules: tuple[Rule, ...]


@dataclass(frozen=True)
class CausalGroup:
    """All causal rules sharing one head feature, keyed by head value.

    ``exhaustive`` is not decidable from syntax alone; it is left None here
    and can be measured on small spaces with :func:`group_is_exhaustive`.
    """

    feature: str
    alternatives: tuple[CausalAlternative, ...]
    exhaustive: bool | None = None


@dataclass(frozen=True)
class Entailment:
    """What the causal program demands of one feature, given a state.

    ``required`` is the fired head value (None when no alternative fired);
    ``excluded`` lists head values whose bodies all failed and which the
    feature must therefore not satisfy.  ``provenance`` is the text of the
    fired rules.
    """

    feature: str
    required: Value | None
    excluded: tuple[Value, ...] = ()
    provenance: Sequence[str] = ()

    @property
    def unconstrained(self) -> bool:
        return self.required is None and not self.excluded


def build_causal_groups(
    config: DatasetConfig, causal: RuleProgram
) -> tuple[CausalGroup, ...]:
    """Group causal rules per head feature, validating heads against config."""
    if causal.kind != "causal":
        raise ConfigError("expected a causal program")
    by_feature: dict[str, dict[Value, list[Rule]]] = {}
    order: list[str] = []
    for rule in causal.rules:
        name = rule.head.predicate
        if not config.has_feature(name):
            raise ConfigError(f"causal head {name!r} is not a feature")
        spec = config.feature(name)
        value = rule.head.value
        if spec.kind == "numeric":
            if not isinstance(value, float):
                raise ConfigError(
                    f"causal head for numeric feature {name!r} must be numeric"
                )
            lo, hi = spec.numeric_range  # type: ignore[misc]
            if not lo <= value <= hi:
                raise ConfigError(f"causal head value {value} outside {name!r} range")
        elif value not in spec.domain:
            raise ConfigError(
                f"causal head value {value!r} is not in the domain of {name!r}"
            )
        for lit in rule.body:
            if lit.predicate is not None and lit.predicate == name:
                raise ConfigError(f"causal rule for {name!r} reads its own feature")
        if name not in by_feature:
            by_feature[name] = {}
            order.append(name)
        by_feature[name].setdefault(value, []).append(rule)
    groups = []
    for name in order:
        alts = tuple(
            CausalAlternative(value, tuple(rs)) for value, rs in by_feature[name].items()
        )
        groups.append(CausalGroup(feature=name, alternatives=alts))
    return tuple(groups)


# ---------------------------------------------------------------------------
# Free-standing tests
# ---------------------------------------------------------------------------


def entailed_assignments(
    config: DatasetConfig,
    groups: Sequence[CausalGroup],
    causal: RuleProgram,
    state: State,
) -> tuple[Entailment, ...]:
    """One entailment per causally governed feature, evaluated on ``state``.

    Bodies never read their own head feature (enforced at load), so each
    group is decided by the state's other features alone.
    """
    from .masks import CompiledRules

    compiled = CompiledRules(config, groups, causal)
    return compiled.entailments(compiled.bits(state))


def entailment_satisfied(spec: FeatureSpec, value: Value, ent: Entailment) -> bool:
    if ent.required is not None and not spec.satisfies(value, ent.required):
        return False
    return all(not spec.satisfies(value, ex) for ex in ent.excluded)


def causally_consistent(
    config: DatasetConfig,
    groups: Sequence[CausalGroup],
    causal: RuleProgram,
    state: State,
) -> bool:
    """Membership test for the causally consistent subspace."""
    from .masks import CompiledRules

    compiled = CompiledRules(config, groups, causal)
    return compiled.consistent(compiled.bits(state))


def decision_positive(decision: RuleProgram, state_map: Mapping[str, Value]) -> bool:
    """True iff the name->value assignment carries the undesired outcome.

    For rule sets written in terms of the desired label (German 'good'),
    the polarity flips: undesired means no rule fires.
    """
    decided = program_decides(decision, state_map)
    return decided if decision.describes_undesired else not decided


def is_counterfactual(
    config: DatasetConfig,
    groups: Sequence[CausalGroup],
    causal: RuleProgram,
    decision: RuleProgram,
    state: State,
) -> bool:
    """Goal-set membership: satisfies all causal rules and escapes the decision."""
    from .masks import CompiledRules

    compiled = CompiledRules(config, groups, causal, decision)
    return compiled.is_goal(compiled.bits(state))


def causal_repair_values(
    config: DatasetConfig,
    groups: Sequence[CausalGroup],
    causal: RuleProgram,
    state: State,
    feature: str,
) -> tuple[Value, ...]:
    """Domain values that would make ``feature``'s causal group consistent,
    holding the other features of ``state`` fixed.

    A fired alternative's own head value (the declared representative) comes
    first; remaining group-consistent values follow in domain order.
    """
    from .masks import CompiledRules

    compiled = CompiledRules(config, groups, causal)
    return compiled.repair_values(compiled.bits(state), feature)


def group_is_exhaustive(
    config: DatasetConfig, group: CausalGroup, causal: RuleProgram, cap: int = 100000
) -> bool:
    """Measure whether the group's bodies cover every state (small spaces)."""
    if search_space_size(config) > cap:
        raise SpaceTooLargeError("state space too large to decide exhaustiveness")
    from .masks import CompiledRules

    compiled = CompiledRules(config, (group,), causal)
    one_hot = [
        tuple(1 << (off + j) for j in range(len(spec.domain)))
        for off, spec in zip(compiled.offsets, config.features)
    ]
    covers = compiled.groups[0].covers
    return all(covers(sum(combo)) for combo in itertools.product(*one_hot))
