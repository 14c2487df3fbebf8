"""Rule programs compiled to one-hot bit masks.

Every body literal of the rule language tests exactly one feature, so the
states a rule's literals accept are a product of per-feature value sets, a
*box*.  :class:`CompiledRules` gives each feature value one bit (the
feature's offset plus the value's domain index), so a state is an int with
one bit set per feature, and a box is its *forbidden* mask: the union of the
values that fail its literals (numeric ``=<`` tests become masks over the
feature's finite domain).  A state lies in the box iff ``bits & box == 0``.
Each rule compiles to the tuple of boxes it fires on, their union being
exactly its states: an exception-predicate call meets the body's boxes with
the boxes of the rules it calls, keeping the nonempty meets, and a negated
call subtracts the called boxes from the body's (:func:`_subtract`).  A
rule may compile to at most :data:`MAX_RULE_BOXES` boxes.

The decision program compiles to one polarity, its *rejecting* boxes
(:attr:`CompiledRules.decision`), which hold exactly the states that get
the undesired label.  Which label the rules name is read at compile time
off their head and the config's ``undesired_decision``
(:attr:`CompiledRules.favourable`).  Rules that name the undesired label
give their own boxes.  Rules that name the favourable label give their
complement, read
constructively as s(CASP) reads ``not label(X, ...)``: their boxes
subtracted from the whole space, at most :data:`MAX_REJECTING_BOXES` of
them.

The causal rules are grouped per head feature, and within a group per head
value, an *alternative*, both in the order the rules first name them.  A
group is read under program completion: its "if" rules become "if and only
if", so a fired alternative entails its head value and one whose rules all
fail excludes it.  Each alternative gets a head mask of the values that
satisfy it, direction-aware (``at_least``/``at_most``), so that reading
becomes a few integer ANDs per group.  Compiling also
decides, exactly, whether two alternatives of one group fire on some state
(two of their boxes meet), and rejects such a program: so a group's fired
alternative is simply the first that fires.  A repair is bits too; the text
of the rules that forced it (:meth:`CompiledRules.provenance`) is rendered
for returned answers and errors only, each rule once per group.

The groups also get a *head order*, fixed at compile time: a group comes
after every group whose head feature its rules read (through ``ab`` calls
too), so a search can derive each head from the features assigned before
it.  Groups on a cycle of such reads come last, and a group that reads a
head not yet derived at its place is marked undecidable there.  The same
order gives the causal closure of a state (:meth:`CompiledRules.closure`):
one pass repairs every violated group, because each group reads only heads
repaired before it.

For the counterfactual search, compiling also fixes its *walk*, the
features no causal rule sets (:attr:`CompiledRules.walk`), and each bit's
part of the rank that reads a state's domain indices as one mixed-radix
number in feature order (:attr:`CompiledRules.rank_parts`): a state's rank
is the sum of its bits' parts.  Each rejecting box gets its cut box over the
walk (:attr:`CompiledRules.decision_boxes`), two masks in a state's bit
layout: the walk values it allows, and the whole masks of the walk features
that the heads it tests are derived from, which a search cutting that box
away holds at the vector's values.  The walk's geometry
(:attr:`CompiledRules.walk_steps`: per walk feature its mask and the bits
below and above it) is fixed with it.  ``CompiledRules.cost_rows`` keeps
the search's per-feature cost rows (``search.cost_rows``), built on first
use per value, weight and norm; it holds no answer.

The package imports this module on a dataset's first query, not at import.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce
from typing import Sequence

from .domain import DatasetConfig, FeatureSpec, State, Value
from .errors import CausalProgramError, EvaluationError, RuleProgramError
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

# The most boxes one rule may compile to: negating rules on disjoint features
# multiplies a rule's boxes.
MAX_RULE_BOXES = 512
# The most rejecting boxes a favourable-label program may compile to: the
# complement of r rules on disjoint features has 4^r boxes or more.
MAX_REJECTING_BOXES = 1 << 16


class _ProgramCompiler:
    """Compiles the rules of one program against one bit layout: each to its
    boxes and to the bits of the features it reads."""

    def __init__(self, config: DatasetConfig, offsets: tuple[int, ...],
                 feature_masks: tuple[int, ...], program: RuleProgram):
        self.config = config
        self.offsets = offsets
        self.feature_masks = feature_masks
        self.program = program
        self.calls: dict[tuple[str, Value], tuple[tuple[int, ...], int]] = {}

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

    def call(self, predicate: str, value: Value) -> tuple[tuple[int, ...], int]:
        """The boxes of the aux rules with head ``(predicate, value)`` and the
        bits they read."""
        key = (predicate, value)
        if key not in self.calls:
            rules = [self.rule(r) for r in self.program.aux_rules
                     if r.head.predicate == predicate and r.head.value == value]
            self.calls[key] = (tuple(box for boxes, _ in rules for box in boxes),
                               reduce(operator.or_, (reads for _, reads in rules), 0))
        return self.calls[key]

    def rule(self, rule: Rule) -> tuple[tuple[int, ...], int]:
        """The boxes ``rule`` fires on, and the bits of the features its
        literals and the rules it calls read."""
        forbidden = 0
        calls: list[tuple[bool, tuple[int, ...]]] = []  # (negated, the called boxes)
        reads = 0
        bound: dict[str, int] = {}  # numeric variable -> feature index
        for lit in rule.body:
            kind = lit.kind
            if kind == AUX_CALL or kind == NEG_AUX_CALL:
                boxes, read = self.call(lit.predicate, lit.value)
                calls.append((kind == NEG_AUX_CALL, boxes))
                reads |= read
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
        refusal = (f"rule {unparse_rule(rule)} compiles to more than {MAX_RULE_BOXES} "
                   f"boxes through its exception calls") if calls else ""
        boxes = self.join([0], [forbidden], refusal)  # none when two literals contradict
        for negated, called in calls:
            if negated:
                boxes = _subtract(boxes, called, self.feature_masks, MAX_RULE_BOXES, refusal)
            else:
                boxes = self.join(boxes, called, refusal)
        return tuple(boxes), reads | forbidden

    def join(self, boxes: Sequence[int], other: Sequence[int], refusal: str) -> list[int]:
        """The nonempty meets of a box of ``boxes`` with a box of ``other``;
        more than ``MAX_RULE_BOXES`` is a ``RuleProgramError`` reading
        ``refusal``."""
        out: list[int] = []
        for x in boxes:
            for y in other:
                free = ~(x | y)
                if all(map(free.__and__, self.feature_masks)):  # else x | y is empty
                    out.append(x | y)
                    if len(out) > MAX_RULE_BOXES:
                        raise RuleProgramError(refusal)
        return out


def _co_firing_state(boxes, feature_masks) -> int | None:
    """Bits of a state on which two different alternatives fire, or None:
    the lowest value of each feature in the first meet of two of their
    boxes."""
    for a, b in itertools.combinations(range(len(boxes)), 2):
        for x, y in itertools.product(boxes[a], boxes[b]):
            free = [fm & ~(x | y) for fm in feature_masks]
            if all(free):
                return sum(f & -f for f in free)
    return None


class _CompiledGroup:
    """One causal group: the head ``feature`` (index ``fi``), per alternative
    its head value (``head_values``), its rules (``rules``), the boxes they
    fire on and the rule each box comes from (``owner``), and the head
    values that satisfy the group when it fires, ``allowed[fired]``, with
    ``allowed[-1]`` the values allowed when none fires.  ``first[fired]`` is
    the bit of the value a repair falls back to: the fired head value when
    the group allows it, else the lowest allowed value (0 when none is).
    ``reads`` holds the bits of every feature its rules read, through their
    calls too.  A group with a state on which two alternatives fire is a
    :class:`CausalProgramError` naming the rules that fire there."""

    __slots__ = ("feature", "head_values", "rules", "fi", "allowed", "first", "boxes", "owner",
                 "reads", "texts")

    def __init__(self, feature: str, alternatives: dict[Value, list[Rule]],
                 compiler: _ProgramCompiler):
        self.feature = feature
        self.head_values = tuple(alternatives)
        self.rules = tuple(map(tuple, alternatives.values()))
        self.fi = fi = compiler.config.feature_index(feature)
        spec = compiler.config.features[fi]
        feature_masks = compiler.feature_masks
        heads = tuple(compiler.mask(fi, lambda v, t=t: spec.satisfies(v, t))
                      for t in self.head_values)
        values = tuple(compiler.mask(fi, lambda v, t=t: v == t) for t in self.head_values)
        rules = [[compiler.rule(r) for r in alt] for alt in self.rules]  # per rule (boxes, reads)
        self.boxes = tuple(tuple(box for boxes, _ in alt for box in boxes) for alt in rules)
        self.owner = tuple(tuple(r for r, (boxes, _) in enumerate(alt) for _ in boxes)
                           for alt in rules)
        self.reads = reduce(operator.or_, (reads for alt in rules for _, reads in alt), 0)
        self.texts = [[None] * len(alt) for alt in self.rules]
        bits = _co_firing_state(self.boxes, feature_masks)
        if bits is not None:
            raise CausalProgramError(
                f"two alternatives for feature {feature!r} fired simultaneously: "
                f"{'; '.join(t for a in range(len(rules)) for t in self.rule_text(a, bits))}"
            )
        others = [reduce(operator.or_, heads[:a] + heads[a + 1:], 0) for a in range(len(heads))]
        self.allowed = tuple(h & ~o for h, o in zip(heads, others)) + (
            feature_masks[fi] & ~reduce(operator.or_, heads, 0),
        )
        self.first = tuple(
            v & allowed or allowed & -allowed for v, allowed in zip(values + (0,), self.allowed)
        )

    def fired(self, bits: int) -> int:
        """Index of the alternative that fires, or -1."""
        for a, boxes in enumerate(self.boxes):
            for box in boxes:
                if not bits & box:
                    return a
        return -1

    def rule_text(self, a: int, bits: int) -> tuple[str, ...]:
        """The text of alternative ``a``'s rules that fire on ``bits``, in
        rule order, ``()`` for ``a = -1`` (none fires); each rule is rendered
        once, on first use."""
        if a < 0:
            return ()
        texts = self.texts[a]
        out = []
        for r in sorted({r for box, r in zip(self.boxes[a], self.owner[a]) if not bits & box}):
            if texts[r] is None:
                texts[r] = unparse_rule(self.rules[a][r])
            out.append(texts[r])
        return tuple(out)


def _head_order(groups, feature_masks) -> tuple[tuple[_CompiledGroup, bool], ...]:
    """The groups, each after the groups whose heads it reads, paired with
    whether it is decidable at its place: whether every head its rules read
    is derived before it.  Groups that no such order can place (on or behind
    a cycle) follow in group order."""
    reads = {g.fi: {h.fi for h in groups if g.reads & feature_masks[h.fi]} for g in groups}
    order: list[_CompiledGroup] = []
    placed: set[int] = set()
    pending = list(groups)
    while ready := [g for g in pending if reads[g.fi] <= placed]:
        for g in ready:
            order.append(g)
            placed.add(g.fi)
            pending.remove(g)
    order += pending
    out = []
    derived: set[int] = set()
    for g in order:
        out.append((g, reads[g.fi] <= derived))
        derived.add(g.fi)
    return tuple(out)


def _decision_boxes(decision, head_order, walk, feature_masks) -> tuple[tuple[int, int], ...]:
    """Per rejecting box of ``decision``, ``(allowed, held)``: two masks
    over the ``walk`` features' bits, in a state's layout.  ``allowed``
    holds the values the box allows; ``held`` is the whole mask of each
    feature that decides, beyond those values, whether a derived state lies
    in the box: the features that the heads it tests are derived from,
    transitively in head order.  A head of an undecidable group takes every
    value whatever the other features hold, so it is derived from none."""
    head_bits = reduce(operator.or_, (feature_masks[g.fi] for g, _ in head_order), 0)
    walk_bits = reduce(operator.or_, (feature_masks[i] for i in walk), 0)
    derived_from: dict[int, int] = {}  # head feature -> bits of the features it is derived from

    def through_heads(reads: int) -> int:
        return reduce(operator.or_, (
            support for h, support in derived_from.items() if reads & feature_masks[h]
        ), 0)

    for g, decidable in head_order:
        derived_from[g.fi] = (g.reads & ~head_bits | through_heads(g.reads)) if decidable else 0
    out = []
    for box in decision:
        fixed = through_heads(box)
        held = (feature_masks[i] for i in walk if feature_masks[i] & fixed)
        out.append((walk_bits & ~box, reduce(operator.or_, held, 0)))
    return tuple(out)


def _subtract(pieces, boxes, feature_masks, cap=math.inf, refusal="") -> tuple[int, ...]:
    """Boxes (forbidden masks) that together hold exactly the states of the
    boxes ``pieces`` that no box of ``boxes`` holds, by Lawler's partition
    (Management Science, 1972): each box is subtracted from every piece in
    turn.  A piece that meets the box splits at each feature where the box
    forbids a value the piece allows: child i holds the meet's values on the
    features before i, on i the piece's values that the box forbids, and the
    piece's values after i.  The children are disjoint, so disjoint pieces
    stay disjoint.  More than ``cap`` pieces is a ``RuleProgramError``
    reading ``refusal``."""
    for box in boxes:
        tested = [m for m in feature_masks if box & m]
        out = []
        for piece in pieces:
            meet = piece | box
            if not all(m & ~meet for m in tested):
                out.append(piece)  # the box does not meet the piece
            else:
                cut = box & ~piece  # the piece's values that the box forbids
                for m in tested:
                    if cut & m:
                        out.append(piece & ~m | m & ~cut)
                        piece |= cut & m  # the meet's values on this feature
            if len(out) > cap:
                raise RuleProgramError(refusal)
        pieces = out
    return tuple(pieces)


class CompiledRules:
    """A config's causal program, grouped per head feature, and its decision
    program as bit masks.

    Feature ``i``'s value with domain index ``j`` is bit ``offsets[i] + j``,
    ``values`` holds each bit's value and ``rank_parts`` its part of the
    state's lexicographic rank, ``j`` times the product of the later
    features' domain sizes; ``bit_features`` holds each bit's feature
    index, and ``value_bits`` maps, per feature, each domain value to its
    bit.  :meth:`bits` encodes a state and :meth:`state`
    decodes one.  ``groups`` holds the compiled causal groups, and
    ``feature_groups`` each feature's group, or None where no causal rule
    sets it.  Every test below takes such bits.  ``favourable`` is whether
    the decision rules name a label other than the config's
    ``undesired_decision``, derived here and never set from outside.
    ``decision`` holds the *rejecting* boxes, whose union is exactly the
    states the decision rules give the undesired label: for rules that name
    the undesired label, the boxes they fire on, in rule order; for rules
    that name the favourable one, their complement, at most
    :data:`MAX_REJECTING_BOXES` disjoint boxes that hold exactly the states
    on which no rule fires.
    :meth:`is_goal` is :meth:`consistent` and :meth:`escapes`; a search that
    derives each head from its group on an acyclic program needs only the
    latter.  ``cost_rows`` is filled by ``search.cost_rows``, one row per
    (bit of a start's value, weight, p): at most one per bit, distinct
    weight and norm.
    """

    __slots__ = ("config", "offsets", "domains", "values", "bit_features", "value_bits",
                 "feature_masks", "groups", "feature_groups", "head_order", "cyclic", "walk",
                 "walk_steps", "rank_parts", "favourable", "decision", "decision_boxes",
                 "cost_rows")

    def __init__(self, config: DatasetConfig, causal: RuleProgram, decision: RuleProgram):
        offsets = []
        off = 0
        for spec in config.features:
            offsets.append(off)
            off += len(spec.domain)
        self.config = config
        self.offsets = tuple(offsets)
        self.domains = tuple(spec.domain for spec in config.features)
        self.values = tuple(v for domain in self.domains for v in domain)
        self.bit_features = tuple(fi for fi, domain in enumerate(self.domains) for _ in domain)
        self.value_bits = tuple({v: 1 << o + j for j, v in enumerate(domain)}
                                for o, domain in zip(offsets, self.domains))
        self.feature_masks = feature_masks = tuple(
            ((1 << len(spec.domain)) - 1) << o for o, spec in zip(offsets, config.features)
        )

        by_head: dict[str, dict[Value, list[Rule]]] = {}
        for rule in causal.rules:
            head = rule.head
            by_head.setdefault(head.predicate, {}).setdefault(head.value, []).append(rule)
        compiler = _ProgramCompiler(config, self.offsets, feature_masks, causal)
        self.groups = tuple(_CompiledGroup(name, alternatives, compiler)
                            for name, alternatives in by_head.items())
        by_feature = [None] * len(offsets)
        for g in self.groups:
            by_feature[g.fi] = g
        self.feature_groups = tuple(by_feature)
        self.head_order = _head_order(self.groups, feature_masks)
        self.cyclic = not all(decidable for _, decidable in self.head_order)
        self.walk = tuple(i for i, g in enumerate(self.feature_groups) if g is None)
        self.walk_steps = tuple(
            (feature_masks[i], (1 << offsets[i]) - 1, -(1 << offsets[i]) & ~feature_masks[i])
            for i in self.walk
        )
        place = [1] * len(offsets)
        for i in range(len(offsets) - 2, -1, -1):
            place[i] = place[i + 1] * len(self.domains[i + 1])
        self.rank_parts = tuple(pl * j for pl, domain in zip(place, self.domains)
                                for j in range(len(domain)))
        label = decision.head_label
        self.favourable = label is not None and label.value != config.undesired_decision
        dc = _ProgramCompiler(config, self.offsets, feature_masks, decision)
        fired = tuple(box for r in decision.rules for box in dc.rule(r)[0])
        self.decision = _subtract(
            (0,), fired, feature_masks, MAX_REJECTING_BOXES,
            f"decision rules for the favourable label {label.value!r} compile to more than "
            f"{MAX_REJECTING_BOXES} rejecting boxes",
        ) if self.favourable else fired
        self.decision_boxes = _decision_boxes(self.decision, self.head_order, self.walk,
                                              feature_masks)
        self.cost_rows: dict = {}

    def bits(self, state: State) -> int:
        """The one-hot bits of ``state``, each value's bit looked up in
        ``value_bits``; a value off its feature's domain, unhashable ones
        too, is a :class:`StateValidationError` naming it."""
        if len(state.values) != len(self.domains):
            raise EvaluationError("state does not match the config's feature tuple")
        try:
            return sum(map(operator.getitem, self.value_bits, state.values))
        except (KeyError, TypeError):  # off the domain, or unhashable
            indices = map(FeatureSpec.index_of, self.config.features, state.values)
            return sum(1 << o + j for o, j in zip(self.offsets, indices))

    def state(self, bits: int) -> State:
        """The state whose bits are ``bits``: the inverse of :meth:`bits`."""
        values = self.values
        return State(tuple([values[(bits & m).bit_length() - 1] for m in self.feature_masks]))

    def consistent(self, bits: int) -> bool:
        for g in self.groups:
            if not bits & g.allowed[g.fired(bits)]:
                return False
        return True

    def decision_positive(self, bits: int) -> bool:
        """Whether the decision rules give ``bits`` the undesired label: a
        rejecting box holds it."""
        for box in self.decision:
            if not bits & box:
                return True
        return False

    def escapes(self, bits: int) -> bool:
        """Whether no rejecting box holds ``bits``, so the decision rules do
        not give it the undesired label: the decision half of
        :meth:`is_goal`."""
        for box in self.decision:
            if not bits & box:
                return False
        return True

    def is_goal(self, bits: int) -> bool:
        return self.consistent(bits) and self.escapes(bits)

    def value(self, fi: int, bits: int) -> Value:
        """Feature ``fi``'s value in the state ``bits``."""
        return self.values[(bits & self.feature_masks[fi]).bit_length() - 1]

    def common_body(self, states: Sequence[int]) -> int:
        """Index of the first rejecting box that holds every one of
        ``states`` (bits), or -1."""
        for b, box in enumerate(self.decision):
            for bits in states:
                if bits & box:
                    break
            else:
                return b
        return -1

    def provenance(self, fi: int, bits: int) -> tuple[str, ...]:
        """The text of the rules of feature ``fi``'s group that fire
        on ``bits``, from the alternative that fires, or ``()`` when none
        does: why a repair made on ``bits`` set that feature."""
        g = self.feature_groups[fi]
        return g.rule_text(g.fired(bits), bits)

    def closure(self, bits: int, prefer: int) -> tuple[int, list[tuple[int, Value, int]]] | None:
        """The causally consistent state that repairs ``bits``, with its
        repairs as ``(feature index, value, bits it was made on)`` in the
        order made; :meth:`provenance` gives a repair's rule text.

        One pass over the groups in :attr:`head_order`: each violated group
        takes the value that ``prefer`` (one-hot bits, as a state's) gives
        its head when the group allows it, else its fallback
        (``first[fired]``: the fired head value if allowed, else the lowest
        allowed).  Every repair value is allowed on the bits it is made on.
        In head order each group reads only heads already repaired, so one
        pass makes the state consistent; on a causal cycle passes repeat, at
        most one more than there are groups, until one repairs nothing.
        None when a violated head is immutable or no value satisfies its
        group.
        """
        features = self.config.features
        repairs = []
        for _ in range(len(self.groups) + 1 if self.cyclic else 1):
            repaired = False
            for g, _ in self.head_order:
                fired = g.fired(bits)
                allowed = g.allowed[fired]
                if bits & allowed:
                    continue
                if not allowed or not features[g.fi].mutable:
                    return None
                pick = allowed & prefer or g.first[fired]
                repairs.append((g.fi, self.values[pick.bit_length() - 1], bits))
                bits = bits & ~self.feature_masks[g.fi] | pick
                repaired = True
            if not repaired or not self.cyclic:
                return bits, repairs
        return None
