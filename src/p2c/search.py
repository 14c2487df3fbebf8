"""Minimal counterfactual search and its weighted-Lp cost machinery.

Costs price every feature change, except that in ``p2c`` mode a change the
causal rules compel (given the target's other features) gets weight zero.
``all_changes`` mode is the comparator that prices everything, including
changes the world would make on its own.

goal_knearest searches the plausibility-restricted space in nondecreasing
order of a lower bound on cost, holds the k best goals by (cost,
lexicographic rank), and stops at the first part of the space that cannot
beat the k-th of them; min_cf is its ``k = 1`` case.  The search is
best-first over boxes of the features no causal rule sets (the walk).  A
box is one int in a state's bit layout, the values it allows of each walk
feature, and its cheapest vector, one bit per walk feature, bounds it by
the sum of that vector's terms.  What depends only on the rules and the
config (the walk and its geometry, each bit's part of the rank, each
rejecting box's cut box) is compiled once, on ``masks.CompiledRules``.
What a feature's value in the instance, its weight and p decide is one
:class:`CostRow` per such key, built on first use and kept there too
(:func:`cost_rows`): the ``lp_term`` to every value, the plausible bits, a
cost order (the bits by term) that gives a box's cheapest value, and a
head's options.  A call
looks its rows up by the start's bits; it still builds the flat list of
terms by bit (``cost_terms``) and the walk steps with their orders.  No
answer is kept between calls.  Every search starts from one box, the
plausible box, whatever label the decision rules name: compiling gives
every decision program its rejecting boxes.  Expanding a box derives the
causal heads of its cheapest vector from their groups, the way
goal-directed evaluation derives a head from its body, in the
compile-time head order of ``masks.CompiledRules``, so on an acyclic
causal program every completion is causally consistent and is tested
against the decision rules only; on a causal cycle it takes the full goal
test.  A goal is priced where it is found, by ``goal_price``, the one
price on bits that the planner shares: it sums the ``cost_terms`` of the
changed values, bit for bit as ``compute_weighted_lp`` prices the goal, so
ties in cost are exact and go by rank.  The box then loses a cut that holds
no goal, and the rest is split by Lawler's partitioning (Management
Science, 1972), which keeps k-best one loop.  When one rejecting box holds
every completion, the cut is that whole box: escaping it means moving at
least one feature it tests out of it, the constructive reading s(CASP)
gives ``not label(X, ...)``.  Otherwise the cut is the vector alone,
which is a plain best-first walk over vectors.
Boxes, cuts and candidates stay one-hot bits while searched; only the k
goals returned become a ``State`` and a ``CostReport``.

Per call, the constant work is kept small.  A config's own weights cannot
change, so :func:`resolve_costing` checks them once and keeps them on the
config as a plain dict, handing out a read-only view; a caller's
``weights=`` and every ``p`` are checked on each call.  Each report is
built in one step, and the reports of one call that free the same
features share one ``adjusted_weights`` mapping and one
``causal_free_features`` set.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .dataset import Dataset
from .domain import (
    NORMS,
    NUMERIC,
    DatasetConfig,
    FeatureSpec,
    State,
    Value,
    direct_action_problem,
)
from .errors import (
    AlreadyCounterfactualError,
    InconsistentInitialStateError,
    NoCounterfactualError,
    P2CError,
)

if TYPE_CHECKING:
    from .masks import CompiledRules

MODES = ("p2c", "all_changes")


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def lp_term(spec: FeatureSpec, w: float, a: Value, b: Value, p: int) -> float:
    """One feature's share of the weighted Lp sum (before the square root for
    L2), on the distance from ``a`` to ``b``: a mismatch indicator for
    categoricals, range-normalised |a-b| for numerics."""
    if spec.kind != NUMERIC or (width := spec.range_width()) <= 0:
        d = 0.0 if a == b else 1.0
    else:
        d = abs(float(a) - float(b)) / width  # type: ignore[arg-type]
    if p == 0:
        return 1.0 if w > 0 and d > 0 else 0.0
    if p == 1:
        return w * d
    return w * d * d


def check_norm(p) -> None:
    """Raise ``ValueError`` unless ``p`` is a norm the cost supports: the int
    0, 1 or 2 (not a bool or a float)."""
    if type(p) is not int or p not in NORMS:
        raise ValueError(f"p must be 0, 1 or 2, got {p!r}")


def check_weights(config: DatasetConfig, weights: Mapping[str, float]) -> None:
    """Raise ``ValueError`` naming the feature unless ``weights`` gives each
    of the config's features, and nothing else, a finite number >= 0 that
    is not a bool."""
    for spec in config.features:
        if spec.name not in weights:
            raise ValueError(f"weights give no weight to feature {spec.name!r}")
        w = weights[spec.name]
        if isinstance(w, bool) or not (
            isinstance(w, (int, float)) and math.isfinite(w) and w >= 0
        ):
            raise ValueError(f"weight of feature {spec.name!r} must be finite and >= 0, got {w!r}")
    if len(weights) != len(config.features):
        extra = next(name for name in weights if not config.has_feature(name))
        raise ValueError(f"weights name {extra!r}, which is not a feature")


def resolve_costing(
    config: DatasetConfig, weights: Mapping[str, float] | None, p: int | None
) -> tuple[Mapping[str, float], int]:
    """A read-only copy of ``weights`` and ``p``, each the config's own when
    None, checked by :func:`check_norm` and :func:`check_weights`.

    ``p`` and a caller's ``weights`` are checked on every call, and the
    weights copied, since the caller may edit its mapping between calls.
    The config's own weights cannot change, so they are checked on first
    use and kept on the config as a plain dict; a failed check keeps
    nothing and raises again on the next call.
    """
    p = config.norm_p if p is None else p
    check_norm(p)
    if weights is not None:
        weights = dict(weights)
        check_weights(config, weights)
        return MappingProxyType(weights), p
    own = config._checked_weights
    if own is None:
        own = config.weights()
        check_weights(config, own)
        object.__setattr__(config, "_checked_weights", own)
    return MappingProxyType(own), p


def compute_weighted_lp(
    config: DatasetConfig,
    a: State,
    b: State,
    weights: Mapping[str, float],
    p: int,
) -> float:
    """Weighted Lp distance between two states of the same space.

    L1 = sum(w*d), L2 = sqrt(sum(w*d^2)), L0 counts features with positive
    weight and nonzero difference.  Symmetric in ``a`` and ``b``.

    Under ``p2c`` mode's weights (their State-level reference is in
    ``tests/oracles.py``), this is a goal's p2c cost.  No search or plan
    calls it: they price goals on bits, bit for bit as this does.
    """
    check_norm(p)
    check_weights(config, weights)
    if len(a.values) != len(config.features) or len(b.values) != len(config.features):
        raise P2CError("states do not match the config's feature tuple")
    total = 0.0
    for spec, va, vb in zip(config.features, a.values, b.values):
        total += lp_term(spec, weights[spec.name], va, vb, p)
    return math.sqrt(total) if p == 2 else total


class CostRow:
    """What a search reads of one feature, given its value in the instance,
    its weight and p; built once per such key (:func:`cost_rows`).

    ``terms`` is the ``lp_term`` to each value, by domain index;
    ``plausible`` the bits of the values a counterfactual may give the
    feature; ``order`` those bits by term, then by position; ``options``,
    for a causal head, the ``(bit, rank part)`` of each, in that order
    (empty for a walk feature); ``floor`` the rank part of the lowest
    plausible bit.
    """

    __slots__ = ("terms", "plausible", "order", "options", "floor")

    def __init__(self, terms: tuple[float, ...], plausible: int, order: tuple[int, ...],
                 options: tuple[tuple[int, int], ...], floor: int):
        self.terms = terms
        self.plausible = plausible
        self.order = order
        self.options = options
        self.floor = floor


def _cost_row(compiled: CompiledRules, fi: int, bit: int, w: float, p: int) -> CostRow:
    """The row of feature ``fi``'s value at bit position ``bit`` under
    weight ``w`` and norm ``p``."""
    spec, off, parts = compiled.config.features[fi], compiled.offsets[fi], compiled.rank_parts
    cur = spec.domain[bit - off]
    terms = tuple([lp_term(spec, w, cur, v, p) for v in spec.domain])
    head = fi not in compiled.walk
    span = _plausible(spec, bit - off, head)
    order = [off + j for j in sorted(span, key=terms.__getitem__)]
    bits = tuple([1 << b for b in order])
    return CostRow(
        terms=terms,
        plausible=(1 << span.stop) - (1 << span.start) << off,
        order=bits,
        options=tuple(zip(bits, [parts[b] for b in order])) if head else (),
        floor=parts[off + span.start],
    )


def cost_rows(
    compiled: CompiledRules, start: int, weights: Mapping[str, float], p: int
) -> list[CostRow]:
    """Per feature, the :class:`CostRow` of its value in ``start`` (one-hot
    bits), under its weight in ``weights`` and norm ``p``.

    Rows are kept on ``compiled`` (``CompiledRules.cost_rows``), keyed by the
    value's bit position, the weight and p, so equal weights share a row
    (``1`` and ``1.0`` too) and a call under other weights builds its own.
    A row holds no answer: it depends only on the compiled program and its
    key, so a dataset keeps at most one per bit, distinct weight and norm.
    """
    rows = compiled.cost_rows
    out = []
    for fi, (spec, m) in enumerate(zip(compiled.config.features, compiled.feature_masks)):
        key = ((start & m).bit_length() - 1, weights[spec.name], p)
        row = rows.get(key)
        if row is None:
            row = rows[key] = _cost_row(compiled, fi, *key)
        out.append(row)
    return out


def cost_terms(
    compiled: CompiledRules, start: int, weights: Mapping[str, float], p: int
) -> list[float]:
    """The ``lp_term`` from the value of each feature in ``start`` (one-hot
    bits) to every value of its domain, indexed by bit: feature i's value
    with domain index j is at ``CompiledRules.offsets[i] + j``.  The rows'
    terms of :func:`cost_rows`, concatenated."""
    return [t for row in cost_rows(compiled, start, weights, p) for t in row.terms]


def goal_price(
    compiled: CompiledRules, start: int, bits: int, terms: Sequence[float], p: int, mode: str
) -> tuple[float, list[int]]:
    """The cost from ``start`` of the goal ``bits`` (both one-hot bits of
    ``compiled``), and the indices of the features it leaves free; ``terms``
    is :func:`cost_terms` from the start.

    In ``p2c`` mode a changed head whose group fires on ``bits`` is free: the
    change is compelled and, the goal being consistent, satisfied.  Each
    other changed value's term, ``terms[bit]``, is summed in bit order
    (feature order) from ``0.0``, then the square root for p = 2: bit for
    bit ``compute_weighted_lp`` under ``p2c`` mode's weights (their
    reference is in ``tests/oracles.py``) or the plain ones, since every
    term it adds beyond these is an exact ``0.0``.
    """
    changed = bits & ~start
    freed = []
    if mode == "p2c":
        masks = compiled.feature_masks
        for g in compiled.groups:
            if changed & masks[g.fi] and g.fired(bits) >= 0:
                changed &= ~masks[g.fi]
                freed.append(g.fi)
    total = 0.0
    while changed:
        low = changed & -changed
        total += terms[low.bit_length() - 1]
        changed ^= low
    return (math.sqrt(total) if p == 2 else total), freed


@dataclass(frozen=True, init=False)
class CostReport:
    """A goal and its cost.  ``adjusted_weights``, the weights the cost was
    priced under (``0.0`` on each causal-free feature), is read-only: the
    reports of one search that free the same features share one
    ``adjusted_weights`` mapping and one ``causal_free_features`` set.

    A frozen dataclass whose ``__init__`` fills the instance's ``__dict__``
    directly, not one ``object.__setattr__`` per field; equality, ``repr``
    and ``dataclasses.replace`` are the dataclass's own.
    """

    target: State
    cost: float
    p: int
    mode: str
    adjusted_weights: Mapping[str, float]
    causal_free_features: frozenset[str]

    def __init__(self, target: State, cost: float, p: int, mode: str,
                 adjusted_weights: Mapping[str, float], causal_free_features: frozenset[str]):
        fields = self.__dict__
        fields["target"] = target
        fields["cost"] = cost
        fields["p"] = p
        fields["mode"] = mode
        fields["adjusted_weights"] = adjusted_weights
        fields["causal_free_features"] = causal_free_features

    def to_json(self, config: DatasetConfig) -> dict:
        return {
            "target": config.state_dict(self.target),
            "cost": self.cost,
            "p": self.p,
            "mode": self.mode,
            "adjusted_weights": dict(sorted(self.adjusted_weights.items())),
            "causal_free_features": sorted(self.causal_free_features),
        }


# ---------------------------------------------------------------------------
# Candidate space
# ---------------------------------------------------------------------------


def _plausible(spec: FeatureSpec, ci: int, head: bool) -> range:
    """The domain indices a counterfactual may give this feature, whose
    instance value has index ``ci``.

    A mutable causal head (``head``) may take any value, since the causal
    rules can move it.  Any other feature keeps its value or takes one that
    a direct action may reach (``domain.direct_action_problem``): immutable
    and non-actionable features stay put, and monotone ones move only the
    legal way, so the plausible indices are one range.
    """
    domain = spec.domain
    if head and spec.mutable:
        return range(len(domain))
    cur = domain[ci]
    ok = [j for j, v in enumerate(domain) if j == ci or not direct_action_problem(spec, cur, v)]
    return range(ok[0], ok[-1] + 1)


def _stream_candidates(
    compiled: CompiledRules,
    start: int,
    weights: Mapping[str, float],
    p: int,
    mode: str,
    k: int,
) -> list[tuple[float, int, int, list[int]]]:
    """The k cheapest goals in (cost, rank) order, as ``(cost, rank, bits,
    indices of the causal-free features)``.

    The search is best-first over boxes of the non-head features, the walk
    of ``CompiledRules.walk``.  A box is one int in a state's bit layout:
    bit ``offsets[i] + j`` is set when it allows walk feature i's value with
    domain index j.  A call looks up, per feature, the :class:`CostRow` of
    the start's value under its weight and p (:func:`cost_rows`): its
    plausible bits, and its cost order (those bits by the ``lp_term`` to
    each value, then by position).  It builds only lists over those rows:
    the terms by bit, each walk feature's step (``CompiledRules.walk_steps``
    and the row's order) and each group's head options.  A box's cheapest
    vector takes, per walk feature, the first bit of its
    cost order that the box allows; the box's bound is the sum of those
    bits' terms in bit order (walk order) from ``0.0``, so it never exceeds
    the cost of a goal in the box.  A heap entry is ``(bound, rank, vector,
    box)``, the vector's bits beside the box's.  Expanding a box takes its
    cheapest vector and completes the causal heads group by group, in
    ``CompiledRules.head_order``: each head takes only the plausible values
    its group allows given the features already assigned (those of the
    fired alternative's head, or no head value when none fires), so the
    other states with this vector, all causally inconsistent, are never
    built.  A group that is undecidable at its place (it reads a head
    derived after it, on a causal cycle) takes every plausible value.

    So on an acyclic program every completion is causally consistent, and
    it is goal-tested against the decision rules only
    (``CompiledRules.escapes``); on a cyclic one it takes the full
    ``CompiledRules.is_goal``.  A goal is priced by ``goal_price`` on its
    completed bits, with each changed value's term read from
    :func:`cost_terms`; in ``p2c`` mode the changed heads whose groups fire
    there are free, and they are the report's causal-free features.  The k
    best goals by (cost, rank) are held; ``rank`` is the sum of
    ``CompiledRules.rank_parts`` over the candidate's bits, its domain
    indices read as one mixed-radix number, which orders states exactly as
    ``DatasetConfig.lex_key`` does.  They are returned as bits; the caller
    decodes each into a ``State`` as it builds that goal's report.

    Then the box loses a *cut* that holds no goal.  When no completion is a
    goal and one rejecting box holds all of them, the cut is that box over
    the walk (``CompiledRules.decision_boxes``), ``box & allowed & ~held |
    vector & held``: it restricts the walk features it tests, and
    the features the heads it tests are derived from keep the vector's
    values, so it holds every completion of every vector in the cut.
    Otherwise the cut is the vector alone.  The rest of the box is pushed
    as Lawler's partition: child i is ``cut & below_i | box & ~cut & mask_i
    | box & above_i``, the cut's values on the walk features before i, the
    box minus the cut on feature i, and the box's values after i.  Its
    vector differs from the parent's on feature i alone, where it takes the
    first bit of the cost order that the child allows, so its rank moves by
    the two bits' rank parts.  The search starts from one box, the
    plausible box, for either label the decision rules name, since
    ``CompiledRules.decision`` always holds the rejecting boxes.  Boxes are
    disjoint, so each goal is found once and no seen-set is kept.

    Once k goals are held, the search stops at the first box whose bound
    (its square root for p = 2, since distinct sums can share one root) is
    above the k-th cost.  A box whose bound equals it is expanded only if
    the lowest rank a vector in it can have, from the lowest allowed bit of
    each feature, is at most the k-th rank: a sum can absorb a larger term,
    so a goal may tie the bound without being the box's cheapest vector.
    """
    goal_test = compiled.is_goal if compiled.cyclic else compiled.escapes
    parts = compiled.rank_parts
    rows = cost_rows(compiled, start, weights, p)
    terms = [t for row in rows for t in row.terms]
    # per walk feature: its mask, the bits below and above it, its cost order
    steps = [step + (rows[i].order,) for step, i in zip(compiled.walk_steps, compiled.walk)]
    walk_masks = [m for m, _, _, _ in steps]
    # per group, in head order: (bit, rank part) of each plausible head value
    derive = [(g, decidable, rows[g.fi].options) for g, decidable in compiled.head_order]
    head_floor = sum(rows[g.fi].floor for g, _ in compiled.head_order)
    root = math.sqrt if p == 2 else float
    heappush = heapq.heappush

    def price(vec: int) -> float:
        """The sum of the terms of ``vec`` (one bit per walk feature) in bit
        order, from ``0.0``."""
        total = 0.0
        for m in walk_masks:
            total += terms[(vec & m).bit_length() - 1]
        return total

    def low_rank(box: int) -> int:
        """The sum of the rank parts of the lowest bit ``box`` allows of each
        walk feature: the rank of a vector's bits."""
        lows = (box & m & -(box & m) for m in walk_masks)
        return sum(parts[low.bit_length() - 1] for low in lows)

    # the plausible box and its cheapest vector: per walk feature, its cheapest plausible bit
    space = sum(row.plausible for row in rows) & sum(walk_masks)
    vec = sum(order[0] for _, _, _, order in steps)
    # (bound, rank of the cheapest vector, its bits, box); ranks are distinct
    heap = [(price(vec), low_rank(vec), vec, space)]
    # the k best goals: (cost, rank, bits, freed feature indices)
    found: list[tuple] = []
    while heap:
        bound, rank, vec, box = heapq.heappop(heap)
        if len(found) == k:
            edge = root(bound)
            if edge > found[-1][0]:
                break
            # the cheapest vector is in the box, so its rank bounds the lowest one
            last = found[-1][1]
            if edge == found[-1][0] and rank > last and head_floor + low_rank(box) > last:
                continue
        partial = [(vec, rank)]
        for g, decidable, options in derive:
            grown = []
            for bits, r in partial:
                allowed = g.allowed[g.fired(bits)] if decidable else -1
                for bit, part in options:
                    if allowed & bit:
                        grown.append((bits | bit, r + part))
            partial = grown
        goal = False
        for bits, r in partial:
            if not goal_test(bits):
                continue
            goal = True
            cost, freed = goal_price(compiled, start, bits, terms, p, mode)
            if len(found) < k or (cost, r) < found[-1][:2]:
                bisect.insort(found, (cost, r, bits, freed))
                del found[k:]
        body = -1
        if partial and not goal:
            body = compiled.common_body([bits for bits, _ in partial])
        if body >= 0:
            allowed, held = compiled.decision_boxes[body]
            cut = box & allowed & ~held | vec & held
        else:
            cut = vec
        # lawler(box, cut), each child pushed with its vector: vec on every feature but i
        rest = box & ~cut
        for m, below, above, order in steps:
            part = rest & m
            if part:
                for new in order:  # the first bit of the cost order that the child allows
                    if part & new:
                        break
                old = vec & m
                nxt = vec ^ old | new
                heappush(heap, (
                    price(nxt),
                    rank - parts[old.bit_length() - 1] + parts[new.bit_length() - 1], nxt,
                    cut & below | part | box & above,
                ))
    return found


def _check_initial(dataset: Dataset, instance: State, on_inconsistent: str) -> None:
    if on_inconsistent not in ("error", "allow"):
        raise ValueError("on_inconsistent must be 'error' or 'allow'")
    if dataset.is_goal(instance):
        raise AlreadyCounterfactualError(
            "initial state is already in the goal set"
        )
    if on_inconsistent == "error" and not dataset.consistent(instance):
        raise InconsistentInitialStateError(
            "initial state violates the causal rules; pass on_inconsistent='allow' "
            "(or the CLI --repair-inconsistent flag) to search from it anyway"
        )


def _nearest(
    dataset: Dataset,
    instance: State,
    k: int,
    weights: Mapping[str, float] | None,
    p: int | None,
    mode: str,
    on_inconsistent: str,
) -> list[CostReport]:
    """The k cheapest goals, ties by lexicographic position, each reported
    with the weights its cost was priced under."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if type(k) is not int:
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    config = dataset.config
    weights, p = resolve_costing(config, weights, p)
    _check_initial(dataset, instance, on_inconsistent)
    compiled = dataset.compiled

    found = _stream_candidates(compiled, compiled.bits(instance), weights, p, mode, k)
    if not found:
        raise NoCounterfactualError(
            "no causally consistent counterfactual exists in the admissible space"
        )
    features, state = config.features, compiled.state
    # per freed set, its (adjusted_weights, causal_free_features), shared by its reports
    shared = {(): (weights, frozenset())}
    reports = []
    for cost, _, bits, freed in found:
        pair = shared.get(key := tuple(freed))
        if pair is None:
            names = [features[i].name for i in freed]
            pair = shared[key] = (
                MappingProxyType({**weights, **dict.fromkeys(names, 0.0)}), frozenset(names)
            )
        reports.append(CostReport(state(bits), cost, p, mode, *pair))
    return reports


def min_cf(
    dataset: Dataset,
    instance: State,
    *,
    weights: Mapping[str, float] | None = None,
    p: int | None = None,
    mode: str = "p2c",
    on_inconsistent: str = "error",
) -> CostReport:
    """The minimal causally compliant counterfactual for ``instance``: the
    ``k = 1`` case of :func:`goal_knearest`.

    Ties in cost break lexicographically (feature order, then domain index).
    """
    return _nearest(dataset, instance, 1, weights, p, mode, on_inconsistent)[0]


# ---------------------------------------------------------------------------
# k-nearest machinery
# ---------------------------------------------------------------------------


def goal_knearest(
    dataset: Dataset,
    instance: State,
    k: int,
    *,
    p: int | None = None,
    mode: str = "p2c",
    weights: Mapping[str, float] | None = None,
    on_inconsistent: str = "error",
) -> list[CostReport]:
    """The k cheapest counterfactuals for ``instance`` under the given mode,
    ties in cost by lexicographic position.

    Dimension trimming is unsound once candidates are filtered to the goal
    set, so this searches the plausibility-restricted space best-first by a
    lower bound on cost, and stops once no box left can hold a goal that
    beats the k-th best on (cost, rank).  Only the goals returned are built
    into reports.
    """
    return _nearest(dataset, instance, k, weights, p, mode, on_inconsistent)
