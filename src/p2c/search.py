"""Minimal counterfactual search and its weighted-Lp cost machinery.

Costs price every feature change, except that in ``p2c`` mode a change the
causal rules compel (given the target's other features) gets weight zero.
``all_changes`` mode is the comparator that prices everything, including
changes the world would make on its own.

goal_knearest searches the plausibility-restricted space in nondecreasing
order of a lower bound on cost, holds the k best goals by (cost,
lexicographic rank), and stops at the first part of the space that cannot
beat the k-th of them; min_cf is its ``k = 1`` case.  The search is
best-first over boxes of the features no causal rule sets: one mask of
allowed values per feature, bounded by the sum of each feature's cheapest
allowed term.  Expanding a box derives the causal heads of its cheapest
vector from their groups, the way goal-directed evaluation derives a head
from its body, in the compile-time head order of ``masks.CompiledRules``;
only completions the groups allow are goal-tested, so on an acyclic causal
program every tested candidate is causally consistent.  A goal is priced
where it is found, to the bit of what ``compute_weighted_lp`` over the
``adjust_weights`` of ``p2c`` mode would report, so ties in cost are exact
and go by rank.  The box then loses a cut that holds no goal, and the rest
is split by Lawler's partitioning (Management Science, 1972), which keeps
k-best one loop.  When a rejecting decision body fires on every completion,
the cut is that body's whole box: escaping the rule means moving at least
one feature it tests out of its box, the constructive reading s(CASP) gives
``not label(X, ...)``.  Otherwise the cut is the vector alone, which is a
plain best-first walk over vectors.  Candidates stay index vectors and
one-hot bits while searched; only the k goals returned become a ``State``
and a ``CostReport``.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Mapping

from .dataset import Dataset
from .domain import NUMERIC, DatasetConfig, FeatureSpec, State, Value
from .errors import (
    AlreadyCounterfactualError,
    InconsistentInitialStateError,
    NoCounterfactualError,
    P2CError,
)

MODES = ("p2c", "all_changes")


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def feature_distance(spec: FeatureSpec, a: Value, b: Value) -> float:
    """Mismatch indicator for categoricals; range-normalised |a-b| for numerics."""
    if spec.kind == NUMERIC:
        width = spec.range_width()
        if width <= 0:
            return 0.0 if a == b else 1.0
        return abs(float(a) - float(b)) / width  # type: ignore[arg-type]
    return 0.0 if a == b else 1.0


def lp_term(spec: FeatureSpec, w: float, a: Value, b: Value, p: int) -> float:
    """One feature's share of the weighted Lp sum (before the square root for L2)."""
    d = feature_distance(spec, a, b)
    if p == 0:
        return 1.0 if w > 0 and d > 0 else 0.0
    if p == 1:
        return w * d
    return w * d * d


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

    With :func:`adjust_weights`, this is the State-level reference for a
    goal's p2c cost.  No search or plan calls it: they price goals on bits,
    bit for bit as this does.
    """
    if p not in (0, 1, 2):
        raise ValueError(f"p must be 0, 1 or 2, got {p}")
    if len(a.values) != len(config.features) or len(b.values) != len(config.features):
        raise P2CError("states do not match the config's feature tuple")
    total = 0.0
    for spec, va, vb in zip(config.features, a.values, b.values):
        total += lp_term(spec, weights[spec.name], va, vb, p)
    return math.sqrt(total) if p == 2 else total


def adjust_weights(
    dataset: Dataset,
    source: State,
    target: State,
    weights: Mapping[str, float],
) -> tuple[dict[str, float], frozenset[str]]:
    """Zero out the weights of changes the causal rules compel in the target.

    A changed feature is causal-free iff its group fires a requirement in the
    target and the target's value satisfies it: the change would happen on
    its own once the other features move.  The State-level reference that
    the searches' and the planner's pricing on bits must match; neither
    calls it.
    """
    config = dataset.config
    if not dataset.consistent(target):
        raise P2CError("adjust_weights target must be causally consistent")
    adjusted = dict(weights)
    free: set[str] = set()
    for ent in dataset.entailments(target):
        if ent.required is None:
            continue
        i = config.feature_index(ent.feature)
        if source.values[i] == target.values[i]:
            continue
        spec = config.features[i]
        if spec.satisfies(target.values[i], ent.required):
            adjusted[ent.feature] = 0.0
            free.add(ent.feature)
    return adjusted, frozenset(free)


@dataclass(frozen=True)
class CostReport:
    target: State
    cost: float
    p: int
    mode: str
    adjusted_weights: Mapping[str, float]
    causal_free_features: frozenset[str]

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


def plausible_values(dataset: Dataset, spec: FeatureSpec, current: Value) -> tuple[Value, ...]:
    """Values a counterfactual may assign to this feature.

    Immutable features stay put; non-actionable features move only if some
    causal rule can move them; monotone features only move the legal way.
    """
    if not spec.mutable:
        return (current,)
    if spec.name in dataset.causal_head_features:
        return spec.domain
    if not spec.directly_actionable:
        return (current,)
    idx = spec.index_of(current)
    if spec.monotone == "nondecreasing":
        return spec.domain[idx:]
    if spec.monotone == "nonincreasing":
        return spec.domain[: idx + 1]
    return spec.domain


def _per_feature_costs(
    dataset: Dataset,
    instance: State,
    weights: Mapping[str, float],
    p: int,
) -> list[tuple[FeatureSpec, list[tuple[float, int, Value]]]]:
    """For each feature: its plausible values as ``(lp_term, domain index,
    value)``, cheapest first."""
    out = []
    for spec, cur in zip(dataset.config.features, instance.values):
        w = weights[spec.name]
        entries = sorted(
            (lp_term(spec, w, cur, v, p), spec.index_of(v), v)
            for v in plausible_values(dataset, spec, cur)
        )
        out.append((spec, entries))
    return out


def _stream_candidates(
    dataset: Dataset,
    instance: State,
    weights: Mapping[str, float],
    p: int,
    mode: str,
    k: int,
) -> list[tuple[float, State, tuple[int, ...]]]:
    """The k cheapest goals in (cost, rank) order, as ``(cost, state,
    indices of the causal-free features)``.

    The search is best-first over boxes of the non-head features.  A box
    gives each such feature one mask over its sorted plausible values; its
    bound is the sum of each feature's cheapest allowed term, in feature
    order, so it never exceeds the cost of a goal in the box.  Expanding a
    box takes its cheapest vector and completes the causal heads group by
    group, in ``CompiledRules.head_order``: each head takes only the
    plausible values its group allows given the features already assigned
    (those of the fired alternative's head, or no head value when none
    fires), so the other states with this vector, all causally inconsistent,
    are never built.  A group that is undecidable at its place (it reads a
    head derived after it, on a causal cycle) takes every plausible value.

    Each completion that passes the full ``CompiledRules.is_goal`` is priced
    as ``compute_weighted_lp`` prices it, bit for bit: the per-feature
    ``lp_term``s summed in feature order from ``0.0``, then the square root
    for p = 2.  In ``p2c`` mode a head's term is ``0.0`` when its group
    fires on the completed bits (the change is compelled and satisfied);
    for an undecidable group that is settled on the completed bits, not
    during derivation.  The changed heads so freed are the report's
    causal-free features.  The k best goals by (cost, rank) are held;
    ``rank`` is the candidate's domain indices read as one mixed-radix
    number, which orders states exactly as ``DatasetConfig.lex_key`` does.
    Only they become a ``State``.

    Then the box loses a *cut* that holds no goal.  When no completion is a
    goal and one rejecting decision body fires on all of them, the cut is
    that body's box: its literals restrict the features they test, and the
    features it reads through an ``ab`` call or through a head's derivation
    (``CompiledRules.decision_boxes``) keep the vector's values, so the body
    fires on every completion of every vector in the cut.  Otherwise the cut
    is the vector alone.  The rest of the box is pushed as Lawler's
    partition: child i keeps the cut's values on the features before i and
    the box minus the cut on feature i.  When the decision rules name the
    favourable label, every goal lies in some body's box (restricted by its
    literals), so the search starts from disjoint pieces of those boxes
    instead of the whole space.  Boxes are disjoint, so each goal is found
    once and no seen-set is kept.

    Once k goals are held, the search stops at the first box whose bound
    (its square root for p = 2, since distinct sums can share one root) is
    above the k-th cost.  A box whose bound equals it is expanded only if
    the lowest rank a vector in it can have, from the lowest allowed domain
    index of each feature, is at most the k-th rank: a sum can absorb a
    larger term, so a goal may tie the bound without being the box's
    cheapest vector.
    """
    compiled = dataset.compiled
    is_goal = compiled.is_goal
    offsets = compiled.offsets
    heads = dataset.causal_head_features
    per_feature = _per_feature_costs(dataset, instance, weights, p)
    n = len(per_feature)
    place = [1] * n  # weight of feature i's domain index in the rank
    for i in range(n - 2, -1, -1):
        place[i] = place[i + 1] * len(per_feature[i + 1][0].domain)
    walk = [(i, entries) for i, (spec, entries) in enumerate(per_feature) if spec.name not in heads]
    costs = [tuple(c for c, _, _ in entries) for _, entries in walk]
    values = [tuple(v for _, _, v in entries) for _, entries in walk]
    one_hot = [tuple(1 << (offsets[i] + j) for _, j, _ in entries) for i, entries in walk]
    rank_part = [tuple(place[i] * j for _, j, _ in entries) for i, entries in walk]
    # per walk feature, its entries' positions by domain index, for a box's lowest rank
    by_index = [sorted(range(len(parts)), key=parts.__getitem__) for parts in rank_part]
    walk_masks = [compiled.feature_masks[i] for i, _ in walk]
    # per group, in head order: (bit, lp_term, rank part, value, changed) of each plausible
    # head value
    derive = [
        (g, decidable, tuple(
            (1 << (offsets[g.fi] + j), c, place[g.fi] * j, v, v != instance.values[g.fi])
            for c, j, v in per_feature[g.fi][1]
        ))
        for g, decidable in compiled.head_order
    ]
    head_floor = sum(min(place[g.fi] * j for _, j, _ in per_feature[g.fi][1])
                     for g, _ in compiled.head_order)
    free_when_fired = mode == "p2c"
    undesired = compiled.undesired
    root = math.sqrt if p == 2 else float
    at = tuple.__getitem__
    add = operator.add

    def lowest_rank(box: tuple[int, ...]) -> int:
        r = head_floor
        for parts, order, m in zip(rank_part, by_index, box):
            r += parts[next(e for e in order if m >> e & 1)]
        return r

    literal: dict[int, tuple[int, ...]] = {}

    def literal_box(b: int) -> tuple[int, ...]:
        """Per walk feature, the entries that decision body b's literals allow."""
        if b not in literal:
            forbidden = compiled.decision_boxes[b][0]
            literal[b] = tuple(
                sum(1 << e for e, bit in enumerate(bits) if not bit & forbidden)
                for bits in one_hot
            )
        return literal[b]

    def lawler(box: tuple[int, ...], cut: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """Lawler's partition of ``box`` minus ``cut`` (a sub-box of it), as
        disjoint ``(i, child)``: child i holds the cut's values on the
        features before i and the rest of the box on feature i."""
        return [(i, cut[:i] + (m & ~c,) + box[i + 1 :])
                for i, (m, c) in enumerate(zip(box, cut)) if m & ~c]

    # (bound, rank of the cheapest vector, cheapest idx_vec, box); ranks are distinct
    heap: list = []

    def push(box: tuple[int, ...]) -> None:
        idx_vec = tuple((m & -m).bit_length() - 1 for m in box)
        heapq.heappush(heap, (
            reduce(add, map(at, costs, idx_vec), 0.0), sum(map(at, rank_part, idx_vec)),
            idx_vec, box,
        ))

    def minus(box: tuple[int, ...], other: tuple[int, ...]) -> list[tuple[int, ...]]:
        meet = tuple(map(operator.and_, box, other))
        return [child for _, child in lawler(box, meet)] if all(meet) else [box]

    space = tuple((1 << len(c)) - 1 for c in costs)
    if undesired:
        push(space)
    else:
        pieces: list[tuple[int, ...]] = []
        for b in range(len(compiled.decision)):
            box = tuple(map(operator.and_, space, literal_box(b)))
            fresh = [box] if all(box) else []
            for old in pieces:
                fresh = [piece for part in fresh for piece in minus(part, old)]
            pieces += fresh
        for box in pieces:
            push(box)
    # the k best goals: (cost, rank, idx_vec, chosen head entries, freed feature indices)
    found: list[tuple] = []
    while heap:
        bound, rank, idx_vec, box = heapq.heappop(heap)
        if len(found) == k:
            edge = root(bound)
            if edge > found[-1][0]:
                break
            # the cheapest vector is in the box, so its rank bounds the lowest one
            last = found[-1][1]
            if edge == found[-1][0] and rank > last and lowest_rank(box) > last:
                continue
        # one bit per feature, so the sum is their OR
        partial = [(sum(map(at, one_hot, idx_vec)), rank, ())]
        for g, decidable, options in derive:
            grown = []
            for bits, r, chosen in partial:
                if decidable:
                    fired = g.fired(bits)
                    allowed = g.allowed[fired]
                    free = free_when_fired and fired >= 0
                else:
                    allowed, free = -1, None  # settled on the completed bits
                for opt in options:
                    if allowed & opt[0]:
                        grown.append((bits | opt[0], r + opt[2], chosen + ((opt, free),)))
            partial = grown
        goal = False
        terms = None
        for bits, r, chosen in partial:
            if not is_goal(bits):
                continue
            goal = True
            if terms is None:
                terms = [0.0] * n
                for (i, _), c in zip(walk, map(at, costs, idx_vec)):
                    terms[i] = c
            t = terms.copy()
            freed = []
            for (g, _, _), (opt, free) in zip(derive, chosen):
                if free is None:
                    free = free_when_fired and g.fired(bits) >= 0
                if not free:
                    t[g.fi] = opt[1]
                elif opt[4]:
                    freed.append(g.fi)
            cost = root(reduce(add, t, 0.0))
            if len(found) < k or (cost, r) < found[-1][:2]:
                bisect.insort(found, (cost, r, idx_vec, chosen, freed))
                del found[k:]
        body = -1
        if undesired and partial and not goal:
            body = compiled.common_body([bits for bits, _, _ in partial])
        if body >= 0:
            fixed = compiled.decision_boxes[body][1]
            cut = tuple(
                1 << j if fm & fixed else m & allowed
                for j, m, fm, allowed in zip(idx_vec, box, walk_masks, literal_box(body))
            )
        else:
            cut = tuple(1 << j for j in idx_vec)
        for i, child in lawler(box, cut):
            j = (child[i] & -child[i]).bit_length() - 1
            nxt = idx_vec[:i] + (j,) + idx_vec[i + 1 :]
            heapq.heappush(heap, (
                reduce(add, map(at, costs, nxt), 0.0),
                rank + rank_part[i][j] - rank_part[i][idx_vec[i]], nxt, child,
            ))
    out = []
    for cost, _, idx_vec, chosen, freed in found:
        vals: list = [None] * n
        for (i, _), v in zip(walk, map(at, values, idx_vec)):
            vals[i] = v
        for (g, _, _), (opt, _) in zip(derive, chosen):
            vals[g.fi] = opt[3]
        out.append((cost, State(tuple(vals)), tuple(freed)))
    return out


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
    if k < 1:
        raise ValueError("k must be >= 1")
    config = dataset.config
    weights = dict(weights) if weights is not None else config.weights()
    p = config.norm_p if p is None else p
    _check_initial(dataset, instance, on_inconsistent)

    found = _stream_candidates(dataset, instance, weights, p, mode, k)
    if not found:
        raise NoCounterfactualError(
            "no causally consistent counterfactual exists in the admissible space"
        )
    features = config.features
    reports = []
    for cost, target, freed in found:
        adjusted = dict(weights)
        for i in freed:
            adjusted[features[i].name] = 0.0
        reports.append(CostReport(
            target=target,
            cost=cost,
            p=p,
            mode=mode,
            adjusted_weights=adjusted,
            causal_free_features=frozenset(features[i].name for i in freed),
        ))
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


def knearest_trimmed(
    config: DatasetConfig,
    q: State,
    k: int,
    p: int,
    weights: Mapping[str, float] | None = None,
) -> list[tuple[State, float]]:
    """k nearest states via per-dimension trimming.

    Keeps, in every dimension, the k values with the smallest per-feature
    cost contribution under the chosen norm (ties by domain index, matching
    the global lexicographic tie-break), forms the candidate product, and
    picks the k best overall.  The k nearest of the full space always
    survive such a trim, so this equals an exhaustive sort of the space.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = dict(weights) if weights is not None else config.weights()
    trimmed: list[list[Value]] = []
    for spec, qv in zip(config.features, q.values):
        w = weights[spec.name]
        ranked = sorted(
            spec.domain, key=lambda v: (lp_term(spec, w, qv, v, p), spec.index_of(v))
        )
        trimmed.append(ranked[:k])
    scored = sorted(
        (
            (compute_weighted_lp(config, q, s, weights, p), config.lex_key(s), s)
            for s in map(State, itertools.product(*trimmed))
        ),
        key=lambda t: (t[0], t[1]),
    )
    return [(s, d) for d, _, s in scored[:k]]


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
