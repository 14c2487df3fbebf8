"""Minimal counterfactual search and its weighted-Lp cost machinery.

Costs price every feature change, except that in ``p2c`` mode a change the
causal rules compel (given the target's other features) gets weight zero.
``all_changes`` mode is the comparator that prices everything, including
changes the world would make on its own.

goal_knearest streams candidates from the plausibility-restricted space in
nondecreasing order of a lower bound on their cost, so it can stop as soon as
the bound passes the k-th best verified counterfactual; min_cf is its
``k = 1`` case.  The stream is a best-first search over boxes of the
features no causal rule sets: one mask of allowed values per feature,
bounded by the sum of each feature's cheapest allowed term.  Expanding a box
derives the causal heads of its cheapest vector from their groups, the way
goal-directed evaluation derives a head from its body, in the compile-time
head order of ``masks.CompiledRules``; only completions the groups allow are
priced and goal-tested, so on an acyclic causal program every tested
candidate is causally consistent.  The box then loses a cut that holds no
goal, and the rest is split by Lawler's partitioning (Management Science,
1972), which keeps k-best one loop.  When a rejecting decision body fires on
every completion, the cut is that body's whole box: escaping the rule means
moving at least one feature it tests out of its box, the constructive
reading s(CASP) gives ``not label(X, ...)``.  Otherwise the cut is the
vector alone, which is a plain best-first walk over vectors.  Candidates
stay index vectors and one-hot bits until one passes the goal test; only
goals become a ``State``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping

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
    its own once the other features move.
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
    dataset: Dataset, per_feature, mode: str
) -> Iterator[tuple[float, int, State | None]]:
    """Yield (bound, lex_rank, state) in nondecreasing bound order; ``state``
    is None unless the entry is a goal.

    The search is best-first over boxes of the non-head features.  A box
    gives each such feature one mask over its sorted plausible values; its
    bound is the sum of each feature's cheapest allowed term, and its rank
    that of the cheapest values, so (bound, rank) is a lower bound on
    (cost, rank) of every goal in the box.  Expanding a box takes its
    cheapest vector and completes the causal heads group by group, in
    ``CompiledRules.head_order``: each head takes only the plausible values
    its group allows given the features already assigned (those of the fired
    alternative's head, or no head value when none fires), so the other
    states with this vector, all causally inconsistent, are never built.
    Each completion that passes the full ``CompiledRules.is_goal`` goes on
    the heap as a leaf, priced exactly: a head is free in ``p2c`` mode when
    its group fires (the change is compelled and satisfied) and costs its
    ``lp_term`` otherwise.  Bounds therefore never decrease, and in
    ``all_changes`` mode a leaf's bound is its cost.  A group that is
    undecidable at its place (it reads a head derived after it, on a causal
    cycle) takes every plausible value, free in ``p2c`` mode, which keeps the
    bound a lower bound.  Only goals become a ``State``.

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
    instead of the whole space.

    Ties go by ``lex_rank``, the candidate's domain indices read as one
    mixed-radix number, which orders states exactly as
    ``DatasetConfig.lex_key`` does.  Boxes are disjoint, so each goal is
    pushed once and no seen-set is kept.
    """
    compiled = dataset.compiled
    is_goal = compiled.is_goal
    offsets = compiled.offsets
    heads = dataset.causal_head_features
    n = len(per_feature)
    place = [1] * n  # weight of feature i's domain index in the rank
    for i in range(n - 2, -1, -1):
        place[i] = place[i + 1] * len(per_feature[i + 1][0].domain)
    walk = [(i, entries) for i, (spec, entries) in enumerate(per_feature) if spec.name not in heads]
    costs = [tuple(c for c, _, _ in entries) for _, entries in walk]
    values = [tuple(v for _, _, v in entries) for _, entries in walk]
    one_hot = [tuple(1 << (offsets[i] + j) for _, j, _ in entries) for i, entries in walk]
    rank_part = [tuple(place[i] * j for _, j, _ in entries) for i, entries in walk]
    walk_masks = [compiled.feature_masks[i] for i, _ in walk]
    # per group, in head order: (bit, lp_term, rank part, value) of each plausible head value
    derive = [
        (g, decidable, tuple(
            (1 << (offsets[g.fi] + j), c, place[g.fi] * j, v) for c, j, v in per_feature[g.fi][1]
        ))
        for g, decidable in compiled.head_order
    ]
    free_when_fired = mode == "p2c"
    undesired = compiled.undesired
    at = tuple.__getitem__

    def state(idx_vec: tuple[int, ...], chosen: tuple[Value, ...]) -> State:
        vals: list = [None] * n
        for (i, _), v in zip(walk, map(at, values, idx_vec)):
            vals[i] = v
        for (g, _, _), v in zip(derive, chosen):
            vals[g.fi] = v
        return State(tuple(vals))

    literal: dict[int, tuple[int, ...]] = {}

    def literal_box(b: int) -> tuple[int, ...]:
        """Per walk feature, the entries that decision body b's literals allow."""
        if b not in literal:
            forbidden = compiled.decision_boxes[b][0]
            literal[b] = tuple(
                sum(1 << k for k, bit in enumerate(bits) if not bit & forbidden)
                for bits in one_hot
            )
        return literal[b]

    def lawler(box: tuple[int, ...], cut: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """Lawler's partition of ``box`` minus ``cut`` (a sub-box of it), as
        disjoint ``(i, child)``: child i holds the cut's values on the
        features before i and the rest of the box on feature i."""
        return [(i, cut[:i] + (m & ~c,) + box[i + 1 :])
                for i, (m, c) in enumerate(zip(box, cut)) if m & ~c]

    # nodes: (bound, rank, 0, cheapest idx_vec, box); leaves: (bound, rank, -1, goal)
    heap: list = []

    def push(box: tuple[int, ...]) -> None:
        idx_vec = tuple((m & -m).bit_length() - 1 for m in box)
        heapq.heappush(heap, (
            sum(map(at, costs, idx_vec)), sum(map(at, rank_part, idx_vec)), 0, idx_vec, box
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
    while heap:
        entry = heapq.heappop(heap)
        if entry[2] < 0:
            yield entry[0], entry[1], entry[3]
            continue
        bound, rank, _, idx_vec, box = entry
        yield bound, rank, None
        # one bit per feature, so the sum is their OR
        partial = [(sum(map(at, one_hot, idx_vec)), bound, rank, ())]
        for g, decidable, options in derive:
            grown = []
            for bits, b, r, chosen in partial:
                if decidable:
                    fired = g.fired(bits)
                    allowed = g.allowed(fired)
                    free = free_when_fired and fired >= 0
                else:
                    allowed, free = -1, free_when_fired
                for bit, price, dr, v in options:
                    if allowed & bit:
                        grown.append((bits | bit, b if free else b + price, r + dr, chosen + (v,)))
            partial = grown
        goal = False
        for bits, b, r, chosen in partial:
            if is_goal(bits):
                heapq.heappush(heap, (b, r, -1, state(idx_vec, chosen)))
                goal = True
        body = -1
        if undesired and partial and not goal:
            body = compiled.common_body([bits for bits, _, _, _ in partial])
        if body >= 0:
            fixed = compiled.decision_boxes[body][1]
            cut = tuple(
                1 << k if fm & fixed else m & allowed
                for k, m, fm, allowed in zip(idx_vec, box, walk_masks, literal_box(body))
            )
        else:
            cut = tuple(1 << k for k in idx_vec)
        for i, child in lawler(box, cut):
            k = (child[i] & -child[i]).bit_length() - 1
            nxt = idx_vec[:i] + (k,) + idx_vec[i + 1 :]
            heapq.heappush(heap, (
                sum(map(at, costs, nxt)), rank + rank_part[i][k] - rank_part[i][idx_vec[i]],
                0, nxt, child,
            ))


def _price(
    dataset: Dataset,
    instance: State,
    target: State,
    weights: Mapping[str, float],
    p: int,
    mode: str,
) -> CostReport:
    if mode == "p2c":
        adjusted, free = adjust_weights(dataset, instance, target, weights)
    else:
        adjusted, free = dict(weights), frozenset()
    cost = compute_weighted_lp(dataset.config, instance, target, adjusted, p)
    return CostReport(
        target=target,
        cost=cost,
        p=p,
        mode=mode,
        adjusted_weights=adjusted,
        causal_free_features=free,
    )


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
    """The k cheapest goals, ties by lexicographic position.

    Walks the bound-ordered candidate stream and stops once the bound passes
    the k-th best cost found.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if k < 1:
        raise ValueError("k must be >= 1")
    config = dataset.config
    weights = dict(weights) if weights is not None else config.weights()
    p = config.norm_p if p is None else p
    _check_initial(dataset, instance, on_inconsistent)

    per_feature = _per_feature_costs(dataset, instance, weights, p)
    # bounds accumulate in pre-sqrt space for L2, so compare costs there too
    acc = (lambda c: c * c) if p == 2 else (lambda c: c)
    found: list[tuple[float, int, CostReport]] = []
    for bound, lex, state in _stream_candidates(dataset, per_feature, mode):
        if len(found) >= k and bound > acc(found[-1][0]) + 1e-12:
            break
        if state is None:
            continue
        report = _price(dataset, instance, state, weights, p, mode)
        found.append((report.cost, lex, report))
        found.sort(key=lambda t: (t[0], t[1]))
        del found[k:]
    if not found:
        raise NoCounterfactualError(
            "no causally consistent counterfactual exists in the admissible space"
        )
    return [r for _, _, r in found]


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
    """The k cheapest counterfactuals for ``instance`` under the given mode.

    Dimension trimming is unsound once candidates are filtered to the goal
    set, so this scans the plausibility-restricted space with the
    bound-ordered candidate stream, stopping when the bound passes the k-th
    best cost.
    """
    return _nearest(dataset, instance, k, weights, p, mode, on_inconsistent)
