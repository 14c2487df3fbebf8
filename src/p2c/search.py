"""Minimal counterfactual search and its weighted-Lp cost machinery.

Costs price every feature change, except that in ``p2c`` mode a change the
causal rules compel (given the target's other features) gets weight zero.
``all_changes`` mode is the comparator that prices everything, including
changes the world would make on its own.

min_cf streams candidates from the plausibility-restricted product space in
nondecreasing order of a per-feature lower bound, so it can stop as soon as
the bound passes the best verified counterfactual.  Candidates stay index
vectors and one-hot bits (see ``masks.CompiledRules``) until one passes
the goal test; only goals become a ``State``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Mapping

from .dataset import Dataset
from .domain import (
    NUMERIC,
    DatasetConfig,
    FeatureSpec,
    State,
    Value,
    enumerate_states,
    search_space_size,
)
from .errors import (
    AlreadyCounterfactualError,
    InconsistentInitialStateError,
    NoCounterfactualError,
    P2CError,
    SpaceTooLargeError,
)

MODES = ("p2c", "all_changes")

def oracle_cap() -> int:
    return int(os.environ.get("P2C_ORACLE_CAP", "100000"))


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
        w = weights[spec.name]
        d = feature_distance(spec, va, vb)
        if p == 0:
            total += 1.0 if w > 0 and d > 0 else 0.0
        elif p == 1:
            total += w * d
        else:
            total += w * d * d
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


def candidate_space_size(dataset: Dataset, instance: State) -> int:
    return math.prod(
        len(plausible_values(dataset, spec, v))
        for spec, v in zip(dataset.config.features, instance.values)
    )


def _per_feature_costs(
    dataset: Dataset,
    instance: State,
    weights: Mapping[str, float],
    p: int,
    mode: str,
) -> list[tuple[FeatureSpec, list[tuple[float, int, Value]]]]:
    """For each feature: admissible values with their bound contribution.

    In p2c mode a causally movable feature may end up free, so its bound
    contribution is 0 (a valid lower bound); all_changes bounds are exact.
    """
    out = []
    heads = dataset.causal_head_features
    for spec, cur in zip(dataset.config.features, instance.values):
        entries = []
        for v in plausible_values(dataset, spec, cur):
            if mode == "p2c" and spec.name in heads:
                contrib = 0.0
            else:
                d = feature_distance(spec, cur, v)
                w = weights[spec.name]
                if p == 0:
                    contrib = 1.0 if w > 0 and d > 0 else 0.0
                elif p == 1:
                    contrib = w * d
                else:
                    contrib = w * d * d
            entries.append((contrib, spec.index_of(v), v))
        entries.sort()
        out.append((spec, entries))
    return out


def _stream_candidates(
    dataset: Dataset, per_feature
) -> Iterator[tuple[float, int, State | None]]:
    """Yield (bound, lex_rank, state) in nondecreasing bound order; ``state``
    is None unless the candidate is a goal.

    Best-first walk over the product of per-feature sorted value lists; the
    bound of an index vector is the sum of per-feature contributions, which
    under-estimates (p2c) or equals (all_changes) the true cost.  Ties go by
    ``lex_rank``, the candidate's domain indices read as one mixed-radix
    number, which orders states exactly as ``DatasetConfig.lex_key`` does.
    A candidate is goal-tested on its one-hot bits (see
    ``masks.CompiledRules``) and becomes a ``State`` only if it is a goal.
    A vector is pushed only by the vector one step lower in its last nonzero
    position, so each is pushed once and no seen-set is kept.
    """
    compiled = dataset.compiled
    is_goal = compiled.is_goal
    n = len(per_feature)
    costs = [tuple(c for c, _, _ in entries) for _, entries in per_feature]
    values = [tuple(v for _, _, v in entries) for _, entries in per_feature]
    one_hot = [
        tuple(1 << (off + j) for _, j, _ in entries)
        for off, (_, entries) in zip(compiled.offsets, per_feature)
    ]
    place = [1] * n  # weight of feature i's domain index in the rank
    for i in range(n - 2, -1, -1):
        place[i] = place[i + 1] * len(per_feature[i + 1][0].domain)
    rank_step = [
        tuple((b[1] - a[1]) * place[i] for a, b in zip(entries, entries[1:]))
        for i, (_, entries) in enumerate(per_feature)
    ]
    last = [len(c) - 1 for c in costs]
    at = tuple.__getitem__
    start = (0,) * n
    rank = sum(place[i] * entries[0][1] for i, (_, entries) in enumerate(per_feature))
    # entries: (bound, rank, idx_vec, lowest position a successor may raise)
    heap = [(sum(map(at, costs, start)), rank, start, 0)]
    while heap:
        bound, rank, idx_vec, low = heapq.heappop(heap)
        # one bit per feature, so the sum is their OR
        if is_goal(sum(map(at, one_hot, idx_vec))):
            yield bound, rank, State(tuple(map(at, values, idx_vec)))
        else:
            yield bound, rank, None
        for i in range(low, n):
            j = idx_vec[i]
            if j < last[i]:
                nxt = idx_vec[:i] + (j + 1,) + idx_vec[i + 1 :]
                heapq.heappush(heap, (sum(map(at, costs, nxt)), rank + rank_step[i][j], nxt, i))


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


def min_cf(
    dataset: Dataset,
    instance: State,
    *,
    weights: Mapping[str, float] | None = None,
    p: int | None = None,
    mode: str = "p2c",
    on_inconsistent: str = "error",
) -> CostReport:
    """The minimal causally compliant counterfactual for ``instance``.

    Ties in cost break lexicographically (feature order, then domain index).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    config = dataset.config
    weights = dict(weights) if weights is not None else config.weights()
    p = config.norm_p if p is None else p
    _check_initial(dataset, instance, on_inconsistent)

    per_feature = _per_feature_costs(dataset, instance, weights, p, mode)
    # bounds accumulate in pre-sqrt space for L2, so compare costs there too
    acc = (lambda c: c * c) if p == 2 else (lambda c: c)
    best: tuple[float, int, CostReport] | None = None
    for bound, lex, state in _stream_candidates(dataset, per_feature):
        if best is not None and bound > acc(best[0]) + 1e-12:
            break
        if state is None:
            continue
        report = _price(dataset, instance, state, weights, p, mode)
        key = (report.cost, lex)
        if best is None or key < (best[0], best[1]):
            best = (report.cost, lex, report)
    if best is None:
        raise NoCounterfactualError(
            "no causally consistent counterfactual exists in the admissible space"
        )
    return best[2]


# ---------------------------------------------------------------------------
# k-nearest machinery
# ---------------------------------------------------------------------------


def _sorted_knearest(
    config: DatasetConfig,
    states,
    q: State,
    k: int,
    p: int,
    weights: Mapping[str, float],
) -> list[tuple[State, float]]:
    scored = [
        (compute_weighted_lp(config, q, s, weights, p), config.lex_key(s), s)
        for s in states
    ]
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(s, d) for d, _, s in scored[:k]]


def brute_force_knearest(
    config: DatasetConfig,
    q: State,
    k: int,
    p: int,
    weights: Mapping[str, float] | None = None,
) -> list[tuple[State, float]]:
    """Exhaustive k-nearest over the full product space (test oracle).

    Refuses spaces above P2C_ORACLE_CAP (default 100000).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    size = search_space_size(config)
    if size > oracle_cap():
        raise SpaceTooLargeError(
            f"space of {size} states exceeds the oracle cap {oracle_cap()}"
        )
    weights = dict(weights) if weights is not None else config.weights()
    return _sorted_knearest(config, enumerate_states(config), q, k, p, weights)


def _contribution(spec: FeatureSpec, w: float, qv: Value, v: Value, p: int) -> float:
    d = feature_distance(spec, qv, v)
    if p == 0:
        return 1.0 if w > 0 and d > 0 else 0.0
    if p == 1:
        return w * d
    return w * d * d


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
    survive such a trim, so this equals brute force.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = dict(weights) if weights is not None else config.weights()
    trimmed: list[list[Value]] = []
    for spec, qv in zip(config.features, q.values):
        ranked = sorted(
            spec.domain,
            key=lambda v: (_contribution(spec, weights[spec.name], qv, v, p), spec.index_of(v)),
        )
        trimmed.append(ranked[:k])
    candidates = (State(combo) for combo in itertools.product(*trimmed))
    return _sorted_knearest(config, candidates, q, k, p, weights)


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
    set, so this scans the plausibility-restricted space with the same
    bound-ordered stream as min_cf, stopping when the bound passes the k-th
    best cost.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if k < 1:
        raise ValueError("k must be >= 1")
    config = dataset.config
    weights = dict(weights) if weights is not None else config.weights()
    p = config.norm_p if p is None else p
    _check_initial(dataset, instance, on_inconsistent)

    per_feature = _per_feature_costs(dataset, instance, weights, p, mode)
    acc = (lambda c: c * c) if p == 2 else (lambda c: c)
    found: list[tuple[float, int, CostReport]] = []
    for bound, lex, state in _stream_candidates(dataset, per_feature):
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
