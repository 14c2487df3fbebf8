"""Backtracking planner over causally consistent states.

The planner keeps a ledger: a stack of (state, actions tried from it), plus a
monotone set of every state ever pushed so nothing is revisited.  One
``intervene`` transition picks an untried action, applies it, and hands the
result to ``make_consistent``, which repairs causal violations (preferring
causal actions, falling back to direct ones) until the state satisfies the
causal rules, backtracking by popping the ledger when a branch dies.

An iterative-deepening budget caps the number of direct actions live on the
ledger; causal actions ride free.  The budget starts at one direct change and
grows until a plan appears or the cap is hit.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .dataset import Dataset
from .domain import DatasetConfig, FeatureSpec, State, Value
from .errors import InconsistentInitialStateError, P2CError, SearchExhaustedError
from .search import compute_weighted_lp

DIRECT = "direct"
CAUSAL = "causal"


@dataclass(frozen=True)
class Action:
    kind: str
    feature: str
    new_value: Value
    provenance: Sequence[str] = field(default=(), compare=False)

    def describe(self) -> str:
        return f"{self.kind}({self.feature} -> {self.new_value!r})"


@dataclass
class LedgerEntry:
    state: State
    taken: list[Action]

    def live_action(self) -> Action | None:
        return self.taken[-1] if self.taken else None


class Ledger:
    """The planner's visited structure: a backtrackable stack of entries plus
    a monotone seen-set ensuring no state is ever pushed twice."""

    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self.seen: set[State] = set()

    def push(self, state: State, taken: list[Action] | None = None) -> None:
        self.entries.append(LedgerEntry(state, taken if taken is not None else []))
        self.seen.add(state)

    def pop(self) -> LedgerEntry:
        return self.entries.pop()

    def last(self) -> LedgerEntry:
        return self.entries[-1]

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def live_direct_count(self) -> int:
        """Direct actions currently committed on the chain."""
        n = 0
        for entry in self.entries:
            act = entry.live_action()
            if act is not None and act.kind == DIRECT:
                n += 1
        return n

    def snapshot(self) -> tuple[tuple[State, tuple[Action, ...]], ...]:
        return tuple((e.state, tuple(e.taken)) for e in self.entries)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def apply_action(
    config: DatasetConfig, state: State, action: Action, *, enforce: bool = True
) -> State:
    """Rebind exactly one feature; with ``enforce`` the plausibility rules
    (actionability, mutability, monotone direction, domain membership) apply."""
    i = config.feature_index(action.feature)
    spec = config.features[i]
    if action.new_value not in spec.domain:
        raise P2CError(
            f"{action.describe()}: value not in the domain of {spec.name!r}"
        )
    if enforce and action.kind == DIRECT:
        problem = direct_action_problem(spec, state.values[i], action.new_value)
        if problem:
            raise P2CError(f"{action.describe()}: {problem}")
    return state.replace_value(i, action.new_value)


def direct_action_problem(spec: FeatureSpec, old: Value, new: Value) -> str | None:
    """Why a direct old->new change on this feature is implausible, if it is."""
    if not spec.mutable:
        return "feature is immutable"
    if not spec.directly_actionable:
        return "feature is not directly actionable"
    if spec.monotone != "none":
        lo, hi = spec.index_of(old), spec.index_of(new)
        if spec.monotone == "nondecreasing" and hi < lo:
            return "nondecreasing feature cannot decrease"
        if spec.monotone == "nonincreasing" and hi > lo:
            return "nonincreasing feature cannot increase"
    return None


def available_causal_actions(dataset: Dataset, state: State) -> list[Action]:
    """Repairs for currently violated causal groups, in feature order.

    The fired head value (the declared representative) leads each group's
    candidates; immutable features are never repaired.
    """
    config = dataset.config
    compiled = dataset.compiled
    actions: list[Action] = []
    for fi, values, provenance in compiled.violations(compiled.bits(state)):
        spec = config.features[fi]
        if not spec.mutable:
            continue
        current = state.values[fi]
        actions.extend(
            Action(CAUSAL, spec.name, value, provenance=provenance)
            for value in values
            if value != current
        )
    return actions


def available_direct_actions(
    dataset: Dataset,
    state: State,
    target: State | None,
    weights: Mapping[str, float],
    p: int,
) -> list[Action]:
    """Plausible single-feature changes, cheapest-looking first.

    Ordered by the weighted-Lp distance from the post-action state to the
    target, ties by feature order then domain index, so the planner walks
    greedily toward the counterfactual it is asked to reach.
    """
    config = dataset.config
    ranked: list[tuple[float, int, int, Action]] = []
    for fi, (spec, current) in enumerate(zip(config.features, state.values)):
        if not spec.mutable or not spec.directly_actionable:
            continue
        for value in spec.domain:
            if value == current:
                continue
            if direct_action_problem(spec, current, value):
                continue
            nxt = state.replace_value(fi, value)
            h = (
                compute_weighted_lp(config, nxt, target, weights, p)
                if target is not None
                else 0.0
            )
            ranked.append((h, fi, spec.index_of(value), Action(DIRECT, spec.name, value)))
    ranked.sort(key=lambda t: t[:3])
    return [a for _, _, _, a in ranked]


# ---------------------------------------------------------------------------
# Supplement machinery: update / make_consistent / intervene
# ---------------------------------------------------------------------------


def _update(
    ledger: Ledger, state: State, taken: list[Action], action: Action, config: DatasetConfig
) -> tuple[State, list[Action]]:
    """Record the action against the current state, push it, and move on."""
    taken.append(action)
    ledger.push(state, taken)
    return apply_action(config, state, action), []


def _select(
    actions: Iterable[Action], taken: Sequence[Action], ledger: Ledger, state: State, config
) -> Action | None:
    for action in actions:
        if action in taken:
            continue
        if apply_action(config, state, action, enforce=False) in ledger.seen:
            continue
        return action
    return None


def make_consistent(
    dataset: Dataset,
    ledger: Ledger,
    state: State,
    taken: list[Action],
    *,
    budget: int | None = None,
    target: State | None = None,
    weights: Mapping[str, float] | None = None,
    p: int | None = None,
) -> tuple[State, list[Action]]:
    """Drive ``state`` to causal consistency, recording intermediates.

    Prefers an untried causal action, falls back to an untried direct action
    (budget permitting), and pops the ledger to backtrack when neither
    exists.  Raises SearchExhausted when the ledger empties.
    """
    config = dataset.config
    weights = dict(weights) if weights is not None else config.weights()
    p = config.norm_p if p is None else p
    while not dataset.consistent(state):
        action = _select(
            available_causal_actions(dataset, state), taken, ledger, state, config
        )
        if action is None and (budget is None or ledger.live_direct_count() < budget):
            action = _select(
                available_direct_actions(dataset, state, target, weights, p),
                taken,
                ledger,
                state,
                config,
            )
        if action is not None:
            state, taken = _update(ledger, state, taken, action, config)
        else:
            if not ledger:
                raise SearchExhaustedError(
                    "no action sequence reaches a causally consistent state",
                    diagnostics=ledger.snapshot(),
                )
            entry = ledger.pop()
            state, taken = entry.state, entry.taken
    return state, taken


def intervene(
    dataset: Dataset,
    ledger: Ledger,
    *,
    target: State | None = None,
    budget: int | None = None,
    weights: Mapping[str, float] | None = None,
    p: int | None = None,
) -> None:
    """One transition of the plan: from the ledger's last (consistent or
    repairable) state to the next causally consistent state.

    Selects an untried action whose result is unvisited, applies it, routes
    the result through make_consistent, and appends the consistent state.
    With no action left it backtracks by one entry.
    """
    config = dataset.config
    weights = dict(weights) if weights is not None else config.weights()
    p = config.norm_p if p is None else p
    if not ledger:
        raise SearchExhaustedError("intervene on an empty ledger")
    entry = ledger.pop()
    state, taken = entry.state, entry.taken

    candidates = available_causal_actions(dataset, state)
    if budget is None or ledger.live_direct_count() < budget:
        candidates = candidates + available_direct_actions(
            dataset, state, target, weights, p
        )
    action = _select(candidates, taken, ledger, state, config)
    if action is not None:
        state, taken = _update(ledger, state, taken, action, config)
    else:
        if not ledger:
            raise SearchExhaustedError(
                "search space exhausted before reaching the goal",
                diagnostics=ledger.snapshot(),
            )
        entry = ledger.pop()
        state, taken = entry.state, entry.taken
    state, taken = make_consistent(
        dataset, ledger, state, taken, budget=budget, target=target, weights=weights, p=p
    )
    ledger.push(state, taken)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathStep:
    state: State
    actions: tuple[Action, ...]  # actions applied since the previous step


@dataclass(frozen=True)
class PlanPath:
    steps: tuple[PathStep, ...]

    @property
    def start(self) -> State:
        return self.steps[0].state

    @property
    def end(self) -> State:
        return self.steps[-1].state

    def states(self) -> tuple[State, ...]:
        return tuple(s.state for s in self.steps)

    def actions(self) -> tuple[Action, ...]:
        return tuple(a for s in self.steps for a in s.actions)

    def direct_action_count(self) -> int:
        return sum(1 for a in self.actions() if a.kind == DIRECT)

    def to_json(self, config: DatasetConfig) -> list[dict]:
        out = []
        for step in self.steps:
            acts = [
                {
                    "kind": a.kind,
                    "feature": a.feature,
                    "new_value": a.new_value,
                    "provenance": list(a.provenance),
                }
                for a in step.actions
            ]
            out.append({"state": config.state_dict(step.state), "actions": acts})
        return out


def drop_inconsistent(dataset: Dataset, ledger: Ledger) -> PlanPath:
    """The candidate path: ledger entries with causally inconsistent states
    removed, each surviving step carrying the actions since the previous one."""
    steps: list[PathStep] = []
    incoming: list[Action] = []
    entries = ledger.entries
    for j, entry in enumerate(entries):
        if dataset.consistent(entry.state):
            # actions before the first surviving state describe a dropped
            # prefix (an inconsistent start being repaired); they are not
            # part of the candidate path
            steps.append(PathStep(entry.state, tuple(incoming) if steps else ()))
            incoming = []
        if j < len(entries) - 1:
            live = entry.live_action()
            if live is not None:
                incoming.append(live)
    return PlanPath(tuple(steps))


def find_path(
    dataset: Dataset,
    instance: State,
    s_star: State,
    *,
    weights: Mapping[str, float] | None = None,
    p: int | None = None,
    max_dpl: int | None = None,
    on_inconsistent: str = "error",
) -> PlanPath:
    """An ordered, causally compliant intervention path from ``instance`` into
    the goal set, aimed at ``s_star``.

    Planning stops at the first goal state reached (interior states must not
    be goals); the action ordering steers toward ``s_star``, so on the
    shipped configurations the two coincide.  The direct-action budget starts
    at 1 and deepens on exhaustion, up to ``max_dpl`` (default: the number of
    features).
    """
    if on_inconsistent not in ("error", "repair"):
        raise ValueError("on_inconsistent must be 'error' or 'repair'")
    config = dataset.config
    weights = dict(weights) if weights is not None else config.weights()
    p = config.norm_p if p is None else p
    if on_inconsistent == "error" and not dataset.consistent(instance):
        raise InconsistentInitialStateError(
            "initial state violates the causal rules; pass on_inconsistent='repair' "
            "(or the CLI --repair-inconsistent flag) to plan a repair"
        )
    if dataset.is_goal(instance):
        return PlanPath((PathStep(instance, ()),))

    cap = max_dpl or dataset.config.max_dpl or len(config.features)
    last_exhaustion: SearchExhaustedError | None = None
    for budget in range(1, cap + 1):
        ledger = Ledger()
        ledger.push(instance)
        try:
            while not dataset.is_goal(ledger.last().state):
                intervene(
                    dataset,
                    ledger,
                    target=s_star,
                    budget=budget,
                    weights=weights,
                    p=p,
                )
            return drop_inconsistent(dataset, ledger)
        except SearchExhaustedError as exc:
            last_exhaustion = exc
    raise SearchExhaustedError(
        f"no plan within {cap} direct action(s); the target may be unreachable "
        f"under the plausibility constraints",
        diagnostics=last_exhaustion.diagnostics if last_exhaustion else None,
    )


def naive_find_path(dataset: Dataset, instance: State, s_star: State) -> PlanPath:
    """Causally blind baseline: BFS over single-feature direct edits.

    Ignores the causal rules and every plausibility flag, so its shortest
    path simply rewrites each differing feature; the legality checker then
    gets to complain.
    """
    config = dataset.config
    if instance == s_star:
        return PlanPath((PathStep(instance, ()),))
    parent: dict[State, tuple[State, Action]] = {}
    queue = collections.deque([instance])
    seen = {instance}
    found = False
    while queue and not found:
        current = queue.popleft()
        for fi, spec in enumerate(config.features):
            for value in spec.domain:
                if value == current.values[fi]:
                    continue
                nxt = current.replace_value(fi, value)
                if nxt in seen:
                    continue
                seen.add(nxt)
                parent[nxt] = (current, Action(DIRECT, spec.name, value))
                if nxt == s_star:
                    found = True
                    break
                queue.append(nxt)
            if found:
                break
    if not found:
        raise SearchExhaustedError("naive planner could not reach the target")
    steps: list[PathStep] = []
    cursor = s_star
    while cursor != instance:
        prev, action = parent[cursor]
        steps.append(PathStep(cursor, (action,)))
        cursor = prev
    steps.append(PathStep(instance, ()))
    steps.reverse()
    return PlanPath(tuple(steps))


def path_is_legal(dataset: Dataset, path: PlanPath) -> tuple[bool, list[str]]:
    """Replay every action: direct ones must respect actionability,
    mutability and monotonicity; causal ones must set a value the causal
    rules actually compel at that point."""
    config = dataset.config
    violations: list[str] = []
    if not path.steps:
        return True, violations
    current = path.start
    for step_no, step in enumerate(path.steps):
        for action in step.actions:
            i = config.feature_index(action.feature)
            spec = config.features[i]
            if action.new_value not in spec.domain:
                violations.append(
                    f"step {step_no}: {action.describe()}: value outside domain"
                )
            elif action.kind == DIRECT:
                problem = direct_action_problem(spec, current.values[i], action.new_value)
                if problem:
                    violations.append(f"step {step_no}: {action.describe()}: {problem}")
            elif action.kind == CAUSAL:
                allowed = dataset.repair_values(current, action.feature)
                if action.new_value not in allowed:
                    violations.append(
                        f"step {step_no}: {action.describe()}: value is not entailed "
                        f"by the causal rules here"
                    )
            else:
                violations.append(f"step {step_no}: unknown action kind {action.kind!r}")
            current = apply_action(config, current, action, enforce=False)
        if current != step.state:
            violations.append(
                f"step {step_no}: recorded state does not match the replayed actions"
            )
            current = step.state
    return not violations, violations
