"""Planner: ordered, causally compliant intervention paths toward s*.

``find_path`` searches breadth-first over causally consistent states.  A
move sets one feature that is off s* to its s* value by a direct action, and
the compiled causal closure (``CompiledRules.closure``) follows: every
violated causal group is repaired in head order, by the value s* gives its
head when the group allows it.  So each state of a plan is consistent, and
each causal action sets a value the rules allow where it is made.  The
search counts direct actions, up to ``max_dpl``, and stops at the first goal
whose cost from the instance is at most s*'s; a costlier goal is a dead end.
s* is the cheapest goal, so the plan ends at s* or at a goal of equal cost.

Planning, pricing and checking run on one-hot bits: a goal is priced by
``search.goal_price``, the price the counterfactual search uses too, from
``search.cost_terms`` of the instance, the terms of the same cost rows the
search reads (built once per value, weight and p on the compiled program,
so a plan after a search on the same instance prices nothing anew), and
``path_is_legal`` replays a plan against each causal group's allowed mask.
A causal repair is kept as the bits it was made on; only the returned plan
holds ``State``s and the rule text of its causal actions
(``CompiledRules.provenance``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .dataset import Dataset
from .domain import DatasetConfig, State, Value, direct_action_problem
from .errors import (
    EvaluationError,
    InconsistentInitialStateError,
    P2CError,
    SearchExhaustedError,
    StateValidationError,
)
from .search import cost_terms, goal_price, resolve_costing

DIRECT = "direct"
CAUSAL = "causal"


@dataclass(frozen=True)
class Action:
    kind: str
    feature: str
    new_value: Value
    provenance: tuple[str, ...] = field(default=(), compare=False)

    def describe(self) -> str:
        return f"{self.kind}({self.feature} -> {self.new_value!r})"


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
    """An ordered, causally compliant intervention path from ``instance`` to
    ``s_star`` or to a goal of equal cost.

    Breadth-first by number of direct actions, up to ``max_dpl`` (default:
    the number of features).  The root is the causal closure of the
    instance; when the instance cannot be closed, the search starts from it
    as it is and the plan starts at the first consistent state reached.  A
    move sets one feature that is off ``s_star`` to its value there, when
    that direct change is plausible, and the closure (preferring
    ``s_star``'s head values) follows.  The first goal whose p2c cost from
    the instance is at most ``s_star``'s ends the plan; a costlier goal is a
    dead end.  On exhaustion, the error and its ``diagnostics`` name each
    feature whose move to ``s_star``'s value was refused, and why.

    States stay one-hot bits while searched, and goals are priced on them
    (``search.goal_price``).  ``s_star`` must be causally consistent, else
    :class:`P2CError`; it, ``p`` and ``weights`` are checked before a start
    already in the goal set returns its one-state plan.
    """
    if on_inconsistent not in ("error", "repair"):
        raise ValueError("on_inconsistent must be 'error' or 'repair'")
    if max_dpl is not None and type(max_dpl) is not int:
        raise ValueError(f"max_dpl must be an integer, got {max_dpl!r}")
    if max_dpl is not None and max_dpl < 1:
        raise ValueError(f"max_dpl must be at least 1, got {max_dpl}")
    config = dataset.config
    compiled = dataset.compiled
    start = compiled.bits(instance)
    if on_inconsistent == "error" and not compiled.consistent(start):
        raise InconsistentInitialStateError(
            "initial state violates the causal rules; pass on_inconsistent='repair' "
            "(or the CLI --repair-inconsistent flag) to plan a repair"
        )
    star = compiled.bits(s_star)
    if not compiled.consistent(star):
        raise P2CError("find_path target must be causally consistent")
    weights, p = resolve_costing(config, weights, p)
    if compiled.is_goal(start):
        return PlanPath((PathStep(instance, ()),))

    cap = max_dpl or config.max_dpl or len(config.features)
    specs = config.features
    masks = compiled.feature_masks
    value = compiled.value
    terms = cost_terms(compiled, start, weights, p)

    def cost(bits: int) -> float:
        return goal_price(compiled, start, bits, terms, p, "p2c")[0]

    ceiling = cost(star) + 1e-9
    # how each consistent state was reached: (previous state, feature moved,
    # its repairs as (feature, value, bits made on)), or None where the plan starts
    parents: dict[int, tuple[int, int, list] | None] = {}
    refused: dict[int, str | None] = {}  # a value's bit -> why it cannot move to s*'s
    blocked: dict[int, str] = {}

    def search() -> int | None:
        """The bits of the goal that ends the plan, or None."""
        root = compiled.closure(start, star)
        if root is None:
            frontier = [start]  # inconsistent: its successors start the plan
        else:
            frontier = [root[0]]
            parents[root[0]] = None
            if not compiled.decision_positive(root[0]):
                return root[0] if cost(root[0]) <= ceiling else None
        seen = {start, *parents}
        for _ in range(cap):
            grown = []
            for bits in frontier:
                came_from = bits if bits in parents else None
                for fi, mask in enumerate(masks):
                    if bits & star & mask:
                        continue
                    now = bits & mask
                    if now not in refused:
                        refused[now] = direct_action_problem(
                            specs[fi], value(fi, now), value(fi, star)
                        )
                    if refused[now]:
                        blocked.setdefault(fi, refused[now])
                        continue
                    moved = bits & ~mask | star & mask
                    if moved in seen:
                        continue
                    seen.add(moved)
                    closed = compiled.closure(moved, star)
                    if closed is None or closed[0] != moved and closed[0] in seen:
                        continue
                    reached, repairs = closed
                    seen.add(reached)
                    parents[reached] = None if came_from is None else (came_from, fi, repairs)
                    if compiled.decision_positive(reached):
                        grown.append(reached)
                    elif cost(reached) <= ceiling:
                        return reached
            frontier = grown
        return None

    goal = search()
    if goal is None:
        diagnostics = tuple(
            (specs[fi].name, value(fi, star), reason) for fi, reason in sorted(blocked.items())
        )
        refusals = "; ".join(f"{name} -> {v!r}: {reason}" for name, v, reason in diagnostics)
        raise SearchExhaustedError(
            f"no plan within {cap} direct action(s); "
            + (f"refused moves to s*'s values: {refusals}" if refusals
               else "no move to s*'s values was refused"),
            diagnostics=diagnostics,
        )
    steps = []
    link = parents[goal]
    while link is not None:
        previous, fi, repairs = link
        actions = (Action(DIRECT, specs[fi].name, value(fi, star)),) + tuple(
            Action(CAUSAL, specs[ri].name, v, provenance=compiled.provenance(ri, made))
            for ri, v, made in repairs
        )
        steps.append(PathStep(compiled.state(goal), actions))
        goal, link = previous, parents[previous]
    steps.append(PathStep(compiled.state(goal), ()))
    return PlanPath(tuple(reversed(steps)))


def naive_find_path(dataset: Dataset, instance: State, s_star: State) -> PlanPath:
    """Causally blind baseline: one direct edit per differing feature.

    Ignores the causal rules and every plausibility flag and rewrites each
    feature that differs from s* in feature order, which is the shortest
    path of single-feature edits; the legality checker then gets to
    complain.  Both states are encoded as bits first, as :func:`find_path`
    encodes them, so a state off the config's features or domains raises
    before any edit.
    """
    compiled = dataset.compiled
    start, star = compiled.bits(instance), compiled.bits(s_star)
    steps = [PathStep(instance, ())]
    for fi, (spec, mask) in enumerate(zip(dataset.config.features, compiled.feature_masks)):
        if (start ^ star) & mask:
            value = compiled.value(fi, star)
            instance = instance.replace_value(fi, value)
            steps.append(PathStep(instance, (Action(DIRECT, spec.name, value),)))
    return PlanPath(tuple(steps))


def path_is_legal(dataset: Dataset, path: PlanPath) -> tuple[bool, list[str]]:
    """Replay every action: direct ones must respect actionability,
    mutability and monotonicity; causal ones must set a value the causal
    rules actually compel at that point.  An action on an unknown feature or
    to a value outside its domain is reported and not replayed.

    The replay runs on one-hot bits (``masks.CompiledRules``): a causal
    value is legal when its bit is in what its group allows, given the
    alternative that fires, on the bits it is set on.  Where a step's
    recorded state differs from the replay, the replay resumes from the
    recorded state, unless that is not a state of the space (an off-domain
    value or the wrong length).  The path must start at a state of the
    space.
    """
    config = dataset.config
    violations: list[str] = []
    if not path.steps:
        return True, violations
    compiled = dataset.compiled
    current = compiled.bits(path.start)
    for step_no, step in enumerate(path.steps):
        for action in step.actions:
            if not config.has_feature(action.feature):
                violations.append(f"step {step_no}: {action.describe()}: unknown feature")
                continue
            i = config.feature_index(action.feature)
            try:
                bit = 1 << (compiled.offsets[i] + compiled.domains[i].index(action.new_value))
            except ValueError:
                violations.append(
                    f"step {step_no}: {action.describe()}: value outside domain"
                )
                continue
            if action.kind == DIRECT:
                problem = direct_action_problem(
                    config.features[i], compiled.value(i, current), action.new_value
                )
                if problem:
                    violations.append(f"step {step_no}: {action.describe()}: {problem}")
            elif action.kind == CAUSAL:
                g = compiled.feature_groups[i]
                if g is None or not bit & g.allowed[g.fired(current)]:
                    violations.append(
                        f"step {step_no}: {action.describe()}: value is not entailed "
                        f"by the causal rules here"
                    )
            else:
                violations.append(f"step {step_no}: unknown action kind {action.kind!r}")
            current = current & ~compiled.feature_masks[i] | bit
        try:
            recorded = compiled.bits(step.state)
        except (EvaluationError, StateValidationError):
            recorded = None
        if recorded != current:
            violations.append(
                f"step {step_no}: recorded state does not match the replayed actions"
            )
            if recorded is not None:
                current = recorded
    return not violations, violations
