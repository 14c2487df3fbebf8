"""Independent re-implementations used as test oracles.

Everything here recomputes results through a different code path than the
implementation under test: plain nested loops, no pruning, no shared
bookkeeping, so a bug in the streaming search or the planner's ledger cannot
hide itself.
"""

from __future__ import annotations

import itertools

from p2c.consistency import Entailment
from p2c.domain import State, enumerate_states
from p2c.errors import CausalProgramError
from p2c.planner import CAUSAL, DIRECT, PlanPath, direct_action_problem
from p2c.rules import program_decides, rule_fires, unparse_rule
from p2c.search import adjust_weights, compute_weighted_lp


# ---------------------------------------------------------------------------
# Interpreted rule semantics: the reference for the compiled bit masks
# ---------------------------------------------------------------------------


def entailment_satisfied(spec, value, ent) -> bool:
    """Whether ``value`` meets the entailment: it satisfies the required head
    value, if any, and none of the excluded ones."""
    if ent.required is not None and not spec.satisfies(value, ent.required):
        return False
    return all(not spec.satisfies(value, ex) for ex in ent.excluded)


def interpreted_entailment(dataset, group, state):
    """Completion semantics for one causal group, walking every literal of
    its rules on the state's name->value dict with ``rules.rule_fires``."""
    state_map = dataset.config.state_dict(state)
    fired, fired_rules, excluded = [], [], []
    for alt in group.alternatives:
        firing = [r for r in alt.rules if rule_fires(r, state_map, dataset.causal)]
        if firing:
            fired.append(alt)
            fired_rules.extend(firing)
        else:
            excluded.append(alt.value)
    if len(fired) > 1:
        offending = "; ".join(unparse_rule(r) for r in fired_rules)
        raise CausalProgramError(
            f"two alternatives for feature {group.feature!r} fired simultaneously: "
            f"{offending}"
        )
    return Entailment(
        feature=group.feature,
        required=fired[0].value if fired else None,
        excluded=tuple(excluded),
        provenance=tuple(unparse_rule(r) for r in fired_rules),
    )


def interpreted_entailments(dataset, state):
    return tuple(interpreted_entailment(dataset, g, state) for g in dataset.groups)


def interpreted_consistent(dataset, state) -> bool:
    config = dataset.config
    return all(
        entailment_satisfied(
            config.feature(ent.feature), state.values[config.feature_index(ent.feature)], ent
        )
        for ent in interpreted_entailments(dataset, state)
    )


def interpreted_decision_positive(dataset, state) -> bool:
    decided = program_decides(dataset.decision, dataset.config.state_dict(state))
    return decided if dataset.decision.describes_undesired else not decided


def interpreted_is_goal(dataset, state) -> bool:
    return interpreted_consistent(dataset, state) and not interpreted_decision_positive(
        dataset, state
    )


def interpreted_repair_values(dataset, state, feature):
    """Values of ``feature`` that satisfy its own group's interpreted
    entailment, the fired head value first."""
    spec = dataset.config.feature(feature)
    for group in dataset.groups:
        if group.feature != feature:
            continue
        ent = interpreted_entailment(dataset, group, state)
        ok = [v for v in spec.domain if entailment_satisfied(spec, v, ent)]
        if ent.required is not None and ent.required in ok:
            ok.remove(ent.required)
            ok.insert(0, ent.required)
        return tuple(ok)
    return ()


def exhaustive_min_cf(dataset, instance, *, weights=None, p=None, mode="p2c"):
    """Plain double-loop minimum over the goal set (no streaming, no bounds)."""
    config = dataset.config
    weights = dict(weights) if weights is not None else config.weights()
    p = config.norm_p if p is None else p
    heads = dataset.causal_head_features
    per_feature = []
    for spec, cur in zip(config.features, instance.values):
        if not spec.mutable:
            vals = (cur,)
        elif spec.name in heads:
            vals = spec.domain
        elif not spec.directly_actionable:
            vals = (cur,)
        elif spec.monotone == "nondecreasing":
            vals = spec.domain[spec.index_of(cur):]
        elif spec.monotone == "nonincreasing":
            vals = spec.domain[: spec.index_of(cur) + 1]
        else:
            vals = spec.domain
        per_feature.append(vals)
    best = None
    for combo in itertools.product(*per_feature):
        state = State(combo)
        if not dataset.is_goal(state):
            continue
        if mode == "p2c":
            adj, _ = adjust_weights(dataset, instance, state, weights)
        else:
            adj = weights
        cost = compute_weighted_lp(config, instance, state, adj, p)
        key = (cost, config.lex_key(state))
        if best is None or key < best[0]:
            best = (key, state, cost)
    return best  # None, or ((cost, lexkey), state, cost)


def exhaustive_knearest(config, q, k, p, weights=None):
    """Sort the whole space by (distance, lexicographic position)."""
    weights = dict(weights) if weights is not None else config.weights()
    scored = sorted(
        (
            (compute_weighted_lp(config, q, s, weights, p), config.lex_key(s), s)
            for s in enumerate_states(config)
        ),
        key=lambda t: (t[0], t[1]),
    )
    return [(s, d) for d, _, s in scored[:k]]


def replay_transition(dataset, before: State, actions, after: State) -> list[str]:
    """Check one consecutive path pair against the transition semantics.

    The recorded actions must drive ``before`` to ``after`` through causally
    inconsistent intermediates only, every direct action plausible and every
    causal action compelled where it is applied.
    """
    config = dataset.config
    problems: list[str] = []
    if not actions:
        problems.append("consecutive states with no recorded action")
        return problems
    current = before
    for idx, action in enumerate(actions):
        fi = config.feature_index(action.feature)
        spec = config.features[fi]
        if action.kind == DIRECT:
            why = direct_action_problem(spec, current.values[fi], action.new_value)
            if why:
                problems.append(f"direct action {idx}: {why}")
        elif action.kind == CAUSAL:
            allowed = interpreted_repair_values(dataset, current, action.feature)
            if action.new_value not in allowed:
                problems.append(f"causal action {idx}: value not compelled here")
        else:
            problems.append(f"action {idx}: unknown kind {action.kind}")
        current = current.replace_value(fi, action.new_value)
        if idx < len(actions) - 1 and dataset.consistent(current):
            problems.append(
                f"action {idx}: intermediate state is already causally consistent"
            )
    if current != after:
        problems.append("replaying the actions does not reach the recorded state")
    if not dataset.consistent(after):
        problems.append("transition target is not causally consistent")
    return problems


def verify_solution_path(dataset, instance: State, path: PlanPath) -> list[str]:
    """The five soundness clauses, each checked from scratch."""
    problems: list[str] = []
    states = path.states()
    if not states:
        return ["empty path"]
    if states[0] != instance:
        problems.append("clause 1: path does not start at the initial state")
    if not dataset.is_goal(states[-1]):
        problems.append("clause 2: path does not end in the goal set")
    for j, s in enumerate(states):
        if not dataset.consistent(s):
            problems.append(f"clause 3: state {j} is causally inconsistent")
    for j, s in enumerate(states[:-1]):
        if dataset.is_goal(s):
            problems.append(f"clause 4: interior state {j} is already a goal state")
    for j in range(1, len(states)):
        sub = replay_transition(dataset, states[j - 1], path.steps[j].actions, states[j])
        problems.extend(f"clause 5 (step {j}): {m}" for m in sub)
    return problems


def one_direct_action_reaches_goal(dataset, instance: State) -> bool:
    """Whether a single plausible direct change lands in the goal set.

    Only meaningful for causal-rule-free datasets, where no cascade follows.
    """
    config = dataset.config
    for fi, spec in enumerate(config.features):
        for value in spec.domain:
            if value == instance.values[fi]:
                continue
            if direct_action_problem(spec, instance.values[fi], value):
                continue
            if dataset.is_goal(instance.replace_value(fi, value)):
                return True
    return False
