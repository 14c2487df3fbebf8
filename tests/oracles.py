"""Independent re-implementations used as test oracles.

Everything here recomputes results through a different code path than the
implementation under test: plain nested loops, no pruning, no shared
bookkeeping, so a bug in the compiled masks, the streaming search, the
causal closure or the planner cannot hide itself.  The rule interpreter
(:func:`rule_fires`, :func:`program_decides`) walks every literal on a
name->value dict; ``p2c`` itself evaluates rules only on compiled masks.
The State-level references built on it (the per-head grouping
:func:`causal_groups`, the :class:`Entailment` record,
:func:`interpreted_repair_values`, :func:`adjust_weights`), the
dimension-trimmed :func:`knearest_trimmed` and the config-level
:func:`consolidate_placeholders` live only here.
"""

from __future__ import annotations

import collections
import itertools
import re
from dataclasses import dataclass, replace
from typing import Sequence

from p2c.domain import CATEGORICAL, DatasetConfig, State, Value, enumerate_states
from p2c.errors import (
    CausalProgramError,
    EvaluationError,
    P2CError,
    RuleSyntaxError,
    SearchExhaustedError,
)
from p2c.planner import CAUSAL, DIRECT, Action, PathStep, PlanPath, direct_action_problem
from p2c.rules import (
    AUX_CALL,
    COMPARISON,
    FEATURE_TEST,
    NEG_AUX_CALL,
    NEG_COMPARISON,
    NEG_FEATURE_TEST,
    NUMERIC_BINDING,
    RuleProgram,
    mentioned_values,
    unparse_rule,
)
from p2c.search import compute_weighted_lp, lp_term


# ---------------------------------------------------------------------------
# Tokenizer: the reference for p2c.rules._tokenize (one named-group match and
# one frozen dataclass per token, newlines counted in every token)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<NUMBER>-?\d+(?:\.\d+)?)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<QSTRING>'[^'\n]*')
    | (?P<ARROW>:-)
    | (?P<LEQ>=<)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, value, line, m.start() - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Interpreted rule semantics: the reference for the compiled bit masks
# ---------------------------------------------------------------------------


def _lookup(state, feature):
    try:
        return state[feature]
    except KeyError:
        raise EvaluationError(f"state does not assign feature {feature!r}") from None


def _aux_holds(program, state, pred, value) -> bool:
    return any(
        rule.head.predicate == pred and rule.head.value == value
        and rule_fires(rule, state, program)
        for rule in program.aux_rules
    )


def _literal_holds(lit, state, program, bindings: dict) -> bool:
    if lit.kind == FEATURE_TEST:
        return _lookup(state, lit.predicate) == lit.value
    if lit.kind == NEG_FEATURE_TEST:
        return _lookup(state, lit.predicate) != lit.value
    if lit.kind == NUMERIC_BINDING:
        raw = _lookup(state, lit.predicate)
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise EvaluationError(
                f"numeric binding on non-numeric feature {lit.predicate!r}"
            )
        bindings[lit.variable] = float(raw)
        return True
    if lit.kind == COMPARISON:
        return bindings[lit.variable] <= lit.bound
    if lit.kind == NEG_COMPARISON:
        return not bindings[lit.variable] <= lit.bound
    if lit.kind == AUX_CALL:
        return _aux_holds(program, state, lit.predicate, lit.value)
    if lit.kind == NEG_AUX_CALL:
        return not _aux_holds(program, state, lit.predicate, lit.value)
    raise ValueError(f"unknown literal kind {lit.kind!r}")


def rule_fires(rule, state, program) -> bool:
    """True iff every body literal holds in the (total) name->value state.

    Negation is negation-as-failure, which over total states reduces to a
    complement test; an empty body fires vacuously.
    """
    bindings: dict[str, float] = {}
    return all(_literal_holds(lit, state, program, bindings) for lit in rule.body)


def program_decides(program, state) -> bool:
    """Disjunctive reading: at least one non-aux rule fires."""
    return any(rule_fires(rule, state, program) for rule in program.rules)


CausalGroup = collections.namedtuple("CausalGroup", "feature alternatives")
CausalAlternative = collections.namedtuple("CausalAlternative", "value rules")


def causal_groups(dataset) -> tuple[CausalGroup, ...]:
    """The causal rules per head feature, and within it per head value,
    both in the order the rules first name them."""
    by_head: dict = {}
    for rule in dataset.causal.rules:
        by_head.setdefault(rule.head.predicate, {}).setdefault(rule.head.value, []).append(rule)
    return tuple(
        CausalGroup(feature, tuple(CausalAlternative(v, tuple(rs)) for v, rs in alts.items()))
        for feature, alts in by_head.items()
    )


def causal_head_features(dataset) -> frozenset[str]:
    """The features some causal rule sets."""
    return frozenset(rule.head.predicate for rule in dataset.causal.rules)


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
    provenance: tuple[str, ...] = ()


def entailment_satisfied(spec, value, ent) -> bool:
    """Whether ``value`` meets the entailment: it satisfies the required head
    value, if any, and none of the excluded ones."""
    if ent.required is not None and not spec.satisfies(value, ent.required):
        return False
    return all(not spec.satisfies(value, ex) for ex in ent.excluded)


def interpreted_entailment(dataset, group, state):
    """Completion semantics for one causal group, walking every literal of
    its rules on the state's name->value dict with :func:`rule_fires`."""
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
    return tuple(interpreted_entailment(dataset, g, state) for g in causal_groups(dataset))


def interpreted_consistent(dataset, state) -> bool:
    config = dataset.config
    return all(
        entailment_satisfied(
            config.feature(ent.feature), state.values[config.feature_index(ent.feature)], ent
        )
        for ent in interpreted_entailments(dataset, state)
    )


def names_favourable_label(dataset) -> bool:
    """Whether the decision rules name a label other than the config's
    undesired one, so a state gets the undesired label when none fires.
    Read off the program and the config, never off the compiled rules:
    compiling a program whose causal alternatives co-fire raises."""
    label = dataset.decision.head_label
    return label is not None and label.value != dataset.config.undesired_decision


def interpreted_decision_positive(dataset, state) -> bool:
    decided = program_decides(dataset.decision, dataset.config.state_dict(state))
    return decided != names_favourable_label(dataset)


def interpreted_is_goal(dataset, state) -> bool:
    return interpreted_consistent(dataset, state) and not interpreted_decision_positive(
        dataset, state
    )


def interpreted_repair_values(dataset, state, feature):
    """Values of ``feature`` that satisfy its own group's interpreted
    entailment, the fired head value first."""
    spec = dataset.config.feature(feature)
    for group in causal_groups(dataset):
        if group.feature != feature:
            continue
        ent = interpreted_entailment(dataset, group, state)
        ok = [v for v in spec.domain if entailment_satisfied(spec, v, ent)]
        if ent.required is not None and ent.required in ok:
            ok.remove(ent.required)
            ok.insert(0, ent.required)
        return tuple(ok)
    return ()


def interpreted_closure(dataset, state, prefer=None):
    """Repair the first violated group in head order until the state is
    consistent, on the interpreted semantics.  Each repair takes
    ``prefer``'s value when the group allows it, else the group's first
    repair value.  Returns ``(state, [(feature, value, provenance)])``, or
    None when a violated head is immutable or has no repair value.  Meant
    for acyclic programs, where each group is repaired at most once.
    """
    config = dataset.config
    order = [g.feature for g, _ in dataset.compiled.head_order]
    repairs = []
    for _ in range(len(order) + 1):
        ents = {e.feature: e for e in interpreted_entailments(dataset, state)}
        violated = [
            f for f in order
            if not entailment_satisfied(
                config.feature(f), state.values[config.feature_index(f)], ents[f]
            )
        ]
        if not violated:
            return state, repairs
        spec = config.feature(violated[0])
        i = config.feature_index(spec.name)
        values = interpreted_repair_values(dataset, state, spec.name)
        if not spec.mutable or not values:
            return None
        value = prefer.values[i] if prefer is not None and prefer.values[i] in values else values[0]
        repairs.append((spec.name, value, tuple(ents[spec.name].provenance)))
        state = state.replace_value(i, value)
    return None


def adjust_weights(dataset, source, target, weights):
    """Zero out the weights of changes the causal rules compel in the target,
    on the interpreted semantics; returns ``(weights, freed features)``.

    A changed feature is causal-free iff its group fires a requirement in the
    target and the target's value satisfies it: the change would happen on
    its own once the other features move.  The reference for the weights of
    ``p2c``-mode reports and for the planner's pricing on bits.
    """
    config = dataset.config
    if not interpreted_consistent(dataset, target):
        raise P2CError("adjust_weights target must be causally consistent")
    adjusted = dict(weights)
    free: set[str] = set()
    for ent in interpreted_entailments(dataset, target):
        if ent.required is None:
            continue
        i = config.feature_index(ent.feature)
        if source.values[i] == target.values[i]:
            continue
        if config.features[i].satisfies(target.values[i], ent.required):
            adjusted[ent.feature] = 0.0
            free.add(ent.feature)
    return adjusted, frozenset(free)


def _priced_goals(dataset, instance, weights, p, mode):
    """``(cost, lex key, state)`` of every goal in the plausibility-restricted
    space, each priced in full (no streaming, no bounds)."""
    config = dataset.config
    weights = dict(weights) if weights is not None else config.weights()
    p = config.norm_p if p is None else p
    heads = causal_head_features(dataset)
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
    for combo in itertools.product(*per_feature):
        state = State(combo)
        if not dataset.is_goal(state):
            continue
        if mode == "p2c":
            adj, _ = adjust_weights(dataset, instance, state, weights)
        else:
            adj = weights
        cost = compute_weighted_lp(config, instance, state, adj, p)
        yield cost, config.lex_key(state), state


def exhaustive_min_cf(dataset, instance, *, weights=None, p=None, mode="p2c"):
    """Plain double-loop minimum over the goal set (no streaming, no bounds)."""
    best = None
    for cost, key, state in _priced_goals(dataset, instance, weights, p, mode):
        if best is None or (cost, key) < best[0]:
            best = ((cost, key), state, cost)
    return best  # None, or ((cost, lexkey), state, cost)


def exhaustive_goal_knearest(dataset, instance, k, *, weights=None, p=None, mode="p2c"):
    """The k cheapest goals as ``(state, cost)``, by a plain sort of every
    priced goal on (cost, lexicographic position)."""
    goals = sorted(
        _priced_goals(dataset, instance, weights, p, mode), key=lambda t: (t[0], t[1])
    )
    return [(s, c) for c, _, s in goals[:k]]


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


def knearest_trimmed(config, q, k, p, weights=None):
    """k nearest states of the whole space via per-dimension trimming.

    Keeps, in every dimension, the k values with the smallest per-feature
    cost contribution under the chosen norm (ties by domain index, matching
    the global lexicographic tie-break), forms the candidate product, and
    picks the k best overall.  The k nearest of the full space always
    survive such a trim, so this equals :func:`exhaustive_knearest`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = dict(weights) if weights is not None else config.weights()
    trimmed = []
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


def consolidate_placeholders(
    config: DatasetConfig, programs: Sequence[RuleProgram]
) -> DatasetConfig:
    """Merge rule-independent categorical values into per-feature placeholders.

    A value survives if any program mentions it or the factual instance
    (config.instance_defaults) holds it; at least two values must merge for a
    placeholder to be introduced, which also makes the operation idempotent.
    Numeric domains are already threshold-minimal and are left alone.
    The reference for the reduced space of ``dataset.consolidate_dataset``.
    """
    defaults = config.instance_defaults or {}
    new_features = []
    for spec in config.features:
        if spec.kind != CATEGORICAL:
            new_features.append(spec)
            continue
        mentioned: set[Value] = set()
        for prog in programs:
            mentioned |= mentioned_values(prog, spec.name)
        keep = {v for v in spec.domain if v in mentioned}
        if spec.name in defaults:
            keep.add(str(defaults[spec.name]))
        merge = [v for v in spec.domain if v not in keep]
        if len(merge) < 2:
            new_features.append(spec)
            continue
        placeholder = f"ph_{spec.name}"
        raws: list[Value] = []
        for v in merge:
            raws.extend(spec.merged.get(v, (v,)))
        merged = dict(spec.merged)
        for v in merge:
            merged.pop(v, None)
        merged[placeholder] = tuple(raws)
        domain = tuple(v for v in spec.domain if v in keep) + (placeholder,)
        new_features.append(replace(spec, domain=domain, merged=merged))
    return replace(config, features=tuple(new_features))


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


def bfs_naive_path(dataset, instance: State, s_star: State) -> PlanPath:
    """The causally blind baseline by breadth-first search over single-feature
    direct edits, ignoring the causal rules and every plausibility flag."""
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


def state_path_is_legal(dataset, path: PlanPath) -> tuple[bool, list[str]]:
    """The reference for ``p2c.planner.path_is_legal``: the same replay on
    ``State`` values, asking :func:`interpreted_repair_values` for each causal
    action.

    Replay every action: direct ones must respect actionability,
    mutability and monotonicity; causal ones must set a value the causal
    rules actually compel at that point.  An action on an unknown feature or
    to a value outside its domain is reported and not replayed."""
    config = dataset.config
    violations: list[str] = []
    if not path.steps:
        return True, violations
    current = path.start
    for step_no, step in enumerate(path.steps):
        for action in step.actions:
            if not config.has_feature(action.feature):
                violations.append(f"step {step_no}: {action.describe()}: unknown feature")
                continue
            i = config.feature_index(action.feature)
            spec = config.features[i]
            if action.new_value not in spec.domain:
                violations.append(
                    f"step {step_no}: {action.describe()}: value outside domain"
                )
                continue
            if action.kind == DIRECT:
                problem = direct_action_problem(spec, current.values[i], action.new_value)
                if problem:
                    violations.append(f"step {step_no}: {action.describe()}: {problem}")
            elif action.kind == CAUSAL:
                allowed = interpreted_repair_values(dataset, current, action.feature)
                if action.new_value not in allowed:
                    violations.append(
                        f"step {step_no}: {action.describe()}: value is not entailed "
                        f"by the causal rules here"
                    )
            else:
                violations.append(f"step {step_no}: unknown action kind {action.kind!r}")
            current = current.replace_value(i, action.new_value)
        if current != step.state:
            violations.append(
                f"step {step_no}: recorded state does not match the replayed actions"
            )
            if all(v in f.domain for f, v in zip(config.features, step.state.values)):
                current = step.state
    return not violations, violations


OFF_DOMAIN = "<off-domain>"


def corrupted_plans(dataset, plan: PlanPath) -> list[PlanPath]:
    """Copies of ``plan`` with one fault each, for a legality check to judge.

    Built from the plan, the domains and the rule interpreter alone, so every
    version of the planner gets the same copies.  With at least one action:
    its value off the domain, its feature unknown, its kind unknown.  With a
    step after the start: a causal action to a value the interpreter's
    rules do not allow there (the first causal action's value changed, else
    one put first in step 1 on the first causal head), a direct move against
    a monotone feature's direction put first in the first step whose
    previous state allows one, step 1's
    recorded state with one value moved to the next in its domain, and with
    an off-domain value.  Recorded states are not updated, so a fault that
    changes the replay also shows as a mismatch.
    """
    config = dataset.config
    steps = plan.steps
    out: list[PlanPath] = []

    def with_step(n: int, actions=None, state=None) -> PlanPath:
        step = PathStep(steps[n].state if state is None else state,
                        steps[n].actions if actions is None else actions)
        return PlanPath(steps[:n] + (step,) + steps[n + 1:])

    first = next(((n, step.actions[0]) for n, step in enumerate(steps) if step.actions), None)
    if first is not None:
        n, a = first
        for bad in (Action(a.kind, a.feature, OFF_DOMAIN), Action(a.kind, "<unknown>", a.new_value),
                    Action("sideways", a.feature, a.new_value)):
            out.append(with_step(n, (bad,) + steps[n].actions[1:]))
    if len(steps) < 2:
        return out

    site = next(((n, k, a.feature) for n, step in enumerate(steps[1:], 1)
                 for k, a in enumerate(step.actions) if a.kind == CAUSAL), None)
    groups = causal_groups(dataset)
    if site is None and groups:
        site = (1, None, groups[0].feature)  # put first in step 1
    if site is not None:
        n, k, feature = site
        head = steps[n].actions[:k or 0]
        tail = steps[n].actions if k is None else steps[n].actions[k + 1:]
        before = steps[n - 1].state
        for a in head:
            before = before.replace_value(config.feature_index(a.feature), a.new_value)
        allowed = interpreted_repair_values(dataset, before, feature)
        value = next((v for v in config.feature(feature).domain if v not in allowed), None)
        if value is not None:
            out.append(with_step(n, head + (Action(CAUSAL, feature, value),) + tail))

    def wrong_way(spec, value):
        """A value a direct move to would go against ``spec``'s direction."""
        if not spec.mutable or not spec.directly_actionable:
            return None
        j = spec.index_of(value)
        if spec.monotone == "nondecreasing" and j > 0:
            return spec.domain[0]
        if spec.monotone == "nonincreasing" and j < len(spec.domain) - 1:
            return spec.domain[-1]
        return None

    wrong = next(((n, spec.name, v) for n in range(1, len(steps))
                  for spec, was in zip(config.features, steps[n - 1].state.values)
                  if (v := wrong_way(spec, was)) is not None), None)
    if wrong is not None:
        n, feature, value = wrong
        out.append(with_step(n, (Action(DIRECT, feature, value),) + steps[n].actions))

    recorded = steps[1].state
    fi = next((fi for fi, spec in enumerate(config.features) if len(spec.domain) > 1), None)
    if fi is not None:
        domain = config.features[fi].domain
        moved = domain[(domain.index(recorded.values[fi]) + 1) % len(domain)]
        out.append(with_step(1, state=recorded.replace_value(fi, moved)))
    out.append(with_step(1, state=recorded.replace_value(0, OFF_DOMAIN)))
    return out
