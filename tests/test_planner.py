from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import DATA, budget, cyclic_dataset, make_dataset, random_dataset
from oracles import (
    adjust_weights,
    bfs_naive_path,
    causal_head_features,
    corrupted_plans,
    one_direct_action_reaches_goal,
    state_path_is_legal,
    verify_solution_path,
)
from p2c.dataset import consolidate_dataset, load_dataset
from p2c.domain import FeatureSpec, State, enumerate_states, validate_state
from p2c.errors import (
    EvaluationError,
    InconsistentInitialStateError,
    NoCounterfactualError,
    P2CError,
    SearchExhaustedError,
    StateValidationError,
)
from p2c.masks import CompiledRules
from p2c.planner import (
    Action,
    PathStep,
    PlanPath,
    direct_action_problem,
    find_path,
    naive_find_path,
    path_is_legal,
)
from p2c.search import compute_weighted_lp, cost_terms, goal_price, min_cf


def state_of(dataset, **raw):
    return validate_state(dataset.config, raw)


# ---------------------------------------------------------------------------
# one direct action, judged by path_is_legal
# ---------------------------------------------------------------------------


def one_step(dataset, state, feature, value):
    """The state one direct action on ``feature`` to ``value`` records, and
    path_is_legal's verdict on that one-step plan from ``state``."""
    after = state.replace_value(dataset.config.feature_index(feature), value)
    plan = PlanPath((PathStep(state, ()), PathStep(after, (Action("direct", feature, value),))))
    return after, path_is_legal(dataset, plan)


def test_apply_direct_balance_change(example1):
    john = example1.default_instance()
    goal, verdict = one_step(example1, john, "bank_balance", 60000.0)
    assert goal.values == (31.0, 5000.0, 12.0, 60000.0, 599.0)
    assert verdict == (True, [])


def test_apply_age_decrease_rejected(example1):
    john = example1.default_instance()
    # age domain also contains 32; decreasing from 32 to 31 must fail
    older = john.replace_value(0, 32.0)
    _, verdict = one_step(example1, older, "age", 31.0)
    assert verdict == (False, [
        "step 1: direct(age -> 31.0): nondecreasing feature cannot decrease",
    ])


def test_apply_non_actionable_rejected(example2):
    john = example2.default_instance()
    _, verdict = one_step(example2, john, "credit_score", 620.0)
    assert verdict == (False, [
        "step 1: direct(credit_score -> 620.0): feature is not directly actionable",
    ])


def test_apply_value_outside_domain_rejected(example1):
    john = example1.default_instance()
    # the action is not replayed, and the recorded state is not one of the space
    _, verdict = one_step(example1, john, "debt", 123.0)
    assert verdict == (False, [
        "step 1: direct(debt -> 123.0): value outside domain",
        "step 1: recorded state does not match the replayed actions",
    ])


# ---------------------------------------------------------------------------
# making a state consistent: CompiledRules.closure
# ---------------------------------------------------------------------------


def test_make_consistent_repairs_example2_intermediate(example2):
    """The closure repairs the inconsistent example2 intermediate (debt
    paid, score still 599) by one causal action that carries its rule."""
    broken = state_of(example2, age=31, debt=0, loan_duration=12,
                      bank_balance=40000, credit_score=599)
    compiled = example2.compiled
    assert not example2.consistent(broken)
    bits, repairs = compiled.closure(compiled.bits(broken), compiled.bits(broken))
    repaired = broken.replace_value(4, 620.0)
    assert bits == compiled.bits(repaired)
    assert example2.consistent(repaired)
    assert [(fi, value) for fi, value, _ in repairs] == [(4, 620.0)]
    assert "credit_score" in compiled.provenance(4, repairs[0][2])[0]


def test_make_consistent_noop_when_consistent(example2):
    john = example2.default_instance()
    compiled = example2.compiled
    bits = compiled.bits(john)
    assert compiled.closure(bits, bits) == (bits, [])


# ---------------------------------------------------------------------------
# find_path
# ---------------------------------------------------------------------------


def test_intervene_example1_first_step_reaches_goal_state(example1):
    """In example1 the first move toward s* already reaches the goal."""
    john = example1.default_instance()
    target = min_cf(example1, john).target
    path = find_path(example1, john, target)
    first = path.steps[1]
    assert first.state == target and example1.is_goal(first.state)
    assert [a.kind for a in first.actions] == ["direct"]


def test_drop_inconsistent_identity_on_consistent_ledger(example1):
    """From a consistent start nothing is dropped: the plan begins at the
    instance itself and every state on it is consistent."""
    john = example1.default_instance()
    goal = john.replace_value(3, 60000.0)
    path = find_path(example1, john, goal)
    assert path.states() == (john, goal)
    assert path.steps[0].actions == ()
    assert path.steps[1].actions == (Action("direct", "bank_balance", 60000.0),)
    assert all(example1.consistent(s) for s in path.states())


def test_drop_inconsistent_removes_example2_interim(example2):
    """Paying the debt alone leaves example2 inconsistent (score 599); that
    interim never appears on the plan, whose debt step carries the causal
    credit-score repair instead."""
    john = example2.default_instance()
    target = min_cf(example2, john).target
    path = find_path(example2, john, target)
    interim = john.replace_value(1, 0.0)
    assert not example2.consistent(interim)
    assert interim not in path.states()
    assert all(example2.consistent(s) for s in path.states())
    debt_step = next(s for s in path.steps if s.actions and s.actions[0].feature == "debt")
    assert [(a.kind, a.feature) for a in debt_step.actions] == [
        ("direct", "debt"), ("causal", "credit_score"),
    ]



def test_intervene_transitions_satisfy_delta_randomised():
    """Every consecutive pair of states in a plan replays as a valid
    transition (the planner's bookkeeping is not trusted)."""
    checked = 0
    for seed in range(120):
        made = random_dataset(seed, max_features=4, max_values=4)
        if made is None:
            continue
        ds, instance = made
        try:
            s_star = min_cf(ds, instance).target
            path = find_path(ds, instance, s_star)
        except P2CError:
            continue
        problems = verify_solution_path(ds, instance, path)
        assert not problems, (seed, problems)
        checked += 1
    assert checked >= 40


def test_find_path_example1_two_states_one_direct(example1):
    john = example1.default_instance()
    target = min_cf(example1, john).target
    path = find_path(example1, john, target)
    assert len(path.steps) == 2
    assert path.start == john and path.end == target
    assert path.direct_action_count() == 1
    assert verify_solution_path(example1, john, path) == []


def test_find_path_example2_actions_and_dropped_intermediate(example2):
    john = example2.default_instance()
    target = min_cf(example2, john).target
    path = find_path(example2, john, target)
    assert path.end == target
    kinds = [(a.kind, a.feature) for a in path.actions()]
    assert ("direct", "bank_balance") in kinds
    assert ("direct", "debt") in kinds
    assert ("causal", "credit_score") in kinds
    assert ("direct", "credit_score") not in kinds
    assert path.direct_action_count() == 2
    # the causally inconsistent intermediate (debt 0, score 599) was dropped
    for s in path.states():
        assert example2.consistent(s)
    assert verify_solution_path(example2, john, path) == []
    # the causal step carries its rule provenance
    causal = next(a for a in path.actions() if a.kind == "causal")
    assert causal.provenance and "credit_score" in causal.provenance[0]


def test_find_path_already_goal_returns_singleton(example2):
    goal = state_of(example2, age=31, debt=0, loan_duration=12,
                    bank_balance=60000, credit_score=620)
    path = find_path(example2, goal, goal)
    assert [s for s in path.states()] == [goal]
    assert path.actions() == ()


def test_find_path_rejects_inconsistent_start_by_default(example2):
    broken = state_of(example2, age=31, debt=0, loan_duration=12,
                      bank_balance=40000, credit_score=599)
    target = min_cf(example2, broken, on_inconsistent="allow").target
    with pytest.raises(InconsistentInitialStateError):
        find_path(example2, broken, target)
    path = find_path(example2, broken, target, on_inconsistent="repair")
    # dropped start: the path begins at the first consistent state
    assert all(example2.consistent(s) for s in path.states())
    assert example2.is_goal(path.end)


def test_find_path_unreachable_target_exhausts():
    spec_f = FeatureSpec(name="f", kind="categorical", domain=("a", "b"),
                         directly_actionable=False)
    ds = make_dataset(
        {"f": spec_f, "g": ("x", "y")},
        "label(X,'bad') :- f(X,'a').",
    )
    # f is frozen (non-actionable, no causal rules): the goal needs f=b
    instance = State(("a", "x"))
    goal = State(("b", "x"))
    assert ds.is_goal(goal)
    with pytest.raises(SearchExhaustedError):
        find_path(ds, instance, goal)


def test_find_path_rejects_unknown_norm(example1):
    john = example1.default_instance()
    target = min_cf(example1, john).target
    with pytest.raises(ValueError, match="p must be 0, 1 or 2"):
        find_path(example1, john, target, p=3)


def test_find_path_checks_its_arguments_before_an_already_goal_start(example1, example2):
    """A start already in the goal set still has its target, p and weights
    checked, as any other start has; the target first."""
    target = min_cf(example1, example1.default_instance()).target
    with pytest.raises(ValueError, match="p must be 0, 1 or 2, got 7"):
        find_path(example1, target, target, p=7, weights={"age": -1.0})
    with pytest.raises(ValueError, match="weights give no weight to feature 'debt'"):
        find_path(example1, target, target, weights={"age": 1.0})
    assert find_path(example1, target, target).states() == (target,)
    target = min_cf(example2, example2.default_instance()).target
    broken = next(s for s in enumerate_states(example2.config) if not example2.consistent(s))
    with pytest.raises(P2CError, match="target must be causally consistent"):
        find_path(example2, target, broken, p=7)


@pytest.mark.parametrize("cap", [0, -1])
def test_find_path_rejects_a_cap_below_one(example1, cap):
    john = example1.default_instance()
    target = min_cf(example1, john).target
    with pytest.raises(ValueError, match=f"max_dpl must be at least 1, got {cap}"):
        find_path(example1, john, target, max_dpl=cap)


def test_find_path_rejects_an_inconsistent_target(example2):
    john = example2.default_instance()
    broken = next(s for s in enumerate_states(example2.config) if not example2.consistent(s))
    for p in (1, 3):
        with pytest.raises(P2CError, match="target must be causally consistent"):
            find_path(example2, john, broken, p=p)


@pytest.mark.parametrize("seed, feature, value, reason", [
    (15, "f1", "v2", "nonincreasing feature cannot increase"),
    (275, "f0", "v4", "feature is not directly actionable"),
], ids=["seed15", "seed275"])
def test_exhaustion_names_the_refused_moves(seed, feature, value, reason):
    # s* sets a causal head that no action can: at seed 15 a nonincreasing
    # head must increase, at seed 275 a head that no rule fires must move
    ds, instance = random_dataset(seed)
    assert feature in causal_head_features(ds)
    for p in (0, 1, 2):
        target = min_cf(ds, instance, p=p).target
        assert target.values[ds.config.feature_index(feature)] == value
        with pytest.raises(SearchExhaustedError) as excinfo:
            find_path(ds, instance, target, p=p)
        message = str(excinfo.value)
        assert message.startswith(f"no plan within {len(ds.config.features)} direct action(s)")
        assert f"{feature} -> {value!r}: {reason}" in message
        assert excinfo.value.diagnostics == ((feature, value, reason),)


def test_exhaustion_stops_when_no_state_is_left_to_grow():
    """A cap far past every reachable state costs no more than the default
    one: the search stops when its frontier is empty and raises the same
    error, naming the cap it was given."""
    ds, instance = random_dataset(15)
    target = min_cf(ds, instance).target
    with budget(1.0, "find_path exhausts at max_dpl=10**8"):
        with pytest.raises(SearchExhaustedError) as excinfo:
            find_path(ds, instance, target, max_dpl=10**8)
    assert str(excinfo.value).startswith("no plan within 100000000 direct action(s); ")
    assert excinfo.value.diagnostics == (("f1", "v2", "nonincreasing feature cannot increase"),)


def plan_to_s_star_cost(ds, start, p):
    """The plan toward ``min_cf``'s s*, checked; None when no counterfactual
    exists, the SearchExhaustedError when no plan is found.

    The plan must be legal, sound step by step (``verify_solution_path``
    from its first state) and start at the instance, or, for an inconsistent
    instance, at a state that differs from it only in mutable causal heads
    and plausible direct changes.  It must end at a goal of s*'s p2c cost.
    """
    try:
        best = min_cf(ds, start, p=p, on_inconsistent="allow")
    except NoCounterfactualError:
        return None
    try:
        path = find_path(ds, start, best.target, p=p, on_inconsistent="repair")
    except SearchExhaustedError as exc:
        return exc
    legal, violations = path_is_legal(ds, path)
    assert legal, violations
    assert verify_solution_path(ds, path.start, path) == []
    if ds.consistent(start):
        assert path.start == start
    for spec, was, now in zip(ds.config.features, start.values, path.start.values):
        assert was == now or spec.mutable and spec.name in causal_head_features(ds) or (
            not direct_action_problem(spec, was, now)
        )
    weights = ds.config.weights()
    adjusted, _ = adjust_weights(ds, start, path.end, weights)
    cost = compute_weighted_lp(ds.config, start, path.end, adjusted, p)
    assert abs(cost - best.cost) <= 1e-9
    compiled = ds.compiled
    start_bits = compiled.bits(start)
    priced, _ = goal_price(compiled, start_bits, compiled.bits(path.end),
                           cost_terms(compiled, start_bits, weights, p), p, "p2c")
    assert repr(priced) == repr(cost)
    assert_legal_as_reference(ds, path)
    assert_legal_as_reference(ds, naive_find_path(ds, start, best.target))
    return path


def assert_legal_as_reference(ds, plan):
    """path_is_legal gives the State-level reference's verdict and
    violations on ``plan`` and on each of its corrupted copies."""
    for variant in (plan, *corrupted_plans(ds, plan)):
        assert path_is_legal(ds, variant) == state_path_is_legal(ds, variant), variant


def test_plans_end_at_s_star_cost_on_random_datasets():
    """Each random dataset at its consistent start and at its first
    inconsistent decision-positive start, for p = 0, 1, 2.  Only the starts
    whose s* needs a move that no direct action may make raise, and the
    error names that move."""
    plans, raised = 0, set()
    for seed in range(300):
        made = random_dataset(seed)
        if made is None:
            continue
        ds, instance = made
        inconsistent = next((s for s in enumerate_states(ds.config)
                             if ds.decision_positive(s) and not ds.consistent(s)), None)
        for kind, start in (("consistent", instance), ("inconsistent", inconsistent)):
            if start is None:
                continue
            for p in (0, 1, 2):
                got = plan_to_s_star_cost(ds, start, p)
                if isinstance(got, SearchExhaustedError):
                    assert got.diagnostics, (seed, kind, p)
                    raised.add((seed, kind))
                else:
                    plans += got is not None
    assert plans >= 1000
    assert raised == {(0, "inconsistent"), (15, "consistent"), (275, "consistent")}


@pytest.mark.parametrize("bundle", ("example1", "example2", "cars", "german", "adult"))
def test_plans_end_at_s_star_cost_on_bundle_populations(bundle):
    ds = consolidate_dataset(load_dataset(DATA / bundle))
    starts = [s for s in enumerate_states(ds.config) if ds.decision_positive(s)]
    for start in starts:
        for p in (0, 1, 2):
            assert isinstance(plan_to_s_star_cost(ds, start, p), PlanPath), (start, p)


def test_plans_end_at_s_star_cost_on_a_causal_cycle():
    ds = cyclic_dataset()
    starts = [s for s in enumerate_states(ds.config) if ds.decision_positive(s)]
    assert any(not ds.consistent(s) for s in starts)
    for start in starts:
        for p in (0, 1, 2):
            assert isinstance(plan_to_s_star_cost(ds, start, p), PlanPath), (start, p)


def test_find_path_closes_each_moved_state_once(monkeypatch, german, adult):
    """A deterministic work gate: within one find_path call no state is
    closed twice.  The bits closed are a state with one feature moved to
    s*'s value, so this also holds per (state, feature) pair."""
    closed = Counter()
    real = CompiledRules.closure

    def counted(self, bits, prefer):
        closed[bits] += 1
        return real(self, bits, prefer)

    monkeypatch.setattr(CompiledRules, "closure", counted)
    starts = 0
    for full in (german, adult):
        ds = consolidate_dataset(full)
        for start in enumerate_states(ds.config):
            if not ds.decision_positive(start):
                continue
            target = min_cf(ds, start, on_inconsistent="allow").target
            closed.clear()
            find_path(ds, start, target, on_inconsistent="repair")
            assert closed and max(closed.values()) == 1, start
            starts += 1
    assert starts == 768 + 704


def test_planning_and_checking_stay_on_bits(monkeypatch):
    """A deterministic work gate: find_path prices its goals and
    path_is_legal replays its plans on bits, so neither reaches the
    State-level pricing or the dataset's per-state tests: they read only
    ``dataset.config`` and ``dataset.compiled``."""
    import p2c.planner
    import p2c.search
    from p2c.dataset import Dataset

    cases = []
    for bundle in ("example1", "example2", "cars", "german", "adult"):
        ds = consolidate_dataset(load_dataset(DATA / bundle))
        for start in enumerate_states(ds.config):
            if ds.decision_positive(start):
                cases.append((ds, start, min_cf(ds, start, on_inconsistent="allow").target))
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for owner, name in ((p2c.search, "compute_weighted_lp"), (Dataset, "is_goal"),
                        (Dataset, "consistent")):
        assert not hasattr(p2c.planner, name)
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for ds, start, target in cases:
        path = find_path(ds, start, target, on_inconsistent="repair")
        path_is_legal(ds, path)
        path_is_legal(ds, naive_find_path(ds, start, target))
    assert len(cases) == 1912
    assert calls == Counter()


# ---------------------------------------------------------------------------
# naive planner and legality
# ---------------------------------------------------------------------------


def test_naive_path_example2_directly_sets_credit_score(example2):
    john = example2.default_instance()
    target = min_cf(example2, john).target
    naive = naive_find_path(example2, john, target)
    assert naive.end == target
    feats = {a.feature for a in naive.actions()}
    assert "credit_score" in feats
    legal, violations = path_is_legal(example2, naive)
    assert legal is False
    assert any("credit_score" in v and "actionable" in v for v in violations)


@pytest.mark.parametrize("corrupt, error", [
    (lambda values: values[:-1], EvaluationError),  # one value short
    (lambda values: values[:-1] + (621.5,), StateValidationError),  # off credit_score's domain
], ids=["short", "off-domain"])
def test_naive_path_refuses_a_target_off_the_space_as_find_path_does(example2, corrupt, error):
    """Both planners encode the target as bits first: a target one value
    short is refused, not planned to a stop short of it and called legal,
    and an off-domain value is a validation error, not a search failure."""
    john = example2.default_instance()
    target = State(corrupt(min_cf(example2, john).target.values))
    for planner in (naive_find_path, find_path):
        with pytest.raises(error) as raised:
            planner(example2, john, target)
        assert not isinstance(raised.value, SearchExhaustedError)


def test_naive_path_example1_matches_causal_planner(example1):
    john = example1.default_instance()
    target = min_cf(example1, john).target
    naive = naive_find_path(example1, john, target)
    causal = find_path(example1, john, target)
    assert naive.states() == causal.states()
    legal, violations = path_is_legal(example1, naive)
    assert legal and not violations


def test_naive_path_cars_legal(cars):
    instance = cars.default_instance()
    target = min_cf(cars, instance).target
    naive = naive_find_path(cars, instance, target)
    causal = find_path(cars, instance, target)
    assert path_is_legal(cars, naive)[0] is True
    assert path_is_legal(cars, causal)[0] is True


def test_naive_path_equals_breadth_first_reference():
    """The naive plan, one edit per differing feature in feature order, is
    the plan the breadth-first search over single-feature edits finds: on
    random datasets toward s* and a random target, and on the bundle
    populations toward s* and a random target."""
    rng = random.Random(7)
    cases = []

    def add(ds, start, states):
        cases.append((ds, start, rng.choice(states)))
        try:
            cases.append((ds, start, min_cf(ds, start).target))
        except NoCounterfactualError:
            pass

    for made in map(random_dataset, range(300)):
        if made is not None:
            add(*made, list(enumerate_states(made[0].config)))
    for bundle in ("example1", "example2", "cars", "german", "adult"):
        ds = consolidate_dataset(load_dataset(DATA / bundle))
        states = list(enumerate_states(ds.config))
        starts = [s for s in states if ds.decision_positive(s) and ds.consistent(s)]
        for start in starts[:: max(1, len(starts) // 20)]:
            add(ds, start, states)
    for ds, start, target in cases:
        assert naive_find_path(ds, start, target) == bfs_naive_path(ds, start, target)
    assert len(cases) > 600


def test_path_is_legal_empty_path():
    from p2c.planner import PlanPath

    ds = make_dataset({"f": ("a", "b")}, "")
    assert path_is_legal(ds, PlanPath(())) == (True, [])


def test_path_is_legal_reports_actions_it_cannot_replay(example2):
    """An unknown feature or a value outside the domain is a violation, not
    an error; the replay skips the action, and does not resume from a
    recorded state that holds such a value."""
    john = example2.default_instance()
    off_domain = Action("direct", "debt", 123.0)
    unknown = Action("direct", "income", 1.0)
    repair = Action("causal", "credit_score", 620.0)
    path = PlanPath((
        PathStep(john, ()),
        PathStep(john, (unknown,)),
        PathStep(john.replace_value(1, 123.0), (off_domain,)),
        PathStep(john.replace_value(4, 620.0), (repair,)),
    ))
    legal, violations = path_is_legal(example2, path)
    assert legal is False
    assert violations == [
        f"step 1: {unknown.describe()}: unknown feature",
        f"step 2: {off_domain.describe()}: value outside domain",
        "step 2: recorded state does not match the replayed actions",
        f"step 3: {repair.describe()}: value is not entailed by the causal rules here",
    ]


def test_corrupted_plans_show_every_violation(example2, german, adult):
    """Each corrupted copy of a plan is illegal, and together they reach
    every kind of violation the replay reports."""
    texts = ("value is not entailed", "cannot decrease", "value outside domain",
             "unknown feature", "unknown action kind", "recorded state does not match")
    seen = Counter()
    age = adult.config.feature("age")  # nondecreasing: a plan from an older start can lower it
    older = next(s for s in enumerate_states(adult.config) if adult.decision_positive(s)
                 and adult.consistent(s) and age.index_of(s.values[0]) > 0)
    for ds, start in ((example2, example2.default_instance()), (german, german.default_instance()),
                      (adult, adult.default_instance()), (adult, older)):
        target = min_cf(ds, start).target
        for plan in (find_path(ds, start, target), naive_find_path(ds, start, target)):
            for variant in corrupted_plans(ds, plan):
                legal, violations = path_is_legal(ds, variant)
                assert not legal and violations, variant
                seen.update(text for text in texts if any(text in v for v in violations))
    assert set(seen) == set(texts), seen


def test_every_find_path_output_is_legal_on_shipped(example1, example2, cars, german, adult):
    for ds in (example1, example2, cars, german, adult):
        instance = ds.default_instance()
        if not ds.decision_positive(instance):
            continue
        target = min_cf(ds, instance).target
        path = find_path(ds, instance, target)
        legal, violations = path_is_legal(ds, path)
        assert legal, (ds.config.name, violations)


# ---------------------------------------------------------------------------
# DPL minimality and termination
# ---------------------------------------------------------------------------


def test_dpl_minimality_example1(example1):
    john = example1.default_instance()
    target = min_cf(example1, john).target
    path = find_path(example1, john, target)
    assert path.direct_action_count() == 1


def test_dpl_minimality_randomised_causal_free():
    """Without causal rules, on unit-weight categorical features, a goal's
    cost counts its changes, so the plan to s* uses one direct action iff
    one plausible change reaches a goal."""
    checked = 0
    for seed in range(2000, 2120):
        made = random_dataset(seed, max_features=4, max_values=4, with_causal=False)
        if made is None:
            continue
        ds, instance = made
        try:
            target = min_cf(ds, instance).target
            path = find_path(ds, instance, target)
        except P2CError:
            continue
        reachable_in_one = one_direct_action_reaches_goal(ds, instance)
        assert (path.direct_action_count() == 1) == reachable_in_one, seed
        checked += 1
    assert checked >= 40


def test_planner_terminates_on_unsolvable_config():
    spec = FeatureSpec(name="f", kind="categorical", domain=("a", "b", "c"),
                       mutable=False)
    ds = make_dataset({"f": spec, "g": ("x", "y")}, "label(X,'bad') :- f(X,'a').")
    instance = State(("a", "x"))
    with pytest.raises(SearchExhaustedError):
        find_path(ds, instance, State(("b", "x")))
