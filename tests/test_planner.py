from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

from conftest import make_dataset, random_dataset
from oracles import (
    one_direct_action_reaches_goal,
    reference_direct_ranking,
    verify_solution_path,
)
from p2c.domain import FeatureSpec, State, validate_state
from p2c.errors import (
    InconsistentInitialStateError,
    P2CError,
    SearchExhaustedError,
)
from p2c.masks import CompiledRules
from p2c.planner import (
    Action,
    Ledger,
    _Moves,
    apply_action,
    available_direct_actions,
    drop_inconsistent,
    find_path,
    intervene,
    make_consistent,
    naive_find_path,
    path_is_legal,
)
from p2c.search import min_cf


def state_of(dataset, **raw):
    return validate_state(dataset.config, raw)


# ---------------------------------------------------------------------------
# apply_action
# ---------------------------------------------------------------------------


def test_apply_direct_balance_change(example1):
    john = example1.default_instance()
    goal = apply_action(example1.config, john, Action("direct", "bank_balance", 60000.0))
    assert goal.values == (31.0, 5000.0, 12.0, 60000.0, 599.0)


def test_apply_age_decrease_rejected(example1):
    john = example1.default_instance()
    # age domain also contains 32; decreasing from 32 to 31 must fail
    older = john.replace_value(0, 32.0)
    with pytest.raises(P2CError, match="nondecreasing"):
        apply_action(example1.config, older, Action("direct", "age", 31.0))


def test_apply_non_actionable_rejected(example2):
    john = example2.default_instance()
    with pytest.raises(P2CError, match="not directly actionable"):
        apply_action(example2.config, john, Action("direct", "credit_score", 620.0))


def test_apply_value_outside_domain_rejected(example1):
    john = example1.default_instance()
    with pytest.raises(P2CError, match="not in the domain"):
        apply_action(example1.config, john, Action("direct", "debt", 123.0))


def test_apply_unenforced_allows_anything(example2):
    john = example2.default_instance()
    out = apply_action(
        example2.config, john, Action("direct", "credit_score", 620.0), enforce=False
    )
    assert out.values[4] == 620.0


# ---------------------------------------------------------------------------
# make_consistent
# ---------------------------------------------------------------------------


def test_make_consistent_repairs_example2_intermediate(example2):
    broken = state_of(example2, age=31, debt=0, loan_duration=12,
                      bank_balance=40000, credit_score=599)
    ledger = Ledger()
    state, taken = make_consistent(example2, ledger, broken, [])
    assert state.values[4] == 620.0
    assert example2.consistent(state)
    # the broken intermediate was recorded on the ledger
    assert ledger.entries[-1].state == broken
    assert ledger.entries[-1].taken[-1].kind == "causal"


def test_make_consistent_noop_when_consistent(example2):
    john = example2.default_instance()
    ledger = Ledger()
    state, taken = make_consistent(example2, ledger, john, [])
    assert state == john
    assert len(ledger) == 0


def test_make_consistent_exhausts_when_only_repair_is_visited():
    ds = make_dataset(
        {
            "f": FeatureSpec(name="f", kind="categorical", domain=("a", "b"),
                             directly_actionable=False, mutable=True),
            "g": FeatureSpec(name="g", kind="categorical", domain=("x", "y"),
                             directly_actionable=False, mutable=True),
        },
        "label(X,'bad') :- g(X,'x').",
        "f(X,'a') :- g(X,'x').\nf(X,'b') :- not g(X,'x').",
    )
    broken = State(("b", "x"))  # needs f=a, but that state is already visited
    repaired = State(("a", "x"))
    ledger = Ledger()
    ledger.seen.add(repaired)
    with pytest.raises(SearchExhaustedError) as excinfo:
        make_consistent(ds, ledger, broken, [])
    assert excinfo.value.diagnostics == ((broken, ()),)


# ---------------------------------------------------------------------------
# intervene
# ---------------------------------------------------------------------------


def test_intervene_example1_first_step_reaches_goal_state(example1):
    john = example1.default_instance()
    target = min_cf(example1, john).target
    ledger = Ledger()
    ledger.push(john)
    intervene(example1, ledger, target=target, budget=1)
    assert ledger.last().state == target
    assert len(ledger) == 2


def test_intervene_backtracks_by_popping_one(example1):
    from p2c.planner import available_direct_actions

    john = example1.default_instance()
    dead_end = john.replace_value(1, 5001.0)
    ledger = Ledger()
    ledger.push(john)
    ledger.push(dead_end)
    # every successor of the dead end is already visited
    for action in available_direct_actions(example1, dead_end, None,
                                           example1.config.weights(), 1):
        ledger.seen.add(apply_action(example1.config, dead_end, action))
    intervene(example1, ledger, target=None, budget=5)
    assert [e.state for e in ledger.entries] == [john]  # shrank by exactly one


def test_intervene_on_fully_visited_start_exhausts(example1):
    from p2c.planner import available_direct_actions

    john = example1.default_instance()
    ledger = Ledger()
    ledger.push(john)
    for action in available_direct_actions(example1, john, None,
                                           example1.config.weights(), 1):
        ledger.seen.add(apply_action(example1.config, john, action))
    with pytest.raises(SearchExhaustedError):
        intervene(example1, ledger, target=None, budget=5)


def test_intervene_transitions_satisfy_delta_randomised():
    """Every consecutive consistent pair in a successful ledger replays as a
    valid transition (the planner's bookkeeping is not trusted)."""
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


# ---------------------------------------------------------------------------
# find_path
# ---------------------------------------------------------------------------


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


def deepening_cases(seeds):
    """Random datasets whose plan needs a direct-action budget of 2 or more."""
    for seed in seeds:
        made = random_dataset(seed)
        if made is None:
            continue
        ds, instance = made
        try:
            target = min_cf(ds, instance).target
            find_path(ds, instance, target, max_dpl=1)
        except SearchExhaustedError:
            yield seed, ds, instance, target
        except P2CError:
            continue


def test_exhaustion_diagnostics_name_the_abandoned_start():
    checked = 0
    for seed, ds, instance, target in deepening_cases(range(200)):
        with pytest.raises(SearchExhaustedError) as excinfo:
            find_path(ds, instance, target, max_dpl=1)
        diagnostics = excinfo.value.diagnostics
        assert diagnostics and diagnostics[0][0] == instance, seed
        checked += 1
    assert checked >= 5


def test_find_path_computes_each_state_once_across_budgets(monkeypatch):
    violations, ranked = Counter(), Counter()
    real_violations, real_ranked = CompiledRules.violations, _Moves.ranked

    def counted_violations(self, bits):
        violations[bits] += 1
        return real_violations(self, bits)

    def counted_ranked(self, state):
        ranked[state] += 1
        return real_ranked(self, state)

    checked = 0
    for seed, ds, instance, target in deepening_cases(range(120, 220)):
        attrs = dict(vars(ds))
        violations.clear()
        ranked.clear()
        with monkeypatch.context() as m:
            m.setattr(CompiledRules, "violations", counted_violations)
            m.setattr(_Moves, "ranked", counted_ranked)
            path = find_path(ds, instance, target)
        assert path.direct_action_count() >= 2, seed
        assert ranked and max(ranked.values()) == 1, (seed, ranked)
        assert violations and max(violations.values()) == 1, (seed, violations)
        assert vars(ds) == attrs, seed
        checked += 1
    assert checked >= 5
    gc.collect()
    assert not any(isinstance(o, _Moves) for o in gc.get_objects())


def pricing_cases(example1, example2, cars, german, adult):
    """(dataset, state, target, weights) on sampled bundle states, where
    numeric features give non-integer terms, and on random datasets with
    random weights; every fourth case has no target."""
    rng = random.Random(5)
    datasets = [example1, example2, cars, german, adult]
    for seed in range(60):
        made = random_dataset(seed)
        if made is not None:
            datasets.append(made[0])
    n = 0
    for ds in datasets:
        features = ds.config.features
        weights = ds.config.weights() if ds in (german, adult) else {
            f.name: rng.choice((0.0, 0.3, 1.0, 2.7)) for f in features
        }
        for _ in range(12):
            state, target = (State(tuple(rng.choice(f.domain) for f in features))
                             for _ in range(2))
            n += 1
            yield ds, state, None if n % 4 == 0 else target, weights


@pytest.mark.parametrize("p", [0, 1, 2])
def test_direct_ranking_equals_full_pricing(p, example1, example2, cars, german, adult):
    for ds, state, target, weights in pricing_cases(example1, example2, cars, german, adult):
        want = reference_direct_ranking(ds, state, target, weights, p)
        got = _Moves(ds, target, weights, p).ranked(state)
        assert [(h, fi, j, nxt) for h, fi, j, _, nxt in got] == want
        features = ds.config.features
        assert available_direct_actions(ds, state, target, weights, p) == [
            Action("direct", features[fi].name, features[fi].domain[j]) for _, fi, j, _ in want
        ]


def test_direct_ranking_rejects_unknown_norm(example1):
    john = example1.default_instance()
    with pytest.raises(ValueError, match="p must be 0, 1 or 2"):
        available_direct_actions(example1, john, john, example1.config.weights(), 3)


# ---------------------------------------------------------------------------
# drop_inconsistent
# ---------------------------------------------------------------------------


def test_drop_inconsistent_identity_on_consistent_ledger(example1):
    john = example1.default_instance()
    ledger = Ledger()
    ledger.push(john)
    goal = john.replace_value(3, 60000.0)
    ledger.entries[-1].taken.append(Action("direct", "bank_balance", 60000.0))
    ledger.push(goal)
    path = drop_inconsistent(example1, ledger)
    assert path.states() == (john, goal)
    assert path.steps[1].actions[0].feature == "bank_balance"


def test_drop_inconsistent_removes_example2_interim(example2):
    john = example2.default_instance()
    target = min_cf(example2, john).target
    # run an un-dropped search by hand to observe the interim in the ledger
    ledger = Ledger()
    ledger.push(john)
    while not example2.is_goal(ledger.last().state):
        intervene(example2, ledger, target=target, budget=2)
    raw_states = [e.state for e in ledger.entries]
    assert any(not example2.consistent(s) for s in raw_states)
    path = drop_inconsistent(example2, ledger)
    assert all(example2.consistent(s) for s in path.states())
    assert len(path.states()) == len(raw_states) - 1


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


def test_path_is_legal_empty_path():
    from p2c.planner import PlanPath

    ds = make_dataset({"f": ("a", "b")}, "")
    assert path_is_legal(ds, PlanPath(())) == (True, [])


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
    """Without causal rules the deepening search is complete per budget, so a
    one-direct-action plan exists iff the returned plan uses one."""
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
