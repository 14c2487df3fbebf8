from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_dataset
from oracles import exhaustive_knearest, exhaustive_min_cf
from p2c.domain import FeatureSpec, State, enumerate_states, validate_state
from p2c.errors import (
    AlreadyCounterfactualError,
    InconsistentInitialStateError,
    NoCounterfactualError,
)
from p2c.search import (
    adjust_weights,
    compute_weighted_lp,
    goal_knearest,
    knearest_trimmed,
    min_cf,
)


# ---------------------------------------------------------------------------
# compute_weighted_lp
# ---------------------------------------------------------------------------


def test_distance_to_self_is_zero(example1):
    s = example1.default_instance()
    w = example1.config.weights()
    for p in (0, 1, 2):
        assert compute_weighted_lp(example1.config, s, s, w, p) == 0.0


def test_single_categorical_mismatch():
    ds = make_dataset({"f": ("a", "b"), "g": ("x", "y")}, "label(X,'bad') :- f(X,'a').")
    a = State(("a", "x"))
    b = State(("b", "x"))
    w = ds.config.weights()
    for p in (0, 1, 2):
        assert compute_weighted_lp(ds.config, a, b, w, p) == 1.0


def test_example1_normalised_distance(example1):
    john = example1.default_instance()
    goal = validate_state(example1.config, {
        "age": 31, "debt": 5000, "loan_duration": 12,
        "bank_balance": 60000, "credit_score": 599,
    })
    w = example1.config.weights()
    # independent recomputation: one numeric change of 20000 over a 1e9 range
    assert compute_weighted_lp(example1.config, john, goal, w, 1) == pytest.approx(20000 / 1e9)
    assert compute_weighted_lp(example1.config, john, goal, w, 0) == 1.0


@st.composite
def three_states(draw):
    domain = tuple(f"v{i}" for i in range(4))
    values = lambda: tuple(draw(st.sampled_from(domain)) for _ in range(3))
    return values(), values(), values()


@given(three_states(), st.sampled_from((1, 2)))
@settings(max_examples=150)
def test_metric_axioms(triple, p):
    ds = make_dataset(
        {"f0": tuple(f"v{i}" for i in range(4)),
         "f1": tuple(f"v{i}" for i in range(4)),
         "f2": tuple(f"v{i}" for i in range(4))},
        "label(X,'bad') :- f0(X,'v0').",
    )
    w = {"f0": 1.0, "f1": 2.0, "f2": 0.5}
    a, b, c = (State(v) for v in triple)
    d = lambda x, y: compute_weighted_lp(ds.config, x, y, w, p)
    assert d(a, b) >= 0
    assert d(a, b) == d(b, a)
    assert (d(a, b) == 0) == (a == b)  # all weights positive
    assert d(a, c) <= d(a, b) + d(b, c) + 1e-12


# ---------------------------------------------------------------------------
# adjust_weights
# ---------------------------------------------------------------------------


def test_adjust_weights_example2(example2):
    john = example2.default_instance()
    goal = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 60000, "credit_score": 620,
    })
    w = example2.config.weights()
    adjusted, free = adjust_weights(example2, john, goal, w)
    assert free == {"credit_score"}
    assert adjusted["credit_score"] == 0.0
    assert adjusted["debt"] == 1.0 and adjusted["bank_balance"] == 1.0
    # L0 under adjusted weights: 2 changed features count, the causal one does not
    assert compute_weighted_lp(example2.config, john, goal, adjusted, 0) == 2.0
    assert compute_weighted_lp(example2.config, john, goal, w, 0) == 3.0


def test_adjust_weights_no_causal_program_identity(cars):
    a = cars.default_instance()
    b = State(tuple(
        spec.domain[(spec.index_of(v) + 1) % len(spec.domain)]
        for spec, v in zip(cars.config.features, a.values)
    ))
    w = cars.config.weights()
    adjusted, free = adjust_weights(cars, a, b, w)
    assert adjusted == w
    assert free == frozenset()


def test_adjust_weights_unchanged_feature_not_freed(example2):
    # target entails credit_score but the source already satisfies it
    source = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 40000, "credit_score": 620,
    })
    target = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 60000, "credit_score": 620,
    })
    _, free = adjust_weights(example2, source, target, example2.config.weights())
    assert free == frozenset()


# ---------------------------------------------------------------------------
# min_cf
# ---------------------------------------------------------------------------


def test_min_cf_example1_exact(example1):
    r = min_cf(example1, example1.default_instance())
    assert r.target.values == (31.0, 5000.0, 12.0, 60000.0, 599.0)


def test_min_cf_example2_modes(example2):
    john = example2.default_instance()
    p2c = min_cf(example2, john, p=0)
    assert p2c.target.values == (31.0, 0.0, 12.0, 60000.0, 620.0)
    assert p2c.cost == 2.0
    assert p2c.causal_free_features == {"credit_score"}
    allc = min_cf(example2, john, p=0, mode="all_changes")
    assert allc.cost == 3.0
    # p2c strictly cheaper under every norm
    for p in (0, 1, 2):
        assert min_cf(example2, john, p=p).cost < min_cf(
            example2, john, p=p, mode="all_changes"
        ).cost


def test_min_cf_errors(example2, cars):
    goal = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 60000, "credit_score": 620,
    })
    with pytest.raises(AlreadyCounterfactualError):
        min_cf(example2, goal)
    broken = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 40000, "credit_score": 599,
    })
    with pytest.raises(InconsistentInitialStateError):
        min_cf(example2, broken)
    min_cf(example2, broken, on_inconsistent="allow")  # opt-in path works
    # a dataset whose decision can never be escaped has an empty goal set
    ds = make_dataset({"f": ("a", "b")}, "label(X,'bad').")
    state = State(("a",))
    with pytest.raises(NoCounterfactualError):
        min_cf(ds, state)


@pytest.mark.parametrize("mode", ["p2c", "all_changes"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_min_cf_matches_exhaustive_oracle_shipped(example1, example2, mode, p):
    for ds in (example1, example2):
        instance = ds.default_instance()
        got = min_cf(ds, instance, p=p, mode=mode)
        best = exhaustive_min_cf(ds, instance, p=p, mode=mode)
        assert best is not None
        assert got.cost == pytest.approx(best[2], abs=1e-12)
        assert got.target == best[1]


def test_min_cf_matches_exhaustive_oracle_random():
    checked = 0
    for seed in range(200):
        made = random_dataset(seed, max_features=4, max_values=4)
        if made is None:
            continue
        ds, instance = made
        for mode in ("p2c", "all_changes"):
            try:
                got = min_cf(ds, instance, mode=mode)
            except NoCounterfactualError:
                assert exhaustive_min_cf(ds, instance, mode=mode) is None
                continue
            best = exhaustive_min_cf(ds, instance, mode=mode)
            assert got.cost == pytest.approx(best[2], abs=1e-12)
            assert got.target == best[1], seed
            checked += 1
    assert checked >= 100


def test_min_cf_zero_pricing_dominance(example2, cars):
    for ds in (example2, cars):
        instance = ds.default_instance()
        for p in (0, 1, 2):
            c_p2c = min_cf(ds, instance, p=p).cost
            c_all = min_cf(ds, instance, p=p, mode="all_changes").cost
            assert c_p2c <= c_all
            if not ds.causal.clauses:
                assert c_p2c == c_all


def test_min_cf_argmin_scale_invariance(example2):
    john = example2.default_instance()
    w = example2.config.weights()
    for p in (1, 2):
        base = min_cf(example2, john, p=p, weights=w)
        for c in (0.25, 3.0, 17.0):
            scaled = min_cf(example2, john, p=p, weights={k: c * v for k, v in w.items()})
            assert scaled.target == base.target


def test_min_cf_respects_plausibility(adult):
    """Immutable and frozen features never change in the returned target."""
    instance = adult.default_instance()
    r = min_cf(adult, instance)
    i_sex = adult.config.feature_index("sex")
    assert r.target.values[i_sex] == instance.values[i_sex]


# ---------------------------------------------------------------------------
# k-nearest: trimming theorem
# ---------------------------------------------------------------------------


def test_knearest_self_is_nearest(cars):
    q = cars.default_instance()
    (state, dist), = knearest_trimmed(cars.config, q, 1, 1)
    assert state == q and dist == 0.0


def test_knearest_two_dimensional_example():
    f1 = FeatureSpec(name="x1", kind="numeric", domain=(1.0, 2.0, 3.0),
                     numeric_range=(0.0, 3.0))
    f2 = FeatureSpec(name="x2", kind="numeric", domain=(10.0, 20.0),
                     numeric_range=(0.0, 20.0))
    from p2c.domain import DatasetConfig

    config = DatasetConfig(name="grid", features=(f1, f2), undesired_decision="bad")
    q = State((2.0, 10.0))
    got = knearest_trimmed(config, q, 2, 1)
    want = exhaustive_knearest(config, q, 2, 1)
    assert [(s.values, round(d, 9)) for s, d in got] == [
        (s.values, round(d, 9)) for s, d in want
    ]


def test_knearest_trimmed_equals_brute_force_randomised():
    rng = random.Random(42)
    from p2c.domain import DatasetConfig

    for trial in range(200):
        n = rng.randint(1, 4)
        feats = []
        for i in range(n):
            size = rng.randint(2, 6)
            if rng.random() < 0.5:
                vals = sorted(rng.sample(range(0, 40), size))
                feats.append(FeatureSpec(
                    name=f"x{i}", kind="numeric",
                    domain=tuple(float(v) for v in vals), numeric_range=(0.0, 40.0),
                    weight=rng.choice((0.5, 1.0, 2.0)),
                ))
            else:
                feats.append(FeatureSpec(
                    name=f"x{i}", kind="categorical",
                    domain=tuple(f"v{j}" for j in range(size)),
                    weight=rng.choice((0.5, 1.0, 2.0)),
                ))
        config = DatasetConfig(name=f"t{trial}", features=tuple(feats),
                               undesired_decision="bad")
        q = State(tuple(rng.choice(f.domain) for f in feats))
        k = rng.randint(1, 4)
        p = rng.choice((0, 1, 2))
        got = knearest_trimmed(config, q, k, p)
        want = exhaustive_knearest(config, q, k, p)
        assert [(s, round(d, 9)) for s, d in got] == [(s, round(d, 9)) for s, d in want]


def test_knearest_edges():
    (only,) = knearest_trimmed(
        make_dataset({"f": ("a",)}, "").config, State(("a",)), 1, 1
    )
    assert only[0] == State(("a",))
    # k = space size returns the whole space sorted
    ds = make_dataset({"f": ("a", "b"), "g": ("x", "y")}, "")
    out = knearest_trimmed(ds.config, State(("a", "x")), 4, 1)
    assert len(out) == 4
    assert [d for _, d in out] == sorted(d for _, d in out)
    with pytest.raises(ValueError):
        knearest_trimmed(ds.config, State(("a", "x")), 0, 1)


# ---------------------------------------------------------------------------
# goal_knearest
# ---------------------------------------------------------------------------


def test_goal_knearest_ordering_and_mode_dominance(german):
    instance = german.default_instance()
    for p in (0, 1, 2):
        p2c = goal_knearest(german, instance, 20, p=p, mode="p2c")
        allc = goal_knearest(german, instance, 20, p=p, mode="all_changes")
        costs_p = [r.cost for r in p2c]
        costs_a = [r.cost for r in allc]
        assert costs_p == sorted(costs_p)
        assert len(costs_p) == len(costs_a)
        # pointwise order-statistic dominance
        for cp, ca in zip(costs_p, costs_a):
            assert cp <= ca + 1e-12


def test_goal_knearest_first_equals_min_cf(example2):
    john = example2.default_instance()
    for mode in ("p2c", "all_changes"):
        best = min_cf(example2, john, mode=mode)
        nearest = goal_knearest(example2, john, 5, mode=mode)[0]
        assert nearest.target == best.target
        assert nearest.cost == pytest.approx(best.cost)


def test_goal_knearest_exhaustive_cross_check(example2):
    """Against a plain sort of every priced goal state."""
    john = example2.default_instance()
    got = goal_knearest(example2, john, 10, p=1, mode="p2c")
    all_goals = []
    for s in enumerate_states(example2.config):
        if not example2.is_goal(s):
            continue
        adj, _ = adjust_weights(example2, john, s, example2.config.weights())
        cost = compute_weighted_lp(example2.config, john, s, adj, 1)
        all_goals.append((cost, example2.config.lex_key(s), s))
    all_goals.sort(key=lambda t: (t[0], t[1]))
    want = [(s, c) for c, _, s in all_goals[:10]]
    assert [(r.target, pytest.approx(r.cost)) for r in got] == want
