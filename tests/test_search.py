from __future__ import annotations

import dataclasses
import json
import pickle
import random
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DATA,
    absorbed_l2,
    budget,
    chained_ladder,
    cyclic_dataset,
    decision_rule_boxes,
    deep_ladder,
    fav_stress,
    l2_root_tie,
    make_dataset,
    random_dataset,
    rich_dataset,
    tie_dataset,
)
from oracles import (
    adjust_weights,
    causal_head_features,
    exhaustive_goal_knearest,
    exhaustive_knearest,
    exhaustive_min_cf,
    knearest_trimmed,
    names_favourable_label,
)
from p2c.dataset import build_dataset, consolidate_dataset, load_dataset
from p2c.domain import FeatureSpec, State, enumerate_states, validate_state
from p2c.errors import (
    AlreadyCounterfactualError,
    CausalProgramError,
    ConfigError,
    InconsistentInitialStateError,
    NoCounterfactualError,
    SearchExhaustedError,
)
import p2c.search
from p2c.masks import CompiledRules
from p2c.planner import find_path
from p2c.search import (
    MODES,
    CostReport,
    _plausible,
    check_weights,
    compute_weighted_lp,
    cost_rows,
    cost_terms,
    goal_knearest,
    goal_price,
    lp_term,
    min_cf,
    resolve_costing,
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


def spread_starts(ds, count):
    """The configured instance, then ``count`` decision-positive, causally
    consistent states spread evenly over the space's enumeration order."""
    pool = [s for s in enumerate_states(ds.config) if ds.decision_positive(s) and ds.consistent(s)]
    return [ds.default_instance()] + pool[:: max(1, len(pool) // count)][:count]


@pytest.fixture(scope="module")
def shipped_starts(example1, example2, adult, german):
    """example1 and example2 at their configured instances; consolidated adult
    (chained heads) and german at theirs and at three more rejected starts."""
    out = [(ds, [ds.default_instance()]) for ds in (example1, example2)]
    for full in (adult, german):
        ds = consolidate_dataset(full)
        out.append((ds, spread_starts(ds, 3)))
    return out


@pytest.mark.parametrize("mode", ["p2c", "all_changes"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_min_cf_matches_exhaustive_oracle_shipped(shipped_starts, mode, p):
    for ds, starts in shipped_starts:
        for instance in starts:
            got = min_cf(ds, instance, p=p, mode=mode)
            best = exhaustive_min_cf(ds, instance, p=p, mode=mode)
            assert best is not None
            assert got.cost == pytest.approx(best[2], abs=1e-12)
            assert got.target == best[1], (ds.config.name, instance)


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


@pytest.mark.parametrize("search", [min_cf, lambda ds, s, p: goal_knearest(ds, s, 3, p=p)],
                         ids=["min_cf", "goal_knearest"])
@pytest.mark.parametrize("p", [3, -1, "2"])
def test_search_rejects_unknown_norm(example2, search, p):
    """A norm other than 0, 1 or 2 is refused, as find_path and
    compute_weighted_lp refuse it, not priced as an L2 sum without its root."""
    with pytest.raises(ValueError, match=r"p must be 0, 1 or 2, got " + repr(p)):
        search(example2, example2.default_instance(), p=p)


INTEGER_ARGUMENTS = {
    "p": lambda ds, s, v: min_cf(ds, s, p=v),
    "k": lambda ds, s, v: goal_knearest(ds, s, v),
    "max_dpl": lambda ds, s, v: find_path(ds, s, min_cf(ds, s).target, max_dpl=v),
}


@pytest.mark.parametrize("name, value", [
    ("p", True), ("p", False), ("p", 1.0),
    ("k", True), ("k", 2.0), ("k", "3"),
    ("max_dpl", True), ("max_dpl", 2.5), ("max_dpl", "2"),
])
def test_integer_arguments_refuse_bools_and_non_integers(example2, name, value):
    """``p``, ``k`` and ``max_dpl`` must be ints: a bool, a float or a
    string is a ValueError naming the argument, not a report priced under
    ``p=True``, a TypeError from inside the search or a failed ``range``."""
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        INTEGER_ARGUMENTS[name](example2, example2.default_instance(), value)


@pytest.mark.parametrize("name, value", [
    ("norm_p", True), ("norm_p", 1.0), ("max_dpl", True), ("max_dpl", 2.5),
])
def test_config_refuses_bool_and_non_integer_norm_and_max_dpl(name, value):
    """A config's own ``norm_p`` and ``max_dpl`` follow the same rule, so a
    config that every search would refuse is refused when it is built."""
    with pytest.raises(ConfigError, match=name):
        make_dataset({"f": ("a", "b")}, "label(X,'bad') :- f(X,'a').", **{name: value})


WEIGHTED = {
    "min_cf": lambda ds, s, w: min_cf(ds, s, weights=w),
    "goal_knearest": lambda ds, s, w: goal_knearest(ds, s, 3, weights=w),
    "find_path": lambda ds, s, w: find_path(ds, s, min_cf(ds, s).target, weights=w),
    "compute_weighted_lp": lambda ds, s, w: compute_weighted_lp(ds.config, s, s, w, 1),
}


@pytest.mark.parametrize("bad, message", [
    ({"bank_balance": None}, "weights give no weight to feature 'bank_balance'"),
    ({"bank_balance": -1.0}, "weight of feature 'bank_balance' must be finite and >= 0, got -1.0"),
    ({"bank_balance": float("inf")},
     "weight of feature 'bank_balance' must be finite and >= 0, got inf"),
    ({"bank_balance": True}, "weight of feature 'bank_balance' must be finite and >= 0, got True"),
    ({"salary": 1.0}, "weights name 'salary', which is not a feature"),
], ids=["missing", "negative", "infinite", "bool", "unknown"])
@pytest.mark.parametrize("call", WEIGHTED.values(), ids=WEIGHTED.keys())
def test_weights_argument_is_checked(example1, call, bad, message):
    """A weights mapping must give every feature, and no other name, a finite
    weight >= 0: a missing one is no bare KeyError, a negative or infinite
    one cannot price a goal below the bound the search stops on, and a bool
    is refused as a config's weight is."""
    weights = {**example1.config.weights(), **bad}
    weights = {name: w for name, w in weights.items() if w is not None}
    with pytest.raises(ValueError, match=re.escape(message)):
        call(example1, example1.default_instance(), weights)


def test_adjusted_weights_are_read_only(example2, german, adult):
    """Each report's weights are the call's weights with ``0.0`` on its
    causal-free features, ``adjust_weights``' in p2c mode; they are
    read-only, do not follow the caller's mapping, and the reports that free
    no feature share one mapping."""
    shared = freed = 0
    for ds in (example2, german, adult, consolidate_dataset(german)):
        start = ds.default_instance()
        for mode in ("p2c", "all_changes"):
            for p in (0, 1, 2):
                weights = ds.config.weights()
                reports = goal_knearest(ds, start, 20, p=p, mode=mode, weights=weights,
                                        on_inconsistent="allow")
                weights[ds.config.features[0].name] = 7.0
                plain = [r.adjusted_weights for r in reports if not r.causal_free_features]
                assert all(m is plain[0] for m in plain)
                shared += len(plain) - 1
                freed += len(reports) - len(plain)
                for r in reports:
                    want = {**ds.config.weights(), **dict.fromkeys(r.causal_free_features, 0.0)}
                    assert r.adjusted_weights == want and dict(r.adjusted_weights) == want
                    if mode == "p2c":
                        assert want == adjust_weights(ds, start, r.target, ds.config.weights())[0]
                    with pytest.raises(TypeError):
                        r.adjusted_weights[ds.config.features[0].name] = 0.0
    assert shared > 100 and freed > 50


def test_reports_share_weights_per_freed_set(example2, german, adult):
    """The reports of one ``goal_knearest`` call that free the same features
    share one ``adjusted_weights`` mapping and one ``causal_free_features``
    set, under the config's weights and a caller's; each mapping is still
    ``adjust_weights``' in p2c mode and the plain weights in all-changes
    mode."""
    cases = [(ds, [ds.default_instance()]) for ds in (example2, german, adult)]
    cases += [(ds, spread_starts(ds, 3)) for ds in map(consolidate_dataset, (german, adult))]
    shared_freed = 0
    for ds, starts in cases:
        plain = ds.config.weights()
        for start in starts:
            for mode in MODES:
                for p in (0, 1, 2):
                    for weights in (None, dict(plain)):
                        reports = goal_knearest(ds, start, 20, p=p, mode=mode, weights=weights,
                                                on_inconsistent="allow")
                        first: dict = {}
                        for r in reports:
                            twin = first.setdefault(r.causal_free_features, r)
                            assert r.adjusted_weights is twin.adjusted_weights
                            assert r.causal_free_features is twin.causal_free_features
                            shared_freed += twin is not r and bool(r.causal_free_features)
                            want = plain
                            if mode == "p2c":
                                want = adjust_weights(ds, start, r.target, plain)[0]
                            assert dict(r.adjusted_weights) == want
                        mappings = [r.adjusted_weights for r in first.values()]
                        assert len({id(m) for m in mappings}) == len(mappings)
    assert shared_freed > 100


@pytest.mark.parametrize("p", [None, 0, 1, 2])
def test_config_weights_resolve_equal_and_read_only(example2, p):
    """``resolve_costing`` with no weights gives the config's own weights,
    equal and read-only on every call; editing what ``DatasetConfig.weights``
    returns changes neither them nor the config, which still pickles; ``p``
    is checked on every call."""
    config = example2.config
    got = [resolve_costing(config, None, p) for _ in range(3)]
    for weights, norm in got:
        assert weights == config.weights() and norm == (config.norm_p if p is None else p)
        with pytest.raises(TypeError):
            weights["age"] = 5.0
    edited = config.weights()
    edited["age"] = 5.0
    assert resolve_costing(config, None, p)[0] == got[0][0] == example2.config.weights()
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and resolve_costing(copy, None, p)[0] == got[0][0]
    for _ in range(2):
        with pytest.raises(ValueError, match="p must be 0, 1 or 2"):
            resolve_costing(config, None, 3)


def test_bool_feature_weight_is_refused_on_every_call():
    """``FeatureSpec`` accepts ``weight=True`` (it is finite and >= 0), but
    ``check_weights`` refuses a bool, so ``min_cf`` raises on every call: a
    failed check of the config's weights is not kept as passed."""
    flag = FeatureSpec(name="flag", kind="categorical", domain=("a", "b"), weight=True)
    ds = make_dataset({"x": ("a", "b"), "flag": flag}, "label(X,'no') :- x(X,'a').",
                      undesired_decision="no")
    with pytest.raises(ValueError, match="weight of feature 'flag' must be finite"):
        check_weights(ds.config, ds.config.weights())
    for _ in range(3):
        with pytest.raises(ValueError, match="weight of feature 'flag' must be finite"):
            min_cf(ds, State(("a", "a")))
    fixed = min_cf(ds, State(("a", "a")), weights={"x": 1.0, "flag": 1.0})
    assert fixed.target == State(("b", "a"))


def test_caller_weights_are_never_cached(german, adult):
    """A caller that edits its ``weights`` dict between two ``goal_knearest``
    calls on one dataset gets, from the second, the answers a fresh dataset
    gives under the edited weights; the first call's reports keep theirs."""
    moved = 0
    for name, ds in (("german", german), ("adult", adult)):
        start = ds.default_instance()
        for mode in MODES:
            weights = ds.config.weights()
            before = goal_knearest(ds, start, 20, mode=mode, weights=weights,
                                   on_inconsistent="allow")
            kept = [dict(r.adjusted_weights) for r in before]
            for i, feature in enumerate(weights):
                weights[feature] = weights[feature] * 3 + 1 if i % 2 else weights[feature] / 4
            after = goal_knearest(ds, start, 20, mode=mode, weights=weights,
                                  on_inconsistent="allow")
            fresh = goal_knearest(load_dataset(DATA / name), start, 20, mode=mode,
                                  weights=dict(weights), on_inconsistent="allow")
            assert after == fresh
            assert [dict(r.adjusted_weights) for r in before] == kept
            moved += [r.target for r in after] != [r.target for r in before]
    assert moved >= 2


def test_cost_report_is_a_frozen_dataclass(example2):
    """``CostReport``'s own ``__init__`` keeps it a frozen dataclass: fields
    cannot be set or deleted, ``replace`` builds an equal-but-for-its-change
    report, equality compares fields, and ``to_json`` is as before."""
    r = min_cf(example2, example2.default_instance())
    assert dataclasses.is_dataclass(r) and [f.name for f in dataclasses.fields(r)] == [
        "target", "cost", "p", "mode", "adjusted_weights", "causal_free_features"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.cost = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del r.mode
    dearer = replace(r, cost=r.cost + 1)
    assert type(dearer) is CostReport and dearer != r and dearer.cost == r.cost + 1
    assert replace(dearer, cost=r.cost) == r
    fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
    assert CostReport(**fields) == r and CostReport(*fields.values()) == r
    assert CostReport(**{**fields, "mode": "all_changes"}) != r
    assert repr(r).startswith("CostReport(target=State(values=(31.0, 0.0, 12.0, 60000.0, 620.0)), "
                              "cost=0.00502, p=1, mode='p2c', adjusted_weights=mappingproxy(")
    assert json.dumps(r.to_json(example2.config)) == (
        '{"target": {"age": 31.0, "debt": 0.0, "loan_duration": 12.0, "bank_balance": 60000.0, '
        '"credit_score": 620.0}, "cost": 0.00502, "p": 1, "mode": "p2c", "adjusted_weights": '
        '{"age": 1.0, "bank_balance": 1.0, "credit_score": 0.0, "debt": 1.0, "loan_duration": '
        '1.0}, "causal_free_features": ["credit_score"]}'
    )


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


# ---------------------------------------------------------------------------
# derived causal heads
# ---------------------------------------------------------------------------


def assert_matches_oracle(ds, instance, *, k=5, on_inconsistent="error"):
    """min_cf and goal_knearest(k) equal the exhaustive oracle in both modes
    for p in {0, 1, 2}, including when no counterfactual exists."""
    for mode in ("p2c", "all_changes"):
        for p in (0, 1, 2):
            want = exhaustive_goal_knearest(ds, instance, k, p=p, mode=mode)
            kw = dict(p=p, mode=mode, on_inconsistent=on_inconsistent)
            if not want:
                with pytest.raises(NoCounterfactualError):
                    min_cf(ds, instance, **kw)
                with pytest.raises(NoCounterfactualError):
                    goal_knearest(ds, instance, k, **kw)
                continue
            best = min_cf(ds, instance, **kw)
            assert (best.target, best.cost) == (want[0][0], pytest.approx(want[0][1], abs=1e-12))
            got = goal_knearest(ds, instance, k, **kw)
            assert [(r.target, pytest.approx(r.cost, abs=1e-12)) for r in got] == want


def test_chained_ladder_matches_exhaustive_oracle():
    checked = 0
    for seed in range(16):
        made = chained_ladder(seed, 3 + seed % 4)
        if made is None:
            continue
        assert_matches_oracle(*made)
        checked += 1
    assert checked >= 12


@pytest.mark.parametrize("seed", [0, 1])
def test_chained_ladder_knearest_budget(seed):
    ds, start = chained_ladder(seed, 14)
    with budget(2.0, f"goal_knearest(k=20) on a 14-feature chained ladder, seed {seed}"):
        got = goal_knearest(ds, start, 20)
    assert len(got) == 20
    assert [r.cost for r in got] == sorted(r.cost for r in got)


def test_stream_goal_tests_only_consistent_candidates(
    monkeypatch, example1, example2, cars, german, adult
):
    """On acyclic programs every head is derived from its group, so no
    causally inconsistent candidate reaches the goal test, which checks the
    decision rules only.  ``k = 20`` keeps the search going past the first
    goals, so over a thousand candidates are checked."""
    tested = []
    escapes = CompiledRules.escapes

    def counting(self, bits):
        tested.append(self.consistent(bits))
        return escapes(self, bits)

    monkeypatch.setattr(CompiledRules, "escapes", counting)
    cases = [
        (ds, start)
        for full in (example1, example2, cars, german, adult)
        for ds in [consolidate_dataset(full)]
        for start in spread_starts(ds, 4)
    ]
    cases += [made for made in (chained_ladder(seed, 7) for seed in range(4)) if made]
    for ds, start in cases:
        for mode in ("p2c", "all_changes"):
            min_cf(ds, start, mode=mode)
            goal_knearest(ds, start, 20, mode=mode)
    assert len(tested) > 1000
    assert all(tested)


def test_stream_goal_tests_cyclic_candidates_in_full(monkeypatch):
    """On a causal cycle a derived completion can be inconsistent, so each
    is goal-tested against the causal groups as well as the decision rules,
    and the answers still equal the exhaustive oracle."""
    tested = []
    is_goal = CompiledRules.is_goal

    def counting(self, bits):
        tested.append(self.consistent(bits))
        return is_goal(self, bits)

    monkeypatch.setattr(CompiledRules, "is_goal", counting)
    ds = cyclic_dataset()
    assert ds.compiled.cyclic
    for start in (s for s in enumerate_states(ds.config) if ds.decision_positive(s)):
        for mode in ("p2c", "all_changes"):
            tested.clear()
            got = goal_knearest(ds, start, 20, mode=mode, on_inconsistent="allow")
            want = exhaustive_goal_knearest(ds, start, 20, mode=mode)
            assert [(r.target, r.cost) for r in got] == want
            assert tested and not all(tested)


CYCLE_NO_CONSISTENT_STATE = """\
x(X,'a') :- y(X,'b').
x(X,'b') :- y(X,'a').
y(X,'a') :- x(X,'a').
y(X,'b') :- x(X,'b').
"""


def test_cycle_without_consistent_state_has_no_counterfactual():
    ds = make_dataset({"x": ("a", "b"), "y": ("a", "b")}, "label(X,'bad') :- x(X,'a').",
                      CYCLE_NO_CONSISTENT_STATE)
    assert not any(ds.consistent(s) for s in enumerate_states(ds.config))
    start = State(("a", "a"))
    for mode in ("p2c", "all_changes"):
        with pytest.raises(NoCounterfactualError):
            min_cf(ds, start, mode=mode, on_inconsistent="allow")
        with pytest.raises(NoCounterfactualError):
            goal_knearest(ds, start, 3, mode=mode, on_inconsistent="allow")


def test_cycle_with_consistent_goals_matches_exhaustive_oracle():
    ds = cyclic_dataset()
    starts = [s for s in enumerate_states(ds.config) if ds.decision_positive(s)]
    assert any(ds.consistent(s) for s in starts)
    assert any(not ds.consistent(s) for s in starts)
    for start in starts:
        assert_matches_oracle(ds, start, on_inconsistent="allow")


# ---------------------------------------------------------------------------
# Exact goal keys and the (cost, rank) stop
# ---------------------------------------------------------------------------


def assert_reports_exact(ds, start, k, **kw):
    """goal_knearest(k) equals the exhaustive oracle bit for bit, and each
    report's weights are those ``adjust_weights`` gives its target."""
    p = kw.get("p", ds.config.norm_p)
    mode = kw.get("mode", "p2c")
    want = exhaustive_goal_knearest(ds, start, k, p=p, mode=mode)
    got = goal_knearest(ds, start, k, **kw)
    assert [(r.target, repr(r.cost)) for r in got] == [(s, repr(c)) for s, c in want]
    weights = ds.config.weights()
    for r in got:
        adjusted, free = (adjust_weights(ds, start, r.target, weights) if mode == "p2c"
                          else (weights, frozenset()))
        assert (r.adjusted_weights, r.causal_free_features) == (adjusted, free)
    return got


def test_cycle_head_freedom_is_settled_on_the_completed_state():
    """On cyclic_dataset x's group reads y, derived after it, so while x is
    derived its group cannot tell whether it fires.  Whether a change of x is
    free is read off the completed goal: some goals change x and are charged
    for it, others change it for free."""
    ds = cyclic_dataset()
    assert [g.feature for g, decidable in ds.compiled.head_order if not decidable] == ["x"]
    starts = [s for s in enumerate_states(ds.config) if ds.decision_positive(s)]
    charged = freed = 0
    for start in starts:
        for p in (0, 1, 2):
            for mode in ("p2c", "all_changes"):
                got = assert_reports_exact(ds, start, 20, p=p, mode=mode,
                                           on_inconsistent="allow")
                moved = [r for r in got if mode == "p2c" and r.target.values[0] != start.values[0]]
                charged += sum("x" not in r.causal_free_features for r in moved)
                freed += sum("x" in r.causal_free_features for r in moved)
    assert charged and freed


def test_goal_price_is_compute_weighted_lp_bit_for_bit():
    """``goal_price`` against ``compute_weighted_lp`` (``repr``) on every
    causally consistent state, from random_dataset(0..59)'s start, every
    decision-positive start of cyclic_dataset(), tie_dataset(0..19)'s start
    and a space whose sums depend on their order, for p = 0, 1, 2: under
    the reference's p2c weights in ``p2c`` mode, where the freed features
    are the reference's, and under the plain weights in ``all_changes``
    mode; each under the config's weights and under skewed ones.  One
    ``cost_terms`` list, the search's and the planner's, prices every
    state, those outside the plausible box too."""
    cases = [made for made in map(random_dataset, range(60)) if made is not None]
    cyclic = cyclic_dataset()
    cases += [(cyclic, s) for s in enumerate_states(cyclic.config) if cyclic.decision_positive(s)]
    cases += [tie_dataset(seed) for seed in range(20)]
    # three terms whose float sum depends on its order: 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
    spec = lambda name, w: FeatureSpec(name=name, kind="categorical", domain=("a", "b"), weight=w)
    cases.append((make_dataset({n: spec(n, w) for n, w in (("f", 0.1), ("g", 0.2), ("h", 0.3))},
                               "label(X,'bad') :- f(X,'a')."), State(("a", "a", "a"))))
    priced = outside = 0
    for ds, start in cases:
        config, compiled = ds.config, ds.compiled
        index = [spec.index_of(v) for spec, v in zip(config.features, start.values)]
        spans = [_plausible(spec, ci, spec.name in causal_head_features(ds))
                 for spec, ci in zip(config.features, index)]
        skewed = {f.name: f.weight * (1 + 0.1 * i) for i, f in enumerate(config.features)}
        start_bits = compiled.bits(start)
        sources = [(weights, [cost_terms(compiled, start_bits, weights, p) for p in (0, 1, 2)])
                   for weights in (config.weights(), skewed)]
        for state in enumerate_states(config):
            if not ds.consistent(state):
                continue
            bits = compiled.bits(state)
            inside = all(spec.index_of(v) in span
                         for spec, v, span in zip(config.features, state.values, spans))
            outside += not inside
            for weights, terms_by_p in sources:
                adjusted, free = adjust_weights(ds, start, state, weights)
                modes = (("p2c", adjusted, free), ("all_changes", weights, frozenset()))
                for p, terms in enumerate(terms_by_p):
                    for mode, w, want_free in modes:
                        want = repr(compute_weighted_lp(config, start, state, w, p))
                        cost, freed = goal_price(compiled, start_bits, bits, terms, p, mode)
                        assert repr(cost) == want, (config.name, start, state, p, mode)
                        assert {config.features[i].name for i in freed} == want_free
                        priced += 1
    assert outside and priced > 100000


def test_l2_ties_between_different_sums_go_by_rank():
    """Under p = 2, 0.2 + 0.4 and 0.6 are different sums with one square
    root, so (a, b, b) ties (b, a, a) in cost and wins on rank, although its
    sum is larger."""
    ds, start = l2_root_tie()
    assert 0.2 + 0.4 != 0.6 and (0.2 + 0.4) ** 0.5 == 0.6 ** 0.5
    assert min_cf(ds, start).target == State(("a", "b", "b"))
    got = assert_reports_exact(ds, start, 3)
    assert [r.target.values for r in got[:2]] == [("a", "b", "b"), ("b", "a", "a")]


def test_absorbed_l2_term_keeps_the_lower_ranked_goal():
    """Every goal that moves c costs exactly 1.0, so the lowest rank,
    n = 0.0, wins.  After n = 2.0 and n = 1.0, the box left holds n in
    {0.0, 3.0}; its cheapest vector, n = 3.0, ranks above n = 1.0, but
    n = 0.0 in it ranks below."""
    ds, start = absorbed_l2()
    assert 0.0 + (2.0 / 1e9) ** 2 + 1.0 == 1.0
    best = min_cf(ds, start)
    assert (best.target, best.cost) == (State((0.0, "b")), 1.0)
    for k in (1, 2, 4, 8):
        assert_reports_exact(ds, start, k)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_cost_ties_go_by_domain_index(p):
    """Zero-weight features (a cost row of all 0.0, so the lowest index
    wins), numeric values at one distance on both sides of the start, and
    monotone numerics tie many goals in cost: min_cf and goal_knearest order
    them as the exhaustive oracle does, bit for bit, in both modes."""
    ties = 0
    for seed in range(60):
        ds, start = tie_dataset(seed)
        for mode in ("p2c", "all_changes"):
            want = exhaustive_goal_knearest(ds, start, 20, p=p, mode=mode)
            if not want:
                with pytest.raises(NoCounterfactualError):
                    min_cf(ds, start, p=p, mode=mode)
                continue
            for k in (1, 20):
                got = assert_reports_exact(ds, start, k, p=p, mode=mode)
            assert min_cf(ds, start, p=p, mode=mode) == got[0]
            ties += sum(a.cost == b.cost for a, b in zip(got, got[1:]))
    assert ties > 200


def test_deep_ladder_min_cf_stops_at_the_first_optimum(monkeypatch):
    """All 3^6 optima of deep_ladder(12) cost 6; the search stops at the
    first by rank instead of goal-testing each."""
    calls = []
    escapes = CompiledRules.escapes

    def counting(self, bits):
        calls.append(bits)
        return escapes(self, bits)

    monkeypatch.setattr(CompiledRules, "escapes", counting)
    n = 12
    ds, start = deep_ladder(n)
    assert min_cf(ds, start).target.values == ("b",) * 6 + ("a",) * 6
    assert len(calls) <= 2 * n


def test_goal_knearest_builds_a_report_per_answer(monkeypatch, german):
    """Only the k goals returned become a CostReport, however many goals the
    search meets on the way."""
    import p2c.search

    built = []

    class Counting(CostReport):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(p2c.search, "CostReport", Counting)
    ds = consolidate_dataset(german)
    for start in spread_starts(ds, 3):
        goals = len(exhaustive_goal_knearest(ds, start, 10**9))
        for k in (1, 5, 20, goals + 1):
            built.clear()
            got = goal_knearest(ds, start, k, on_inconsistent="allow")
            assert len(built) == len(got) == min(k, goals)


# ---------------------------------------------------------------------------
# Best-first over boxes: the cuts
# ---------------------------------------------------------------------------


def test_deep_ladder_matches_exhaustive_oracle():
    for n in range(2, 9):
        ds, start = deep_ladder(n)
        want = exhaustive_goal_knearest(ds, start, 5, p=1)
        assert want[0][1] == n // 2
        assert [(r.target, r.cost) for r in goal_knearest(ds, start, 5, p=1)] == want
        if n <= 6:
            assert_matches_oracle(ds, start)


def test_deep_ladder_min_cf_budget():
    ds, start = deep_ladder(12)
    ds.compiled  # compile outside the budget, as a loaded dataset's first query would
    with budget(0.5, "min_cf on the 12-feature deep ladder"):
        best = min_cf(ds, start)
    assert best.cost == 6.0
    assert best.target.values == ("b",) * 6 + ("a",) * 6


def test_deep_ladder_goal_tests_stay_few(monkeypatch):
    """A fired rule cuts away its whole box, so the search goal-tests about
    the 3^5 cheapest goals at n = 10, not every vector cheaper than them."""
    calls = []
    escapes = CompiledRules.escapes

    def counting(self, bits):
        calls.append(bits)
        return escapes(self, bits)

    monkeypatch.setattr(CompiledRules, "escapes", counting)
    ds, start = deep_ladder(10)
    assert min_cf(ds, start).cost == 5.0
    assert len(calls) < 1000


def _decision_reads(ds, b):
    """Whether a decision rule that rejecting box b comes from calls an
    exception predicate, and whether one tests a causal head.  Box b comes
    from its own rule when the rules name the undesired label, and from
    every rule when they name the favourable one, as it is part of their
    complement."""
    rules = ds.decision.rules
    if not names_favourable_label(ds):
        owners = [r for r, boxes in enumerate(decision_rule_boxes(ds)) for _ in boxes]
        rules = [rules[owners[b]]]
    body = [lit for rule in rules for lit in rule.body]
    return (
        any(lit.kind in ("aux_call", "negated_aux_call") for lit in body),
        any(lit.predicate in causal_head_features(ds) for lit in body),
    )


CUT_CASES = {
    # cuts are taken on the complement's boxes, as on any rejecting box
    "favourable_label": lambda ds, cuts: names_favourable_label(ds),
    "exception_calls": lambda ds, cuts: any(_decision_reads(ds, b)[0] for b in cuts if b >= 0),
    "causal_heads": lambda ds, cuts: any(_decision_reads(ds, b)[1] for b in cuts if b >= 0),
}


@pytest.fixture(scope="module")
def cut_programs():
    """``rich_dataset(0..299)`` with every decision-positive start, skipping
    programs that do not compile (two causal alternatives fire together),
    and ``random_dataset(0..299)`` with its start."""
    out = []
    for ds in map(rich_dataset, range(300)):
        try:
            ds.compiled
        except CausalProgramError:
            continue
        out.append((ds, [s for s in enumerate_states(ds.config) if ds.decision_positive(s)]))
    out += [(made[0], [made[1]]) for made in map(random_dataset, range(300)) if made]
    return out


@pytest.mark.parametrize("case", sorted(CUT_CASES))
def test_box_cuts_match_exhaustive_oracle(monkeypatch, cut_programs, case):
    """Random programs with exception calls, causal heads the decision
    reads, and favourable or rejecting labels: from up to three starts per
    program whose search takes a cut of this case, min_cf and goal_knearest
    equal the exhaustive oracle."""
    cuts = []
    common_body = CompiledRules.common_body

    def recording(self, states):
        b = common_body(self, states)
        cuts.append(b)
        return b

    monkeypatch.setattr(CompiledRules, "common_body", recording)
    checked = 0
    for ds, starts in cut_programs:
        taken = 0
        for start in starts:
            if taken == 3:
                break
            cuts.clear()
            try:
                goal_knearest(ds, start, 5, on_inconsistent="allow")
            except NoCounterfactualError:
                pass
            if not CUT_CASES[case](ds, cuts):
                continue
            assert_matches_oracle(ds, start, on_inconsistent="allow")
            taken += 1
            checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# Cost rows: built once per (value, weight, p) on the compiled program
# ---------------------------------------------------------------------------


def _positive_starts(ds, n: int) -> list[State]:
    """Up to ``n`` decision-positive states, spread over enumeration order."""
    starts = [s for s in enumerate_states(ds.config) if ds.decision_positive(s)]
    return starts[::max(1, len(starts) // n)][:n]


def _weight_sets(config) -> list[dict]:
    """The config's weights, skewed ones, and the config's with a zero on
    its first feature."""
    plain = config.weights()
    skewed = {f.name: f.weight * (1 + 0.1 * i) + 0.25 * (i % 2) for i, f in
              enumerate(config.features)}
    return [plain, skewed, {**plain, config.features[0].name: 0.0}]


def _answers(ds, start, weights, p) -> list:
    """``min_cf`` and ``goal_knearest(k=5, 20)`` in both modes, as (target,
    cost, causal-free features), or the error raised."""
    out = []
    for mode in MODES:
        for k in (None, 5, 20):
            try:
                got = ([min_cf(ds, start, weights=weights, p=p, mode=mode,
                               on_inconsistent="allow")] if k is None else
                       goal_knearest(ds, start, k, weights=weights, p=p, mode=mode,
                                     on_inconsistent="allow"))
            except (AlreadyCounterfactualError, NoCounterfactualError) as exc:
                out.append(type(exc).__name__)
                continue
            out.append([(r.target, r.cost, r.causal_free_features) for r in got])
    return out


def _counting_lp_term(monkeypatch) -> list[int]:
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return lp_term(*args)

    monkeypatch.setattr(p2c.search, "lp_term", counted)
    return calls


def _mixed(ds, start: State) -> tuple[State, State] | None:
    """``other``, ``start`` with two features moved, and ``mixed``, ``start``
    with the first of them moved: every value of ``mixed`` is one of theirs."""
    movable = [i for i, spec in enumerate(ds.config.features) if len(spec.domain) > 1]
    if len(movable) < 2:
        return None
    values = list(start.values)
    for i in movable[:2]:
        domain = ds.config.features[i].domain
        values[i] = domain[(domain.index(values[i]) + 1) % len(domain)]
    other = State(tuple(values))
    return other, start.replace_value(movable[0], values[movable[0]])


def test_cost_rows_are_exact_and_shared(monkeypatch, example1, example2, cars, german, adult):
    """On random_dataset(0..59), tie_dataset(0..19) and the five bundles,
    at p = 0, 1 and 2, under the config's weights, skewed ones and a zero
    weight: every ``cost_terms`` entry is ``lp_term`` on its bit (``repr``),
    each row's order is its plausible bits sorted by term, and its options
    (a head's only) and floor are those bits' rank parts.  A fresh dataset's first search
    prices each domain value once; a start whose every (value, weight, p)
    has a row prices none, and neither do weights ``1`` after ``1.0``, which
    answer alike."""
    cases = [made for made in map(random_dataset, range(60)) if made]
    cases += [tie_dataset(seed) for seed in range(20)]
    cases += [(ds, _positive_starts(ds, 1)[0]) for ds in (example1, example2, cars, german, adult)]
    calls = _counting_lp_term(monkeypatch)
    shared = 0
    for ds, start in cases:
        ds = replace(ds)  # rows of its own
        config, compiled = ds.config, ds.compiled
        parts, heads = compiled.rank_parts, causal_head_features(ds)
        bits = compiled.bits(start)
        for weights in _weight_sets(config):
            for p in (0, 1, 2):
                calls[0] = 0
                terms = cost_terms(compiled, bits, weights, p)
                for spec, off, cur in zip(config.features, compiled.offsets, start.values):
                    for j, v in enumerate(spec.domain):
                        want = lp_term(spec, weights[spec.name], cur, v, p)
                        assert repr(terms[off + j]) == repr(want), (config.name, spec.name, p)
                assert calls[0] <= len(terms)  # rows shared with earlier weights are not rebuilt
                calls[0] = 0
                rows = cost_rows(compiled, bits, weights, p)
                assert calls[0] == 0
                for spec, off, cur, row in zip(config.features, compiled.offsets,
                                               start.values, rows):
                    span = _plausible(spec, spec.index_of(cur), spec.name in heads)
                    order = sorted(range(off + span.start, off + span.stop),
                                   key=terms.__getitem__)
                    assert row.order == tuple(1 << b for b in order)
                    want = tuple((1 << b, parts[b]) for b in order) if spec.name in heads else ()
                    assert row.options == want
                    assert row.plausible == sum(1 << b for b in order)
                    assert row.floor == parts[min(order)]
        # a first search on a fresh copy prices every domain value once
        fresh = replace(ds)
        calls[0] = 0
        ones = _answers(fresh, start, {f.name: 1.0 for f in config.features}, 1)
        assert calls[0] == len(terms)
        assert _answers(fresh, start, {f.name: 1 for f in config.features}, 1) == ones
        if ones[0] != "NoCounterfactualError":  # a plan toward s* reads the same rows
            try:
                find_path(fresh, start, ones[0][0][0], p=1, on_inconsistent="repair",
                          weights={f.name: 1 for f in config.features})
            except SearchExhaustedError:
                pass
        assert calls[0] == len(terms)
        made = _mixed(ds, start)
        if made is not None:
            other, mixed = made
            weights = config.weights()
            for p in (0, 1, 2):
                cost_rows(compiled, compiled.bits(other), weights, p)
                calls[0] = 0
                cost_rows(compiled, compiled.bits(mixed), weights, p)
                _answers(ds, mixed, weights, p)
                assert calls[0] == 0, (config.name, mixed, p)
                shared += mixed not in (start, other)
    assert shared > 200


def _warm_cases(example1, example2, cars, german, adult) -> list[tuple]:
    """(dataset, starts): random_dataset(0..59), tie_dataset(0..19),
    cyclic_dataset(), the favourable-label rich_dataset(0..299) programs
    that compile, and each bundle consolidated for three decision-positive
    starts of its full space."""
    cases = [(made[0], [made[1]]) for made in map(random_dataset, range(60)) if made]
    cases += [(ds, [start]) for ds, start in map(tie_dataset, range(20))]
    cyclic = cyclic_dataset()
    cases.append((cyclic, _positive_starts(cyclic, 3)))
    for ds in map(rich_dataset, range(300)):
        if ds is None or not names_favourable_label(ds):
            continue
        try:
            ds.compiled
        except CausalProgramError:
            continue
        if starts := _positive_starts(ds, 2):
            cases.append((ds, starts))
    for full in (example1, example2, cars, german, adult):
        for start in _positive_starts(full, 3):
            raw = full.config.state_dict(start)
            reduced = consolidate_dataset(full, raw)
            cases.append((reduced, [validate_state(reduced.config, raw)]))
    return cases


def test_warmed_dataset_answers_like_a_fresh_one(example1, example2, cars, german, adult):
    """A dataset already queried with other starts, weights and p gives the
    same ``min_cf`` and ``goal_knearest(k=5, 20)`` answers, in both modes,
    as a freshly built copy; a ``weights`` dict edited between two calls
    gets the second weights' answers."""
    cases = _warm_cases(example1, example2, cars, german, adult)
    assert sum(names_favourable_label(ds) for ds, _ in cases) >= 20
    compared = moved = 0
    for ds, starts in cases:
        queries = [(start, weights, p) for start in starts
                   for weights in _weight_sets(ds.config)[:2] for p in (0, 1, 2)]
        warm = replace(ds)
        for start, weights, p in reversed(queries):
            _answers(warm, start, weights, p)
        for start, weights, p in queries:
            assert _answers(warm, start, weights, p) == _answers(replace(ds), start, weights, p)
            compared += 1
        start = starts[0]
        weights = ds.config.weights()
        before = _answers(warm, start, weights, 1)
        for name in weights:
            weights[name] = weights[name] * 3 + 1 if name < "m" else weights[name] / 4
        after = _answers(warm, start, weights, 1)
        assert after == _answers(replace(ds), start, dict(weights), 1)
        moved += after != before
    assert compared > 1000 and moved > 10


PLAUSIBILITY = (
    {}, {"mutable": False}, {"directly_actionable": False},
    {"monotone": "nondecreasing"}, {"monotone": "nonincreasing"},
)


def test_favourable_programs_with_plausibility_flags_match_exhaustive_oracle():
    """A favourable-label search starts from the plausible box and cuts the
    complement's boxes, as a rejecting one does.  On the favourable-label
    rich_dataset(0..299) programs, with immutable, non-actionable and
    monotone features drawn in, min_cf and goal_knearest equal the
    exhaustive oracle from two decision-positive starts each."""
    rng = random.Random(21)
    checked = 0
    for made in map(rich_dataset, range(300)):
        if made is None or not names_favourable_label(made):
            continue
        features = tuple(replace(spec, **rng.choice(PLAUSIBILITY))
                         for spec in made.config.features)
        try:
            ds = build_dataset(replace(made.config, features=features), made.decision,
                               made.causal)
            ds.compiled
        except CausalProgramError:
            continue
        for start in _positive_starts(ds, 2):
            assert_matches_oracle(ds, start, on_inconsistent="allow")
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("r", [1, 2])
def test_fav_stress_matches_exhaustive_oracle(r):
    """On ``fav_stress(r)``, whose rejecting boxes are the complement of r
    favourable rules, min_cf and goal_knearest(k=5) equal the exhaustive
    oracle in both modes for p in {0, 1, 2}, at its start and at two
    seeded starts on which no rule fires."""
    ds, start = fav_stress(r)
    assert len(ds.compiled.decision) == 4 ** r
    rng = random.Random(r)
    starts = [start]
    while len(starts) < 3:
        drawn = State(tuple(rng.choice(spec.domain) for spec in ds.config.features))
        if ds.decision_positive(drawn):
            starts.append(drawn)
    for start in starts:
        assert_matches_oracle(ds, start)


def test_fav_stress_compiles_and_answers_fast():
    """The complement of r favourable rules on disjoint blocks has 4^r
    boxes, within ``MAX_REJECTING_BOXES`` up to r = 8.  For r = 5, 6 and 7,
    min_cf costs what the cheapest rule to make fire costs: the weights of
    its literals the start fails, summed in feature order.  At r = 7 a fresh
    dataset's compile and first min_cf take under 1 s (the fastest of
    three)."""
    seconds = []
    for r in (5, 6, 7, 7, 7):
        ds, start = fav_stress(r)
        began = time.perf_counter()
        best = min_cf(ds, start)
        seconds.append(time.perf_counter() - began)
        assert len(ds.compiled.decision) == 4 ** r
        values = ds.config.state_dict(start)
        costs = []
        for rule in ds.decision.rules:
            total = 0.0
            for lit in rule.body:
                holds = values[lit.predicate] == lit.value
                if holds == (lit.kind == "negated_feature_test"):
                    total += ds.config.feature(lit.predicate).weight
            costs.append(total)
        assert best.cost == min(costs)
        assert not ds.decision_positive(best.target)
    assert min(seconds[2:]) < 1.0
