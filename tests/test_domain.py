from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_dataset
from oracles import causal_groups, consolidate_placeholders
from p2c.dataset import build_dataset, consolidate_dataset, consolidated_size, load_dataset
from p2c.domain import (
    DatasetConfig,
    FeatureSpec,
    build_numeric_domain,
    enumerate_states,
    expand_placeholders,
    ingest_csv,
    search_space_size,
    validate_state,
)
from p2c.errors import ConfigError, P2CError, StateValidationError
from p2c.planner import find_path, path_is_legal
from p2c.rules import Atom, BodyLiteral, Rule, RuleProgram, mentioned_values, parse_rule_program
from p2c.search import goal_knearest, min_cf


# ---------------------------------------------------------------------------
# FeatureSpec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["weight", "numeric_range", "step"])
def test_feature_numbers_must_be_finite(field, bad):
    """A weight, range bound or step that is not finite is refused, naming
    the feature, rather than priced as NaN or as an infinitely wide range."""
    good = dict(name="balance", kind="numeric", domain=(0.0, 5.0), weight=1.0,
                numeric_range=(0.0, 10.0), step=1.0)
    FeatureSpec(**good)
    value = (0.0, bad) if field == "numeric_range" else bad
    with pytest.raises(ConfigError, match=f"feature 'balance': {field} must be finite"):
        FeatureSpec(**{**good, field: value})


# ---------------------------------------------------------------------------
# validate_state
# ---------------------------------------------------------------------------


def test_validate_state_john(example1):
    raw = {"age": 31, "debt": 5000, "loan_duration": 12,
           "bank_balance": 40000, "credit_score": 599}
    state = validate_state(example1.config, raw)
    assert state.values == (31.0, 5000.0, 12.0, 40000.0, 599.0)


def test_validate_state_missing_feature(example1):
    with pytest.raises(StateValidationError, match="missing feature.*debt"):
        validate_state(example1.config, {"age": 31, "loan_duration": 12,
                                         "bank_balance": 40000, "credit_score": 599})


def test_validate_state_out_of_range(example1):
    raw = {"age": 31, "debt": 5000, "loan_duration": 12,
           "bank_balance": 2e9, "credit_score": 599}
    with pytest.raises(StateValidationError, match="outside range"):
        validate_state(example1.config, raw)


def test_validate_state_unknown_categorical(cars):
    raw = {"buying": "vhigh", "maint": "vhigh", "doors": "2", "persons": "2",
           "lug_boot": "tiny", "safety": "low"}
    with pytest.raises(StateValidationError, match="lug_boot.*tiny"):
        validate_state(cars.config, raw)


def test_numeric_snapping(example1):
    # 50000 sits in the (40000, 59999] interval, represented by 59999
    raw = {"age": 31, "debt": 5000, "loan_duration": 12,
           "bank_balance": 50000, "credit_score": 599}
    state = validate_state(example1.config, raw)
    assert state.values[3] == 59999.0
    # 7e8 sits above every breakpoint
    raw["bank_balance"] = 7e8
    assert validate_state(example1.config, raw).values[3] == 60000.0


def test_build_numeric_domain_right_endpoints():
    assert build_numeric_domain(300, 850, 1.0, [599, 619, 620]) == (599, 619, 620, 621)
    assert build_numeric_domain(0, 10, 1.0, []) == (0,)
    assert build_numeric_domain(0, 10, 1.0, [10]) == (10,)
    assert build_numeric_domain(0, 10, 0.5, [9.8]) == (9.8, 10)


# ---------------------------------------------------------------------------
# enumeration and sizing
# ---------------------------------------------------------------------------


def test_enumerate_two_features_order():
    ds = make_dataset({"f": ("a", "b"), "g": ("0", "1")}, "label(X,'bad') :- f(X,'a').")
    states = [s.values for s in enumerate_states(ds.config)]
    assert states == [("a", "0"), ("a", "1"), ("b", "0"), ("b", "1")]


def test_cars_space_is_1728(cars):
    assert search_space_size(cars.config) == 1728
    assert sum(1 for _ in enumerate_states(cars.config)) == 1728


def test_single_value_space():
    ds = make_dataset({"f": ("only",)}, "")
    assert search_space_size(ds.config) == 1


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
def test_enumeration_count_matches_product(sizes):
    feats = {f"f{i}": tuple(f"v{j}" for j in range(n)) for i, n in enumerate(sizes)}
    ds = make_dataset(feats, "")
    seen = set()
    count = 0
    for s in enumerate_states(ds.config):
        seen.add(s)
        count += 1
    assert count == math.prod(sizes) == search_space_size(ds.config)
    assert len(seen) == count  # no duplicates


# ---------------------------------------------------------------------------
# consolidation
# ---------------------------------------------------------------------------


def test_consolidate_marital_example():
    ds = make_dataset(
        {"marital_status": ("married", "unmarried", "separated")},
        "label(X,'bad') :- not marital_status(X,'married').",
        instance_defaults={"marital_status": "married"},
    )
    out = consolidate_dataset(ds).config
    spec = out.feature("marital_status")
    assert spec.domain == ("married", "ph_marital_status")
    assert spec.merged["ph_marital_status"] == ("unmarried", "separated")
    assert search_space_size(out) == 2


def test_consolidate_fully_mentioned_unchanged():
    ds = make_dataset(
        {"f": ("a", "b")},
        "label(X,'bad') :- f(X,'a').\nab1(X,'True') :- f(X,'b').",
    )
    out = consolidate_dataset(ds).config
    assert out.feature("f").domain == ("a", "b")


def test_consolidate_idempotent(german):
    once = consolidate_dataset(german)
    twice = consolidate_dataset(once)
    assert once.config == twice.config
    assert any(f.merged for f in once.config.features)


def test_consolidate_german_smaller_and_cost_preserved(german):
    instance = german.default_instance()
    reduced = consolidate_dataset(german)
    assert search_space_size(reduced.config) < search_space_size(german.config)
    r_full = min_cf(german, instance)
    r_red = min_cf(reduced, validate_state(reduced.config, german.config.instance_defaults))
    assert r_full.cost == pytest.approx(r_red.cost, abs=1e-12)


def test_consolidation_soundness_cars_exhaustive(cars):
    """Every consolidated state decides and checks exactly like each of the
    raw states obtained by expanding its placeholders."""
    reduced = consolidate_dataset(cars)
    assert search_space_size(reduced.config) < 1728
    for state in enumerate_states(reduced.config):
        expansions = []
        per_feature = []
        for spec, v in zip(reduced.config.features, state.values):
            per_feature.append(spec.merged.get(v, (v,)))
        for combo in itertools.product(*per_feature):
            raw = {f.name: val for f, val in zip(reduced.config.features, combo)}
            expansions.append(validate_state(cars.config, raw))
        verdicts = {cars.decision_positive(e) for e in expansions}
        consistencies = {cars.consistent(e) for e in expansions}
        assert verdicts == {reduced.decision_positive(state)}
        assert consistencies == {reduced.consistent(state)}


def test_consolidation_strictly_smaller_all_three(adult, german, cars):
    for ds in (adult, german, cars):
        reduced = consolidate_dataset(ds)
        assert search_space_size(reduced.config) < search_space_size(ds.config)


def test_expand_placeholders_round_trip(german):
    reduced = consolidate_dataset(german)
    state = next(iter(enumerate_states(reduced.config)))
    raw = expand_placeholders(reduced.config, state)
    back = validate_state(reduced.config, raw)
    assert back == state


def _partition(ds, raw) -> tuple:
    """Per categorical feature, ``raw``'s value when neither program
    mentions it, else None."""
    key = []
    for spec in ds.config.features:
        if spec.kind == "categorical":
            mentioned = mentioned_values(ds.decision, spec.name) | mentioned_values(
                ds.causal, spec.name)
            v = str(raw[spec.name])
            key.append(v if v in spec.domain and v not in mentioned else None)
    return tuple(key)


def _answers(ds, raw) -> tuple:
    """min_cf, goal_knearest(k=20) in both modes, and find_path toward s*
    with its legality, at ``raw``; an error raised is the answer."""
    start = validate_state(ds.config, raw)
    out = []
    try:
        best = min_cf(ds, start, on_inconsistent="allow")
        out.append((best.target, repr(best.cost), best.causal_free_features))
        for mode in ("p2c", "all_changes"):
            near = goal_knearest(ds, start, 20, mode=mode, on_inconsistent="allow")
            out.append([(r.target, repr(r.cost), r.causal_free_features) for r in near])
        plan = find_path(ds, start, best.target, on_inconsistent="repair")
        out.append([(step.state, step.actions) for step in plan.steps])
        out.append(path_is_legal(ds, plan))
    except P2CError as exc:
        out.append((type(exc).__name__, str(exc)))
    return start, tuple(out)


@pytest.mark.parametrize("bundle", ["example1", "example2", "cars", "german", "adult"])
def test_consolidate_dataset_keeps_one_dataset_per_partition(data_dir, bundle):
    """Instances in one placeholder partition share one reduced dataset and
    different partitions get different ones; each is the space a fresh
    consolidation of the instance builds, and answers every search and plan
    as that space does."""
    full = load_dataset(data_dir / bundle)
    programs = (full.decision, full.causal)
    default_space = consolidate_dataset(full)
    by_partition = {_partition(full, full.config.instance_defaults): default_space}
    raws = []
    for space in (full, default_space):
        positive = [s for s in enumerate_states(space.config) if space.decision_positive(s)]
        raws += [expand_placeholders(space.config, s)
                 for s in positive[:: max(1, len(positive) // 24)]]
    for raw in raws:
        reduced = consolidate_dataset(full, raw)
        assert consolidated_size(full, raw) == search_space_size(reduced.config)
        key = _partition(full, raw)
        assert by_partition.setdefault(key, reduced) is reduced
        assert reduced.config.instance_defaults == full.config.instance_defaults
        fresh_config = consolidate_placeholders(replace(full.config, instance_defaults=raw),
                                                programs)
        fresh = build_dataset(fresh_config, *programs, digest=full.digest)
        assert [(f.domain, dict(f.merged)) for f in reduced.config.features] == [
            (f.domain, dict(f.merged)) for f in fresh.config.features]
        assert (causal_groups(reduced), reduced.warnings, reduced.digest) == (
            causal_groups(fresh), fresh.warnings, fresh.digest)
        assert _answers(reduced, raw) == _answers(fresh, raw)
    reduced_ids = {id(ds) for ds in by_partition.values()}
    assert len(reduced_ids) == len(by_partition) == len(full.consolidated)
    if full.unmentioned:  # the bundles with categorical features meet both cases
        assert 1 < len(by_partition) < len(raws)


def test_consolidate_dataset_still_validates_the_instance(data_dir):
    """The reduced dataset is kept per partition, but every instance is
    still resolved in it: a missing feature, an unknown value or a
    placeholder's name raises."""
    cars = load_dataset(data_dir / "cars")
    raw = cars.config.instance_defaults
    reduced = consolidate_dataset(cars, raw)
    with pytest.raises(StateValidationError, match="missing feature.*safety"):
        consolidate_dataset(cars, {k: v for k, v in raw.items() if k != "safety"})
    with pytest.raises(StateValidationError, match="unknown categorical value 'vvhigh'"):
        consolidate_dataset(cars, {**raw, "buying": "vvhigh"})
    assert "ph_maint" in reduced.config.feature("maint").domain
    for space in (cars, reduced):
        with pytest.raises(StateValidationError, match="unknown categorical value 'ph_maint'"):
            consolidate_dataset(space, {**raw, "maint": "ph_maint"})
    assert consolidate_dataset(cars, raw) is reduced


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_ingest_car_csv(cars, data_dir):
    result = ingest_csv(cars.config, data_dir / "cars" / "car.csv")
    assert len(result.states) == 1728
    assert len(result.labels) == 1728
    assert result.errors == ()
    assert set(result.labels) == {"unacc", "acc", "good", "vgood"}


def test_ingest_header_only(tmp_path, cars):
    path = tmp_path / "empty.csv"
    path.write_text("buying,maint,doors,persons,lug_boot,safety,label\n")
    result = ingest_csv(cars.config, path)
    assert result.states == ()


def test_ingest_bad_row_names_row_and_feature(tmp_path, cars):
    path = tmp_path / "bad.csv"
    path.write_text(
        "buying,maint,doors,persons,lug_boot,safety,label\n"
        "vhigh,vhigh,2,2,small,low,unacc\n"
        "vhigh,vhigh,2,2,small,bogus,unacc\n"
    )
    with pytest.raises(StateValidationError, match="row 3.*safety"):
        ingest_csv(cars.config, path)
    collected = ingest_csv(cars.config, path, on_error="collect")
    assert len(collected.states) == 1
    assert len(collected.errors) == 1 and "row 3" in collected.errors[0]


def test_ingest_missing_column(tmp_path, cars):
    path = tmp_path / "short.csv"
    path.write_text("buying,maint\nvhigh,vhigh\n")
    with pytest.raises(StateValidationError, match="missing feature column"):
        ingest_csv(cars.config, path)


@pytest.mark.parametrize("on_error", ["raise", "collect"])
def test_ingest_missing_label_column_names_file_and_column(tmp_path, cars, data_dir, on_error):
    """A label column the header lacks, named by the argument or by the
    config, is refused before any row is read, naming the file and the
    column, whatever ``on_error`` says."""
    path = data_dir / "cars" / "car.csv"
    with pytest.raises(StateValidationError) as excinfo:
        ingest_csv(cars.config, path, label_column="nope", on_error=on_error)
    assert str(excinfo.value) == f"{path}: header is missing label column 'nope'"
    path = tmp_path / "unlabelled.csv"
    path.write_text("buying,maint,doors,persons,lug_boot,safety\nvhigh,vhigh,2,2,small,low\n")
    assert cars.config.label_column == "label"
    with pytest.raises(StateValidationError) as excinfo:
        ingest_csv(cars.config, path, on_error=on_error)
    assert str(excinfo.value) == f"{path}: header is missing label column 'label'"


def test_ingest_raw_values_resolve_into_consolidated_space(german, tmp_path):
    """Raw rows keep loading after consolidation: merged values map to the
    placeholder."""
    reduced = consolidate_dataset(german)
    spec = reduced.config.feature("credit_history")
    ph = [v for v in spec.domain if str(v).startswith("ph_")]
    assert ph, "expected a placeholder after consolidating credit_history"
    raw = dict(german.config.instance_defaults)
    raw["credit_history"] = "no_credits_taken"  # merged raw value
    state = validate_state(reduced.config, raw)
    assert state.values[reduced.config.feature_index("credit_history")] == ph[0]


# ---------------------------------------------------------------------------
# causal heads, checked when a dataset is built
# ---------------------------------------------------------------------------

HEAD_CHECK_CONFIG = DatasetConfig(
    name="heads",
    features=(
        FeatureSpec(name="c", kind="categorical", domain=("a", "b")),
        FeatureSpec(name="n", kind="numeric", domain=(0.0, 10.0), numeric_range=(0.0, 10.0),
                    step=10.0),
    ),
    undesired_decision="bad",
)
HEAD_CHECK_DECISION = parse_rule_program("label(X,'bad') :- c(X,'a').", "decision")


def _causal(head: Atom, *body: BodyLiteral) -> RuleProgram:
    return RuleProgram((Rule(head, body),), "causal")


@pytest.mark.parametrize("causal, message", [
    (HEAD_CHECK_DECISION, "expected a causal program"),
    (_causal(Atom("zz", "a"), BodyLiteral("feature_test", "c", "a")),
     "causal head 'zz' is not a feature"),
    (_causal(Atom("n", "high"), BodyLiteral("feature_test", "c", "a")),
     "causal head for numeric feature 'n' must be numeric"),
    (_causal(Atom("n", 20.0), BodyLiteral("feature_test", "c", "a")),
     "causal head value 20.0 outside 'n' range"),
    (_causal(Atom("c", "zzz"), BodyLiteral("numeric_binding", "n", variable="N"),
             BodyLiteral("comparison", variable="N", bound=5.0)),
     "causal head value 'zzz' is not in the domain of 'c'"),
    (_causal(Atom("c", "a"), BodyLiteral("feature_test", "c", "b")),
     "causal rule for 'c' reads its own feature"),
    # a body that reads no feature is refused before the head is looked at
    (_causal(Atom("zz", "a"), BodyLiteral("feature_test", "q", "a")),
     "causal rules reference 'q', which is not a feature"),
], ids=["not_causal", "head_not_feature", "numeric_head_not_number", "numeric_head_outside_range",
        "head_value_not_in_domain", "reads_own_head", "body_checked_first"])
def test_bad_causal_head_is_refused_at_build(causal, message):
    with pytest.raises(ConfigError) as excinfo:
        build_dataset(HEAD_CHECK_CONFIG, HEAD_CHECK_DECISION, causal)
    assert str(excinfo.value) == message


def test_bad_causal_head_at_load_names_the_config(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "name": "heads",
        "undesired_decision": "bad",
        "features": [{"name": "c", "domain": ["a", "b"]}, {"name": "d", "domain": ["x", "y"]}],
    }))
    (tmp_path / "decision.rules").write_text("label(X,'bad') :- c(X,'a').\n")
    (tmp_path / "causal.rules").write_text("c(X,'zzz') :- d(X,'x').\n")
    with pytest.raises(ConfigError) as excinfo:
        load_dataset(tmp_path)
    message = "causal head value 'zzz' is not in the domain of 'c'"
    assert str(excinfo.value) == f"{config_path}: {message}"
