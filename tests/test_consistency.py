from __future__ import annotations

import pytest

from conftest import compiled_groups, make_dataset
from oracles import interpreted_entailment
from p2c.domain import enumerate_states, validate_state
from p2c.errors import CausalProgramError


# ---------------------------------------------------------------------------
# entailments
# ---------------------------------------------------------------------------


def test_entailment_zero_debt_compels_score(example2):
    state = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 40000, "credit_score": 620,
    })
    ent = compiled_groups(example2, state)["credit_score"]
    assert ent.required == 620.0
    assert ent.provenance


def test_entailment_nonzero_debt_excludes_but_does_not_require(example2):
    john = example2.default_instance()
    ent = compiled_groups(example2, john)["credit_score"]
    assert ent.required is None
    # completion: a non-fired alternative excludes its head value
    assert ent.excluded == (620.0,)


def test_entailment_adult_husband(adult):
    state = validate_state(adult.config, {
        "age": 40, "sex": "Male", "relationship": "Husband",
        "marital_status": "Married-civ-spouse", "education_num": 9, "capital_gain": 0,
    })
    ents = compiled_groups(adult, state)
    assert ents["marital_status"].required == "Married-civ-spouse"
    assert ents["relationship"].required == "Husband"


def test_two_firing_alternatives_is_a_program_error():
    ds = make_dataset(
        {"f": ("a", "b"), "g": ("x", "y"), "h": ("p", "q")},
        "label(X,'bad') :- f(X,'a').",
        # both alternatives fire whenever g=x and h=p
        "f(X,'a') :- g(X,'x').\nf(X,'b') :- h(X,'p').",
    )
    state = validate_state(ds.config, {"f": "a", "g": "x", "h": "p"})
    with pytest.raises(CausalProgramError, match="two alternatives.*'f'"):
        compiled_groups(ds, state)
    # same head value through two rules is not a conflict
    ds2 = make_dataset(
        {"f": ("a", "b"), "g": ("x", "y"), "h": ("p", "q")},
        "label(X,'bad') :- f(X,'a').",
        "f(X,'a') :- g(X,'x').\nf(X,'a') :- h(X,'p').",
    )
    state2 = validate_state(ds2.config, {"f": "a", "g": "x", "h": "p"})
    assert compiled_groups(ds2, state2)["f"].required == "a"


def test_self_referential_causal_rule_rejected():
    from p2c.errors import RuleProgramError

    with pytest.raises(RuleProgramError, match="own head"):
        make_dataset(
            {"f": ("a", "b"), "g": ("x", "y")},
            "label(X,'bad') :- g(X,'x').",
            "f(X,'a') :- not f(X,'b'), g(X,'x').",
        )


# ---------------------------------------------------------------------------
# causal consistency
# ---------------------------------------------------------------------------


def test_def2_example_states(example2):
    s1 = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 40000, "credit_score": 620,
    })
    s2 = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 40000, "credit_score": 400,
    })
    assert example2.consistent(s1) is True
    assert example2.consistent(s2) is False


def test_empty_causal_program_everything_consistent(cars):
    assert all(cars.consistent(s) for s in enumerate_states(cars.config))


def test_initial_john_consistent(example2):
    assert example2.consistent(example2.default_instance()) is True


def test_directional_satisfaction(example2):
    # debt 0 requires score >= 620: 621 satisfies, 619 does not
    for score, ok in ((620, True), (621, True), (619, False), (599, False)):
        s = validate_state(example2.config, {
            "age": 31, "debt": 0, "loan_duration": 12,
            "bank_balance": 40000, "credit_score": score,
        })
        assert example2.consistent(s) is ok
    # debt > 0 excludes score >= 620 under completion
    for score, ok in ((599, True), (619, True), (620, False), (621, False)):
        s = validate_state(example2.config, {
            "age": 31, "debt": 5000, "loan_duration": 12,
            "bank_balance": 40000, "credit_score": score,
        })
        assert example2.consistent(s) is ok


# ---------------------------------------------------------------------------
# goal membership
# ---------------------------------------------------------------------------


def test_example2_goal_state(example2):
    goal = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 60000, "credit_score": 620,
    })
    assert example2.is_goal(goal) is True


def test_example2_initial_not_goal(example2):
    assert example2.is_goal(example2.default_instance()) is False


def test_consistent_but_rejected_not_goal(example2):
    state = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 40000, "credit_score": 620,
    })
    assert example2.consistent(state) is True
    assert example2.is_goal(state) is False  # balance rule still fires


def test_polarity_german_goal_means_good_rule_fires(german):
    good = validate_state(german.config, {
        "checking_account_status": "no_checking_account",
        "credit_history": "critical_account",
        "property": "real_estate",
        "duration_months": 36,
        "credit_amount": 1000,
        "present_employment_since": "employed",
        "job": "skilled_employee",
    })
    assert german.decision_positive(good) is False
    assert german.is_goal(good) is True
    bad = german.default_instance()
    assert german.decision_positive(bad) is True
    assert german.is_goal(bad) is False


def test_goal_characterisation_exhaustive(example2, german):
    """Goal membership is exactly: consistent and not decision-positive.

    german exercises the reversed polarity (rules describe the desired label).
    """
    for ds in (example2, german):
        for state in enumerate_states(ds.config):
            expected = ds.consistent(state) and not ds.decision_positive(state)
            assert ds.is_goal(state) == expected


def test_filter_composition_order_insensitive(example2):
    space = list(enumerate_states(example2.config))
    a = [s for s in space if example2.consistent(s)]
    a = [s for s in a if not example2.decision_positive(s)]
    b = [s for s in space if not example2.decision_positive(s)]
    b = [s for s in b if example2.consistent(s)]
    combined = [s for s in space if example2.is_goal(s)]
    assert a == b == combined


def test_determinism(example2):
    state = example2.default_instance()
    runs = {example2.consistent(state) for _ in range(5)}
    assert runs == {True}


# ---------------------------------------------------------------------------
# repair values and exhaustiveness
# ---------------------------------------------------------------------------


def test_causal_repair_values_prefers_fired_head(example2):
    broken = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12,
        "bank_balance": 40000, "credit_score": 599,
    })
    values = compiled_groups(example2, broken)["credit_score"].allowed
    assert values[0] == 620.0
    assert set(values) == {620.0, 621.0}


def test_causal_repair_values_for_excluded_violation(example2):
    broken = validate_state(example2.config, {
        "age": 31, "debt": 5000, "loan_duration": 12,
        "bank_balance": 40000, "credit_score": 620,
    })
    values = compiled_groups(example2, broken)["credit_score"].allowed
    assert set(values) == {599.0, 619.0}


def covers_every_state(dataset, feature) -> bool:
    """Whether some alternative of ``feature``'s group fires on every state,
    by the interpreted entailments."""
    group = next(g for g in dataset.groups if g.feature == feature)
    return all(
        interpreted_entailment(dataset, group, state).required is not None
        for state in enumerate_states(dataset.config)
    )


def test_group_exhaustiveness_measured(german, example2):
    assert covers_every_state(german, "present_employment_since") is True
    assert covers_every_state(example2, "credit_score") is False


def test_adult_marital_group_partition(adult):
    """The shipped marital alternatives never co-fire and always cover."""
    assert covers_every_state(adult, "marital_status") is True
    for state in enumerate_states(adult.config):
        compiled_groups(adult, state)  # no error
