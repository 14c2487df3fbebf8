"""The compiled bit-mask evaluator agrees with the interpreted rule semantics.

The reference (``oracles.interpreted_*``) walks every literal with
``rules.rule_fires`` on the state's name->value dict; the dataset answers on
its compiled masks.  They must agree on goal membership, causal consistency,
the decision, entailments (required, excluded and provenance), repair values,
the planner's causal actions and the text of a two-alternatives error, on
every state of every bundle and of many random rule programs.
"""

from __future__ import annotations

import random

import pytest

from conftest import DATA, make_dataset, random_dataset
from oracles import (
    entailment_satisfied,
    interpreted_consistent,
    interpreted_decision_positive,
    interpreted_entailments,
    interpreted_is_goal,
    interpreted_repair_values,
)
from p2c.dataset import build_dataset, consolidate_dataset, load_dataset
from p2c.domain import DatasetConfig, FeatureSpec, enumerate_states, validate_state
from p2c.errors import CausalProgramError
from p2c.planner import available_causal_actions
from p2c.rules import parse_rule_program

BUNDLES = ("cars", "german", "adult", "example1", "example2")


def outcome(fn, *args):
    """The answer, or the text of the CausalProgramError raised instead."""
    try:
        return ("ok", fn(*args))
    except CausalProgramError as exc:
        return ("error", str(exc))


def plain(ents):
    return tuple((e.feature, e.required, e.excluded, tuple(e.provenance)) for e in ents)


def interpreted_causal_actions(dataset, state):
    """The planner's causal repairs, from the interpreted entailments: every
    value of a violated, mutable group but the current one, in feature order."""
    ents = {e.feature: e for e in interpreted_entailments(dataset, state)}
    out = []
    for spec, current in zip(dataset.config.features, state.values):
        ent = ents.get(spec.name)
        if ent is None or not spec.mutable or entailment_satisfied(spec, current, ent):
            continue
        out += [
            (spec.name, value, tuple(ent.provenance))
            for value in interpreted_repair_values(dataset, state, spec.name)
            if value != current
        ]
    return out


def disagreements(dataset, state) -> list[str]:
    """Every test on which the compiled and the interpreted forms differ."""
    pairs = [
        ("is_goal", dataset.is_goal, interpreted_is_goal),
        ("consistent", dataset.consistent, interpreted_consistent),
        ("decision_positive", dataset.decision_positive, interpreted_decision_positive),
        ("entailments", lambda s: plain(dataset.entailments(s)),
         lambda d, s: plain(interpreted_entailments(d, s))),
        ("causal_actions",
         lambda s: [(a.feature, a.new_value, tuple(a.provenance))
                    for a in available_causal_actions(dataset, s)],
         interpreted_causal_actions),
    ]
    for group in dataset.groups:
        pairs.append((
            f"repair_values[{group.feature}]",
            lambda s, f=group.feature: dataset.repair_values(s, f),
            lambda d, s, f=group.feature: interpreted_repair_values(d, s, f),
        ))
    out = []
    for name, compiled, reference in pairs:
        got, want = outcome(compiled, state), outcome(reference, dataset, state)
        if got != want:
            out.append(f"{name} on {state.values}: compiled {got}, interpreted {want}")
    return out


def assert_agrees_everywhere(dataset) -> int:
    """Check every state of the dataset's space; return how many raised."""
    raised = 0
    for state in enumerate_states(dataset.config):
        problems = disagreements(dataset, state)
        assert not problems, problems[:3]
        raised += outcome(dataset.consistent, state)[0] == "error"
    return raised


@pytest.mark.parametrize("bundle", BUNDLES)
def test_compiled_agrees_on_every_bundle_state(bundle):
    full = load_dataset(DATA / bundle)
    assert assert_agrees_everywhere(full) == 0
    assert assert_agrees_everywhere(consolidate_dataset(full)) == 0


def test_compiled_agrees_on_random_datasets():
    checked = 0
    for seed in range(260):
        made = random_dataset(seed)
        if made is None:
            continue
        assert_agrees_everywhere(made[0])
        checked += 1
    assert checked >= 200


def rich_dataset(seed: int):
    """A random program over mixed categorical and numeric features, with
    exception predicates (called plainly, negated and from one another),
    numeric ``=<`` and ``not(=<)`` tests, direction-aware numeric causal
    heads, and causal alternatives free to fire together."""
    rng = random.Random(seed)
    features = []
    for i in range(rng.randint(2, 4)):
        if rng.random() < 0.45:
            domain = tuple(float(v) for v in sorted(rng.sample(range(21), rng.randint(2, 4))))
            features.append(FeatureSpec(
                name=f"n{i}", kind="numeric", domain=domain, numeric_range=(0.0, 20.0),
                causal_direction=rng.choice(("exact", "at_least", "at_most")),
            ))
        else:
            domain = tuple(f"v{j}" for j in range(rng.randint(2, 4)))
            features.append(FeatureSpec(name=f"c{i}", kind="categorical", domain=domain))
    names = [f.name for f in features]

    def literals(allowed, aux_names):
        out, var = [], 0
        for name in rng.sample(allowed, rng.randint(1, min(2, len(allowed)))):
            spec = next(f for f in features if f.name == name)
            neg = "not " if rng.random() < 0.4 else ""
            if spec.kind == "numeric" and rng.random() < 0.8:
                var += 1
                bound = rng.choice((rng.randint(0, 20) + 0.0, rng.randint(0, 19) + 0.5))
                test = f"N{var}=<{bound}" if not neg else f"not(N{var}=<{bound})"
                out += [f"{name}(X,N{var})", test]
            elif spec.kind == "numeric":
                out.append(f"{neg}{name}(X,{rng.choice(spec.domain)})")
            else:
                out.append(f"{neg}{name}(X,'{rng.choice(spec.domain + ('zz',))}')")
        for aux in aux_names:
            if rng.random() < 0.35:
                out.append(f"{'not ' if rng.random() < 0.6 else ''}{aux}(X,'True')")
        return out

    def aux_layer(allowed):
        rules = []
        for k in (1, 2):
            for _ in range(rng.randint(1, 2)):
                body = literals(allowed, [f"ab{j}" for j in range(1, k)])
                rules.append(f"ab{k}(X,'True') :- {', '.join(body)}.")
        return rules

    head = rng.choice(("bad", "good"))
    decision = aux_layer(names) + [
        f"label(X,'{head}') :- {', '.join(literals(names, ['ab1', 'ab2']))}."
        for _ in range(rng.randint(1, 3))
    ]
    causal = []
    heads = rng.sample(names, rng.randint(0, min(2, len(names) - 1)))
    readable = [n for n in names if n not in heads] or names[:1]
    if heads:
        causal += aux_layer(readable)
    for h in heads:
        spec = next(f for f in features if f.name == h)
        values = list(spec.domain) if spec.kind == "categorical" else [
            rng.choice(spec.domain + (7.0,)) for _ in range(3)
        ]
        for value in rng.sample(values, min(len(values), rng.randint(1, 3))):
            shown = f"'{value}'" if spec.kind == "categorical" else value
            for _ in range(rng.randint(1, 2)):
                body = literals([n for n in readable if n != h] or readable, ["ab1", "ab2"])
                causal.append(f"{h}(X,{shown}) :- {', '.join(body)}.")
    config = DatasetConfig(
        name=f"rich{seed}", features=tuple(features), undesired_decision="bad",
    )
    try:
        return build_dataset(
            config,
            parse_rule_program("\n".join(decision), "decision"),
            parse_rule_program("\n".join(causal), "causal"),
        )
    except Exception:
        return None


def test_compiled_agrees_on_random_programs_with_exceptions_and_overlaps():
    checked = raised = with_aux = 0
    for seed in range(300):
        dataset = rich_dataset(seed)
        if dataset is None:
            continue
        raised += assert_agrees_everywhere(dataset)
        with_aux += any(
            lit.kind in ("aux_call", "negated_aux_call")
            for rule in dataset.decision.rules + dataset.causal.rules
            for lit in rule.body
        )
        checked += 1
    assert checked >= 200
    assert raised > 0, "no program had two causal alternatives firing together"
    assert with_aux > 50


def test_german_exception_blocks_the_good_rule(german):
    base = {
        "checking_account_status": "lt_0", "credit_history": "existing_duly_paid",
        "duration_months": 12, "credit_amount": 1000, "present_employment_since": "employed",
        "job": "skilled_employee",
    }
    car = validate_state(german.config, {**base, "property": "car or other"})
    estate = validate_state(german.config, {**base, "property": "real_estate"})
    # ab1 fires for a car owner with a small credit, so the 'good' rule is blocked
    assert german.decision_positive(car) is True
    assert german.decision_positive(estate) is False
    assert german.is_goal(estate) and not german.is_goal(car)
    for state in (car, estate):
        assert disagreements(german, state) == []


def test_adult_negated_comparison_gates_husband(adult):
    def ents(age):
        state = validate_state(adult.config, {
            "age": age, "sex": "Male", "relationship": "Husband",
            "marital_status": "Married-civ-spouse", "education_num": 9, "capital_gain": 0,
        })
        assert disagreements(adult, state) == []
        return {e.feature: e for e in adult.entailments(state)}

    assert ents(30)["relationship"].required == "Husband"  # not(30 =< 27.0)
    young = ents(25)["relationship"]
    assert young.required is None and young.excluded == ("Husband", "Wife")


def test_example2_at_least_head_admits_higher_scores(example2):
    def state(debt, score):
        return validate_state(example2.config, {
            "age": 31, "debt": debt, "loan_duration": 12,
            "bank_balance": 60000, "credit_score": score,
        })

    assert example2.consistent(state(0, 621)) and example2.consistent(state(0, 620))
    assert not example2.consistent(state(0, 619))
    # with debt the head is excluded: no value satisfying 'at least 620' is allowed
    assert not example2.consistent(state(5000, 621))
    assert example2.repair_values(state(0, 599), "credit_score") == (620.0, 621.0)
    assert example2.repair_values(state(5000, 621), "credit_score") == (599.0, 619.0)
    for s in (state(0, 621), state(5000, 599)):
        assert disagreements(example2, s) == []


def test_two_firing_alternatives_keep_their_rule_text():
    ds = make_dataset(
        {"f": ("a", "b"), "g": ("x", "y"), "h": ("p", "q")},
        "label(X,'bad') :- f(X,'a').",
        "f(X,'a') :- g(X,'x').\nf(X,'b') :- h(X,'p').",
    )
    state = validate_state(ds.config, {"f": "a", "g": "x", "h": "p"})
    text = "f(X,'a') :- g(X,'x').; f(X,'b') :- h(X,'p')."
    message = ("error", f"two alternatives for feature 'f' fired simultaneously: {text}")
    for test in (ds.consistent, ds.is_goal, ds.entailments,
                 lambda s: ds.repair_values(s, "f"),
                 lambda s: available_causal_actions(ds, s)):
        assert outcome(test, state) == message
    assert outcome(interpreted_consistent, ds, state) == message
    # states where only one alternative fires answer normally
    calm = validate_state(ds.config, {"f": "a", "g": "x", "h": "q"})
    assert ds.consistent(calm) and disagreements(ds, calm) == []


def test_provenance_is_the_fired_rule_text(example2):
    state = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12, "bank_balance": 40000, "credit_score": 620,
    })
    (ent,) = example2.entailments(state)
    assert list(ent.provenance) == ["credit_score(X,620.0) :- debt(X,N1), N1=<0.0."]
    assert ent.provenance == ("credit_score(X,620.0) :- debt(X,N1), N1=<0.0.",)
