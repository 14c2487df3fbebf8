"""The compiled bit-mask evaluator agrees with the interpreted rule semantics.

The compiled masks are ``p2c``'s only rule evaluator.  The reference
(``oracles.interpreted_*``) walks every literal with ``oracles.rule_fires``
on the state's name->value dict; the dataset answers on its compiled masks,
and ``conftest.compiled_groups`` reads each causal group off them.  They
must agree on goal membership, causal consistency, the decision, each
group's entailment (required, excluded and provenance) and allowed values,
the causal repairs of violated groups and the causal closure, on every state
of every bundle and of many random rule programs.  Compiling rejects a
program exactly when the interpreter finds a state on which two alternatives
of one causal head fire, with the error text the interpreter gives there.
The search's compiled tables hold too: ``rank_parts`` sums to a state's
position in ``enumerate_states``, and a decision rule fires exactly on the
states one of its boxes holds.  Exception calls compile into boxes: a rule
negating many exception rules fires on its boxes exactly, and one whose
boxes would pass ``MAX_RULE_BOXES`` is refused when it compiles, as is a
favourable-label program whose rejecting boxes would pass
``MAX_REJECTING_BOXES``.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from conftest import (
    DATA, budget, compiled_groups, cyclic_dataset, decision_rule_boxes, exception_stress,
    fav_stress, make_dataset, random_dataset, rich_dataset,
)
from oracles import (
    causal_groups,
    entailment_satisfied,
    interpreted_consistent,
    interpreted_decision_positive,
    interpreted_closure,
    interpreted_entailments,
    interpreted_is_goal,
    interpreted_repair_values,
    names_favourable_label,
    rule_fires,
)
from p2c.dataset import consolidate_dataset, load_dataset
from p2c.domain import State, enumerate_states, validate_state
from p2c.cli import main
from p2c.errors import CausalProgramError, RuleProgramError
from p2c.masks import MAX_REJECTING_BOXES, MAX_RULE_BOXES
from p2c.rules import unparse_rule

BUNDLES = ("cars", "german", "adult", "example1", "example2")


def outcome(fn, *args):
    """The answer, or the text of the CausalProgramError raised instead."""
    try:
        return ("ok", fn(*args))
    except CausalProgramError as exc:
        return ("error", str(exc))


def plain(ents):
    return tuple((e.feature, e.required, e.excluded, tuple(e.provenance)) for e in ents)


def causal_actions(dataset, state):
    """Every repair of a violated, mutable group but the current value, in
    feature order, from the compiled groups (reading them raises if the
    program has two alternatives that fire together, as every query on it
    does)."""
    config = dataset.config
    out = []
    groups = compiled_groups(dataset, state).values()
    if dataset.consistent(state):
        return out
    for g in sorted(groups, key=lambda g: config.feature_index(g.feature)):
        i = config.feature_index(g.feature)
        if not config.features[i].mutable or state.values[i] in g.allowed:
            continue
        out += [(g.feature, v, tuple(g.provenance)) for v in g.allowed if v != state.values[i]]
    return out


def interpreted_causal_actions(dataset, state):
    """The same repairs from the interpreted entailments."""
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
        ("entailments", lambda s: plain(compiled_groups(dataset, s).values()),
         lambda d, s: plain(interpreted_entailments(d, s))),
        ("causal_actions", lambda s: causal_actions(dataset, s), interpreted_causal_actions),
    ]
    for group in causal_groups(dataset):
        pairs.append((
            f"repair_values[{group.feature}]",
            lambda s, f=group.feature: compiled_groups(dataset, s)[f].allowed,
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


def assert_closure_agrees_everywhere(dataset, rng) -> int:
    """``CompiledRules.closure`` against ``interpreted_closure`` on every
    state, preferring a random state's values (or none, every third state);
    returns how many states the closure repaired."""
    compiled = dataset.compiled
    assert not compiled.cyclic
    states = list(enumerate_states(dataset.config))
    repaired = 0
    for n, state in enumerate(states):
        prefer = None if n % 3 == 0 else rng.choice(states)
        closed = compiled.closure(
            compiled.bits(state), 0 if prefer is None else compiled.bits(prefer)
        )
        if closed is not None:
            bits, repairs = closed
            closed = (
                State(tuple(
                    domain[(bits & mask).bit_length() - 1 - off]
                    for domain, mask, off in zip(
                        compiled.domains, compiled.feature_masks, compiled.offsets
                    )
                )),
                [(dataset.config.features[fi].name, v, compiled.provenance(fi, made))
                 for fi, v, made in repairs],
            )
            repaired += bool(repairs)
        assert closed == interpreted_closure(dataset, state, prefer), state.values
    return repaired


def test_state_decodes_the_bits_of_every_state():
    """``CompiledRules.state`` inverts ``bits``, and ``value`` reads each
    feature's value back, on every state of many spaces."""
    spaces = [cyclic_dataset()] + [made[0] for made in map(random_dataset, range(50)) if made]
    decoded = 0
    for ds in spaces:
        compiled = ds.compiled
        for state in enumerate_states(ds.config):
            bits = compiled.bits(state)
            assert compiled.state(bits) == state
            assert tuple(compiled.value(i, bits) for i in range(len(state.values))) == state.values
            decoded += 1
    assert decoded > 1000


def test_closure_agrees_on_bundles_and_random_datasets():
    rng = random.Random(11)
    repaired = 0
    for bundle in BUNDLES:
        repaired += assert_closure_agrees_everywhere(
            consolidate_dataset(load_dataset(DATA / bundle)), rng
        )
    for seed in range(120):
        made = random_dataset(seed)
        # cyclic programs repair in repeated passes, which the reference does not model
        if made is not None and not made[0].compiled.cyclic:
            repaired += assert_closure_agrees_everywhere(made[0], rng)
    assert repaired > 1000


def test_compiled_agrees_on_random_programs_with_exceptions_and_overlaps():
    """Compiling raises exactly when the interpreter finds a state on which
    two causal alternatives fire, with the interpreter's text for one such
    state; every program that compiles agrees with the interpreter on every
    state."""
    rejected = compiled = with_aux = 0
    for seed in range(300):
        dataset = rich_dataset(seed)
        interpreted = {outcome(interpreted_consistent, dataset, state)
                       for state in enumerate_states(dataset.config)}
        errors = {text for kind, text in interpreted if kind == "error"}
        try:
            dataset.compiled
        except CausalProgramError as exc:
            assert str(exc) in errors, seed
            rejected += 1
            continue
        assert not errors, seed
        assert assert_agrees_everywhere(dataset) == 0
        with_aux += any(
            lit.kind in ("aux_call", "negated_aux_call")
            for rule in dataset.decision.rules + dataset.causal.rules
            for lit in rule.body
        )
        compiled += 1
    assert (rejected, compiled) == (69, 231)
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
        return compiled_groups(adult, state)

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
    assert compiled_groups(example2, state(0, 599))["credit_score"].allowed == (620.0, 621.0)
    assert compiled_groups(example2, state(5000, 621))["credit_score"].allowed == (599.0, 619.0)
    for s in (state(0, 621), state(5000, 599)):
        assert disagreements(example2, s) == []


def test_two_firing_alternatives_keep_their_rule_text():
    ds = make_dataset(
        {"f": ("a", "b"), "g": ("x", "y"), "h": ("p", "q")},
        "label(X,'bad') :- f(X,'a').",
        "f(X,'a') :- g(X,'x').\nf(X,'b') :- h(X,'p').",
    )
    state = validate_state(ds.config, {"f": "a", "g": "x", "h": "p"})
    calm = validate_state(ds.config, {"f": "a", "g": "x", "h": "q"})
    text = "f(X,'a') :- g(X,'x').; f(X,'b') :- h(X,'p')."
    message = ("error", f"two alternatives for feature 'f' fired simultaneously: {text}")
    # the program is rejected on its first query, also on a state where one fires
    for test in (ds.consistent, ds.is_goal, lambda s: compiled_groups(ds, s),
                 lambda s: compiled_groups(ds, s)["f"].allowed,
                 lambda s: causal_actions(ds, s)):
        assert outcome(test, calm) == message
    assert outcome(interpreted_consistent, ds, state) == message
    # the bodies' boxes meet only where ab1 holds, which blocks the first body
    ds = make_dataset(
        {"f": ("a", "b"), "g": ("x", "y"), "h": ("p", "q")},
        "label(X,'bad') :- f(X,'a').",
        "f(X,'a') :- g(X,'x'), not ab1(X,'True').\nf(X,'b') :- h(X,'p').\n"
        "ab1(X,'True') :- h(X,'p').",
    )
    assert assert_agrees_everywhere(ds) == 0
    assert ds.consistent(validate_state(ds.config, {"f": "b", "g": "x", "h": "p"}))
    assert not ds.consistent(validate_state(ds.config, {"f": "a", "g": "x", "h": "p"}))


def test_provenance_is_the_fired_rule_text(example2):
    state = validate_state(example2.config, {
        "age": 31, "debt": 0, "loan_duration": 12, "bank_balance": 40000, "credit_score": 620,
    })
    (ent,) = compiled_groups(example2, state).values()
    assert list(ent.provenance) == ["credit_score(X,620.0) :- debt(X,N1), N1=<0.0."]
    assert ent.provenance == ("credit_score(X,620.0) :- debt(X,N1), N1=<0.0.",)


def head_order(ds):
    return [(g.feature, decidable) for g, decidable in ds.compiled.head_order]


def test_head_order_derives_adult_relationship_before_marital_status(adult):
    # marital_status's bodies read relationship, so it is derived second
    assert [g.feature for g in adult.compiled.groups] == ["marital_status", "relationship"]
    assert head_order(adult) == [("relationship", True), ("marital_status", True)]


def test_head_order_follows_exception_calls_and_flags_cycles():
    causal = "\n".join((
        "g(X,'x') :- ab1(X,'True').",  # g reads h through ab1
        "ab1(X,'True') :- h(X,'p').",
        "n(X,'a') :- k(X,'a').",  # n reads k, which is on the k <-> m cycle
        "k(X,'a') :- m(X,'a').",
        "m(X,'a') :- k(X,'a').",
        "h(X,'p') :- z(X,'a').",
    ))
    ds = make_dataset(
        {f: ("a", "b", "p", "x") for f in "gnkmhz"}, "label(X,'bad') :- z(X,'b').", causal
    )
    # groups no order can place follow in group order; each is decidable only
    # if every head it reads comes before it
    assert head_order(ds) == [
        ("h", True), ("g", True), ("n", False), ("k", False), ("m", True),
    ]


def test_rank_parts_sum_to_the_position_in_enumerate_states():
    """``CompiledRules.rank_parts`` summed over a state's bits is the state's
    position in ``enumerate_states``: the rank the search breaks ties by."""
    spaces = [cyclic_dataset()] + [made[0] for made in map(random_dataset, range(50)) if made]
    spaces += [consolidate_dataset(load_dataset(DATA / bundle)) for bundle in BUNDLES]
    ranked = 0
    for ds in spaces:
        compiled = ds.compiled
        parts = compiled.rank_parts
        assert len(parts) == len(compiled.values)
        for position, state in enumerate(enumerate_states(ds.config)):
            bits = compiled.bits(state)
            assert sum(parts[b] for b in range(bits.bit_length()) if bits >> b & 1) == position
            ranked += 1
    assert ranked > 10000


def test_decision_boxes_hold_every_state_the_body_fires_on():
    """Each rejecting box's ``(allowed, held)`` lies inside the walk
    features' bits, ``held`` is a union of whole feature masks, and a
    state's walk bits lie inside the ``allowed`` of every box that holds
    it.  Where the rules name the undesired label, the boxes are the rules'
    own, in rule order, and the interpreter fires a rule on a state iff one
    of that rule's boxes holds the state.  Where they name the favourable
    label, the boxes are pairwise disjoint, and one holds a state iff the
    interpreter fires no rule there.  On the consolidated bundles and the
    ``rich_dataset(0..299)`` programs that compile."""
    spaces = [consolidate_dataset(load_dataset(DATA / bundle)) for bundle in BUNDLES]
    for seed in range(300):
        ds = rich_dataset(seed)
        try:
            ds.compiled
        except CausalProgramError:
            continue
        spaces.append(ds)
    assert len(spaces) == 5 + 231
    fired = rejected = favourable = 0
    for ds in spaces:
        compiled = ds.compiled
        masks = compiled.feature_masks
        walk_bits = sum(masks[i] for i in compiled.walk)
        assert len(compiled.decision_boxes) == len(compiled.decision)
        for allowed, held in compiled.decision_boxes:
            assert allowed & ~walk_bits == 0 and held & ~walk_bits == 0
            assert all(held & m in (0, m) for m in masks)
        undesired = not names_favourable_label(ds)
        assert compiled.favourable is not undesired
        if undesired:
            per_rule = decision_rule_boxes(ds)
            assert compiled.decision == tuple(box for boxes in per_rule for box in boxes)
        else:
            favourable += 1
            assert all(not all(m & ~(x | y) for m in masks)
                       for x, y in itertools.combinations(compiled.decision, 2))
        for state in enumerate_states(ds.config):
            values = ds.config.state_dict(state)
            bits = compiled.bits(state)
            holding = [allowed for box, (allowed, _) in zip(compiled.decision,
                                                            compiled.decision_boxes)
                       if not bits & box]
            assert all(bits & walk_bits & ~allowed == 0 for allowed in holding)
            fires = [rule_fires(rule, values, ds.decision) for rule in ds.decision.rules]
            fired += sum(fires)
            if undesired:
                for r, boxes in enumerate(per_rule):
                    assert fires[r] == any(not bits & box for box in boxes), (
                        ds.config.name, state.values, r)
            else:
                assert (not any(fires)) == bool(holding), (ds.config.name, state.values)
                assert len(holding) <= 1
                rejected += bool(holding)
    assert fired > 5000 and rejected > 1000 and favourable > 100


@pytest.mark.parametrize("r", [2, 4, 8, 10, 12, 14])
def test_negated_exceptions_compile_to_exact_boxes(r):
    """The rule fires on a state iff one of its boxes holds it, on 2000
    seeded states, and no box of the rule contains another; from r = 8 on
    it compiles in under 50 ms (the fastest of three compiles)."""
    seconds = []
    for _ in range(3):
        ds = exception_stress(r)
        began = time.perf_counter()
        compiled = ds.compiled
        seconds.append(time.perf_counter() - began)
    if r >= 8:
        assert min(seconds) < 0.05
    boxes = compiled.decision
    assert len(ds.decision.rules) == 1 and len(boxes) > 1
    assert all(x & ~y for x, y in itertools.permutations(boxes, 2))
    rule = ds.decision.rules[0]
    rng = random.Random(f"states{r}")
    fired = 0
    for _ in range(2000):
        state = State(tuple(rng.choice(spec.domain) for spec in ds.config.features))
        bits = compiled.bits(state)
        fires = rule_fires(rule, ds.config.state_dict(state), ds.decision)
        assert fires == any(not bits & box for box in boxes), state.values
        assert ds.decision_positive(state) == fires
        fired += fires
    assert 0 < fired < 2000


def disjoint_exceptions(r: int) -> tuple[dict, str]:
    """Domains and decision text of ``label(X,'bad') :- not ab1(X,'True')``
    over r ``ab1`` rules on disjoint feature pairs: 2^r boxes, none of which
    contains another."""
    domains = {f"g{i}": ("a", "b") for i in range(2 * r)}
    aux = [f"ab1(X,'True') :- g{2 * i}(X,'a'), g{2 * i + 1}(X,'b')." for i in range(r)]
    return domains, "label(X,'bad') :- not ab1(X,'True').\n" + "\n".join(aux)


def assert_validate_refuses(ds, message, tmp_path, capsys):
    """Write ``ds``'s categorical features and decision rules as a bundle:
    ``p2c validate`` on it prints ``message`` as the config's error line,
    exit 1, within a second, and nothing to stderr."""
    bundle = tmp_path / ds.config.name
    bundle.mkdir()
    (bundle / "config.json").write_text(json.dumps({
        "name": ds.config.name,
        "undesired_decision": ds.config.undesired_decision,
        "features": [{"name": f.name, "kind": "categorical", "domain": list(f.domain)}
                     for f in ds.config.features],
    }))
    (bundle / "decision.rules").write_text("\n".join(map(unparse_rule, ds.decision.clauses)))
    (bundle / "causal.rules").write_text("")
    began = time.perf_counter()
    code = main(["validate", "--config", str(bundle)])
    assert time.perf_counter() - began < 1.0
    out = capsys.readouterr()
    assert code == 1 and out.err == ""
    assert out.out.splitlines()[-1] == f"{bundle / 'config.json'}: {message}"


def test_rule_past_the_box_cap_is_refused(capsys, tmp_path):
    """A rule that would compile to more than ``MAX_RULE_BOXES`` boxes is a
    ``RuleProgramError`` naming it, and ``p2c validate`` prints it as the
    config's error line, exit 1, within a second; one below the cap
    compiles.  Subtracting the exceptions from the body's boxes checks the
    cap as pieces are made, so ``disjoint_exceptions(40)``, whose
    complement alone would hold 2^40 boxes, is refused within a second."""
    r = MAX_RULE_BOXES.bit_length()  # 2^r > MAX_RULE_BOXES
    message = (f"rule label(X,'bad') :- not ab1(X,'True'). compiles to more than "
               f"{MAX_RULE_BOXES} boxes through its exception calls")
    assert len(make_dataset(*disjoint_exceptions(r - 1)).compiled.decision) == 2 ** (r - 1)
    for n in (r, 40):
        with budget(1.0, f"refuse disjoint_exceptions({n})"):
            with pytest.raises(RuleProgramError) as err:
                make_dataset(*disjoint_exceptions(n)).compiled
        assert str(err.value) == message
    assert_validate_refuses(make_dataset(*disjoint_exceptions(r), name="capped"), message,
                            tmp_path, capsys)


def test_favourable_program_past_the_rejecting_box_cap_is_refused(capsys, tmp_path):
    """The complement of ``fav_stress(r)``'s rules has 4^r boxes: r = 8
    compiles to ``MAX_REJECTING_BOXES`` of them, and r = 10 is a
    ``RuleProgramError`` naming the favourable label within a second, which
    ``p2c validate`` prints as the config's error line, exit 1."""
    assert len(fav_stress(8)[0].compiled.decision) == 4 ** 8 == MAX_REJECTING_BOXES
    message = (f"decision rules for the favourable label 'good' compile to more than "
               f"{MAX_REJECTING_BOXES} rejecting boxes")
    ds = fav_stress(10)[0]
    with budget(1.0, "refuse fav_stress(10)"):
        with pytest.raises(RuleProgramError) as err:
            ds.compiled
    assert str(err.value) == message
    assert_validate_refuses(ds, message, tmp_path, capsys)
