from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import p2c
from conftest import DATA, random_dataset, rich_dataset
from oracles import names_favourable_label, program_decides
from p2c.dataset import load_dataset
from p2c.domain import enumerate_states, ingest_csv
from p2c.errors import P2CError, PredictorError
from p2c.rules import parse_rule_program
from p2c.surrogate import (
    ExternalCommandModel,
    RuleBackedModel,
    RuleFileLearner,
    TableModel,
    agreement,
    extract_logic,
    label_dataset,
)


@pytest.fixture(scope="module")
def labelled_cars(request):
    cars = request.getfixturevalue("cars")
    data_dir = request.getfixturevalue("data_dir")
    result = ingest_csv(cars.config, data_dir / "cars" / "car.csv")
    binary = tuple("negative" if l == "unacc" else "positive" for l in result.labels)
    return cars, result.states, binary


def test_label_dataset_table_model_matches_rule_evaluation(labelled_cars):
    cars, states, labels = labelled_cars
    model = TableModel.from_pairs(states, labels)
    out = label_dataset(model, list(states[:200]))
    for state, label in zip(out.states, out.labels):
        fired = program_decides(cars.decision, cars.config.state_dict(state))
        if fired:  # precision-100 rules: firing implies the negative label
            assert label == "negative"


def test_label_dataset_constant_predictor(cars):
    states = [cars.default_instance()] * 3
    out = label_dataset(lambda s: "negative", states)
    assert out.labels == ("negative", "negative", "negative")


def test_label_dataset_empty_rejected():
    with pytest.raises(P2CError):
        label_dataset(lambda s: "x", [])


def test_label_dataset_failure_names_row(cars):
    states = list(enumerate_states(cars.config))[:5]

    def flaky(state):
        if state == states[3]:
            raise PredictorError("boom")
        return "negative"

    with pytest.raises(PredictorError, match="row 3") as err:
        label_dataset(flaky, states)
    assert err.value.row == 3


def test_external_command_model_happy_and_sad(tmp_path, cars):
    ok_script = tmp_path / "ok.py"
    ok_script.write_text(
        "import sys\nrow = sys.stdin.read().strip().split(',')\n"
        "print('negative' if row[3] == '2' else 'positive')\n"
    )
    model = ExternalCommandModel((sys.executable, str(ok_script)), cars.config)
    states = list(enumerate_states(cars.config))[:4]
    out = label_dataset(model, states)
    assert out.labels == tuple(
        "negative" if s.values[3] == "2" else "positive" for s in states
    )

    bad_script = tmp_path / "bad.py"
    bad_script.write_text(
        "import sys\nrow = sys.stdin.read().strip().split(',')\n"
        "sys.exit(3) if row[5] == 'high' else print('negative')\n"
    )
    bad = ExternalCommandModel((sys.executable, str(bad_script)), cars.config)
    # the first three enumerated cars differ only in safety; the third (row 2)
    # has safety=high and trips the predictor
    with pytest.raises(PredictorError, match="row 2"):
        label_dataset(bad, states[:3])


def test_extract_logic_passthrough_identity(adult):
    out = extract_logic(adult.decision, [], learner=lambda d: (_ for _ in ()).throw(AssertionError))
    assert out is adult.decision


def test_extract_logic_black_box_plus_rule_file(labelled_cars, data_dir):
    cars, states, labels = labelled_cars
    model = TableModel.from_pairs(states, labels)
    learner = RuleFileLearner(data_dir / "cars" / "decision.rules")
    program = extract_logic(model, list(states), learner)
    assert len(program.rules) == 5
    # fidelity of the extracted rules against the table model
    frac = agreement(cars.config, program, model, list(states), other_label="positive")
    assert frac >= 0.93


def test_extract_logic_self_consistency_fidelity(labelled_cars):
    """When the predictor is the rule set itself, agreement is perfect."""
    cars, states, _ = labelled_cars
    surrogate = RuleBackedModel(cars.config, cars.decision, "positive")
    program = extract_logic(surrogate, list(states), lambda d: cars.decision)
    frac = agreement(cars.config, program, surrogate, list(states), other_label="positive")
    assert frac == 1.0 >= 0.99


def test_extract_logic_rejects_non_binary_labels(labelled_cars):
    cars, states, _ = labelled_cars
    model = TableModel.from_pairs(states, tuple(f"c{i%3}" for i in range(len(states))))
    with pytest.raises(P2CError, match="binary"):
        extract_logic(model, list(states), lambda d: cars.decision)


def test_extract_logic_learner_failure_wrapped(labelled_cars):
    cars, states, labels = labelled_cars
    model = TableModel.from_pairs(states, labels)

    def broken_learner(data):
        raise RuntimeError("nope")

    with pytest.raises(P2CError, match="rule learner failed"):
        extract_logic(model, list(states[:10]), broken_learner)


def test_verified_header_detection(data_dir, adult):
    assert adult.causal.verified is True
    unverified = parse_rule_program("f(X,'a') :- g(X,'b').", "causal")
    assert unverified.verified is False


# ---------------------------------------------------------------------------
# RuleBackedModel answers on compiled masks, as the interpreter does
# ---------------------------------------------------------------------------


def assert_model_matches_interpreter(dataset) -> int:
    """RuleBackedModel's label equals the interpreted rules' raw firing on
    every state, whichever label the program describes; returns how many
    states the rules fire on."""
    program = dataset.decision
    head = str(program.head_label.value)
    model = RuleBackedModel(dataset.config, program, "<other>")
    fired = 0
    for state in enumerate_states(dataset.config):
        fires = program_decides(program, dataset.config.state_dict(state))
        assert model(state) == (head if fires else "<other>"), state.values
        fired += fires
    return fired


@pytest.mark.parametrize("bundle", ("cars", "german", "adult", "example1", "example2"))
def test_rule_backed_model_matches_interpreter_on_bundles(bundle):
    dataset = load_dataset(DATA / bundle)
    fired = assert_model_matches_interpreter(dataset)
    assert 0 < fired < sum(1 for _ in enumerate_states(dataset.config))
    # german's rules describe the favourable label; the model still answers
    # with their raw firing
    assert names_favourable_label(dataset) is (bundle == "german")


def test_rule_backed_model_matches_interpreter_on_random_programs():
    kinds = set()
    checked = 0
    for seed in range(200):
        made = random_dataset(seed)
        for dataset in (made and made[0], rich_dataset(seed)):
            if dataset is None or dataset.decision.head_label is None:
                continue
            assert_model_matches_interpreter(dataset)
            kinds |= {lit.kind for rule in dataset.decision.clauses for lit in rule.body}
            kinds.add(names_favourable_label(dataset))
            checked += 1
    assert checked >= 300
    assert {"aux_call", "negated_aux_call", "numeric_binding", "comparison",
            "negated_comparison", "negated_feature_test", True, False} <= kinds


def test_import_loads_no_masks():
    """The package and the surrogate import the compiled masks lazily."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(p2c.__file__).resolve().parent.parent), env.get("PYTHONPATH")))
    )
    code = "import sys, p2c, p2c.surrogate; sys.exit('p2c.masks' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
