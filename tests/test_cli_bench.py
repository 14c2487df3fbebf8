from __future__ import annotations

import json
import shutil
import sys

import pytest

from conftest import make_dataset
from oracles import adjust_weights
from p2c.bench import SAMPLE_CAP, bench_dataset, run_benchmark, sample_decision_positive
from p2c.cli import main
from p2c.dataset import consolidate_dataset, load_dataset
from p2c.domain import enumerate_states, search_space_size, validate_state
from p2c.errors import SpaceTooLargeError
from p2c.search import compute_weighted_lp


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_cars_clean(capsys, data_dir):
    code, out, err = run_cli(capsys, "validate", "--config", str(data_dir / "cars"))
    assert code == 0
    assert "ok" in out


def test_validate_parses_each_rule_file_once(capsys, monkeypatch, data_dir):
    """validate hands the programs it checked on to the bundle it builds, so
    each rule file is parsed once, also when --rules overrides one."""
    import p2c.cli
    import p2c.dataset

    parsed = []
    parse = p2c.cli.parse_rule_program

    def counting(text, kind):
        parsed.append(kind)
        return parse(text, kind)

    monkeypatch.setattr(p2c.cli, "parse_rule_program", counting)
    monkeypatch.setattr(p2c.dataset, "parse_rule_program", counting)
    bundle = data_dir / "cars"
    code, out, _ = run_cli(capsys, "validate", "--config", str(bundle))
    assert code == 0 and parsed == ["decision", "causal"]
    assert out.splitlines()[2].startswith(f"{bundle / 'config.json'}: ok (")
    parsed.clear()
    code, _, _ = run_cli(capsys, "validate", "--config", str(bundle),
                         "--rules", str(bundle / "decision.rules"))
    assert code == 0 and parsed == ["decision", "causal"]


def test_validate_missing_terminator(capsys, tmp_path, data_dir):
    bundle = tmp_path / "broken"
    bundle.mkdir()
    (bundle / "config.json").write_text(
        json.dumps({
            "name": "broken",
            "undesired_decision": "bad",
            "features": [{"name": "f", "kind": "categorical", "domain": ["a", "b"]}],
        })
    )
    (bundle / "decision.rules").write_text("label(X,'bad') :- f(X,'a')")  # no dot
    (bundle / "causal.rules").write_text("")
    code, out, err = run_cli(capsys, "validate", "--config", str(bundle))
    assert code == 1
    assert "'.'" in out


def test_validate_unknown_feature_cross_reference(capsys, tmp_path):
    bundle = tmp_path / "xref"
    bundle.mkdir()
    (bundle / "config.json").write_text(
        json.dumps({
            "name": "xref",
            "undesired_decision": "bad",
            "features": [{"name": "f", "kind": "categorical", "domain": ["a", "b"]}],
        })
    )
    (bundle / "decision.rules").write_text("label(X,'bad') :- g(X,'a').")
    (bundle / "causal.rules").write_text("")
    code, out, err = run_cli(capsys, "validate", "--config", str(bundle))
    assert code == 1
    assert "not a feature" in out


def test_validate_warns_on_unverified_causal_rules(capsys, tmp_path):
    bundle = tmp_path / "unverified"
    bundle.mkdir()
    (bundle / "config.json").write_text(
        json.dumps({
            "name": "u",
            "undesired_decision": "bad",
            "features": [
                {"name": "f", "kind": "categorical", "domain": ["a", "b"]},
                {"name": "g", "kind": "categorical", "domain": ["x", "y"]},
            ],
        })
    )
    (bundle / "decision.rules").write_text("label(X,'bad') :- f(X,'a').")
    (bundle / "causal.rules").write_text("f(X,'a') :- g(X,'x').")
    code, out, err = run_cli(capsys, "validate", "--config", str(bundle))
    assert code == 0
    assert "verified" in out


def test_co_firing_causal_alternatives_fail_validate_and_mincf(capsys, tmp_path):
    bundle = tmp_path / "cofire"
    bundle.mkdir()
    (bundle / "config.json").write_text(json.dumps({
        "name": "cofire",
        "undesired_decision": "bad",
        "features": [
            {"name": f, "kind": "categorical", "domain": domain}
            for f, domain in (("f", ["a", "b"]), ("g", ["x", "y"]), ("h", ["p", "q"]))
        ],
        "instance_defaults": {"f": "a", "g": "x", "h": "q"},
    }))
    (bundle / "decision.rules").write_text("label(X,'bad') :- f(X,'a').")
    # both alternatives fire where g=x and h=p, though not at the instance
    (bundle / "causal.rules").write_text("f(X,'a') :- g(X,'x').\nf(X,'b') :- h(X,'p').")
    message = ("two alternatives for feature 'f' fired simultaneously: "
               "f(X,'a') :- g(X,'x').; f(X,'b') :- h(X,'p').")
    code, out, _ = run_cli(capsys, "validate", "--config", str(bundle))
    assert code == 1
    assert out.splitlines()[-1] == f"{bundle / 'config.json'}: {message}"
    code, out, err = run_cli(capsys, "mincf", "--config", str(bundle))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _reshape(config, change):
    if change == "list":
        return [1, 2]
    if change == "feature_entry":
        config["features"][0] = 7
    elif change == "norm_p":
        config["norm_p"] = "x"
    elif change == "weight":
        config["features"][0]["weight"] = "heavy"
    elif change == "feature_name":
        config["features"][0]["name"] = 5
    elif change == "max_dpl":
        config["max_dpl"] = "x"
    elif change == "norm_p_fraction":
        config["norm_p"] = 1.5
    elif change == "norm_p_bool":
        config["norm_p"] = True
    elif change == "max_dpl_fraction":
        config["max_dpl"] = 2.5
    elif change == "max_dpl_zero":
        config["max_dpl"] = 0
    elif change == "max_dpl_negative":
        config["max_dpl"] = -1
    elif change == "undesired_decision":
        config["undesired_decision"] = [1]
    elif change == "weight_nan":  # json writes NaN and Infinity, and reads them back
        config["features"][0]["weight"] = float("nan")
    elif change == "range_infinite":
        config["features"][3]["numeric_range"] = [0, float("inf")]
    elif change == "step_infinite":
        config["features"][3]["step"] = float("inf")
    elif change == "default_not_a_feature":
        config["instance_defaults"]["bank_balanse"] = 90000
    elif change == "mutable_string":
        config["features"][0]["mutable"] = "false"
    elif change == "actionable_string":
        config["features"][0]["directly_actionable"] = "no"
    elif change == "mutable_number":
        config["features"][0]["mutable"] = 0
    elif change == "weight_bool":
        config["features"][0]["weight"] = True
    elif change == "weight_string":
        config["features"][0]["weight"] = "2"
    elif change == "step_string":
        config["features"][0]["step"] = "1"
    elif change == "range_bool":
        config["features"][0]["numeric_range"] = [True, 99]
    elif change == "range_strings":
        config["features"][0]["numeric_range"] = ["1", "99"]
    elif change == "range_text":
        config["features"][0]["numeric_range"] = "19"
    elif change == "weight_huge":  # no float holds it
        config["features"][0]["weight"] = 10**400
    elif change == "range_huge":
        config["features"][0]["numeric_range"] = [1, 10**400]
    elif change == "default_string":
        config["instance_defaults"]["age"] = "50"
    elif change == "default_huge":
        config["instance_defaults"]["age"] = 10**400
    return config


@pytest.mark.parametrize("change, named", [
    ("list", "not a JSON object"),
    ("feature_entry", "feature entry 7"),
    ("norm_p", "field 'norm_p'"),
    ("weight", "field 'weight'"),
    ("feature_name", "without a name"),
    ("max_dpl", "field 'max_dpl'"),
    ("norm_p_fraction", "field 'norm_p' is not an integer: 1.5"),
    ("norm_p_bool", "field 'norm_p' is not an integer: True"),
    ("max_dpl_fraction", "field 'max_dpl' is not an integer: 2.5"),
    ("undesired_decision", "field 'undesired_decision' is not a string: [1]"),
    ("max_dpl_zero", "field 'max_dpl' must be at least 1, got 0"),
    ("max_dpl_negative", "field 'max_dpl' must be at least 1, got -1"),
    ("weight_nan", "feature 'age': weight must be finite, got nan"),
    ("range_infinite", "feature 'bank_balance': numeric_range must be finite, got 0.0, inf"),
    ("step_infinite", "feature 'bank_balance': step must be finite, got inf"),
    ("default_not_a_feature", "instance_defaults names 'bank_balanse', which is not a feature"),
    ("mutable_string", "feature 'age' field 'mutable' is not a boolean: 'false'"),
    ("actionable_string", "feature 'age' field 'directly_actionable' is not a boolean: 'no'"),
    ("mutable_number", "feature 'age' field 'mutable' is not a boolean: 0"),
    ("weight_bool", "feature 'age' field 'weight' is not a number: True"),
    ("weight_string", "feature 'age' field 'weight' is not a number: '2'"),
    ("step_string", "feature 'age' field 'step' is not a number: '1'"),
    ("range_bool", "feature 'age' needs numeric_range [lo, hi] of two numbers, got [True, 99]"),
    ("range_strings", "feature 'age' needs numeric_range [lo, hi] of two numbers, got ['1', '99']"),
    ("range_text", "feature 'age' needs numeric_range [lo, hi] of two numbers, got '19'"),
    ("weight_huge", "feature 'age': weight must be finite, got inf"),
    ("range_huge", "feature 'age': numeric_range must be finite, got 1.0, inf"),
    ("default_string", "instance default for numeric feature 'age' is not a number: '50'"),
    ("default_huge", "instance default for numeric feature 'age' must be finite, got inf"),
])
def test_config_of_the_wrong_shape_is_an_error_line(capsys, bundle_copy, change, named):
    path = bundle_copy / "config.json"
    path.write_text(json.dumps(_reshape(json.loads(path.read_text()), change)))
    code, out, err = run_cli(capsys, "validate", "--config", str(bundle_copy))
    assert code == 1 and named in out.splitlines()[-1] and err == ""
    assert out.splitlines()[-1].count(str(path)) == 1
    for command in ("mincf", "path"):
        code, out, err = run_cli(capsys, command, "--config", str(bundle_copy))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert err.count(str(path)) == 1


def test_validate_names_the_config_file_once(capsys, bundle_copy):
    path = bundle_copy / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "features": []}))
    code, out, err = run_cli(capsys, "validate", "--config", str(bundle_copy))
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == f"{path}: no features declared"


# ---------------------------------------------------------------------------
# mincf
# ---------------------------------------------------------------------------


def test_mincf_example1_report(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "mincf", "--config", str(data_dir / "example1"), "--output", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["s_star"]["target"]["bank_balance"] == 60000.0
    assert report["search_space"]["full"] == 48
    assert report["search_space"]["consolidated"] <= 48
    assert report["timing_ms"]["mincf"] >= 0


@pytest.mark.parametrize("bundle", ["example1", "example2", "cars", "german", "adult"])
def test_reported_consolidated_size_is_the_instance_space(capsys, data_dir, bundle):
    """The report's consolidated size is that of the space
    ``consolidate_dataset`` builds for the instance searched: the configured
    one, and an ``--instance`` start, the last decision-positive consistent
    state of the full space."""
    full = load_dataset(data_dir / bundle)
    start = next(s for s in reversed(list(enumerate_states(full.config)))
                 if full.decision_positive(s) and full.consistent(s))
    given = {name: str(v) for name, v in full.config.state_dict(start).items()}
    pairs = ",".join(f"{name}={v}" for name, v in given.items())
    for raw, flags in ((full.config.instance_defaults, ()), (given, ("--instance", pairs))):
        code, out, _ = run_cli(capsys, "mincf", "--config", str(data_dir / bundle),
                               "--output", "json", *flags)
        assert code == 0
        report = json.loads(out)
        assert report["instance"] == raw
        assert report["search_space"] == {
            "full": search_space_size(full.config),
            "consolidated": search_space_size(consolidate_dataset(full, raw).config),
        }


def test_mincf_cost_mode_comparison(capsys, data_dir):
    _, out_p2c, _ = run_cli(
        capsys, "mincf", "--config", str(data_dir / "example2"),
        "--norm", "l0", "--output", "json",
    )
    _, out_all, _ = run_cli(
        capsys, "mincf", "--config", str(data_dir / "example2"),
        "--norm", "l0", "--cost-mode", "all-changes", "--output", "json",
    )
    assert json.loads(out_p2c)["s_star"]["cost"] < json.loads(out_all)["s_star"]["cost"]


def test_mincf_instance_flag_and_k(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "mincf", "--config", str(data_dir / "example1"),
        "--instance", "age=40,debt=5000,loan_duration=12,bank_balance=1000,credit_score=599",
        "--k", "3", "--output", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["knearest"]) == 3
    costs = [r["cost"] for r in report["knearest"]]
    assert costs == sorted(costs)


def test_mincf_k_searches_once(capsys, monkeypatch, data_dir):
    """s* is the first of the k nearest, so --k runs one search and reports
    s* as that first goal."""
    import p2c.search

    calls = []
    nearest = p2c.search._nearest

    def counting(*args):
        calls.append(args[2])
        return nearest(*args)

    monkeypatch.setattr(p2c.search, "_nearest", counting)
    code, out, _ = run_cli(
        capsys, "mincf", "--config", str(data_dir / "german"), "--k", "4", "--output", "json"
    )
    assert code == 0 and calls == [4]
    report = json.loads(out)
    assert report["s_star"] == report["knearest"][0]
    assert report["timing_ms"]["mincf"] >= 0


def test_mincf_already_goal_exit_code_2(capsys, data_dir):
    code, out, err = run_cli(
        capsys, "mincf", "--config", str(data_dir / "example1"),
        "--instance", "age=31,debt=5000,loan_duration=12,bank_balance=70000,credit_score=599",
    )
    assert code == 2
    assert "goal set" in err


def test_mincf_inconsistent_instance_requires_flag(capsys, data_dir):
    bad = "age=31,debt=0,loan_duration=12,bank_balance=40000,credit_score=599"
    code, _, err = run_cli(
        capsys, "mincf", "--config", str(data_dir / "example2"), "--instance", bad
    )
    assert code == 2 and "violates the causal rules" in err
    code2, out, _ = run_cli(
        capsys, "mincf", "--config", str(data_dir / "example2"),
        "--instance", bad, "--repair-inconsistent", "--output", "json",
    )
    assert code2 == 0


def test_mincf_rules_override_rebuilds_numeric_domains(capsys, tmp_path, data_dir):
    alt = tmp_path / "alt.rules"
    alt.write_text("reject(X,'True') :- bank_balance(X,N1), N1=<79999.0.\n")
    code, out, _ = run_cli(
        capsys, "mincf", "--config", str(data_dir / "example1"),
        "--rules", str(alt), "--output", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["s_star"]["target"]["bank_balance"] == 80000.0


def test_mincf_bad_instance_value_exit_1(capsys, data_dir):
    code, _, err = run_cli(
        capsys, "mincf", "--config", str(data_dir / "cars"),
        "--instance", "buying=bogus,maint=low,doors=2,persons=2,lug_boot=small,safety=low",
    )
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize("command", ["mincf", "path"])
def test_instance_naming_no_feature_exit_1(capsys, data_dir, command):
    """A misspelt --instance name is an error line, not dropped and echoed."""
    code, out, err = run_cli(
        capsys, command, "--config", str(data_dir / "example1"), "--output", "json",
        "--instance", "age=31,debt=5000,loan_duration=12,bank_balance=40000,"
                      "credit_score=599,bank_balanse=90000",
    )
    assert code == 1
    assert out == ""
    assert err == "error: --instance names 'bank_balanse', which is not a feature\n"


# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------


def test_path_example2_causal_vs_naive(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "path", "--config", str(data_dir / "example2"), "--output", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["path_legal"] is True
    kinds = [(a["kind"], a["feature"]) for step in report["path"] for a in step["actions"]]
    assert ("causal", "credit_score") in kinds

    code, out, _ = run_cli(
        capsys, "path", "--config", str(data_dir / "example2"),
        "--planner", "naive", "--output", "json",
    )
    report = json.loads(out)
    assert report["path_legal"] is False
    assert any("credit_score" in v for v in report["path_violations"])


def test_path_example1_planners_agree(capsys, data_dir):
    reports = []
    for planner in ("causal", "naive"):
        _, out, _ = run_cli(
            capsys, "path", "--config", str(data_dir / "example1"),
            "--planner", planner, "--output", "json",
        )
        reports.append(json.loads(out))
    assert reports[0]["path_legal"] and reports[1]["path_legal"]
    states0 = [s["state"] for s in reports[0]["path"]]
    states1 = [s["state"] for s in reports[1]["path"]]
    assert states0 == states1
    assert reports[0]["path_ends_at_target"] is True


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_path_max_dpl_below_one_is_rejected(capsys, data_dir, cap):
    with pytest.raises(SystemExit) as exit_info:
        main(["path", "--config", str(data_dir / "example1"), "--max-dpl", cap])
    assert exit_info.value.code == 2
    assert f"argument --max-dpl: must be at least 1, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("norm, p", [("l0", 0), ("l1", 1), ("l2", 2)])
def test_path_norm_reaches_the_planner(capsys, monkeypatch, data_dir, norm, p):
    """example2's config sets norm_p 1: ``path --norm`` prices both s* and
    the planner's goals under the norm asked for, so the plan ends at a goal
    no costlier than s* under it."""
    import p2c.cli

    received = {}
    for name in ("min_cf", "find_path"):
        def recording(*args, _name=name, _fn=getattr(p2c.cli, name), **kwargs):
            received[_name] = kwargs.get("p")
            return _fn(*args, **kwargs)

        monkeypatch.setattr(p2c.cli, name, recording)
    code, out, _ = run_cli(capsys, "path", "--config", str(data_dir / "example2"),
                           "--norm", norm, "--output", "json")
    assert code == 0
    assert received == {"min_cf": p, "find_path": p}
    report = json.loads(out)
    ds = load_dataset(data_dir / "example2")
    start = ds.default_instance()
    end = validate_state(ds.config, report["path"][-1]["state"])
    assert ds.is_goal(end)
    weights, _ = adjust_weights(ds, start, end, ds.config.weights())
    assert compute_weighted_lp(ds.config, start, end, weights, p) <= report["s_star"]["cost"] + 1e-9


def test_path_max_dpl_too_small_exit_2(capsys, data_dir):
    code, _, err = run_cli(
        capsys, "path", "--config", str(data_dir / "example2"), "--max-dpl", "1"
    )
    assert code == 2
    assert "no plan within 1 direct action" in err


# ---------------------------------------------------------------------------
# report encoding
# ---------------------------------------------------------------------------


@pytest.fixture
def c_encoder_only(monkeypatch):
    """json's pure-Python encoder raises: only its C encoder may write."""
    import json.encoder

    def refuse(*args, **kwargs):
        raise AssertionError("the report went through json's pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)


def test_json_reports_are_one_line_from_the_c_encoder(capsys, data_dir, c_encoder_only):
    bundle = str(data_dir / "example2")
    for argv in (["mincf", "--config", bundle, "--k", "20"], ["path", "--config", bundle],
                 ["bench", bundle, "--instances", "3", "--k", "5"]):
        code, out, err = run_cli(capsys, *argv, "--output", "json")
        assert code == 0, err
        assert len(out.splitlines()) == 1 and out.endswith("\n")
        assert isinstance(json.loads(out), dict)


@pytest.mark.parametrize("command", [["mincf", "--k", "20"], ["path"]])
def test_text_output_ends_with_the_json_report(capsys, data_dir, c_encoder_only, command):
    argv = [command[0], "--config", str(data_dir / "example2"), *command[1:], "--output"]
    code, text, _ = run_cli(capsys, *argv, "text")
    assert code == 0
    code, blob, _ = run_cli(capsys, *argv, "json")
    assert code == 0
    lines = text.splitlines()
    assert lines[-2] == "--- report (json) ---"
    as_text, as_json = json.loads(lines[-1]), json.loads(blob)
    assert as_text.pop("timing_ms").keys() == as_json.pop("timing_ms").keys()
    command = as_json.pop("command")
    assert as_text.pop("command") == command.replace("--output json", "--output text")
    assert as_text == as_json


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_parser_is_built_once(capsys, data_dir):
    from p2c.cli import build_parser

    parser = build_parser()
    run_cli(capsys, "validate", "--config", str(data_dir / "cars"))
    assert build_parser() is parser


def test_norm_does_not_leak_into_the_next_call(capsys, data_dir):
    """example1's config sets norm_p 1: a call without --norm after one with
    --norm l2 uses it again."""
    config = ["mincf", "--config", str(data_dir / "example1"), "--output", "json"]
    for argv, p in ((config + ["--norm", "l2"], 2), (config, 1), (config + ["--norm", "l0"], 0),
                    (config, 1)):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["s_star"]["p"] == p


def test_instance_does_not_leak_into_the_next_call(capsys, data_dir):
    bundle = data_dir / "example1"
    defaults = json.loads((bundle / "config.json").read_text())["instance_defaults"]
    given = "age=40,debt=5000,loan_duration=12,bank_balance=1000,credit_score=599"
    for command in ("mincf", "path"):
        argv = [command, "--config", str(bundle), "--output", "json"]
        code, out, _ = run_cli(capsys, *argv, "--instance", given)
        assert code == 0 and json.loads(out)["instance"]["bank_balance"] == "1000"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["instance"] == defaults


def test_help_and_bad_options_on_a_built_parser(capsys, data_dir):
    import p2c.cli

    p2c.cli.build_parser.cache_clear()
    for _ in range(2):  # the first call builds the parser, the second reuses it
        with pytest.raises(SystemExit) as exit_:
            main(["mincf", "--config", str(data_dir / "cars"), "--no-such-option"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert "{validate,mincf,path,bench}" in capsys.readouterr().out
        code, _, _ = run_cli(capsys, "validate", "--config", str(data_dir / "cars"))
        assert code == 0


# ---------------------------------------------------------------------------
# the report's command line
# ---------------------------------------------------------------------------


def test_command_records_the_parsed_argv(capsys, monkeypatch, data_dir):
    monkeypatch.setattr(sys, "argv", ["host.py", "--unrelated"])
    argv = ["mincf", "--config", str(data_dir / "example1"), "--output", "json"]
    _, out, _ = run_cli(capsys, *argv)
    assert json.loads(out)["command"] == " ".join(["p2c", *argv])
    # without argv, main parses sys.argv and records it as given
    monkeypatch.setattr(sys, "argv", ["/bin/p2c", "path", *argv[1:]])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == " ".join(sys.argv)


# ---------------------------------------------------------------------------
# unreadable input
# ---------------------------------------------------------------------------


@pytest.fixture
def bundle_copy(tmp_path, data_dir):
    bundle = tmp_path / "example1"
    shutil.copytree(data_dir / "example1", bundle)
    return bundle


def _spoil(path):
    """Put the byte 0xff, which no UTF-8 text holds, into a comment or string."""
    blob = path.read_bytes()
    if path.suffix == ".json":
        path.write_bytes(blob.replace(b'"example1"', b'"example\xff"', 1))
    else:
        path.write_bytes(b"% \xff\n" + blob)


@pytest.mark.parametrize("spoiled", ["config.json", "decision.rules", "causal.rules"])
def test_non_utf8_file_is_an_error_line(capsys, bundle_copy, spoiled):
    path = bundle_copy / spoiled
    _spoil(path)
    code, out, _ = run_cli(capsys, "validate", "--config", str(bundle_copy))
    assert code == 1
    assert any(line.startswith(f"{path}: ") and "0xff" in line for line in out.splitlines())
    for command in ("mincf", "path"):
        code, out, err = run_cli(capsys, command, "--config", str(bundle_copy))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and "0xff" in err


def test_unreadable_rules_override_is_an_error_line(capsys, bundle_copy, tmp_path):
    spoiled = tmp_path / "spoiled.rules"
    spoiled.write_bytes(b"\xff")
    for rules, what in ((spoiled, "0xff"), (tmp_path / "absent.rules", "missing rules file")):
        for command in ("mincf", "path"):
            code, _, err = run_cli(capsys, command, "--config", str(bundle_copy),
                                   "--rules", str(rules))
            assert code == 1 and str(rules) in err and what in err
        code, out, _ = run_cli(capsys, "validate", "--config", str(bundle_copy),
                               "--rules", str(rules))
        assert code == 1 and out.startswith(f"{rules}: ")


def test_broken_rule_file_is_named_once(capsys, bundle_copy, tmp_path):
    """A syntax error in a bundle's rule file, or a program error in a
    --rules or --causal override, names that file once, as validate does."""

    def assert_named(flags, path, what):
        code, out, _ = run_cli(capsys, "validate", "--config", str(bundle_copy), *flags)
        assert code == 1 and f"{path}: {what}" in out
        for command in ("mincf", "path"):
            code, out, err = run_cli(capsys, command, "--config", str(bundle_copy), *flags)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {path}: {what}") and err.count(str(path)) == 1

    broken = bundle_copy / "decision.rules"
    good = broken.read_text()
    broken.write_text(good.replace("N1=<59999.0.", "N1=<59999.0 :- x."))
    assert_named((), broken, "expected ")
    broken.write_text(good)
    undefined = tmp_path / "undefined.rules"
    undefined.write_text("f(X,'a') :- not ab1(X,'True').\n")
    for flag in ("--rules", "--causal"):
        assert_named((flag, str(undefined)), undefined, "exception predicate 'ab1'")


def test_config_is_read_once(monkeypatch, bundle_copy):
    """The digest covers the config's bytes as read for its JSON."""
    import hashlib
    from pathlib import Path

    from p2c.dataset import load_dataset

    opened = []
    open_ = Path.open

    def counting(self, *args, **kwargs):
        opened.append(self.name)
        return open_(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting)
    dataset = load_dataset(bundle_copy)
    assert sorted(opened) == ["causal.rules", "config.json", "decision.rules"]
    monkeypatch.undo()
    digest = hashlib.sha256()
    for name in ("config.json", "decision.rules", "causal.rules"):
        digest.update((bundle_copy / name).read_bytes())
    assert dataset.digest == digest.hexdigest()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_cars_small(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "bench", str(data_dir / "cars"),
        "--instances", "5", "--seed", "7", "--k", "5", "--output", "json",
    )
    assert code == 0
    summary = json.loads(out)
    row = summary["rows"][0]
    assert row["space_full"] == 1728
    assert row["space_reduced_mean"] < 1728
    assert row["cost_preserved_all"] is True
    assert row["paths_legal"] == 5 and row["naive_paths_illegal"] == 0


def test_bench_deterministic_modulo_timing(data_dir):
    def strip_timing(obj):
        if isinstance(obj, dict):
            return {
                k: strip_timing(v)
                for k, v in obj.items()
                if not k.endswith("_ms") and not k.endswith("_ms_mean")
            }
        if isinstance(obj, list):
            return [strip_timing(v) for v in obj]
        return obj

    a = run_benchmark([data_dir / "cars"], instances=6, seed=11, k=4)
    b = run_benchmark([data_dir / "cars"], instances=6, seed=11, k=4)
    assert json.dumps(strip_timing(a), sort_keys=True, default=str) == json.dumps(
        strip_timing(b), sort_keys=True, default=str
    )
    c = run_benchmark([data_dir / "cars"], instances=6, seed=12, k=4)
    assert json.dumps(strip_timing(a), sort_keys=True, default=str) != json.dumps(
        strip_timing(c), sort_keys=True, default=str
    )


def test_bench_german_mode_ordering(data_dir):
    row = bench_dataset(data_dir / "german", instances=8, seed=3, k=10)
    for norm in ("l0", "l1", "l2"):
        p2c = row["distances_mean"][f"{norm}_p2c"]
        allc = row["distances_mean"][f"{norm}_all_changes"]
        for stat in ("nearest", "furthest", "avg"):
            assert p2c[stat] <= allc[stat] + 1e-12


@pytest.mark.parametrize("argv", [
    ("mincf", "--config", "{data}/example2", "--k", "0"),
    ("mincf", "--config", "{data}/example2", "--k", "-4"),
    ("bench", "{data}/cars", "--k", "0"),
    ("bench", "{data}/cars", "--timing-repeats", "0"),
    ("bench", "{data}/cars", "--instances", "-2"),
], ids=["mincf-k", "mincf-k-negative", "bench-k", "bench-timing-repeats", "bench-instances"])
def test_counts_below_one_are_usage_errors(capsys, data_dir, argv):
    """A count below 1 is refused by the parser (exit 2), not run as k = 1
    or ended in a traceback."""
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(data=data_dir) for a in argv])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err


def test_sampler_refuses_a_space_above_its_cap(monkeypatch):
    """7 features of 6 values make 279936 states, above the cap: the sampler
    raises before it enumerates any of them."""
    import p2c.bench

    def enumerate_states(config):
        raise AssertionError("enumerated a space above the cap")

    monkeypatch.setattr(p2c.bench, "enumerate_states", enumerate_states)
    ds = make_dataset({f"f{i}": tuple(f"v{j}" for j in range(6)) for i in range(7)},
                      "label(X,'bad') :- f0(X,'v0').")
    assert search_space_size(ds.config) == 279936 > SAMPLE_CAP
    with pytest.raises(SpaceTooLargeError, match="cannot enumerate 279936 states"):
        sample_decision_positive(ds, 5, seed=0)


def test_bench_sampling_is_decision_positive(german):
    reduced = consolidate_dataset(german)
    sample = sample_decision_positive(reduced, 15, seed=5)
    assert len(sample) == 15
    assert all(reduced.decision_positive(s) for s in sample)


def test_bench_text_output_renders(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "bench", str(data_dir / "cars"), "--instances", "3", "--seed", "1",
        "--k", "3",
    )
    assert code == 0
    assert "dataset" in out and "cars" in out
    assert "report (json)" in out
