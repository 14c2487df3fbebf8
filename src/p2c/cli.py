"""Command-line interface: validate, mincf, path, bench.

Exit codes: 0 success, 1 validation/config/parse failure, 2 search failures
(no counterfactual, already in the goal set, inconsistent start, exhausted).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from typing import Callable

from .dataset import bundle_dataset, consolidated_size, load_dataset, read_config, rule_file
# not called here, but perfbench/tracing.py patches every entry point on this module
from .dataset import consolidate_dataset  # noqa: F401
from .domain import NORM_NAMES, search_space_size, validate_state
from .errors import (
    AlreadyCounterfactualError,
    CausalProgramError,
    ConfigError,
    EvaluationError,
    InconsistentInitialStateError,
    NoCounterfactualError,
    P2CError,
    RuleProgramError,
    RuleSyntaxError,
    SearchExhaustedError,
    StateValidationError,
)
from .planner import find_path, naive_find_path, path_is_legal
from .rules import parse_rule_program
from .search import goal_knearest, min_cf

VALIDATION_ERRORS = (
    RuleSyntaxError,
    RuleProgramError,
    ConfigError,
    StateValidationError,
    EvaluationError,
    CausalProgramError,
)
SEARCH_ERRORS = (
    NoCounterfactualError,
    AlreadyCounterfactualError,
    InconsistentInitialStateError,
    SearchExhaustedError,
)

NORM_P = {name: p for p, name in NORM_NAMES.items()}


def _parse_instance(pairs: list[str]) -> dict[str, str]:
    raw: dict[str, str] = {}
    for chunk in pairs:
        for part in chunk.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise StateValidationError(
                    f"--instance entries look like NAME=VALUE, got {part!r}"
                )
            key, value = part.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_instance(dataset, args):
    raw = _parse_instance(args.instance or [])
    if unknown := [name for name in raw if not dataset.config.has_feature(name)]:
        raise StateValidationError(f"--instance names {unknown[0]!r}, which is not a feature")
    if not raw:
        if dataset.config.instance_defaults is None:
            raise StateValidationError(
                "no --instance given and the config declares no instance_defaults"
            )
        raw = dict(dataset.config.instance_defaults)
    return raw, validate_state(dataset.config, raw)


def _load_for_search(args):
    dataset = load_dataset(args.config, args.rules, args.causal)
    if args.norm is None:  # no --norm: the config's norm applies
        args.norm = NORM_NAMES[dataset.config.norm_p]
    return dataset


def _emit(report: dict, output: str, text: Callable[[], str]) -> None:
    """Print ``report`` as one compact JSON line with sorted keys, after
    ``text()`` and a header line under ``--output text``.  Without ``indent``
    json encodes in C."""
    blob = json.dumps(report, sort_keys=True, default=str)
    if output == "text":
        print(text())
        print("--- report (json) ---")
    print(blob)


def cmd_validate(args) -> int:
    ok = True
    try:
        config_path, blob, cfg = read_config(args.config)
    except ConfigError as exc:
        print(exc)
        return 1
    programs = []  # (text, parsed) per rule file, handed on so each is parsed once
    for kind, override in (("decision", args.rules), ("causal", args.causal)):
        path = rule_file(config_path, cfg, kind, override)
        try:
            text = path.read_text(encoding="utf-8")
            programs.append((text, parse_rule_program(text, kind)))
            print(f"{path}: ok")
        except (OSError, UnicodeDecodeError, *VALIDATION_ERRORS) as exc:
            print(f"{path}: {exc}")
            ok = False
    if not ok:
        return 1
    try:
        dataset = bundle_dataset(config_path, (blob, cfg), *programs)
    except VALIDATION_ERRORS as exc:
        print(exc)  # bundle_dataset's errors name the config file already
        return 1
    try:
        dataset.compiled  # two causal alternatives that fire together are found here
    except VALIDATION_ERRORS as exc:
        print(f"{config_path}: {exc}")
        return 1
    print(f"{config_path}: ok ({len(dataset.config.features)} features, "
          f"search space {search_space_size(dataset.config)})")
    for w in dataset.warnings:
        print(f"warning: {w}")
    return 0


def _base_report(args, dataset, raw_instance) -> dict:
    return {
        "command": args.command,
        "dataset": dataset.config.name,
        "config_digest": dataset.digest,
        "instance": raw_instance,
        "search_space": {
            "full": search_space_size(dataset.config),
            "consolidated": consolidated_size(dataset, raw_instance),
        },
        "timing_ms": {},
    }


def cmd_mincf(args) -> int:
    t0 = time.perf_counter()
    dataset = _load_for_search(args)
    raw, instance = _resolve_instance(dataset, args)
    report = _base_report(args, dataset, raw)
    report["timing_ms"]["load"] = (time.perf_counter() - t0) * 1000.0
    mode = args.cost_mode.replace("-", "_")
    on_inc = "allow" if args.repair_inconsistent else "error"
    t1 = time.perf_counter()
    kw = dict(p=NORM_P[args.norm], mode=mode, on_inconsistent=on_inc)
    if args.k > 1:  # s* is the first of the k nearest, so one search answers both
        reports = goal_knearest(dataset, instance, args.k, **kw)
    else:
        reports = [min_cf(dataset, instance, **kw)]
    report["timing_ms"]["mincf"] = (time.perf_counter() - t1) * 1000.0
    report["s_star"] = reports[0].to_json(dataset.config)
    if args.k > 1:
        report["knearest"] = [r.to_json(dataset.config) for r in reports]
    _emit(report, args.output, lambda: _mincf_text(args, dataset.config, instance, reports))
    return 0


def _mincf_text(args, config, instance, reports) -> str:
    result = reports[0]
    lines = [
        f"minimal counterfactual for {config.name} "
        f"(norm {args.norm}, mode {args.cost_mode}):",
        f"  cost: {result.cost}",
    ]
    start = config.state_dict(instance)
    for name, value in config.state_dict(result.target).items():
        was = start[name]
        if value == was:
            lines.append(f"  {name}: {value!r}")
        else:
            marker = " (causal, free)" if name in result.causal_free_features else " (changed)"
            lines.append(f"  {name}: {was!r} -> {value!r}{marker}")
    if args.k > 1:
        lines.append(f"  {len(reports)} nearest goal states: costs "
                     f"{[round(r.cost, 6) for r in reports]}")
    return "\n".join(lines)


def cmd_path(args) -> int:
    t0 = time.perf_counter()
    dataset = _load_for_search(args)
    raw, instance = _resolve_instance(dataset, args)
    report = _base_report(args, dataset, raw)
    report["timing_ms"]["load"] = (time.perf_counter() - t0) * 1000.0
    on_inc_search = "allow" if args.repair_inconsistent else "error"
    p = NORM_P[args.norm]
    t1 = time.perf_counter()
    result = min_cf(dataset, instance, p=p, on_inconsistent=on_inc_search)
    report["timing_ms"]["mincf"] = (time.perf_counter() - t1) * 1000.0
    report["s_star"] = result.to_json(dataset.config)
    t2 = time.perf_counter()
    if args.planner == "causal":
        path = find_path(
            dataset,
            instance,
            result.target,
            p=p,
            max_dpl=args.max_dpl,
            on_inconsistent="repair" if args.repair_inconsistent else "error",
        )
    else:
        path = naive_find_path(dataset, instance, result.target)
    report["timing_ms"]["path"] = (time.perf_counter() - t2) * 1000.0
    legal, violations = path_is_legal(dataset, path)
    report["planner"] = args.planner
    report["path"] = path.to_json(dataset.config)
    report["path_legal"] = legal
    report["path_violations"] = violations
    report["path_ends_at_target"] = path.end == result.target
    _emit(report, args.output, lambda: _path_text(report, path.direct_action_count()))
    return 0


def _path_text(report: dict, direct_actions: int) -> str:
    lines = [f"path ({report['planner']} planner, {direct_actions} direct action(s)):"]
    for step in report["path"]:
        for act in step["actions"]:
            lines.append(f"  {act['kind']}: {act['feature']} -> {act['new_value']!r}")
    lines.append(f"  legal: {report['path_legal']}")
    if not report["path_legal"]:
        for v in report["path_violations"]:
            lines.append(f"    violation: {v}")
    if not report["path_ends_at_target"]:
        lines.append("  note: path ends at a goal state of the same cost as s*, not at s* itself")
    return "\n".join(lines)


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    summary = bench_mod.run_benchmark(
        args.datasets,
        instances=args.instances,
        seed=args.seed,
        k=args.k,
        timing_repeats=args.timing_repeats,
    )
    summary["command"] = args.command
    if not args.per_instance:
        for row in summary["rows"]:
            row.pop("per_instance", None)
    _emit(summary, args.output, lambda: bench_mod.format_summary(summary))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged
    and returns a fresh namespace each call."""
    parser = argparse.ArgumentParser(
        prog="p2c",
        description="Causally compliant counterfactuals with ordered intervention paths.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_instance=True):
        p.add_argument("--config", required=True, help="dataset directory or config.json path")
        p.add_argument("--rules", help="override the decision rules file")
        p.add_argument("--causal", help="override the causal rules file")
        p.add_argument("--output", choices=["json", "text"], default="text")
        if with_instance:
            p.add_argument(
                "--instance",
                action="append",
                metavar="KEY=VALUE,...",
                help="factual instance; defaults to the config's instance_defaults",
            )
            p.add_argument("--norm", choices=list(NORM_P), default=None)
            p.add_argument(
                "--repair-inconsistent",
                action="store_true",
                help="accept a causally inconsistent start and plan its repair",
            )

    p_validate = sub.add_parser("validate", help="check config and rule files")
    common(p_validate, with_instance=False)
    p_validate.set_defaults(func=cmd_validate)

    p_mincf = sub.add_parser("mincf", help="find the minimal counterfactual")
    common(p_mincf)
    p_mincf.add_argument("--cost-mode", choices=["p2c", "all-changes", "all_changes"], default="p2c")
    p_mincf.add_argument("--k", type=_at_least_one, default=1,
                         help="also list the k nearest goal states (at least 1)")
    p_mincf.set_defaults(func=cmd_mincf)

    p_path = sub.add_parser("path", help="plan a path to the minimal counterfactual")
    common(p_path)
    p_path.add_argument("--planner", choices=["causal", "naive"], default="causal")
    p_path.add_argument("--max-dpl", type=_at_least_one, default=None,
                        help="cap on direct actions (at least 1)")
    p_path.set_defaults(func=cmd_path)

    p_bench = sub.add_parser("bench", help="seeded benchmark over dataset bundles")
    p_bench.add_argument("datasets", nargs="+", help="dataset directories")
    p_bench.add_argument("--instances", type=_at_least_one, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--k", type=_at_least_one, default=20)
    p_bench.add_argument("--timing-repeats", type=_at_least_one, default=1)
    p_bench.add_argument("--per-instance", action="store_true", help="keep per-instance rows")
    p_bench.add_argument("--output", choices=["json", "text"], default="text")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "planner", None) == "naive" and args.max_dpl is not None:
        parser.error("argument --max-dpl: not allowed with --planner naive, which takes "
                     "no cap on direct actions")
    args.command = " ".join(sys.argv if argv is None else [parser.prog, *argv])
    try:
        return args.func(args)
    except SEARCH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except P2CError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
