"""Command-line interface: validate, mincf, path, bench.

Exit codes: 0 success, 1 validation/config/parse failure, 2 search failures
(no counterfactual, already in the goal set, inconsistent start, exhausted).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
# consolidate_dataset stays importable from here for the benchmark's tracer
from .dataset import consolidate_dataset, load_dataset  # noqa: F401
from .domain import consolidate_placeholders, search_space_size, validate_state
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
    SpaceTooLargeError,
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
    SpaceTooLargeError,
)

NORMS = {"l0": 0, "l1": 1, "l2": 2}
NORM_NAMES = {p: name for name, p in NORMS.items()}


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


def _resolve_instance(dataset, args):
    raw = _parse_instance(args.instance or [])
    if not raw:
        if dataset.config.instance_defaults is None:
            raise StateValidationError(
                "no --instance given and the config declares no instance_defaults"
            )
        raw = dict(dataset.config.instance_defaults)
    return raw, validate_state(dataset.config, raw)


def _load(args):
    decision_text = Path(args.rules).read_text(encoding="utf-8") if args.rules else None
    causal_text = Path(args.causal).read_text(encoding="utf-8") if args.causal else None
    return load_dataset(args.config, decision_text=decision_text, causal_text=causal_text)


def _load_for_search(args):
    dataset = _load(args)
    if args.norm is None:  # no --norm: the config's norm applies
        args.norm = NORM_NAMES[dataset.config.norm_p]
    return dataset


def _emit(report: dict, text: str, output: str) -> None:
    blob = json.dumps(report, indent=2, sort_keys=True, default=str)
    if output == "json":
        print(blob)
    else:
        print(text)
        print("--- report (json) ---")
        print(blob)


def cmd_validate(args) -> int:
    ok = True
    root = Path(args.config)
    config_path = root / "config.json" if root.is_dir() else root
    base = config_path.parent
    try:
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{config_path}: {exc}")
        return 1
    for key, kind in (("decision_rules", "decision"), ("causal_rules", "causal")):
        rel = args.rules if (key == "decision_rules" and args.rules) else None
        rel = args.causal if (key == "causal_rules" and args.causal) else rel
        path = Path(rel) if rel else base / cfg.get(key, f"{kind}.rules")
        try:
            parse_rule_program(path.read_text(encoding="utf-8"), kind)
            print(f"{path}: ok")
        except OSError as exc:
            print(f"{path}: {exc}")
            ok = False
        except VALIDATION_ERRORS as exc:
            print(f"{path}: {exc}")
            ok = False
    if ok:
        try:
            dataset = _load(args)
            print(f"{config_path}: ok ({len(dataset.config.features)} features, "
                  f"search space {search_space_size(dataset.config)})")
            for w in dataset.warnings:
                print(f"warning: {w}")
        except VALIDATION_ERRORS as exc:
            print(f"{config_path}: {exc}")
            ok = False
    return 0 if ok else 1


def _base_report(args, dataset, raw_instance) -> dict:
    # only the consolidated space's size is reported, so no Dataset is built for it
    config = replace(dataset.config, instance_defaults=dict(raw_instance))
    reduced = consolidate_placeholders(config, (dataset.decision, dataset.causal))
    return {
        "command": " ".join(sys.argv),
        "dataset": dataset.config.name,
        "config_digest": dataset.digest,
        "instance": raw_instance,
        "search_space": {
            "full": search_space_size(dataset.config),
            "consolidated": search_space_size(reduced),
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
    result = min_cf(dataset, instance, p=NORMS[args.norm], mode=mode, on_inconsistent=on_inc)
    report["timing_ms"]["mincf"] = (time.perf_counter() - t1) * 1000.0
    report["s_star"] = result.to_json(dataset.config)
    lines = [
        f"minimal counterfactual for {dataset.config.name} "
        f"(norm {args.norm}, mode {args.cost_mode}):",
        f"  cost: {result.cost}",
    ]
    for name, value in dataset.config.state_dict(result.target).items():
        was = dataset.config.state_dict(instance)[name]
        marker = ""
        if value != was:
            marker = " (causal, free)" if name in result.causal_free_features else " (changed)"
        lines.append(f"  {name}: {was!r} -> {value!r}{marker}" if value != was else f"  {name}: {value!r}")
    if args.k > 1:
        t2 = time.perf_counter()
        reports = goal_knearest(
            dataset, instance, args.k, p=NORMS[args.norm], mode=mode, on_inconsistent=on_inc
        )
        report["timing_ms"]["knearest"] = (time.perf_counter() - t2) * 1000.0
        report["knearest"] = [r.to_json(dataset.config) for r in reports]
        lines.append(f"  {len(reports)} nearest goal states: costs "
                     f"{[round(r.cost, 6) for r in reports]}")
    _emit(report, "\n".join(lines), args.output)
    return 0


def cmd_path(args) -> int:
    t0 = time.perf_counter()
    dataset = _load_for_search(args)
    raw, instance = _resolve_instance(dataset, args)
    report = _base_report(args, dataset, raw)
    report["timing_ms"]["load"] = (time.perf_counter() - t0) * 1000.0
    on_inc_search = "allow" if args.repair_inconsistent else "error"
    t1 = time.perf_counter()
    result = min_cf(dataset, instance, p=NORMS[args.norm], on_inconsistent=on_inc_search)
    report["timing_ms"]["mincf"] = (time.perf_counter() - t1) * 1000.0
    report["s_star"] = result.to_json(dataset.config)
    t2 = time.perf_counter()
    if args.planner == "causal":
        path = find_path(
            dataset,
            instance,
            result.target,
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
    lines = [f"path ({args.planner} planner, {path.direct_action_count()} direct action(s)):"]
    for step in path.to_json(dataset.config):
        for act in step["actions"]:
            lines.append(f"  {act['kind']}: {act['feature']} -> {act['new_value']!r}")
    lines.append(f"  legal: {legal}")
    if not legal:
        for v in violations:
            lines.append(f"    violation: {v}")
    if not report["path_ends_at_target"]:
        lines.append("  note: path ends at a nearer goal state, not the cost-minimal one")
    _emit(report, "\n".join(lines), args.output)
    return 0


def cmd_bench(args) -> int:
    summary = bench_mod.run_benchmark(
        args.datasets,
        instances=args.instances,
        seed=args.seed,
        k=args.k,
        timing_repeats=args.timing_repeats,
    )
    summary["command"] = " ".join(sys.argv)
    if not args.per_instance:
        for row in summary["rows"]:
            row.pop("per_instance", None)
    _emit(summary, bench_mod.format_summary(summary), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
            p.add_argument("--norm", choices=list(NORMS), default=None)
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
    p_mincf.add_argument("--k", type=int, default=1, help="also list the k nearest goal states")
    p_mincf.set_defaults(func=cmd_mincf)

    p_path = sub.add_parser("path", help="plan a path to the minimal counterfactual")
    common(p_path)
    p_path.add_argument("--planner", choices=["causal", "naive"], default="causal")
    p_path.add_argument("--max-dpl", type=int, default=None, help="cap on direct actions")
    p_path.set_defaults(func=cmd_path)

    p_bench = sub.add_parser("bench", help="seeded benchmark over dataset bundles")
    p_bench.add_argument("datasets", nargs="+", help="dataset directories")
    p_bench.add_argument("--instances", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--k", type=int, default=20)
    p_bench.add_argument("--timing-repeats", type=int, default=1)
    p_bench.add_argument("--per-instance", action="store_true", help="keep per-instance rows")
    p_bench.add_argument("--output", choices=["json", "text"], default="text")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SEARCH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except P2CError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
