"""Run perfbench on two checkouts in alternating pairs and compare them.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR
    python scripts/bench_pairs.py PARENT CHANGE --workload bundled:10 --workload cli:3 \\
        --seed 3001 --claim bundled:peak_rss_mb --json BENCH_N.json

Each checkout runs its own ``perfbench/run.py`` (the command and run seconds
come from CHANGE_DIR's ``BENCHMARK.json``), one run after the other, the
parent first on even pairs (0, 2, ...) and the change first on odd ones.
Pair ``i`` of a workload runs seed ``--seed + i`` on both.  ``--workload
NAME[:PAIRS]`` picks the workloads and their pairs (default: every workload
of ``BENCHMARK.json``, 10 pairs each).

For each workload and end-to-end metric it prints both medians and quartile
ranges, the parent's interquartile range, the pairs the change won and the
verdict on the metric's ``BENCHMARK.json`` bound: the change's median may
be worse than the parent's by at most that fraction.  A ``--claim
WORKLOAD:METRIC`` is met when the change wins at least nine in ten pairs and
its median is better than the parent's by more than the parent's
interquartile range.  Quartiles are ``statistics.quantiles(method=
"inclusive")``.  ``--json`` writes the figures in the layout of the
``BENCH_*.json`` files.  Nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # a workload's pairs when --workload names none


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """The result object (the last stdout line) of one perfbench run."""
    cmd = [sys.executable if command[0] in ("python", "python3") else command[0],
           *command[1:], "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(runs: list[float]) -> tuple[float, float]:
    if len(runs) < 2:
        return runs[0], runs[0]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, q3


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's figures over the pairs, rounded as the BENCH files are."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    rel = (c_med - p_med) / p_med
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "change_vs_parent": round(rel, 4),
        "change_wins": f"{wins}/{len(parent)}",
        "parent_iqr": round(p_q[1] - p_q[0], 4),
        "bound": metric["bound"],
        "within_bound": sign * rel <= metric["bound"],
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
        "parent_quartiles": [round(v, 4) for v in p_q],
        "change_quartiles": [round(v, 4) for v in c_q],
    }


def claim_met(metric: dict, row: dict) -> bool:
    wins, pairs = map(int, row["change_wins"].split("/"))
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gain = sign * (row["parent_median"] - row["change_median"])
    return wins >= math.ceil(0.9 * pairs) and gain > row["parent_iqr"]


def bench_workload(dirs: dict[str, Path], bench: dict, workload: str, pairs: int,
                   first_seed: int, seconds: float) -> dict:
    seeds = [first_seed + i for i in range(pairs)]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    order = []
    for i, seed in enumerate(seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append(sides[0])
        for side in sides:
            runs[side].append(run_once(dirs[side], bench["command"], workload, seed, seconds))
        print(f"  {workload} pair {i + 1}/{pairs} (seed {seed}) done", file=sys.stderr)
    return {
        "seeds": seeds,
        "pairs": pairs,
        "first_in_pair": order,
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "metrics": {
            m["name"]: compare(m, *([r["metrics"][m["name"]]["value"] for r in runs[side]]
                                    for side in SIDES))
            for m in bench["end_to_end"]
        },
    }


def print_workload(name: str, row: dict) -> None:
    print(f"{name}: {row['pairs']} pairs, seeds {row['seeds'][0]}-{row['seeds'][-1]}, "
          f"failed {row['failed']['parent']}/{row['failed']['change']} "
          f"(parent/change), correct {row['correct']}")
    print(f"  {'metric':<14}{'parent median [q1, q3]':>30}{'change median [q1, q3]':>30}"
          f"{'change':>9}{'wins':>7}{'parent IQR':>12}{'bound':>7}  verdict")
    for metric, m in row["metrics"].items():
        p = f"{m['parent_median']:g} [{m['parent_quartiles'][0]:g}, {m['parent_quartiles'][1]:g}]"
        c = f"{m['change_median']:g} [{m['change_quartiles'][0]:g}, {m['change_quartiles'][1]:g}]"
        verdict = "within bound" if m["within_bound"] else "WORSE than bound"
        print(f"  {metric:<14}{p:>30}{c:>30}{m['change_vs_parent']:>+9.1%}"
              f"{m['change_wins']:>7}{m['parent_iqr']:>12g}{m['bound']:>7g}  {verdict}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent commit's checkout")
    ap.add_argument("change", type=Path, help="the change's checkout")
    ap.add_argument("--workload", action="append", default=[], metavar="NAME[:PAIRS]",
                    help="a workload and its pairs (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="a metric the change claims to improve (repeatable)")
    ap.add_argument("--json", type=Path, help="write the figures to this file")
    ap.add_argument("--describe", default="", help="the change, for the JSON file")
    ap.add_argument("--parent-commit", default="", help="the parent's commit, for the JSON file")
    args = ap.parse_args()

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    known = [w["name"] for w in bench["workloads"]]
    plan = []
    for entry in args.workload or known:
        name, _, pairs = entry.partition(":")
        if name not in known:
            ap.error(f"unknown workload {name!r}; BENCHMARK.json has {', '.join(known)}")
        plan.append((name, int(pairs) if pairs else PAIRS))
    if any(pairs < 1 for _, pairs in plan):
        ap.error("every workload needs at least one pair")
    claims = [c.partition(":")[::2] for c in args.claim]
    for workload, metric in claims:
        if workload not in dict(plan) or metric not in metrics:
            ap.error(f"claim {workload}:{metric} names no benched workload and metric")
    seconds = bench["run_seconds"]

    rows = {name: bench_workload(dirs, bench, name, pairs, args.seed, seconds)
            for name, pairs in plan}
    for name, row in rows.items():
        print_workload(name, row)
    claim = {}
    for workload, metric in claims:
        row = rows[workload]["metrics"][metric]
        fields = ("parent_median", "change_median", "change_vs_parent", "change_wins",
                  "parent_iqr")
        claim[f"{workload}_{metric}"] = {**{k: row[k] for k in fields},
                                         "met": claim_met(metrics[metric], row)}
        print(f"claim {workload} {metric}: "
              f"{'met' if claim[f'{workload}_{metric}']['met'] else 'NOT met'} "
              f"(wins {row['change_wins']}, median {row['parent_median']:g} -> "
              f"{row['change_median']:g}, parent IQR {row['parent_iqr']:g})")

    if args.json:
        command = " ".join([*bench["command"], "--workload W --seed S", f"--seconds {seconds:g}"])
        out = {
            "change": args.describe,
            "parent_commit": args.parent_commit,
            "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "arch": platform.machine(), "system": platform.system()},
            "benchmark": {
                "command": command,
                "protocol": (
                    "parent and change run one after the other from separate checkouts, "
                    "alternating which runs first (parent first on even pairs); pair i of a "
                    "workload runs seed " f"{args.seed}+i; "
                    + ", ".join(f"{pairs} {name} pairs" for name, pairs in plan)
                    + "; every run made is in the table"),
            },
            "claim": claim,
            "workloads": rows,
        }
        args.json.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
