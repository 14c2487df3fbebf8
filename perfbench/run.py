"""Benchmark entry point.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Runs from the root of a p2c checkout.  Each workload runs in fresh worker
processes (``worker.py``): one warm-up process, then set-up probes and one
timed process (``--trace 0``) or one traced process (``--trace 1``).  Prints a
line of reference figures (raw wall times, kernel timings, rounds), then, as
the last line, the result object with the end-to-end or per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bundled", "ladder", "plan", "cli")
# fresh processes that only set up, half before and half after the timed process,
# so that they meet the host at two moments; set-up time is their median
SETUP_PROBES = 12
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("p2c.import_ms", "ms"),
    ("rules.parse_ms", "ms"),
    ("dataset.load_ms", "ms"),
    ("dataset.load_calls", "count"),
    ("dataset.consolidate_ms", "ms"),
    ("consistency.goal_tests", "count"),
    ("consistency.goal_test_us", "us"),
    ("consistency.checks", "count"),
    ("consistency.check_us", "us"),
    ("search.min_cf_ms", "ms"),
    ("search.min_cf_self_ms", "ms"),
    ("search.knearest_ms", "ms"),
    ("search.knearest_goal_tests", "count"),
    ("planner.find_path_ms", "ms"),
    ("planner.find_path_self_ms", "ms"),
    ("planner.find_path_checks", "count"),
    ("planner.legality_ms", "ms"),
    ("planner.naive_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.self_ms", "ms"),
)


class WorkerFailed(Exception):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
    ]
    # a fixed hash seed keeps set iteration, and so every per-layer count, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded the run's time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "p2c" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"perfbench: no p2c sources (src/p2c) and bundles (data/) under {ROOT}",
              file=sys.stderr)
        return 2
    try:
        spawn(args, "setup", deadline)  # warm-up: byte-code and file caches
        if args.trace:
            result = spawn(args, "traced", deadline)
            metrics = {name: result["layers"][name] for name, _ in PER_LAYER}
            units = PER_LAYER
        else:
            probes = [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES // 2)]
            result = spawn(args, "timed", deadline)
            probes += [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES // 2)]
            setups = [p["setup_s"] for p in probes] + [result["setup_s"]]
            raw_setups = [p["raw_setup_s"] for p in probes] + [result["raw_setup_s"]]
            metrics = dict(result["normalised"], setup_s=statistics.median(setups),
                           peak_rss_mb=result["peak_rss_mb"])
            result["raw"]["setup_s"] = statistics.median(raw_setups)
            units = END_TO_END
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reference = {key: result[key] for key in (
        "queries", "rounds", "tail_percentile", "kernel_ms", "raw",
        "normalised", "failures",
    )}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "reference": reference}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
