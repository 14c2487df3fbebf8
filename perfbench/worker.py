"""One workload in one fresh process: set-up, closed-loop timed rounds, checks.

    python3 perfbench/worker.py --workload ladder --seed 1 --mode timed --seconds 20

``--mode setup`` only measures set-up; ``timed`` runs the rounds with no
tracing; ``traced`` runs them with spans around the program's entry points.
One caller sends one query at a time and waits for its answer.  Every round
runs every query once, so the share of failed operations does not depend on
how many rounds fit.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from kernel import NOMINAL_KERNEL_S, DriftClock, kernel_seconds  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

K_NEAREST = 20
SETUP_KERNEL_RUNS = 8  # set-up is bracketed once per process, so by the fastest of more timings


class Op:
    """One query: what to call, and how to check and compare its answer."""

    def __init__(self, fn, args, check, signature=lambda r: r):
        self.fn, self.args, self.check, self.signature = fn, args, check, signature

    def call(self):
        """The answer, or the exception the program raised instead."""
        try:
            return self.fn(*self.args)
        except Exception as exc:  # noqa: BLE001 - a raising query is a failed operation
            return exc

    def problems(self, result) -> list[str]:
        if isinstance(result, Exception):
            return [f"raised {type(result).__name__}: {result}"]
        return self.check(result)

    def same(self, a, b) -> bool:
        if isinstance(a, Exception) or isinstance(b, Exception):
            return repr(a) == repr(b)
        return self.signature(a) == self.signature(b)


def plain_plan(path):
    return [
        (step.state.values, [(a.kind, a.feature, a.new_value) for a in step.actions])
        for step in path.steps
    ]


# -- bundled ------------------------------------------------------------------


class Bundled:
    """The paper's evaluation loop on the five shipped bundles."""

    def __init__(self, seed: int):
        self.seed = seed
        self.bundles = {b: inputs.read_bundle(ROOT / "data" / b) for b in inputs.BUNDLES}

    def setup(self) -> None:
        from p2c import dataset

        self.full = {b: dataset.load_dataset(ROOT / "data" / b) for b in inputs.BUNDLES}

    def ops(self) -> list[Op]:
        from p2c import dataset

        ops = []
        for b in inputs.BUNDLES:
            rng = inputs.bundle_rng("bundled", self.seed, b)
            raw, dec, cau = self.bundles[b]
            space = dataset.consolidate_dataset(self.full[b]).config
            model = inputs.bundle_model(raw, dec, cau, {f.name: f.domain for f in space.features})
            merged = {f.name: dict(f.merged) for f in space.features}
            p = int(raw.get("norm_p", 1))
            for inst in inputs.sample_rejected(model, merged, inputs.BUNDLED_PER_BUNDLE[b], rng):
                ops.append(Op(
                    bundled_query, (self.full[b], inst),
                    lambda r, m=model, inst=inst, p=p: check_bundled(m, inst, p, r),
                    signature=lambda r: r[2:],
                ))
        return ops


def bundled_query(full, raw):
    from p2c import dataset, domain, planner, search

    red = dataset.consolidate_dataset(full, raw)
    inst = domain.validate_state(red.config, raw)
    best = search.min_cf(red, inst, on_inconsistent="allow")
    near = search.goal_knearest(red, inst, K_NEAREST, mode="p2c", on_inconsistent="allow")
    near_all = search.goal_knearest(
        red, inst, K_NEAREST, mode="all_changes", on_inconsistent="allow"
    )
    plan = planner.find_path(red, inst, best.target, on_inconsistent="repair")
    legal, _ = planner.path_is_legal(red, plan)
    naive = planner.naive_find_path(red, inst, best.target)
    naive_legal, _ = planner.path_is_legal(red, naive)
    return red, inst, best, near, near_all, plan, legal, naive, naive_legal


def check_bundled(model, raw, p, result):
    red, inst, best, near, near_all, plan, legal, naive, naive_legal = result
    m = model.with_domains({f.name: f.domain for f in red.config.features})
    source = m.resolve(raw)
    problems = [] if inst.values == source else ["instance resolved to another state"]
    scan = m.goal_costs(source, p, "p2c")
    scan_all = m.goal_costs(source, p, "all_changes")
    problems += oracle.check_min_cf(m, source, best.target.values, best.cost, p,
                                    scan[0] if scan else None)
    for listed, mode, costs in ((near, "p2c", scan), (near_all, "all_changes", scan_all)):
        problems += oracle.check_knearest(
            m, source, [(r.target.values, r.cost) for r in listed], K_NEAREST, p, mode,
            best.cost, costs,
        )
    if near and near_all and near[0].cost > near_all[0].cost + oracle.TOL:
        problems.append("p2c nearest costs more than the all-changes nearest")
    problems += oracle.check_causal_plan(m, source, plain_plan(plan), legal, p, best.cost)
    problems += oracle.check_naive_plan(m, source, plain_plan(naive), naive_legal,
                                        best.target.values)
    return problems


# -- ladder and plan ------------------------------------------------------------


class Synthetic:
    """Generated spaces: ``ladder`` (min_cf's wall) or ``plan`` (long plans)."""

    def __init__(self, seed: int, kind: str):
        self.spaces = inputs.ladder_spaces(seed) if kind == "ladder" else inputs.plan_spaces(seed)

    def setup(self) -> None:
        from p2c import dataset, domain, rules

        self.datasets = []
        for space in self.spaces:
            features = tuple(
                domain.FeatureSpec(
                    name=f.name, kind="categorical", domain=f.domain, weight=f.weight,
                    mutable=f.mutable, monotone=f.monotone, directly_actionable=f.actionable,
                )
                for f in space.model.features
            )
            config = domain.DatasetConfig(
                name=space.name, features=features, undesired_decision="bad", norm_p=1
            )
            self.datasets.append(dataset.build_dataset(
                config,
                rules.parse_rule_program(space.decision_text, "decision"),
                rules.parse_rule_program(space.causal_text, "causal"),
            ))

    def ops(self) -> list[Op]:
        from p2c.domain import State

        return [
            Op(search_query, (ds, State(inst)),
               lambda r, sp=space, inst=inst: check_synthetic(sp, inst, r))
            for space, ds in zip(self.spaces, self.datasets)
            for inst in space.instances
        ]


def search_query(ds, inst):
    from p2c import planner, search

    best = search.min_cf(ds, inst, on_inconsistent="allow")
    plan = planner.find_path(ds, inst, best.target, on_inconsistent="repair")
    legal, _ = planner.path_is_legal(ds, plan)
    return best, plan, legal


def check_synthetic(space, inst, result):
    best, plan, legal = result
    m = space.model
    problems = []
    optimum = space.optimum
    if space.exhaustive:
        scan = m.goal_costs(inst, 1, "p2c")
        if not scan or not oracle.close(scan[0], optimum):
            problems.append(f"generator's optimum {optimum} disagrees with the scan")
    ceiling = m.cost(inst, space.witness, 1) if space.witness is not None else None
    problems += oracle.check_min_cf(m, inst, best.target.values, best.cost, 1, optimum, ceiling)
    return problems + oracle.check_causal_plan(m, inst, plain_plan(plan), legal, 1, best.cost)


# -- cli ------------------------------------------------------------------------


class Cli:
    """One-shot ``p2c.cli.main`` calls, stdout captured."""

    def __init__(self, seed: int):
        self.seed = seed
        self.bundles = {b: inputs.read_bundle(ROOT / "data" / b) for b in inputs.BUNDLES}

    def setup(self) -> None:
        import p2c.cli  # noqa: F401

    def ops(self) -> list[Op]:
        from p2c import dataset

        ops = []
        for b in inputs.BUNDLES:
            rng = inputs.bundle_rng("cli", self.seed, b)
            raw, dec, cau = self.bundles[b]
            path = str(ROOT / "data" / b)
            full = dataset.load_dataset(path)
            model = inputs.bundle_model(
                raw, dec, cau, {f.name: f.domain for f in full.config.features}
            )
            space = dataset.consolidate_dataset(full).config
            sample_model = model.with_domains({f.name: f.domain for f in space.features})
            merged = {f.name: dict(f.merged) for f in space.features}
            p = int(raw.get("norm_p", 1))
            ops.append(Op(cli_query, (["validate", "--config", path],), check_validate))
            starts = [None] + inputs.sample_rejected(sample_model, merged,
                                                     inputs.CLI_SAMPLED_PER_BUNDLE, rng)
            for inst in starts:
                source = model.resolve(raw["instance_defaults"] if inst is None else inst)
                argv = ["--config", path, "--output", "json"]
                if inst is not None:  # None: the bundle's configured instance
                    if any("," in str(v) for v in inst.values()):
                        raise ValueError(f"{b}: a value with a comma cannot pass --instance")
                    argv += ["--instance", ",".join(f"{k}={v}" for k, v in inst.items())]
                if not model.consistent(source):
                    argv.append("--repair-inconsistent")
                ops.append(Op(cli_query, (["mincf", *argv, "--k", str(K_NEAREST)],),
                              lambda r, m=model, s=source, p=p: check_cli_mincf(m, s, p, r),
                              signature=cli_signature))
                ops.append(Op(cli_query, (["path", *argv],),
                              lambda r, m=model, s=source, p=p: check_cli_path(m, s, p, r),
                              signature=cli_signature))
        return ops


def cli_query(argv):
    import p2c.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = p2c.cli.main(argv)
    return code, out.getvalue()


def cli_signature(result):
    code, out = result
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return result
    report.pop("timing_ms", None)
    return code, json.dumps(report, sort_keys=True)


def _check_report(model, source, p, result):
    """The CLI's JSON report and the problems with its s*."""
    code, out = result
    if code != 0:
        return None, [f"exit code {code}"], []
    report = json.loads(out)
    s = report["s_star"]
    target = tuple(s["target"][n] for n in model.names)
    scan = model.goal_costs(source, p, "p2c")
    problems = oracle.check_min_cf(model, source, target, s["cost"], p, scan[0] if scan else None)
    return report, problems, scan


def check_validate(result):
    code, out = result
    ok = code == 0 and "config.json: ok (" in out
    return [] if ok else [f"validate failed ({code}): {out[-200:]}"]


def check_cli_mincf(model, source, p, result):
    report, problems, scan = _check_report(model, source, p, result)
    if report is not None:
        listed = [(tuple(r["target"][n] for n in model.names), r["cost"])
                  for r in report["knearest"]]
        problems += oracle.check_knearest(model, source, listed, K_NEAREST, p, "p2c",
                                          report["s_star"]["cost"], scan)
    return problems


def check_cli_path(model, source, p, result):
    report, problems, _ = _check_report(model, source, p, result)
    if report is None:
        return problems
    steps = [
        (tuple(step["state"][n] for n in model.names),
         [(a["kind"], a["feature"], a["new_value"]) for a in step["actions"]])
        for step in report["path"]
    ]
    return problems + oracle.check_causal_plan(
        model, source, steps, report["path_legal"], p, report["s_star"]["cost"]
    )


WORKLOADS = {
    "bundled": Bundled,
    "ladder": lambda seed: Synthetic(seed, "ladder"),
    "plan": lambda seed: Synthetic(seed, "plan"),
    "cli": Cli,
}


# -- the run --------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten queries beyond it."""
    return math.floor(100 - 1000 / n)


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    return sorted_values[math.ceil(pct / 100 * len(sorted_values)) - 1]


def run_rounds(ops, seconds: float):
    """Whole rounds of every query until the next round would overrun ``seconds``."""
    clock = DriftClock()
    norm = [[] for _ in ops]
    raw = [[] for _ in ops]
    first = [None] * len(ops)
    unstable: set[int] = set()
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for i, op in enumerate(ops):
            result, t_norm, t_raw = clock.time(op.call)
            norm[i].append(t_norm)
            raw[i].append(t_raw)
            if rounds == 0:
                first[i] = result
            elif not op.same(result, first[i]):
                unstable.add(i)
        rounds += 1
    return norm, raw, first, unstable, rounds, clock.kernel_samples


def summarise(latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    pct = tail_percentile(len(ordered))
    return {
        "query_p50_ms": statistics.median(ordered) * 1e3,
        "query_tail_ms": nearest_rank(ordered, pct) * 1e3,
        "queries_per_s": len(ordered) / sum(ordered),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)  # the benchmark's own inputs, untimed
    k0 = min(kernel_seconds() for _ in range(SETUP_KERNEL_RUNS))
    t0 = time.perf_counter()
    import p2c  # noqa: F401

    import_s = time.perf_counter() - t0
    tracer = Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    workload.setup()
    setup_raw = time.perf_counter() - t0
    k1 = min(kernel_seconds() for _ in range(SETUP_KERNEL_RUNS))
    setup_s = setup_raw * NOMINAL_KERNEL_S / ((k0 + k1) / 2)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_raw}))
        return 0

    if tracer is not None:
        tracer.enabled = False  # input generation is the benchmark's, not the program's
    ops = workload.ops()
    if tracer is not None:
        tracer.enabled = True
    norm, raw, first, unstable, rounds, kernels = run_rounds(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False

    # correct: every failed operation is find_path's known off-target plan
    failed_ops, correct, details = 0, True, []
    for i, op in enumerate(ops):
        problems = op.problems(first[i])
        if i in unstable:
            problems.append("answers differ between rounds")
        if problems:
            failed_ops += 1
            correct &= problems == [oracle.OFF_TARGET]
            details.append(f"query {i}: {'; '.join(problems)}")

    latencies = [min(t) for t in norm]
    raw_latencies = [min(t) for t in raw]
    out = {
        "correct": correct,
        "attempted": len(ops) * rounds,
        "failed": failed_ops * rounds,
        "setup_s": setup_s,
        "raw_setup_s": setup_raw,
        "peak_rss_mb": peak_rss_mb,
        "queries": len(ops),
        "rounds": rounds,
        "tail_percentile": tail_percentile(len(ops)),
        "failures": details[:10],
        "kernel_ms": {
            "median": statistics.median(kernels) * 1e3,
            "min": min(kernels) * 1e3,
            "max": max(kernels) * 1e3,
        },
        "normalised": summarise(latencies),
        "raw": summarise(raw_latencies),
    }
    if tracer is not None:
        scale = NOMINAL_KERNEL_S / statistics.median(kernels)
        layers = layer_metrics(tracer, len(ops) * rounds, scale)
        layers["p2c.import_ms"] = import_s * 1e3 * NOMINAL_KERNEL_S / ((k0 + k1) / 2)
        out["layers"] = layers
        tracer.write(ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
