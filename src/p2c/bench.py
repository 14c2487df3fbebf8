"""Reproducible seeded experiments over dataset bundles.

For every sampled decision-positive instance the harness runs the minimal
counterfactual search on the full and the consolidated space (timing both),
collects k-nearest goal distances per norm and cost mode, and compares the
causal planner against the causally blind baseline on action legality.
Sampling is uniform over decision-positive states of the consolidated space,
with no causal-consistency filter: factual records that violate the causal
model are exactly the ones whose recourse must repair them.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path
from typing import Mapping, Sequence

from .dataset import Dataset, consolidate_dataset, load_dataset
from .domain import State, enumerate_states, expand_placeholders, search_space_size, validate_state
from .errors import P2CError, SpaceTooLargeError
from .planner import find_path, naive_find_path, path_is_legal
from .search import goal_knearest, min_cf

NORM_NAMES = {0: "l0", 1: "l1", 2: "l2"}
NORMS = (0, 1, 2)


def sample_decision_positive(
    dataset: Dataset, n: int, seed: int, cap: int = 200000
) -> list[State]:
    """Uniform seeded sample of decision-positive states."""
    size = search_space_size(dataset.config)
    if size > cap:
        raise SpaceTooLargeError(
            f"cannot enumerate {size} states to sample from (cap {cap})"
        )
    population = [s for s in enumerate_states(dataset.config) if dataset.decision_positive(s)]
    if not population:
        raise P2CError(f"dataset {dataset.config.name!r} has no decision-positive states")
    rng = random.Random(seed)
    if n >= len(population):
        return population
    return rng.sample(population, n)


def _timed_mincf(dataset: Dataset, instance: State, repeats: int) -> tuple[float, object]:
    best = None
    elapsed = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        best = min_cf(dataset, instance, on_inconsistent="allow")
        elapsed.append((time.perf_counter() - t0) * 1000.0)
    return min(elapsed), best


def run_instance(
    full: Dataset,
    instance_raw: Mapping,
    *,
    k: int = 20,
    timing_repeats: int = 1,
) -> dict:
    """All measurements for one instance; failures are recorded, not raised."""
    out: dict = {"instance": dict(instance_raw), "error": None}
    try:
        instance_full = validate_state(full.config, instance_raw)
        reduced = consolidate_dataset(full, instance_raw)
        instance_red = validate_state(reduced.config, instance_raw)
        out["consistent_start"] = full.consistent(instance_full)
        out["space_full"] = search_space_size(full.config)
        out["space_reduced"] = search_space_size(reduced.config)

        t_full, r_full = _timed_mincf(full, instance_full, timing_repeats)
        t_red, r_red = _timed_mincf(reduced, instance_red, timing_repeats)
        out["mincf_full_ms"] = t_full
        out["mincf_reduced_ms"] = t_red
        out["cost_full"] = r_full.cost
        out["cost_reduced"] = r_red.cost
        out["cost_preserved"] = abs(r_full.cost - r_red.cost) < 1e-12

        distances: dict = {}
        for p in NORMS:
            for mode in ("p2c", "all_changes"):
                reports = goal_knearest(
                    reduced, instance_red, k, p=p, mode=mode, on_inconsistent="allow"
                )
                costs = [r.cost for r in reports]
                distances[f"{NORM_NAMES[p]}_{mode}"] = {
                    "nearest": costs[0],
                    "furthest": costs[-1],
                    "avg": sum(costs) / len(costs),
                    "count": len(costs),
                }
        out["distances"] = distances

        t0 = time.perf_counter()
        path = find_path(reduced, instance_red, r_red.target, on_inconsistent="repair")
        out["path_ms"] = (time.perf_counter() - t0) * 1000.0
        legal, violations = path_is_legal(reduced, path)
        out["path"] = {
            "steps": len(path.steps),
            "direct_actions": path.direct_action_count(),
            "legal": legal,
            "violations": violations,
            "ends_at_target": path.end == r_red.target,
        }
        naive = naive_find_path(reduced, instance_red, r_red.target)
        nlegal, nviolations = path_is_legal(reduced, naive)
        out["naive_path"] = {
            "steps": len(naive.steps),
            "legal": nlegal,
            "violations": nviolations,
        }
    except P2CError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def bench_dataset(
    path: str | Path | Dataset,
    *,
    instances: int = 20,
    seed: int = 0,
    k: int = 20,
    timing_repeats: int = 1,
) -> dict:
    """Benchmark one dataset bundle; returns a JSON-ready row."""
    full = path if isinstance(path, Dataset) else load_dataset(path)
    sampling_space = consolidate_dataset(full)
    sampled = sample_decision_positive(sampling_space, instances, seed)
    raws = [expand_placeholders(sampling_space.config, s) for s in sampled]

    results = [run_instance(full, raw, k=k, timing_repeats=timing_repeats) for raw in raws]

    ok = [r for r in results if r["error"] is None]
    row: dict = {
        "dataset": full.config.name,
        "seed": seed,
        "instances_requested": instances,
        "instances_sampled": len(results),
        "instances_failed": len(results) - len(ok),
        "space_full": search_space_size(full.config),
    }
    if ok:
        row.update(
            {
                "space_reduced_mean": statistics.mean(r["space_reduced"] for r in ok),
                "space_reduced_max": max(r["space_reduced"] for r in ok),
                "mincf_full_ms_mean": statistics.mean(r["mincf_full_ms"] for r in ok),
                "mincf_reduced_ms_mean": statistics.mean(r["mincf_reduced_ms"] for r in ok),
                "cost_preserved_all": all(r["cost_preserved"] for r in ok),
                "paths_legal": sum(1 for r in ok if r["path"]["legal"]),
                "paths_end_at_target": sum(1 for r in ok if r["path"]["ends_at_target"]),
                "naive_paths_legal": sum(1 for r in ok if r["naive_path"]["legal"]),
                "naive_paths_illegal": sum(1 for r in ok if not r["naive_path"]["legal"]),
                "legality_rate": sum(1 for r in ok if r["path"]["legal"]) / len(ok),
                "inconsistent_starts": sum(1 for r in ok if not r["consistent_start"]),
            }
        )
        dist: dict = {}
        for key in ok[0]["distances"]:
            dist[key] = {
                stat: statistics.mean(r["distances"][key][stat] for r in ok)
                for stat in ("nearest", "furthest", "avg")
            }
        row["distances_mean"] = dist
    row["per_instance"] = results
    return row


def run_benchmark(
    paths: Sequence[str | Path],
    *,
    instances: int = 20,
    seed: int = 0,
    k: int = 20,
    timing_repeats: int = 1,
) -> dict:
    rows = [
        bench_dataset(p, instances=instances, seed=seed, k=k, timing_repeats=timing_repeats)
        for p in paths
    ]
    return {
        "instances": instances,
        "seed": seed,
        "k": k,
        "norms": [NORM_NAMES[p] for p in NORMS],
        "rows": rows,
    }


def format_summary(summary: dict) -> str:
    """Aligned-text rendering of a benchmark summary."""
    lines = []
    header = (
        f"{'dataset':<10} {'space':>9} {'reduced':>9} {'mincf ms':>9} {'red ms':>8} "
        f"{'cost=':>5} {'legal':>6} {'naive!':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in summary["rows"]:
        if "mincf_full_ms_mean" not in row:
            lines.append(f"{row['dataset']:<10} all {row['instances_failed']} instances failed")
            continue
        lines.append(
            f"{row['dataset']:<10} {row['space_full']:>9} "
            f"{row['space_reduced_mean']:>9.1f} {row['mincf_full_ms_mean']:>9.2f} "
            f"{row['mincf_reduced_ms_mean']:>8.2f} "
            f"{'yes' if row['cost_preserved_all'] else 'NO':>5} "
            f"{row['paths_legal']:>3}/{row['instances_sampled'] - row['instances_failed']:<2} "
            f"{row['naive_paths_illegal']:>7}"
        )
    lines.append("")
    lines.append("mean distances over k nearest counterfactuals (rows: dataset, norm):")
    lines.append(
        f"{'dataset':<10} {'norm':<5} {'p2c near':>9} {'p2c far':>9} {'p2c avg':>9} "
        f"{'all near':>9} {'all far':>9} {'all avg':>9}"
    )
    for row in summary["rows"]:
        for norm in summary["norms"]:
            key_p, key_a = f"{norm}_p2c", f"{norm}_all_changes"
            d = row.get("distances_mean", {})
            if key_p not in d:
                continue
            lines.append(
                f"{row['dataset']:<10} {norm:<5} "
                f"{d[key_p]['nearest']:>9.4f} {d[key_p]['furthest']:>9.4f} {d[key_p]['avg']:>9.4f} "
                f"{d[key_a]['nearest']:>9.4f} {d[key_a]['furthest']:>9.4f} {d[key_a]['avg']:>9.4f}"
            )
    return "\n".join(lines)
