"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from conftest import random_dataset
from oracles import exhaustive_knearest, exhaustive_min_cf, verify_solution_path
from p2c.bench import bench_dataset
from p2c.dataset import consolidate_dataset
from p2c.domain import FeatureSpec, State, ingest_csv, search_space_size
from p2c.errors import NoCounterfactualError, SearchExhaustedError
from p2c.planner import find_path
from p2c.rules import canonicalize, program_decides
from p2c.search import knearest_trimmed, min_cf


@contextmanager
def budget(seconds: float, label: str):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{label}: took {elapsed:.2f}s, budget {seconds}s"
    print(f"PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_example1_reproduction(example1):
    with budget(1.0, "criterion 1: example-1 minimal counterfactual and 2-state path"):
        john = example1.default_instance()
        assert john.values == (31.0, 5000.0, 12.0, 40000.0, 599.0)
        result = min_cf(example1, john)
        assert result.target.values == (31.0, 5000.0, 12.0, 60000.0, 599.0)
        path = find_path(example1, john, result.target)
        assert len(path.steps) == 2
        assert path.start == john and path.end == result.target
        assert path.direct_action_count() == 1
        assert [a.kind for a in path.actions()] == ["direct"]


def test_criterion_02_example2_reproduction(example2):
    with budget(1.0, "criterion 2: example-2 causal path and cost modes"):
        john = example2.default_instance()
        p2c_l0 = min_cf(example2, john, p=0, mode="p2c")
        all_l0 = min_cf(example2, john, p=0, mode="all_changes")
        assert p2c_l0.target.values == (31.0, 0.0, 12.0, 60000.0, 620.0)
        assert p2c_l0.cost == 2.0
        assert all_l0.cost == 3.0
        path = find_path(example2, john, p2c_l0.target)
        assert path.end == p2c_l0.target
        acted = [(a.kind, a.feature) for a in path.actions()]
        assert ("direct", "bank_balance") in acted
        assert ("direct", "debt") in acted
        assert ("causal", "credit_score") in acted
        assert ("direct", "credit_score") not in acted


def test_criterion_03_soundness_suite():
    with budget(60.0, "criterion 3: soundness clauses on >=500 randomized configs"):
        produced = 0
        configs = 0
        seed = 0
        while configs < 500:
            seed += 1
            made = random_dataset(seed, max_features=5, max_values=6)
            if made is None:
                continue
            configs += 1
            dataset, instance = made
            try:
                target = min_cf(dataset, instance).target
                path = find_path(dataset, instance, target)
            except (NoCounterfactualError, SearchExhaustedError):
                continue
            problems = verify_solution_path(dataset, instance, path)
            assert not problems, (seed, problems)
            produced += 1
        assert produced >= 200, f"only {produced} paths produced"
        print(f"  ({configs} configs, {produced} solution paths, all sound)", end=" ")


def test_criterion_04_trimming_theorem():
    with budget(10.0, "criterion 4: dimension-trimmed k-nearest equals an exhaustive sort"):
        from p2c.domain import DatasetConfig

        rng = random.Random(2024)
        trials = 0
        while trials < 200:
            n = rng.randint(1, 4)
            feats = []
            for i in range(n):
                size = rng.randint(2, 6)
                if rng.random() < 0.5:
                    vals = sorted(rng.sample(range(0, 50), size))
                    feats.append(FeatureSpec(
                        name=f"x{i}", kind="numeric",
                        domain=tuple(float(v) for v in vals),
                        numeric_range=(0.0, 50.0),
                        weight=rng.choice((0.5, 1.0, 2.0)),
                    ))
                else:
                    feats.append(FeatureSpec(
                        name=f"x{i}", kind="categorical",
                        domain=tuple(f"v{j}" for j in range(size)),
                        weight=rng.choice((0.5, 1.0, 2.0)),
                    ))
            config = DatasetConfig(name=f"t{trials}", features=tuple(feats),
                                   undesired_decision="bad")
            q = State(tuple(rng.choice(f.domain) for f in feats))
            k = rng.randint(1, 4)
            for p in (0, 1, 2):
                got = knearest_trimmed(config, q, k, p)
                want = exhaustive_knearest(config, q, k, p)
                assert [(s, round(d, 10)) for s, d in got] == [
                    (s, round(d, 10)) for s, d in want
                ], (trials, p)
            trials += 1


def test_criterion_05_min_cf_optimality_oracle(example1, example2, cars, german, adult):
    with budget(30.0, "criterion 5: min_cf equals the exhaustive optimum on every "
                      "shipped space <= 10^4"):
        for ds in (example1, example2, cars, german, adult):
            assert search_space_size(ds.config) <= 10 ** 4
            instance = ds.default_instance()
            for mode in ("p2c", "all_changes"):
                for p in (0, 1, 2):
                    got = min_cf(ds, instance, p=p, mode=mode)
                    best = exhaustive_min_cf(ds, instance, p=p, mode=mode)
                    assert best is not None, (ds.config.name, mode, p)
                    assert abs(got.cost - best[2]) < 1e-12, (ds.config.name, mode, p)
                    assert got.target == best[1], (ds.config.name, mode, p)


def test_criterion_06_cars_rule_fidelity(cars, data_dir):
    with budget(5.0, "criterion 6: cars rules reach the published accuracy, "
                     "precision and recall"):
        result = ingest_csv(cars.config, data_dir / "cars" / "car.csv")
        assert len(result.states) == 1728
        tp = fp = fn = tn = 0
        for state, label in zip(result.states, result.labels):
            predicted_negative = program_decides(cars.decision, cars.config.state_dict(state))
            actually_negative = label == "unacc"
            if predicted_negative and actually_negative:
                tp += 1
            elif predicted_negative:
                fp += 1
            elif actually_negative:
                fn += 1
            else:
                tn += 1
        accuracy = (tp + tn) / 1728
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        assert precision == 1.0, f"precision {precision}"
        assert abs(accuracy - 0.939) <= 0.010, f"accuracy {accuracy:.4f}"
        assert abs(recall - 0.913) <= 0.010, f"recall {recall:.4f}"
        print(f"  (accuracy {accuracy:.3%}, precision {precision:.0%}, "
              f"recall {recall:.3%})", end=" ")


def test_criterion_07_search_space_sizing(adult, german, cars, data_dir):
    with budget(120.0, "criterion 7: exact sizing, strict consolidation shrink, "
                       "cost preservation, and no slower reduced search"):
        assert search_space_size(cars.config) == 1728
        for name, ds in (("adult", adult), ("german", german), ("cars", cars)):
            reduced = consolidate_dataset(ds)
            assert search_space_size(reduced.config) < search_space_size(ds.config), name
            row = bench_dataset(
                data_dir / name, instances=20, seed=7, k=5, timing_repeats=5
            )
            assert row["instances_failed"] == 0, name
            assert row["cost_preserved_all"] is True, name
            assert row["space_reduced_max"] < row["space_full"], name
            assert row["mincf_reduced_ms_mean"] <= row["mincf_full_ms_mean"], (
                name,
                row["mincf_reduced_ms_mean"],
                row["mincf_full_ms_mean"],
            )
            print(f"  ({name}: {row['space_full']} -> reduced mean "
                  f"{row['space_reduced_mean']:.0f}, mincf {row['mincf_full_ms_mean']:.2f}ms"
                  f" -> {row['mincf_reduced_ms_mean']:.2f}ms)", end=" ")


def test_criterion_08_legality_comparison(data_dir):
    with budget(120.0, "criterion 8: causal planner always legal, naive planner "
                       "caught acting illegally on adult and german"):
        for name in ("adult", "german"):
            row = bench_dataset(data_dir / name, instances=20, seed=7, k=1)
            n_ok = row["instances_sampled"] - row["instances_failed"]
            assert row["instances_failed"] == 0, name
            assert row["paths_legal"] == n_ok, (name, row["paths_legal"])
            assert row["naive_paths_illegal"] >= 1, name
            print(f"  ({name}: naive illegal on {row['naive_paths_illegal']}/{n_ok})",
                  end=" ")
        row = bench_dataset(data_dir / "cars", instances=20, seed=7, k=1)
        assert row["instances_failed"] == 0
        assert row["paths_legal"] == 20
        assert row["naive_paths_illegal"] == 0
        print("  (cars: both planners fully legal)", end=" ")


def test_criterion_09_cost_mode_dominance(data_dir):
    with budget(240.0, "criterion 9: p2c distances dominate all-changes on adult "
                       "and german, exactly equal on cars"):
        for name in ("adult", "german"):
            row = bench_dataset(data_dir / name, instances=20, seed=7, k=20)
            assert row["instances_failed"] == 0, name
            strict = 0
            for inst in row["per_instance"]:
                for norm in ("l0", "l1", "l2"):
                    d_p = inst["distances"][f"{norm}_p2c"]
                    d_a = inst["distances"][f"{norm}_all_changes"]
                    for stat in ("nearest", "furthest", "avg"):
                        assert d_p[stat] <= d_a[stat] + 1e-12, (name, norm, stat)
                        if d_p[stat] < d_a[stat] - 1e-12:
                            strict += 1
            assert strict > 0, f"{name}: dominance never strict"
        row = bench_dataset(data_dir / "cars", instances=20, seed=7, k=20)
        for inst in row["per_instance"]:
            for norm in ("l0", "l1", "l2"):
                assert inst["distances"][f"{norm}_p2c"] == inst["distances"][
                    f"{norm}_all_changes"
                ], norm


def test_criterion_10_parser_corpus(supplement_dir, data_dir):
    with budget(1.0, "criterion 10: every supplement rule listing parses and "
                     "round-trips canonically"):
        corpus = sorted(supplement_dir.glob("*.rules")) + sorted(data_dir.glob("*/*.rules"))
        assert len(corpus) >= 15
        for path in corpus:
            kind = "causal" if "causal" in path.name else "decision"
            text = path.read_text(encoding="utf-8")
            once = canonicalize(text, kind)
            assert canonicalize(once, kind) == once, path
