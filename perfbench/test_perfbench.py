"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def _example2():
    from p2c import load_dataset

    raw, dec, cau = inputs.read_bundle(ROOT / "data" / "example2")
    full = load_dataset(ROOT / "data" / "example2")
    model = inputs.bundle_model(raw, dec, cau, {f.name: f.domain for f in full.config.features})
    return full, model, model.resolve(raw["instance_defaults"])


def test_min_cf_check_rejects_a_wrong_s_star():
    from p2c import min_cf

    full, model, source = _example2()
    best = min_cf(full, full.default_instance())
    optimum = model.goal_costs(source, 1, "p2c")[0]
    assert oracle.check_min_cf(model, source, best.target.values, best.cost, 1, optimum) == []
    # a costlier goal reported at its true price is still not the optimum
    costlier = next(
        s for s in itertools.product(*model.plausible(source))
        if model.is_goal(s) and model.cost(source, s, 1) > optimum + 1e-6
    )
    assert oracle.check_min_cf(model, source, costlier, model.cost(source, costlier, 1), 1, optimum)
    # the instance itself is no goal
    assert oracle.check_min_cf(model, source, source, 0.0, 1, optimum)


def test_plan_check_rejects_an_illegal_direct_action():
    from p2c import find_path, min_cf, path_is_legal

    full, model, source = _example2()
    best = min_cf(full, full.default_instance())
    plan = find_path(full, full.default_instance(), best.target)
    steps = worker.plain_plan(plan)
    legal, _ = path_is_legal(full, plan)
    assert oracle.check_causal_plan(model, source, steps, legal, 1, best.cost) == []
    # the same plan checked against a cheaper s* ends off target
    assert oracle.check_causal_plan(model, source, steps, legal, 1, best.cost - 0.5) == [
        oracle.OFF_TARGET
    ]
    # credit_score is not directly actionable: setting it by hand is illegal
    i = model.index["credit_score"]
    forged = list(source)
    forged[i] = max(model.features[i].domain)
    forged_steps = [(source, []), (tuple(forged), [("direct", "credit_score", forged[i])])]
    illegal, _ = oracle.replay_plan(model, source, forged_steps)
    assert illegal


def test_a_raising_query_is_a_failed_operation():
    def boom():
        raise RuntimeError("no counterfactual")

    op = worker.Op(boom, (), check=lambda r: [])
    result = op.call()
    assert op.problems(result) == ["raised RuntimeError: no counterfactual"]
    assert op.same(result, op.call())


def test_knearest_check_rejects_unsorted_costs():
    full, model, source = _example2()
    scan = model.goal_costs(source, 1, "p2c")
    goals = sorted(
        (model.cost(source, s, 1), s)
        for s in itertools.product(*model.plausible(source))
        if model.is_goal(s)
    )[:3]
    listed = [(s, c) for c, s in goals]
    assert oracle.check_knearest(model, source, listed, 3, 1, "p2c", scan[0], scan) == []
    assert oracle.check_knearest(model, source, listed[::-1], 3, 1, "p2c", scan[0], scan)


def _inputs_of(seed):
    return (
        [(s.decision_text, s.causal_text, s.instances) for s in inputs.ladder_spaces(seed)],
        [(s.decision_text, s.causal_text, s.instances) for s in inputs.plan_spaces(seed)],
    )


def test_same_seed_same_inputs():
    assert _inputs_of(5) == _inputs_of(5)
    assert _inputs_of(5) != _inputs_of(6)
    # bundles where find_path fails some plans are sampled apart from the seed
    fixed, seeded = inputs.FIXED_SAMPLE_BUNDLES[0], "cars"
    assert inputs.bundle_rng("bundled", 5, fixed).random() == inputs.bundle_rng(
        "bundled", 6, fixed).random()
    assert inputs.bundle_rng("bundled", 5, seeded).random() != inputs.bundle_rng(
        "bundled", 6, seeded).random()
    _, model, _ = _example2()
    merged = {f.name: {} for f in model.features}
    a = inputs.sample_rejected(model, merged, 10, random.Random("s"))
    b = inputs.sample_rejected(model, merged, 10, random.Random("s"))
    assert a == b


def test_every_synthetic_query_has_a_counterfactual():
    for seed in (1, 2):
        for space in inputs.ladder_spaces(seed):
            assert space.model.is_goal(space.witness)
            for inst in space.instances:
                assert space.model.rejected(inst)
                assert space.model.in_plausible(inst, space.witness)
                assert space.model.cost(inst, space.witness, 1) == space.optimum
        for space in inputs.plan_spaces(seed):
            m = space.model
            for inst in space.instances:
                assert m.rejected(inst)
                # every rejecting feature moves up one value; partners follow
                goal = tuple(
                    "v1" if f.name.startswith("r") else "q1" if f.name.startswith("p") else v
                    for f, v in zip(m.features, inst)
                )
                assert m.is_goal(goal) and m.in_plausible(inst, goal)
                assert m.cost(inst, goal, 1) == space.optimum


def _layer_counts(seed):
    work = worker.Synthetic(seed, "plan")
    tracer = Tracer()
    tracer.install()
    try:
        work.setup()
        ops = work.ops()[:4]
        for op in ops:
            op.fn(*op.args)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer, len(ops), 1.0)
    return {k: v for k, v in layers.items() if not k.endswith(("_ms", "_us"))}


def test_same_seed_same_layer_counts():
    first = _layer_counts(3)
    assert first["consistency.goal_tests"] > 0
    assert first == _layer_counts(3)
