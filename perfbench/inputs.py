"""Seeded inputs for the four workloads.

Everything here is drawn from the benchmark's own seed; nothing calls the
program's sampler, so a change to ``p2c`` cannot change what is measured.
The synthetic generators write rule text and evaluate the structure they
wrote with the benchmark's own reader (``oracle.Model``).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import Feature, Model

BUNDLES = ("cars", "german", "adult", "example1", "example2")
BUNDLED_PER_BUNDLE = {"cars": 60, "german": 100, "adult": 100, "example1": 60, "example2": 60}
CLI_SAMPLED_PER_BUNDLE = 20
# find_path ends some german and adult plans at a goal costlier than s*.  Their
# samples come from a stream that does not depend on the seed, so the number of
# failed operations, and with it the failed share, is the same in every run.
FIXED_SAMPLE_BUNDLES = ("german", "adult")

LADDER_RUNGS = ((6, 12), (7, 8), (8, 2))  # (features, spaces)
LADDER_QUERIES_PER_SPACE = 2
LADDER_ATTEMPTS = 400
LADDER_EXHAUSTIVE_MAX = 7  # larger rungs rely on the optimum known by construction
PLAN_SIZES = (8, 10, 10, 10, 10, 12)  # features per space
PLAN_QUERIES_PER_SPACE = 7


# -- bundles ------------------------------------------------------------------


def read_bundle(root: Path) -> tuple[dict, str, str]:
    raw = json.loads((root / "config.json").read_text(encoding="utf-8"))
    decision = (root / raw.get("decision_rules", "decision.rules")).read_text(encoding="utf-8")
    causal = (root / raw.get("causal_rules", "causal.rules")).read_text(encoding="utf-8")
    return raw, decision, causal


def bundle_model(raw: dict, decision: str, causal: str, domains: dict[str, tuple]) -> Model:
    """Flags and weights from config.json; domains from the space being checked."""
    features = []
    for obj in raw["features"]:
        numeric = obj.get("kind", "categorical") == "numeric"
        lo, hi = obj["numeric_range"] if numeric else (0.0, 1.0)
        features.append(
            Feature(
                name=obj["name"],
                domain=tuple(domains[obj["name"]]),
                numeric=numeric,
                width=float(hi) - float(lo),
                weight=float(obj.get("weight", 1.0)),
                mutable=bool(obj.get("mutable", True)),
                actionable=bool(obj.get("directly_actionable", True)),
                monotone=obj.get("monotone", "none"),
                direction=obj.get("causal_direction", "exact"),
            )
        )
    return Model(features, decision, causal, str(raw.get("undesired_decision", "")))


def bundle_rng(workload: str, seed: int, bundle: str) -> random.Random:
    """The stream a bundle's sample is drawn from."""
    if bundle in FIXED_SAMPLE_BUNDLES:
        return random.Random(f"{workload}:{bundle}")
    return random.Random(f"{workload}:{seed}:{bundle}")


def sample_rejected(model: Model, merged: dict[str, dict], n: int, rng: random.Random) -> list[dict]:
    """Seeded stratified sample of decision-positive states of a (consolidated) space.

    The population, in enumeration order, is cut into ``n`` equal strata and one
    state is drawn from each, so every seed covers the space evenly and the mix
    of cheap and costly queries varies little between seeds.  States come back
    as raw assignments: a placeholder becomes the first raw value it absorbed.
    """
    population = [
        s for s in itertools.product(*(f.domain for f in model.features)) if model.rejected(s)
    ]
    size = len(population)
    picked = population if n >= size else [
        rng.choice(population[size * k // n : size * (k + 1) // n]) for k in range(n)
    ]
    return [
        {
            f.name: merged[f.name][v][0] if v in merged[f.name] else v
            for f, v in zip(model.features, state)
        }
        for state in picked
    ]


# -- synthetic spaces ----------------------------------------------------------


@dataclass
class Space:
    """A generated rule setup, its queries and what the generator knows of them."""

    name: str
    model: Model
    decision_text: str
    causal_text: str
    instances: list[tuple]
    optimum: float | None = None  # known by construction
    witness: tuple | None = None  # a goal the generator built
    exhaustive: bool = False


def ladder_space(rng: random.Random, n: int, name: str) -> Space | None:
    """n features x 4 values; a chain of exhaustive two-alternative causal groups
    and width-2 decision rules that all miss a witness the generator builds, so
    every query has a counterfactual."""
    vals = ("a", "b", "c", "d")
    names = [f"x{i}" for i in range(n)]
    chain = 2 if n < 8 else 3
    first = rng.randrange(0, n - chain)
    heads = names[first + 1 : first + 1 + chain]
    causal, rule_of = [], {}
    for parent, head in zip(names[first : first + chain], heads):
        guard = rng.choice(vals)
        on, off = rng.sample(vals, 2)
        causal.append(f"{head}(X,'{on}') :- {parent}(X,'{guard}').")
        causal.append(f"{head}(X,'{off}') :- not {parent}(X,'{guard}').")
        rule_of[head] = (parent, guard, on, off)
    witness = {f: rng.choice(vals) for f in names}
    for head in heads:
        parent, guard, on, off = rule_of[head]
        witness[head] = on if witness[parent] == guard else off

    def literal(feature, must_fail):
        if must_fail:
            if rng.random() < 0.5:
                return f"{feature}(X,'{rng.choice([v for v in vals if v != witness[feature]])}')"
            return f"not {feature}(X,'{witness[feature]}')"
        value = rng.choice(vals)
        return f"{'not ' if rng.random() < 0.5 else ''}{feature}(X,'{value}')"

    decision = []
    for _ in range(n + 2):
        a, b = rng.sample(names, 2)
        decision.append(f"label(X,'bad') :- {literal(a, True)}, {literal(b, False)}.")
    features = [Feature(f, vals, actionable=f not in heads) for f in names]
    decision_text, causal_text = "\n".join(decision), "\n".join(causal)
    model = Model(features, decision_text, causal_text, "bad")
    movable = [f for f in names if f not in heads]
    head_pos = [names.index(h) for h in heads]
    instances = []
    for _ in range(LADDER_ATTEMPTS):
        if len(instances) == LADDER_QUERIES_PER_SPACE:
            break
        # two features off the witness cost 2 to undo (compelled heads are free);
        # starts keep the causal chain, so the planner's repair work stays small
        # and the query is min_cf's (the plan workload covers inconsistent starts)
        start = dict(witness)
        for f in rng.sample(movable, 2):
            start[f] = rng.choice([v for v in vals if v != witness[f]])
        for head in heads:
            parent, guard, on, off = rule_of[head]
            start[head] = on if start[parent] == guard else off
        state = tuple(start[f] for f in names)
        if model.rejected(state) and state not in instances and not _escape_below_2(
            model, state, head_pos
        ):
            instances.append(state)
    else:
        return None  # too few starts need two changes; the caller draws a new space
    return Space(
        name, model, decision_text, causal_text, instances, optimum=2.0,
        witness=tuple(witness[f] for f in names), exhaustive=n <= LADDER_EXHAUSTIVE_MAX,
    )


def _escape_below_2(model: Model, state: tuple, head_pos: list[int]) -> bool:
    """Whether some goal costs less than 2: every such state changes at most one
    non-head feature, so enumerating those (with any head values) decides it."""
    movable = [i for i in range(len(state)) if i not in head_pos]
    edits = [()] + [((i, v),) for i in movable for v in model.features[i].domain if v != state[i]]
    for edit in edits:
        base = list(state)
        for i, v in edit:
            base[i] = v
        for heads in itertools.product(*(model.features[i].domain for i in head_pos)):
            for i, v in zip(head_pos, heads):
                base[i] = v
            if model.is_goal(base) and model.cost(state, base, 1) < 2 - 1e-9:
                return True
    return False


def plan_space(rng: random.Random, n: int, name: str) -> Space:
    """Long plans: r rejecting features that must each change, each forcing a
    non-actionable partner, plus weight-5 bystanders that could also escape.
    The optimum is r (one unit per rejecting feature, partners free)."""
    r = 2 if n < 9 else 3
    rej = [f"r{i}" for i in range(r)]
    par = [f"p{i}" for i in range(r)]
    bys = [f"b{j}" for j in range(n - 2 * r)]
    features = [
        spec
        for i in range(r)
        for spec in (
            Feature(rej[i], ("v0", "v1", "v2"), monotone="nondecreasing"),
            Feature(par[i], ("q0", "q1", "q2"), actionable=False),
        )
    ] + [Feature(f, ("w0", "w1", "w2"), weight=5.0) for f in bys]
    causal, decision = [], []
    for i in range(r):
        # each rule has its own bystander, so no single change escapes two rules
        # and every rejecting feature must change
        causal.append(f"{par[i]}(X,'q0') :- {rej[i]}(X,'v0').")
        causal.append(f"{par[i]}(X,'q1') :- not {rej[i]}(X,'v0').")
        decision.append(f"label(X,'bad') :- {rej[i]}(X,'v0'), not {bys[i]}(X,'w2').")
    decision_text, causal_text = "\n".join(decision), "\n".join(causal)
    model = Model(features, decision_text, causal_text, "bad")
    instances = []
    for q in range(PLAN_QUERIES_PER_SPACE):
        start = {f: "v0" for f in rej} | {f: "q0" for f in par}
        start |= {f: rng.choice(("w0", "w1")) for f in bys}
        if q % 2:  # 3 of 7 starts break a causal rule and need a repair prefix
            start[rng.choice(par)] = "q2"
        instances.append(tuple(start[f.name] for f in features))
    return Space(name, model, decision_text, causal_text, instances, optimum=float(r))


def ladder_spaces(seed: int) -> list[Space]:
    rng = random.Random(f"ladder:{seed}")
    spaces = []
    for n, count in LADDER_RUNGS:
        for k in range(count):
            space = None
            while space is None:
                space = ladder_space(rng, n, f"ladder{n}_{k}")
            spaces.append(space)
    return spaces


def plan_spaces(seed: int) -> list[Space]:
    rng = random.Random(f"plan:{seed}")
    return [plan_space(rng, n, f"plan{n}_{k}") for k, n in enumerate(PLAN_SIZES)]
