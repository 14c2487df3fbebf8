"""Print SHA-256 digests over p2c's answers on a fixed set of inputs.

    python scripts/answer_digest.py                      # this checkout's src/
    python scripts/answer_digest.py --src OTHER/src      # another tree's p2c

The inputs come from this checkout's ``tests/conftest.py`` generators and
``perfbench/inputs.py``, so running it twice, once with ``--src`` pointing at
another tree, compares two versions of the program on the same inputs.  An
answer is the target, cost and causal-free features of each report, the
states and actions (with provenance) of each plan with the ``path_is_legal``
verdict and violations on it and on each of its corrupted copies
(``tests/oracles.py::corrupted_plans``), or the type and message of the
raised error.

Searches: ``min_cf`` and ``goal_knearest(k=20)`` in both modes for p in
{0, 1, 2}, on ``random_dataset(0..299)`` at its consistent start and at its
first inconsistent decision-positive start; the five consolidated bundles at
their configured instance, 12 consistent and 4 inconsistent decision-positive
starts; ``chained_ladder(0, n)`` for n = 3..12; ``deep_ladder(n)`` for
n = 2..8; ``l2_root_tie()`` and ``absorbed_l2()`` (float ties under p = 2)
at their starts; every decision-positive start of ``cyclic_dataset()``; and 4
decision-positive starts of each ``rich_dataset(0..299)`` program (exception
calls, numeric heads, favourable and rejecting labels) on which the
``tests/oracles.py`` interpreter finds no state where two causal alternatives
fire together.  That filter reads no attribute of the compiled program, so it
picks the same programs for every tree.

Plans: ``find_path`` toward ``min_cf``'s target on ``random_dataset(0..299)``
at the consistent start for p in {0, 1, 2}, with the default budget and with
``max_dpl=1``; on each bundle start toward each of its 5 nearest goals for p
in {0, 1, 2}; and perfbench's ``ladder`` and ``plan`` queries at seeds
101-103.  Each ``find_path`` target also gets a ``naive_find_path`` plan.
These print as the first line.

The second line hashes answers on per-instance consolidated spaces:
``consolidate_dataset(full, raw)`` for each bundle's configured instance, 24
raw decision-positive starts of its full space, and two raw instances it
must refuse (a feature missing, an unknown value).  Per space it hashes the
reduced domains and placeholders, and, for p in {0, 1, 2}, ``min_cf``,
``goal_knearest(k=20)`` in both modes and ``find_path`` toward s*.

The third line hashes what a person reads.  First the ``p2c`` CLI's answers
on each bundle: ``validate`` (exit code and output), then ``mincf --k 20`` in
both cost modes and ``path`` with both planners, at the configured instance
and 8 decision-positive starts of the full space (``--repair-inconsistent``
for an inconsistent one).  The checkout's ``data/`` directory is written
``DATA`` in their output, so the line does not depend on where the checkout
lies.  A JSON report is parsed and hashed without its ``timing_ms``, so its
layout does not count; an error is its exit code and stderr.  Then the
outcome of parsing each bundled rule file after each of 60 seeded
one-character edits (replace, insert or delete): the clause count, or the
error's type and message, with line and column for a syntax error.

The fourth line hashes answers on favourable-label programs large enough
that their rejecting boxes number 4^r: ``fav_stress(r)`` for r = 2..4, at
its start and at 5 seeded starts on which no rule fires, ``min_cf`` and
``goal_knearest(k=20)`` in both modes for p in {0, 1, 2}, and ``find_path``
toward each ``min_cf`` target.  It was added after the first three, so they
stay comparable with older trees.

The fifth line hashes the same answers on rules with many negated exception
calls: ``exception_stress(r)`` for r in {2, 4, 8, 11}, at 5 seeded
decision-positive starts.  It was added after the first four.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def answer(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the error is the answer
        return ("raised", type(exc).__name__, str(exc))


def report_answer(r) -> tuple:
    return (r.target.values, repr(r.cost), tuple(sorted(r.causal_free_features)))


def plan_answer(ds, plan) -> tuple:
    from oracles import corrupted_plans
    from p2c.planner import path_is_legal

    if isinstance(plan, tuple):
        return plan
    steps = tuple(
        (step.state.values,
         tuple((a.kind, a.feature, a.new_value, tuple(a.provenance)) for a in step.actions))
        for step in plan.steps
    )
    copies = (plan, *corrupted_plans(ds, plan))
    return steps, tuple(answer(path_is_legal, ds, copy) for copy in copies)


def co_fires(ds) -> bool:
    """Whether the interpreter finds a state on which two alternatives of one
    causal head fire."""
    from oracles import interpreted_entailments
    from p2c.domain import enumerate_states
    from p2c.errors import CausalProgramError

    for state in enumerate_states(ds.config):
        try:
            interpreted_entailments(ds, state)
        except CausalProgramError:
            return True
    return False


def spread(pool, count):
    return pool[:: max(1, len(pool) // count)][:count]


def search_inputs():
    """(dataset, start, on_inconsistent) triples for the search answers."""
    from conftest import (
        DATA, absorbed_l2, chained_ladder, cyclic_dataset, deep_ladder, l2_root_tie,
        random_dataset, rich_dataset,
    )
    from p2c import load_dataset
    from p2c.dataset import consolidate_dataset
    from p2c.domain import enumerate_states

    for seed in range(300):
        made = random_dataset(seed)
        if made is None:
            continue
        ds, start = made
        yield ds, start, "error"
        bad = next((s for s in enumerate_states(ds.config)
                    if ds.decision_positive(s) and not ds.consistent(s)), None)
        if bad is not None:
            yield ds, bad, "allow"
    for name in ("example1", "example2", "cars", "german", "adult"):
        ds = consolidate_dataset(load_dataset(DATA / name))
        positive = [s for s in enumerate_states(ds.config) if ds.decision_positive(s)]
        starts = [(ds.default_instance(), "allow")]
        starts += [(s, "error") for s in spread([s for s in positive if ds.consistent(s)], 12)]
        starts += [(s, "allow") for s in spread([s for s in positive if not ds.consistent(s)], 4)]
        for start, on_inconsistent in starts:
            yield ds, start, on_inconsistent
    for n in range(3, 13):
        made = chained_ladder(0, n)
        if made is not None:
            yield made[0], made[1], "error"
    for n in range(2, 9):
        ds, start = deep_ladder(n)
        yield ds, start, "error"
    for make in (l2_root_tie, absorbed_l2):
        ds, start = make()
        yield ds, start, "error"
    ds = cyclic_dataset()
    for start in enumerate_states(ds.config):
        if ds.decision_positive(start):
            yield ds, start, "allow"
    for ds in map(rich_dataset, range(300)):
        if ds is None or co_fires(ds):
            continue
        positive = [s for s in enumerate_states(ds.config) if ds.decision_positive(s)]
        for start in spread(positive, 4):
            yield ds, start, "allow"


def search_answers():
    from p2c import goal_knearest, min_cf

    for ds, start, on_inc in search_inputs():
        for mode in ("p2c", "all_changes"):
            for p in (0, 1, 2):
                kw = dict(p=p, mode=mode, on_inconsistent=on_inc)
                best = answer(min_cf, ds, start, **kw)
                yield best if isinstance(best, tuple) else report_answer(best)
                near = answer(goal_knearest, ds, start, 20, **kw)
                yield near if isinstance(near, tuple) else tuple(map(report_answer, near))


def plan_answers():
    sys.path.insert(0, str(REPO / "perfbench"))
    import inputs
    from conftest import DATA, random_dataset
    from p2c import find_path, goal_knearest, load_dataset, min_cf, naive_find_path
    from p2c.dataset import build_dataset, consolidate_dataset
    from p2c.domain import DatasetConfig, FeatureSpec, State, enumerate_states
    from p2c.rules import parse_rule_program

    for seed in range(300):
        made = random_dataset(seed)
        if made is None:
            continue
        ds, start = made
        for p in (0, 1, 2):
            best = answer(min_cf, ds, start, p=p)
            if isinstance(best, tuple):
                yield best
                continue
            for max_dpl in (None, 1):
                yield plan_answer(ds, answer(find_path, ds, start, best.target, max_dpl=max_dpl))
            yield plan_answer(ds, answer(naive_find_path, ds, start, best.target))
    for name in ("example1", "example2", "cars", "german", "adult"):
        ds = consolidate_dataset(load_dataset(DATA / name))
        positive = [s for s in enumerate_states(ds.config)
                    if ds.decision_positive(s) and ds.consistent(s)]
        for start in [ds.default_instance()] + spread(positive, 12):
            for p in (0, 1, 2):
                near = answer(goal_knearest, ds, start, 5, p=p, on_inconsistent="allow")
                if isinstance(near, tuple):
                    yield near
                    continue
                for r in near:
                    yield plan_answer(ds, answer(find_path, ds, start, r.target,
                                                 on_inconsistent="repair"))
                    yield plan_answer(ds, answer(naive_find_path, ds, start, r.target))
    for seed in (101, 102, 103):
        for space in inputs.ladder_spaces(seed) + inputs.plan_spaces(seed):
            features = tuple(
                FeatureSpec(name=f.name, kind="categorical", domain=f.domain, weight=f.weight,
                            mutable=f.mutable, monotone=f.monotone,
                            directly_actionable=f.actionable)
                for f in space.model.features
            )
            config = DatasetConfig(name=space.name, features=features,
                                   undesired_decision="bad", norm_p=1)
            ds = build_dataset(config, parse_rule_program(space.decision_text, "decision"),
                               parse_rule_program(space.causal_text, "causal"))
            for inst in space.instances:
                start = State(inst)
                best = answer(min_cf, ds, start, on_inconsistent="allow")
                if isinstance(best, tuple):
                    yield best
                    continue
                yield report_answer(best)
                yield plan_answer(ds, answer(find_path, ds, start, best.target,
                                             on_inconsistent="repair"))
                yield plan_answer(ds, answer(naive_find_path, ds, start, best.target))


def consolidated_answers():
    """Answers on per-instance consolidated spaces: each bundle's space
    consolidated for its configured instance and for a spread of raw
    decision-positive starts, then one with a feature missing and one with
    an unknown value."""
    from conftest import DATA
    from p2c import find_path, goal_knearest, load_dataset, min_cf
    from p2c.dataset import consolidate_dataset
    from p2c.domain import enumerate_states, expand_placeholders, validate_state

    for name in ("example1", "example2", "cars", "german", "adult"):
        full = load_dataset(DATA / name)
        default = full.config.instance_defaults
        positive = [s for s in enumerate_states(full.config) if full.decision_positive(s)]
        raws = [default] + [expand_placeholders(full.config, s) for s in spread(positive, 24)]
        first = full.config.features[0].name
        raws += [{k: v for k, v in default.items() if k != first}, {**default, first: "?"}]
        for raw in raws:
            ds = answer(consolidate_dataset, full, raw)
            if isinstance(ds, tuple):
                yield ds
                continue
            yield tuple((f.domain, tuple(f.merged.items())) for f in ds.config.features)
            start = validate_state(ds.config, raw)
            for p in (0, 1, 2):
                kw = dict(p=p, on_inconsistent="allow")
                best = answer(min_cf, ds, start, **kw)
                if isinstance(best, tuple):
                    yield best
                    continue
                yield report_answer(best)
                for mode in ("p2c", "all_changes"):
                    near = answer(goal_knearest, ds, start, 20, mode=mode, **kw)
                    yield near if isinstance(near, tuple) else tuple(map(report_answer, near))
                yield plan_answer(ds, answer(find_path, ds, start, best.target, p=p,
                                             on_inconsistent="repair"))


def cli_answer(argv) -> tuple:
    from conftest import DATA
    from p2c.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = (text.getvalue().replace(str(DATA), "DATA") for text in (out, err))
    if argv[0] != "validate" and code == 0:
        report = json.loads(out)
        report.pop("timing_ms")
        return code, json.dumps(report, sort_keys=True)
    return code, out, err


def cli_answers():
    """The CLI's answers on every bundle, at its configured instance and 8
    decision-positive starts."""
    from conftest import DATA
    from p2c import load_dataset
    from p2c.domain import enumerate_states

    for name in ("example1", "example2", "cars", "german", "adult"):
        bundle = str(DATA / name)
        yield cli_answer(["validate", "--config", bundle])
        full = load_dataset(bundle)
        positive = [s for s in enumerate_states(full.config) if full.decision_positive(s)]
        for start in [None] + spread(positive, 8):
            argv = ["--config", bundle, "--output", "json"]
            if start is not None:
                pairs = full.config.state_dict(start).items()
                argv += ["--instance", ",".join(f"{k}={v}" for k, v in pairs)]
                if not full.consistent(start):
                    argv.append("--repair-inconsistent")
            for mode in ("p2c", "all-changes"):
                yield cli_answer(["mincf", *argv, "--k", "20", "--cost-mode", mode])
            for planner in ("causal", "naive"):
                yield cli_answer(["path", *argv, "--planner", planner])


def syntax_answers():
    """The outcome of parsing each bundled rule file after seeded
    one-character edits."""
    from conftest import DATA
    from p2c.errors import RuleSyntaxError
    from p2c.rules import parse_rule_program

    alphabet = "()',.:-=<% \nXNa_1\u0663\u00e9"
    for path in sorted(DATA.glob("*/*.rules")):
        text = path.read_text(encoding="utf-8")
        kind = "causal" if path.name.startswith("causal") else "decision"
        rng = random.Random(f"{path.parent.name}/{path.name}")
        for _ in range(60):
            i = rng.randrange(len(text))
            edit = rng.choice(("replace", "insert", "delete"))
            char = rng.choice(alphabet)
            head, tail = text[:i], text[i + (edit != "insert"):]
            corrupted = head + ("" if edit == "delete" else char) + tail
            try:
                yield ("parsed", len(parse_rule_program(corrupted, kind).clauses))
            except RuleSyntaxError as exc:
                yield ("raised", type(exc).__name__, str(exc), exc.line, exc.column)
            except Exception as exc:  # the error is the answer
                yield ("raised", type(exc).__name__, str(exc))


def seeded_starts(ds, starts, count, seed):
    """``starts`` followed by seeded decision-positive states, ``count`` in
    all."""
    from p2c.domain import State

    rng = random.Random(seed)
    starts = list(starts)
    while len(starts) < count:
        drawn = State(tuple(rng.choice(spec.domain) for spec in ds.config.features))
        if ds.decision_positive(drawn):
            starts.append(drawn)
    return starts


def stress_answers(spaces):
    """``min_cf``, ``goal_knearest(k=20)`` and ``find_path`` toward each
    ``min_cf`` target at each start of each (dataset, starts) pair."""
    from p2c import find_path, goal_knearest, min_cf

    for ds, starts in spaces:
        for start in starts:
            for p in (0, 1, 2):
                for mode in ("p2c", "all_changes"):
                    best = answer(min_cf, ds, start, p=p, mode=mode)
                    yield best if isinstance(best, tuple) else report_answer(best)
                    near = answer(goal_knearest, ds, start, 20, p=p, mode=mode)
                    yield near if isinstance(near, tuple) else tuple(map(report_answer, near))
                    if not isinstance(best, tuple):
                        yield plan_answer(ds, answer(find_path, ds, start, best.target, p=p))


def fav_spaces():
    """``fav_stress(r)`` for r = 2..4, at its start and 5 seeded ones."""
    from conftest import fav_stress

    for r in range(2, 5):
        ds, start = fav_stress(r)
        yield ds, seeded_starts(ds, [start], 6, f"fav-starts:{r}")


def exception_spaces():
    """``exception_stress(r)`` for r in {2, 4, 8, 11}, at 5 seeded starts."""
    from conftest import exception_stress

    for r in (2, 4, 8, 11):
        ds = exception_stress(r)
        yield ds, seeded_starts(ds, [], 5, f"exception-starts:{r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(REPO / "src"), help="directory holding p2c")
    args = parser.parse_args()
    sys.path.insert(0, str(REPO / "tests"))
    sys.path.insert(0, str(Path(args.src).resolve()))
    for parts, label in (((search_answers(), plan_answers()), ""),
                         ((consolidated_answers(),), " on per-instance consolidated spaces"),
                         ((cli_answers(), syntax_answers()), " on CLI reports and rule syntax"),
                         ((stress_answers(fav_spaces()),),
                          " on favourable-label stress programs"),
                         ((stress_answers(exception_spaces()),),
                          " on exception-heavy programs")):
        digest = hashlib.sha256()
        count = 0
        for part in parts:
            for item in part:
                digest.update(repr(item).encode())
                digest.update(b"\n")
                count += 1
        print(f"{digest.hexdigest()}  {count} answers{label}")


if __name__ == "__main__":
    main()
