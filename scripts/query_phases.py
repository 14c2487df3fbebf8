"""Print where a query of perfbench's ``bundled`` loop spends its time.

    python scripts/query_phases.py                       # this checkout's src/
    python scripts/query_phases.py --src OTHER/src       # another tree's p2c
    python scripts/query_phases.py --seed 711 --rounds 7

The queries are the ``bundled`` workload's: for each of the five bundles, the
rejected starts that ``perfbench/inputs.py`` samples for the seed, each run as
``perfbench/worker.py::bundled_query`` runs it: consolidate for the raw start,
``min_cf``, ``goal_knearest(k=20)`` in ``p2c`` and in ``all_changes`` mode,
``find_path`` toward ``min_cf``'s target, ``path_is_legal`` on that plan and
on ``naive_find_path``'s.  Nothing under ``perfbench/`` is changed or run
besides its input generators, so the same seed gives the same queries for
every tree.

Each search is split at ``search._stream_candidates``: *checks* runs from the
call to the stream's start (argument, costing and start-state checks),
*search* is the stream, and *reports* runs from the stream's end to the
call's return (decoding the goals and building their reports; a tree whose
stream decodes the goals itself counts that as search).  ``legality`` is both ``path_is_legal``
calls and ``naive`` is ``naive_find_path``.  Every query runs ``--rounds``
times; a phase's time for a query is its fastest round, since host noise
only adds time, and the script prints each phase's median over the queries
in raw microseconds, with the median of the queries' totals last.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
K_NEAREST = 20
SEARCHES = ("min_cf", "knearest_p2c", "knearest_all")
PHASES = ("consolidate",
          *(f"{s}.{part}" for s in SEARCHES for part in ("checks", "search", "reports")),
          "find_path", "legality", "naive")


def bundled_queries(seed: int) -> list[tuple]:
    """``(bundle, full dataset, raw start)`` for each query of the seed."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import inputs
    from p2c import dataset

    queries = []
    for b in inputs.BUNDLES:
        raw, dec, cau = inputs.read_bundle(REPO / "data" / b)
        full = dataset.load_dataset(REPO / "data" / b)
        space = dataset.consolidate_dataset(full).config
        model = inputs.bundle_model(raw, dec, cau, {f.name: f.domain for f in space.features})
        merged = {f.name: dict(f.merged) for f in space.features}
        rng = inputs.bundle_rng("bundled", seed, b)
        for inst in inputs.sample_rejected(model, merged, inputs.BUNDLED_PER_BUNDLE[b], rng):
            queries.append((b, full, inst))
    return queries


class Split:
    """Marks the start and end of ``search._stream_candidates`` inside a
    search call, so the call splits into checks, search and reports."""

    def __init__(self, search) -> None:
        self.search = search
        self.stream = search._stream_candidates
        self.marks: list[float] = []

    def __enter__(self) -> "Split":
        def stream(*args):
            self.marks.append(time.perf_counter())
            try:
                return self.stream(*args)
            finally:
                self.marks.append(time.perf_counter())

        self.search._stream_candidates = stream
        return self

    def __exit__(self, *exc) -> None:
        self.search._stream_candidates = self.stream

    def timed(self, fn, *args, **kwargs):
        """``fn``'s result and its (checks, search, reports) seconds."""
        self.marks.clear()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t3 = time.perf_counter()
        t1, t2 = self.marks
        return result, (t1 - t0, t2 - t1, t3 - t2)


def query_phases(split: Split, full, raw) -> list[float]:
    """One query's phase times in seconds, in :data:`PHASES` order."""
    from p2c import dataset, domain, planner, search

    times = []
    t0 = time.perf_counter()
    red = dataset.consolidate_dataset(full, raw)
    inst = domain.validate_state(red.config, raw)
    times.append(time.perf_counter() - t0)
    best, parts = split.timed(search.min_cf, red, inst, on_inconsistent="allow")
    times += parts
    for mode in ("p2c", "all_changes"):
        _, parts = split.timed(search.goal_knearest, red, inst, K_NEAREST, mode=mode,
                               on_inconsistent="allow")
        times += parts
    t0 = time.perf_counter()
    plan = planner.find_path(red, inst, best.target, on_inconsistent="repair")
    t1 = time.perf_counter()
    planner.path_is_legal(red, plan)
    t2 = time.perf_counter()
    naive = planner.naive_find_path(red, inst, best.target)
    t3 = time.perf_counter()
    planner.path_is_legal(red, naive)
    t4 = time.perf_counter()
    times += [t1 - t0, (t2 - t1) + (t4 - t3), t3 - t2]
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(REPO / "src"), help="directory holding p2c")
    parser.add_argument("--seed", type=int, default=711, help="perfbench's bundled seed")
    parser.add_argument("--rounds", type=int, default=7, help="runs of every query")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, str(Path(args.src).resolve()))
    from p2c import search

    queries = bundled_queries(args.seed)
    best = [[float("inf")] * len(PHASES) for _ in queries]
    with Split(search) as split:
        for _ in range(args.rounds):
            for fastest, (_, full, raw) in zip(best, queries):
                for i, t in enumerate(query_phases(split, full, raw)):
                    fastest[i] = min(fastest[i], t)
    print(f"{len(queries)} bundled queries, seed {args.seed}, fastest of {args.rounds} rounds, "
          f"Python {sys.version.split()[0]}; median us per query")
    for i, name in enumerate(PHASES):
        print(f"  {name:<24}{statistics.median(q[i] for q in best) * 1e6:9.1f}")
    print(f"  {'total':<24}{statistics.median(sum(q) for q in best) * 1e6:9.1f}")


if __name__ == "__main__":
    main()
