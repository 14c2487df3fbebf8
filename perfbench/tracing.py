"""Spans around the program's public entry points, for the traced run only.

Wrappers are patched where callers look each name up (``p2c.cli.load_dataset``
as well as ``p2c.dataset.load_dataset``, the ``Dataset`` methods on the class),
so calls made by the program itself are traced too.  Each call of an entry
point becomes a span (name, start, end, parent).  The per-state tests
``Dataset.is_goal`` and ``Dataset.consistent`` run tens of thousands of times
per query, so they are counted and timed on their enclosing span instead of
getting spans of their own.  Everything stays in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# (module, attribute, span name) for every place a caller looks an entry point up
ENTRY_POINTS = (
    ("p2c.rules", "parse_rule_program", "rules.parse"),
    ("p2c.dataset", "parse_rule_program", "rules.parse"),
    ("p2c.cli", "parse_rule_program", "rules.parse"),
    ("p2c.dataset", "load_dataset", "dataset.load"),
    ("p2c.cli", "load_dataset", "dataset.load"),
    ("p2c.dataset", "consolidate_dataset", "dataset.consolidate"),
    ("p2c.cli", "consolidate_dataset", "dataset.consolidate"),
    ("p2c.search", "min_cf", "search.min_cf"),
    ("p2c.cli", "min_cf", "search.min_cf"),
    ("p2c.search", "goal_knearest", "search.knearest"),
    ("p2c.cli", "goal_knearest", "search.knearest"),
    ("p2c.planner", "find_path", "planner.find_path"),
    ("p2c.cli", "find_path", "planner.find_path"),
    ("p2c.planner", "naive_find_path", "planner.naive"),
    ("p2c.cli", "naive_find_path", "planner.naive"),
    ("p2c.planner", "path_is_legal", "planner.legality"),
    ("p2c.cli", "path_is_legal", "planner.legality"),
    ("p2c.cli", "main", "cli.main"),
)
LEAVES = (("is_goal", "goal_test"), ("consistent", "check"))


class Span:
    __slots__ = ("name", "start", "end", "parent", "leaves")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.leaves: dict[str, list] = {}  # leaf name -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root = Span("root", -1)  # collects leaf calls made outside any span
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.enabled = True

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def _leaf(self, name, fn):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                owner = spans[stack[-1]] if stack else self.root
                slot = owner.leaves.get(name)
                if slot is None:
                    owner.leaves[name] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt

        return counted

    def install(self) -> None:
        import importlib

        for module_name, attr, span_name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._span(span_name, original))
        from p2c.dataset import Dataset

        for attr, leaf_name in LEAVES:
            original = getattr(Dataset, attr)
            self._patched.append((Dataset, attr, original))
            setattr(Dataset, attr, self._leaf(leaf_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_time(self, index: int, children: dict[int, float]) -> float:
        span = self.spans[index]
        leaf_time = sum(t for _, t in span.leaves.values())
        return span.duration - children.get(index, 0.0) - leaf_time

    def child_time(self) -> dict[int, float]:
        """Per span, the time its direct child spans cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "leaves": s.leaves,
                }) + "\n")


def layer_metrics(tracer: Tracer, queries: int, scale: float) -> dict[str, float]:
    """Per-layer figures from the spans; times rescaled by the drift ``scale``.

    Counts are per query (or per call of the named span) and repeat exactly for
    a seed; a layer the workload never calls reads 0.
    """
    children = tracer.child_time()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    leaves: dict[tuple[str, str], list] = {}  # (owner span name, leaf) -> [calls, s]
    load_under_cli = 0
    for i, span in enumerate(tracer.spans):
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + tracer.self_time(i, children)
        if span.name == "dataset.load" and span.parent >= 0 and tracer.spans[span.parent].name == "cli.main":
            load_under_cli += 1
        for leaf, (n, t) in span.leaves.items():
            slot = leaves.setdefault((span.name, leaf), [0, 0.0])
            slot[0] += n
            slot[1] += t
    for leaf, (n, t) in tracer.root.leaves.items():
        slot = leaves.setdefault(("root", leaf), [0, 0.0])
        slot[0] += n
        slot[1] += t

    def per_call_ms(name, table=total):
        return table.get(name, 0.0) / calls[name] * 1e3 * scale if calls.get(name) else 0.0

    def leaf_sum(leaf, owner=None):
        picked = [v for (o, lf), v in leaves.items() if lf == leaf and owner in (None, o)]
        return sum(n for n, _ in picked), sum(t for _, t in picked)

    goal_n, goal_t = leaf_sum("goal_test")
    check_n, check_t = leaf_sum("check")
    knn_goal_n, _ = leaf_sum("goal_test", "search.knearest")
    fp_goal_n, _ = leaf_sum("goal_test", "planner.find_path")
    fp_check_n, _ = leaf_sum("check", "planner.find_path")
    fp_calls = calls.get("planner.find_path", 0)
    cli_calls = calls.get("cli.main", 0)
    return {
        "rules.parse_ms": per_call_ms("rules.parse"),
        "dataset.load_ms": per_call_ms("dataset.load"),
        "dataset.load_calls": load_under_cli / cli_calls if cli_calls else 0.0,
        "dataset.consolidate_ms": per_call_ms("dataset.consolidate"),
        "consistency.goal_tests": goal_n / queries,
        "consistency.goal_test_us": goal_t / goal_n * 1e6 * scale if goal_n else 0.0,
        "consistency.checks": check_n / queries,
        "consistency.check_us": check_t / check_n * 1e6 * scale if check_n else 0.0,
        "search.min_cf_ms": per_call_ms("search.min_cf"),
        "search.min_cf_self_ms": per_call_ms("search.min_cf", self_total),
        "search.knearest_ms": per_call_ms("search.knearest"),
        "search.knearest_goal_tests": knn_goal_n / queries,
        "planner.find_path_ms": per_call_ms("planner.find_path"),
        "planner.find_path_self_ms": per_call_ms("planner.find_path", self_total),
        "planner.find_path_checks": (fp_goal_n + fp_check_n) / fp_calls if fp_calls else 0.0,
        "planner.legality_ms": per_call_ms("planner.legality"),
        "planner.naive_ms": per_call_ms("planner.naive"),
        "cli.main_ms": per_call_ms("cli.main"),
        "cli.self_ms": per_call_ms("cli.main", self_total),
    }
