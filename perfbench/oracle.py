"""Independent reference semantics for checking the program's answers.

Everything here is the benchmark's own code: a small reader for the rule text,
completion semantics for the causal rules, the goal test, weighted-Lp pricing
with causally compelled changes free, exhaustive scans with no bounds and no
streaming, and replay of plans against the configuration flags.  None of it
calls into ``p2c``, so an optimisation of the program's evaluator, search or
planner cannot hide a wrong answer by agreeing with itself.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import re
from dataclasses import dataclass

TOL = 1e-9
# find_path's known fault: its deepening minimises direct actions, not cost, and
# it stops at the first goal it reaches
OFF_TARGET = "plan ends at a goal costlier than s*"

_HEAD = re.compile(r"^([a-z]\w*)\(\s*[A-Z]\w*\s*,\s*(.+?)\s*\)$")
_TEST = re.compile(r"^(not\s+)?([a-z]\w*)\(\s*[A-Z]\w*\s*,\s*(.+?)\s*\)$")
_CMP = re.compile(r"^([A-Z]\w*)\s*=<\s*(-?\d+(?:\.\d+)?)$")
_NEG_CMP = re.compile(r"^not\s*\(\s*([A-Z]\w*)\s*=<\s*(-?\d+(?:\.\d+)?)\s*\)$")
_AUX = re.compile(r"^ab\d*$")


def _constant(text: str):
    if text.startswith("'") and text.endswith("'"):
        return text[1:-1]
    try:
        return float(text)
    except ValueError:
        return text


def _split_body(body: str) -> list[str]:
    parts, depth, quoted, cur = [], 0, False, []
    for ch in body:
        if ch == "'":
            quoted = not quoted
        elif not quoted and ch == "(":
            depth += 1
        elif not quoted and ch == ")":
            depth -= 1
        if ch == "," and depth == 0 and not quoted:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if "".join(cur).strip():
        parts.append("".join(cur).strip())
    return parts


def read_rules(text: str) -> list[tuple[str, object, list[tuple]]]:
    """Clauses as (head predicate, head value, literals).

    A literal is ('test', feature, value, negated), ('bind', feature, var),
    ('cmp', var, bound, negated) or ('aux', predicate, value, negated).
    """
    lines = [ln.split("%", 1)[0] for ln in text.splitlines()]
    clauses = []
    for chunk in re.split(r"\.\s*(?:\n|$)", "\n".join(lines)):
        chunk = " ".join(chunk.split())
        if not chunk:
            continue
        head, _, body = chunk.partition(":-")
        m = _HEAD.match(head.strip())
        if m is None:
            raise ValueError(f"unreadable head: {head!r}")
        lits = []
        for part in _split_body(body) if body.strip() else []:
            if (c := _NEG_CMP.match(part)) is not None:
                lits.append(("cmp", c.group(1), float(c.group(2)), True))
            elif (c := _CMP.match(part)) is not None:
                lits.append(("cmp", c.group(1), float(c.group(2)), False))
            elif (t := _TEST.match(part)) is not None:
                neg, pred, arg = bool(t.group(1)), t.group(2), t.group(3)
                if _AUX.match(pred):
                    lits.append(("aux", pred, _constant(arg), neg))
                elif re.fullmatch(r"[A-Z]\w*", arg):
                    lits.append(("bind", pred, arg))
                else:
                    lits.append(("test", pred, _constant(arg), neg))
            else:
                raise ValueError(f"unreadable literal: {part!r}")
        clauses.append((m.group(1), _constant(m.group(2)), lits))
    return clauses


@dataclass(frozen=True)
class Feature:
    name: str
    domain: tuple
    numeric: bool = False
    width: float = 1.0
    weight: float = 1.0
    mutable: bool = True
    actionable: bool = True
    monotone: str = "none"
    direction: str = "exact"

    def satisfies(self, value, target) -> bool:
        if self.numeric and self.direction == "at_least":
            return value >= target
        if self.numeric and self.direction == "at_most":
            return value <= target
        return value == target

    def distance(self, a, b) -> float:
        if self.numeric:
            if self.width <= 0:
                return 0.0 if a == b else 1.0
            return abs(float(a) - float(b)) / self.width
        return 0.0 if a == b else 1.0

    def direct_ok(self, old, new) -> bool:
        if not self.mutable or not self.actionable or new not in self.domain:
            return False
        lo, hi = self.domain.index(old), self.domain.index(new)
        if self.monotone == "nondecreasing":
            return hi >= lo
        if self.monotone == "nonincreasing":
            return hi <= lo
        return True


class Model:
    """A feature space plus decision and causal rules, read independently."""

    def __init__(self, features, decision_text: str, causal_text: str, undesired: str):
        self.features = tuple(features)
        self.names = tuple(f.name for f in self.features)
        self.index = {n: i for i, n in enumerate(self.names)}
        decision = read_rules(decision_text)
        self.aux = [c for c in decision if _AUX.match(c[0])]
        self.decision = [c for c in decision if not _AUX.match(c[0])]
        self.rejects_when_fired = self.decision[0][1] == undesired if self.decision else True
        causal = read_rules(causal_text)
        self.causal_aux = [c for c in causal if _AUX.match(c[0])]
        groups: dict[str, dict] = {}
        for head, value, lits in causal:
            if not _AUX.match(head):
                groups.setdefault(head, {}).setdefault(value, []).append(lits)
        self.groups = groups
        self._goal: dict[tuple, bool] = {}
        self._free: dict[tuple, frozenset] = {}

    def with_domains(self, domains: dict[str, tuple]) -> "Model":
        """The same rules over other domains (e.g. a consolidated space).

        Goal membership and pricing read only the values, so the caches are shared.
        """
        other = copy.copy(self)
        other.features = tuple(
            dataclasses.replace(f, domain=tuple(domains[f.name])) for f in self.features
        )
        return other

    def resolve(self, raw: dict) -> tuple:
        """A raw assignment as a state: numerics snap up to their interval's representative."""
        out = []
        for f in self.features:
            v = raw[f.name]
            if f.numeric:
                v = float(v)
                out.append(next((rep for rep in f.domain if v <= rep), f.domain[-1]))
            else:
                out.append(str(v))
        return tuple(out)

    # -- rule evaluation ---------------------------------------------------

    def _fires(self, lits, state, aux) -> bool:
        bound: dict[str, float] = {}
        for lit in lits:
            kind = lit[0]
            if kind == "test":
                ok = (state[self.index[lit[1]]] == lit[2]) != lit[3]
            elif kind == "bind":
                bound[lit[2]] = float(state[self.index[lit[1]]])
                ok = True
            elif kind == "cmp":
                ok = (bound[lit[1]] <= lit[2]) != lit[3]
            else:
                held = any(
                    h == lit[1] and v == lit[2] and self._fires(b, state, aux)
                    for h, v, b in aux
                )
                ok = held != lit[3]
            if not ok:
                return False
        return True

    def rejected(self, state) -> bool:
        fired = any(self._fires(lits, state, self.aux) for _, _, lits in self.decision)
        return fired == self.rejects_when_fired

    def entailment(self, feature: str, state):
        """(required value or None, excluded values) for one causal head."""
        fired, excluded = [], []
        for value, bodies in self.groups[feature].items():
            if any(self._fires(b, state, self.causal_aux) for b in bodies):
                fired.append(value)
            else:
                excluded.append(value)
        if len(fired) > 1:
            raise ValueError(f"two alternatives of {feature!r} fire at {state}")
        return (fired[0] if fired else None), excluded

    def allowed(self, feature: str, value, state) -> bool:
        spec = self.features[self.index[feature]]
        required, excluded = self.entailment(feature, state)
        if required is not None and not spec.satisfies(value, required):
            return False
        return not any(spec.satisfies(value, ex) for ex in excluded)

    def consistent(self, state) -> bool:
        return all(self.allowed(f, state[self.index[f]], state) for f in self.groups)

    def is_goal(self, state) -> bool:
        state = tuple(state)
        hit = self._goal.get(state)
        if hit is None:
            hit = self._goal[state] = self.consistent(state) and not self.rejected(state)
        return hit

    # -- pricing -------------------------------------------------------------

    def free_features(self, target) -> frozenset:
        """Heads whose value the causal rules compel in ``target``."""
        target = tuple(target)
        hit = self._free.get(target)
        if hit is None:
            free = set()
            for f in self.groups:
                required, _ = self.entailment(f, target)
                spec = self.features[self.index[f]]
                if required is not None and spec.satisfies(target[self.index[f]], required):
                    free.add(f)
            hit = self._free[target] = frozenset(free)
        return hit

    def cost(self, source, target, p: int, mode: str = "p2c") -> float:
        free = self.free_features(target) if mode == "p2c" else frozenset()
        total = 0.0
        for spec, a, b in zip(self.features, source, target):
            w = 0.0 if (spec.name in free and a != b) else spec.weight
            d = spec.distance(a, b)
            if p == 0:
                total += 1.0 if w > 0 and d > 0 else 0.0
            elif p == 1:
                total += w * d
            else:
                total += w * d * d
        return math.sqrt(total) if p == 2 else total

    def plausible(self, source) -> list[tuple]:
        out = []
        for spec, cur in zip(self.features, source):
            if not spec.mutable:
                out.append((cur,))
            elif spec.name in self.groups:
                out.append(spec.domain)
            elif not spec.actionable:
                out.append((cur,))
            elif spec.monotone == "nondecreasing":
                out.append(spec.domain[spec.domain.index(cur):])
            elif spec.monotone == "nonincreasing":
                out.append(spec.domain[: spec.domain.index(cur) + 1])
            else:
                out.append(spec.domain)
        return out

    def in_plausible(self, source, target) -> bool:
        return all(t in vals for t, vals in zip(target, self.plausible(source)))

    def goal_costs(self, source, p: int, mode: str) -> list[float]:
        """Costs of every goal state in the admissible space, ascending."""
        return sorted(
            self.cost(source, s, p, mode)
            for s in itertools.product(*self.plausible(source))
            if self.is_goal(s)
        )


# -- checks -------------------------------------------------------------------


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def check_min_cf(model: Model, source, target, cost: float, p: int, optimum: float | None,
                 ceiling: float | None = None) -> list[str]:
    """s* is an admissible goal priced as reported, at the optimum (or under a witness)."""
    problems = []
    if not model.is_goal(target):
        problems.append("s* is not a goal state")
    if not model.in_plausible(source, target):
        problems.append("s* leaves the admissible space")
    priced = model.cost(source, target, p)
    if not close(priced, cost):
        problems.append(f"s* cost reported {cost}, recomputed {priced}")
    if optimum is not None and not close(cost, optimum):
        problems.append(f"s* cost {cost} but the optimum is {optimum}")
    if ceiling is not None and cost > ceiling + TOL:
        problems.append(f"s* cost {cost} exceeds the witness escape's {ceiling}")
    return problems


def check_knearest(model: Model, source, listed, k: int, p: int, mode: str,
                   s_cost: float, scan: list[float]) -> list[str]:
    """``listed`` is [(target, cost)]: distinct admissible goals, ascending, the k best."""
    problems = []
    targets = [tuple(t) for t, _ in listed]
    costs = [c for _, c in listed]
    if len(listed) != min(k, len(scan)):
        problems.append(f"{mode}: listed {len(listed)} states, expected {min(k, len(scan))}")
    if len(set(targets)) != len(targets):
        problems.append(f"{mode}: listed states are not distinct")
    for t, c in listed:
        if not model.is_goal(t) or not model.in_plausible(source, t):
            problems.append(f"{mode}: listed state {t} is not an admissible goal")
        elif not close(model.cost(source, t, p, mode), c):
            problems.append(f"{mode}: listed cost {c} does not price {t}")
    if any(b < a - TOL for a, b in zip(costs, costs[1:])):
        problems.append(f"{mode}: costs are not nondecreasing")
    if not all(close(a, b) for a, b in zip(costs, scan[:k])):
        problems.append(f"{mode}: costs differ from the exhaustive scan's k best")
    if mode == "p2c" and costs and not close(costs[0], s_cost):
        problems.append("first listed cost differs from s*'s")
    return problems


def replay_plan(model: Model, source, steps) -> tuple[list[str], list[str]]:
    """Replay [(state, [(kind, feature, value)])] from ``source``.

    Returns (legality problems, other problems).  A causally consistent
    source must be the first state; an inconsistent one may be replaced by a
    repaired start that changes only features a causal rule or a legal
    direct action can move.
    """
    illegal, problems = [], []
    if not steps:
        return illegal, ["empty plan"]
    source = tuple(source)
    start = tuple(steps[0][0])
    if model.consistent(source):
        if start != source:
            problems.append("plan does not start at the instance")
    else:
        if not model.consistent(start):
            problems.append("repaired start is inconsistent")
        for spec, a, b in zip(model.features, source, start):
            if a != b and not (spec.mutable and spec.name in model.groups) and not spec.direct_ok(a, b):
                illegal.append(f"repair prefix moves {spec.name!r} illegally")
    current = start
    for no, (state, actions) in enumerate(steps):
        for kind, feature, value in actions:
            i = model.index[feature]
            spec = model.features[i]
            if kind == "direct":
                if not spec.direct_ok(current[i], value):
                    illegal.append(f"step {no}: direct {feature} -> {value!r}")
            elif kind == "causal":
                if not (spec.mutable and feature in model.groups and value in spec.domain
                        and model.allowed(feature, value, current)):
                    illegal.append(f"step {no}: causal {feature} -> {value!r} not compelled")
            else:
                illegal.append(f"step {no}: unknown action kind {kind!r}")
            current = current[:i] + (value,) + current[i + 1:]
        if current != tuple(state):
            problems.append(f"step {no}: recorded state differs from the replayed actions")
            current = tuple(state)
    return illegal, problems


def check_causal_plan(model: Model, source, steps, legal_verdict: bool, p: int,
                      s_cost: float) -> list[str]:
    """Problems with a causal plan, ending at a goal costlier than s* among them."""
    illegal, problems = replay_plan(model, source, steps)
    problems += illegal
    if not legal_verdict:
        problems.append("path_is_legal rejected the causal plan")
    for no, (state, _) in enumerate(steps):
        if not model.consistent(state):
            problems.append(f"step {no}: state is causally inconsistent")
    end = tuple(steps[-1][0]) if steps else None
    if end is None or not model.is_goal(end):
        problems.append("plan does not end at a goal state")
    else:
        end_cost = model.cost(source, end, p)
        if end_cost < s_cost - TOL:
            problems.append(f"plan ends at a goal cheaper than s* ({end_cost} < {s_cost})")
        elif not close(end_cost, s_cost):
            problems.append(OFF_TARGET)
    return problems


def check_naive_plan(model: Model, source, steps, legal_verdict: bool, s_star) -> list[str]:
    """The baseline rewrites features directly; path_is_legal must judge it as replay does."""
    problems = []
    if not steps or tuple(steps[0][0]) != tuple(source) or tuple(steps[-1][0]) != tuple(s_star):
        problems.append("naive plan does not run from the instance to s*")
        return problems
    current = tuple(source)
    legal = True
    for no, (state, actions) in enumerate(steps):
        for kind, feature, value in actions:
            i = model.index[feature]
            if kind != "direct" or not model.features[i].direct_ok(current[i], value):
                legal = False
            current = current[:i] + (value,) + current[i + 1:]
        if current != tuple(state):
            problems.append(f"naive step {no}: recorded state differs from the replayed actions")
    if legal != legal_verdict:
        problems.append(f"path_is_legal says {legal_verdict} for a naive plan replay judges {legal}")
    return problems
