"""Causal rules grouped per head feature, and what they entail of a state.

Causal rules are grouped per head feature; each group is read under program
completion, i.e. the "if" rules become "if and only if": a head value is
satisfied exactly when one of its bodies fires.  A fired alternative entails
its head value; an alternative whose bodies all fail excludes it.

This module holds only the groups.  They are read on the one-hot bit masks
of :class:`p2c.masks.CompiledRules`: one bit per feature value, each rule
as the boxes (forbidden masks) it fires on, its exception calls included,
one head mask per causal alternative, and per group the values it allows
given which alternative fires.  A ``Dataset``
compiles its programs once, on its first query; ``consistent`` and
``is_goal`` are its per-state API.  The State-level reading of the same
completion semantics, an interpreter over name->value dicts, is kept as a
test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import DatasetConfig, Value
from .errors import ConfigError
from .rules import Rule, RuleProgram


@dataclass(frozen=True)
class CausalAlternative:
    value: Value
    rules: tuple[Rule, ...]


@dataclass(frozen=True)
class CausalGroup:
    """All causal rules sharing one head feature, keyed by head value."""

    feature: str
    alternatives: tuple[CausalAlternative, ...]


def build_causal_groups(
    config: DatasetConfig, causal: RuleProgram
) -> tuple[CausalGroup, ...]:
    """Group causal rules per head feature, validating heads against config."""
    if causal.kind != "causal":
        raise ConfigError("expected a causal program")
    by_feature: dict[str, dict[Value, list[Rule]]] = {}
    order: list[str] = []
    for rule in causal.rules:
        name = rule.head.predicate
        if not config.has_feature(name):
            raise ConfigError(f"causal head {name!r} is not a feature")
        spec = config.feature(name)
        value = rule.head.value
        if spec.kind == "numeric":
            if not isinstance(value, float):
                raise ConfigError(
                    f"causal head for numeric feature {name!r} must be numeric"
                )
            lo, hi = spec.numeric_range  # type: ignore[misc]
            if not lo <= value <= hi:
                raise ConfigError(f"causal head value {value} outside {name!r} range")
        elif value not in spec.domain:
            raise ConfigError(
                f"causal head value {value!r} is not in the domain of {name!r}"
            )
        for lit in rule.body:
            if lit.predicate is not None and lit.predicate == name:
                raise ConfigError(f"causal rule for {name!r} reads its own feature")
        if name not in by_feature:
            by_feature[name] = {}
            order.append(name)
        by_feature[name].setdefault(value, []).append(rule)
    groups = []
    for name in order:
        alts = tuple(
            CausalAlternative(value, tuple(rs)) for value, rs in by_feature[name].items()
        )
        groups.append(CausalGroup(feature=name, alternatives=alts))
    return tuple(groups)
