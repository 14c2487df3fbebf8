"""Loading and bundling a dataset: config JSON + decision and causal rules.

The JSON config declares categorical domains outright; numeric features only
declare range and step, and their finite domains are derived here from every
comparison bound or causal head the programs apply to them, plus the factual
instance's value.

A :class:`Dataset` answers its per-state tests (goal, causal consistency,
decision, entailments) on the bit masks of :class:`masks.CompiledRules`.
It compiles them on its first query and keeps them, so a dataset built only
to read its size or norm never compiles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .consistency import CausalGroup, Entailment, build_causal_groups
from .domain import (
    CATEGORICAL,
    NUMERIC,
    DatasetConfig,
    FeatureSpec,
    State,
    Value,
    build_numeric_domain,
    consolidate_placeholders,
    validate_state,
)
from .errors import ConfigError
from .rules import RuleProgram, is_aux_predicate, mentioned_values, parse_rule_program

if TYPE_CHECKING:
    from .masks import CompiledRules


@dataclass(frozen=True)
class Dataset:
    """A config plus both rule programs, cross-validated and ready to query."""

    config: DatasetConfig
    decision: RuleProgram
    causal: RuleProgram
    groups: tuple[CausalGroup, ...]
    root: Path | None = None
    warnings: tuple[str, ...] = ()
    digest: str = ""

    @cached_property
    def causal_head_features(self) -> frozenset[str]:
        return frozenset(g.feature for g in self.groups)

    @cached_property
    def compiled(self) -> CompiledRules:
        """Both rule programs as bit masks over this config's domains."""
        from .masks import CompiledRules

        return CompiledRules(self.config, self.groups, self.causal, self.decision)

    def default_instance(self) -> State | None:
        if self.config.instance_defaults is None:
            return None
        return validate_state(self.config, self.config.instance_defaults)

    # per-state tests on the compiled masks

    def consistent(self, state: State) -> bool:
        compiled = self.compiled
        return compiled.consistent(compiled.bits(state))

    def decision_positive(self, state: State) -> bool:
        compiled = self.compiled
        return compiled.decision_positive(compiled.bits(state))

    def is_goal(self, state: State) -> bool:
        compiled = self.compiled
        return compiled.is_goal(compiled.bits(state))

    def entailments(self, state: State) -> tuple[Entailment, ...]:
        """One entailment per causal group, in group order.

        Bodies never read their own head feature (enforced at load), so each
        group is decided by the state's other features alone.
        """
        compiled = self.compiled
        return compiled.entailments(compiled.bits(state))

    def repair_values(self, state: State, feature: str) -> tuple[Value, ...]:
        """Domain values that would make ``feature``'s causal group consistent,
        holding the other features of ``state`` fixed; the fired head value
        comes first, the rest follow in domain order."""
        compiled = self.compiled
        return compiled.repair_values(compiled.bits(state), feature)


def _feature_from_json(
    obj: Mapping, programs: Sequence[RuleProgram], defaults: Mapping
) -> FeatureSpec:
    name = obj.get("name")
    if not name:
        raise ConfigError("feature entry without a name")
    kind = obj.get("kind", CATEGORICAL)
    common = dict(
        name=name,
        kind=kind,
        weight=float(obj.get("weight", 1.0)),
        mutable=bool(obj.get("mutable", True)),
        monotone=obj.get("monotone", "none"),
        directly_actionable=bool(obj.get("directly_actionable", True)),
        causal_direction=obj.get("causal_direction", "exact"),
    )
    if kind == CATEGORICAL:
        domain = obj.get("domain")
        if not domain:
            raise ConfigError(f"categorical feature {name!r} needs a domain list")
        return FeatureSpec(domain=tuple(str(v) for v in domain), **common)
    if kind == NUMERIC:
        rng = obj.get("numeric_range")
        if not rng or len(rng) != 2:
            raise ConfigError(f"numeric feature {name!r} needs numeric_range [lo, hi]")
        lo, hi = float(rng[0]), float(rng[1])
        step = float(obj.get("step", 1.0))
        mentions: set[float] = set()
        for prog in programs:
            for v in mentioned_values(prog, name):
                if isinstance(v, float):
                    mentions.add(v)
                else:
                    raise ConfigError(
                        f"numeric feature {name!r} is tested against the categorical "
                        f"constant {v!r}"
                    )
        if name in defaults:
            try:
                mentions.add(float(defaults[name]))
            except (TypeError, ValueError):
                raise ConfigError(
                    f"instance default for numeric feature {name!r} is not numeric"
                ) from None
        domain = build_numeric_domain(lo, hi, step, mentions)
        return FeatureSpec(domain=domain, numeric_range=(lo, hi), step=step, **common)
    raise ConfigError(f"feature {name!r}: unknown kind {kind!r}")


def _cross_validate(config: DatasetConfig, decision: RuleProgram, causal: RuleProgram) -> None:
    label = decision.head_label
    for prog in (decision, causal):
        for rule in prog.clauses:
            for lit in rule.body:
                pred = lit.predicate
                if pred is None or is_aux_predicate(pred):
                    continue
                if label is not None and pred == label.predicate:
                    continue  # caught by stratification already
                if not config.has_feature(pred):
                    raise ConfigError(
                        f"{prog.kind} rules reference {pred!r}, which is not a feature"
                    )
                spec = config.feature(pred)
                if lit.kind == "numeric_binding" and spec.kind != NUMERIC:
                    raise ConfigError(
                        f"numeric binding on categorical feature {pred!r}"
                    )
                if (
                    lit.kind in ("feature_test", "negated_feature_test")
                    and spec.kind == CATEGORICAL
                    and isinstance(lit.value, float)
                ):
                    raise ConfigError(
                        f"numeric constant {lit.value} tested against categorical "
                        f"feature {pred!r}"
                    )
    if label is not None and config.has_feature(label.predicate):
        raise ConfigError(
            f"decision predicate {label.predicate!r} collides with a feature name"
        )


def build_dataset(
    config: DatasetConfig,
    decision: RuleProgram,
    causal: RuleProgram,
    root: Path | None = None,
    digest: str = "",
) -> Dataset:
    _cross_validate(config, decision, causal)
    label = decision.head_label
    describes_undesired = label is None or label.value == config.undesired_decision
    if decision.describes_undesired != describes_undesired:
        decision = replace(decision, describes_undesired=describes_undesired)
    groups = build_causal_groups(config, causal)

    warnings = []
    heads = {g.feature for g in groups}
    for f in config.features:
        if not f.directly_actionable and f.mutable and f.name not in heads:
            warnings.append(
                f"feature {f.name!r} is not directly actionable and no causal rule "
                f"can move it: it is frozen at its factual value"
            )
    if causal.clauses and not causal.verified:
        warnings.append(
            "causal rules carry no '% verified:' header; confirm they encode "
            "expert-checked causation, not correlation"
        )
    ds = Dataset(
        config=config,
        decision=decision,
        causal=causal,
        groups=groups,
        root=root,
        warnings=tuple(warnings),
        digest=digest,
    )
    if config.instance_defaults is not None:
        validate_state(config, config.instance_defaults)  # fail fast at load
    return ds


def load_dataset(
    path: str | Path,
    decision_text: str | None = None,
    causal_text: str | None = None,
) -> Dataset:
    """Load a dataset directory (or an explicit config.json path).

    Explicit rule texts override the files the config names; numeric domains
    are derived from whichever rules actually apply.
    """
    path = Path(path)
    config_path = path / "config.json" if path.is_dir() else path
    root = config_path.parent
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"no config file at {config_path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}: invalid JSON ({exc})") from None

    decision_rel = raw.get("decision_rules", "decision.rules")
    causal_rel = raw.get("causal_rules", "causal.rules")
    if decision_text is None:
        decision_text = _read(root / decision_rel)
    if causal_text is None:
        causal_text = _read(root / causal_rel)
    decision = parse_rule_program(decision_text, kind="decision")
    causal = parse_rule_program(causal_text, kind="causal")

    defaults = raw.get("instance_defaults") or {}
    features = tuple(
        _feature_from_json(obj, (decision, causal), defaults)
        for obj in raw.get("features", [])
    )
    if not features:
        raise ConfigError(f"{config_path}: no features declared")
    config = DatasetConfig(
        name=raw.get("name", root.name),
        features=features,
        undesired_decision=str(raw.get("undesired_decision", "")),
        norm_p=int(raw.get("norm_p", 1)),
        decision_rules=decision_rel,
        causal_rules=causal_rel,
        label_column=raw.get("label_column"),
        instance_defaults=raw.get("instance_defaults"),
        max_dpl=raw.get("max_dpl"),
    )
    digest = hashlib.sha256()
    for blob in (
        config_path.read_bytes(),
        decision_text.encode(),
        causal_text.encode(),
    ):
        digest.update(blob)
    return build_dataset(config, decision, causal, root=root, digest=digest.hexdigest())


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"missing rules file {path}") from None


def consolidate_dataset(dataset: Dataset, instance_raw: Mapping | None = None) -> Dataset:
    """Dataset over the placeholder-consolidated space.

    ``instance_raw`` overrides the config's factual instance; its values
    survive consolidation so it stays representable in the reduced space.
    """
    config = dataset.config
    if instance_raw is not None:
        config = replace(config, instance_defaults=dict(instance_raw))
    reduced = consolidate_placeholders(config, (dataset.decision, dataset.causal))
    return build_dataset(
        reduced, dataset.decision, dataset.causal, root=dataset.root, digest=dataset.digest
    )
