"""Loading and bundling a dataset: config JSON + decision and causal rules.

The JSON config declares categorical domains outright; numeric features only
declare range and step, and their finite domains are derived here from every
comparison bound or causal head the programs apply to them, plus the factual
instance's value.

A :class:`Dataset` answers its per-state tests (goal, causal consistency,
decision) on the bit masks of :class:`masks.CompiledRules`.
It compiles them on its first query and keeps them, so a dataset built only
to read its size or norm never compiles.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .domain import (
    CATEGORICAL,
    NUMERIC,
    DatasetConfig,
    FeatureSpec,
    State,
    as_float,
    build_numeric_domain,
    validate_state,
)
from .errors import ConfigError, RuleProgramError, RuleSyntaxError, StateValidationError
from .records import Record, replace
from .rules import RuleProgram, is_aux_predicate, mentioned_values, parse_rule_program

if TYPE_CHECKING:
    from .masks import CompiledRules


class Dataset(Record):
    """A config plus both rule programs, cross-validated and ready to query.

    A dataset read from a bundle keeps the bytes it was read from, which
    :attr:`digest` hashes on first read, and ``records.replace`` hands them
    to the rebuilt dataset; one built in memory keeps none."""

    _fields = ("config", "decision", "causal", "warnings")
    _kept = ("_source",)
    config: DatasetConfig
    decision: RuleProgram
    causal: RuleProgram
    warnings: tuple[str, ...]
    # set in __init__ and not a field, so neither compared nor shown: the config's
    # bytes and both rule texts of the bundle, or None
    _source: tuple[bytes, str, str] | None

    def __init__(self, config: DatasetConfig, decision: RuleProgram, causal: RuleProgram,
                 warnings: tuple[str, ...] = ()):
        fields = self.__dict__
        fields["config"] = config
        fields["decision"] = decision
        fields["causal"] = causal
        fields["warnings"] = warnings
        fields["_source"] = None

    @cached_property
    def digest(self) -> str:
        """SHA-256 over the config's bytes and both rule texts the bundle was
        read from, or "" for a dataset built in memory."""
        if self._source is None:
            return ""
        import hashlib  # imported here: only a report reads the digest

        blob, decision_text, causal_text = self._source
        digest = hashlib.sha256(blob)
        digest.update(decision_text.encode())
        digest.update(causal_text.encode())
        return digest.hexdigest()

    @cached_property
    def compiled(self) -> CompiledRules:
        """Both rule programs as bit masks over this config's domains."""
        from .masks import CompiledRules

        return CompiledRules(self.config, self.causal, self.decision)

    @cached_property
    def unmentioned(self) -> tuple[tuple[str, frozenset[str]], ...]:
        """Per categorical feature, its name and the domain values that
        neither program mentions: the values consolidation may merge."""
        out = []
        for spec in self.config.features:
            if spec.kind == CATEGORICAL:
                mentioned = mentioned_values(self.decision, spec.name)
                mentioned |= mentioned_values(self.causal, spec.name)
                out.append((spec.name, frozenset(spec.domain) - mentioned))
        return tuple(out)

    @cached_property
    def consolidated(self) -> dict[tuple[str | None, ...], Dataset]:
        """The datasets :func:`consolidate_dataset` has built over this one,
        by placeholder partition."""
        return {}

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


def _json_float(value) -> float | None:
    """``value`` as a float when it is a JSON number (an int or a float, not
    a bool), else None; an int too large for a float is infinite, which
    ``FeatureSpec`` refuses as it refuses any infinite number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return as_float(value)


def _number(obj: Mapping, key: str, default: float, where: str) -> float:
    """``float(obj[key])``, or ``default`` when the key is absent; a value
    that is not a JSON number (a bool or a numeric string included) is a
    :class:`ConfigError` naming the field."""
    value = obj.get(key, default)
    number = _json_float(value)
    if number is None:
        raise ConfigError(f"{where} field {key!r} is not a number: {value!r}")
    return number


def _flag(obj: Mapping, key: str, default: bool, where: str) -> bool:
    """``obj[key]``, or ``default`` when the key is absent; a value that is
    not a JSON boolean is a :class:`ConfigError` naming the field."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where} field {key!r} is not a boolean: {value!r}")
    return value


def _integer(obj: Mapping, key: str, default: int) -> int:
    """``obj[key]``, or ``default`` when the key is absent, checked to be an
    integral number and not a bool; anything else is a :class:`ConfigError`
    naming the field."""
    value = obj.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {key!r} is not an integer: {value!r}")
    return value


def _feature_from_json(
    obj: Mapping, programs: Sequence[RuleProgram], defaults: Mapping
) -> FeatureSpec:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"feature entry {obj!r} is not an object")
    name = obj.get("name")
    if not name or not isinstance(name, str):
        raise ConfigError(f"feature entry without a name: {obj!r}")
    kind = obj.get("kind", CATEGORICAL)
    where = f"feature {name!r}"
    common = dict(
        name=name,
        kind=kind,
        weight=_number(obj, "weight", 1.0, where),
        mutable=_flag(obj, "mutable", True, where),
        monotone=obj.get("monotone", "none"),
        directly_actionable=_flag(obj, "directly_actionable", True, where),
        causal_direction=obj.get("causal_direction", "exact"),
    )
    if kind == CATEGORICAL:
        domain = obj.get("domain")
        if not domain or not isinstance(domain, list):
            raise ConfigError(f"categorical feature {name!r} needs a domain list")
        return FeatureSpec(domain=tuple(str(v) for v in domain), **common)
    if kind == NUMERIC:
        bounds = obj.get("numeric_range")
        pair = isinstance(bounds, list) and len(bounds) == 2
        lo, hi = map(_json_float, bounds) if pair else (None, None)
        if lo is None or hi is None:
            raise ConfigError(
                f"numeric feature {name!r} needs numeric_range [lo, hi] of two numbers, "
                f"got {bounds!r}"
            )
        step = _number(obj, "step", 1.0, where)
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
            value = _json_float(defaults[name])
            if value is None:
                raise ConfigError(
                    f"instance default for numeric feature {name!r} is not a number: "
                    f"{defaults[name]!r}"
                )
            if not math.isfinite(value):
                raise ConfigError(
                    f"instance default for numeric feature {name!r} must be finite, got {value}"
                )
            mentions.add(value)
        domain = build_numeric_domain(lo, hi, step, mentions)
        return FeatureSpec(domain=domain, numeric_range=(lo, hi), step=step, **common)
    raise ConfigError(f"feature {name!r}: unknown kind {kind!r}")


def _cross_validate(config: DatasetConfig, decision: RuleProgram, causal: RuleProgram) -> None:
    """Check both programs against ``config``: every body literal reads a
    feature of its kind, the decision label names no feature and is told
    apart by the config's ``undesired_decision``, and every causal head is a
    value of a feature that its own rule does not read."""
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
    if label is not None and not config.undesired_decision:
        raise ConfigError(
            f"config {config.name!r} names no 'undesired_decision', so the decision "
            f"label {label.value!r} could be either outcome"
        )
    if label is not None and config.has_feature(label.predicate):
        raise ConfigError(
            f"decision predicate {label.predicate!r} collides with a feature name"
        )
    if causal.kind != "causal":
        raise ConfigError("expected a causal program")
    for rule in causal.rules:
        name, value = rule.head.predicate, rule.head.value
        if not config.has_feature(name):
            raise ConfigError(f"causal head {name!r} is not a feature")
        spec = config.feature(name)
        if spec.kind == NUMERIC:
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
        if any(lit.predicate == name for lit in rule.body):
            raise ConfigError(f"causal rule for {name!r} reads its own feature")


def build_dataset(
    config: DatasetConfig,
    decision: RuleProgram,
    causal: RuleProgram,
) -> Dataset:
    _cross_validate(config, decision, causal)
    warnings = []
    heads = {rule.head.predicate for rule in causal.rules}
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
        warnings=tuple(warnings),
    )
    if config.instance_defaults is not None:
        validate_state(config, config.instance_defaults)  # fail fast at load
    return ds


def load_dataset(
    path: str | Path,
    decision_rules: str | Path | None = None,
    causal_rules: str | Path | None = None,
) -> Dataset:
    """Load a dataset directory (or an explicit config.json path).

    ``decision_rules`` and ``causal_rules`` name rule files that override
    those the config names; numeric domains are derived from whichever rules
    actually apply.  A syntax or program error in a rule file names it once.
    """
    config_path, blob, raw = read_config(path)
    programs = []
    for kind, override in (("decision", decision_rules), ("causal", causal_rules)):
        rules_path = rule_file(config_path, raw, kind, override)
        text = read_rules(rules_path)
        try:
            programs.append((text, parse_rule_program(text, kind=kind)))
        except (RuleSyntaxError, RuleProgramError) as exc:
            exc.args = (f"{rules_path}: {exc}",)
            raise
    return bundle_dataset(config_path, (blob, raw), *programs)


def rule_file(config_path: Path, raw: Mapping, kind: str, override: str | Path | None) -> Path:
    """The path of a bundle's ``kind`` rule file: ``override`` when given,
    else the file its config names, next to the config."""
    if override:
        return Path(override)
    return config_path.parent / raw.get(f"{kind}_rules", f"{kind}.rules")


def bundle_dataset(
    config_path: Path,
    config: tuple[bytes, Mapping],
    decision: tuple[str, RuleProgram],
    causal: tuple[str, RuleProgram],
) -> Dataset:
    """The dataset of a bundle whose config file and rule programs are
    already read: the config as ``(bytes, JSON)`` read from ``config_path``,
    each program as ``(text, parsed)``. :func:`load_dataset` after parsing.
    Every :class:`ConfigError` or :class:`StateValidationError` it raises
    names ``config_path`` once.  The dataset keeps the config's bytes and
    both texts for its :attr:`Dataset.digest`."""
    (blob, raw), (decision_text, decision), (causal_text, causal) = config, decision, causal
    try:
        defaults = raw.get("instance_defaults") or {}
        entries = raw.get("features", [])
        if not isinstance(defaults, Mapping):
            raise ConfigError("config field 'instance_defaults' is not an object")
        if not isinstance(entries, list):
            raise ConfigError("config field 'features' is not a list")
        features = tuple(_feature_from_json(obj, (decision, causal), defaults) for obj in entries)
        if not features:
            raise ConfigError("no features declared")
        names = {f.name for f in features}
        for name in defaults:
            if name not in names:
                raise ConfigError(f"instance_defaults names {name!r}, which is not a feature")
        undesired = raw.get("undesired_decision", "")
        if not isinstance(undesired, str):
            raise ConfigError(f"config field 'undesired_decision' is not a string: {undesired!r}")
        config = DatasetConfig(
            name=raw.get("name", config_path.parent.name),
            features=features,
            undesired_decision=undesired,
            norm_p=_integer(raw, "norm_p", 1),
            label_column=raw.get("label_column"),
            instance_defaults=raw.get("instance_defaults"),
            max_dpl=None if raw.get("max_dpl") is None else _integer(raw, "max_dpl", 0),
        )
        dataset = build_dataset(config, decision, causal)
    except (ConfigError, StateValidationError) as exc:
        raise exc.__class__(f"{config_path}: {exc}") from None
    object.__setattr__(dataset, "_source", (blob, decision_text, causal_text))
    return dataset


def read_config(path: str | Path) -> tuple[Path, bytes, dict]:
    """A bundle's config as ``(config path, bytes, JSON object)``, from a
    dataset directory or an explicit config.json path.  A missing or
    unreadable file, one that is not UTF-8 or not JSON, or JSON that is not an
    object is a :class:`ConfigError` naming it."""
    path = Path(path)
    config_path = path / "config.json" if path.is_dir() else path
    try:
        blob = config_path.read_bytes()
        raw = json.loads(blob.decode("utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"no config file at {config_path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{config_path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{config_path}: the config is not a JSON object")
    for key in ("decision_rules", "causal_rules"):
        if not isinstance(raw.get(key, ""), str):
            raise ConfigError(f"{config_path}: field {key!r} is not a file name")
    return config_path, blob, raw


def read_rules(path: Path) -> str:
    """A rule file's text; a missing or unreadable file, or one that is not
    UTF-8, is a :class:`ConfigError` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"missing rules file {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def consolidate_dataset(dataset: Dataset, instance_raw: Mapping | None = None) -> Dataset:
    """Dataset over the placeholder-consolidated space for an instance.

    Per categorical feature, the values neither program mentions
    (:attr:`Dataset.unmentioned`), but for the instance's, merge into the
    placeholder ``ph_<feature>`` when two or more do.  Its
    ``FeatureSpec.merged`` entry lists every raw value merged, through
    earlier placeholders too, so consolidating again changes nothing.  Every
    mentioned value stays, so the programs, warnings and the bytes the
    digest hashes carry over and only the config is replaced.

    ``instance_raw`` overrides the config's factual instance; its values
    survive consolidation so it stays representable in the reduced space,
    and it is validated there (:class:`StateValidationError`).

    The reduced space depends only on the instance's *placeholder
    partition*: per categorical feature, its value when unmentioned, else
    nothing.  One reduced dataset is built per partition and kept on
    ``dataset`` (:attr:`Dataset.consolidated`), so its rules compile once
    for every instance in it.  Its config keeps ``dataset``'s
    ``instance_defaults``.
    """
    key = _partition(dataset, instance_raw)
    reduced = dataset.consolidated.get(key)
    if reduced is None:
        config = dataset.config
        features = list(config.features)
        for i, merge in _merges(dataset, key):
            spec = features[i]
            placeholder = f"ph_{spec.name}"
            merged = {v: raws for v, raws in spec.merged.items() if v not in merge}
            merged[placeholder] = tuple(r for v in merge for r in spec.merged.get(v, (v,)))
            domain = tuple(v for v in spec.domain if v not in merge) + (placeholder,)
            features[i] = replace(spec, domain=domain, merged=merged)
        config = replace(config, features=tuple(features))
        reduced = dataset.consolidated[key] = replace(dataset, config=config)
    if instance_raw is not None:
        validate_state(reduced.config, instance_raw)
    return reduced


def consolidated_size(dataset: Dataset, instance_raw: Mapping | None = None) -> int:
    """The size of :func:`consolidate_dataset`'s reduced space for
    ``instance_raw``, counted without building it.  ``instance_raw`` is taken
    as valid on ``dataset``."""
    sizes = [len(spec.domain) for spec in dataset.config.features]
    for i, merge in _merges(dataset, _partition(dataset, instance_raw)):
        sizes[i] -= len(merge) - 1
    return math.prod(sizes)


def _partition(dataset: Dataset, instance_raw: Mapping | None) -> tuple[str | None, ...]:
    """The instance's placeholder partition: per categorical feature, its
    value when no program mentions it, else None."""
    raw = (dataset.config.instance_defaults if instance_raw is None else instance_raw) or {}
    return tuple(
        v if name in raw and (v := str(raw[name])) in free else None
        for name, free in dataset.unmentioned
    )


def _merges(dataset: Dataset, key: tuple[str | None, ...]) -> Iterator[tuple[int, list[str]]]:
    """Per categorical feature that consolidation for the partition ``key``
    reduces: its index and the values that merge into its placeholder, which
    are the unmentioned values but the instance's, when two or more."""
    config = dataset.config
    for (name, free), kept in zip(dataset.unmentioned, key):
        i = config.feature_index(name)
        merge = [v for v in config.features[i].domain if v in free and v != kept]
        if len(merge) >= 2:
            yield i, merge
