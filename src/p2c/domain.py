"""Feature domains, states and the finite state space.

A state is one total assignment of a domain value to every feature, stored
positionally (config feature order).  Numeric features get finite domains by
partitioning their range at every comparison bound the rule programs apply to
them plus the factual instance's value; each interval keeps one
representative, so the space stays finite while every rule evaluates exactly
as it would on raw values.  A categorical domain may hold placeholders, each
standing for the raw values it merged (``FeatureSpec.merged``); the reduced
space that merges them is built by ``dataset.consolidate_dataset``, and raw
data resolves to it through ``validate_state``.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import ConfigError, StateValidationError
from .records import Record

CATEGORICAL = "categorical"
NUMERIC = "numeric"

MONOTONE_KINDS = ("none", "nondecreasing", "nonincreasing")
DIRECTIONS = ("exact", "at_least", "at_most")
NORMS = (0, 1, 2)  # the p of each weighted-Lp norm a cost can use
NORM_NAMES = {p: f"l{p}" for p in NORMS}  # their names in reports and on the command line

Value = str | float


class FeatureSpec(Record):
    """One feature: its finite domain plus search metadata.

    ``merged`` maps a placeholder value to the raw values it absorbed during
    consolidation, so raw data can still be resolved afterwards; a
    placeholder's own name is not raw data unless it is one of them.  It
    defaults to a fresh empty dict.
    ``causal_direction`` says how a causal head value for this feature is
    satisfied (credit_score >= 620 is encoded as value 620, at_least).
    """

    _fields = ("name", "kind", "domain", "weight", "mutable", "monotone", "directly_actionable",
               "numeric_range", "step", "causal_direction", "merged")
    name: str
    kind: str
    domain: tuple[Value, ...]
    weight: float
    mutable: bool
    monotone: str
    directly_actionable: bool
    numeric_range: tuple[float, float] | None
    step: float
    causal_direction: str
    merged: Mapping[Value, tuple[Value, ...]]

    def __init__(self, name: str, kind: str, domain: tuple[Value, ...], weight: float = 1.0,
                 mutable: bool = True, monotone: str = "none", directly_actionable: bool = True,
                 numeric_range: tuple[float, float] | None = None, step: float = 1.0,
                 causal_direction: str = "exact",
                 merged: Mapping[Value, tuple[Value, ...]] | None = None):
        fields = self.__dict__
        fields["name"] = name
        fields["kind"] = kind
        fields["domain"] = domain
        fields["weight"] = weight
        fields["mutable"] = mutable
        fields["monotone"] = monotone
        fields["directly_actionable"] = directly_actionable
        fields["numeric_range"] = numeric_range
        fields["step"] = step
        fields["causal_direction"] = causal_direction
        fields["merged"] = {} if merged is None else merged
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise ConfigError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.monotone not in MONOTONE_KINDS:
            raise ConfigError(f"feature {self.name!r}: unknown monotone {self.monotone!r}")
        if self.causal_direction not in DIRECTIONS:
            raise ConfigError(
                f"feature {self.name!r}: unknown causal_direction {self.causal_direction!r}"
            )
        if not self.domain:
            raise ConfigError(f"feature {self.name!r}: empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ConfigError(f"feature {self.name!r}: duplicate domain values")
        try:
            for key, numbers in (("weight", (self.weight,)), ("step", (self.step,)),
                                 ("numeric_range", self.numeric_range or ())):
                if not all(map(math.isfinite, numbers)):
                    raise ConfigError(f"feature {self.name!r}: {key} must be finite, got "
                                      f"{', '.join(map(repr, numbers))}")
        except OverflowError:  # from math.isfinite
            raise ConfigError(f"feature {self.name!r}: {key} must be finite, got an int "
                              f"too large for a float") from None
        if self.weight < 0:
            raise ConfigError(f"feature {self.name!r}: negative weight")
        if self.kind == NUMERIC:
            if self.numeric_range is None:
                raise ConfigError(f"feature {self.name!r}: numeric features need a range")
            lo, hi = self.numeric_range
            if lo > hi or self.step <= 0:
                raise ConfigError(f"feature {self.name!r}: bad numeric range or step")
            if list(self.domain) != sorted(self.domain):
                raise ConfigError(f"feature {self.name!r}: numeric domain must be sorted")
            if any(not (lo <= v <= hi) for v in self.domain):  # type: ignore[operator]
                raise ConfigError(f"feature {self.name!r}: domain value outside range")

    def index_of(self, value: Value) -> int:
        try:
            return self.domain.index(value)
        except ValueError:
            raise StateValidationError(
                f"value {value!r} is not in the domain of feature {self.name!r}"
            ) from None

    def satisfies(self, value: Value, target: Value) -> bool:
        """Direction-aware satisfaction of a causal head value."""
        if self.kind == NUMERIC and self.causal_direction == "at_least":
            return value >= target  # type: ignore[operator]
        if self.kind == NUMERIC and self.causal_direction == "at_most":
            return value <= target  # type: ignore[operator]
        return value == target

    def range_width(self) -> float:
        if self.kind != NUMERIC or self.numeric_range is None:
            return 1.0
        lo, hi = self.numeric_range
        return hi - lo


def direct_action_problem(spec: FeatureSpec, old: Value, new: Value) -> str | None:
    """Why a direct old->new change on this feature is implausible, if it
    is: the one plausibility rule, which the planner, the legality check and
    the search's plausible values (``search._plausible``) all read."""
    if not spec.mutable:
        return "feature is immutable"
    if not spec.directly_actionable:
        return "feature is not directly actionable"
    if spec.monotone != "none":
        lo, hi = spec.index_of(old), spec.index_of(new)
        if spec.monotone == "nondecreasing" and hi < lo:
            return "nondecreasing feature cannot decrease"
        if spec.monotone == "nonincreasing" and hi > lo:
            return "nonincreasing feature cannot increase"
    return None


class State(Record):
    """A total assignment, positionally aligned with the config's features."""

    _fields = ("values",)
    values: tuple[Value, ...]

    def __init__(self, values: tuple[Value, ...]):
        self.__dict__["values"] = values

    def __getitem__(self, i: int) -> Value:
        return self.values[i]

    def replace_value(self, i: int, value: Value) -> "State":
        vals = list(self.values)
        vals[i] = value
        return State(tuple(vals))


class DatasetConfig(Record):
    _fields = ("name", "features", "undesired_decision", "norm_p", "label_column",
               "instance_defaults", "max_dpl")
    name: str
    features: tuple[FeatureSpec, ...]
    undesired_decision: str
    norm_p: int
    label_column: str | None
    instance_defaults: Mapping[str, object] | None
    max_dpl: int | None
    # set in __init__ and not fields, so neither compared nor shown
    _index: Mapping[str, int]
    # weights() once ``search.resolve_costing`` has checked them: a plain dict, so the
    # config still pickles, of which only read-only views are handed out
    _checked_weights: dict[str, float] | None

    def __init__(self, name: str, features: tuple[FeatureSpec, ...], undesired_decision: str,
                 norm_p: int = 1, label_column: str | None = None,
                 instance_defaults: Mapping[str, object] | None = None,
                 max_dpl: int | None = None):
        fields = self.__dict__
        fields["name"] = name
        fields["features"] = features
        fields["undesired_decision"] = undesired_decision
        fields["norm_p"] = norm_p
        fields["label_column"] = label_column
        fields["instance_defaults"] = instance_defaults
        fields["max_dpl"] = max_dpl
        fields["_checked_weights"] = None
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ConfigError("feature names must be unique")
        if type(self.norm_p) is not int or self.norm_p not in NORMS:
            raise ConfigError(f"norm_p must be 0, 1 or 2, got {self.norm_p!r}")
        if self.max_dpl is not None and type(self.max_dpl) is not int:
            raise ConfigError(f"config field 'max_dpl' is not an integer: {self.max_dpl!r}")
        if self.max_dpl is not None and self.max_dpl < 1:
            raise ConfigError(f"config field 'max_dpl' must be at least 1, got {self.max_dpl}")
        fields["_index"] = {n: i for i, n in enumerate(names)}

    def feature_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ConfigError(f"unknown feature {name!r}") from None

    def feature(self, name: str) -> FeatureSpec:
        return self.features[self.feature_index(name)]

    def has_feature(self, name: str) -> bool:
        return name in self._index

    def state_dict(self, state: State) -> dict[str, Value]:
        return {f.name: v for f, v in zip(self.features, state.values)}

    def lex_key(self, state: State) -> tuple[int, ...]:
        """Lexicographic position: feature order then domain index."""
        return tuple(f.index_of(v) for f, v in zip(self.features, state.values))

    def weights(self) -> dict[str, float]:
        return {f.name: f.weight for f in self.features}


# ---------------------------------------------------------------------------
# Numeric domain construction
# ---------------------------------------------------------------------------


def build_numeric_domain(
    lo: float, hi: float, step: float, breakpoints: Iterable[float]
) -> tuple[float, ...]:
    """Finite representatives for a numeric range split at ``breakpoints``.

    Each interval (b_{j-1}, b_j] is represented by its right endpoint; the
    open interval above the last breakpoint gets breakpoint + step.  With no
    breakpoints the whole range collapses to its lower bound.
    """
    bps = sorted({float(b) for b in breakpoints if lo <= float(b) <= hi})
    if not bps:
        return (lo,)
    reps = list(bps)
    if bps[-1] < hi:
        reps.append(min(bps[-1] + step, hi))
    return tuple(reps)


def as_float(value: int | float) -> float:
    """``float(value)``; an int too large for a float is infinite, with its
    sign, so it lies past every bound and is refused as infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def snap_numeric(spec: FeatureSpec, value: float) -> float:
    """Map a raw numeric value to the representative of its interval."""
    lo, hi = spec.numeric_range  # type: ignore[misc]
    if not lo <= value <= hi:
        raise StateValidationError(
            f"feature {spec.name!r}: value {value!r} outside range [{lo}, {hi}]"
        )
    for rep in spec.domain:
        if value <= rep:  # type: ignore[operator]
            return rep  # type: ignore[return-value]
    return spec.domain[-1]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def validate_state(config: DatasetConfig, raw: Mapping[str, object]) -> State:
    """Resolve a raw name->value mapping into a member of the state space."""
    missing = [f.name for f in config.features if f.name not in raw]
    if missing:
        raise StateValidationError(f"missing feature(s): {', '.join(missing)}")
    values: list[Value] = []
    for spec in config.features:
        v = raw[spec.name]
        if spec.kind == NUMERIC:
            if isinstance(v, str):
                try:
                    v = float(v)
                except ValueError:
                    raise StateValidationError(
                        f"feature {spec.name!r}: {v!r} is not numeric"
                    ) from None
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise StateValidationError(f"feature {spec.name!r}: {v!r} is not numeric")
            values.append(snap_numeric(spec, as_float(v)))
        else:
            sv = str(v)
            if sv in spec.domain and sv not in spec.merged:  # a placeholder is not raw data
                values.append(sv)
                continue
            for ph, merged in spec.merged.items():
                if sv in merged:
                    values.append(ph)
                    break
            else:
                raise StateValidationError(
                    f"feature {spec.name!r}: unknown categorical value {sv!r}"
                )
    return State(tuple(values))


def enumerate_states(config: DatasetConfig) -> Iterator[State]:
    """Lazily yield every member of the state space in lexicographic order."""
    for combo in itertools.product(*(f.domain for f in config.features)):
        yield State(combo)


def search_space_size(config: DatasetConfig) -> int:
    return math.prod(len(f.domain) for f in config.features)


def expand_placeholders(config: DatasetConfig, state: State) -> dict[str, Value]:
    """A raw assignment equivalent to ``state``, placeholders resolved to the
    first raw value they absorbed."""
    out: dict[str, Value] = {}
    for spec, v in zip(config.features, state.values):
        if v in spec.merged:
            out[spec.name] = spec.merged[v][0]
        else:
            out[spec.name] = v
    return out


class IngestResult(Record):
    _fields = ("states", "labels", "errors")
    states: tuple[State, ...]
    labels: tuple[str, ...]
    errors: tuple[str, ...]

    def __init__(self, states: tuple[State, ...], labels: tuple[str, ...],
                 errors: tuple[str, ...]):
        fields = self.__dict__
        fields["states"] = states
        fields["labels"] = labels
        fields["errors"] = errors


def ingest_csv(
    config: DatasetConfig,
    path: str | Path,
    label_column: str | None = None,
    on_error: str = "raise",
) -> IngestResult:
    """Read an RFC-4180 CSV (header required) into states.

    Extra columns are ignored; the label column, when named here or in the
    config, is returned alongside.  A header without a feature column or the
    label column is a :class:`StateValidationError`.  Row-level validation
    failures either raise immediately or are collected, per ``on_error``.
    """
    import csv  # imported here: no search needs it

    if on_error not in ("raise", "collect"):
        raise ValueError("on_error must be 'raise' or 'collect'")
    label_column = label_column or config.label_column
    path = Path(path)
    states: list[State] = []
    labels: list[str] = []
    errors: list[str] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise StateValidationError(f"{path}: empty file, header row required")
        header = set(reader.fieldnames)
        needed = {f.name for f in config.features}
        if not needed <= header:
            raise StateValidationError(
                f"{path}: header is missing feature column(s) "
                f"{sorted(needed - header)}"
            )
        if label_column is not None and label_column not in header:
            raise StateValidationError(
                f"{path}: header is missing label column {label_column!r}"
            )
        for row_no, row in enumerate(reader, start=2):
            if None in row or any(v is None for v in row.values()):
                raise StateValidationError(f"{path}: malformed CSV at row {row_no}")
            try:
                states.append(validate_state(config, row))
                if label_column is not None:
                    labels.append(row[label_column])
            except StateValidationError as exc:
                msg = f"row {row_no}: {exc}"
                if on_error == "raise":
                    raise StateValidationError(f"{path}: {msg}") from None
                errors.append(msg)
    return IngestResult(tuple(states), tuple(labels), tuple(errors))
