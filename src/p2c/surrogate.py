"""Turning an opaque classifier into decision rules.

The pipeline labels data with the black-box predictor and hands the labelled
set to a pluggable rule learner.  Rule-based models short-circuit: they *are*
the logic.  The learner shipped here is a rule-file passthrough (the path
used for every bundled dataset, whose rules were learned offline and
expert-verified); anything implementing ``LabeledDataset -> RuleProgram``
plugs in the same way.
"""

from __future__ import annotations

import csv
import io
import subprocess
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence

from .domain import DatasetConfig, State
from .errors import P2CError, PredictorError
from .rules import RuleProgram, parse_rule_program

if TYPE_CHECKING:
    from .masks import CompiledRules


class Predictor(Protocol):
    def __call__(self, state: State) -> str: ...


@dataclass(frozen=True)
class LabeledDataset:
    states: tuple[State, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.states) != len(self.labels):
            raise P2CError("states and labels differ in length")

    @property
    def label_set(self) -> frozenset[str]:
        return frozenset(self.labels)


@dataclass
class TableModel:
    """A predictor memorising (state, label) pairs."""

    table: Mapping[State, str]

    def __call__(self, state: State) -> str:
        try:
            return self.table[state]
        except KeyError:
            raise PredictorError("state not present in the table model") from None

    @classmethod
    def from_pairs(cls, states: Sequence[State], labels: Sequence[str]) -> "TableModel":
        return cls(dict(zip(states, labels)))


@dataclass
class RuleBackedModel:
    """A predictor that answers with a rule program's verdict.

    Fires -> the program's head label; otherwise ``other_label``: the raw
    firing of the rules, whichever label they name, which is the compiled
    decision read against its polarity.  The program is compiled against
    ``config`` on the first call.
    """

    config: DatasetConfig
    program: RuleProgram
    other_label: str

    @cached_property
    def _compiled(self) -> CompiledRules:
        from .masks import CompiledRules

        return CompiledRules(self.config, RuleProgram((), "causal"), self.program)

    def __call__(self, state: State) -> str:
        compiled = self._compiled
        if compiled.decision_positive(compiled.bits(state)) != compiled.favourable:
            return str(self.program.head_label.value)
        return self.other_label


@dataclass
class ExternalCommandModel:
    """A predictor wrapping a subprocess.

    Protocol: one CSV row (config feature order) on stdin, one label token on
    stdout, exit code 0.
    """

    argv: tuple[str, ...]
    config: DatasetConfig
    timeout: float = 30.0

    def __call__(self, state: State) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerow(state.values)
        try:
            proc = subprocess.run(
                list(self.argv),
                input=buf.getvalue(),
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except OSError as exc:
            raise PredictorError(f"could not run predictor command: {exc}") from None
        except subprocess.TimeoutExpired:
            raise PredictorError("predictor command timed out") from None
        if proc.returncode != 0:
            raise PredictorError(
                f"predictor command exited with {proc.returncode}: {proc.stderr.strip()}"
            )
        label = proc.stdout.strip()
        if not label:
            raise PredictorError("predictor command produced no label")
        return label.split()[0]


def label_dataset(model: Predictor, data: Sequence[State]) -> LabeledDataset:
    """Run the predictor over every state, preserving order.

    Predictor failures surface with the offending row index.
    """
    if not data:
        raise P2CError("label_dataset needs at least one state")
    labels = []
    for row, state in enumerate(data):
        try:
            labels.append(model(state))
        except PredictorError as exc:
            raise PredictorError(f"predictor failed on row {row}: {exc}", row=row) from None
    return LabeledDataset(tuple(data), tuple(labels))


Learner = Callable[[LabeledDataset], RuleProgram]


@dataclass
class RuleFileLearner:
    """The passthrough learner: ignores the data, loads expert-verified rules."""

    path: str | Path
    kind: str = "decision"

    def __call__(self, data: LabeledDataset) -> RuleProgram:
        text = Path(self.path).read_text(encoding="utf-8")
        return parse_rule_program(text, kind=self.kind)


def extract_logic(
    model: Predictor | RuleProgram,
    data: Sequence[State],
    learner: Learner,
) -> RuleProgram:
    """Obtain decision rules for a classifier.

    Rule-based models are returned verbatim; otherwise the data is labelled
    with the model and passed to the learner, whose label set must be binary.
    """
    if isinstance(model, RuleProgram):
        return model
    labelled = label_dataset(model, data)
    if len(labelled.label_set) > 2:
        raise P2CError(
            f"decision extraction needs a binary label set, got {sorted(labelled.label_set)}"
        )
    try:
        program = learner(labelled)
    except P2CError:
        raise
    except Exception as exc:
        raise P2CError(f"rule learner failed: {exc}") from exc
    if not isinstance(program, RuleProgram):
        raise P2CError("rule learner did not return a rule program")
    return program


def agreement(
    config: DatasetConfig,
    program: RuleProgram,
    model: Predictor,
    data: Sequence[State],
    other_label: str,
) -> float:
    """Fraction of states where the rules and the predictor agree.

    The program predicts its head label when it fires and ``other_label``
    otherwise.
    """
    if not data:
        raise P2CError("agreement needs at least one state")
    surrogate = RuleBackedModel(config, program, other_label)
    hits = sum(1 for s in data if surrogate(s) == model(s))
    return hits / len(data)
