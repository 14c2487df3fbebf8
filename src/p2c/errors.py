"""Exception types shared across the package."""

from __future__ import annotations


class P2CError(Exception):
    """Base class for all errors raised by this package."""


class RuleSyntaxError(P2CError):
    """Malformed rule text. Carries 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class RuleProgramError(P2CError):
    """Structurally invalid rule program (stratification, heads, references)."""


class EvaluationError(P2CError):
    """A rule referenced something the state or program cannot supply."""


class ConfigError(P2CError):
    """Invalid dataset configuration or config/rules cross-reference failure."""


class StateValidationError(P2CError):
    """A raw assignment does not describe a member of the state space."""


class CausalProgramError(P2CError):
    """Two alternatives of one causal head fire on some state.

    Raised when the rules compile: on a dataset's first query, or by ``p2c validate``."""


class InconsistentInitialStateError(P2CError):
    """Initial state violates the causal rules and repair was not requested."""


class AlreadyCounterfactualError(P2CError):
    """Initial state is already in the goal set; there is nothing to search for."""


class NoCounterfactualError(P2CError):
    """The goal set is empty within the admissible candidate space."""


class SearchExhaustedError(P2CError):
    """The planner found no plan within its direct-action cap.

    ``diagnostics`` names each feature whose direct move to s*'s value was
    refused, as ``((feature, s* value, reason), ...)`` in feature order.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class PredictorError(P2CError):
    """An external or table predictor failed on a specific row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
