"""Causally compliant counterfactuals and ordered intervention paths.

Given a factual instance, decision rules characterising an undesired outcome,
and causal rules between features, this package finds the cheapest causally
consistent counterfactual and a provably sound sequence of direct and causal
actions that reaches it.
"""

import importlib

from .dataset import Dataset, build_dataset, consolidate_dataset, load_dataset
from .domain import (
    DatasetConfig,
    FeatureSpec,
    State,
    enumerate_states,
    ingest_csv,
    search_space_size,
    validate_state,
)
from .errors import (
    AlreadyCounterfactualError,
    CausalProgramError,
    ConfigError,
    EvaluationError,
    InconsistentInitialStateError,
    NoCounterfactualError,
    P2CError,
    PredictorError,
    RuleProgramError,
    RuleSyntaxError,
    SearchExhaustedError,
    StateValidationError,
)
from .planner import (
    Action,
    PlanPath,
    find_path,
    naive_find_path,
    path_is_legal,
)
from .rules import (
    RuleProgram,
    canonicalize,
    mentioned_values,
    parse_rule_program,
    unparse_program,
)
from .search import (
    CostReport,
    compute_weighted_lp,
    goal_knearest,
    min_cf,
)

__version__ = "0.1.0"

# The surrogate layer (and its subprocess and csv imports) loads on first use
# of it or one of its names, so a search or a CLI call never pays for it
# (PEP 562).
_SURROGATE_NAMES = frozenset({
    "ExternalCommandModel",
    "LabeledDataset",
    "RuleBackedModel",
    "RuleFileLearner",
    "TableModel",
    "agreement",
    "extract_logic",
    "label_dataset",
})


def __getattr__(name: str):
    if name != "surrogate" and name not in _SURROGATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    surrogate = importlib.import_module(f"{__name__}.surrogate")  # also binds p2c.surrogate
    value = surrogate if name == "surrogate" else getattr(surrogate, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SURROGATE_NAMES | {"surrogate"})
