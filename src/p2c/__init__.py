"""Causally compliant counterfactuals and ordered intervention paths.

Given a factual instance, decision rules characterising an undesired outcome,
and causal rules between features, this package finds the cheapest causally
consistent counterfactual and a provably sound sequence of direct and causal
actions that reaches it.
"""

from .consistency import CausalGroup, Entailment, build_causal_groups
from .dataset import Dataset, build_dataset, consolidate_dataset, load_dataset
from .domain import (
    DatasetConfig,
    FeatureSpec,
    State,
    consolidate_placeholders,
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
    SpaceTooLargeError,
    StateValidationError,
)
from .planner import (
    Action,
    Ledger,
    PlanPath,
    apply_action,
    drop_inconsistent,
    find_path,
    intervene,
    make_consistent,
    naive_find_path,
    path_is_legal,
)
from .rules import (
    RuleProgram,
    canonicalize,
    mentioned_values,
    parse_rule_program,
    program_decides,
    rule_fires,
    unparse_program,
)
from .search import (
    CostReport,
    adjust_weights,
    compute_weighted_lp,
    goal_knearest,
    knearest_trimmed,
    min_cf,
)
from .surrogate import (
    ExternalCommandModel,
    LabeledDataset,
    RuleBackedModel,
    RuleFileLearner,
    TableModel,
    agreement,
    extract_logic,
    label_dataset,
)

__version__ = "0.1.0"
