"""What importing the package costs: a search or a CLI call loads only the
modules it runs, and the lazily loaded names still resolve."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p2c

# Loaded on first use only: the surrogate layer and its subprocess and csv,
# ``p2c bench`` and its statistics, the digest's hashlib, the compiled masks.
LAZY_MODULES = ("p2c.surrogate", "p2c.bench", "p2c.masks", "subprocess", "statistics",
                "hashlib", "csv")

# The package's public names; each must resolve and be listed by dir().
PUBLIC_NAMES = """
Action AlreadyCounterfactualError CausalProgramError ConfigError CostReport
Dataset DatasetConfig EvaluationError ExternalCommandModel FeatureSpec
InconsistentInitialStateError LabeledDataset NoCounterfactualError P2CError PlanPath
PredictorError RuleBackedModel RuleFileLearner RuleProgram RuleProgramError RuleSyntaxError
SearchExhaustedError SpaceTooLargeError State StateValidationError TableModel
agreement build_dataset canonicalize compute_weighted_lp
consolidate_dataset dataset domain enumerate_states
errors extract_logic find_path goal_knearest ingest_csv label_dataset
load_dataset mentioned_values min_cf naive_find_path parse_rule_program path_is_legal planner
rules search search_space_size surrogate unparse_program validate_state
""".split()

# References that only tests used; they live in tests/oracles.py
# (apply_action's checks are path_is_legal's, consolidate_dataset alone
# builds the reduced space, and CompiledRules groups the causal rules
# itself), and the package must not export them again.
REMOVED_NAMES = ("Entailment", "adjust_weights", "apply_action", "consolidate_placeholders",
                 "knearest_trimmed", "CausalGroup", "build_causal_groups", "consistency")


def _run(code: str, *args: str) -> str:
    """The stdout of ``code`` run with ``args`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(p2c.__file__).resolve().parent.parent), env.get("PYTHONPATH")))
    )
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("module", ["p2c", "p2c.cli"])
def test_import_loads_no_lazy_module(module):
    code = f"import sys, {module}; print([m for m in {LAZY_MODULES!r} if m in sys.modules])"
    assert _run(code).strip() == "[]"


def test_lazy_names_resolve_and_are_listed():
    """In a fresh process: dir() lists every public name before any is used,
    and each resolves, the surrogate names to the surrogate module's own."""
    code = (
        "import sys, p2c\n"
        "listed = set(dir(p2c))\n"
        "print(sorted(set(sys.argv[1:]) - listed))\n"
        "print('p2c.surrogate' in sys.modules)\n"
        "from p2c import RuleBackedModel\n"
        "import p2c.surrogate as s\n"
        "print(RuleBackedModel is s.RuleBackedModel and p2c.surrogate is s)\n"
        "print([n for n in sys.argv[1:] if not hasattr(p2c, n)])\n"
    )
    out = _run(code, *PUBLIC_NAMES)
    assert out.splitlines() == ["[]", "False", "True", "[]"]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_names_are_not_exported(name):
    with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
        getattr(p2c, name)
    assert name not in dir(p2c)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        p2c.no_such_name  # noqa: B018


def test_traced_names_resolve():
    """Every name the benchmark's tracer (``perfbench/tracing.py``) patches
    resolves: its entry points on their modules, its leaves on ``Dataset``.
    A module that stops importing a traced name breaks every traced run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from p2c.dataset import Dataset

    missing = [(module, attr) for module, attr, _ in tracing.ENTRY_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    missing += [("p2c.dataset.Dataset", attr) for attr, _ in tracing.LEAVES
                if not hasattr(Dataset, attr)]
    assert tracing.ENTRY_POINTS and tracing.LEAVES
    assert missing == []
