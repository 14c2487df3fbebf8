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
# ``p2c bench`` and its statistics, the compiled masks, and hashlib, which
# only a report that reads a bundle's digest loads.
# Only the surrogate layer declares dataclasses; the eagerly imported modules
# declare records (``p2c.records``), so neither ``dataclasses`` nor the
# ``inspect`` it imports is loaded before that layer is.
LAZY_MODULES = ("p2c.surrogate", "p2c.bench", "p2c.masks", "subprocess", "statistics",
                "hashlib", "csv", "dataclasses", "inspect")

# The package's modules each import loads: nothing is deferred to a later call.
EAGER_MODULES = {
    "p2c": ["p2c", "p2c.dataset", "p2c.domain", "p2c.errors", "p2c.planner", "p2c.records",
            "p2c.rules", "p2c.search"],
}
EAGER_MODULES["p2c.cli"] = sorted(EAGER_MODULES["p2c"] + ["p2c.cli"])

# The package's public names; each must resolve and be listed by dir().
PUBLIC_NAMES = """
Action AlreadyCounterfactualError CausalProgramError ConfigError CostReport
Dataset DatasetConfig EvaluationError ExternalCommandModel FeatureSpec
InconsistentInitialStateError LabeledDataset NoCounterfactualError P2CError PlanPath
PredictorError RuleBackedModel RuleFileLearner RuleProgram RuleProgramError RuleSyntaxError
SearchExhaustedError State StateValidationError TableModel
agreement build_dataset canonicalize compute_weighted_lp
consolidate_dataset dataset domain enumerate_states
errors extract_logic find_path goal_knearest ingest_csv label_dataset
load_dataset mentioned_values min_cf naive_find_path parse_rule_program path_is_legal planner
rules search search_space_size surrogate unparse_program validate_state
""".split()

# References that only tests used; they live in tests/oracles.py
# (apply_action's checks are path_is_legal's, consolidate_dataset alone
# builds the reduced space, and CompiledRules groups the causal rules
# itself), and the package must not export them again.  The bench sampler
# draws from boxes and has no cap to refuse a space above.
REMOVED_NAMES = ("Entailment", "adjust_weights", "apply_action", "consolidate_placeholders",
                 "knearest_trimmed", "CausalGroup", "build_causal_groups", "consistency",
                 "SpaceTooLargeError")


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


@pytest.mark.parametrize("module", ["p2c", "p2c.cli"])
def test_import_loads_its_modules_and_no_dataclass(module):
    """Import loads the same package modules as before records replaced the
    dataclasses, plus ``p2c.records``, and none of them defines a dataclass."""
    code = (
        f"import sys, {module}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'p2c')\n"
        "print(loaded)\n"
        "print(sorted(f'{m}.{name}' for m in loaded for name, v in vars(sys.modules[m]).items()\n"
        "             if isinstance(v, type) and hasattr(v, '__dataclass_fields__')))\n"
    )
    assert _run(code).splitlines() == [repr(EAGER_MODULES[module]), "[]"]


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


# Load and consolidate every bundle, run each search and the planner on its
# default instance, then ``p2c validate`` and a small ``p2c bench``; print
# whether hashlib is loaded after the searches and after the CLI calls.
NO_DIGEST_READ = """
import contextlib, io, sys
from pathlib import Path
from p2c import cli
from p2c.dataset import consolidate_dataset, load_dataset
from p2c.planner import find_path
from p2c.search import goal_knearest, min_cf
bundles = [Path(sys.argv[1]) / name for name in sys.argv[2:]]
for bundle in bundles:
    full = load_dataset(bundle)
    dataset = consolidate_dataset(full, full.config.instance_defaults)
    instance = dataset.default_instance()
    best = min_cf(dataset, instance, on_inconsistent="allow")
    goal_knearest(dataset, instance, 3, on_inconsistent="allow")
    find_path(dataset, instance, best.target, on_inconsistent="repair")
print("hashlib" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["validate", "--config", str(bundle)]) for bundle in bundles]
    codes.append(cli.main(["bench", *map(str, bundles), "--instances", "2", "--k", "2",
                           "--output", "json"]))
print(codes, "hashlib" in sys.modules)
"""
BUNDLES = ("example1", "example2", "cars", "german", "adult")


def test_no_digest_read_loads_no_hashlib():
    """Loading, consolidating, the searches, the planner, ``p2c validate``
    and ``p2c bench`` read no bundle's digest, so hashlib stays unloaded."""
    data = Path(__file__).resolve().parent.parent / "data"
    out = _run(NO_DIGEST_READ, str(data), *BUNDLES)
    assert out.splitlines() == ["False", "[0, 0, 0, 0, 0, 0] False"]


def test_a_report_reading_the_digest_loads_hashlib():
    """``p2c mincf`` reports the bundle's ``config_digest``, and so loads
    hashlib to take it."""
    data = Path(__file__).resolve().parent.parent / "data"
    code = (
        "import contextlib, io, sys\n"
        "from p2c import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.main(['mincf', '--config', sys.argv[1], '--output', 'json'])\n"
        "print(code, 'hashlib' in sys.modules, len(out.getvalue()) > 0)\n"
    )
    assert _run(code, str(data / "example1")).strip() == "0 True True"
