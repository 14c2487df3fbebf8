"""The package's value types are records (``p2c.records.Record``), not frozen
dataclasses, and behave as those dataclasses did: the same constructors and
defaults, fields in the same order, immutability, equality and hash over the
same fields, byte-identical reprs, ``replace`` through ``__init__``, and
pickling and copying."""

from __future__ import annotations

import copy
import pickle

import pytest

from conftest import DATA
from p2c.dataset import Dataset, load_dataset
from p2c.domain import DatasetConfig, FeatureSpec, IngestResult, State
from p2c.errors import ConfigError
from p2c.planner import Action, PathStep, PlanPath
from p2c.records import replace
from p2c.rules import COMPARISON, FEATURE_TEST, Atom, BodyLiteral, Rule, RuleProgram
from p2c.search import CostReport, resolve_costing

SPEC = FeatureSpec("x", "categorical", ("a", "b"))
STATE = State(("a", 2.0))
ATOM = Atom("label", "no")
RULE = Rule(ATOM, (BodyLiteral(FEATURE_TEST, "x", "a"),))
ACTION = Action("causal", "x", "b", ("x(X,'b') :- y(X,'c').",))
STEP = PathStep(STATE, (ACTION,))

# Per record class: (field, a value, another value) for each field in
# constructor order, and the repr of the record of the first values, as the
# frozen dataclass printed it.  A search's reports hold a read-only view
# of their weights, which does not pickle; this one holds a plain dict.
RECORDS = {
    FeatureSpec: ((
        ("name", "n", "m"), ("kind", "categorical", "numeric"),
        ("domain", (1.0, 5.0), (1.0,)), ("weight", 2.0, 0.5), ("mutable", False, True),
        ("monotone", "nondecreasing", "none"), ("directly_actionable", False, True),
        ("numeric_range", (0.0, 5.0), (0.0, 6.0)), ("step", 0.5, 1.0),
        ("causal_direction", "at_least", "exact"), ("merged", {5.0: (5.0, 7.0)}, {}),
    ), (
        "FeatureSpec(name='n', kind='categorical', domain=(1.0, 5.0), weight=2.0, "
        "mutable=False, monotone='nondecreasing', directly_actionable=False, "
        "numeric_range=(0.0, 5.0), step=0.5, causal_direction='at_least', "
        "merged={5.0: (5.0, 7.0)})"
    )),
    State: ((("values", ("a", 2.0), ("b", 2.0)),), "State(values=('a', 2.0))"),
    DatasetConfig: ((
        ("name", "toy", "other"), ("features", (SPEC,), ()), ("undesired_decision", "no", "yes"),
        ("norm_p", 2, 1), ("label_column", "label", None), ("instance_defaults", {"x": "a"}, None),
        ("max_dpl", 3, None),
    ), (
        "DatasetConfig(name='toy', features=(FeatureSpec(name='x', kind='categorical', "
        "domain=('a', 'b'), weight=1.0, mutable=True, monotone='none', "
        "directly_actionable=True, numeric_range=None, step=1.0, "
        "causal_direction='exact', merged={}),), undesired_decision='no', norm_p=2, "
        "label_column='label', instance_defaults={'x': 'a'}, max_dpl=3)"
    )),
    IngestResult: ((
        ("states", (STATE,), ()), ("labels", ("no",), ()), ("errors", ("row 3: bad",), ()),
    ), (
        "IngestResult(states=(State(values=('a', 2.0)),), labels=('no',), "
        "errors=('row 3: bad',))"
    )),
    Atom: ((("predicate", "label", "x"), ("value", "no", 2.0)),
           "Atom(predicate='label', value='no')"),
    BodyLiteral: ((
        ("kind", COMPARISON, FEATURE_TEST), ("predicate", "age", None), ("value", 31.0, None),
        ("variable", "N", None), ("bound", 40.0, None),
    ), "BodyLiteral(kind='comparison', predicate='age', value=31.0, variable='N', bound=40.0)"),
    Rule: ((("head", ATOM, Atom("x", "a")), ("body", RULE.body, ())), (
        "Rule(head=Atom(predicate='label', value='no'), "
        "body=(BodyLiteral(kind='feature_test', predicate='x', value='a', variable=None, "
        "bound=None),))"
    )),
    RuleProgram: ((
        ("clauses", (RULE,), ()), ("kind", "decision", "causal"), ("verified", True, False),
    ), (
        "RuleProgram(clauses=(Rule(head=Atom(predicate='label', value='no'), "
        "body=(BodyLiteral(kind='feature_test', predicate='x', value='a', variable=None, "
        "bound=None),)),), kind='decision', verified=True)"
    )),
    Dataset: ((
        ("config", DatasetConfig("toy", (SPEC,), "no"), DatasetConfig("toy", (), "no")),
        ("decision", RuleProgram((RULE,), "decision"), RuleProgram((), "decision")),
        ("causal", RuleProgram((), "causal"), RuleProgram((), "causal", True)),
        ("warnings", ("a warning",), ()),
    ), (
        "Dataset(config=DatasetConfig(name='toy', features=(FeatureSpec(name='x', "
        "kind='categorical', domain=('a', 'b'), weight=1.0, mutable=True, "
        "monotone='none', directly_actionable=True, numeric_range=None, step=1.0, "
        "causal_direction='exact', merged={}),), undesired_decision='no', norm_p=1, "
        "label_column=None, instance_defaults=None, max_dpl=None), "
        "decision=RuleProgram(clauses=(Rule(head=Atom(predicate='label', value='no'), "
        "body=(BodyLiteral(kind='feature_test', predicate='x', value='a', variable=None, "
        "bound=None),)),), kind='decision', verified=False), "
        "causal=RuleProgram(clauses=(), kind='causal', verified=False), "
        "warnings=('a warning',))"
    )),
    Action: ((
        ("kind", "causal", "direct"), ("feature", "x", "y"), ("new_value", "b", 2.0),
        ("provenance", ("x(X,'b') :- y(X,'c').",), ()),
    ), (
        "Action(kind='causal', feature='x', new_value='b', "
        "provenance=(\"x(X,'b') :- y(X,'c').\",))"
    )),
    PathStep: ((("state", STATE, State(("b", 2.0))), ("actions", (ACTION,), ())), (
        "PathStep(state=State(values=('a', 2.0)), actions=(Action(kind='causal', "
        "feature='x', new_value='b', provenance=(\"x(X,'b') :- y(X,'c').\",)),))"
    )),
    PlanPath: ((("steps", (STEP,), ()),), (
        "PlanPath(steps=(PathStep(state=State(values=('a', 2.0)), "
        "actions=(Action(kind='causal', feature='x', new_value='b', "
        "provenance=(\"x(X,'b') :- y(X,'c').\",)),)),))"
    )),
    CostReport: ((
        ("target", STATE, State(("b", 2.0))), ("cost", 1.5, 2.0), ("p", 1, 2),
        ("mode", "p2c", "all_changes"), ("adjusted_weights", {"x": 0.0}, {}),
        ("causal_free_features", frozenset({"x"}), frozenset()),
    ), (
        "CostReport(target=State(values=('a', 2.0)), cost=1.5, p=1, mode='p2c', "
        "adjusted_weights={'x': 0.0}, causal_free_features=frozenset({'x'}))"
    )),
}

# The constructor defaults, which trail the fields without one.
DEFAULTS = {
    FeatureSpec: {"weight": 1.0, "mutable": True, "monotone": "none",
                  "directly_actionable": True, "numeric_range": None, "step": 1.0,
                  "causal_direction": "exact", "merged": {}},
    DatasetConfig: {"norm_p": 1, "label_column": None, "instance_defaults": None,
                    "max_dpl": None},
    BodyLiteral: {"predicate": None, "value": None, "variable": None, "bound": None},
    Rule: {"body": ()},
    RuleProgram: {"verified": False},
    Dataset: {"warnings": ()},
    Action: {"provenance": ()},
}

# Fields that equality and hash do not read.
UNCOMPARED = {Action: ("provenance",), DatasetConfig: ("_index", "_checked_weights"),
              Dataset: ("_source",)}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_frozen_dataclass(cls):
    rows, shown = RECORDS[cls]
    names = [name for name, _, _ in rows]
    values = [value for _, value, _ in rows]
    record = cls(*values)

    # constructed by position and by keyword, fields in order, defaults
    assert [getattr(record, name) for name in names] == values
    assert cls(**dict(zip(names, values))) == record
    assert cls.__match_args__ == tuple(names)
    defaults = DEFAULTS.get(cls, {})
    bare = cls(*values[:len(values) - len(defaults)])
    assert {name: getattr(bare, name) for name in defaults} == defaults
    if cls is FeatureSpec:  # a fresh dict per instance
        assert bare.merged is not cls(*values[:3]).merged
    assert repr(record) == shown

    # immutable
    for name in (*names, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == values and repr(record) == shown

    # equality and hash over the compared fields only, as the dataclass's
    uncompared = UNCOMPARED.get(cls, ())
    assert record.__eq__(tuple(values)) is NotImplemented and record != tuple(values)
    assert record == cls(*values) and not record != cls(*values)
    key = tuple(getattr(record, name) for name in names if name not in uncompared)
    try:
        expected = hash(key)
    except TypeError:  # a field holds a dict, so neither hashes
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(cls(*values))
    for name in uncompared:
        if name not in names:  # set after construction
            twin = cls(*values)
            object.__setattr__(twin, name, {"x": 1.0})
            assert twin == record and repr(twin) == shown

    # replace, one field at a time, and back
    for name, value, other in rows:
        changed = replace(record, **{name: other})
        assert type(changed) is cls and getattr(changed, name) == other
        assert (changed == record) is (name in uncompared)
        back = replace(changed, **{name: value})
        assert back == record and repr(back) == shown
    assert replace(record) == record and replace(record) is not record

    # pickled and copied
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record and repr(twin) == shown
        with pytest.raises(AttributeError):
            setattr(twin, names[0], values[0])


def test_replace_rebuilds_through_init():
    """``replace`` runs the constructor's checks again, keeps no cached
    property or checked weights, and refuses a name that is not a field;
    a bundle dataset rebuilt keeps the bytes its digest hashes."""
    with pytest.raises(ConfigError, match="negative weight"):
        replace(SPEC, weight=-1.0)
    with pytest.raises(TypeError):
        replace(SPEC, no_such_field=1)
    dataset = Dataset(DatasetConfig("toy", (SPEC,), "no"), RuleProgram((RULE,), "decision"),
                      RuleProgram((), "causal"))
    assert dataset.compiled is dataset.compiled and dataset.decision.rules == (RULE,)
    assert dataset.digest == ""  # built in memory: no bytes to hash
    resolve_costing(dataset.config, None, None)
    assert dataset.config._checked_weights == {"x": 1.0}
    fresh = replace(dataset)
    assert fresh == dataset and fresh.config is dataset.config
    assert "compiled" in vars(dataset) and "compiled" not in vars(fresh)
    assert fresh.compiled is not dataset.compiled
    program = replace(dataset.decision)
    assert "rules" in vars(dataset.decision) and "rules" not in vars(program)
    config = replace(dataset.config)
    assert config == dataset.config and config._checked_weights is None
    bundle = load_dataset(DATA / "example1")
    rebuilt = replace(bundle, warnings=("a warning",))
    assert "digest" not in vars(rebuilt) and rebuilt._source is bundle._source
    assert rebuilt.digest == bundle.digest != ""
