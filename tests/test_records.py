"""Records that hold arrays compare and hash by identity; records that hold
only plain values are named tuples, compared by value. The package's 13
dataclass records behave as `@dataclass` records did, with their methods
defined once in `advbundle.records`."""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advbundle as ab
from advbundle import attacks, bundler, config, data, models, reporting
from advbundle.bundler import ComputationRecord
from advbundle.errors import ConfigError, ContractError
from advbundle.records import FrozenRecord, Record, ValueRecord
from advbundle.reporting import AttackRate


def _model():
    return ab.ModelParams("softmax_linear", np.zeros((2, 2)), np.zeros(2))


def _result():
    data = ab.Dataset(np.array([[0.2, 0.6], [0.7, 0.4]]), [0, 1], num_classes=2)
    noise = ab.AttackConfig("noise", "uniform_noise", 0.1, num_samples=2)
    return ab.bundle(_model(), data, [noise], ab.Criterion.misclassify(), seed=3)


# each call builds a new record from new arrays equal to the last call's
ARRAY_RECORDS = {
    "Candidate": lambda: ab.Candidate(0, np.array([0.5, 0.5]), "a"),
    "Example": lambda: ab.Example(np.array([0.5, 0.5]), 0),
    "ModelParams": _model,
    "Prediction": lambda: ab.Prediction(np.array([0.5, 0.5]), 0, 0.5),
    "OutcomeMatrix": lambda: ab.OutcomeMatrix(np.zeros((2, 1)), ["a"]),
    "BundleResult": _result,
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


# record type, its field values, and the defaults of its trailing fields
VALUE_RECORDS = {
    "CandidateScore": (ab.CandidateScore, dict(misclassified=True, wrong_confidence=0.7,
                                               perturbation_norm=0.1), {}),
    "ComputationRecord": (ComputationRecord, dict(attack_id="pgd", restarts_run=3,
                                                  failed=False), {"failed": False}),
    "AttackRate": (AttackRate, dict(attack_id="fgsm", error_rate=0.25, complete=True),
                   {"complete": True}),
    "SuccessFailCurve": (ab.SuccessFailCurve, dict(points=((0.5, 0.9, 0.1),)), {}),
    "NormCurve": (ab.NormCurve, dict(points=((0.0, 0.1), (0.3, 0.8))), {}),
}


@pytest.mark.parametrize("cls,values,defaults", VALUE_RECORDS.values(),
                         ids=VALUE_RECORDS.keys())
def test_plain_value_records_are_named_tuples(cls, values, defaults):
    assert issubclass(cls, tuple)
    assert cls._fields == tuple(values)
    assert cls._field_defaults == defaults
    record = cls(*values.values())
    assert record == cls(**values) and tuple(record) == tuple(values.values())
    first = next(iter(values))
    assert record != record._replace(**{first: None})
    with pytest.raises(AttributeError):
        setattr(record, first, None)


# each value record: a call that builds one, and a field value its rules refuse
VALUE_RECORDS_BUILT = {
    "AttackConfig": (lambda: ab.AttackConfig("p", "pgd", 0.1, 0.01, 3, restart_seeds=[4]),
                     ("epsilon", -1)),
    "Criterion": (lambda: ab.Criterion.max_confidence(0.9), ("variant", "x")),
    "BudgetPolicy": (lambda: ab.BudgetPolicy(2, early_stop=False), ("early_stop", "yes")),
    "TrainParams": (lambda: ab.TrainParams(0.1, 2, 4, seed=7), ("epochs", 0)),
    "ExperimentConfig": (lambda: ab.ExperimentConfig(seed=4, gap_ns=(1, 2)), ("synth_n", -1)),
    "RateTable": (lambda: ab.RateTable("WAT", 0.1, [AttackRate("a", 0.5)], wat_max=0.5),
                  ("wat_max", 2.0)),
}
# a field value each array record's rules refuse; the other three have no rules
ARRAY_RECORD_REFUSALS = {
    "Example": ("label", -1), "Dataset": ("num_classes", 1),
    "ModelParams": ("architecture", "x"), "OutcomeMatrix": ("attack_ids", []),
}
BUILDS = {**ARRAY_RECORDS, "Dataset": lambda: ab.Dataset(np.array([[0.2], [0.7]]), [0, 1], 2),
          **{name: make for name, (make, _) in VALUE_RECORDS_BUILT.items()}}
REFUSALS = {**ARRAY_RECORD_REFUSALS,
            **{name: bad for name, (_, bad) in VALUE_RECORDS_BUILT.items()}}
MUTABLE = {"OutcomeMatrix", "BundleResult"}
ALL = pytest.mark.parametrize("name", BUILDS)
# the methods `@dataclass` writes into each class it decorates
GENERATED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def _class(name):
    return type(BUILDS[name]())


def _kwargs(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def test_the_tables_hold_every_record_of_the_package():
    found = {name for module in (attacks, bundler, config, data, models, reporting)
             for name, value in vars(module).items()
             if isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert found == set(BUILDS) and len(found) == 13


@ALL
def test_records_are_dataclasses_on_one_of_three_bases_and_define_no_method(name):
    cls = _class(name)
    assert dataclasses.is_dataclass(cls)
    base = Record if name in MUTABLE else ValueRecord if name in VALUE_RECORDS_BUILT \
        else FrozenRecord
    assert cls.__bases__ == (base,)
    # fails when a `@dataclass` decorator comes back, or a record writes its own
    assert not set(GENERATED) & vars(cls).keys()
    assert "__signature__" not in vars(cls)  # built when asked for, not at import
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(cls.__annotations__)  # declaration order
    assert [f.type for f in dataclasses.fields(cls)] == list(cls.__annotations__.values())
    assert cls.__match_args__ == tuple(names)


def test_importing_the_cli_compiles_no_method():
    probe = ("import dataclasses, sys, numpy\n"
             "made = []\n"
             "real = dataclasses._create_fn\n"
             "def spy(name, *args, **kwargs):\n"
             "    made.append(name)\n"
             "    return real(name, *args, **kwargs)\n"
             "dataclasses._create_fn = spy\n"
             "import advbundle.cli\n"
             "print(made)\n")
    src = Path(ab.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@ALL
def test_a_signature_lists_the_fields_and_their_defaults(name):
    cls = _class(name)
    params = inspect.signature(cls).parameters
    assert list(params) == [f.name for f in dataclasses.fields(cls)]
    for f in dataclasses.fields(cls):
        default = params[f.name].default
        if f.default is not dataclasses.MISSING:
            assert default is f.default
        elif f.default_factory is not dataclasses.MISSING:
            assert repr(default) == "<factory>"
        else:
            assert default is inspect.Parameter.empty
    assert "__signature__" not in vars(cls)


@ALL
def test_repr_names_each_field_in_order(name):
    record = BUILDS[name]()
    inner = ", ".join(f"{key}={value!r}" for key, value in _kwargs(record).items())
    assert repr(record) == f"{type(record).__qualname__}({inner})"


def test_repr_reads_as_it_did():
    assert repr(ab.Criterion.max_confidence(0.9)) == \
        "Criterion(variant='max_confidence', threshold=0.9)"
    assert repr(ab.TrainParams(0.1, 2, 4, seed=7)) == \
        "TrainParams(learning_rate=0.1, epochs=2, batch_size=4, seed=7, hidden=16)"
    assert repr(ab.Candidate(1, np.array([0.5]), "a")) == \
        "Candidate(example_index=1, adversarial_input=array([0.5]), attack_id='a', " \
        "restart_index=0)"


@ALL
def test_replace_builds_a_new_record_through_its_rules(name):
    record = BUILDS[name]()
    again = dataclasses.replace(record)
    assert type(again) is type(record) and again is not record
    assert repr(again) == repr(record)
    if name in REFUSALS:
        key, bad = REFUSALS[name]
        with pytest.raises((ContractError, ConfigError)):
            dataclasses.replace(record, **{key: bad})


def test_replace_reruns_the_attack_rules():
    attack = ab.AttackConfig("f", "fgsm", 0.1)
    with pytest.raises(ContractError, match="^epsilon must be positive"):
        dataclasses.replace(attack, epsilon=-1)


@ALL
def test_frozen_records_refuse_assignment_and_deletion(name):
    record = BUILDS[name]()
    first = dataclasses.fields(record)[0].name
    if name in MUTABLE:
        value = getattr(record, first)
        setattr(record, first, value)
        record.note = 1
        assert getattr(record, first) is value and record.note == 1
        return
    for act in (lambda: setattr(record, first, None), lambda: setattr(record, "note", 1),
                lambda: delattr(record, first)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            act()
    assert getattr(record, first) is not None and not hasattr(record, "note")


@pytest.mark.parametrize("name", VALUE_RECORDS_BUILT)
def test_value_records_compare_and_hash_by_value(name):
    a, b = BUILDS[name](), BUILDS[name]()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object() and a.__eq__(object()) is NotImplemented
    other = {"AttackConfig": ("attack_id", "q"), "Criterion": ("threshold", 0.8),
             "BudgetPolicy": ("max_attack_units_per_example", 1),
             "TrainParams": ("seed", 8), "ExperimentConfig": ("seed", 5),
             "RateTable": ("clean_error", 0.2)}[name]
    assert a != dataclasses.replace(a, **dict([other]))


@ALL
def test_a_call_the_fields_cannot_bind_is_a_type_error(name):
    record = BUILDS[name]()
    cls, kwargs = type(record), _kwargs(record)
    assert repr(cls(*kwargs.values())) == repr(cls(**kwargs)) == repr(record)
    first, value = next(iter(kwargs.items()))
    with pytest.raises(TypeError, match="got an unexpected keyword argument 'bogus'"):
        cls(**kwargs, bogus=1)
    with pytest.raises(TypeError, match=f"got multiple values for argument '{first}'"):
        cls(value, **kwargs)
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*kwargs.values(), value)
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError, match=f"missing 1 required argument: '{required[-1]}'"):
            cls(**{k: v for k, v in kwargs.items() if k != required[-1]})


@ALL
def test_pickle_and_deepcopy_round_trip(name):
    record = BUILDS[name]()
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin is not record
        assert repr(twin) == repr(record)
        assert (twin == record) == (name in VALUE_RECORDS_BUILT)
        if name not in MUTABLE:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, dataclasses.fields(twin)[0].name, None)


def test_complete_deep_copies_a_result():
    result = _result()
    assert result.stopped_early.any()  # the zero model errs on example 1's clean input
    full = ab.complete(result)
    assert type(full) is ab.BundleResult and full is not result
    assert full.params is result.params and full.dataset is result.dataset
    for f in dataclasses.fields(full):
        value = getattr(full, f.name)
        if isinstance(value, np.ndarray):
            assert not np.shares_memory(value, getattr(result, f.name)), f.name
