"""Records that hold arrays compare and hash by identity; records that hold
only plain values are named tuples, compared by value."""

import numpy as np
import pytest

import advbundle as ab
from advbundle.bundler import ComputationRecord
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
    "Ensemble": lambda: ab.Ensemble((_model(),)),
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
