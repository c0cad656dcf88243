"""Every public record and entry point refuses a bad input with a typed error."""

import math
from pathlib import Path

import numpy as np
import pytest

import advbundle as ab
from advbundle import attacks, bundler, seeding
from advbundle.errors import AttackFailedError, ConfigError, ContractError, DataError, ShapeError

from conftest import binary_linear

TRAIN = dict(learning_rate=0.1, epochs=2, batch_size=4, seed=0, hidden=3)


@pytest.mark.parametrize("make", [
    lambda: ab.StochasticSpec(noise_scale=math.inf),
    lambda: ab.StochasticSpec(noise_scale=math.nan),
    lambda: ab.StochasticSpec(noise_scale=1e308),  # 2 * noise_scale overflows
    lambda: ab.StochasticSpec(noise_scale=0.1, calls=2.5),
    lambda: ab.TrainParams(**{**TRAIN, "epochs": 2.5}),
    lambda: ab.TrainParams(**{**TRAIN, "batch_size": 4.5}),
    lambda: ab.TrainParams(**{**TRAIN, "hidden": 2.5}),
    lambda: ab.TrainParams(**{**TRAIN, "seed": 1.5}),
    lambda: ab.Criterion.max_confidence("0.9"),
    lambda: ab.Dataset([[0.1], [0.9]], [0, 1], num_classes=2.5),
    lambda: seeding._check_seed(True),
    lambda: ab.TrainParams(**{**TRAIN, "learning_rate": "0.1"}),
    lambda: ab.TrainParams(**{**TRAIN, "learning_rate": True}),
    lambda: ab.StochasticSpec("0.1"),
    lambda: ab.StochasticSpec(True),
    lambda: ab.AttackConfig("a", "fgsm", "0.1"),
    lambda: ab.AttackConfig("a", "fgsm", True),
    lambda: ab.AttackConfig("a", "pgd", 0.1, step_size="0.1", num_steps=1),
    lambda: ab.AttackConfig("a", "pgd", 0.1, step_size=0.1, num_steps=1, random_init="no"),
    lambda: ab.BudgetPolicy(early_stop="no"),
    lambda: ab.Example(np.array([0.1]), 0.5),
    lambda: ab.synth_dataset(10.5, 2, 2, 0),
    lambda: ab.synth_dataset(10, 2.5, 2, 0),
    lambda: ab.synth_dataset(10, 2, 2.5, 0),
    lambda: ab.wat_gap_construction(2.5),
    lambda: ab.wat_underestimation_report([2.5]),
], ids=["noise-inf", "noise-nan", "noise-overflows", "calls", "epochs", "batch_size",
        "hidden", "train-seed", "threshold-str", "num_classes", "seed-bool",
        "learning_rate-str", "learning_rate-bool", "noise-str", "noise-bool", "epsilon-str",
        "epsilon-bool", "step_size-str", "random_init-str", "early_stop-str", "label-float",
        "synth-n-float", "synth-d-float", "synth-k-float", "wat-gap-float",
        "wat-report-float"])
def test_numeric_fields_of_records_are_refused_when_not_numbers(make):
    with pytest.raises(ContractError):
        make()


def _file(name, text, load):
    """A call that writes text to the file `name` and loads it."""
    def call():
        Path(name).write_text(text)
        return load(Path(name))
    return call


def _model_file(text):
    return _file("model.txt", text, ab.load_model)


def _csv(text):
    return _file("data.csv", text, ab.load_dataset_csv)


def _not_utf8(load):
    """A call that writes a file holding a byte no UTF-8 text has and loads it."""
    def call():
        Path("file.txt").write_bytes(b"architecture \xff\n")
        return load(Path("file.txt"))
    return call


MODEL = binary_linear([1.0, 0.0])
EXAMPLE = ab.Example(np.array([0.5, 0.5]), 0)
PGD2 = ab.AttackConfig("p", "pgd", 0.1, step_size=0.05, num_steps=2, num_restarts=2)
W, b = np.zeros((2, 2)), np.zeros(2)

# (id, call, exception type, line number of a file error); a call runs in a fresh directory
REFUSALS = [
    ("attack-empty-variant", lambda: ab.AttackConfig("a", "", 0.1), ContractError, None),
    ("pgd-of-fgsm", lambda: ab.pgd(MODEL, EXAMPLE, ab.AttackConfig("f", "fgsm", 0.1), 0),
     ContractError, None),
    ("validate-shape", lambda: attacks.validate_candidate(
        ab.Candidate(0, np.array([0.5]), "a"), EXAMPLE.features, 0.1), ShapeError, None),
    ("validate-ball", lambda: attacks.validate_candidate(
        ab.Candidate(0, np.array([0.9, 0.5]), "a"), EXAMPLE.features, 0.1),
     ContractError, None),
    ("validate-non-finite", lambda: attacks.validate_candidate(
        ab.Candidate(0, np.array([np.nan, 0.5]), "a"), EXAMPLE.features, 0.1),
     AttackFailedError, None),
    ("outcome-1d", lambda: ab.OutcomeMatrix(np.zeros(3), ["a"]), ContractError, None),
    ("outcome-ids", lambda: ab.OutcomeMatrix(np.zeros((2, 2)), ["a"]), ContractError, None),
    ("bundle-empty", lambda: ab.bundle(MODEL, ab.Dataset(np.zeros((0, 2)), [], num_classes=2),
                                       [], ab.Criterion.misclassify()), ContractError, None),
    ("config-unterminated", lambda: ab.parse_experiment_config("seed = 1\n[attack a\n"),
     ConfigError, 2),
    ("config-no-variant", lambda: ab.parse_experiment_config("[attack a]\nepsilon = 0.1\n"),
     ConfigError, 1),
    ("config-no-epsilon", lambda: ab.parse_experiment_config(
        "seed = 1\n\n[attack a]\nvariant = fgsm\n"), ConfigError, 3),
    ("example-2d", lambda: ab.Example(np.zeros((1, 2)), 0), ContractError, None),
    ("model-architecture", lambda: ab.ModelParams("svm", W, b), ContractError, None),
    ("model-non-finite", lambda: ab.ModelParams("softmax_linear", W, np.array([0.0, np.inf])),
     ContractError, None),
    ("model-shapes", lambda: ab.ModelParams("softmax_linear", W, np.zeros(3)),
     ContractError, None),
    ("stochastic-negative", lambda: ab.StochasticSpec(-0.1), ContractError, None),
    ("stochastic-calls", lambda: ab.StochasticSpec(0.1, calls=0), ContractError, None),
    ("ensemble-empty", lambda: ab.Ensemble(()), ContractError, None),
    ("ensemble-mixed", lambda: ab.Ensemble((MODEL, binary_linear([1.0]))), ContractError, None),
    ("train-seed", lambda: ab.TrainParams(**{**TRAIN, "seed": -1}), ContractError, None),
    ("train-architecture", lambda: ab.train(ab.synth_dataset(6, 2, 2, seed=0), "svm",
                                            ab.TrainParams(**TRAIN)), ContractError, None),
    ("wat-report", lambda: ab.wat_underestimation_report([0]), ContractError, None),
    # the blank line is skipped but counted
    ("csv-non-numeric", _csv("f0,label\n0.1,0\n\n0.2,x\n"), DataError, 4),
    ("csv-one-column", _csv("0.1,0\n1\n"), DataError, 2),
    ("csv-no-rows", _csv("f0,label\n\n"), DataError, None),
    ("model-not-a-model", _model_file("W1 2 2\n0 0 0 0\n"), DataError, None),
    ("model-bad-header", _model_file("architecture softmax_linear\nW1 2\n0 0\n"), DataError, 2),
    # an attack id a CSV row cannot hold
    ("attack-id-comma", lambda: ab.AttackConfig("a,b", "fgsm", 0.1), ContractError, None),
    ("attack-id-quote", lambda: ab.AttackConfig('a"b', "fgsm", 0.1), ContractError, None),
    ("attack-id-newline", lambda: ab.AttackConfig("a\nb", "fgsm", 0.1), ContractError, None),
    ("attack-id-not-str", lambda: ab.AttackConfig(1, "fgsm", 0.1), ContractError, None),
    # derive_seed hashes an id's UTF-8 bytes, which a lone surrogate has none of
    ("attack-id-surrogate", lambda: ab.AttackConfig("a\ud800", "fgsm", 0.1), ContractError,
     None),
    # labels are checked as given, before the int64 cast, and k is bounded as a CSV's is:
    # [0.5, 1.9] was read as [0, 1], 10**9 classes were accepted, and str labels raised
    # a raw ValueError from the cast
    ("dataset-float-label", lambda: ab.Dataset([[0.1, 0.2], [0.3, 0.4]], [0.5, 1.9], 2),
     ContractError, None),
    ("dataset-many-classes", lambda: ab.Dataset([[0.1], [0.3]], [0, 1], num_classes=10**9),
     ContractError, None),
    ("dataset-str-label", lambda: ab.Dataset([[0.1], [0.3]], ["a", "b"], 3), ContractError,
     None),
    ("dataset-bool-label", lambda: ab.Dataset([[0.1], [0.3]], [True, False], 2),
     ContractError, None),
    ("dataset-ragged-labels", lambda: ab.Dataset([[0.1], [0.3]], [[0], [1, 0]], 2),
     ContractError, None),
    # open raises a bare ValueError for a NUL byte in a path
    ("save-csv-nul", lambda: ab.save_dataset_csv("a\0b.csv", DATA), DataError, None),
    ("save-model-nul", lambda: ab.save_model("a\0b.txt", MODEL), DataError, None),
    # model files that are a directory, missing or not UTF-8
    ("model-directory", lambda: ab.load_model(Path(".")), DataError, None),
    ("model-missing", lambda: ab.load_model(Path("model.txt")), DataError, None),
    ("model-not-utf8", _not_utf8(ab.load_model), DataError, None),
    # a config built in code passes the checks a parsed one does
    ("config-criterion-str", lambda: ab.ExperimentConfig(criterion="misclassify"),
     ConfigError, None),
    ("config-seed-str", lambda: ab.ExperimentConfig(seed="0"), ConfigError, None),
    ("config-seed-float", lambda: ab.ExperimentConfig(seed=-1.5), ConfigError, None),
    ("config-attack-str", lambda: ab.ExperimentConfig(attacks=("a",)), ConfigError, None),
    ("config-no-runner",
     lambda: ab.ExperimentConfig(attacks=(ab.AttackConfig("x", "custom", 0.3),)),
     ConfigError, None),
    # a width or an epoch count that would exhaust memory or time before any check
    ("train-hidden-huge", lambda: ab.TrainParams(**{**TRAIN, "hidden": 10**8}),
     ContractError, None),
    ("train-epochs-huge", lambda: ab.TrainParams(**{**TRAIN, "epochs": 10**9}),
     ContractError, None),
    # 10**15 noisy calls were accepted, and scoring then asked numpy for 14.2 PiB
    ("stochastic-calls-huge", lambda: ab.StochasticSpec(0.1, calls=10**15), ContractError,
     None),
    # int() truncated a float seed and read a bool as 1, or raised a raw
    # TypeError or ValueError
    ("derive-seed-float", lambda: ab.derive_seed(1.9, 2), ContractError, None),
    ("derive-seed-bool", lambda: ab.derive_seed(True, 2), ContractError, None),
    ("derive-seed-part-float", lambda: ab.derive_seed(1, 2.5), ContractError, None),
    ("pgd-seed-float", lambda: ab.pgd(MODEL, EXAMPLE, PGD2, 1.5), ContractError, None),
    # read as the per-restart seeds 1 and 2
    ("pgd-seed-str", lambda: ab.pgd(MODEL, EXAMPLE, PGD2, "12"), ContractError, None),
    ("pgd-seeds-float", lambda: ab.pgd(MODEL, EXAMPLE, PGD2, [1.9, 2.2]), ContractError,
     None),
    ("pgd-seeds-bool", lambda: ab.pgd(MODEL, EXAMPLE, PGD2, [True, 2]), ContractError, None),
    ("fgsm-run-attack-seed-float", lambda: attacks.run_attack(
        MODEL, EXAMPLE, ab.AttackConfig("f", "fgsm", 0.1), 0.5), ContractError, None),
]


@pytest.mark.parametrize("call,error,line", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_bad_input_raises_its_typed_error(monkeypatch, tmp_path, call, error, line):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    if line is not None:
        assert f":{line}: " in str(raised.value)


DATA = ab.Dataset([[0.2, 0.5], [0.8, 0.5]], [0, 1], num_classes=2)
FGSM = ab.AttackConfig("f", "fgsm", 0.1)
CRITERION = ab.Criterion.misclassify()


def _pgd_seeds(seed):
    """A one-restart PGD attack pinned to restart seed `seed`."""
    return ab.AttackConfig("p", "pgd", 0.1, step_size=0.05, num_steps=2, restart_seeds=(seed,))


# (id, call on a kept exhaustive result, the argument the message names)
WRONG_TYPES = [
    ("bundle-attack-str", lambda kept: ab.bundle(MODEL, DATA, ["a"], CRITERION), "attacks"),
    ("bundle-attacks-none", lambda kept: ab.bundle(MODEL, DATA, None, CRITERION), "attacks"),
    ("bundle-criterion-str", lambda kept: ab.bundle(MODEL, DATA, [FGSM], "misclassify"),
     "criterion"),
    ("bundle-budget-int", lambda kept: ab.bundle(MODEL, DATA, [FGSM], CRITERION, 3), "budget"),
    ("bundle-seed-str", lambda kept: ab.bundle(MODEL, DATA, [FGSM], CRITERION, seed="0"),
     "seed"),
    ("bundle-seed-float", lambda kept: ab.bundle(MODEL, DATA, [FGSM], CRITERION, seed=-1.5),
     "seed"),
    ("check-attacks-str", lambda kept: bundler.check_attacks([FGSM, "a"]), "attacks"),
    ("reselect-criterion-str", lambda kept: ab.reselect(kept, "min_norm"), "criterion"),
    ("restart-seeds-str", lambda kept: ab.bundle(MODEL, DATA, [_pgd_seeds("a")], CRITERION),
     "restart_seeds"),
    ("restart-seeds-float", lambda kept: ab.bundle(MODEL, DATA, [_pgd_seeds(1.5)], CRITERION),
     "restart_seeds"),
    ("restart-seeds-bool", lambda kept: ab.bundle(MODEL, DATA, [_pgd_seeds(True)], CRITERION),
     "restart_seeds"),
    # each of these raised a raw AttributeError
    ("bundle-params-str", lambda kept: ab.bundle("m", DATA, [FGSM], CRITERION), "params"),
    ("bundle-dataset-str", lambda kept: ab.bundle(MODEL, "ds", [FGSM], CRITERION), "dataset"),
    ("complete-result-str", lambda kept: ab.complete("r"), "result"),
    ("train-dataset-str", lambda kept: ab.train("ds", "mlp1", ab.TrainParams(**TRAIN)),
     "dataset"),
    ("train-hp-str", lambda kept: ab.train(DATA, "mlp1", "hp"), "hp"),
]


@pytest.mark.parametrize("call,name", [case[1:] for case in WRONG_TYPES],
                         ids=[case[0] for case in WRONG_TYPES])
def test_an_argument_of_the_wrong_type_is_named_before_any_model_call(monkeypatch, call,
                                                                      name):
    kept = ab.bundle(MODEL, DATA, [FGSM], CRITERION, ab.BudgetPolicy(early_stop=False),
                     keep_candidates=True)
    calls = []
    monkeypatch.setattr(bundler, "probs_rows", lambda *args: calls.append(args))
    monkeypatch.setattr(bundler, "attack_rows", lambda *args: calls.append(args))
    with pytest.raises(ContractError, match=f"^{name} must ") as raised:
        call(kept)
    assert type(raised.value) is ContractError and calls == []


def test_restart_seeds_are_kept_as_a_tuple_of_the_given_integers():
    attack = ab.AttackConfig("p", "pgd", 0.1, step_size=0.05, num_steps=2, num_restarts=2,
                             restart_seeds=[3, np.int64(4)])
    assert attack.restart_seeds == (3, 4) and type(attack.restart_seeds) is tuple
