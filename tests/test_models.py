import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import advbundle as ab
from advbundle.errors import ContractError, DataError, ShapeError, TrainingDivergedError
from advbundle import models
from advbundle.models import NARROW_AXIS, reduce_rows

from conftest import binary_linear, oracle_loss, random_linear, random_mlp, stable_softmax

SIGMOID_08 = 0.6899744811276125  # 1 / (1 + exp(-0.8))


def test_zero_weight_model_is_uniform_and_ties_to_class_zero():
    m = ab.ModelParams("softmax_linear", np.zeros((3, 4)), np.zeros(4))
    pred = ab.predict(m, np.array([0.1, 0.9, 0.4]))
    assert np.allclose(pred.probabilities, 0.25)
    assert pred.predicted_class == 0
    assert pred.confidence == 0.25


def test_binary_linear_matches_sigmoid():
    m = binary_linear([1.0, 0.0])
    pred = ab.predict(m, np.array([0.8, 0.3]))
    assert pred.probabilities[1] == pytest.approx(SIGMOID_08, abs=1e-12)
    assert round(float(pred.probabilities[1]), 4) == 0.6900


def test_probabilities_sum_to_one_on_random_inputs():
    rng = np.random.default_rng(0)
    models = [random_linear(rng, 5, k=3), random_mlp(rng, 5, k=3)]
    for m in models:
        for _ in range(500):
            x = rng.uniform(0, 1, 5)
            pred = ab.predict(m, x)
            assert abs(pred.probabilities.sum() - 1.0) <= 1e-9
            assert pred.predicted_class == int(np.argmax(pred.probabilities))
            assert pred.confidence == pred.probabilities.max()


def test_predict_rejects_wrong_dimension():
    m = binary_linear([1.0, 0.0])
    with pytest.raises(ShapeError):
        ab.predict(m, np.array([0.5, 0.5, 0.5]))


def test_argmax_tie_breaks_to_lowest_index():
    # duplicate weight columns make classes 1 and 2 exactly tied, both above 0
    W = np.array([[0.0, 2.0, 2.0]])
    m = ab.ModelParams("softmax_linear", W, np.zeros(3))
    pred = ab.predict(m, np.array([0.7]))
    assert pred.probabilities[1] == pred.probabilities[2]
    assert pred.predicted_class == 1


def _central_difference(params, x, label, step=1e-5):
    fd = np.zeros_like(x)
    for j in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        fd[j] = (oracle_loss(params, xp, label) - oracle_loss(params, xm, label)) / (2 * step)
    return fd


# few distinct values, so rows tie exactly; both zeros, both infinities, NaN
REDUCED = st.sampled_from([0.0, -0.0, 0.25, 1.0, -1.0, np.inf, -np.inf, np.nan])


@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 40)),
                  elements=REDUCED))
@settings(max_examples=300, deadline=None)
def test_reduce_rows_equals_numpy_row_reductions(a):
    got = reduce_rows(np.maximum, a)
    want = a.max(axis=-1)
    # equal as values: a max of zeros may take either zero's sign
    assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = np.isfinite(a)
    assert np.array_equal(reduce_rows(np.logical_and, finite), finite.all(axis=-1))
    assert np.array_equal(reduce_rows(np.logical_or, a > 0), (a > 0).any(axis=-1))


def test_reduce_rows_on_strided_rows_either_side_of_the_crossover():
    # a non-contiguous input, reduced both ways
    a = np.random.default_rng(2).normal(size=(60, 2 * NARROW_AXIS + 2))[:, ::2]
    for width in (NARROW_AXIS, NARROW_AXIS + 1):
        assert np.array_equal(reduce_rows(np.maximum, a[:, :width]), a[:, :width].max(axis=1))


def test_a_model_without_inputs_or_classes_is_refused():
    # such a model cannot score a row; it is refused where it is built
    for W in (np.zeros((0, 2)), np.zeros((2, 0))):
        with pytest.raises(ContractError, match="needs d >= 1 and k >= 1"):
            ab.ModelParams("softmax_linear", W, np.zeros(W.shape[1]))


@pytest.mark.parametrize("arch", ["softmax_linear", "mlp1"])
def test_input_gradient_matches_finite_differences(arch):
    rng = np.random.default_rng(42)
    for case in range(100):
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, 5))
        if arch == "softmax_linear":
            m = random_linear(rng, d, k)
        else:
            m = random_mlp(rng, d, k, h=int(rng.integers(2, 8)))
        x = rng.uniform(0.05, 0.95, d)
        label = int(rng.integers(0, k))
        g = ab.input_gradient(m, x, label)
        fd = _central_difference(m, x, label)
        rel = np.abs(g - fd) / np.maximum(np.abs(g), 1e-8)
        assert rel.max() <= 1e-4, f"case {case}: rel err {rel.max()}"


def test_zero_weight_gradient_is_zero():
    m = ab.ModelParams("softmax_linear", np.zeros((4, 3)), np.zeros(3))
    g = ab.input_gradient(m, np.full(4, 0.5), 1)
    assert np.array_equal(g, np.zeros(4))


def test_binary_linear_gradient_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.normal(size=3)
        m = binary_linear(w)
        x = rng.uniform(0, 1, 3)
        p1 = ab.predict(m, x).probabilities[1]
        # loss for true label 0 rises along w scaled by the wrong-class probability
        g = ab.input_gradient(m, x, 0)
        assert np.allclose(g, p1 * w, rtol=1e-12, atol=1e-15)
        # for true label 1 the sign flips and the scale is p0
        g = ab.input_gradient(m, x, 1)
        assert np.allclose(g, -(1 - p1) * w, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("batch", [1, 7, 64, 5000])
@pytest.mark.parametrize("arch", ["softmax_linear", "mlp1"])
def test_row_functions_equal_single_calls_bitwise(arch, batch):
    # gemm (a plain X @ W) rounds differently from row to row as the batch
    # grows; the row functions must not, or a candidate would depend on how
    # many other rows were computed with it
    rng = np.random.default_rng(batch)
    if arch == "softmax_linear":
        m = random_linear(rng, 32, k=4, scale=3.0)
    else:
        m = random_mlp(rng, 32, k=4, h=32, scale=3.0)
    X = rng.uniform(0, 1, (batch, 32))
    labels = rng.integers(0, 4, batch)
    probs = ab.models.probs_rows(m, X)
    grads = ab.models.grad_rows(m, X, labels)
    for r in range(batch):
        assert np.array_equal(probs[r], ab.predict(m, X[r]).probabilities), r
        assert np.array_equal(grads[r], ab.input_gradient(m, X[r], int(labels[r]))), r


def _reference_sgd(X, y, k, architecture, hp):
    """Minibatch SGD written out per architecture, the order `train` follows,
    with the full-data loss after every epoch: a non-finite one raises
    TrainingDivergedError naming the epoch, as does a final loss above the
    initial one."""
    rng = np.random.Generator(np.random.PCG64(hp.seed))
    n, d = X.shape
    onehot = np.eye(k)[y]
    if architecture == "softmax_linear":
        W1, b1 = np.zeros((d, k)), np.zeros(k)
        W2 = b2 = None
    else:
        h = hp.hidden
        W1, b1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h)), np.zeros(h)
        W2, b2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, k)), np.zeros(k)

    def loss():
        logits = X @ W1 + b1
        if architecture != "softmax_linear":
            logits = np.maximum(logits, 0.0) @ W2 + b2
        picked = np.maximum(stable_softmax(logits)[np.arange(n), y], 1e-12)
        return float(-np.log(picked).mean())

    with np.errstate(all="ignore"):
        initial = loss()
        for epoch in range(hp.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, hp.batch_size):
                idx = perm[start:start + hp.batch_size]
                Xb, Yb, m = X[idx], onehot[idx], len(idx)
                if architecture == "softmax_linear":
                    g_logits = (stable_softmax(Xb @ W1 + b1) - Yb) / m
                    W1 -= hp.learning_rate * (Xb.T @ g_logits)
                    b1 -= hp.learning_rate * g_logits.sum(axis=0)
                else:
                    z1 = Xb @ W1 + b1
                    a1 = np.maximum(z1, 0.0)
                    g_logits = (stable_softmax(a1 @ W2 + b2) - Yb) / m
                    gW2, gb2 = a1.T @ g_logits, g_logits.sum(axis=0)
                    g_hidden = (g_logits @ W2.T) * (z1 > 0.0)
                    W2 -= hp.learning_rate * gW2
                    b2 -= hp.learning_rate * gb2
                    W1 -= hp.learning_rate * (Xb.T @ g_hidden)
                    b1 -= hp.learning_rate * g_hidden.sum(axis=0)
            final = loss()
            if not np.isfinite(final):
                raise TrainingDivergedError(epoch)
    if final > initial:
        raise TrainingDivergedError(hp.epochs - 1,
                                    f"training raised the loss ({initial:.6g} -> {final:.6g}); "
                                    "lower the learning rate")
    return [W1, b1, W2, b2]


@pytest.mark.parametrize("arch", ["softmax_linear", "mlp1"])
def test_train_matches_reference_sgd(arch):
    # 90 examples in batches of 16 leave a short last batch every epoch
    ds = ab.synth_dataset(90, 3, 3, seed=4)
    hp = ab.TrainParams(learning_rate=0.3, epochs=25, batch_size=16, seed=9, hidden=10)
    m = ab.train(ds, arch, hp)
    want = _reference_sgd(ds.features, ds.labels, 3, arch, hp)
    for got, ref in zip([m.W1, m.b1, m.W2, m.b2], want):
        if ref is None:
            assert got is None
        else:
            assert np.array_equal(got, ref)


def _outcome(fit):
    """The bytes of the weights fit() returns, or the epoch and message of its
    TrainingDivergedError."""
    try:
        return [None if a is None else a.tobytes() for a in fit()]
    except TrainingDivergedError as exc:
        return exc.epoch, str(exc)


@pytest.mark.parametrize("arch", ["softmax_linear", "mlp1"])
def test_train_meets_reference_sgd_over_a_learning_rate_sweep(arch):
    # from learning, through a raised loss, to overflow in each epoch; no
    # warning escapes train, as the suite turns warnings into errors
    ds = ab.synth_dataset(30, 3, 3, seed=4)
    kinds = set()
    for lr in [*10.0 ** np.arange(-1.0, 308.0, 7.0), 1e308, 1.7e308]:
        hp = ab.TrainParams(learning_rate=lr, epochs=4, batch_size=8, seed=9, hidden=5)
        want = _outcome(lambda: _reference_sgd(ds.features, ds.labels, 3, arch, hp))
        got = _outcome(lambda: [getattr(ab.train(ds, arch, hp), name)
                                for name in ("W1", "b1", "W2", "b2")])
        assert got == want, lr
        kinds.add("fit" if isinstance(want, list) else want[1].split(" ")[1])
    assert kinds == {"fit", "raised", "diverged"}


def _weights(params):
    """W1, b1, W2 and b2 of a model, None where it has no such array."""
    return [getattr(params, name) for name in ("W1", "b1", "W2", "b2")]


@st.composite
def _fits(draw):
    """A dataset of up to 12 rows and a TrainParams for it: any hidden width
    from 1, batches from 1 row to more than the dataset, and a learning rate
    from 1e-1 to float64's edge."""
    n, d, k = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(2, 4))
    features = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(0.0, 1.0)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    lr = draw(st.just(1.7e308) | st.floats(-1.0, 308.0).map(lambda e: 10.0 ** e))
    hp = ab.TrainParams(learning_rate=lr, epochs=draw(st.integers(1, 4)),
                        batch_size=draw(st.integers(1, n + 2)), seed=draw(st.integers(0, 2**32)),
                        hidden=draw(st.integers(1, 6)))
    return ab.Dataset(features, labels, num_classes=k), hp


@given(st.sampled_from(["softmax_linear", "mlp1"]), _fits())
@settings(max_examples=150, deadline=None)
def test_train_meets_reference_sgd_on_any_fit(arch, fit):
    # the reference tests the loss after every epoch, so it is an oracle for the
    # epochs train passes on the weight bound alone
    ds, hp = fit
    want = _outcome(lambda: _reference_sgd(ds.features, ds.labels, ds.num_classes, arch, hp))
    if isinstance(want, list) and not all(np.isfinite(np.frombuffer(a)).all()
                                          for a in want if a is not None):
        # a weight overflowed while every logit stayed finite; ModelParams refuses it
        want = "model parameters must be finite"
    try:
        got = _outcome(lambda: _weights(ab.train(ds, arch, hp)))
    except ContractError as exc:
        got = str(exc)
    assert got == want


def _count_full_passes(monkeypatch, dataset):
    """A list that gains an entry at each `_logits` call on all of dataset's
    features, as against a minibatch of them."""
    full, logits = [], models._logits

    def counted(layers, X, matmul):
        if X is dataset.features:
            full.append(len(X))
        return logits(layers, X, matmul)

    monkeypatch.setattr(models, "_logits", counted)
    return full


# fits whose weights leave the bound behind after an epoch before the last: one
# keeps its logits finite and fits, the others overflow at the epoch given
@pytest.mark.parametrize("arch, lr, batch_size, outcome", [
    ("softmax_linear", 1e301, 8, "fit"),
    ("softmax_linear", 1.7e308, 30, 3),
    ("mlp1", 5.6e154, 30, 1)])
def test_an_epoch_past_the_weight_bound_takes_the_full_pass(monkeypatch, arch, lr, batch_size,
                                                            outcome):
    ds = ab.synth_dataset(30, 3, 3, seed=4 if outcome == "fit" else 0)
    hp = ab.TrainParams(learning_rate=lr, epochs=6, batch_size=batch_size, seed=9, hidden=5)
    want = _outcome(lambda: _reference_sgd(ds.features, ds.labels, 3, arch, hp))
    full = _count_full_passes(monkeypatch, ds)
    got = _outcome(lambda: _weights(ab.train(ds, arch, hp)))
    assert got == want
    if outcome == "fit":
        assert isinstance(got, list) and len(full) > 2
    else:
        assert got[0] == outcome and got[1].startswith(f"training diverged at epoch {outcome}")
        # the epoch's own full pass raised, not the last epoch's
        assert 2 <= len(full) <= outcome + 2


def test_the_weight_bound_counts_hidden_units_the_next_layer_scales_down():
    # a hidden unit near float64's edge can round past it, and output weights of
    # 1e-12 would keep the logits' own bound (3e296) far below LOGIT_BOUND
    layers = [(np.full((2, 1), 0.5e308), np.zeros(1)), (np.full((1, 3), 1e-12), np.zeros(3))]
    assert models._logit_bound(layers) >= 1e308 > models.LOGIT_BOUND
    assert models._logit_bound(layers[1:]) < models.LOGIT_BOUND


def test_gradient_rejects_bad_label():
    m = binary_linear([1.0])
    with pytest.raises(ContractError):
        ab.input_gradient(m, np.array([0.5]), 5)


class TestTrain:
    def test_blobs_reach_low_error(self, blobs_2c, linear_on_blobs):
        # grid search over a 2-D slice (unit weight angle, bias) confirms
        # <=5% error is attainable before asserting the trained model gets there
        X = blobs_2c.features
        y = blobs_2c.labels
        best = 1.0
        for theta in np.linspace(0, 2 * np.pi, 73):
            scores = X @ np.array([np.cos(theta), np.sin(theta)])
            for bias in np.linspace(-2, 2, 81):
                pred = (scores + bias > 0).astype(int)
                best = min(best, float(np.mean(pred != y)))
        assert best <= 0.05
        err = np.mean([ab.predict(linear_on_blobs, x).predicted_class != label
                       for x, label in zip(X, y)])
        assert err <= 0.05

    def test_single_repeated_example_is_fit(self):
        ex = ab.Example(np.array([0.2, 0.9]), 1)
        ds = ab.Dataset([ex.features] * 10, [ex.label] * 10, num_classes=2)
        m = ab.train(ds, "softmax_linear",
                     ab.TrainParams(learning_rate=0.5, epochs=50, batch_size=4, seed=0))
        assert ab.predict(m, ex.features).predicted_class == 1

    def test_same_seed_is_bit_identical(self, small_blobs):
        hp = ab.TrainParams(learning_rate=0.2, epochs=30, batch_size=16, seed=123, hidden=8)
        a = ab.train(small_blobs, "mlp1", hp)
        b = ab.train(small_blobs, "mlp1", hp)
        for arr_a, arr_b in [(a.W1, b.W1), (a.b1, b.b1), (a.W2, b.W2), (a.b2, b.b2)]:
            assert np.array_equal(arr_a, arr_b)

    def test_loss_does_not_increase(self, small_blobs):
        hp = ab.TrainParams(learning_rate=0.05, epochs=20, batch_size=16, seed=2)
        m = ab.train(small_blobs, "softmax_linear", hp)
        X, y = small_blobs.features, small_blobs.labels
        initial = np.log(small_blobs.num_classes)  # zero-init linear model
        final = np.mean([oracle_loss(m, X[i], y[i]) for i in range(len(y))])
        assert final <= initial + 1e-12

    def test_divergence_names_the_epoch(self, blobs_2c):
        hp = ab.TrainParams(learning_rate=1e150, epochs=5, batch_size=16, seed=0)
        with pytest.raises(TrainingDivergedError) as info:
            ab.train(blobs_2c, "mlp1", hp)
        assert info.value.epoch == 0
        assert "epoch" in str(info.value)

    def test_memory_does_not_grow_with_classes_squared(self):
        # a k x k identity for the one-hot labels alone would be 72 MB here
        ds = ab.Dataset(np.array([[0.2, 0.4], [0.6, 0.8]]), [0, 2999], num_classes=3000)
        hp = ab.TrainParams(learning_rate=0.1, epochs=2, batch_size=2, seed=0)
        tracemalloc.start()
        try:
            ab.train(ds, "softmax_linear", hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("arch", ["softmax_linear", "mlp1"])
    def test_a_healthy_fit_makes_two_full_data_passes(self, small_blobs, monkeypatch, arch):
        # one for the initial loss and one after the last epoch, whose logits give
        # the final loss too; every epoch before it clears the weight bound
        full = _count_full_passes(monkeypatch, small_blobs)
        hp = ab.TrainParams(learning_rate=0.05, epochs=7, batch_size=16, seed=2, hidden=4)
        ab.train(small_blobs, arch, hp)
        assert len(full) == 2

    @pytest.mark.parametrize("call", [lambda: ab.ModelParams("svm", np.zeros((1, 2)),
                                                             np.zeros(2)),
                                      lambda: ab.train(ab.synth_dataset(4, 1, 2, seed=0), "svm",
                                                       ab.TrainParams(0.1, 1, 2, seed=0))])
    def test_an_unknown_architecture_is_refused_as_the_config_refuses_it(self, call):
        with pytest.raises(ContractError, match="^architecture must be one of softmax_linear, "
                                                "mlp1, got 'svm'$"):
            call()

    def test_empty_dataset_rejected(self):
        ds = ab.Dataset(np.zeros((0, 2)), [], num_classes=2)
        with pytest.raises(ContractError):
            ab.train(ds, "softmax_linear",
                     ab.TrainParams(learning_rate=0.1, epochs=1, batch_size=1, seed=0))


def test_model_round_trips_exactly(tmp_path, mlp_on_small_blobs, linear_on_blobs):
    for m in (mlp_on_small_blobs, linear_on_blobs):
        path = tmp_path / "model.txt"
        ab.save_model(path, m)
        loaded = ab.load_model(path)
        assert loaded.architecture == m.architecture
        assert np.array_equal(loaded.W1, m.W1)
        assert np.array_equal(loaded.b1, m.b1)
        if m.architecture == "mlp1":
            assert np.array_equal(loaded.W2, m.W2)
            assert np.array_equal(loaded.b2, m.b2)


@pytest.mark.parametrize("text, line", [
    ("architecture mlp1\nW1 2 3\n", ":2:"),
    ("architecture softmax_linear\nW1 2 x\n0 0\n", ":2:"),
    ("architecture softmax_linear\nW1 1 2\n0 zero\n", ":3:"),
    ("architecture softmax_linear\nW1 1 2\n0 0 0\n", ":3:"),
], ids=["truncated", "bad_shape", "bad_value", "size_mismatch"])
def test_malformed_model_file_is_data_error_naming_line(tmp_path, text, line):
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=line):
        ab.load_model(path)


@pytest.mark.parametrize("text, message", [
    ("architecture softmax_linear\nW1 1 2\n0 0\nb1 2\n0 0\nW2 2 2\n0 0 0 0\nb2 2\n0 0\n",
     "softmax_linear model has no W2"),
    ("architecture mlp1\nW1 1 2\n0 0\nb1 2\n0 0\n", "mlp1 model needs W2"),
], ids=["unused_array", "missing_array"])
def test_model_file_arrays_must_match_architecture(tmp_path, text, message):
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        ab.load_model(path)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_prediction_invariants_hold_everywhere(features, model_seed):
    rng = np.random.default_rng(model_seed)
    x = np.array(features)
    m = random_mlp(rng, x.shape[0], k=3)
    pred = ab.predict(m, x)
    assert abs(pred.probabilities.sum() - 1.0) <= 1e-9
    assert 0 < pred.confidence <= 1.0
    assert pred.predicted_class == int(np.argmax(pred.probabilities))
