import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advbundle as ab
from advbundle.errors import ContractError, DataError, ShapeError, TrainingDivergedError

from conftest import binary_linear, oracle_loss, random_linear, random_mlp

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


def test_gradient_rejects_bad_label():
    m = binary_linear([1.0])
    with pytest.raises(ContractError):
        ab.input_gradient(m, np.array([0.5]), 5)


class TestTrain:
    def test_blobs_reach_low_error(self, blobs_2c, linear_on_blobs):
        # grid search over a 2-D slice (unit weight angle, bias) confirms
        # <=5% error is attainable before asserting the trained model gets there
        X = blobs_2c.features_matrix()
        y = blobs_2c.labels()
        best = 1.0
        for theta in np.linspace(0, 2 * np.pi, 73):
            scores = X @ np.array([np.cos(theta), np.sin(theta)])
            for bias in np.linspace(-2, 2, 81):
                pred = (scores + bias > 0).astype(int)
                best = min(best, float(np.mean(pred != y)))
        assert best <= 0.05
        err = np.mean([ab.predict(linear_on_blobs, ex.features).predicted_class != ex.label
                       for ex in blobs_2c.examples])
        assert err <= 0.05

    def test_single_repeated_example_is_fit(self):
        ex = ab.Example(np.array([0.2, 0.9]), 1)
        ds = ab.Dataset([ex] * 10, num_classes=2)
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
        X, y = small_blobs.features_matrix(), small_blobs.labels()
        initial = np.log(small_blobs.num_classes)  # zero-init linear model
        final = np.mean([oracle_loss(m, X[i], y[i]) for i in range(len(y))])
        assert final <= initial + 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_epoch(self, blobs_2c):
        hp = ab.TrainParams(learning_rate=1e150, epochs=5, batch_size=16, seed=0)
        with pytest.raises(TrainingDivergedError) as info:
            ab.train(blobs_2c, "mlp1", hp)
        assert info.value.epoch == 0
        assert "epoch" in str(info.value)

    def test_empty_dataset_rejected(self):
        ds = ab.Dataset([], num_classes=2, dimension=2)
        with pytest.raises(ContractError):
            ab.train(ds, "softmax_linear",
                     ab.TrainParams(learning_rate=0.1, epochs=1, batch_size=1, seed=0))


class TestPredictStochastic:
    def test_zero_noise_identical_to_predict(self, mlp_on_small_blobs):
        m = mlp_on_small_blobs
        x = np.array([0.3, 0.8])
        for calls in (1, 7):
            spec = ab.StochasticSpec(noise_scale=0.0, calls=calls)
            got = ab.predict_stochastic(m, spec, x, seed=4)
            want = ab.predict(m, x)
            assert np.array_equal(got.probabilities, want.probabilities)
            assert got.predicted_class == want.predicted_class

    def test_single_call_equals_predict_on_noised_input(self, mlp_on_small_blobs):
        m = mlp_on_small_blobs
        x = np.array([0.4, 0.6])
        spec = ab.StochasticSpec(noise_scale=0.1, calls=1)
        got = ab.predict_stochastic(m, spec, x, seed=77)
        gen = np.random.Generator(np.random.PCG64(77))
        noise = gen.uniform(-0.1, 0.1, size=(1, 2))
        want = ab.predict(m, np.clip(x + noise[0], 0, 1))
        assert np.allclose(got.probabilities, want.probabilities, atol=1e-12)

    def test_mean_probabilities_match_monte_carlo_oracle(self, mlp_on_small_blobs):
        m = mlp_on_small_blobs
        x = np.array([0.45, 0.55])
        spec = ab.StochasticSpec(noise_scale=0.05, calls=10000)
        got = ab.predict_stochastic(m, spec, x, seed=1)
        # independent oracle: fresh stream, plain averaging of predict calls
        oracle_rng = np.random.default_rng(987654321)
        total = np.zeros(m.num_classes)
        for _ in range(10000):
            noisy = np.clip(x + oracle_rng.uniform(-0.05, 0.05, size=2), 0, 1)
            total += ab.predict(m, noisy).probabilities
        oracle = total / 10000
        assert np.max(np.abs(got.probabilities - oracle)) <= 0.01

    def test_deterministic_given_seed(self, mlp_on_small_blobs):
        spec = ab.StochasticSpec(noise_scale=0.05, calls=50)
        x = np.array([0.2, 0.7])
        a = ab.predict_stochastic(mlp_on_small_blobs, spec, x, seed=5)
        b = ab.predict_stochastic(mlp_on_small_blobs, spec, x, seed=5)
        assert np.array_equal(a.probabilities, b.probabilities)


class TestEnsemble:
    def test_identical_correct_members_count_zero(self, linear_on_blobs, blobs_2c):
        ex = blobs_2c.examples[0]
        assert ab.predict(linear_on_blobs, ex.features).predicted_class == ex.label
        ens = ab.Ensemble((linear_on_blobs,) * 3)
        assert ab.ensemble_fooled_count(ens, ex.features, ex.label) == 0

    def test_single_wrong_member_counts_one(self, linear_on_blobs, blobs_2c):
        ex = blobs_2c.examples[0]
        wrong = (ex.label + 1) % blobs_2c.num_classes
        ens = ab.Ensemble((linear_on_blobs,))
        assert ab.ensemble_fooled_count(ens, ex.features, wrong) == 1

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(11)
        members = tuple(random_linear(rng, 3, k=3) for _ in range(5))
        ens = ab.Ensemble(members)
        for _ in range(50):
            x = rng.uniform(0, 1, 3)
            label = int(rng.integers(0, 3))
            direct = sum(ab.predict(m, x).predicted_class != label for m in members)
            assert ab.ensemble_fooled_count(ens, x, label) == direct

    def test_mixed_dimensions_rejected(self):
        a = binary_linear([1.0, 0.0])
        b = binary_linear([1.0])
        with pytest.raises(ContractError):
            ab.Ensemble((a, b))


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
