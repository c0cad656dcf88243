import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import advbundle as ab
from advbundle.attacks import pgd_rows, run_attack
from advbundle.errors import AttackFailedError, ContractError, ShapeError

from conftest import binary_linear, oracle_loss


def corner_max_loss(params, clean, label, epsilon):
    """Brute-force maximum loss over all corners of the feasible box."""
    lo = np.maximum(clean - epsilon, 0.0)
    hi = np.minimum(clean + epsilon, 1.0)
    best = -np.inf
    for corner in itertools.product(*zip(lo, hi)):
        best = max(best, oracle_loss(params, np.array(corner), label))
    return best


class TestProject:
    def test_feasible_point_unchanged(self):
        clean = np.array([0.5, 0.5])
        x = np.array([0.6, 0.45])
        assert np.array_equal(ab.project(x, clean, 0.3), x)

    def test_clamps_to_epsilon(self):
        assert ab.project(np.array([0.95]), np.array([0.5]), 0.3) == pytest.approx([0.8])

    def test_range_clip_dominates(self):
        assert ab.project(np.array([-0.5]), np.array([0.1]), 0.3) == pytest.approx([0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ab.project(np.array([0.5]), np.array([0.5, 0.5]), 0.3)

    @given(hnp.arrays(np.float64, 4, elements=st.floats(-2, 3)),
           hnp.arrays(np.float64, 4, elements=st.floats(0, 1)),
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_feasible(self, x, clean, eps):
        once = ab.project(x, clean, eps)
        assert np.array_equal(ab.project(once, clean, eps), once)
        assert np.all(once >= 0.0) and np.all(once <= 1.0)
        assert np.max(np.abs(once - clean)) <= eps + 1e-9


class TestFgsm:
    def test_zero_gradient_returns_clean(self):
        m = ab.ModelParams("softmax_linear", np.zeros((2, 2)), np.zeros(2))
        ex = ab.Example(np.array([0.4, 0.6]), 0)
        cand = ab.fgsm(m, ex, 0.3)
        assert np.array_equal(cand.adversarial_input, ex.features)

    def test_optimal_for_linear_models(self):
        # signed one-step ascent reaches the best corner of the box exactly
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = int(rng.integers(1, 9))
            m = binary_linear(rng.normal(size=d), bias=float(rng.normal()))
            ex = ab.Example(rng.uniform(0, 1, d), int(rng.integers(0, 2)))
            cand = ab.fgsm(m, ex, 0.3)
            achieved = oracle_loss(m, cand.adversarial_input, ex.label)
            assert achieved >= corner_max_loss(m, ex.features, ex.label, 0.3) - 1e-6

    def test_candidates_always_feasible(self):
        rng = np.random.default_rng(3)
        m = binary_linear(rng.normal(size=3))
        for _ in range(1000):
            ex = ab.Example(rng.uniform(0, 1, 3), int(rng.integers(0, 2)))
            eps = float(rng.uniform(0.01, 0.5))
            cand = ab.fgsm(m, ex, eps)
            assert np.max(np.abs(cand.adversarial_input - ex.features)) <= eps + 1e-9
            assert cand.adversarial_input.min() >= 0.0
            assert cand.adversarial_input.max() <= 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_fails_with_example_index(self):
        m = binary_linear([1e308, 1e308])
        ex = ab.Example(np.array([1.0, 1.0]), 1)
        with pytest.raises(AttackFailedError) as info:
            ab.fgsm(m, ex, 0.3, example_index=17)
        assert info.value.example_index == 17


def _pgd_cfg(**kw):
    base = dict(attack_id="p", variant="pgd", epsilon=0.3, step_size=0.1, num_steps=40)
    base.update(kw)
    return ab.AttackConfig(**base)


class TestPgd:
    def test_zero_steps_no_init_returns_clean(self):
        m = binary_linear([1.0, -1.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        cands = ab.pgd(m, ex, _pgd_cfg(num_steps=0, random_init=False), seed=0)
        assert len(cands) == 1
        assert np.array_equal(cands[0].adversarial_input, ex.features)

    def test_reaches_corner_optimum_on_linear_models(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = int(rng.integers(1, 9))
            m = binary_linear(rng.normal(size=d), bias=float(rng.normal()))
            ex = ab.Example(rng.uniform(0, 1, d), int(rng.integers(0, 2)))
            cands = ab.pgd(m, ex, _pgd_cfg(), seed=int(rng.integers(0, 2**32)))
            achieved = oracle_loss(m, cands[0].adversarial_input, ex.label)
            assert achieved >= corner_max_loss(m, ex.features, ex.label, 0.3) - 1e-6

    def test_loss_is_monotone_in_steps_on_linear_models(self):
        # pgd with a pinned restart seed is prefix-consistent, so running it
        # with increasing step counts exposes the per-step loss trajectory
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            k = int(rng.integers(2, 5))
            W = rng.normal(size=(d, k))
            m = ab.ModelParams("softmax_linear", W, rng.normal(size=k))
            ex = ab.Example(rng.uniform(0, 1, d), int(rng.integers(0, k)))
            seed = [int(rng.integers(0, 2**32))]
            losses = []
            for steps in range(8):
                cand = ab.pgd(m, ex, _pgd_cfg(num_steps=steps, num_restarts=1),
                              seed=seed)[0]
                losses.append(oracle_loss(m, cand.adversarial_input, ex.label))
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_restart_indices_and_determinism(self):
        m = binary_linear([1.0, 2.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        cfg = _pgd_cfg(num_restarts=4)
        a = ab.pgd(m, ex, cfg, seed=42)
        b = ab.pgd(m, ex, cfg, seed=42)
        assert [c.restart_index for c in a] == [0, 1, 2, 3]
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.adversarial_input, cb.adversarial_input)
        # different seeds draw different random inits (visible with 0 steps,
        # since full 40-step runs all land on the same corner of a linear model)
        init_cfg = _pgd_cfg(num_steps=0, num_restarts=4)
        inits_a = ab.pgd(m, ex, init_cfg, seed=42)
        inits_c = ab.pgd(m, ex, init_cfg, seed=43)
        assert any(not np.array_equal(x.adversarial_input, y.adversarial_input)
                   for x, y in zip(inits_a, inits_c))

    def test_explicit_per_restart_seeds_reproduce_each_restart(self):
        m = binary_linear([1.0, 2.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        full = ab.pgd(m, ex, _pgd_cfg(num_restarts=5), seed=99, example_index=3)
        for r in range(5):
            single = ab.pgd(m, ex, _pgd_cfg(num_restarts=1),
                            seed=[ab.derive_seed(99, r)], example_index=3)
            assert np.array_equal(single[0].adversarial_input, full[r].adversarial_input)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_names_step_and_restart(self):
        m = binary_linear([1e308, 1e308])
        ex = ab.Example(np.array([1.0, 1.0]), 1)
        with pytest.raises(AttackFailedError) as info:
            ab.pgd(m, ex, _pgd_cfg(random_init=False), seed=0, example_index=2)
        assert info.value.step == 0
        assert info.value.restart == 0
        assert info.value.example_index == 2

    def test_seed_list_length_checked(self):
        m = binary_linear([1.0, 2.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        with pytest.raises(ContractError):
            ab.pgd(m, ex, _pgd_cfg(num_restarts=3), seed=[1, 2])


@pytest.fixture(scope="module")
def desk_mlp():
    dataset = ab.synth_dataset(500, 2, 3, seed=7)
    hp = ab.TrainParams(learning_rate=0.3, epochs=120, batch_size=32, seed=1, hidden=16)
    return ab.train(dataset, "mlp1", hp), dataset


def test_expensive_pgd_reaches_higher_mean_loss_than_cheap(desk_mlp):
    model, dataset = desk_mlp
    cheap = _pgd_cfg(attack_id="cheap", num_steps=40, step_size=0.1)
    expensive = _pgd_cfg(attack_id="expensive", num_steps=1000, step_size=0.04)
    # the candidates the per-example pgd adapter returns, computed as one batch
    X, y = dataset.features, dataset.labels
    losses = {}
    for name, cfg in (("cheap", cheap), ("expensive", expensive)):
        seeds = [ab.derive_seed(0, i, name) for i in range(len(dataset))]
        adv, failed_at = pgd_rows(model, X, y, seeds, cfg)
        assert np.all(failed_at < 0)
        losses[name] = [oracle_loss(model, x, label) for x, label in zip(adv, y)]
    assert len(losses["cheap"]) >= 500
    assert np.mean(losses["expensive"]) >= np.mean(losses["cheap"])


class TestUniformNoise:
    def test_degenerate_ball_stays_at_clean(self):
        ex = ab.Example(np.array([0.4, 0.6]), 0)
        cands = ab.uniform_noise(ex, 1e-12, 5, seed=0)
        for c in cands:
            assert np.max(np.abs(c.adversarial_input - ex.features)) <= 1e-12

    def test_all_samples_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ex = ab.Example(rng.uniform(0, 1, 4), 0)
            eps = float(rng.uniform(0.05, 0.6))
            for c in ab.uniform_noise(ex, eps, 50, seed=int(rng.integers(0, 2**32))):
                assert np.max(np.abs(c.adversarial_input - ex.features)) <= eps + 1e-9
                assert c.adversarial_input.min() >= 0.0
                assert c.adversarial_input.max() <= 1.0

    def test_sample_mean_is_centred_for_interior_points(self):
        # law of large numbers: no projection bias when the box is interior
        ex = ab.Example(np.full(3, 0.5), 0)
        cands = ab.uniform_noise(ex, 0.2, 10000, seed=8)
        deltas = np.stack([c.adversarial_input - ex.features for c in cands])
        assert np.max(np.abs(deltas.mean(axis=0))) <= 0.01

    def test_deterministic_and_indexed(self):
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        a = ab.uniform_noise(ex, 0.3, 10, seed=3)
        b = ab.uniform_noise(ex, 0.3, 10, seed=3)
        assert [c.restart_index for c in a] == list(range(10))
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.adversarial_input, cb.adversarial_input)


class TestAttackConfig:
    def test_variant_field_checks(self):
        with pytest.raises(ContractError):
            ab.AttackConfig("a", "pgd", epsilon=0.3)  # missing step_size
        with pytest.raises(ContractError):
            ab.AttackConfig("a", "uniform_noise", epsilon=0.3)  # missing num_samples
        with pytest.raises(ContractError):
            ab.AttackConfig("a", "fgsm", epsilon=-0.1)
        with pytest.raises(ContractError):
            ab.AttackConfig("", "fgsm", epsilon=0.3)

    def test_restart_seeds_only_for_pgd(self):
        with pytest.raises(ContractError):
            ab.AttackConfig("a", "fgsm", epsilon=0.3, restart_seeds=(1,))
        with pytest.raises(ContractError):
            ab.AttackConfig("a", "pgd", epsilon=0.3, step_size=0.1, num_steps=5,
                            num_restarts=2, restart_seeds=(1,))

    def test_run_attack_dispatch(self):
        m = binary_linear([1.0, 0.5])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        one = run_attack(m, ex, ab.AttackConfig("f", "fgsm", epsilon=0.3), seed=0)
        assert len(one) == 1 and one[0].attack_id == "f"
        many = run_attack(m, ex, ab.AttackConfig("n", "uniform_noise", epsilon=0.3,
                                                 num_samples=7), seed=0)
        assert len(many) == 7
        custom = ab.AttackConfig("x", "my_custom_attack", epsilon=0.3)
        with pytest.raises(ContractError):
            run_attack(m, ex, custom, seed=0)
