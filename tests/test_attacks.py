import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import advbundle as ab
from advbundle.attacks import (MAX_NUM_STEPS, MAX_ROWS_PER_EXAMPLE, _box, _clamp, attack_rows,
                               check_rows, noise_rows, pgd_rows, rows_per_example, run_attack,
                               validate_candidate)
from advbundle.errors import AttackFailedError, ContractError
from advbundle.models import grad_rows, probs_rows
from advbundle.seeding import make_rng

from conftest import binary_linear, oracle_loss, random_linear, random_mlp


def corner_max_loss(params, clean, label, epsilon):
    """Brute-force maximum loss over all corners of the feasible box."""
    lo = np.maximum(clean - epsilon, 0.0)
    hi = np.minimum(clean + epsilon, 1.0)
    best = -np.inf
    for corner in itertools.product(*zip(lo, hi)):
        best = max(best, oracle_loss(params, np.array(corner), label))
    return best


class TestBox:
    """`_box` and `_clamp`: the one projection every candidate goes through,
    onto the eps-ball around the clean input intersected with [0, 1]."""

    @staticmethod
    def project(x, clean, eps):
        lo, hi = _box(clean, eps)
        return _clamp(np.array(x, dtype=np.float64), lo, hi)

    def test_feasible_point_unchanged(self):
        x = np.array([0.6, 0.45])
        assert np.array_equal(self.project(x, np.array([0.5, 0.5]), 0.3), x)

    def test_clamps_to_epsilon(self):
        assert self.project([0.95], np.array([0.5]), 0.3) == pytest.approx([0.8])

    def test_range_clip_dominates(self):
        assert self.project([-0.5], np.array([0.1]), 0.3) == pytest.approx([0.0])
        assert self.project([1.5], np.array([0.9]), 0.3) == pytest.approx([1.0])

    @given(hnp.arrays(np.float64, 4, elements=st.floats(-2, 3)),
           hnp.arrays(np.float64, 4, elements=st.floats(0, 1)),
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_feasible(self, x, clean, eps):
        once = self.project(x, clean, eps)
        assert np.array_equal(self.project(once, clean, eps), once)
        assert np.all(once >= 0.0) and np.all(once <= 1.0)
        assert np.max(np.abs(once - clean)) <= eps + 1e-9


class TestFgsm:
    def test_zero_gradient_returns_clean(self):
        m = ab.ModelParams("softmax_linear", np.zeros((2, 2)), np.zeros(2))
        ex = ab.Example(np.array([0.4, 0.6]), 0)
        cand = run_attack(m, ex, ab.AttackConfig("fgsm", "fgsm", 0.3), 0)[0]
        assert np.array_equal(cand.adversarial_input, ex.features)

    def test_optimal_for_linear_models(self):
        # signed one-step ascent reaches the best corner of the box exactly
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = int(rng.integers(1, 9))
            m = binary_linear(rng.normal(size=d), bias=float(rng.normal()))
            ex = ab.Example(rng.uniform(0, 1, d), int(rng.integers(0, 2)))
            cand = run_attack(m, ex, ab.AttackConfig("fgsm", "fgsm", 0.3), 0)[0]
            achieved = oracle_loss(m, cand.adversarial_input, ex.label)
            assert achieved >= corner_max_loss(m, ex.features, ex.label, 0.3) - 1e-6

    def test_candidates_always_feasible(self):
        rng = np.random.default_rng(3)
        m = binary_linear(rng.normal(size=3))
        for _ in range(1000):
            ex = ab.Example(rng.uniform(0, 1, 3), int(rng.integers(0, 2)))
            eps = float(rng.uniform(0.01, 0.5))
            cand = run_attack(m, ex, ab.AttackConfig("fgsm", "fgsm", eps), 0)[0]
            assert np.max(np.abs(cand.adversarial_input - ex.features)) <= eps + 1e-9
            assert cand.adversarial_input.min() >= 0.0
            assert cand.adversarial_input.max() <= 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_fails_with_example_index(self):
        m = binary_linear([1e308, 1e308])
        ex = ab.Example(np.array([1.0, 1.0]), 1)
        with pytest.raises(AttackFailedError) as info:
            run_attack(m, ex, ab.AttackConfig("fgsm", "fgsm", 0.3), 0, example_index=17)
        assert info.value.example_index == 17
        assert info.value.step == 0 and info.value.restart == 0
        # the row engine drops the failed row and counts the unit as failed
        ds = ab.Dataset([ex.features, [0.1, 0.1]], [ex.label, 1], num_classes=2)
        res = ab.bundle(m, ds, [ab.AttackConfig("fgsm", "fgsm", 0.3)],
                        ab.Criterion.misclassify(), ab.BudgetPolicy(early_stop=False))
        assert res.candidate_counts.tolist() == [[-1], [1]]


def _fgsm_block(architecture, d):
    """A model and a block of rows that has zero-gradient rows and rows on
    the edge of [0, 1]. The model is scaled up until some rows' softmax
    saturates, which zeroes their gradient exactly; half the rows take
    their predicted class as label and half another class."""
    rng = np.random.default_rng(d)
    if architecture == "softmax_linear":
        params = random_linear(rng, d, k=3, scale=40.0)
    else:
        params = random_mlp(rng, d, k=3, scale=10.0)
    X = np.vstack([rng.uniform(0, 1, (40, d)), np.zeros(d), np.ones(d),
                   rng.integers(0, 2, (6, d)).astype(float)])
    predicted = probs_rows(params, X).argmax(axis=1)
    y = np.where(np.arange(len(X)) % 2, predicted, (predicted + 1) % 3)
    return params, X, y


class TestFgsmIsOnePgdStep:
    """attack_rows runs fgsm as one PGD step: every row equals fgsm's own
    expression, one clipped signed-gradient step from the clean input."""

    @pytest.mark.parametrize("d", [2, 32])
    @pytest.mark.parametrize("architecture", ["softmax_linear", "mlp1"])
    def test_rows_are_one_clipped_signed_step(self, architecture, d):
        params, X, y = _fgsm_block(architecture, d)
        grad = grad_rows(params, X, y)
        assert (grad == 0).all(axis=1).any() and not (grad == 0).all()
        eps = 0.3
        want = np.clip(X + eps * np.sign(grad), np.maximum(X - eps, 0.0),
                       np.minimum(X + eps, 1.0))
        adv, failed_at = attack_rows(params, ab.AttackConfig("f", "fgsm", eps), X, y,
                                     list(range(len(X))))
        assert adv.tobytes() == want.tobytes()
        assert (failed_at == -1).all()

    def test_restart_fields_are_ignored(self):
        params, X, y = _fgsm_block("mlp1", 2)
        plain = ab.AttackConfig("f", "fgsm", 0.3)
        restarted = ab.AttackConfig("f", "fgsm", 0.3, num_restarts=3, random_init=True)
        seeds = list(range(len(X)))
        want, _ = attack_rows(params, plain, X, y, seeds)
        got, failed_at = attack_rows(params, restarted, X, y, seeds)
        assert got.shape == X.shape and failed_at.shape == (len(X),)
        assert got.tobytes() == want.tobytes()
        ds = ab.Dataset(X, y, num_classes=3)
        res = ab.bundle(params, ds, [restarted], ab.Criterion.misclassify(),
                        ab.BudgetPolicy(early_stop=False))
        assert (res.candidate_counts == 1).all()


def _pgd_cfg(**kw):
    base = dict(attack_id="p", variant="pgd", epsilon=0.3, step_size=0.1, num_steps=40)
    base.update(kw)
    return ab.AttackConfig(**base)


class TestPgd:
    def test_zero_steps_no_init_returns_clean(self):
        m = binary_linear([1.0, -1.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        cands = run_attack(m, ex, _pgd_cfg(num_steps=0, random_init=False), seed=0)
        assert len(cands) == 1
        assert np.array_equal(cands[0].adversarial_input, ex.features)

    def test_reaches_corner_optimum_on_linear_models(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = int(rng.integers(1, 9))
            m = binary_linear(rng.normal(size=d), bias=float(rng.normal()))
            ex = ab.Example(rng.uniform(0, 1, d), int(rng.integers(0, 2)))
            cands = run_attack(m, ex, _pgd_cfg(), seed=int(rng.integers(0, 2**32)))
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
                cand = run_attack(m, ex, _pgd_cfg(num_steps=steps, num_restarts=1),
                                  seed=seed)[0]
                losses.append(oracle_loss(m, cand.adversarial_input, ex.label))
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_restart_indices_and_determinism(self):
        m = binary_linear([1.0, 2.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        cfg = _pgd_cfg(num_restarts=4)
        a = run_attack(m, ex, cfg, seed=42)
        b = run_attack(m, ex, cfg, seed=42)
        assert [c.restart_index for c in a] == [0, 1, 2, 3]
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.adversarial_input, cb.adversarial_input)
        # different seeds draw different random inits (visible with 0 steps,
        # since full 40-step runs all land on the same corner of a linear model)
        init_cfg = _pgd_cfg(num_steps=0, num_restarts=4)
        inits_a = run_attack(m, ex, init_cfg, seed=42)
        inits_c = run_attack(m, ex, init_cfg, seed=43)
        assert any(not np.array_equal(x.adversarial_input, y.adversarial_input)
                   for x, y in zip(inits_a, inits_c))

    def test_explicit_per_restart_seeds_reproduce_each_restart(self):
        m = binary_linear([1.0, 2.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        full = run_attack(m, ex, _pgd_cfg(num_restarts=5), seed=99, example_index=3)
        for r in range(5):
            single = run_attack(m, ex, _pgd_cfg(num_restarts=1),
                                seed=[ab.derive_seed(99, r)], example_index=3)
            assert np.array_equal(single[0].adversarial_input, full[r].adversarial_input)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_names_step_and_restart(self):
        m = binary_linear([1e308, 1e308])
        ex = ab.Example(np.array([1.0, 1.0]), 1)
        with pytest.raises(AttackFailedError) as info:
            run_attack(m, ex, _pgd_cfg(random_init=False), seed=0, example_index=2)
        assert info.value.step == 0
        assert info.value.restart == 0
        assert info.value.example_index == 2

    def test_seed_list_length_checked(self):
        m = binary_linear([1.0, 2.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        with pytest.raises(ContractError):
            run_attack(m, ex, _pgd_cfg(num_restarts=3), seed=[1, 2])
        # without a random start no seed is read, but a wrong count is still refused
        for random_init in (True, False):
            cfg = _pgd_cfg(num_restarts=2, random_init=random_init)
            with pytest.raises(ContractError, match="need one seed per restart"):
                run_attack(m, ex, cfg, seed=[1])
            assert len(run_attack(m, ex, cfg, seed=[1, 2])) == 2

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.uint32])
    def test_a_1d_integer_array_seeds_each_restart_as_its_list_does(self, dtype):
        # a row of a block's pinned seeds, as a per-example runner passes it on
        m = binary_linear([1.0, 2.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        cfg = _pgd_cfg(num_restarts=3)
        seeds = [0, 2**31, 7] if dtype != np.uint64 else [0, 2**63, 2**64 - 1]
        got = run_attack(m, ex, cfg, seed=np.array(seeds, dtype=dtype))
        want = run_attack(m, ex, cfg, seed=seeds)
        assert [c.adversarial_input.tobytes() for c in got] == \
            [c.adversarial_input.tobytes() for c in want]

    @pytest.mark.parametrize("seed", [np.array([[1, 2]], dtype=np.uint64),
                                      np.array([1.0, 2.0]), np.array([True, False]),
                                      np.array(3, dtype=np.uint64)],
                             ids=["2-D", "float", "bool", "0-D"])
    def test_other_arrays_are_refused_as_seeds(self, seed):
        m = binary_linear([1.0, 2.0])
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        with pytest.raises(ContractError, match="seed must be an integer"):
            run_attack(m, ex, _pgd_cfg(num_restarts=2), seed=seed)


@pytest.fixture(scope="module")
def desk_mlp():
    dataset = ab.synth_dataset(500, 2, 3, seed=7)
    hp = ab.TrainParams(learning_rate=0.3, epochs=120, batch_size=32, seed=1, hidden=16)
    return ab.train(dataset, "mlp1", hp), dataset


def test_expensive_pgd_reaches_higher_mean_loss_than_cheap(desk_mlp):
    model, dataset = desk_mlp
    cheap = _pgd_cfg(attack_id="cheap", num_steps=40, step_size=0.1)
    expensive = _pgd_cfg(attack_id="expensive", num_steps=1000, step_size=0.04)
    # the candidates the per-example run_attack returns, computed as one batch
    X, y = dataset.features, dataset.labels
    losses = {}
    for name, cfg in (("cheap", cheap), ("expensive", expensive)):
        seeds = [ab.derive_seed(0, i, name) for i in range(len(dataset))]
        adv, failed_at = pgd_rows(model, X, y, seeds, cfg)
        assert np.all(failed_at < 0)
        losses[name] = [oracle_loss(model, x, label) for x, label in zip(adv, y)]
    assert len(losses["cheap"]) >= 500
    assert np.mean(losses["expensive"]) >= np.mean(losses["cheap"])


def _reference_pgd(params, clean, labels, seeds, config):
    """PGD written out as every step on every row, the result `pgd_rows` must equal."""
    r = config.num_restarts
    clean, labels = np.repeat(clean, r, axis=0), np.repeat(labels, r)
    row_seeds = [s for seed in seeds
                 for s in ([ab.derive_seed(seed, j) for j in range(r)]
                           if isinstance(seed, int) else seed)]
    if config.random_init:
        x = ab.attacks.noise_rows(clean, config.epsilon, row_seeds, 1)
    else:
        x = clean.copy()
    lo = np.maximum(clean - config.epsilon, 0.0)
    hi = np.minimum(clean + config.epsilon, 1.0)
    failed_at = np.full(len(x), -1)
    for step in range(config.num_steps):
        grad = ab.models.grad_rows(params, x, labels)
        stepped = np.clip(x + config.step_size * np.sign(grad), lo, hi)
        bad = ~np.isfinite(grad).all(axis=1)
        failed_at[bad & (failed_at < 0)] = step
        stepped[bad] = x[bad]
        x = stepped
    return x, failed_at


def _tripwire_mlp():
    """2-D mlp1 whose second hidden unit, scaled x1e306, wakes past x1 = 0.6
    and overflows every logit: a row fails at the step it crosses, or never."""
    big = 1e306
    return ab.ModelParams("mlp1", np.array([[1.0, big], [0.0, 0.0]]),
                          np.array([0.0, -0.6 * big]),
                          np.array([[1.0, -1.0], [big, big]]), np.zeros(2))


def _never_settling_linear():
    """Rows deep inside their box on a linear model, stepped too little to reach
    an edge: every coordinate moves the same way each step, so none repeats."""
    rng = np.random.default_rng(11)
    X = rng.uniform(0.3, 0.7, (24, 8))
    return binary_linear(rng.uniform(0.5, 2.0, 8) * rng.choice([-1, 1], 8)), X


# (model, config overrides, per-restart seed lists instead of one int per example)
PGD_CASES = {
    "steps-0": ("desk", dict(num_steps=0), False),
    "steps-1": ("desk", dict(num_steps=1), False),
    "steps-2": ("desk", dict(num_steps=2), False),
    "steps-40": ("desk", dict(num_steps=40), False),
    "steps-41": ("desk", dict(num_steps=41), False),
    "expensive-999": ("desk", dict(num_steps=999, step_size=0.04), False),
    "expensive-1000": ("desk", dict(num_steps=1000, step_size=0.04), False),
    "restart-seeds": ("desk", dict(num_steps=41, num_restarts=3), True),
    "no-random-init": ("desk", dict(num_steps=40, random_init=False), False),
    "failing-rows": ("tripwire", dict(num_steps=40, step_size=0.04, num_restarts=2), False),
    "failing-rows-odd": ("tripwire", dict(num_steps=39, step_size=0.04,
                                          random_init=False), False),
    "never-settles": ("linear", dict(num_steps=100, step_size=1e-4, random_init=False), False),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(PGD_CASES))
def test_pgd_rows_equals_full_step_loop(desk_mlp, case):
    model_name, overrides, seed_lists = PGD_CASES[case]
    cfg = _pgd_cfg(**overrides)
    rng = np.random.default_rng(3)
    if model_name == "desk":
        model, dataset = desk_mlp
        X, y = dataset.features[:48], dataset.labels[:48]
    elif model_name == "tripwire":
        model = _tripwire_mlp()
        X, y = rng.uniform(0, 1, (40, 2)), rng.integers(0, 2, 40)
    else:
        model, X = _never_settling_linear()
        y = rng.integers(0, 2, len(X))
    if seed_lists:
        seeds = [[ab.derive_seed(s, i) for s in (5, 6, 7)] for i in range(len(X))]
    else:
        seeds = [ab.derive_seed(0, i, "p") for i in range(len(X))]
    adv, failed_at = pgd_rows(model, X, y, seeds, cfg)
    want, want_failed_at = _reference_pgd(model, X, y, seeds, cfg)
    assert adv.tobytes() == want.tobytes()
    assert np.array_equal(failed_at, want_failed_at)
    if model_name == "tripwire":
        assert len(set(want_failed_at.tolist())) > 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_pgd_rows_leave_at_their_failing_step(monkeypatch):
    # a failed row stays put, so its one non-finite gradient is its last
    bad_rows = []

    def counting_grad_rows(params, X, labels):
        grad = ab.models.grad_rows(params, X, labels)
        bad_rows.append(int((~np.isfinite(grad).all(axis=1)).sum()))
        return grad

    monkeypatch.setattr(ab.attacks, "grad_rows", counting_grad_rows)
    rng = np.random.default_rng(3)
    X, y = rng.uniform(0, 1, (40, 2)), rng.integers(0, 2, 40)
    cfg = _pgd_cfg(num_steps=40, step_size=0.04, num_restarts=2)
    _, failed_at = pgd_rows(_tripwire_mlp(), X, y, [ab.derive_seed(0, i) for i in range(40)],
                            cfg)
    assert (failed_at > 0).any()  # rows that moved before they failed
    assert sum(bad_rows) == (failed_at >= 0).sum()


def test_settled_pgd_rows_stop_computing_gradients(desk_mlp, monkeypatch):
    computed = []

    def counting_grad_rows(params, X, labels):
        computed.append(len(X))
        return ab.models.grad_rows(params, X, labels)

    monkeypatch.setattr(ab.attacks, "grad_rows", counting_grad_rows)
    model, dataset = desk_mlp
    X, y = dataset.features, dataset.labels
    pgd_rows(model, X, y, list(range(len(X))), _pgd_cfg(num_steps=1000, step_size=0.04))
    assert sum(computed) < 0.05 * 1000 * len(X)
    # a row that never repeats is stepped every time
    computed.clear()
    model, X = _never_settling_linear()
    pgd_rows(model, X, np.zeros(len(X), dtype=int), list(range(len(X))),
             _pgd_cfg(num_steps=100, step_size=1e-4, random_init=False))
    assert sum(computed) == 100 * len(X)


def _noise(example, epsilon, num_samples, seed):
    """A uniform_noise attack's candidates for example, through run_attack; the
    attack reads no model, but run_attack checks the example against one."""
    config = ab.AttackConfig("uniform_noise", "uniform_noise", epsilon, num_samples=num_samples)
    return run_attack(binary_linear(np.zeros(len(example.features))), example, config, seed)


class TestUniformNoise:
    def test_degenerate_ball_stays_at_clean(self):
        ex = ab.Example(np.array([0.4, 0.6]), 0)
        cands = _noise(ex, 1e-12, 5, seed=0)
        for c in cands:
            assert np.max(np.abs(c.adversarial_input - ex.features)) <= 1e-12

    def test_all_samples_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ex = ab.Example(rng.uniform(0, 1, 4), 0)
            eps = float(rng.uniform(0.05, 0.6))
            for c in _noise(ex, eps, 50, seed=int(rng.integers(0, 2**32))):
                assert np.max(np.abs(c.adversarial_input - ex.features)) <= eps + 1e-9
                assert c.adversarial_input.min() >= 0.0
                assert c.adversarial_input.max() <= 1.0

    def test_sample_mean_is_centred_for_interior_points(self):
        # law of large numbers: no projection bias when the box is interior
        ex = ab.Example(np.full(3, 0.5), 0)
        cands = _noise(ex, 0.2, 10000, seed=8)
        deltas = np.stack([c.adversarial_input - ex.features for c in cands])
        assert np.max(np.abs(deltas.mean(axis=0))) <= 0.01

    def test_deterministic_and_indexed(self):
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        a = _noise(ex, 0.3, 10, seed=3)
        b = _noise(ex, 0.3, 10, seed=3)
        assert [c.restart_index for c in a] == list(range(10))
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.adversarial_input, cb.adversarial_input)


def _noise_loop(clean, epsilon, seeds, num_samples):
    """noise_rows as one make_rng Generator per row: what it must draw."""
    x = np.empty((len(clean), num_samples, clean.shape[1]))
    for u, s in enumerate(seeds):
        x[u] = make_rng(s).uniform(-epsilon, epsilon, size=x.shape[1:])
    x += clean[:, None, :]
    lo, hi = np.maximum(clean - epsilon, 0.0), np.minimum(clean + epsilon, 1.0)
    np.clip(x, lo[:, None, :], hi[:, None, :], out=x)
    return x.reshape(-1, clean.shape[1])


NOISE_SEEDS = st.one_of(st.sampled_from([0, 2**32, 2**63, 2**64 - 1, 2**128, 2**200]),
                        st.integers(0, 2**64 - 1))


@given(seeds=st.lists(NOISE_SEEDS, max_size=6), num_samples=st.integers(1, 4),
       d=st.integers(1, 5), data=st.data())
@settings(max_examples=100, deadline=None)
def test_noise_rows_equal_a_generator_per_row(seeds, num_samples, d, data):
    clean = data.draw(hnp.arrays(np.float64, (len(seeds), d), elements=st.floats(0, 1)))
    got = noise_rows(clean, 0.3, seeds, num_samples)
    assert got.tobytes() == _noise_loop(clean, 0.3, seeds, num_samples).tobytes()


@given(seeds=st.one_of(st.lists(NOISE_SEEDS, min_size=1, max_size=5),
                      st.lists(st.lists(NOISE_SEEDS, min_size=2, max_size=2),
                               min_size=1, max_size=5)))
@settings(max_examples=100, deadline=None)
def test_pgd_random_init_equals_a_generator_per_row(seeds):
    # zero steps: the candidates are the random inits themselves
    cfg = _pgd_cfg(num_steps=0, num_restarts=2)
    clean = np.linspace(0.0, 1.0, 3 * len(seeds)).reshape(len(seeds), 3)
    labels = np.zeros(len(seeds), dtype=int)
    adv, _ = pgd_rows(binary_linear([1.0, -1.0, 0.5]), clean, labels, seeds, cfg)
    row_seeds = [s for seed in seeds
                 for s in ([ab.derive_seed(seed, r) for r in range(2)]
                           if isinstance(seed, int) else seed)]
    want = _noise_loop(np.repeat(clean, 2, axis=0), cfg.epsilon, row_seeds, 1)
    assert adv.tobytes() == want.tobytes()


def test_box_clamp_equals_np_clip_on_faces_zeros_and_nan():
    # the sums the kernels clamp (clean plus a draw, a step or +0.0, clean -0.0
    # included), values on, just inside and just outside each face, and NaN
    # rows, in both the row form and noise_rows' (U, S, d) against (U, 1, d)
    rng = np.random.default_rng(9)
    eps = 0.3
    clean = np.array([[-0.0, 0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0]])
    lo, hi = _box(clean, eps)
    assert not np.signbit(lo).any() and not np.signbit(hi).any()
    offsets = np.vstack([np.zeros(8), np.full(8, eps), np.full(8, -eps),
                         0.1 * np.sign(rng.normal(size=(8, 8))),
                         rng.uniform(-eps, eps, (30, 8)), rng.uniform(-2.0, 2.0, (30, 8))])
    faces = np.vstack([lo, hi] + [np.nextafter(face, to) for face in (lo, hi)
                                  for to in (-np.inf, np.inf)])
    partly_nan = np.where(np.arange(8) % 2, np.nan, 0.5)
    x = np.vstack([clean + offsets, faces, np.full(8, np.nan), partly_nan,
                   np.array([np.inf, -np.inf] * 4)])
    want = np.clip(x, lo, hi)
    got = _clamp(x.copy(), lo, hi)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got[0]).tolist() == [False] * 8  # -0.0 + 0.0 is +0.0
    blocks = x.reshape(2, -1, 8)
    clean2 = np.vstack([clean, clean[:, ::-1]])
    lo2, hi2 = _box(clean2, eps)
    want = np.clip(blocks, lo2[:, None, :], hi2[:, None, :])
    assert _clamp(blocks.copy(), lo2[:, None, :], hi2[:, None, :]).tobytes() == want.tobytes()


def test_kernels_on_negative_zero_clean_equal_their_np_clip_references(desk_mlp):
    # noise, PGD's random start and PGD's steps from clean inputs holding -0.0
    model, _ = desk_mlp
    clean = np.array([[-0.0, 0.4], [0.3, -0.0], [-0.0, -0.0], [1.0, -0.0]])
    seeds = [3, 2**63, 2**64 - 1, 0]
    assert noise_rows(clean, 0.3, seeds, 5).tobytes() == \
        _noise_loop(clean, 0.3, seeds, 5).tobytes()
    labels = np.array([0, 1, 2, 0])
    for random_init in (True, False):
        cfg = _pgd_cfg(num_steps=7, num_restarts=2, random_init=random_init)
        adv, failed_at = pgd_rows(model, clean, labels, seeds, cfg)
        want, want_failed_at = _reference_pgd(model, clean, labels, seeds, cfg)
        assert adv.tobytes() == want.tobytes()
        assert np.array_equal(failed_at, want_failed_at)


def test_negative_or_non_integer_seed_is_a_contract_error():
    ex = ab.Example(np.array([0.5, 0.5]), 0)
    with pytest.raises(ContractError):
        _noise(ex, 0.3, 5, seed=-1)
    with pytest.raises(ContractError):
        _noise(ex, 0.3, 5, seed=0.5)
    with pytest.raises(ContractError):
        run_attack(binary_linear([1.0, -1.0]), ex, _pgd_cfg(), seed=[-1])
    with pytest.raises(ContractError):
        noise_rows(np.full((2, 2), 0.5), 0.3, [4, -1], 3)


@pytest.mark.parametrize("make", [list, tuple, lambda x: np.array(x, dtype=np.float32)],
                         ids=["list", "tuple", "float32"])
def test_validate_candidate_takes_an_array_like_input_as_score_does(make):
    m, ex = binary_linear([1.0, -1.0]), ab.Example(np.array([0.5, 0.5]), 0)
    cand = ab.Candidate(0, make([0.5625, 0.5]), "a")
    validate_candidate(cand, ex.features, 0.1)
    assert ab.score(m, ex, cand).perturbation_norm == 0.0625


# seeds of one to five 32-bit words
EDGE_SEEDS = [0, 77, 2**63, 2**64 - 1, 2**130]


def _pcg64_in_box(clean, epsilon, seed, shape):
    """Clean plus a PCG64 Generator's uniform draw in [-epsilon, epsilon),
    clipped to the feasible box: the independent oracle of a noise sample."""
    draw = np.random.Generator(np.random.PCG64(seed)).uniform(-epsilon, epsilon, size=shape)
    return np.clip(clean + draw, np.maximum(clean - epsilon, 0.0),
                   np.minimum(clean + epsilon, 1.0))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_uniform_noise_is_the_pcg64_draw_bit_for_bit(seed):
    ex = ab.Example(np.array([0.4, 0.6]), 0)
    got = np.stack([c.adversarial_input for c in _noise(ex, 0.1, 7, seed)])
    assert got.tobytes() == _pcg64_in_box(ex.features, 0.1, seed, (7, 2)).tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_pgd_random_start_is_the_pcg64_draw_bit_for_bit(seed):
    # zero steps: the candidate is the start, drawn from the restart's own
    # seed as given, or derived from an example seed with the restart index
    m, ex = binary_linear([1.0, -1.0]), ab.Example(np.array([0.4, 0.6]), 0)
    cfg = _pgd_cfg(num_steps=0, epsilon=0.1)
    start = run_attack(m, ex, cfg, seed=[seed])[0].adversarial_input
    assert start.tobytes() == _pcg64_in_box(ex.features, 0.1, seed, 2).tobytes()
    derived = run_attack(m, ex, cfg, seed=seed)[0].adversarial_input
    want = _pcg64_in_box(ex.features, 0.1, ab.derive_seed(seed, 0), 2)
    assert derived.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", ["fgsm", "pgd", "uniform_noise"])
@pytest.mark.parametrize("architecture", ["softmax_linear", "mlp1"])
def test_run_attack_yields_its_rows_of_a_batch(architecture, variant):
    # a row's candidates do not depend on what else rides in attack_rows' batch
    params, X, y = _fgsm_block(architecture, 3)
    config = {"fgsm": ab.AttackConfig("f", "fgsm", 0.3),
              "pgd": _pgd_cfg(num_steps=5, num_restarts=2),
              "uniform_noise": ab.AttackConfig("n", "uniform_noise", 0.3, num_samples=3)}[variant]
    seeds = [7 * u for u in range(len(X))]
    adv, failed_at = attack_rows(params, config, X, y, seeds)
    assert (failed_at == -1).all()
    rows = rows_per_example(config)
    for u in range(len(X)):
        cands = run_attack(params, ab.Example(X[u], int(y[u])), config, seeds[u], u)
        assert [(c.example_index, c.attack_id, c.restart_index) for c in cands] == \
            [(u, config.attack_id, r) for r in range(rows)]
        got = np.stack([c.adversarial_input for c in cands])
        assert got.tobytes() == adv[u * rows:(u + 1) * rows].tobytes()


@pytest.mark.parametrize("step, restart, where", [
    (None, None, ""), (2, None, ", step 2"), (None, 1, ", restart 1"),
    (2, 1, ", restart 1, step 2")])
def test_attack_failed_error_names_where_the_attack_failed(step, restart, where):
    err = AttackFailedError(3, "x", step=step, restart=restart)
    assert str(err) == f"attack 'x' failed on example 3{where}: non-finite gradient"
    assert (err.example_index, err.attack_id, err.step, err.restart) == (3, "x", step, restart)


class TestCheckRows:
    def test_finite_row_outside_the_range_raises_beside_a_nan_row(self):
        # the NaN shares the out-of-range entry's column: a NaN-propagating
        # block min would be NaN and hide the -0.1
        adv = np.array([[np.nan, 0.5], [-0.1, 0.2]])
        clean = np.array([[0.5, 0.5], [0.0, 0.2]])
        with pytest.raises(ContractError, match=r"leaves \[0, 1\]"):
            check_rows(adv, clean, 0.3, "a")
        with pytest.raises(ContractError, match=r"leaves \[0, 1\]"):
            check_rows(adv[::-1], clean[::-1], 0.3, "a")

    def test_non_finite_rows_are_left_to_the_caller(self):
        adv = np.array([[np.inf, 0.5], [np.nan, 2.0], [-np.inf, 0.4], [0.6, 0.4]])
        dist = check_rows(adv, np.full((4, 2), 0.5), 0.3, "a")
        assert np.isinf(dist[0]) and np.isnan(dist[1]) and np.isinf(dist[2])
        assert dist[3] == pytest.approx(0.1)

    def test_the_epsilon_ball_error_comes_first(self):
        adv = np.array([[-0.1, 0.5], [0.5, 0.9]])  # out of [0, 1]; out of the ball
        clean = np.array([[0.0, 0.5], [0.5, 0.5]])
        with pytest.raises(ContractError, match="epsilon ball"):
            check_rows(adv, clean, 0.3, "a")

    @pytest.mark.parametrize("shape", [(0, 3), (1, 0, 3), (2, 0, 20)])
    def test_empty_block_gives_empty_distances(self, shape):
        dist = check_rows(np.empty(shape), np.zeros(shape[:-2] + (1, shape[-1])), 0.3, "a")
        assert dist.shape == shape[:-1]

    def test_wide_rows(self):
        rng = np.random.default_rng(4)
        clean = rng.uniform(0, 1, (3, 784))
        adv = np.clip(clean + rng.uniform(-0.1, 0.1, clean.shape), 0.0, 1.0)
        dist = check_rows(adv, clean, 0.1, "a")
        assert np.array_equal(dist, np.max(np.abs(adv - clean), axis=-1))
        adv[1, 500] = 1.05
        clean[1, 500] = 1.0
        with pytest.raises(ContractError, match=r"leaves \[0, 1\]"):
            check_rows(adv, clean, 0.1, "a")

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=40),
                      elements=st.sampled_from([0.0, -0.0, 0.2, 0.5, 1.0, 1.2, -0.3,
                                                np.nan, np.inf])))
    @settings(max_examples=200, deadline=None)
    def test_distances_are_the_row_max_of_abs_diff(self, adv):
        clean = np.full(adv.shape[-1], 0.5)
        with np.errstate(invalid="ignore"):
            want = np.max(np.abs(adv - clean), axis=-1)
        try:
            dist = check_rows(adv, clean, 2.0, "a")
        except ContractError:
            finite = np.isfinite(want)
            assert np.any(finite & ((adv.min(axis=-1) < 0) | (adv.max(axis=-1) > 1)))
        else:
            assert np.array_equal(dist, want, equal_nan=True)


    @pytest.mark.parametrize("d", [1, 2, 16, 17, 32])
    def test_integer_view_distance_is_the_float_max_bit_for_bit(self, d):
        # grid form, as a bundle block passes it: (U, per, d) against (U, 1, d)
        rng = np.random.default_rng(d)
        clean = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], (6, 1, d))
        clean[0, 0, 0] = -0.0
        adv = np.clip(clean + rng.uniform(-0.2, 0.2, (6, 9, d)), 0.0, 1.0)
        adv[1, :3] = clean[1]                      # rows at distance zero
        adv[2, 0, -1], adv[2, 1, 0] = np.nan, np.inf
        adv[3, 2] = -np.inf
        adv[4, 4, :] = np.nan
        adv[5, 5, d // 2] = np.inf
        adv[5, 5, 0] = np.nan
        with np.errstate(invalid="ignore"):
            want = np.abs(adv - clean).max(axis=-1)
        dist = check_rows(adv, clean, 0.3, "a")
        finite = np.isfinite(want)
        assert not finite.all() and finite.sum() > 40
        assert dist[finite].tobytes() == want[finite].tobytes()
        assert not np.isfinite(dist[~finite]).any()
        assert np.array_equal(np.isnan(dist), np.isnan(want))
        assert not np.signbit(dist[finite]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.longdouble, np.int64])
    def test_distance_of_another_dtype_is_taken_in_float64(self, dtype):
        # a runner may return any real dtype; the bit-pattern max needs doubles
        adv = np.array([[1.0, 0.0], [0.0, 1.0]]).astype(dtype)
        clean = np.array([[0.9, 0.25], [0.0, 0.75]])
        dist = check_rows(adv, clean, 0.3, "a")
        assert dist.dtype == np.float64
        assert dist.tobytes() == check_rows(adv.astype(np.float64), clean, 0.3, "a").tobytes()


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
        # counts must be integers, not merely integral-looking or bool
        for bad in (dict(variant="pgd", step_size=0.1, num_steps=5, num_restarts=2.5),
                    dict(variant="pgd", step_size=0.1, num_steps=5.0),
                    dict(variant="pgd", step_size=0.1, num_steps=True),
                    dict(variant="uniform_noise", num_samples=2.5),
                    dict(variant="fgsm", num_samples=2.5)):
            with pytest.raises(ContractError, match="must be an integer"):
                ab.AttackConfig("a", epsilon=0.3, **bad)
        ab.AttackConfig("a", "pgd", epsilon=0.3, step_size=0.1, num_steps=np.int64(5),
                        num_restarts=np.int32(2))

    @pytest.mark.parametrize("epsilon", [0.0, np.inf, np.nan, 1e308,
                                         np.nextafter(np.finfo(np.float64).max / 2, np.inf)])
    def test_epsilon_needs_a_finite_draw_range(self, epsilon):
        # noise and PGD's random start draw from [-epsilon, epsilon]
        with pytest.raises(ContractError, match="^epsilon must be positive"):
            ab.AttackConfig("a", "uniform_noise", epsilon=epsilon, num_samples=1)

    def test_largest_epsilon_draws(self):
        eps = np.finfo(np.float64).max / 2
        cfg = ab.AttackConfig("a", "uniform_noise", epsilon=eps, num_samples=2)
        adv, failed_at = attack_rows(None, cfg, np.full((1, 2), 0.5), np.zeros(1), [3])
        assert ((adv >= 0) & (adv <= 1)).all() and (failed_at == -1).all()

    def test_runner_variant_rows_are_its_restarts(self):
        assert rows_per_example(ab.AttackConfig("x", "ext", 0.1, num_restarts=3)) == 3
        with pytest.raises(ContractError, match="num_restarts must be >= 1"):
            ab.AttackConfig("x", "ext", 0.1, num_restarts=0)
        with pytest.raises(ContractError, match="num_restarts must be >= 1"):
            ab.AttackConfig("x", "ext", 0.1, num_restarts=None)
        with pytest.raises(ContractError, match="num_restarts must be >= 1"):
            ab.AttackConfig("x", "pgd", 0.1, step_size=0.1, num_steps=1, num_restarts=None)
        # fgsm and uniform_noise make their rows without restarts
        assert rows_per_example(ab.AttackConfig("f", "fgsm", 0.1, num_restarts=0)) == 1
        assert rows_per_example(ab.AttackConfig("n", "uniform_noise", 0.1, num_restarts=0,
                                                num_samples=4)) == 4

    @pytest.mark.parametrize("fields, rows", [
        (dict(variant="pgd", step_size=0.1, num_steps=MAX_NUM_STEPS), 1),
        (dict(variant="pgd", step_size=0.1, num_steps=1, num_restarts=MAX_ROWS_PER_EXAMPLE),
         MAX_ROWS_PER_EXAMPLE),
        (dict(variant="uniform_noise", num_samples=MAX_ROWS_PER_EXAMPLE), MAX_ROWS_PER_EXAMPLE),
    ], ids=["num_steps", "num_restarts", "num_samples"])
    def test_count_bounds_are_inclusive(self, fields, rows):
        assert rows_per_example(ab.AttackConfig("a", epsilon=0.3, **fields)) == rows

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
        with pytest.raises(ContractError):
            run_attack(m, ex, ab.AttackConfig("n", "uniform_noise", epsilon=0.3,
                                              num_samples=2), seed=[1, 2])
