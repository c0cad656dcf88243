import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import advbundle as ab
from advbundle.attacks import (attack_rows, check_rows, noise_rows, pgd_rows, rows_per_example,
                               run_attack)
from advbundle.errors import AttackFailedError, ContractError, ShapeError
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
        # without a random start no seed is read, but a wrong count is still refused
        for random_init in (True, False):
            cfg = _pgd_cfg(num_restarts=2, random_init=random_init)
            with pytest.raises(ContractError, match="need one seed per restart"):
                ab.pgd(m, ex, cfg, seed=[1])
            assert len(ab.pgd(m, ex, cfg, seed=[1, 2])) == 2


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


def test_negative_or_non_integer_seed_is_a_contract_error():
    ex = ab.Example(np.array([0.5, 0.5]), 0)
    with pytest.raises(ContractError):
        ab.uniform_noise(ex, 0.3, 5, seed=-1)
    with pytest.raises(ContractError):
        ab.uniform_noise(ex, 0.3, 5, seed=0.5)
    with pytest.raises(ContractError):
        ab.pgd(binary_linear([1.0, -1.0]), ex, _pgd_cfg(), seed=[-1])
    with pytest.raises(ContractError):
        noise_rows(np.full((2, 2), 0.5), 0.3, [4, -1], 3)


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
        # the per-example adapters check their fields through AttackConfig
        m, ex = binary_linear([1.0, 0.5]), ab.Example(np.array([0.5, 0.5]), 0)
        for call in (lambda: ab.fgsm(m, ex, -0.5), lambda: ab.fgsm(m, ex, float("nan")),
                     lambda: ab.uniform_noise(ex, -0.5, 2, 0),
                     lambda: ab.uniform_noise(ex, 0.3, 2.5, 0)):
            with pytest.raises(ContractError):
                call()

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
