"""Acceptance suite: one test per release criterion, each printing a
pass line with the tolerance it enforced. Run with `pytest -s
tests/test_acceptance.py` to see the lines stream."""

import numpy as np
import pytest

import advbundle as ab
from advbundle.bundler import CLEAN_ID
from advbundle.cli import run_experiment

from conftest import binary_linear, oracle_loss, random_linear, random_mlp, stable_softmax


def report(num, text):
    print(f"[criterion {num:2d}] PASS  {text}")


@pytest.fixture(scope="module")
def desk_setup():
    dataset = ab.synth_dataset(500, 2, 3, seed=7)
    hp = ab.TrainParams(learning_rate=0.3, epochs=120, batch_size=32, seed=1, hidden=16)
    model = ab.train(dataset, "mlp1", hp)
    return model, dataset


def test_criterion_01_two_attack_diagonal_reproduced_exactly():
    mat, wat, bundled = ab.make_tables(ab.wat_gap_construction(2))
    assert [r.error_rate for r in mat.per_attack] == [0.5, 0.5]
    assert wat.wat_max == 0.5
    assert bundled.bundled_rate == 1.0
    report(1, "2x2 diagonal: per-attack 50%/50%, worst 50%, bundled 100% (exact)")


def test_criterion_02_worst_attack_gap_formula_to_machine_precision():
    ns = [1, 2, 10, 100, 1000]
    rows = ab.wat_underestimation_report(ns)
    for (n, wat, bundled, gap), expect_n in zip(rows, ns):
        assert n == expect_n
        assert wat == 1.0 / n
        assert bundled == 1.0
        assert gap == 1.0 - 1.0 / n
        # the closed form is what the diagonal construction's tables read
        _, wat_table, bundled_table = ab.make_tables(ab.wat_gap_construction(n))
        assert wat_table.wat_max == wat and bundled_table.bundled_rate == bundled
        assert bundled_table.bundled_rate - wat_table.wat_max == gap
    report(2, "gap = 1 - 1/n for n in {1,2,10,100,1000} (machine precision)")


def test_criterion_03_bundled_rate_dominates_on_randomized_runs():
    rng = np.random.default_rng(2024)
    runs = 0
    for trial in range(20):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        n = int(rng.integers(15, 40))
        dataset = ab.synth_dataset(n, d, k, seed=int(rng.integers(0, 10_000)))
        model = (random_linear(rng, d, k) if trial % 2 == 0
                 else random_mlp(rng, d, k, h=5))
        eps = float(rng.uniform(0.05, 0.4))
        attacks = [
            ab.AttackConfig("fgsm", "fgsm", epsilon=eps),
            ab.AttackConfig("pgd", "pgd", epsilon=eps, step_size=eps / 3,
                            num_steps=int(rng.integers(1, 20)),
                            num_restarts=int(rng.integers(1, 4))),
            ab.AttackConfig("noise", "uniform_noise", epsilon=eps,
                            num_samples=int(rng.integers(1, 15))),
        ]
        criterion = [ab.Criterion.misclassify(), ab.Criterion.min_norm(),
                     ab.Criterion.max_confidence(0.75)][trial % 3]
        res = ab.bundle(model, dataset, attacks, criterion,
                        ab.BudgetPolicy(early_stop=bool(trial % 2)),
                        seed=int(rng.integers(0, 2**32)))
        assert res.bundled_error_rate >= res.per_attack_error_rates.max() - 1e-12
        runs += 1
    assert runs == 20
    report(3, "bundled >= every per-attack rate on 20 randomized runs (exact)")


def test_criterion_04_linear_attacks_match_corner_enumeration():
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(50):
        d = int(rng.integers(1, 13))
        w = rng.normal(size=d)
        bias = float(rng.normal())
        model = binary_linear(w, bias)
        x = rng.uniform(0, 1, d)
        label = int(rng.integers(0, 2))
        example = ab.Example(x, label)

        # independent corner oracle, fully vectorized
        lo = np.maximum(x - 0.3, 0.0)
        hi = np.minimum(x + 0.3, 1.0)
        bits = (np.arange(2 ** d)[:, None] >> np.arange(d)[None, :]) & 1
        corners = np.where(bits == 1, hi[None, :], lo[None, :])
        logits = np.stack([np.zeros(2 ** d), corners @ w + bias], axis=1)
        label_probs = stable_softmax(logits)[:, label]
        best = float(np.max(-np.log(np.maximum(label_probs, 1e-12))))

        fgsm_loss = oracle_loss(model, ab.fgsm(model, example, 0.3).adversarial_input,
                                label)
        cfg = ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=40)
        pgd_loss = oracle_loss(
            model, ab.pgd(model, example, cfg, seed=int(rng.integers(0, 2**32)))[0]
            .adversarial_input, label)
        assert fgsm_loss >= best - 1e-6, f"fgsm {fgsm_loss} vs corners {best}"
        assert pgd_loss >= best - 1e-6, f"pgd {pgd_loss} vs corners {best}"
        checked += 1
    assert checked == 50
    report(4, "FGSM and PGD-40 within 1e-6 of 2^d corner enumeration on 50 models")


def test_criterion_05_gradients_match_finite_differences():
    rng = np.random.default_rng(505)
    for arch in ("softmax_linear", "mlp1"):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            k = int(rng.integers(2, 5))
            model = (random_linear(rng, d, k) if arch == "softmax_linear"
                     else random_mlp(rng, d, k, h=int(rng.integers(2, 8))))
            x = rng.uniform(0.05, 0.95, d)
            label = int(rng.integers(0, k))
            g = ab.input_gradient(model, x, label)
            fd = np.zeros(d)
            for j in range(d):
                xp, xm = x.copy(), x.copy()
                xp[j] += 1e-5
                xm[j] -= 1e-5
                fd[j] = (oracle_loss(model, xp, label) -
                         oracle_loss(model, xm, label)) / 2e-5
            rel = np.abs(g - fd) / np.maximum(np.abs(g), 1e-8)
            assert rel.max() <= 1e-4
    report(5, "analytic gradients within rel 1e-4 of central differences, "
              "100 cases per architecture")


def test_criterion_06_expensive_beats_cheap_and_bundle_dominates(desk_setup):
    model, dataset = desk_setup
    attacks = [
        ab.AttackConfig("pgd-cheap", "pgd", epsilon=0.3, step_size=0.1, num_steps=40),
        ab.AttackConfig("pgd-expensive", "pgd", epsilon=0.3, step_size=0.04,
                        num_steps=1000),
        ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=100),
        ab.AttackConfig("pgd-cheap-10r", "pgd", epsilon=0.3, step_size=0.1,
                        num_steps=40, num_restarts=10),
    ]
    res = ab.bundle(model, dataset, attacks, ab.Criterion.max_confidence(0.9),
                    ab.BudgetPolicy(early_stop=False), seed=0)
    cheap = res.rate_for("pgd-cheap")
    expensive = res.rate_for("pgd-expensive")
    assert len(dataset) >= 500
    assert expensive >= cheap - 0.02, f"expensive {expensive} vs cheap {cheap}"
    individual_max = max(res.rate_for(a.attack_id) for a in attacks)
    assert res.bundled_error_rate >= individual_max
    report(6, f"expensive PGD ({expensive:.1%}) >= cheap ({cheap:.1%}) - 2pp on "
              f"{len(dataset)} examples; bundled ({res.bundled_error_rate:.1%}) "
              "dominates (exact)")


def test_criterion_07_restart_splitting_equals_multirestart(desk_setup):
    model, dataset = desk_setup
    small = ab.Dataset(dataset.features[:60], dataset.labels[:60], dataset.num_classes)
    for n in (2, 5):
        seeds = tuple(ab.derive_seed(7000 + n, r) for r in range(n))
        full_cfg = ab.AttackConfig("pgd-multi", "pgd", epsilon=0.3, step_size=0.1,
                                   num_steps=40, num_restarts=n, restart_seeds=seeds)
        split_cfgs = [ab.AttackConfig(f"pgd-r{r}", "pgd", epsilon=0.3, step_size=0.1,
                                      num_steps=40, num_restarts=1,
                                      restart_seeds=(seeds[r],))
                      for r in range(n)]
        crit = ab.Criterion.misclassify()
        full = ab.bundle(model, small, [full_cfg], crit,
                         ab.BudgetPolicy(early_stop=False), seed=1,
                         keep_candidates=True)
        split = ab.bundle(model, small, split_cfgs, crit,
                          ab.BudgetPolicy(early_stop=False), seed=2,
                          keep_candidates=True)
        # candidate-for-candidate: every restart reappears bit-identically
        for i in range(len(small)):
            full_pool = [c for c, _ in full.all_candidates[i] if c.attack_id != CLEAN_ID]
            split_pool = [c for c, _ in split.all_candidates[i] if c.attack_id != CLEAN_ID]
            assert len(full_pool) == len(split_pool) == n
            for a, b in zip(full_pool, split_pool):
                assert np.array_equal(a.adversarial_input, b.adversarial_input)
        for (ca, sa), (cb, sb) in zip(full.chosen, split.chosen):
            assert np.array_equal(ca.adversarial_input, cb.adversarial_input)
            assert sa == sb
        assert full.bundled_error_rate == split.bundled_error_rate
    report(7, "n single-restart configs == one n-restart config for n in {2,5} (exact)")


def test_criterion_08_early_stopping_is_sound_and_cheaper():
    rng = np.random.default_rng(808)
    for trial in range(10):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        dataset = ab.synth_dataset(int(rng.integers(12, 30)), d, k,
                                   seed=int(rng.integers(0, 10_000)))
        model = (random_linear(rng, d, k) if trial % 2 == 0
                 else random_mlp(rng, d, k, h=4))
        eps = float(rng.uniform(0.1, 0.4))
        attacks = [
            ab.AttackConfig("fgsm", "fgsm", epsilon=eps),
            ab.AttackConfig("pgd", "pgd", epsilon=eps, step_size=eps / 4,
                            num_steps=int(rng.integers(1, 12))),
            ab.AttackConfig("noise", "uniform_noise", epsilon=eps,
                            num_samples=int(rng.integers(1, 8))),
        ]
        seed = int(rng.integers(0, 2**32))
        lazy = ab.bundle(model, dataset, attacks, ab.Criterion.misclassify(), seed=seed)
        full = ab.bundle(model, dataset, attacks, ab.Criterion.misclassify(),
                         ab.BudgetPolicy(early_stop=False), seed=seed)
        assert lazy.bundled_error_rate == full.bundled_error_rate
        fooled_early = (lazy.chosen_rows.misclassified &
                        (lazy.units_spent < len(attacks)))
        if fooled_early.any():
            assert lazy.units_spent.sum() < full.units_spent.sum()
    report(8, "early stopping preserves the bundled rate and spends strictly "
              "fewer units on 10 random configurations (exact)")


def test_criterion_09_curves_are_monotone_with_anchored_endpoints(desk_setup):
    model, dataset = desk_setup
    attacks = [
        ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=40),
        ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=40),
    ]
    clean_error = float(np.mean([
        ab.predict(model, x).predicted_class != y
        for x, y in zip(dataset.features, dataset.labels)]))
    for seed in (0, 1, 2):
        res = ab.bundle(model, dataset, attacks, ab.Criterion.max_confidence(0.9),
                        ab.BudgetPolicy(early_stop=False), seed=seed)
        curve = ab.success_fail_curve(res, np.linspace(0.5, 0.99, 50))
        succ = [p[1] for p in curve.points]
        fail = [p[2] for p in curve.points]
        assert all(b <= a for a, b in zip(succ, succ[1:]))
        assert all(b <= a for a, b in zip(fail, fail[1:]))

        min_norm = ab.bundle(model, dataset, attacks, ab.Criterion.min_norm(), seed=seed)
        norm = ab.norm_curve(min_norm, np.linspace(0.0, 0.3, 31))
        rates = [p[1] for p in norm.points]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[0] == clean_error
        assert rates[-1] == min_norm.bundled_error_rate
    report(9, "success-fail curves non-increasing; norm curves non-decreasing with "
              "endpoints at clean and bundled error (exact)")


def test_criterion_10_default_experiment_is_byte_deterministic(tmp_path):
    from dataclasses import replace
    from pathlib import Path

    default_cfg = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
    config = ab.load_experiment_config(default_cfg)
    paths_a = run_experiment(replace(config, output_dir=str(tmp_path / "a")))
    paths_b = run_experiment(replace(config, output_dir=str(tmp_path / "b")))
    csvs = [name for name in paths_a if name.endswith(".csv")]
    assert sorted(csvs) == ["chosen.csv", "norm_curve.csv", "rates.csv",
                            "sf_curve.csv", "wat_gap.csv"]
    for name in csvs:
        assert paths_a[name].read_bytes() == paths_b[name].read_bytes(), name
    rates = {}
    for line in paths_a["rates.csv"].read_text().splitlines()[1:]:
        kind, attack_id, rate = line.split(",")
        rates.setdefault(kind, {})[attack_id] = float(rate)
    assert all(rates["BUNDLED"]["bundled"] >= r - 1e-12 for r in rates["MAT"].values())
    report(10, "two default-experiment runs produce byte-identical CSV artifacts, "
               "bundled rate dominating every per-attack rate")
