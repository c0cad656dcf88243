import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advbundle as ab
from advbundle.attacks import Candidate
from advbundle.bundler import CLEAN_ID
from advbundle.errors import AttackFailedError, ContractError

from conftest import binary_linear, random_linear


def steep_boundary_model(gain=40.0):
    """Binary model predicting class 1 iff x0 > 0.5, with near-hard decisions."""
    return binary_linear([gain, 0.0], bias=-gain / 2)


def two_example_dataset():
    return ab.Dataset([ab.Example(np.array([0.35, 0.5]), 0),
                       ab.Example(np.array([0.65, 0.5]), 1)], num_classes=2)


def flip_runner(target_example):
    """Oracle attack: fools exactly `target_example` by crossing the boundary."""

    def runner(params, example, config, seed, example_index):
        if example_index == target_example:
            flipped = example.features.copy()
            flipped[0] = 1.0 - flipped[0]
            return [Candidate(example_index, flipped, config.attack_id, 0)]
        return [Candidate(example_index, example.features.copy(), config.attack_id, 0)]

    return runner


def scores_strategy():
    return st.builds(
        ab.CandidateScore,
        misclassified=st.booleans(),
        wrong_confidence=st.floats(min_value=0.0, max_value=1.0),
        perturbation_norm=st.floats(min_value=0.0, max_value=0.3),
    )


class TestScore:
    def test_clean_candidate_on_correct_model(self, linear_on_blobs, blobs_2c):
        ex = blobs_2c.examples[0]
        cand = Candidate(0, ex.features.copy(), CLEAN_ID, 0)
        s = ab.score(linear_on_blobs, ex, cand, example_index=0)
        assert not s.misclassified
        assert s.perturbation_norm == 0.0

    def test_reads_wrong_probability_directly(self):
        # model putting (0.3, 0.7) on the two classes; true label 0
        m = binary_linear([0.0, 0.0], bias=math.log(7 / 3))
        ex = ab.Example(np.array([0.5, 0.5]), 0)
        s = ab.score(m, ex, Candidate(0, ex.features.copy(), "a", 0), example_index=0)
        assert s.misclassified
        assert s.wrong_confidence == pytest.approx(0.7, abs=1e-12)

    def test_wrong_confidence_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            m = random_linear(rng, 3, k)
            ex = ab.Example(rng.uniform(0, 1, 3), int(rng.integers(0, k)))
            adv = np.clip(ex.features + rng.uniform(-0.2, 0.2, 3), 0, 1)
            s = ab.score(m, ex, Candidate(0, adv, "a", 0))
            probs = ab.predict(m, adv).probabilities
            direct = max(probs[c] for c in range(k) if c != ex.label)
            assert s.wrong_confidence == pytest.approx(direct, abs=0)

    def test_index_mismatch_is_contract_error(self, linear_on_blobs, blobs_2c):
        ex = blobs_2c.examples[0]
        cand = Candidate(3, ex.features.copy(), "a", 0)
        with pytest.raises(ContractError):
            ab.score(linear_on_blobs, ex, cand, example_index=0)


class TestPrefer:
    def mk(self, mis, wc, norm=0.1):
        return ab.CandidateScore(mis, wc, norm)

    @pytest.mark.parametrize("criterion", [
        ab.Criterion.misclassify(),
        ab.Criterion.max_confidence(0.8),
        ab.Criterion.min_norm(),
    ])
    def test_misclassified_beats_not(self, criterion):
        a, b = self.mk(True, 0.1), self.mk(False, 0.99)
        assert ab.prefer(a, b, criterion) == 0
        assert ab.prefer(b, a, criterion) == 1

    def test_higher_wrong_confidence_wins_when_both_misclassified(self):
        a, b = self.mk(True, 0.9), self.mk(True, 0.6)
        assert ab.prefer(a, b, ab.Criterion.misclassify()) == 0
        assert ab.prefer(b, a, ab.Criterion.misclassify()) == 1
        # max_confidence orders pairs identically; the threshold only schedules
        assert ab.prefer(a, b, ab.Criterion.max_confidence(0.95)) == 0

    def test_min_norm_prefers_smaller_perturbation(self):
        a = self.mk(True, 0.5, norm=0.05)
        b = self.mk(True, 0.9, norm=0.30)
        assert ab.prefer(a, b, ab.Criterion.min_norm()) == 0
        assert ab.prefer(b, a, ab.Criterion.min_norm()) == 1

    def test_non_misclassified_compare_by_wrong_confidence_under_min_norm(self):
        a = self.mk(False, 0.2, norm=0.0)
        b = self.mk(False, 0.4, norm=0.3)
        assert ab.prefer(a, b, ab.Criterion.min_norm()) == 1

    def test_exact_ties_keep_first(self):
        a, b = self.mk(True, 0.7, 0.1), self.mk(True, 0.7, 0.1)
        for crit in (ab.Criterion.misclassify(), ab.Criterion.min_norm(),
                     ab.Criterion.max_confidence(0.6)):
            assert ab.prefer(a, b, crit) == 0

    @given(scores_strategy(), scores_strategy())
    @settings(max_examples=300, deadline=None)
    def test_pairwise_consistency(self, a, b):
        for crit in (ab.Criterion.misclassify(), ab.Criterion.min_norm()):
            ab_pref = ab.prefer(a, b, crit)
            ba_pref = ab.prefer(b, a, crit)
            if ab_pref == 1:
                assert ba_pref == 0  # strict preference is antisymmetric
            # a tie in both orders only happens for order-equal scores
            if ab_pref == 0 and ba_pref == 0:
                key_a = (a.misclassified, a.wrong_confidence, a.perturbation_norm)
                key_b = (b.misclassified, b.wrong_confidence, b.perturbation_norm)
                if crit.variant == "min_norm" and a.misclassified:
                    assert key_a[0] == key_b[0] and key_a[2] == key_b[2]
                else:
                    assert key_a[:2] == key_b[:2]

    def test_threshold_validation(self):
        with pytest.raises(ContractError):
            ab.Criterion.max_confidence(0.3)
        with pytest.raises(ContractError):
            ab.Criterion.max_confidence(1.0)
        with pytest.raises(ContractError):
            ab.Criterion("misclassify", threshold=0.7)


class TestSchedule:
    def _cfgs(self, n):
        return tuple(ab.AttackConfig(f"a{i}", "fgsm", epsilon=0.3) for i in range(n))

    def test_goal_met_example_deactivates(self):
        state = ab.ScheduleState(self._cfgs(3), attacks_run=[1, 1], goal_met=[True, False])
        out = ab.schedule(ab.BudgetPolicy(), state)
        assert out == [(1, state.attacks[1])]

    def test_unmet_goal_stays_active(self):
        # wrong_confidence 0.6 with t=0.9 leaves the goal unmet
        crit = ab.Criterion.max_confidence(0.9)
        from advbundle.bundler import _goal_test
        goal = _goal_test(crit)
        assert not goal(ab.CandidateScore(True, 0.6, 0.1))
        assert goal(ab.CandidateScore(True, 0.95, 0.1))

    def test_budget_cap(self):
        state = ab.ScheduleState(self._cfgs(3), attacks_run=[2, 1], goal_met=[False, False])
        out = ab.schedule(ab.BudgetPolicy(max_attack_units_per_example=2), state)
        assert out == [(1, state.attacks[1])]

    def test_early_stop_disabled_ignores_goal(self):
        state = ab.ScheduleState(self._cfgs(2), attacks_run=[0, 0], goal_met=[True, True])
        out = ab.schedule(ab.BudgetPolicy(early_stop=False), state)
        assert len(out) == 2

    def test_done_when_all_attacks_run(self):
        state = ab.ScheduleState(self._cfgs(2), attacks_run=[2, 2], goal_met=[False, False])
        assert ab.schedule(ab.BudgetPolicy(), state) == []


class TestBundle:
    def oracle_attacks(self):
        return [ab.AttackConfig("attack-1", "oracle1", epsilon=0.5),
                ab.AttackConfig("attack-2", "oracle2", epsilon=0.5)]

    def oracle_runners(self):
        return {"oracle1": flip_runner(0), "oracle2": flip_runner(1)}

    def test_complementary_attacks_bundle_to_full_error(self):
        # attack 1 fools only example 1, attack 2 only example 2:
        # each alone scores 50%, together they reveal 100%
        m = steep_boundary_model()
        ds = two_example_dataset()
        res = ab.bundle(m, ds, self.oracle_attacks(), ab.Criterion.misclassify(),
                        ab.BudgetPolicy(early_stop=False), seed=0,
                        runners=self.oracle_runners())
        assert res.rate_for("attack-1") == 0.5
        assert res.rate_for("attack-2") == 0.5
        assert res.bundled_error_rate == 1.0

    def test_empty_attack_list_reports_clean_error(self, linear_on_blobs, blobs_2c):
        res = ab.bundle(linear_on_blobs, blobs_2c, [], ab.Criterion.misclassify(), seed=0)
        clean_err = np.mean([
            ab.predict(linear_on_blobs, ex.features).predicted_class != ex.label
            for ex in blobs_2c.examples])
        assert res.bundled_error_rate == pytest.approx(float(clean_err), abs=0)
        assert res.outcome_matrix.attack_ids == [CLEAN_ID]

    def test_matches_exhaustive_reselection_oracle(self, mlp_on_small_blobs, small_blobs):
        m, ds = mlp_on_small_blobs, small_blobs
        attacks = [
            ab.AttackConfig("pgd-cheap", "pgd", epsilon=0.3, step_size=0.1, num_steps=40),
            ab.AttackConfig("pgd-exp", "pgd", epsilon=0.3, step_size=0.04, num_steps=100),
            ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=30),
        ]
        crit = ab.Criterion.misclassify()
        res = ab.bundle(m, ds, attacks, crit, ab.BudgetPolicy(early_stop=False), seed=5)

        # independent pass: regenerate every candidate, re-select from scratch
        from advbundle.attacks import run_attack
        errors = 0
        for i, ex in enumerate(ds.examples):
            pool = [Candidate(i, ex.features.copy(), CLEAN_ID, 0)]
            for cfg in attacks:
                pool.extend(run_attack(m, ex, cfg, ab.derive_seed(5, i, cfg.attack_id), i))
            best = None
            for cand in pool:
                s = ab.score(m, ex, cand, example_index=i)
                if best is None or ab.prefer(best[1], s, crit) == 1:
                    best = (cand, s)
            errors += int(best[1].misclassified)
            assert np.array_equal(best[0].adversarial_input,
                                  res.chosen[i][0].adversarial_input)
        assert res.bundled_error_rate == errors / len(ds)

    def test_chosen_is_maximal_over_all_candidates(self, mlp_on_small_blobs, small_blobs):
        attacks = [
            ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=20,
                            num_restarts=2),
            ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=20),
        ]
        for crit in (ab.Criterion.misclassify(), ab.Criterion.min_norm(),
                     ab.Criterion.max_confidence(0.9)):
            res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, crit,
                            ab.BudgetPolicy(early_stop=False), seed=2,
                            keep_candidates=True)
            for i, (_, chosen_score) in enumerate(res.chosen):
                for _, other in res.all_candidates[i]:
                    assert ab.prefer(chosen_score, other, crit) == 0

    def test_failed_attack_is_logged_and_skipped(self):
        m = steep_boundary_model()
        ds = two_example_dataset()
        attacks = [ab.AttackConfig("flaky", "flaky", epsilon=0.5)]

        for failure in ("raises", "returns_nan"):
            def failing(params, example, config, seed, example_index):
                if example_index == 0 and failure == "raises":
                    raise AttackFailedError(example_index, config.attack_id)
                if example_index == 0:
                    return [Candidate(example_index, np.full(2, np.nan), config.attack_id, 0)]
                return flip_runner(1)(params, example, config, seed, example_index)

            res = ab.bundle(m, ds, attacks, ab.Criterion.misclassify(),
                            seed=0, runners={"flaky": failing})
            assert res.computation_log[0][0].failed, failure
            assert not res.computation_log[1][0].failed, failure
            assert res.rate_for("flaky") == 0.5, failure  # only example 1 flipped
            assert res.bundled_error_rate == 0.5, failure

    def test_unknown_variant_without_runner_raises(self):
        m = steep_boundary_model()
        ds = two_example_dataset()
        with pytest.raises(ContractError):
            ab.bundle(m, ds, [ab.AttackConfig("x", "mystery", epsilon=0.3)],
                      ab.Criterion.misclassify(), seed=0)

    def test_duplicate_or_reserved_ids_rejected(self, linear_on_blobs, blobs_2c):
        a = ab.AttackConfig("a", "fgsm", epsilon=0.3)
        with pytest.raises(ContractError):
            ab.bundle(linear_on_blobs, blobs_2c, [a, a], ab.Criterion.misclassify(), seed=0)
        bad = ab.AttackConfig(CLEAN_ID, "fgsm", epsilon=0.3)
        with pytest.raises(ContractError):
            ab.bundle(linear_on_blobs, blobs_2c, [bad], ab.Criterion.misclassify(), seed=0)

    def test_deterministic_across_runs(self, mlp_on_small_blobs, small_blobs):
        attacks = [
            ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=15,
                            num_restarts=3),
            ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=10),
        ]
        kw = dict(criterion=ab.Criterion.misclassify(), seed=31)
        a = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, **kw)
        b = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, **kw)
        assert np.array_equal(a.outcome_matrix.entries, b.outcome_matrix.entries)
        for (ca, sa), (cb, sb) in zip(a.chosen, b.chosen):
            assert np.array_equal(ca.adversarial_input, cb.adversarial_input)
            assert sa == sb
        assert [[r.attack_id for r in recs] for recs in a.computation_log] == \
               [[r.attack_id for r in recs] for recs in b.computation_log]


class TestScheduling:
    def test_misclassify_goal_stops_after_first_fooling_attack(self):
        m = steep_boundary_model()
        ds = two_example_dataset()
        attacks = [ab.AttackConfig("attack-1", "oracle1", epsilon=0.5),
                   ab.AttackConfig("attack-2", "oracle2", epsilon=0.5)]
        runners = {"oracle1": flip_runner(0), "oracle2": flip_runner(1)}
        res = ab.bundle(m, ds, attacks, ab.Criterion.misclassify(), seed=0,
                        runners=runners)
        # example 0 is fooled by the first attack: one unit, stopped early
        assert res.units_spent[0] == 1
        assert res.stopped_early[0]
        assert res.computation_log[0][-1].stopped_early
        # example 1 needed both
        assert res.units_spent[1] == 2
        assert not res.stopped_early[1]
        # early stopping never changes the bundled rate
        full = ab.bundle(m, ds, attacks, ab.Criterion.misclassify(),
                         ab.BudgetPolicy(early_stop=False), seed=0, runners=runners)
        assert full.bundled_error_rate == res.bundled_error_rate
        assert full.units_spent.sum() > res.units_spent.sum()

    def test_max_confidence_keeps_working_below_threshold(self):
        # first attack misclassifies at confidence ~0.6 < t=0.9, so the
        # scheduler must still hand the example to the second attack
        gain = 10.0
        m = binary_linear([gain, 0.0], bias=-gain / 2)
        ds = ab.Dataset([ab.Example(np.array([0.35, 0.5]), 0)], num_classes=2)

        def move_to(x0):
            def runner(params, example, config, seed, example_index):
                moved = example.features.copy()
                moved[0] = x0
                return [Candidate(example_index, moved, config.attack_id, 0)]
            return runner

        weak_x0 = 0.5 + np.log(0.6 / 0.4) / gain   # wrong-class confidence 0.6
        strong_x0 = 0.95                           # confidence well above 0.9
        attacks = [ab.AttackConfig("weak", "weak", epsilon=1.0),
                   ab.AttackConfig("strong", "strong", epsilon=1.0)]
        res = ab.bundle(m, ds, attacks, ab.Criterion.max_confidence(0.9), seed=0,
                        runners={"weak": move_to(weak_x0), "strong": move_to(strong_x0)})
        assert [r.attack_id for r in res.computation_log[0]] == ["weak", "strong"]
        assert res.units_spent[0] == 2
        # under the misclassify goal the weak hit would have ended the example
        res_mis = ab.bundle(m, ds, attacks, ab.Criterion.misclassify(), seed=0,
                            runners={"weak": move_to(weak_x0), "strong": move_to(strong_x0)})
        assert res_mis.units_spent[0] == 1
        assert res_mis.stopped_early[0]

    def test_min_norm_runs_everything(self, linear_on_blobs, blobs_2c):
        attacks = [ab.AttackConfig(f"f{i}", "fgsm", epsilon=0.1 * (i + 1))
                   for i in range(3)]
        res = ab.bundle(linear_on_blobs, blobs_2c, attacks, ab.Criterion.min_norm(), seed=0)
        assert np.all(res.units_spent == 3)
        assert not res.stopped_early.any()

    def test_budget_cap_limits_units(self, linear_on_blobs, blobs_2c):
        attacks = [ab.AttackConfig(f"f{i}", "fgsm", epsilon=0.1) for i in range(4)]
        res = ab.bundle(linear_on_blobs, blobs_2c, attacks, ab.Criterion.min_norm(),
                        ab.BudgetPolicy(max_attack_units_per_example=2), seed=0)
        assert np.all(res.units_spent == 2)

    def test_early_stopping_matches_exhaustive_on_random_configs(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            ds = ab.synth_dataset(int(rng.integers(10, 25)), d, k,
                                  seed=int(rng.integers(0, 1000)))
            m = random_linear(rng, d, k)
            attacks = [
                ab.AttackConfig("fgsm", "fgsm", epsilon=float(rng.uniform(0.05, 0.4))),
                ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1,
                                num_steps=int(rng.integers(1, 15))),
                ab.AttackConfig("noise", "uniform_noise", epsilon=0.2,
                                num_samples=int(rng.integers(1, 10))),
            ]
            seed = int(rng.integers(0, 2**32))
            lazy = ab.bundle(m, ds, attacks, ab.Criterion.misclassify(), seed=seed)
            full = ab.bundle(m, ds, attacks, ab.Criterion.misclassify(),
                             ab.BudgetPolicy(early_stop=False), seed=seed)
            assert lazy.bundled_error_rate == full.bundled_error_rate
            fooled_before_last = (lazy.chosen_misclassified() &
                                  (lazy.units_spent < len(attacks)))
            if fooled_before_last.any():
                assert lazy.units_spent.sum() < full.units_spent.sum()


class TestInvariants:
    def test_dominance_on_every_run(self, mlp_on_small_blobs, small_blobs):
        attacks = [
            ab.AttackConfig("fgsm", "fgsm", epsilon=0.3),
            ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=25),
            ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=20),
        ]
        for seed in range(5):
            res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks,
                            ab.Criterion.misclassify(),
                            ab.BudgetPolicy(early_stop=False), seed=seed)
            assert res.bundled_error_rate >= res.per_attack_error_rates.max() - 1e-12

    def test_adding_attacks_never_worsens_the_chosen_score(self, mlp_on_small_blobs,
                                                           small_blobs):
        crit = ab.Criterion.misclassify()
        small = [ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=20)]
        large = small + [
            ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=15),
            ab.AttackConfig("fgsm", "fgsm", epsilon=0.3),
        ]
        res_a = ab.bundle(mlp_on_small_blobs, small_blobs, small, crit,
                          ab.BudgetPolicy(early_stop=False), seed=9)
        res_b = ab.bundle(mlp_on_small_blobs, small_blobs, large, crit,
                          ab.BudgetPolicy(early_stop=False), seed=9)
        for (_, sa), (_, sb) in zip(res_a.chosen, res_b.chosen):
            assert ab.prefer(sb, sa, crit) == 0  # superset choice is never beaten

    def test_reselect_equals_a_fresh_bundle(self, mlp_on_small_blobs, small_blobs):
        attacks = [
            ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=20),
            ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=15),
        ]
        primary = ab.bundle(mlp_on_small_blobs, small_blobs, attacks,
                            ab.Criterion.max_confidence(0.9),
                            ab.BudgetPolicy(early_stop=False), seed=6,
                            keep_candidates=True)
        redone = ab.reselect(primary, ab.Criterion.min_norm())
        fresh = ab.bundle(mlp_on_small_blobs, small_blobs, attacks,
                          ab.Criterion.min_norm(), seed=6)
        assert redone.criterion == ab.Criterion.min_norm()
        for (ca, sa), (cb, sb) in zip(redone.chosen, fresh.chosen):
            assert np.array_equal(ca.adversarial_input, cb.adversarial_input)
            assert sa == sb
        assert redone.bundled_error_rate == fresh.bundled_error_rate

    def test_reselect_requires_exhaustive_pool(self, mlp_on_small_blobs, small_blobs):
        attacks = [ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1,
                                   num_steps=20)]
        lazy = ab.bundle(mlp_on_small_blobs, small_blobs, attacks,
                         ab.Criterion.misclassify(), seed=6)
        with pytest.raises(ContractError):
            ab.reselect(lazy, ab.Criterion.min_norm())
        kept = ab.bundle(mlp_on_small_blobs, small_blobs, attacks,
                         ab.Criterion.misclassify(),
                         ab.BudgetPolicy(max_attack_units_per_example=0),
                         keep_candidates=True, seed=6)
        with pytest.raises(ContractError):
            ab.reselect(kept, ab.Criterion.min_norm())

    def test_restart_splitting_is_exact_bundling(self, mlp_on_small_blobs, small_blobs):
        # one n-restart config and n single-restart configs pinned to the same
        # derived seeds must produce identical chosen candidates
        for n in (2, 5):
            seeds = tuple(ab.derive_seed(4242, r) for r in range(n))
            full_cfg = ab.AttackConfig("pgd-multi", "pgd", epsilon=0.3, step_size=0.1,
                                       num_steps=20, num_restarts=n, restart_seeds=seeds)
            split_cfgs = [
                ab.AttackConfig(f"pgd-r{r}", "pgd", epsilon=0.3, step_size=0.1,
                                num_steps=20, num_restarts=1, restart_seeds=(seeds[r],))
                for r in range(n)
            ]
            crit = ab.Criterion.misclassify()
            full = ab.bundle(mlp_on_small_blobs, small_blobs, [full_cfg], crit,
                             ab.BudgetPolicy(early_stop=False), seed=1)
            split = ab.bundle(mlp_on_small_blobs, small_blobs, split_cfgs, crit,
                              ab.BudgetPolicy(early_stop=False), seed=2)
            assert full.bundled_error_rate == split.bundled_error_rate
            for (ca, sa), (cb, sb) in zip(full.chosen, split.chosen):
                assert np.array_equal(ca.adversarial_input, cb.adversarial_input)
                assert sa == sb


class TestScoreStochastic:
    def test_zero_noise_equals_plain_score(self, mlp_on_small_blobs, small_blobs):
        ex = small_blobs.examples[0]
        cand = Candidate(0, np.clip(ex.features + 0.1, 0, 1), "a", 0)
        for calls in (1, 5):
            spec = ab.StochasticSpec(0.0, calls)
            assert ab.score_stochastic(mlp_on_small_blobs, spec, ex, cand, seed=0) == \
                ab.score(mlp_on_small_blobs, ex, cand)

    def test_single_call_matches_manual_noising(self, mlp_on_small_blobs, small_blobs):
        ex = small_blobs.examples[1]
        cand = Candidate(1, ex.features.copy(), "a", 0)
        spec = ab.StochasticSpec(0.08, 1)
        got = ab.score_stochastic(mlp_on_small_blobs, spec, ex, cand, seed=55,
                                  example_index=1)
        gen = np.random.Generator(np.random.PCG64(55))
        noised = np.clip(cand.adversarial_input + gen.uniform(-0.08, 0.08, 2), 0, 1)
        pred = ab.predict(mlp_on_small_blobs, noised)
        assert got.misclassified == (pred.predicted_class != ex.label)

    def test_wrong_confidence_close_to_independent_oracle(self, mlp_on_small_blobs,
                                                          small_blobs):
        ex = small_blobs.examples[2]
        cand = Candidate(2, np.clip(ex.features + 0.15, 0, 1), "a", 0)
        spec = ab.StochasticSpec(0.05, 2000)
        got = ab.score_stochastic(mlp_on_small_blobs, spec, ex, cand, seed=7)
        oracle_rng = np.random.default_rng(123456)
        total = np.zeros(small_blobs.num_classes)
        for _ in range(2000):
            noised = np.clip(cand.adversarial_input + oracle_rng.uniform(-0.05, 0.05, 2),
                             0, 1)
            total += ab.predict(mlp_on_small_blobs, noised).probabilities
        mean = total / 2000
        oracle_wc = max(mean[c] for c in range(small_blobs.num_classes) if c != ex.label)
        assert abs(got.wrong_confidence - oracle_wc / mean.sum()) <= 0.02


class TestSelectByEnsemble:
    def test_single_candidate_returned(self, linear_on_blobs, blobs_2c):
        ex = blobs_2c.examples[0]
        cand = Candidate(0, ex.features.copy(), "a", 0)
        ens = ab.Ensemble((linear_on_blobs,))
        assert ab.select_by_ensemble(ens, ex, [cand]) is cand

    def test_empty_list_rejected(self, linear_on_blobs, blobs_2c):
        ens = ab.Ensemble((linear_on_blobs,))
        with pytest.raises(ContractError):
            ab.select_by_ensemble(ens, blobs_2c.examples[0], [])

    def test_argmax_of_fooled_counts(self):
        # three members whose boundaries sit at x0 = 0.2 / 0.5 / 0.8
        members = tuple(binary_linear([50.0, 0.0], bias=-50.0 * b) for b in (0.2, 0.5, 0.8))
        ens = ab.Ensemble(members)
        ex = ab.Example(np.array([0.05, 0.5]), 0)  # class 0 for every member
        mk = lambda x0, j: Candidate(0, np.array([x0, 0.5]), "a", j)
        cands = [mk(0.95, 0), mk(0.1, 1), mk(0.6, 2)]  # fool counts 3, 0, 1
        assert ab.select_by_ensemble(ens, ex, cands) is cands[0]

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(15)
        members = tuple(random_linear(rng, 2, k=3) for _ in range(5))
        ens = ab.Ensemble(members)
        ex = ab.Example(rng.uniform(0, 1, 2), 1)
        cands = [Candidate(0, rng.uniform(0, 1, 2), "a", j) for j in range(20)]
        best_key, best = None, None
        for cand in cands:
            count = sum(ab.predict(m, cand.adversarial_input).predicted_class != ex.label
                        for m in members)
            wcs = []
            for m in members:
                probs = ab.predict(m, cand.adversarial_input).probabilities
                wcs.append(max(probs[c] for c in range(3) if c != ex.label))
            key = (count, float(np.mean(wcs)))
            if best_key is None or key > best_key:
                best_key, best = key, cand
        assert ab.select_by_ensemble(ens, ex, cands) is best


class TestWatGapConstruction:
    def test_two_by_two_matches_the_motivating_table(self):
        matrix = ab.wat_gap_construction(2)
        assert np.array_equal(matrix.entries, np.eye(2, dtype=np.int8))
        assert np.allclose(matrix.per_attack_error_rates(), [0.5, 0.5])
        assert matrix.bundled_error_rate() == 1.0

    def test_single_attack_has_no_gap(self):
        matrix = ab.wat_gap_construction(1)
        assert matrix.per_attack_error_rates()[0] == 1.0
        assert matrix.bundled_error_rate() == 1.0

    def test_large_n_gap_approaches_one(self):
        matrix = ab.wat_gap_construction(100)
        assert matrix.per_attack_error_rates().max() == pytest.approx(0.01, abs=0)
        assert matrix.bundled_error_rate() == 1.0

    def test_invalid_n(self):
        with pytest.raises(ContractError):
            ab.wat_gap_construction(0)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_bundled_rate_dominates_every_column(n_examples, n_attacks, seed):
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, 2, size=(n_examples, n_attacks))
    matrix = ab.OutcomeMatrix(entries, [f"a{j}" for j in range(n_attacks)])
    assert matrix.bundled_error_rate() >= matrix.per_attack_error_rates().max() - 1e-12
