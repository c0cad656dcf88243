import copy
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advbundle as ab
from advbundle import bundler
from advbundle.attacks import (Candidate, attack_rows, rows_per_example, run_attack,
                               validate_candidate)
from advbundle.bundler import CLEAN_ID
from advbundle.errors import AttackFailedError, ContractError, ShapeError
from advbundle.models import probs_rows

from conftest import binary_linear, random_linear


def steep_boundary_model(gain=40.0):
    """Binary model predicting class 1 iff x0 > 0.5, with near-hard decisions."""
    return binary_linear([gain, 0.0], bias=-gain / 2)


# 4,096 rows of small_blobs' d = 2 float64s: blocks small enough that its
# rounds span several, as the tests that cross blocks need
SMALL_BLOCK_BYTES = 4096 * 2 * 8


def small_blocks(monkeypatch, rows: int) -> None:
    """Blocks of `SMALL_BLOCK_BYTES`, which a round of `rows` 2-wide rows must overflow."""
    monkeypatch.setattr(bundler, "BLOCK_BYTES", SMALL_BLOCK_BYTES)
    assert rows * 2 * 8 > bundler.BLOCK_BYTES


def two_example_dataset():
    return ab.Dataset([[0.35, 0.5], [0.65, 0.5]], [0, 1], num_classes=2)


def flip_runner(x0):
    """Oracle row runner: fools exactly the examples whose first feature is x0
    by crossing the boundary; every other example gets its clean input."""

    def runner(params, config, clean, labels, seeds):
        adv, hit = clean.copy(), clean[:, 0] == x0
        adv[hit, 0] = 1.0 - adv[hit, 0]
        return adv, np.full(len(adv), -1)

    return runner


def per_example(params, config, clean, labels, seeds):
    """A row runner that calls run_attack one example at a time; an example
    whose attack fails keeps its clean rows, failed at step 0."""
    per = rows_per_example(config)
    adv, failed_at = np.repeat(clean, per, axis=0), np.full(len(clean) * per, -1)
    for u, (x, label, seed) in enumerate(zip(clean, labels.tolist(), seeds)):
        rows = slice(u * per, (u + 1) * per)
        try:
            cands = run_attack(params, ab.Example(x, label), config, seed, u)
        except AttackFailedError:
            failed_at[rows] = 0
            continue
        adv[rows] = [c.adversarial_input for c in cands]
    return adv, failed_at


def scores_strategy():
    return st.builds(
        ab.CandidateScore,
        misclassified=st.booleans(),
        wrong_confidence=st.floats(min_value=0.0, max_value=1.0),
        perturbation_norm=st.floats(min_value=0.0, max_value=0.3),
    )


class TestScore:
    def test_clean_candidate_on_correct_model(self, linear_on_blobs, blobs_2c):
        ex = blobs_2c[0]
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
        ex = blobs_2c[0]
        cand = Candidate(3, ex.features.copy(), "a", 0)
        with pytest.raises(ContractError):
            ab.score(linear_on_blobs, ex, cand, example_index=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_probabilities_show_no_error(self):
        # the class-1 logit overflows at x = (0.95, 0.95), so every probability is NaN
        m = binary_linear([1e308, 1e308])
        x = np.array([0.95, 0.95])
        for label in (0, 1):
            s = ab.score(m, ab.Example(x, label), Candidate(0, x.copy(), "a", 0))
            assert not s.misclassified, label
            assert s.wrong_confidence == -np.inf, label
        ds = ab.Dataset([x, x], [0, 1], num_classes=2)
        res = ab.bundle(m, ds, [], ab.Criterion.misclassify())
        assert res.bundled_error_rate == 0.0
        assert np.all(res.chosen_rows.wrong_confidence == -np.inf)


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


def reference_schedule(budget, attacks, attacks_run, goal_met):
    """The per-example scheduler the round loop replaced, written out: every
    example still active gets its next unrun attack, as (example, attack)."""
    cap = budget.max_attack_units_per_example
    out = []
    for i, done in enumerate(attacks_run):
        if done >= len(attacks):
            continue
        if cap is not None and done >= cap:
            continue
        if budget.early_stop and goal_met[i]:
            continue
        out.append((i, attacks[done]))
    return out


class TestSchedule:
    def test_goal_met_example_deactivates(self):
        out = ab.schedule(ab.BudgetPolicy(), 3, 1, np.array([True, False]), np.ones(2, int))
        assert out.tolist() == [1]
        # no example left active: the bundle is done, attacks or not
        assert len(ab.schedule(ab.BudgetPolicy(), 3, 1, np.array([True, True]),
                               np.ones(2, int))) == 0

    def test_unmet_goal_stays_active(self):
        # wrong_confidence 0.6 with t=0.9 leaves the goal unmet
        crit = ab.Criterion.max_confidence(0.9)
        from advbundle.bundler import _goal_test
        goal = _goal_test(crit)
        assert not goal(ab.CandidateScore(True, 0.6, 0.1))
        assert goal(ab.CandidateScore(True, 0.95, 0.1))

    def test_budget_cap(self):
        budget = ab.BudgetPolicy(max_attack_units_per_example=2)
        goal_met = np.array([False, False])
        assert ab.schedule(budget, 3, 1, goal_met, np.ones(2, int)).tolist() == [0, 1]
        # the third attack is left unrun once every example has spent 2 units
        assert len(ab.schedule(budget, 3, 2, goal_met, np.full(2, 2))) == 0
        assert len(ab.schedule(ab.BudgetPolicy(0), 3, 0, goal_met, np.zeros(2, int))) == 0

    def test_budget_cap_must_be_a_non_negative_integer(self):
        for cap in (-1, 0.5, 2.0, True):
            with pytest.raises(ContractError, match="max_attack_units_per_example"):
                ab.BudgetPolicy(cap)
        assert ab.BudgetPolicy(np.int64(2)).max_attack_units_per_example == 2

    def test_early_stop_disabled_ignores_goal(self):
        out = ab.schedule(ab.BudgetPolicy(early_stop=False), 2, 0, np.array([True, True]),
                          np.zeros(2, int))
        assert out.tolist() == [0, 1]
        # only the examples that have run exactly `done` attacks; one ahead waits
        out = ab.schedule(ab.BudgetPolicy(early_stop=False), 3, 1, np.array([True, True]),
                          np.array([1, 3]))
        assert out.tolist() == [0]

    def test_done_when_all_attacks_run(self):
        assert len(ab.schedule(ab.BudgetPolicy(), 2, 2, np.array([False, False]),
                               np.full(2, 2))) == 0

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_rounds_match_the_per_example_scheduler(self, data):
        n = data.draw(st.integers(1, 6), label="examples")
        attacks = [f"a{j}" for j in range(data.draw(st.integers(0, 4), label="attacks"))]
        budget = ab.BudgetPolicy(data.draw(st.none() | st.integers(0, 5), label="cap"),
                                 data.draw(st.booleans(), label="early_stop"))
        flags = st.lists(st.booleans(), min_size=n, max_size=n)
        start = data.draw(flags, label="clean goals")
        # goals only turn on: each round may meet the goal of any example
        flips = [data.draw(flags, label=f"met after round {r}") for r in range(len(attacks))]

        expected, attacks_run, goal = [], [0] * n, list(start)
        while assignments := reference_schedule(budget, attacks, attacks_run, goal):
            expected.append(assignments)
            for i, _ in assignments:
                attacks_run[i] += 1
            goal = [g or f for g, f in zip(goal, flips[len(expected) - 1])]

        rounds, goal_met, units = [], np.array(start), np.zeros(n, int)
        while len(active := ab.schedule(budget, len(attacks), len(rounds), goal_met, units)):
            rounds.append([(i, attacks[len(rounds)]) for i in active.tolist()])
            units[active] += 1
            goal_met |= flips[len(rounds) - 1]
        assert rounds == expected


class TestBundle:
    def oracle_attacks(self):
        return [ab.AttackConfig("attack-1", "oracle1", epsilon=0.5),
                ab.AttackConfig("attack-2", "oracle2", epsilon=0.5)]

    def oracle_runners(self):
        return {"oracle1": flip_runner(0.35), "oracle2": flip_runner(0.65)}

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
            ab.predict(linear_on_blobs, x).predicted_class != y
            for x, y in zip(blobs_2c.features, blobs_2c.labels)])
        assert res.bundled_error_rate == pytest.approx(float(clean_err), abs=0)
        assert res.outcome_matrix.attack_ids == [CLEAN_ID]

    def test_zero_features_are_refused_before_any_attack(self):
        # the distance check cannot reduce a row of no features; a dataset or
        # model without them is refused where it is built
        with pytest.raises(ContractError, match="d = 0"):
            ab.Dataset(np.zeros((3, 0)), [0, 1, 0], num_classes=2)
        with pytest.raises(ContractError, match="d = 0"):
            ab.ModelParams("softmax_linear", np.zeros((0, 2)), np.zeros(2))

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
        for i in range(len(ds)):
            ex = ds[i]
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

    @pytest.mark.parametrize("crit", [ab.Criterion.misclassify(), ab.Criterion.min_norm(),
                                      ab.Criterion.max_confidence(0.9)])
    def test_round_over_several_blocks_equals_a_prefer_fold(self, monkeypatch, crit,
                                                           mlp_on_small_blobs, small_blobs):
        samples = 60
        small_blocks(monkeypatch, len(small_blobs) * samples)
        attacks = [
            ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=10,
                            num_restarts=2),
            ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=samples),
        ]
        res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, crit,
                        ab.BudgetPolicy(early_stop=False), seed=4, keep_candidates=True)
        pool = res.pool
        scores = [ab.CandidateScore(*row) for row in zip(
            pool.misclassified.tolist(), pool.wrong_confidence.tolist(),
            pool.perturbation_norm.tolist())]
        best = {}  # example -> its preferred row so far, over the pool in generation order
        for r, i in enumerate(pool.example_index.tolist()):
            if i not in best or ab.prefer(scores[best[i]], scores[r], crit) == 1:
                best[i] = r
        expected = pool.take([best[i] for i in range(len(small_blobs))])
        for got, want in zip(res.chosen_rows, expected):
            assert got.tobytes() == want.tobytes()

    def test_failed_attack_is_logged_and_skipped(self):
        m = steep_boundary_model()
        ds = two_example_dataset()
        attacks = [ab.AttackConfig("flaky", "flaky", epsilon=0.5)]

        for failure in ("failed_at", "returns_nan"):
            def failing(params, config, clean, labels, seeds):
                adv, failed_at = flip_runner(0.65)(params, config, clean, labels, seeds)
                first = clean[:, 0] == 0.35  # example 0
                if failure == "failed_at":
                    failed_at[first] = 0
                else:
                    adv[first] = np.nan
                return adv, failed_at

            res = ab.bundle(m, ds, attacks, ab.Criterion.misclassify(),
                            seed=0, runners={"flaky": failing})
            assert res.computation_log[0][0].failed, failure
            assert not res.computation_log[1][0].failed, failure
            assert res.candidate_counts.tolist() == [[-1], [1]], failure
            assert res.rate_for("flaky") == 0.5, failure  # only example 1 flipped
            assert res.bundled_error_rate == 0.5, failure

    @pytest.mark.parametrize("bad,error", [
        (lambda adv: adv[:, :1], ShapeError),
        (lambda adv: adv + [0.0, 0.2], ContractError),
    ], ids=["shape", "outside-ball"])
    def test_runner_candidate_checks(self, bad, error):
        def runner(params, config, clean, labels, seeds):
            return bad(np.repeat(clean, 2, axis=0)), np.full(2 * len(clean), -1)

        with pytest.raises(error):
            ab.bundle(steep_boundary_model(), two_example_dataset(),
                      [ab.AttackConfig("bad", "bad", epsilon=0.1, num_restarts=2)],
                      ab.Criterion.misclassify(), runners={"bad": runner})

    @pytest.mark.parametrize("wrong", ["adv", "failed_at"])
    def test_runner_shape_is_checked_before_any_scoring(self, monkeypatch, wrong):
        def runner(params, config, clean, labels, seeds):
            adv, failed_at = clean.copy(), np.full(len(clean), -1)
            if wrong == "adv":
                return adv[:, None, :], failed_at
            return adv, failed_at[:1]

        def refused(*args):
            raise AssertionError("a block was checked")

        scored = []

        def clean_pass_only(params, X):
            if scored:
                raise AssertionError("a block was scored")
            scored.append(len(X))
            return probs_rows(params, X)

        monkeypatch.setattr(bundler, "check_rows", refused)
        monkeypatch.setattr(bundler, "probs_rows", clean_pass_only)
        with pytest.raises(ShapeError, match="attack 'odd' gave adv"):
            ab.bundle(steep_boundary_model(), two_example_dataset(),
                      [ab.AttackConfig("odd", "odd", epsilon=0.1)],
                      ab.Criterion.misclassify(), runners={"odd": runner})
        assert scored == [2]  # the clean inputs of both examples

    def test_runner_nan_candidate_fails_its_unit(self):
        def nan_runner(params, config, clean, labels, seeds):
            adv = np.repeat(clean, 2, axis=0)  # restart 0 clean, restart 1 NaN
            adv[1::2] = np.nan
            return adv, np.full(len(adv), -1)

        res = ab.bundle(steep_boundary_model(), two_example_dataset(),
                        [ab.AttackConfig("nan", "nan", epsilon=0.1, num_restarts=2)],
                        ab.Criterion.misclassify(), runners={"nan": nan_runner},
                        keep_candidates=True)
        assert [[(r.restarts_run, r.failed) for r in recs]
                for recs in res.computation_log] == [[(0, True)], [(0, True)]]
        assert [len(pool) for pool in res.all_candidates] == [1, 1]

    def test_runner_runs_once_per_block(self, monkeypatch, mlp_on_small_blobs, small_blobs):
        # 80 examples of 60 rows: 68 fit in a block of 4096 rows, so two blocks
        restarts = 60
        small_blocks(monkeypatch, len(small_blobs) * restarts)
        calls = []

        def batched_pgd(params, config, clean, labels, seeds):
            calls.append(len(clean))
            return attack_rows(params, replace(config, variant="pgd"), clean, labels, seeds)

        def looped_pgd(params, config, clean, labels, seeds):
            return per_example(params, replace(config, variant="pgd"), clean, labels, seeds)

        attacks = [ab.AttackConfig("ext", "ext", epsilon=0.3, step_size=0.1, num_steps=3,
                                   num_restarts=restarts)]
        args = (mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify())
        batched = ab.bundle(*args, seed=6, runners={"ext": batched_pgd})
        looped = ab.bundle(*args, seed=6, runners={"ext": looped_pgd})
        assert calls == [68, 12]
        assert np.all(batched.candidate_counts == restarts)
        for got, want in zip(batched.chosen_rows, looped.chosen_rows):
            assert got.tobytes() == want.tobytes()

    def test_a_runner_receives_its_block_seeds_as_a_uint64_array(self, mlp_on_small_blobs,
                                                                 small_blobs):
        # (U,) of derive_seed(seed, i, attack_id), or (U, r) of derive_seed(s, i)
        # for each pinned restart seed s
        got = {}

        def recording(params, config, clean, labels, seeds):
            got[config.attack_id] = seeds
            return attack_rows(params, replace(config, variant="pgd"), clean, labels, seeds)

        pinned = (5, 2**64 - 1)
        attacks = [ab.AttackConfig("free", "ext", epsilon=0.3, step_size=0.1, num_steps=2,
                                   num_restarts=2),
                   ab.AttackConfig("pinned", "pgd", epsilon=0.3, step_size=0.1, num_steps=2,
                                   num_restarts=2, restart_seeds=pinned)]
        ab.bundle(mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify(),
                  ab.BudgetPolicy(early_stop=False), seed=9,
                  runners={"ext": recording, "pgd": recording})
        n = len(small_blobs)
        assert {k: (v.dtype, v.shape) for k, v in got.items()} == {
            "free": (np.uint64, (n,)), "pinned": (np.uint64, (n, 2))}
        assert got["free"].tolist() == [ab.derive_seed(9, i, "free") for i in range(n)]
        assert got["pinned"].tolist() == [[ab.derive_seed(s, i) for s in pinned]
                                          for i in range(n)]

    def test_variant_without_runner_fails_before_any_attack(self):
        calls = []

        def recording(params, config, clean, labels, seeds):
            calls.append(seeds)
            return flip_runner(0.35)(params, config, clean, labels, seeds)

        attacks = self.oracle_attacks()
        with pytest.raises(ContractError, match="oracle2"):
            ab.bundle(steep_boundary_model(), two_example_dataset(), attacks,
                      ab.Criterion.misclassify(), runners={"oracle1": recording})
        assert calls == []

    def test_variant_without_runner_fails_before_any_model_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bundler, "probs_rows", lambda *args: calls.append(args))
        with pytest.raises(ContractError, match="no runner for variant 'oracle2'"):
            ab.bundle(steep_boundary_model(), two_example_dataset(), self.oracle_attacks(),
                      ab.Criterion.misclassify(), runners={"oracle1": flip_runner(0.35)})
        assert calls == []

    def test_pool_lengths_build_no_candidates(self, monkeypatch, mlp_on_small_blobs,
                                              small_blobs):
        attacks = [ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=5,
                                   num_restarts=2),
                   ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=7)]
        res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify(),
                        ab.BudgetPolicy(early_stop=False), keep_candidates=True)

        def no_objects(*args):
            raise AssertionError("taking a pool's length built a candidate")

        monkeypatch.setattr(bundler, "Candidate", no_objects)
        assert [len(pool) for pool in res.all_candidates] == [1 + 2 + 7] * len(small_blobs)

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

    @pytest.mark.parametrize("dataset", [ab.synth_dataset(9, 3, 2, seed=1),
                                         ab.synth_dataset(9, 2, 3, seed=1)],
                             ids=["dimension", "classes"])
    def test_data_that_does_not_fit_the_model_is_shape_error(self, dataset):
        with pytest.raises(ShapeError):
            ab.bundle(steep_boundary_model(), dataset, [], ab.Criterion.misclassify())

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


PER_EXAMPLE = {v: per_example for v in ("pgd", "fgsm", "uniform_noise")}


def _bits(candidate, candidate_score):
    """Everything a scored candidate holds, as bytes: equal bytes are equal
    bits, and a NaN equals a NaN."""
    floats = np.array([candidate_score.wrong_confidence, candidate_score.perturbation_norm])
    return (candidate.example_index, candidate.attack_id, candidate.restart_index,
            candidate.adversarial_input.tobytes(), candidate_score.misclassified,
            floats.tobytes())


def _overflow_setup():
    """A linear model whose class-1 logit 1e308 * (x0 + x1) overflows where
    x0 + x1 > ~1.8, so the probabilities are NaN and the gradient non-finite
    on those rows only."""
    rng = np.random.default_rng(4)
    ds = ab.Dataset(rng.uniform(0.5, 1.0, (30, 2)), np.arange(30) % 2, num_classes=2)
    return binary_linear([1e308, 1e308]), ds


class TestRowEngine:
    """bundle() through the row engine equals the per-example path bit for bit."""

    def check(self, monkeypatch, params, ds, attacks, criterion, budget, seed=3):
        per_example = ab.bundle(params, ds, attacks, criterion, budget, seed=seed,
                                runners=PER_EXAMPLE, keep_candidates=True)

        def not_called(*args):
            raise AssertionError("built-in attacks must run on the row engine")

        monkeypatch.setattr(bundler, "run_attack", not_called)
        engine = ab.bundle(params, ds, attacks, criterion, budget, seed=seed,
                           keep_candidates=True)
        assert np.array_equal(engine.candidate_counts, per_example.candidate_counts)
        assert engine.computation_log == per_example.computation_log
        assert [_bits(*c) for c in engine.chosen] == [_bits(*c) for c in per_example.chosen]
        assert [[_bits(*c) for c in pool] for pool in engine.all_candidates] == \
               [[_bits(*c) for c in pool] for pool in per_example.all_candidates]
        assert np.array_equal(engine.outcome_matrix.entries, per_example.outcome_matrix.entries)
        assert np.array_equal(engine.units_spent, per_example.units_spent)
        assert np.array_equal(engine.stopped_early, per_example.stopped_early)
        return engine

    def three_attacks(self, restarts=2):
        return [ab.AttackConfig("fgsm", "fgsm", epsilon=0.2),
                ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=12,
                                num_restarts=restarts),
                ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=15)]

    def test_mlp1(self, monkeypatch, mlp_on_small_blobs, small_blobs):
        self.check(monkeypatch, mlp_on_small_blobs, small_blobs, self.three_attacks(),
                   ab.Criterion.misclassify(), ab.BudgetPolicy(early_stop=False))

    def test_softmax_linear(self, monkeypatch, linear_on_blobs, blobs_2c):
        self.check(monkeypatch, linear_on_blobs, blobs_2c, self.three_attacks(),
                   ab.Criterion.min_norm(), ab.BudgetPolicy(early_stop=False))

    def test_restarts_and_restart_seeds(self, monkeypatch, mlp_on_small_blobs, small_blobs):
        attacks = [ab.AttackConfig("pgd-seeded", "pgd", epsilon=0.3, step_size=0.1,
                                   num_steps=10, num_restarts=3, restart_seeds=(5, 6, 7)),
                   ab.AttackConfig("pgd-no-init", "pgd", epsilon=0.3, step_size=0.05,
                                   num_steps=10, num_restarts=2, random_init=False),
                   ab.AttackConfig("pgd-4", "pgd", epsilon=0.2, step_size=0.05,
                                   num_steps=10, num_restarts=4)]
        self.check(monkeypatch, mlp_on_small_blobs, small_blobs, attacks,
                   ab.Criterion.max_confidence(0.9), ab.BudgetPolicy(early_stop=False))

    def test_early_stop_shrinks_the_active_set(self, monkeypatch, mlp_on_small_blobs,
                                               small_blobs):
        res = self.check(monkeypatch, mlp_on_small_blobs, small_blobs, self.three_attacks(),
                         ab.Criterion.max_confidence(0.6), ab.BudgetPolicy())
        assert res.stopped_early.any() and not res.stopped_early.all()

    def test_unit_cap(self, monkeypatch, mlp_on_small_blobs, small_blobs):
        res = self.check(monkeypatch, mlp_on_small_blobs, small_blobs, self.three_attacks(),
                         ab.Criterion.min_norm(),
                         ab.BudgetPolicy(max_attack_units_per_example=2))
        assert np.all(res.units_spent == 2)

    def test_no_generator_per_row(self, monkeypatch, mlp_on_small_blobs, small_blobs):
        """Noise and PGD's random init seed one PCG64 per block, never a
        make_rng Generator per row."""

        def refused(seed):
            raise AssertionError("the row engine called make_rng")

        monkeypatch.setattr(ab.seeding, "make_rng", refused)
        monkeypatch.setattr(ab.attacks, "make_rng", refused, raising=False)
        counts = {"blocks": 0, "bit_generators": 0}
        real_uniform_rows, real_pcg64 = ab.attacks.uniform_rows, np.random.PCG64

        def counting_uniform_rows(*args):
            counts["blocks"] += 1
            return real_uniform_rows(*args)

        def counting_pcg64(*args):
            counts["bit_generators"] += 1
            return real_pcg64(*args)

        monkeypatch.setattr(ab.attacks, "uniform_rows", counting_uniform_rows)
        monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
        small_blocks(monkeypatch, len(small_blobs) * 60)
        attacks = [ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=3,
                                   num_restarts=2),
                   ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=60)]
        res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify(),
                        ab.BudgetPolicy(early_stop=False))
        assert np.all(res.candidate_counts == [2, 60])
        # pgd in one block, noise in two: 4096 rows hold 68 examples of 60
        assert counts == {"blocks": 3, "bit_generators": 3}

    @pytest.mark.parametrize("setup", ["blobs", "overflow"])
    def test_a_block_checked_and_scored_in_pieces_equals_it_whole(self, monkeypatch, setup,
                                                                   mlp_on_small_blobs,
                                                                   small_blobs):
        # "overflow" fails some examples' units, so their rows are dropped first
        params, ds = ((mlp_on_small_blobs, small_blobs) if setup == "blobs"
                      else _overflow_setup())
        attacks = self.three_attacks(restarts=3)

        def run():
            res = ab.bundle(params, ds, attacks, ab.Criterion.min_norm(),
                            ab.BudgetPolicy(early_stop=False), seed=2, keep_candidates=True)
            return [col.tobytes() for col in (*res.chosen_rows, *res.pool,
                                              res.outcome_matrix.entries, res.error_norm,
                                              res.error_confidence, res.candidate_counts)]

        whole = run()
        # 256 bytes of the widest row a piece: on blobs the hidden layer's 12
        # float64s, so 2 rows and checks of 1 noise, 1 pgd or 2 fgsm examples; on
        # overflow the 2-wide input, so 16 rows and 1 noise, 5 pgd or 16 fgsm
        monkeypatch.setattr(bundler, "TAIL_BYTES", 256)
        assert run() == whole

    def test_a_piece_holds_tail_bytes_of_the_widest_layer(self, monkeypatch,
                                                          mlp_on_small_blobs, small_blobs):
        # the hidden layer (12) is wider than the candidates (d = 2), so a piece
        # holds at most TAIL_BYTES of 12-wide rows, 5,461, unless one example
        # has more rows: then it is a piece of its own
        assert mlp_on_small_blobs.W1.shape[1] == 12 > small_blobs.dimension
        assert bundler.TAIL_BYTES // (8 * 12) == 5461
        three = ab.Dataset(small_blobs.features[:3], small_blobs.labels[:3], num_classes=3)
        calls = []

        def counted(params, X):
            calls.append(len(X))
            return probs_rows(params, X)

        monkeypatch.setattr(bundler, "probs_rows", counted)
        # 80 examples of 100 rows: 54 a piece; 3 examples of 5,462 rows: 1 a piece
        for ds, samples, pieces in ((small_blobs, 100, [5400, 2600]),
                                    (three, 5462, [5462] * 3)):
            calls.clear()
            ab.bundle(mlp_on_small_blobs, ds,
                      [ab.AttackConfig("noise", "uniform_noise", epsilon=0.3,
                                       num_samples=samples)], ab.Criterion.misclassify())
            assert calls == [len(ds), *pieces]  # the clean pass, then the noise round

    @pytest.mark.parametrize("keep", [False, True])
    def test_a_block_is_freed_at_its_fold_unless_the_pool_keeps_it(
            self, monkeypatch, keep, mlp_on_small_blobs, small_blobs):
        # 200 rows 2 wide: 20 examples of 10 rows a block
        monkeypatch.setattr(bundler, "BLOCK_BYTES", 200 * 2 * 8)
        blocks, alive = [], []

        def noise(params, config, clean, labels, seeds):
            if blocks:
                alive.append(blocks[-1]() is not None)
            adv, failed_at = attack_rows(params, config, clean, labels, seeds)
            # the array that owns adv's memory, which every view of adv keeps alive
            blocks.append(weakref.ref(adv if adv.base is None else adv.base))
            return adv, failed_at

        attacks = [ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=10)]
        res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify(),
                        seed=1, runners={"uniform_noise": noise}, keep_candidates=keep)
        assert len(blocks) == len(small_blobs) // 20 and (res.candidate_counts == 10).all()
        assert alive == [keep] * (len(blocks) - 1)

    def test_noise_spanning_several_blocks(self, monkeypatch, mlp_on_small_blobs,
                                           small_blobs):
        samples = 60
        small_blocks(monkeypatch, len(small_blobs) * samples)
        attacks = [ab.AttackConfig("noise", "uniform_noise", epsilon=0.3,
                                   num_samples=samples)]
        self.check(monkeypatch, mlp_on_small_blobs, small_blobs, attacks,
                   ab.Criterion.misclassify(), ab.BudgetPolicy(early_stop=False))

    def test_overflow_on_some_rows_fails_only_their_units(self, monkeypatch):
        m, ds = _overflow_setup()
        res = self.check(monkeypatch, m, ds, self.three_attacks(),
                         ab.Criterion.misclassify(), ab.BudgetPolicy(early_stop=False))
        failed = {aid: sum(rec.failed for recs in res.computation_log for rec in recs
                           if rec.attack_id == aid) for aid in ("fgsm", "pgd", "noise")}
        assert 0 < failed["fgsm"] < len(ds)
        assert 0 < failed["pgd"] < len(ds)
        assert failed["noise"] == 0

    def test_failed_units_mark_their_columns_incomplete(self):
        m, ds = _overflow_setup()
        res = ab.bundle(m, ds, self.three_attacks(), ab.Criterion.misclassify(),
                        ab.BudgetPolicy(early_stop=False), seed=3)
        assert not res.stopped_early.any()
        mat, _, _ = ab.make_tables(res)
        assert {r.attack_id: r.complete for r in mat.per_attack} == \
               {CLEAN_ID: True, "fgsm": False, "pgd": False, "noise": True}


class TestScheduling:
    def test_misclassify_goal_stops_after_first_fooling_attack(self):
        m = steep_boundary_model()
        ds = two_example_dataset()
        attacks = [ab.AttackConfig("attack-1", "oracle1", epsilon=0.5),
                   ab.AttackConfig("attack-2", "oracle2", epsilon=0.5)]
        runners = {"oracle1": flip_runner(0.35), "oracle2": flip_runner(0.65)}
        res = ab.bundle(m, ds, attacks, ab.Criterion.misclassify(), seed=0,
                        runners=runners)
        # example 0 is fooled by the first attack: one unit, stopped early
        assert res.units_spent[0] == 1
        assert res.stopped_early[0]
        # example 1 needed both
        assert res.units_spent[1] == 2
        assert not res.stopped_early[1]
        # -1: attack-2 never ran on example 0
        assert res.candidate_counts.tolist() == [[1, -1], [1, 1]]
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
        ds = ab.Dataset([[0.35, 0.5]], [0], num_classes=2)

        def move_to(x0):
            def runner(params, config, clean, labels, seeds):
                moved = clean.copy()
                moved[:, 0] = x0
                return moved, np.full(len(moved), -1)
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
            # an example falls short of the budget only once its goal is met
            assert lazy.chosen_rows.misclassified[lazy.stopped_early].all()
            fooled_before_last = (lazy.chosen_rows.misclassified &
                                  (lazy.units_spent < len(attacks)))
            if fooled_before_last.any():
                assert lazy.units_spent.sum() < full.units_spent.sum()


    @pytest.mark.parametrize("criterion", [ab.Criterion.misclassify(),
                                           ab.Criterion.max_confidence(0.9),
                                           ab.Criterion.min_norm()])
    def test_error_norm_is_the_smallest_misclassified_norm_generated(
            self, criterion, mlp_on_small_blobs, small_blobs):
        # early stopping on: error_norm covers what ran, not what would have
        attacks = [ab.AttackConfig("fgsm", "fgsm", epsilon=0.1),
                   ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=5),
                   ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=4)]
        res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, criterion, seed=2,
                        keep_candidates=True)
        expected = np.full(len(small_blobs), np.inf)
        for i, pool in enumerate(res.all_candidates):
            norms = [s.perturbation_norm for _, s in pool if s.misclassified]
            expected[i] = min(norms, default=np.inf)
        assert res.error_norm.tolist() == expected.tolist()
        assert np.isfinite(expected).any() and np.isinf(expected).any()
        assert (res.error_norm[res.outcome_matrix.entries[:, 0] == 1] == 0.0).all()
        assert res.error_confidence.tolist() == [
            max(s.wrong_confidence for _, s in pool) for pool in res.all_candidates]


# the seeds a bundle at root seed 3 gives attack "flaky" on every third example
FLAKY_SEEDS = {ab.derive_seed(3, i, "flaky") for i in range(0, 80, 3)}


def flaky_fgsm(params, config, clean, labels, seeds):
    """fgsm through the runner path, failing on every third example of the
    80 small blobs at root seed 3, which it knows by their seeds."""
    adv, failed_at = attack_rows(params, replace(config, variant="fgsm"), clean, labels, seeds)
    failed_at[[seed in FLAKY_SEEDS for seed in seeds]] = 0
    return adv, failed_at


def result_arrays(res):
    """Every array of a result except its pool, by name."""
    names = ("error_norm", "error_confidence", "candidate_counts", "units_spent",
             "stopped_early", "clean_confidence")
    return {"entries": res.outcome_matrix.entries, **res.chosen_rows._asdict(),
            **{name: getattr(res, name) for name in names}}


class TestComplete:
    ATTACKS = [ab.AttackConfig("fgsm", "fgsm", epsilon=0.1),
               ab.AttackConfig("flaky", "flaky", epsilon=0.2),
               ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=5),
               ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=4)]
    RUNNERS = {"flaky": flaky_fgsm}

    @pytest.mark.parametrize("cap", [None, 1, 2])
    @pytest.mark.parametrize("criterion", [ab.Criterion.misclassify(),
                                           ab.Criterion.max_confidence(0.9),
                                           ab.Criterion.max_confidence(0.6)])
    def test_equals_the_exhaustive_bundle(self, criterion, cap, mlp_on_small_blobs,
                                          small_blobs):
        args = (mlp_on_small_blobs, small_blobs, self.ATTACKS, criterion)
        primary = ab.bundle(*args, ab.BudgetPolicy(cap), seed=3, runners=self.RUNNERS,
                            keep_candidates=True)
        before = copy.deepcopy(primary)
        full = ab.complete(primary)
        exhaustive = ab.bundle(*args, ab.BudgetPolicy(cap, early_stop=False), seed=3,
                               runners=self.RUNNERS)
        assert primary.stopped_early.any() == (cap != 1)
        assert (full is primary) == (cap == 1)
        assert full.budget == (primary.budget if cap == 1
                               else ab.BudgetPolicy(cap, early_stop=False))
        assert full.seed == primary.seed == 3
        assert full.attacks == primary.attacks == tuple(self.ATTACKS)
        for a, b in ((full, exhaustive), (primary, before)):
            assert a.criterion == b.criterion
            assert a.outcome_matrix.attack_ids == b.outcome_matrix.attack_ids
            arrays_a, arrays_b = result_arrays(a), result_arrays(b)
            for name, value in arrays_a.items():
                assert value.dtype == arrays_b[name].dtype, name
                np.testing.assert_array_equal(value, arrays_b[name], err_msg=name)
        np.testing.assert_array_equal(primary.pool.adversarial_input,
                                      before.pool.adversarial_input)
        assert full.pool is (primary.pool if cap == 1 else None)
        # flaky fails every third example, whether the primary or the continuation ran it
        assert (full.candidate_counts[::3, 1] == -1).all()
        assert (full.candidate_counts[1::3, 1] >= 0).all() == (cap != 1)

    def test_bundle_and_complete_sort_nothing(self, monkeypatch, mlp_on_small_blobs,
                                              small_blobs):
        """Blocks and rounds reduce grids of whole examples, and reselect refolds
        a kept pool round by round: no sort runs, and every choice is what it
        is with sorting allowed."""
        attacks = [ab.AttackConfig("fgsm", "fgsm", epsilon=0.1),
                   ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=5,
                                   num_restarts=3),
                   ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=4)]
        args = (mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify())

        def chosen():
            primary = ab.bundle(*args, seed=3)
            assert primary.stopped_early.any()
            kept = ab.bundle(*args, ab.BudgetPolicy(early_stop=False), seed=3,
                             keep_candidates=True)
            return [ab.complete(primary).chosen_rows,
                    *(ab.reselect(kept, crit).chosen_rows
                      for crit in (ab.Criterion.min_norm(), ab.Criterion.max_confidence(0.9)))]

        want = chosen()

        def refuse(*args, **kwargs):
            raise AssertionError("the bundle path sorted")

        for name in ("lexsort", "argsort", "sort"):
            monkeypatch.setattr(np, name, refuse)
        got = chosen()
        for rows, expected in zip(got, want):
            assert [col.tobytes() for col in rows] == [col.tobytes() for col in expected]

    def test_bundle_and_complete_call_no_np_clip(self, monkeypatch, mlp_on_small_blobs,
                                                 small_blobs):
        """Every box clamp in a block is two in-place ufuncs: with np.clip
        refused, bundle() and complete() give the same bytes."""
        attacks = [ab.AttackConfig("fgsm", "fgsm", epsilon=0.1),
                   ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=5,
                                   num_restarts=3),
                   ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=4)]
        args = (mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify())

        def arrays():
            primary = ab.bundle(*args, seed=3, keep_candidates=True)
            assert primary.stopped_early.any()
            full = ab.complete(primary)
            return [col.tobytes() for res in (primary, full)
                    for col in (*res.chosen_rows, res.outcome_matrix.entries, res.error_norm,
                                res.error_confidence, res.candidate_counts)] + \
                [col.tobytes() for col in primary.pool]

        want = arrays()

        def refuse(*args, **kwargs):
            raise AssertionError("the bundle path called np.clip")

        monkeypatch.setattr(np, "clip", refuse)
        assert arrays() == want

    def test_continues_under_what_the_result_recorded(self, mlp_on_small_blobs, small_blobs):
        primary = ab.bundle(mlp_on_small_blobs, small_blobs, self.ATTACKS,
                            ab.Criterion.max_confidence(0.6), seed=3, runners=self.RUNNERS)
        assert primary.stopped_early.any()
        assert primary.params is mlp_on_small_blobs and primary.dataset is small_blobs
        assert primary.runners == self.RUNNERS and type(primary.runners) is dict
        full = ab.complete(primary)
        assert full is not primary
        for name in ("params", "dataset", "runners"):
            assert getattr(full, name) is getattr(primary, name), name
        mine, theirs = result_arrays(full), result_arrays(primary)
        for name, value in mine.items():
            assert not np.shares_memory(value, theirs[name]), name
        # the model and data come only from the result, so two runs cannot mix
        with pytest.raises(TypeError):
            ab.complete(primary, mlp_on_small_blobs, small_blobs)

    def test_runners_lacking_a_variant_are_refused_before_any_unit(
            self, monkeypatch, mlp_on_small_blobs, small_blobs):
        primary = ab.bundle(mlp_on_small_blobs, small_blobs, self.ATTACKS,
                            ab.Criterion.misclassify(), seed=3, runners=self.RUNNERS)
        assert primary.stopped_early.any()
        calls = []

        def recording(*args):
            calls.append(args)
            return flaky_fgsm(*args)

        monkeypatch.setattr(bundler, "attack_rows", recording)
        for runners in ({}, {"other": recording}):
            with pytest.raises(ContractError, match="no runner for variant 'flaky'"):
                ab.complete(replace(primary, runners=runners))
        assert calls == []

    # class 1 iff x0 > 0.5; example 2 is misclassified clean, so its goal is met before
    # any attack runs, and fgsm at 0.05 flips no other example
    MODEL = binary_linear([40.0, 0.0], bias=-20.0)
    DATA = ab.Dataset([[0.35, 0.5], [0.65, 0.5], [0.35, 0.5]], [0, 1, 1], num_classes=2)

    def test_keeps_the_unit_cap_it_was_bundled_with(self):
        attacks = [ab.AttackConfig(f"fgsm{i}", "fgsm", epsilon=0.05) for i in range(3)]
        primary = ab.bundle(self.MODEL, self.DATA, attacks, ab.Criterion.misclassify(),
                            ab.BudgetPolicy(1), seed=0)
        assert primary.units_spent.tolist() == [1, 1, 0]
        assert primary.stopped_early.tolist() == [False, False, True]
        full = ab.complete(primary)
        assert full.units_spent.tolist() == [1, 1, 1]
        assert full.budget == ab.BudgetPolicy(1, early_stop=False)


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
        def fails_everywhere(params, config, clean, labels, seeds):
            per = rows_per_example(config)
            return np.repeat(clean, per, axis=0), np.zeros(len(clean) * per, dtype=np.int64)

        # the middle round fails on every example, so its slice of the pool is empty
        attacks = [
            ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=20),
            ab.AttackConfig("dud", "dud", epsilon=0.3, num_restarts=2),
            ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=15),
        ]
        runners = {"dud": fails_everywhere}
        primary = ab.bundle(mlp_on_small_blobs, small_blobs, attacks,
                            ab.Criterion.max_confidence(0.9),
                            ab.BudgetPolicy(early_stop=False), seed=6,
                            runners=runners, keep_candidates=True)
        assert (primary.candidate_counts[:, 1] == -1).all()
        assert not (primary.pool.attack_code == 2).any()
        redone = ab.reselect(primary, ab.Criterion.min_norm())
        fresh = ab.bundle(mlp_on_small_blobs, small_blobs, attacks,
                          ab.Criterion.min_norm(), seed=6, runners=runners)
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

    def test_reselect_refuses_a_pool_bundle_cannot_make(self, mlp_on_small_blobs,
                                                        small_blobs):
        attacks = [ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=10,
                                   num_restarts=2),
                   ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=3)]
        kept = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify(),
                         ab.BudgetPolicy(early_stop=False), seed=3, keep_candidates=True)
        for crit in (ab.Criterion.min_norm(), ab.Criterion.max_confidence(0.9),
                     ab.Criterion.misclassify()):
            fresh = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, crit,
                              ab.BudgetPolicy(early_stop=False), seed=3)
            redone = ab.reselect(kept, crit)
            assert [c.tobytes() for c in redone.chosen_rows] == \
                   [c.tobytes() for c in fresh.chosen_rows]

        n, pool = len(small_blobs), kept.pool
        rows = np.arange(len(pool.example_index))
        swapped, reordered = rows.copy(), rows.copy()
        swapped[[n - 1, n]] = n, n - 1  # a pgd row before the last clean row
        reordered[[n, n + 2]] = n + 2, n  # a pgd row of example 1 before one of example 0
        bad_pools = [pool.take(swapped), pool.take(reordered),
                     pool.take(slice(0, -1)),  # the last noise row missing
                     pool.take(np.r_[rows, 0])]  # a clean row again at the end
        for bad in bad_pools:
            with pytest.raises(ContractError, match=r"bundle\(\) order"):
                ab.reselect(replace(kept, pool=bad), ab.Criterion.min_norm())

        # every row code 0 and no attacks: a prefer fold would pick row 1, so
        # refolding only the n = 1 clean rows would silently pick row 0
        one = bundler.CandidateRows(np.array([0, 0]), np.array([0, 0]), np.array([0, 0]),
                                    np.array([[0.0], [1.0]]), np.array([False, True]),
                                    np.array([0.2, 0.7]), np.array([0.0, 0.1]))
        hand_built = ab.BundleResult(ab.Criterion.misclassify(), (),
                                     ab.BudgetPolicy(early_stop=False), 0, None, None, {},
                                     one.take([0]),
                                     ab.OutcomeMatrix(np.zeros((1, 1)), [CLEAN_ID]),
                                     np.full(1, np.inf), np.array([0.2]),
                                     np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=int),
                                     np.ones(1), one)
        with pytest.raises(ContractError, match=r"bundle\(\) order"):
            ab.reselect(hand_built, ab.Criterion.misclassify())

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


class TestOutcomeMatrix:
    @pytest.mark.parametrize("entries", [[[0.5, 1.0]], [[0, 1.7]], [[np.nan, 1]], [[0, 256]],
                                         [[0, -1]]])
    def test_entries_other_than_zero_or_one_are_refused(self, entries):
        with pytest.raises(ContractError, match="outcome entries must be 0 or 1"):
            ab.OutcomeMatrix(entries, ["none", "a"])

    def test_zero_one_entries_of_any_dtype_become_int8(self):
        for entries in ([[0.0, 1.0]], [[False, True]], np.array([[0, 1]], dtype=np.int8)):
            matrix = ab.OutcomeMatrix(entries, ["none", "a"])
            assert matrix.entries.dtype == np.int8 and matrix.entries.tolist() == [[0, 1]]


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


def reference_prefer(a, b, criterion):
    """The pairwise preference rule written out case by case, as an oracle."""
    if a.misclassified != b.misclassified:
        return 0 if a.misclassified else 1
    if criterion.variant == "min_norm" and a.misclassified:
        return 1 if b.perturbation_norm < a.perturbation_norm else 0
    return 1 if b.wrong_confidence > a.wrong_confidence else 0


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_vectorized_selection_equals_sequential_prefer_fold(data):
    """Grid blocks (U examples x `per` rows each) folded one by one into the
    held choice, so both the blocks of one round (disjoint examples) and
    rounds after rounds (examples again), and reselect over their pool in
    generation order pick the row a prefer fold picks, on scores with heavy
    ties and -inf wrong confidences."""
    n = data.draw(st.integers(1, 4))
    blocks = data.draw(st.lists(st.tuples(st.sets(st.integers(0, n - 1), min_size=1),
                                          st.integers(1, 4)), max_size=5))
    # one baseline row per example first, then each block's rows, example-major
    example = np.array(list(range(n)) + [i for members, per in blocks
                                         for i in sorted(members) for _ in range(per)])
    m = len(example)

    def draw(values):
        return np.array(data.draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)))

    mis = draw([False, True])
    wrong = draw([-np.inf, 0.0, 0.25, 0.5, 1.0])
    norm = draw([0.0, 0.1, 0.2])
    scores = [ab.CandidateScore(*row) for row in zip(mis.tolist(), wrong.tolist(),
                                                     norm.tolist())]
    # block j is attack j + 1, with `per` rows for each example it did not fail on
    code = np.repeat(np.arange(len(blocks) + 1), [n] + [len(members) * per
                                                      for members, per in blocks])
    attacks = tuple(ab.AttackConfig(f"a{j}", "rows", 0.1, num_restarts=per)
                    for j, (_, per) in enumerate(blocks))
    # a row's input is its own position, so a choice names the row it came from
    pool = bundler.CandidateRows(example, code, np.zeros(m, dtype=np.int64),
                                 np.arange(m, dtype=float)[:, None], mis, wrong, norm)
    ends = np.cumsum([n] + [len(members) * per for members, per in blocks])
    # -1 where a block did not hold the example, as for a failed unit
    counts = np.array([[per if i in members else -1 for members, per in blocks]
                       for i in range(n)], dtype=np.int64).reshape(n, len(blocks))
    for crit in (ab.Criterion.misclassify(), ab.Criterion.max_confidence(0.6),
                 ab.Criterion.min_norm()):
        best = list(range(n))
        for r in range(n, m):
            i = example[r]
            expected = reference_prefer(scores[best[i]], scores[r], crit)
            assert ab.prefer(scores[best[i]], scores[r], crit) == expected
            if expected == 1:
                best[i] = r

        held = pool.take(np.arange(n))
        for (_, per), lo, hi in zip(blocks, ends, ends[1:]):
            bundler._fold_block(crit, held, pool.take(np.arange(lo, hi)), per)
        assert held.adversarial_input[:, 0].tolist() == best

        k = len(attacks)
        result = ab.BundleResult(crit, attacks, ab.BudgetPolicy(early_stop=False), 0,
                                 None, None, {}, pool.take(np.arange(n)),
                                 ab.OutcomeMatrix(np.zeros((n, k + 1)),
                                                  [CLEAN_ID] + [a.attack_id for a in attacks]),
                                 np.full(n, np.inf), wrong[:n], counts, np.full(n, k),
                                 np.ones(n), pool)
        redone = ab.reselect(result, crit).chosen_rows
        assert redone.adversarial_input[:, 0].tolist() == best


_GOOD = np.array([0.5, 0.5])
# an example (features, label) and a candidate, each bad for the 2-feature,
# 2-class model in one way
_BAD_INPUTS = {"label k": (_GOOD, 2, _GOOD),
               "one feature wider": (np.full(3, 0.5), 0, _GOOD),
               "one feature narrower": (np.full(1, 0.5), 0, _GOOD),
               "NaN candidate": (_GOOD, 0, np.array([np.nan, 0.5]))}
_PGD = ab.AttackConfig("pgd", "pgd", epsilon=0.1, step_size=0.05, num_steps=2)
_PGD2 = ab.AttackConfig("pgd", "pgd", epsilon=0.1, step_size=0.05, num_steps=2, num_restarts=2)
_NOISE = ab.AttackConfig("noise", "uniform_noise", epsilon=0.1, num_samples=3)
# each function on (model, example, candidate); a function of one input takes
# the candidate, or the example's features where only they are bad
_SINGLE_EXAMPLE = {
    "predict": lambda m, ex, adv: ab.predict(m, adv),
    "input_gradient": lambda m, ex, adv: ab.input_gradient(m, adv, ex.label),
    "run_attack": lambda m, ex, adv: run_attack(m, ex, _PGD, 0),
    "fgsm": lambda m, ex, adv: run_attack(m, ex, ab.AttackConfig("fgsm", "fgsm", 0.1), 0),
    # two restarts with a seed each
    "pgd": lambda m, ex, adv: run_attack(m, ex, _PGD2, [3, 4]),
    # the noise reads no model, but run_attack checks the example against it
    "uniform_noise": lambda m, ex, adv: run_attack(m, ex, _NOISE, 0),
    "score": lambda m, ex, adv: ab.score(m, ex, Candidate(0, adv, "a")),
    "validate_candidate": lambda m, ex, adv: validate_candidate(Candidate(0, adv, "a"),
                                                                ex.features, 0.1),
}
_ONE_INPUT = ("predict", "input_gradient")
_ATTACKS = ("run_attack", "fgsm", "pgd", "uniform_noise")


@pytest.mark.parametrize("name, case", [
    (name, case) for name in _SINGLE_EXAMPLE for case in _BAD_INPUTS
    # predict and validate_candidate take no label; an attack takes no candidate, and
    # an Example refuses NaN; a NaN candidate is a failed attack to validate_candidate
    if not ((name in ("predict", "validate_candidate") and case == "label k")
            or (name in _ATTACKS + ("validate_candidate",) and case == "NaN candidate"))])
def test_every_single_example_function_refuses_every_bad_input(name, case):
    x, label, adv = _BAD_INPUTS[case]
    if name in _ONE_INPUT and adv is _GOOD:
        adv = x
    with pytest.raises((ShapeError, ContractError)):
        _SINGLE_EXAMPLE[name](binary_linear([1.0, -1.0]), ab.Example(x, label), adv)
