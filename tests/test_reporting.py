import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advbundle as ab
from advbundle.bundler import CLEAN_ID
from advbundle.data import fmt
from advbundle.errors import ContractError
from advbundle.reporting import (dump_candidates_csv, write_chosen_csv,
                                 write_norm_curve_csv, write_rates_csv,
                                 write_sf_curve_csv, write_wat_gap_csv)


DESK_ATTACKS = [
    ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=30),
    ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=25),
]


@pytest.fixture(scope="module")
def desk_run(mlp_on_small_blobs, small_blobs):
    res = ab.bundle(mlp_on_small_blobs, small_blobs, DESK_ATTACKS, ab.Criterion.misclassify(),
                    ab.BudgetPolicy(early_stop=False), seed=4)
    min_norm = ab.bundle(mlp_on_small_blobs, small_blobs, DESK_ATTACKS,
                         ab.Criterion.min_norm(), seed=4)
    return mlp_on_small_blobs, small_blobs, res, min_norm


class TestMakeTables:
    def test_diagonal_construction_reproduces_the_motivating_numbers(self):
        mat, wat, bundled = ab.make_tables(ab.wat_gap_construction(2))
        assert [r.error_rate for r in mat.per_attack] == [0.5, 0.5]
        assert wat.wat_max == 0.5
        assert bundled.bundled_rate == 1.0

    def test_worst_attack_dominates_hypothetical_rates(self):
        # columns at 3%, 11%, 99% over 100 examples; max must read 99%
        entries = np.zeros((100, 3), dtype=np.int8)
        entries[:3, 0] = 1
        entries[:11, 1] = 1
        entries[:99, 2] = 1
        matrix = ab.OutcomeMatrix(entries, ["a1", "a2", "a3"])
        _, wat, bundled = ab.make_tables(matrix)
        assert wat.wat_max == pytest.approx(0.99, abs=0)
        assert bundled.bundled_rate == pytest.approx(0.99, abs=0)

    def test_all_zero_matrix(self):
        matrix = ab.OutcomeMatrix(np.zeros((10, 2), dtype=np.int8), ["a", "b"])
        mat, wat, bundled = ab.make_tables(matrix)
        assert all(r.error_rate == 0.0 for r in mat.per_attack)
        assert wat.wat_max == 0.0
        assert bundled.bundled_rate == 0.0

    def test_clean_error_falls_back_to_baseline_column(self, desk_run):
        _, _, res, _ = desk_run
        mat, _, _ = ab.make_tables(res)
        assert mat.clean_error == res.rate_for(CLEAN_ID)

    def test_early_stopped_columns_marked_incomplete(self, mlp_on_small_blobs,
                                                     small_blobs):
        attacks = [
            ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=30),
            ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=25),
        ]
        res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks,
                        ab.Criterion.misclassify(), seed=4)
        assert res.stopped_early.any()  # strong pgd ends most examples early
        mat, _, _ = ab.make_tables(res)
        by_id = {r.attack_id: r for r in mat.per_attack}
        assert by_id["noise"].complete is False
        assert by_id["pgd"].complete is True
        assert by_id[CLEAN_ID].complete is True

    def test_bundled_rate_never_below_wat_max(self, desk_run):
        _, _, res, _ = desk_run
        _, wat, bundled = ab.make_tables(res)
        assert bundled.bundled_rate >= wat.wat_max - 1e-12

    def test_rate_table_validation(self):
        from advbundle.reporting import AttackRate
        with pytest.raises(ContractError):
            ab.RateTable("WAT", None, (AttackRate("a", 0.2),), wat_max=0.9)
        with pytest.raises(ContractError):
            ab.RateTable("BUNDLED", None, (AttackRate("a", 0.8),), bundled_rate=0.5)
        with pytest.raises(ContractError):
            ab.RateTable("MAT", None, (AttackRate("a", 1.5),))


class TestSuccessFailCurve:
    def test_low_threshold_reads_clean_accuracy_and_bundled_rate(self, desk_run):
        model, ds, res, _ = desk_run
        curve = ab.success_fail_curve(res, [0.5])
        t, success, failure = curve.points[0]
        preds = [ab.predict(model, x) for x in ds.features]
        clean_acc = np.mean([p.predicted_class == y
                             for p, y in zip(preds, ds.labels)])
        # k=3 here, so confidences can sit below 0.5; restrict the claim to
        # the strictly-covered fraction computed by the same rule
        covered = np.mean([(p.predicted_class == y) and p.confidence > 0.5
                           for p, y in zip(preds, ds.labels)])
        assert success == pytest.approx(float(covered), abs=0)
        assert failure <= res.bundled_error_rate + 1e-12
        assert clean_acc >= success

    def test_binary_model_anchors_exactly_at_half(self, linear_on_blobs, blobs_2c):
        res = ab.bundle(linear_on_blobs, blobs_2c,
                        [ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1,
                                         num_steps=30)],
                        ab.Criterion.misclassify(), ab.BudgetPolicy(early_stop=False),
                        seed=0)
        curve = ab.success_fail_curve(res, [0.5])
        _, success, failure = curve.points[0]
        preds = [ab.predict(linear_on_blobs, x) for x in blobs_2c.features]
        clean_acc = float(np.mean([p.predicted_class == y
                                   for p, y in zip(preds, blobs_2c.labels)]))
        # binary confidences exceed 0.5 except at exact ties
        assert success == pytest.approx(clean_acc, abs=0)
        assert failure == pytest.approx(res.bundled_error_rate, abs=0)

    def test_matches_brute_force_recount(self, desk_run):
        # failure counts the most confident error among every candidate, so
        # min_norm, whose pick is often a less confident error, reads the same
        model, ds, _, _ = desk_run
        grid = np.linspace(0.5, 0.99, 50)
        preds = [ab.predict(model, x) for x in ds.features]
        for criterion in (ab.Criterion.misclassify(), ab.Criterion.min_norm()):
            res = ab.bundle(model, ds, DESK_ATTACKS, criterion,
                            ab.BudgetPolicy(early_stop=False), seed=4, keep_candidates=True)
            curve = ab.success_fail_curve(res, grid)
            most_wrong = [max((sc.wrong_confidence for _, sc in pool if sc.misclassified),
                              default=0.0) for pool in res.all_candidates]
            for (t, success, failure) in curve.points:
                s = sum(1 for p, y in zip(preds, ds.labels)
                        if p.predicted_class == y and p.confidence > t)
                f = sum(1 for w in most_wrong if w > t)
                assert success == pytest.approx(s / len(ds), abs=0)
                assert failure == pytest.approx(f / len(ds), abs=0)
        # the min_norm case discriminates: its own picks fall below the curve somewhere
        picked = [sc.wrong_confidence if sc.misclassified else 0.0 for _, sc in res.chosen]
        assert any(np.sum(np.greater(picked, t)) < np.sum(np.greater(most_wrong, t))
                   for t in grid)

    def test_refuses_an_early_stopped_result(self, mlp_on_small_blobs, small_blobs):
        attacks = [ab.AttackConfig("fgsm", "fgsm", epsilon=0.3),
                   ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=5)]
        res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify(),
                        seed=0)
        assert res.stopped_early.any()
        with pytest.raises(ContractError, match="stopped early"):
            ab.success_fail_curve(res, [0.5])
        full = ab.complete(res)
        exhaustive = ab.bundle(mlp_on_small_blobs, small_blobs, attacks,
                               ab.Criterion.misclassify(), ab.BudgetPolicy(early_stop=False),
                               seed=0)
        grid = np.linspace(0.5, 0.99, 50)
        assert ab.success_fail_curve(full, grid) == ab.success_fail_curve(exhaustive, grid)

    def test_both_coordinates_non_increasing(self, desk_run):
        model, ds, res, _ = desk_run
        curve = ab.success_fail_curve(res, np.linspace(0.5, 0.99, 40))
        succ = [p[1] for p in curve.points]
        fail = [p[2] for p in curve.points]
        assert all(b <= a for a, b in zip(succ, succ[1:]))
        assert all(b <= a for a, b in zip(fail, fail[1:]))

    def test_unsorted_grid_rejected(self, desk_run):
        model, ds, res, _ = desk_run
        with pytest.raises(ContractError):
            ab.success_fail_curve(res, [0.9, 0.6])
        with pytest.raises(ContractError):
            ab.success_fail_curve(res, [0.4, 0.6])
        # NaN compares false with every point, so no order or range check sees it
        with pytest.raises(ContractError, match="NaN"):
            ab.success_fail_curve(res, [0.6, np.nan, 0.7])


class TestNormCurve:
    def test_endpoints_anchor_to_clean_and_bundled_error(self, desk_run):
        model, ds, _, min_norm = desk_run
        curve = ab.norm_curve(min_norm, [0.0, 0.3])
        clean_err = float(np.mean([
            ab.predict(model, x).predicted_class != y
            for x, y in zip(ds.features, ds.labels)]))
        assert curve.points[0][1] == pytest.approx(clean_err, abs=0)
        assert curve.points[1][1] == pytest.approx(min_norm.bundled_error_rate, abs=0)

    def test_matches_sort_and_count_oracle(self, desk_run):
        _, ds, _, min_norm = desk_run
        grid = np.linspace(0.0, 0.3, 16)
        curve = ab.norm_curve(min_norm, grid)
        mis = min_norm.chosen_rows.misclassified
        norms = min_norm.chosen_rows.perturbation_norm
        for eps, rate in curve.points:
            count = sum(1 for ok, nm in zip(mis, norms) if ok and nm <= eps + 1e-9)
            assert rate == pytest.approx(count / len(ds), abs=0)

    def test_non_decreasing(self, desk_run):
        _, _, _, min_norm = desk_run
        curve = ab.norm_curve(min_norm, np.linspace(0, 0.3, 31))
        rates = [p[1] for p in curve.points]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_early_stopped_result_rejected(self, mlp_on_small_blobs, small_blobs):
        attacks = [ab.AttackConfig("fgsm", "fgsm", epsilon=0.3),
                   ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=5)]
        lazy = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify(),
                         seed=4)
        assert lazy.stopped_early.any()
        with pytest.raises(ContractError, match="stopped early"):
            ab.norm_curve(lazy, [0.0, 0.3])

    def test_same_points_under_every_criterion(self, mlp_on_small_blobs, small_blobs):
        attacks = [ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=30),
                   ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=25)]
        grid = np.linspace(0.0, 0.3, 31)
        curves = {ab.norm_curve(ab.bundle(mlp_on_small_blobs, small_blobs, attacks, crit,
                                          ab.BudgetPolicy(early_stop=False), seed=4),
                                grid).points
                  for crit in (ab.Criterion.misclassify(), ab.Criterion.max_confidence(0.9),
                               ab.Criterion.min_norm())}
        assert len(curves) == 1

    def test_inf_budget_reads_the_bundled_rate(self, desk_run):
        _, _, _, min_norm = desk_run
        never_fooled = np.isinf(min_norm.error_norm)
        assert never_fooled.any()  # these must not count, even at an inf budget
        curve = ab.norm_curve(min_norm, [0.0, 0.3, np.inf])
        assert curve.points[-1] == (np.inf, min_norm.bundled_error_rate)
        assert curve.points[-1][1] < 1.0

    def test_unsorted_epsilons_rejected(self, desk_run):
        _, _, _, min_norm = desk_run
        with pytest.raises(ContractError):
            ab.norm_curve(min_norm, [0.3, 0.0])
        with pytest.raises(ContractError, match="NaN"):
            ab.norm_curve(min_norm, [0.0, np.nan, 0.3])


class TestGapReport:
    def test_gap_is_exactly_one_minus_reciprocal(self):
        rows = ab.wat_underestimation_report([1, 2, 10, 100, 1000])
        for n, wat, bundled, gap in rows:
            assert wat == 1.0 / n
            assert bundled == 1.0
            assert gap == 1.0 - 1.0 / n

    def test_motivating_values(self):
        rows = dict((n, gap) for n, _, _, gap in ab.wat_underestimation_report([1, 2]))
        assert rows[1] == 0.0
        assert rows[2] == 0.5
        # an iterator or generator gives the same rows: the check does not consume it
        want = ab.wat_underestimation_report([1, 2])
        assert ab.wat_underestimation_report(iter([1, 2])) == want
        assert ab.wat_underestimation_report(n for n in (1, 2)) == want


class TestCsvOutput:
    def test_headers_and_round_trips(self, tmp_path, desk_run):
        model, ds, res, min_norm = desk_run
        mat, wat, bundled = ab.make_tables(res)
        sf = ab.success_fail_curve(res, np.linspace(0.5, 0.99, 10))
        nc = ab.norm_curve(min_norm, np.linspace(0, 0.3, 7))
        rows = ab.wat_underestimation_report([1, 2, 10])

        write_rates_csv(tmp_path / "rates.csv", mat, wat, bundled)
        write_sf_curve_csv(tmp_path / "sf_curve.csv", sf)
        write_norm_curve_csv(tmp_path / "norm_curve.csv", nc)
        write_wat_gap_csv(tmp_path / "wat_gap.csv", rows)
        write_chosen_csv(tmp_path / "chosen.csv", res)

        assert (tmp_path / "rates.csv").read_text().splitlines()[0] == "kind,attack_id,rate"
        assert (tmp_path / "sf_curve.csv").read_text().splitlines()[0] == \
            "t,success_rate,failure_rate"
        assert (tmp_path / "norm_curve.csv").read_text().splitlines()[0] == \
            "epsilon,error_rate"
        assert (tmp_path / "wat_gap.csv").read_text().splitlines()[0] == "n,wat,bundled,gap"
        assert (tmp_path / "chosen.csv").read_text().splitlines()[0] == \
            "index,attack_id,restart_index,misclassified,wrong_confidence," \
            "perturbation_norm,units_spent"

        # numbers written with shortest repr parse back to the same floats
        for line in (tmp_path / "sf_curve.csv").read_text().splitlines()[1:]:
            t, s, f = (float(v) for v in line.split(","))
            match = [p for p in sf.points if p[0] == t]
            assert match and match[0][1] == s and match[0][2] == f

    def test_dump_candidates_needs_a_kept_pool(self, tmp_path, desk_run):
        _, _, res, _ = desk_run
        with pytest.raises(ContractError, match="keep_candidates=True"):
            dump_candidates_csv(tmp_path / "candidates.csv", res)
        assert not (tmp_path / "candidates.csv").exists()

    def test_fmt_is_shortest_round_trip(self):
        for x in (0.1, 1 / 3, 0.3, 1e-9, 123456.789):
            assert float(fmt(x)) == x
        assert fmt(0.1) == "0.1"


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_sf_failure_counts_are_monotone_for_any_scores(wrong_confs):
    # recount logic: strictly-above-t counts can only fall as t rises
    grid = np.linspace(0.5, 0.99, 9)
    counts = [sum(1 for w in wrong_confs if w > t) for t in grid]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
