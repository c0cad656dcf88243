"""Rate tables and curves derived from bundle results.

Three table kinds are built from one outcome matrix:

  MAT      per-attack error rates only
  WAT      the same rates plus their maximum
  BUNDLED  the same rates plus the bundled rate (row-wise OR, averaged)

The bundled rate can never fall below the WAT maximum, and on the diagonal
construction from `wat_gap_construction` the gap between them is exactly
1 - 1/n. Curves: the success-fail curve sweeps a confidence threshold t,
pairing the clean covered-and-correct rate with the adversarial
misclassified-above-t rate; the norm curve reads error rate as a function
of the perturbation budget off each example's smallest error norm. Their
grids' one rule, `check_grid` (no NaN, ascending, thresholds in
`bundler.THRESHOLD_RANGE`), and the gap table's, `bundler.check_gap_size`,
are the rules the config checks at parse time. A table
is a `RateTable`, checked when built; its `AttackRate` rows and the two
curves hold only plain values and are named tuples, compared by value. All CSV
column names are fixed, and every file is written by `data.write_lines` from
`data.csv_lines`, so identical runs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .attacks import NORM_SLACK
from .bundler import CLEAN_ID, THRESHOLD_RANGE, BundleResult, OutcomeMatrix, check_gap_size
from .data import csv_lines, fmt, write_lines  # noqa: F401 (fmt: reporting.fmt stays importable)
from .errors import ContractError
from .records import ValueRecord
# perfbench/child.py wraps this name when it traces a run; nothing here calls it
from .models import predict  # noqa: F401

MAT = "MAT"
WAT = "WAT"
BUNDLED = "BUNDLED"


class AttackRate(NamedTuple):
    attack_id: str
    error_rate: float
    complete: bool = True


class RateTable(ValueRecord):
    """A MAT, WAT or BUNDLED table of clean and per-attack rates, with its max or bundled rate."""

    kind: str
    clean_error: float | None
    per_attack: tuple[AttackRate, ...]
    wat_max: float | None = None
    bundled_rate: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "per_attack", tuple(self.per_attack))
        for rate in [r.error_rate for r in self.per_attack] + [self.wat_max, self.bundled_rate]:
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ContractError(f"rate {rate} outside [0, 1]")
        if self.wat_max is not None and self.per_attack:
            if self.wat_max != max(r.error_rate for r in self.per_attack):
                raise ContractError("wat_max must equal the largest per-attack rate")
        if self.bundled_rate is not None and self.per_attack:
            if self.bundled_rate < max(r.error_rate for r in self.per_attack) - 1e-12:
                raise ContractError("bundled rate below a per-attack rate")


class SuccessFailCurve(NamedTuple):
    points: tuple[tuple[float, float, float], ...]  # (t, success_rate, failure_rate)


class NormCurve(NamedTuple):
    points: tuple[tuple[float, float], ...]  # (epsilon, error_rate)


def _column_completeness(source: BundleResult | OutcomeMatrix) -> list[bool]:
    """Per column, whether every example ran that attack without failing."""
    if isinstance(source, OutcomeMatrix):
        return [True] * len(source.attack_ids)
    return [True] + (source.candidate_counts >= 0).all(axis=0).tolist()


def make_tables(source: BundleResult | OutcomeMatrix) -> tuple[RateTable, RateTable, RateTable]:
    """Build (MAT, WAT, BUNDLED) from one outcome matrix.

    Columns an early-stopped run never finished are marked incomplete; their
    rates are lower bounds, not exact per-attack numbers.
    """
    matrix = source.outcome_matrix if isinstance(source, BundleResult) else source
    rates = matrix.per_attack_error_rates()
    complete = _column_completeness(source)
    per_attack = tuple(
        AttackRate(aid, float(rates[j]), complete[j])
        for j, aid in enumerate(matrix.attack_ids)
    )
    if CLEAN_ID in matrix.attack_ids:
        clean_error = float(rates[matrix.attack_ids.index(CLEAN_ID)])
    else:
        clean_error = None
    wat_max = float(rates.max()) if len(per_attack) else None
    bundled = matrix.bundled_error_rate()
    return (RateTable(MAT, clean_error, per_attack),
            RateTable(WAT, clean_error, per_attack, wat_max=wat_max),
            RateTable(BUNDLED, clean_error, per_attack, bundled_rate=bundled))


def check_grid(name: str, grid: Iterable[float], within: tuple | None = None) -> list[float]:
    """grid as floats if it holds no NaN, lies in [low, high) = within and is ascending."""
    grid = [float(t) for t in grid]
    if np.isnan(grid).any():
        raise ContractError(f"{name} must hold no NaN")
    if within and not all(within[0] <= t < within[1] for t in grid):
        raise ContractError(f"{name} must lie in [{within[0]:g}, {within[1]:g})")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ContractError(f"{name} must be sorted ascending")
    return grid


def success_fail_curve(result: BundleResult, grid: Sequence[float]) -> SuccessFailCurve:
    """Sweep thresholds t over [0.5, 1).

    success_rate(t): clean examples predicted correctly with confidence > t.
    failure_rate(t): examples with a candidate, under any criterion, whose
    wrong-class confidence is > t; above 0.5 that class is the predicted one.
    No example may have stopped early. Both read the result's stored scores;
    no model call and no attack reruns.
    """
    if result.stopped_early.any():
        raise ContractError("success_fail_curve needs a result where no example stopped early")
    grid = check_grid("threshold grid", grid, THRESHOLD_RANGE)
    correct, confidence = result.outcome_matrix.entries[:, 0] == 0, result.clean_confidence
    return SuccessFailCurve(tuple((t, float(np.mean(correct & (confidence > t))),
                                   float(np.mean(result.error_confidence > t))) for t in grid))


def norm_curve(result: BundleResult, epsilons: Sequence[float]) -> NormCurve:
    """Error rate as a function of allowed perturbation, from `error_norm`.

    An example counts as an error at eps when its smallest misclassified
    candidate norm is <= eps; never-misclassified examples (inf) count at no
    eps, not even inf. No example may have stopped early. The smallest norm
    found only upper-bounds the truly minimal adversarial perturbation, so
    each point is a lower bound on the true error rate at that budget. Norms
    get the same `NORM_SLACK` candidates are validated with, so the curve
    reaches the bundled rate at the attack budget even when a projected
    candidate sits one rounding step past it.
    """
    if result.stopped_early.any():
        raise ContractError("norm_curve needs a result where no example stopped early")
    epsilons = check_grid("epsilons", epsilons)
    norms = result.error_norm
    fooled = norms < np.inf
    points = [(e, float(np.mean(fooled & (norms <= e + NORM_SLACK)))) for e in epsilons]
    return NormCurve(tuple(points))


def wat_underestimation_report(n_values: Iterable[int]) -> list[tuple[int, float, float, float]]:
    """Rows (n, wat, bundled, gap) of `wat_gap_construction(n)`, in closed form without
    its n x n matrix: each attack fools 1/n of the examples, the bundle all, gap = 1 - 1/n."""
    n_values = list(n_values)  # the check and the rows read an iterator's values once
    for n in n_values:
        check_gap_size(n)
    return [(n, 1 / n, 1.0, 1.0 - 1 / n) for n in n_values]


def write_rates_csv(path: str | Path, mat: RateTable, wat: RateTable,
                    bundled: RateTable) -> None:
    rows = []
    for t in (mat, wat, bundled):
        extra = (("max", t.wat_max), ("bundled", t.bundled_rate))
        rows += [(t.kind, r.attack_id, r.error_rate) for r in t.per_attack]
        rows += [(t.kind, name, rate) for name, rate in extra if rate is not None]
    write_lines(path, csv_lines(["kind", "attack_id", "rate"], rows))


def write_sf_curve_csv(path: str | Path, curve: SuccessFailCurve) -> None:
    write_lines(path, csv_lines(["t", "success_rate", "failure_rate"], curve.points))


def write_norm_curve_csv(path: str | Path, curve: NormCurve) -> None:
    write_lines(path, csv_lines(["epsilon", "error_rate"], curve.points))


def wat_gap_lines(rows: Sequence[tuple[int, float, float, float]]) -> Iterator[str]:
    """The lines of wat_gap.csv for `wat_underestimation_report` rows."""
    return csv_lines(["n", "wat", "bundled", "gap"], rows)


def write_wat_gap_csv(path: str | Path, rows: Sequence[tuple[int, float, float, float]]) -> None:
    write_lines(path, wat_gap_lines(rows))


def write_chosen_csv(path: str | Path, result: BundleResult) -> None:
    """Per-example chosen candidate and spend."""
    rows, ids = result.chosen_rows, result.outcome_matrix.attack_ids
    header = ["index", "attack_id", "restart_index", "misclassified", "wrong_confidence",
              "perturbation_norm", "units_spent"]
    write_lines(path, csv_lines(header, (
        (i, ids[code], restart, int(mis), wrong, norm, units)
        for i, (code, restart, mis, wrong, norm, units) in enumerate(zip(
            rows.attack_code.tolist(), rows.restart_index.tolist(),
            rows.misclassified.tolist(), rows.wrong_confidence.tolist(),
            rows.perturbation_norm.tolist(), result.units_spent.tolist())))))


def dump_candidates_csv(path: str | Path, result: BundleResult) -> None:
    """One row per kept candidate, grouped by example in generation order:
    example_index, attack_id, restart_index, features."""
    if result.pool is None:
        raise ContractError("dump_candidates_csv needs a result built with "
                            "keep_candidates=True")
    pool, ids = result.pool, result.outcome_matrix.attack_ids
    order = np.argsort(pool.example_index, kind="stable")
    d = pool.adversarial_input.shape[1]
    header = ["example_index", "attack_id", "restart_index"] + [f"x{j}" for j in range(d)]
    columns = (pool.example_index, pool.attack_code, pool.restart_index, pool.adversarial_input)
    write_lines(path, csv_lines(header, (
        [example, ids[code], restart, *x]
        for example, code, restart, x in zip(*(col[order].tolist() for col in columns)))))
