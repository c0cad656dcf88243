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
of the perturbation budget off a min-norm bundle. All CSV column names are
fixed and all floats are written with shortest round-trip decimals, so
identical runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .attacks import Candidate
from .bundler import (CLEAN_ID, MIN_NORM, BundleResult, OutcomeMatrix,
                      wat_gap_construction)
from .data import Dataset
from .errors import ContractError
from .models import ModelParams, predict

MAT = "MAT"
WAT = "WAT"
BUNDLED = "BUNDLED"


def fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


@dataclass(frozen=True)
class AttackRate:
    attack_id: str
    error_rate: float
    complete: bool = True


@dataclass(frozen=True)
class RateTable:
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

    def rate_for(self, attack_id: str) -> float:
        for r in self.per_attack:
            if r.attack_id == attack_id:
                return r.error_rate
        raise KeyError(attack_id)


@dataclass(frozen=True)
class SuccessFailCurve:
    points: tuple[tuple[float, float, float], ...]  # (t, success_rate, failure_rate)


@dataclass(frozen=True)
class NormCurve:
    points: tuple[tuple[float, float], ...]  # (epsilon, error_rate)


def _column_completeness(source: BundleResult | OutcomeMatrix) -> dict[str, bool]:
    matrix = source.outcome_matrix if isinstance(source, BundleResult) else source
    complete = {aid: True for aid in matrix.attack_ids}
    if isinstance(source, BundleResult):
        for aid in matrix.attack_ids:
            if aid == CLEAN_ID:
                continue
            for records in source.computation_log:
                ran = any(rec.attack_id == aid and not rec.failed for rec in records)
                if not ran:
                    complete[aid] = False
                    break
    return complete


def make_tables(source: BundleResult | OutcomeMatrix,
                clean_correct: Sequence[bool] | None = None
                ) -> tuple[RateTable, RateTable, RateTable]:
    """Build (MAT, WAT, BUNDLED) from one outcome matrix.

    Columns an early-stopped run never finished are marked incomplete; their
    rates are lower bounds, not exact per-attack numbers.
    """
    matrix = source.outcome_matrix if isinstance(source, BundleResult) else source
    rates = matrix.per_attack_error_rates()
    complete = _column_completeness(source)
    per_attack = tuple(
        AttackRate(aid, float(rates[j]), complete[aid])
        for j, aid in enumerate(matrix.attack_ids)
    )
    if clean_correct is not None:
        clean_error = float(np.mean(~np.asarray(clean_correct, dtype=bool)))
    elif CLEAN_ID in matrix.attack_ids:
        clean_error = float(rates[matrix.attack_ids.index(CLEAN_ID)])
    else:
        clean_error = None
    wat_max = float(rates.max()) if len(per_attack) else None
    bundled = matrix.bundled_error_rate()
    return (RateTable(MAT, clean_error, per_attack),
            RateTable(WAT, clean_error, per_attack, wat_max=wat_max),
            RateTable(BUNDLED, clean_error, per_attack, bundled_rate=bundled))


def success_fail_curve(params: ModelParams, dataset: Dataset, result: BundleResult,
                       grid: Sequence[float]) -> SuccessFailCurve:
    """Sweep thresholds t over [0.5, 1).

    success_rate(t): clean examples predicted correctly with confidence > t.
    failure_rate(t): examples whose chosen candidate is misclassified with
    wrong-class confidence > t. Both use stored scores; no attack reruns.
    """
    grid = [float(t) for t in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ContractError("threshold grid must be sorted ascending")
    if grid and not (0.5 <= grid[0] and grid[-1] < 1.0):
        raise ContractError("threshold grid must lie in [0.5, 1)")
    if len(result.chosen) != len(dataset):
        raise ContractError("result does not match dataset")
    preds = [predict(params, ex.features) for ex in dataset.examples]
    correct = np.array([p.predicted_class == ex.label
                        for p, ex in zip(preds, dataset.examples)])
    confidence = np.array([p.confidence for p in preds])
    mis = result.chosen_misclassified()
    wrong_conf = result.chosen_wrong_confidence()
    points = []
    for t in grid:
        success = float(np.mean(correct & (confidence > t)))
        failure = float(np.mean(mis & (wrong_conf > t)))
        points.append((t, success, failure))
    return SuccessFailCurve(tuple(points))


def norm_curve(result: BundleResult, epsilons: Sequence[float]) -> NormCurve:
    """Error rate as a function of allowed perturbation, from a min-norm bundle.

    An example counts as an error at eps when its chosen misclassifying
    candidate has perturbation norm <= eps; never-misclassified examples
    count at no eps. The chosen norm only upper-bounds the truly minimal
    adversarial perturbation, so each point is a lower bound on the true
    error rate at that budget. Norms get the same 1e-9 slack candidates are
    validated with, so the curve reaches the bundled rate at the attack
    budget even when a projected candidate sits one rounding step past it.
    """
    if result.criterion.variant != MIN_NORM:
        raise ContractError("norm_curve needs a result produced under min_norm")
    epsilons = [float(e) for e in epsilons]
    if any(b < a for a, b in zip(epsilons, epsilons[1:])):
        raise ContractError("epsilons must be sorted ascending")
    mis = result.chosen_misclassified()
    norms = result.chosen_norms()
    points = [(e, float(np.mean(mis & (norms <= e + 1e-9)))) for e in epsilons]
    return NormCurve(tuple(points))


def wat_underestimation_report(n_values: Sequence[int]) -> list[tuple[int, float, float, float]]:
    """Rows (n, wat, bundled, gap) for the diagonal construction; gap = 1 - 1/n."""
    rows = []
    for n in n_values:
        _, wat, bundled = make_tables(wat_gap_construction(n))
        rows.append((n, wat.wat_max, bundled.bundled_rate,
                     bundled.bundled_rate - wat.wat_max))
    return rows


def write_rates_csv(path: str | Path, mat: RateTable, wat: RateTable,
                    bundled: RateTable) -> None:
    lines = ["kind,attack_id,rate"]
    for table in (mat, wat, bundled):
        for r in table.per_attack:
            lines.append(f"{table.kind},{r.attack_id},{fmt(r.error_rate)}")
        if table.wat_max is not None:
            lines.append(f"{table.kind},max,{fmt(table.wat_max)}")
        if table.bundled_rate is not None:
            lines.append(f"{table.kind},bundled,{fmt(table.bundled_rate)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_sf_curve_csv(path: str | Path, curve: SuccessFailCurve) -> None:
    lines = ["t,success_rate,failure_rate"]
    for t, success, failure in curve.points:
        lines.append(f"{fmt(t)},{fmt(success)},{fmt(failure)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_norm_curve_csv(path: str | Path, curve: NormCurve) -> None:
    lines = ["epsilon,error_rate"]
    for eps, rate in curve.points:
        lines.append(f"{fmt(eps)},{fmt(rate)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_wat_gap_csv(path: str | Path, rows: Sequence[tuple[int, float, float, float]]) -> None:
    lines = ["n,wat,bundled,gap"]
    for n, wat, bundled, gap in rows:
        lines.append(f"{n},{fmt(wat)},{fmt(bundled)},{fmt(gap)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_chosen_csv(path: str | Path, result: BundleResult) -> None:
    """Per-example chosen candidate and spend."""
    lines = ["index,attack_id,restart_index,misclassified,wrong_confidence,"
             "perturbation_norm,units_spent"]
    for i, (cand, cand_score) in enumerate(result.chosen):
        lines.append(",".join([
            str(i), cand.attack_id, str(cand.restart_index),
            str(int(cand_score.misclassified)),
            fmt(cand_score.wrong_confidence),
            fmt(cand_score.perturbation_norm),
            str(int(result.units_spent[i])),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def dump_candidates_csv(path: str | Path, candidates: Sequence[Candidate]) -> None:
    """One row per candidate: example_index, attack_id, restart_index, features."""
    with open(path, "w", newline="") as fh:
        d = candidates[0].adversarial_input.shape[0] if candidates else 0
        header = ["example_index", "attack_id", "restart_index"] + [f"x{j}" for j in range(d)]
        fh.write(",".join(header) + "\n")
        for c in candidates:
            row = [str(c.example_index), c.attack_id, str(c.restart_index)]
            row += [repr(float(v)) for v in c.adversarial_input]
            fh.write(",".join(row) + "\n")
