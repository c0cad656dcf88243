"""Attack bundling: pick the best adversarial candidate per example.

Running many attacks and reporting each one's error rate understates what
an attacker can do: the attacker picks the best candidate for every clean
example individually and only then averages. This module implements that
selection, the example-by-attack outcome matrix behind it, and the rounds
that run the attacks: round r runs attack r on every example still active,
and an example leaves once its goal is met. A result records the model, data,
attacks, runners, budget and seed it ran under; `complete` later runs from it,
under them, only the units such examples skipped, never a unit twice.

The clean input always participates as a zero-perturbation baseline
candidate under the reserved attack id "none", so a model that is wrong on
clean data errs at perturbation zero and the bundled error rate is a true
superset of the clean error rate.

A round runs its active examples together: their rows, one per restart
or noise sample, come from one runner call per block of whole examples, up
to `ROW_BLOCK` rows (an example with more rows is a block of its own). A
runner is a row function like `attacks.attack_rows`, which runs every
variant without a `runners` entry; it computes every row exactly as a 1-row
call would, so the result equals running `attacks.run_attack` one example
at a time, bit for bit.

Every block takes the same tail, one loop over pieces of whole examples,
up to `TAIL_BYTES` of rows each: `check_rows` rejects rows outside the ball
or [0, 1], and `probs_rows` scores the piece. An example with a non-finite
row fails, and its rows leave the scored block. A block holds the same
number of rows for each of its examples, consecutive and in example order,
so its scores form an examples x rows grid, and reductions along the grid's
rows give the outcome matrix, each example's smallest error norm and
highest wrong-class confidence, and its preferred row, which then replaces
the held choice where it is preferred; goal flags are read off the held
choice. Nothing is sorted or scattered. Scored candidates are columns
(`CandidateRows`), not objects, and one grid function (`_grid_best`) defines
the preference order for `prefer` and for `_fold_block`, the one fold into
the held choice.

Records of plain values, `CandidateScore` and `computation_log`'s
`ComputationRecord`, are named tuples: they unpack and compare by value.
`OutcomeMatrix` and `BundleResult` hold arrays, so they compare and hash by
identity.
"""

from __future__ import annotations

from collections.abc import Sequence
from copy import deepcopy
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .attacks import VARIANTS, AttackConfig, Candidate, attack_rows, check_rows, rows_per_example
from .data import Dataset, Example
from .errors import ContractError, ShapeError, is_int, is_int_or_none, is_real
from .models import (Ensemble, ModelParams, StochasticSpec, _one_row, predict_stochastic,
                     probs_rows, reduce_rows)
from .seeding import derive_seeds, seed_words
# perfbench/child.py wraps these names when it traces a run; nothing here calls them
from .attacks import run_attack, validate_candidate  # noqa: F401
from .models import predict  # noqa: F401
from .seeding import derive_seed  # noqa: F401

CLEAN_ID = "none"
THRESHOLD_RANGE = (0.5, 1.0)  # [low, high) of a confidence threshold

# most rows the engine holds at once, so peak memory does not grow with the
# number of examples; blocks hold whole examples, so an example with more
# rows than this (restarts or noise samples) is a block of its own
ROW_BLOCK = 4096

# most bytes of candidate rows checked and scored in one piece; a piece holds
# whole examples, so an example with more rows is a piece of its own. Each
# call's temporaries are as wide as a candidate or a model layer, so a block
# of wide candidates split into such pieces never holds twice its candidate
# array's memory. glibc returns the top of its heap to the OS once that top exceeds
# twice the largest array it has mapped and freed; below that, the next
# block reuses this block's pages instead of faulting in fresh ones. In
# `advbundle run` of wide-pool at bench size (blocks of 4,000 rows 32 wide,
# 1 MB each), the bundle took about 5,400 minor faults unsplit and 900 split
# in two (2-core VM, glibc 2.36). A smaller block is checked and scored
# whole, as every call has a fixed cost.
TAIL_BYTES = 1 << 19

MISCLASSIFY = "misclassify"
MAX_CONFIDENCE = "max_confidence"
MIN_NORM = "min_norm"

# run(params, config, clean (U, d), labels (U,), seeds (U,)) -> (adv, failed_at), as
# `attacks.attack_rows`: rows_per_example(config) rows per example in example
# order, and each row's failing step, -1 for a row that did not fail
Runner = Callable[[ModelParams, AttackConfig, np.ndarray, np.ndarray, list],
                  tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Criterion:
    """Per-example preference order for candidates.

    misclassify      errors first, then higher wrong-class confidence
    max_confidence   same pairwise order; the threshold only affects when
                     the scheduler stops working on an example
    min_norm         errors first, then smaller perturbation
    """

    variant: str
    threshold: float | None = None

    def __post_init__(self):
        # each message starts with its config key, so the parser reports the key's line
        if self.variant not in (MISCLASSIFY, MAX_CONFIDENCE, MIN_NORM):
            raise ContractError(f"criterion must be one of {MISCLASSIFY}, {MAX_CONFIDENCE}, "
                                f"{MIN_NORM}, got {self.variant!r}")
        if self.variant == MAX_CONFIDENCE:
            low, high = THRESHOLD_RANGE
            if not is_real(self.threshold) or not low <= self.threshold < high:
                raise ContractError(f"threshold must be a number in [{low:g}, {high:g}) "
                                    f"for {MAX_CONFIDENCE}")
        elif self.threshold is not None:
            raise ContractError(f"threshold applies only to {MAX_CONFIDENCE}, not {self.variant}")

    @classmethod
    def misclassify(cls) -> "Criterion":
        return cls(MISCLASSIFY)

    @classmethod
    def max_confidence(cls, threshold: float) -> "Criterion":
        return cls(MAX_CONFIDENCE, threshold)

    @classmethod
    def min_norm(cls) -> "Criterion":
        return cls(MIN_NORM)


class CandidateScore(NamedTuple):
    misclassified: bool
    wrong_confidence: float
    perturbation_norm: float


class CandidateRows(NamedTuple):
    """Scored candidates as columns: the fields of `Candidate` and
    `CandidateScore`, with the attack as an index into the outcome
    matrix's attack ids (0 is the clean baseline)."""

    example_index: np.ndarray      # (m,) int
    attack_code: np.ndarray        # (m,) int
    restart_index: np.ndarray      # (m,) int
    adversarial_input: np.ndarray  # (m, d)
    misclassified: np.ndarray      # (m,) bool
    wrong_confidence: np.ndarray   # (m,) float
    perturbation_norm: np.ndarray  # (m,) float

    def take(self, rows) -> "CandidateRows":
        return CandidateRows(*(col[rows] for col in self))


def _concat(parts: Sequence[CandidateRows]) -> CandidateRows:
    return CandidateRows(*(np.concatenate(cols) for cols in zip(*parts)))


def _grid_best(criterion: Criterion, mis: np.ndarray, wrong: np.ndarray,
               norm: np.ndarray) -> np.ndarray:
    """Each grid row's preferred column, from (U, m) score arrays.

    The one definition of the preference order: errors first, then under
    min_norm the smaller norm among errors, else the higher wrong-class
    confidence. Scores hold no NaN, and an exact tie keeps the first column,
    as a `prefer` fold over the columns in order does.
    """
    eligible = mis == mis.any(axis=1, keepdims=True)
    key = np.where(mis, -norm, wrong) if criterion.variant == MIN_NORM else wrong
    top = np.where(eligible, key, -np.inf).max(axis=1, keepdims=True)
    return np.argmax(eligible & (key == top), axis=1)


def _fold_block(criterion: Criterion, held: CandidateRows, rows: CandidateRows,
                per: int) -> None:
    """Fold a block, `per` rows per example in example order, into the held
    choice in place: each example's preferred row of its (U, per) grid meets
    its held row as a (U, 2) grid, the held row first so it wins ties. An
    empty block, every example of it failed, folds nothing."""
    ex = rows.example_index[::per]
    won = np.arange(0, len(rows.example_index), per) + _grid_best(
        criterion, *(col.reshape(len(ex), per) for col in rows[4:]))
    beats = _grid_best(criterion, *(np.array([mine[ex], new[won]]).T
                                    for mine, new in zip(held[4:], rows[4:]))) == 1
    to, taken = ex[beats], won[beats]
    for mine, new in zip(held, rows):
        mine[to] = new[taken]


class _Pairs(Sequence):
    """Some rows of a CandidateRows as (Candidate, CandidateScore) pairs,
    each built when it is read."""

    def __init__(self, rows: CandidateRows, which: Sequence[int], attack_ids: list[str]):
        self._rows, self._which, self._ids = rows, which, attack_ids

    def __len__(self) -> int:
        return len(self._which)

    def __getitem__(self, k: int) -> tuple[Candidate, CandidateScore]:
        c, r = self._rows, self._which[k]
        return (Candidate(int(c.example_index[r]), c.adversarial_input[r],
                          self._ids[c.attack_code[r]], int(c.restart_index[r])),
                CandidateScore(bool(c.misclassified[r]), float(c.wrong_confidence[r]),
                               float(c.perturbation_norm[r])))


@dataclass(eq=False)
class OutcomeMatrix:
    """Binary example-by-attack error indicators."""

    entries: np.ndarray
    attack_ids: list[str]

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2:
            raise ContractError("outcome matrix must be 2-D")
        if not np.all((entries == 0) | (entries == 1)):  # the cast would truncate 0.5
            raise ContractError("outcome entries must be 0 or 1")
        self.entries = entries.astype(np.int8, copy=False)
        if self.entries.shape[1] != len(self.attack_ids):
            raise ContractError("one attack id per column required")

    def per_attack_error_rates(self) -> np.ndarray:
        return self.entries.mean(axis=0)

    def bundled_error_rate(self) -> float:
        return float(self.entries.any(axis=1).mean())


class ComputationRecord(NamedTuple):
    attack_id: str
    restarts_run: int
    failed: bool = False


def check_unit_cap(cap: int | None, name: str = "max_attack_units_per_example") -> None:
    """Refuse a cap on the attack units per example unless it is None (no cap) or >= 0."""
    if not is_int_or_none(cap) or (cap is not None and cap < 0):
        raise ContractError(f"{name} must be an integer >= 0, got {cap!r}")


@dataclass(frozen=True)
class BudgetPolicy:
    """Attack executions allowed per example; one execution is one unit.

    max_attack_units_per_example=None means unlimited. early_stop=False
    disables goal-based deactivation so every attack runs on every example,
    which is what complete per-attack report columns require.
    """

    max_attack_units_per_example: int | None = None
    early_stop: bool = True

    def __post_init__(self):
        check_unit_cap(self.max_attack_units_per_example)
        if not isinstance(self.early_stop, (bool, np.bool_)):
            raise ContractError("early_stop must be true or false")

    def allowed(self, num_attacks: int) -> int:
        """Units each example may spend on a bundle of `num_attacks` attacks."""
        cap = self.max_attack_units_per_example
        return num_attacks if cap is None else min(num_attacks, cap)


def schedule(budget: BudgetPolicy, num_attacks: int, done: int, goal_met: np.ndarray,
             units: np.ndarray) -> np.ndarray:
    """Examples that run attacks[done] next, ascending; empty when the bundle is done.

    Round r runs attack r on every example with `units == done`, less the
    goal-met ones unless early_stop is off; goal flags only turn on, so such
    an example stays behind until `complete` reruns the rounds without early
    stopping. The bundle is done when `done` reaches `budget.allowed`, or
    when no example is active.
    """
    if done >= budget.allowed(num_attacks):
        return np.empty(0, dtype=np.int64)
    ready = units == done
    return np.flatnonzero(ready & ~goal_met if budget.early_stop else ready)


@dataclass(eq=False)
class BundleResult:
    """What a bundle ran under, chose and spent, as arrays over its n examples.

    params (the model), dataset, attacks, runners (a dict), budget and seed
    are what it was bundled with. chosen_rows holds example i's choice at row
    i, error_norm[i] its smallest misclassified-candidate norm under any
    criterion (0.0 if the clean input errs, inf if none), error_confidence[i]
    its highest wrong-class confidence over every candidate, the clean input
    included, and pool (keep_candidates) every scored candidate in generation
    order: the n clean rows, example i at row i, then each round's rows
    (attack codes never decrease), in example order, `rows_per_example` for
    each example not failed. candidate_counts[i, j] is how many candidates
    attack j gave example i, or -1 where it failed or never ran; example i ran
    exactly attacks[:units_spent[i]]. The rates, `stopped_early`, `chosen`,
    `all_candidates` and `computation_log` are read-only views of them.
    """

    criterion: Criterion
    attacks: tuple[AttackConfig, ...]
    budget: BudgetPolicy
    seed: int
    params: ModelParams
    dataset: Dataset
    runners: dict[str, Runner]
    chosen_rows: CandidateRows
    outcome_matrix: OutcomeMatrix
    error_norm: np.ndarray
    error_confidence: np.ndarray
    candidate_counts: np.ndarray
    units_spent: np.ndarray
    clean_confidence: np.ndarray
    pool: CandidateRows | None = None

    @property
    def per_attack_error_rates(self) -> np.ndarray:
        return self.outcome_matrix.per_attack_error_rates()

    @property
    def bundled_error_rate(self) -> float:
        return self.outcome_matrix.bundled_error_rate()

    @property
    def stopped_early(self) -> np.ndarray:
        """Examples short of the units the budget allows. Without early stopping
        every example spends them; with it, only a goal-met example falls short."""
        return self.units_spent < self.budget.allowed(len(self.attacks))

    @property
    def chosen(self) -> _Pairs:
        ids = self.outcome_matrix.attack_ids
        return _Pairs(self.chosen_rows, range(len(self.units_spent)), ids)

    @property
    def all_candidates(self) -> list[_Pairs] | None:
        if self.pool is None:
            return None
        order = np.argsort(self.pool.example_index, kind="stable")
        ends = np.cumsum(np.bincount(self.pool.example_index))[:-1]
        return [_Pairs(self.pool, rows, self.outcome_matrix.attack_ids)
                for rows in np.split(order, ends)]

    @property
    def computation_log(self) -> list[list[ComputationRecord]]:
        ids = self.outcome_matrix.attack_ids[1:]
        return [[ComputationRecord(ids[j], max(count, 0), count < 0)
                 for j, count in enumerate(counts[:units])]
                for counts, units in zip(self.candidate_counts.tolist(),
                                         self.units_spent.tolist())]

    def rate_for(self, attack_id: str) -> float:
        j = self.outcome_matrix.attack_ids.index(attack_id)
        return float(self.per_attack_error_rates[j])


def _scores(probs: np.ndarray, labels: np.ndarray,
            norms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Misclassified flags, best wrong-class probabilities and L-inf norms per row.

    A row with a non-finite probability (an overflowing model) shows no
    error: not misclassified, wrong confidence -inf, so no score is NaN.
    """
    defined = reduce_rows(np.logical_and, np.isfinite(probs))
    wrong = probs.copy()
    wrong[np.arange(len(labels)), labels] = -np.inf
    wrong = np.where(defined, reduce_rows(np.maximum, wrong), -np.inf)
    return defined & (probs.argmax(axis=1) != labels), wrong, norms


def _score(params: ModelParams, example: Example, candidate: Candidate,
           example_index: int | None, probs_of: Callable) -> CandidateScore:
    """The score of one candidate, as `_scores` scores a 1-row batch:
    probs_of maps the checked candidate (1, d) to its probabilities (1, k)."""
    if example_index is not None and candidate.example_index != example_index:
        raise ContractError(
            f"candidate belongs to example {candidate.example_index}, not {example_index}")
    clean, label = _one_row(params, example.features, example.label)
    adv, _ = _one_row(params, candidate.adversarial_input)
    norm = np.abs(adv - clean).max(axis=1)
    return CandidateScore(*(v.item() for v in _scores(probs_of(adv), label, norm)))


def score(params: ModelParams, example: Example, candidate: Candidate,
          example_index: int | None = None) -> CandidateScore:
    """Misclassification flag, best wrong-class probability, and L-inf norm."""
    return _score(params, example, candidate, example_index,
                  lambda adv: probs_rows(params, adv))


def score_stochastic(params: ModelParams, spec: StochasticSpec, example: Example,
                     candidate: Candidate, seed: int,
                     example_index: int | None = None) -> CandidateScore:
    """Like score, but against the mean probabilities of the noisy model."""
    return _score(params, example, candidate, example_index,
                  lambda adv: predict_stochastic(params, spec, adv[0], seed).probabilities[None])


def prefer(a: CandidateScore, b: CandidateScore, criterion: Criterion) -> int:
    """Index (0 or 1) of the preferred score; exact ties keep the first."""
    return int(_grid_best(criterion, *(np.array([pair]) for pair in zip(a, b)))[0])


def _goal_test(criterion: Criterion) -> Callable:
    """Whether a score meets the goal; on CandidateRows, row by row."""
    if criterion.variant == MISCLASSIFY:
        return lambda s: s.misclassified
    if criterion.variant == MAX_CONFIDENCE:
        t = criterion.threshold
        return lambda s: s.misclassified & (s.wrong_confidence > t)
    return lambda s: s.misclassified & False  # min_norm never stops early


def _block_seeds(root_seed: int, idx: np.ndarray, config: AttackConfig) -> list:
    """Each example's seed, in one array pass: derive_seed(root_seed, i,
    attack_id), or with `restart_seeds` pinned, derive_seed(s, i) for each s."""
    idx = np.array(idx, dtype=np.uint64)
    if config.restart_seeds is not None:
        return derive_seeds(seed_words(config.restart_seeds), idx[:, None]).tolist()
    return derive_seeds(root_seed, idx, config.attack_id).tolist()


def _run_block(result: BundleResult, pool_blocks: list | None, code: int,
               idx: np.ndarray) -> None:
    """Run the result's attack `code` on the examples `idx` with one call of
    its runner, check and score its rows, and fold them into `result` in
    place (see `_advance`).

    One loop checks and scores the rows, piece by piece (see `TAIL_BYTES`).
    An example with a failed or non-finite row counts -1; its rows are scored
    with the rest, each as a 1-row call would score it, and leave the block
    in one `take`, which copies the rows only when some example failed.
    Unless `pool_blocks` keeps them, the block's arrays are this call's
    locals, so they are freed at its fold, before the next block is drawn.
    """
    params, dataset, config = result.params, result.dataset, result.attacks[code - 1]
    y, d = dataset.labels, dataset.dimension
    per, clean = rows_per_example(config), dataset.features[idx]
    run = result.runners.get(config.variant, attack_rows)
    adv, failed_at = run(params, config, clean, y[idx], _block_seeds(result.seed, idx, config))
    rows = len(idx) * per
    if np.shape(adv) != (rows, d) or np.shape(failed_at) != (rows,):
        raise ShapeError(f"attack {config.attack_id!r} gave adv {np.shape(adv)} and "
                         f"failed_at {np.shape(failed_at)}, not {(rows, d)} and {(rows,)}")
    grid, norms, probs = adv.reshape(len(idx), per, d), [], []
    step = max(1, TAIL_BYTES // (adv.itemsize * d * per))  # examples a piece holds
    for lo in range(0, len(idx), step):
        norms.append(check_rows(grid[lo:lo + step], clean[lo:lo + step, None, :],
                                config.epsilon, config.attack_id))
        probs.append(probs_rows(params, adv[lo * per:(lo + step) * per]))
    norms, probs = np.concatenate(norms), np.concatenate(probs)
    failed = ((failed_at >= 0).reshape(len(idx), per).any(axis=1)
              | ~reduce_rows(np.logical_and, np.isfinite(norms)))
    result.candidate_counts[idx, code - 1] = np.where(failed, -1, per)
    block = CandidateRows(np.repeat(idx, per), np.full(rows, code),
                          np.tile(np.arange(per), len(idx)), adv,
                          *_scores(probs, y[idx].repeat(per), norms.reshape(-1)))
    if failed.any():
        block = block.take(np.repeat(~failed, per))
    if pool_blocks is not None:
        pool_blocks.append(block)
    ex = block.example_index[::per]
    mis, wrong, norm = (col.reshape(len(ex), per) for col in block[4:])
    result.outcome_matrix.entries[ex, code] = mis.any(axis=1)
    result.error_norm[ex] = np.minimum(result.error_norm[ex],
                                       np.where(mis, norm, np.inf).min(axis=1))
    result.error_confidence[ex] = np.maximum(result.error_confidence[ex], wrong.max(axis=1))
    _fold_block(result.criterion, result.chosen_rows, block, per)


def _check_attack(a: AttackConfig, seen: set[str],
                  runners: Mapping[str, Runner] | None = None) -> None:
    """Refuse one entry of an attack list whose earlier entries' ids are `seen`
    (see `check_attacks`), then add its id to `seen`."""
    if not isinstance(a, AttackConfig):
        raise ContractError(f"attacks must hold AttackConfig entries, got {a!r}")
    if a.attack_id == CLEAN_ID:
        raise ContractError(f"attack_id {CLEAN_ID!r} is reserved for the clean baseline")
    if a.attack_id in seen:
        raise ContractError(f"duplicate attack id {a.attack_id!r}")
    seen.add(a.attack_id)
    if a.variant not in VARIANTS and a.variant not in (runners or {}):
        raise ContractError(f"no runner for variant {a.variant!r} (attack {a.attack_id!r})")


def check_attacks(attacks: Sequence[AttackConfig],
                  runners: Mapping[str, Runner] | None = None) -> None:
    """Refuse an attack list unless it is a sequence of `AttackConfig`s with
    unique ids, none of them `CLEAN_ID`, and `attacks.attack_rows` or `runners`
    runs each variant. One `_check_attack` per entry, against one set of the
    ids before it, so linear in the length of the list; the config parser
    makes the same calls as it reads each section."""
    if not isinstance(attacks, Sequence):
        raise ContractError(f"attacks must be a sequence of AttackConfig entries, got {attacks!r}")
    seen = set()
    for a in attacks:
        _check_attack(a, seen, runners)


def _check_run(criterion: Criterion, budget: BudgetPolicy | None = None, seed: int = 0) -> None:
    """Refuse a criterion, budget or root seed of the wrong type, naming the argument."""
    if not isinstance(criterion, Criterion):
        raise ContractError(f"criterion must be a Criterion, got {criterion!r}")
    if not (budget is None or isinstance(budget, BudgetPolicy)):
        raise ContractError(f"budget must be a BudgetPolicy or None, got {budget!r}")
    if not is_int(seed):
        raise ContractError(f"seed must be an integer, got {seed!r}")


# an overflowing model shows in the scores (`_scores`) and failed units, not as warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def bundle(params: ModelParams, dataset: Dataset, attacks: Sequence[AttackConfig],
           criterion: Criterion, budget: BudgetPolicy | None = None, seed: int = 0,
           runners: Mapping[str, Runner] | None = None,
           keep_candidates: bool = False) -> BundleResult:
    """Run every scheduled attack and keep the best candidate per example.

    The chosen candidate is maximal under `prefer` among everything
    generated for that example, including the clean baseline. A failed
    attack, including one that returns a non-finite candidate, counts -1 and
    contributes nothing; it never aborts the bundle. Deterministic given
    seed: every (example, attack, restart) draws from its own derive_seed
    stream, so no draw depends on the schedule or on which other examples
    and attacks ran. `runners` maps a variant to the row function that runs
    it in place of `attacks.attack_rows` (see `Runner` and the module
    docstring); any variant beyond fgsm, pgd and uniform_noise needs one.
    The attack list (`check_attacks`), criterion, budget and seed
    (`_check_run`) are refused, if bad, before any model call.
    """
    check_attacks(attacks, runners)
    _check_run(criterion, budget, seed)
    attacks = tuple(attacks)
    ids = [a.attack_id for a in attacks]
    if len(dataset) == 0:
        raise ContractError("cannot bundle over an empty dataset")
    if dataset.dimension != params.dimension:
        raise ShapeError(f"dataset dimension {dataset.dimension} does not match model "
                         f"dimension {params.dimension}")
    X, y = dataset.features, dataset.labels
    if y.max() >= params.num_classes:
        raise ShapeError(f"label {y.max()} is not one of the model's "
                         f"{params.num_classes} classes")

    n = len(dataset)
    probs = probs_rows(params, X)
    zeros = np.zeros(n, dtype=np.int64)
    clean = CandidateRows(np.arange(n), zeros, zeros, X, *_scores(probs, y, np.zeros(n)))
    start = BundleResult(criterion, attacks, budget if budget is not None else BudgetPolicy(),
                         seed, params, dataset, dict(runners or {}), clean,
                         OutcomeMatrix(np.c_[clean.misclassified, np.zeros((n, len(attacks)))],
                                       [CLEAN_ID] + ids),
                         np.where(clean.misclassified, 0.0, np.inf), clean.wrong_confidence.copy(),
                         np.full((n, len(attacks)), -1, dtype=np.int64), zeros.copy(),
                         probs.max(axis=1))
    return _advance(start, [clean] if keep_candidates else None)


def complete(result: BundleResult) -> BundleResult:
    """Run, on a copy of `result`, only the units its early-stopped examples skipped.

    Returns what `bundle` returns for the result's model, data, attacks,
    runners and seed under its budget with early stopping off, array for
    array, with no pool: each (example, attack, restart) has its own seed
    stream, and each round folds each example's candidates into its choice
    in the same order. The copy shares the model, data and runners. Returns
    `result` itself when no example stopped early; refuses, before the copy,
    attacks that `check_attacks` refuses under the result's runners."""
    if not result.stopped_early.any():
        return result
    check_attacks(result.attacks, result.runners)
    shared = {id(v): v for v in (result.params, result.dataset, result.runners)}
    exhaustive = replace(result.budget, early_stop=False)
    return _advance(deepcopy(replace(result, budget=exhaustive, pool=None), shared), None)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as `bundle`
def _advance(result: BundleResult, pool_blocks: list | None) -> BundleResult:
    """Run the rounds `schedule` picks from `units_spent.min()`, folding into `result` in place.

    A round runs its active examples in blocks of whole examples, one
    `_run_block` call each. A block holds `per` rows for each of its
    examples, in example order, so its score columns reshape to a (U, per)
    grid, and each example's outcome entry, smallest error norm and highest
    confidence are reductions along its grid row; `_fold_block` folds its
    preferred row into the held choice, which meets the goal iff some
    candidate did, as it is preferred to all. The held columns are copied
    once, as `bundle()`'s clean rows alias the dataset and the pool."""
    attacks, budget = result.attacks, result.budget
    goal, units = _goal_test(result.criterion), result.units_spent
    result.chosen_rows = CandidateRows(*(col.copy() for col in result.chosen_rows))

    done = int(units.min())
    while len(active := schedule(budget, len(attacks), done, goal(result.chosen_rows), units)):
        cfg, code = attacks[done], done + 1
        done += 1
        units[active] += 1
        size = max(1, ROW_BLOCK // rows_per_example(cfg))
        for start in range(0, len(active), size):
            _run_block(result, pool_blocks, code, active[start:start + size])

    result.pool = _concat(pool_blocks) if pool_blocks is not None else None
    if result.bundled_error_rate != float(np.mean(result.chosen_rows.misclassified)):
        raise ContractError("bundled error rate (row-wise OR of the outcome matrix) "
                            "disagrees with the chosen candidates")
    return result


def reselect(result: BundleResult, criterion: Criterion) -> BundleResult:
    """Re-run per-example selection under a different criterion.

    Valid only for exhaustive runs that kept their candidate pools: every
    attack must have run on every example, otherwise a criterion with a
    different stopping goal would have generated different candidates.
    Outcome matrix, rates, and spend are criterion-independent and carry over.
    The pool is refolded as `bundle()` folded it, from the clean rows one
    round at a time, each round a slice of the pool (see `BundleResult`); a
    pool in any other layout is refused.
    """
    _check_run(criterion)
    if result.pool is None:
        raise ContractError("reselect needs a result built with keep_candidates=True")
    if np.any(result.units_spent < len(result.attacks)):
        raise ContractError("reselect needs an exhaustive run (every attack on "
                            "every example)")
    pool, n = result.pool, len(result.units_spent)
    pers = [rows_per_example(cfg) for cfg in result.attacks]
    ran = [np.repeat(np.flatnonzero(counts != -1), per)
           for counts, per in zip(result.candidate_counts.T, pers)]
    sizes = [n] + [len(rows) for rows in ran]
    if not (np.array_equal(pool.attack_code, np.repeat(np.arange(len(sizes)), sizes))
            and np.array_equal(pool.example_index, np.concatenate([np.arange(n)] + ran))):
        raise ContractError("reselect needs the pool in bundle() order: the n clean rows, "
                            "then each attack's rows for the examples it did not fail on")
    ends = np.cumsum(sizes)
    chosen = pool.take(np.arange(n))
    for per, lo, hi in zip(pers, ends, ends[1:]):
        _fold_block(criterion, chosen, pool.take(slice(lo, hi)), per)
    return replace(result, criterion=criterion, chosen_rows=chosen)


def select_by_ensemble(ensemble: Ensemble, example: Example,
                       candidates: Sequence[Candidate]) -> Candidate:
    """Candidate fooling the most members; ties go to higher mean
    wrong-class confidence, then to the first seen. As in `bundle()`, a
    member whose probabilities are not finite is not fooled and gives
    wrong-class confidence -inf."""
    if not candidates:
        raise ContractError("select_by_ensemble needs at least one candidate")
    first = ensemble.members[0]
    _, label = _one_row(first, example.features, example.label)
    X = np.concatenate([_one_row(first, c.adversarial_input)[0] for c in candidates])
    fooled, wrong, _ = zip(*(_scores(probs_rows(member, X), label.repeat(len(X)), None)
                             for member in ensemble.members))
    # members on the contiguous last axis: each mean sums as np.mean of a list
    keys = list(zip(np.sum(fooled, axis=0).tolist(),
                    np.stack(wrong, axis=1).mean(axis=1).tolist()))
    return candidates[max(range(len(keys)), key=keys.__getitem__)]


def check_gap_size(n: int, name: str = "n") -> None:
    """Refuse a gap size, the n of `wat_gap_construction(n)`, unless it is an integer >= 1."""
    if not is_int(n):
        raise ContractError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ContractError(f"{name} must be >= 1")


def wat_gap_construction(n: int) -> OutcomeMatrix:
    """The n-attack, n-example diagonal where attack i fools only example i.

    Every per-attack error rate is 1/n while the bundled rate is 1, so the
    worst single attack understates the bundled attacker by 1 - 1/n.
    """
    check_gap_size(n)
    return OutcomeMatrix(np.eye(n, dtype=np.int8),
                         [f"attack-{i + 1}" for i in range(n)])
