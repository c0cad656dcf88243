"""Attack bundling: pick the best adversarial candidate per example.

Running many attacks and reporting each one's error rate understates what
an attacker can do: the attacker picks the best candidate for every clean
example individually and only then averages. This module implements that
selection, the example-by-attack outcome matrix behind it, and the rounds
that run the attacks: round r runs attack r on every example still active,
and an example leaves for good once its goal is met, so no attack
execution is spent on it after that.

The clean input always participates as a zero-perturbation baseline
candidate under the reserved attack id "none", so a model that is wrong on
clean data errs at perturbation zero and the bundled error rate is a true
superset of the clean error rate.

A round of a built-in attack (fgsm, pgd, uniform_noise) runs its active
examples together on the row engine: their rows, one per restart or noise
sample, go to `attacks.attack_rows` in blocks of at most `ROW_BLOCK` rows.
Every row is computed exactly as a 1-row call would compute it, so the
result equals running `attacks.run_attack` one example at a time, bit for
bit. An attack with a `runners` entry (any variant beyond the built-in
three) makes one block per example, one runner call each.

Every block takes the same tail: one `check_rows` call rejects rows outside
the ball or [0, 1] and fails examples with a non-finite row, one
`probs_rows` call scores the rest, and array operations fold them into the
outcome matrix, the goal flags, each example's running choice and its
smallest error norm. Scored candidates are columns (`CandidateRows`), not
objects, and one stable sort (`_best`) defines the preference order for
`prefer`, the running choice and `reselect`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import astuple, dataclass, replace
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .attacks import (VARIANTS, AttackConfig, Candidate, attack_rows, check_rows,
                      is_int_or_none, rows_per_example)
# perfbench/child.py wraps these names when it traces a run; nothing here calls them
from .attacks import run_attack, validate_candidate  # noqa: F401
from .data import Dataset, Example
from .errors import AttackFailedError, ContractError, ShapeError
from .models import (Ensemble, ModelParams, Prediction, StochasticSpec, _check_input,
                     predict, predict_stochastic, probs_rows)
from .seeding import derive_seed

CLEAN_ID = "none"

# most rows the engine holds at once, so peak memory does not grow with the
# number of examples; blocks hold whole examples, so an example with more
# rows than this (restarts or noise samples) is a block of its own
ROW_BLOCK = 4096

MISCLASSIFY = "misclassify"
MAX_CONFIDENCE = "max_confidence"
MIN_NORM = "min_norm"

Runner = Callable[[ModelParams, Example, AttackConfig, object, int], list[Candidate]]


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
        if self.variant not in (MISCLASSIFY, MAX_CONFIDENCE, MIN_NORM):
            raise ContractError(f"unknown criterion {self.variant!r}")
        if self.variant == MAX_CONFIDENCE:
            if self.threshold is None or not 0.5 <= self.threshold < 1.0:
                raise ContractError("max_confidence threshold must lie in [0.5, 1)")
        elif self.threshold is not None:
            raise ContractError(f"{self.variant} takes no threshold")

    @classmethod
    def misclassify(cls) -> "Criterion":
        return cls(MISCLASSIFY)

    @classmethod
    def max_confidence(cls, threshold: float) -> "Criterion":
        return cls(MAX_CONFIDENCE, threshold)

    @classmethod
    def min_norm(cls) -> "Criterion":
        return cls(MIN_NORM)


@dataclass(frozen=True)
class CandidateScore:
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


def _best(criterion: Criterion, rows: CandidateRows) -> np.ndarray:
    """Position of each example's preferred row, examples in ascending order.

    The one definition of the preference order, as sort keys (smaller is
    preferred): errors first, then under min_norm the smaller norm among
    errors, else the higher wrong-class confidence. Scores hold no NaN, and
    the sort is stable, so exact ties keep the earlier row as a `prefer` fold.
    """
    mis, wrong, group = rows.misclassified, rows.wrong_confidence, rows.example_index
    keys = ([np.where(mis, 0.0, -wrong), np.where(mis, rows.perturbation_norm, 0.0)]
            if criterion.variant == MIN_NORM else [-wrong])
    order = np.lexsort(keys + [~mis, group])  # the last key sorts first
    group = group[order]
    return order[np.r_[True, group[1:] != group[:-1]]]


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


@dataclass
class OutcomeMatrix:
    """Binary example-by-attack error indicators."""

    entries: np.ndarray
    attack_ids: list[str]

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int8)
        if self.entries.ndim != 2:
            raise ContractError("outcome matrix must be 2-D")
        if not np.all((self.entries == 0) | (self.entries == 1)):
            raise ContractError("outcome entries must be 0 or 1")
        if self.entries.shape[1] != len(self.attack_ids):
            raise ContractError("one attack id per column required")

    def per_attack_error_rates(self) -> np.ndarray:
        return self.entries.mean(axis=0)

    def bundled_error_rate(self) -> float:
        return float(self.entries.any(axis=1).mean())


@dataclass
class ComputationRecord:
    attack_id: str
    restarts_run: int
    failed: bool = False


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
        cap = self.max_attack_units_per_example
        if not is_int_or_none(cap) or (cap is not None and cap < 0):
            raise ContractError("max_attack_units_per_example must be an integer >= 0")


def schedule(budget: BudgetPolicy, num_attacks: int, done: int,
             goal_met: np.ndarray) -> np.ndarray:
    """Examples that run attacks[done] next, ascending; empty when the bundle is done.

    Round r runs attack r on every example still active. An example leaves
    when its goal is met (unless early_stop is off) and never returns, since
    goal flags only turn on, so every active example has run exactly the
    `done` attacks before this round. The bundle is done when every attack
    has run, when `done` reaches the unit cap, or when no example is active.
    """
    cap = budget.max_attack_units_per_example
    if done >= num_attacks or (cap is not None and done >= cap):
        return np.empty(0, dtype=np.int64)
    if budget.early_stop:
        return np.flatnonzero(np.logical_not(goal_met))
    return np.arange(len(goal_met))


@dataclass
class BundleResult:
    """What a bundle chose and spent, as arrays over its n examples.

    chosen_rows holds example i's choice at row i, error_norm[i] its smallest
    misclassified-candidate norm under any criterion (0.0 if the clean input
    errs, inf if none), and pool (keep_candidates) every scored candidate in
    generation order. candidate_counts[i, j] is how many candidates attack j
    gave example i, or -1 where it failed or never ran; example i ran
    exactly attacks[:units_spent[i]]. The rates, `chosen`, `all_candidates`
    and `computation_log` are read-only views of them.
    """

    criterion: Criterion
    chosen_rows: CandidateRows
    outcome_matrix: OutcomeMatrix
    error_norm: np.ndarray
    candidate_counts: np.ndarray
    units_spent: np.ndarray
    stopped_early: np.ndarray
    clean_confidence: np.ndarray
    pool: CandidateRows | None = None

    @property
    def per_attack_error_rates(self) -> np.ndarray:
        return self.outcome_matrix.per_attack_error_rates()

    @property
    def bundled_error_rate(self) -> float:
        return self.outcome_matrix.bundled_error_rate()

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
    defined = np.isfinite(probs).all(axis=1)
    wrong = probs.copy()
    wrong[np.arange(len(labels)), labels] = -np.inf
    wrong = np.where(defined, wrong.max(axis=1), -np.inf)
    return defined & (probs.argmax(axis=1) != labels), wrong, norms


def _scored(params: ModelParams, y: np.ndarray, example_index: np.ndarray, code: int,
            restart_index: np.ndarray, adv: np.ndarray, norms: np.ndarray) -> CandidateRows:
    """Candidate rows of one attack, scored with one probs_rows call."""
    return CandidateRows(example_index, np.full(len(adv), code), restart_index, adv,
                         *_scores(probs_rows(params, adv), y[example_index], norms))


def _score_from_prediction(pred: Prediction, example: Example,
                           candidate: Candidate) -> CandidateScore:
    norm = np.max(np.abs(candidate.adversarial_input - example.features))
    scores = _scores(pred.probabilities[None, :], np.array([example.label]), np.array([norm]))
    return CandidateScore(*(v.item() for v in scores))


def score(params: ModelParams, example: Example, candidate: Candidate,
          example_index: int | None = None) -> CandidateScore:
    """Misclassification flag, best wrong-class probability, and L-inf norm."""
    if example_index is not None and candidate.example_index != example_index:
        raise ContractError(
            f"candidate belongs to example {candidate.example_index}, not {example_index}")
    pred = predict(params, candidate.adversarial_input)
    return _score_from_prediction(pred, example, candidate)


def score_stochastic(params: ModelParams, spec: StochasticSpec, example: Example,
                     candidate: Candidate, seed: int,
                     example_index: int | None = None) -> CandidateScore:
    """Like score, but against the mean probabilities of the noisy model."""
    if example_index is not None and candidate.example_index != example_index:
        raise ContractError(
            f"candidate belongs to example {candidate.example_index}, not {example_index}")
    pred = predict_stochastic(params, spec, candidate.adversarial_input, seed)
    return _score_from_prediction(pred, example, candidate)


def prefer(a: CandidateScore, b: CandidateScore, criterion: Criterion) -> int:
    """Index (0 or 1) of the preferred score; exact ties keep the first."""
    scores = (np.array(pair) for pair in zip(astuple(a), astuple(b)))
    rows = CandidateRows(np.zeros(2, dtype=np.int64), None, None, None, *scores)
    return int(_best(criterion, rows)[0])


def _goal_test(criterion: Criterion) -> Callable:
    """Whether a score meets the goal; on CandidateRows, row by row."""
    if criterion.variant == MISCLASSIFY:
        return lambda s: s.misclassified
    if criterion.variant == MAX_CONFIDENCE:
        t = criterion.threshold
        return lambda s: s.misclassified & (s.wrong_confidence > t)
    return lambda s: s.misclassified & False  # min_norm never stops early


def _choose(chosen: CandidateRows, rows: CandidateRows, criterion: Criterion) -> None:
    """Fold a block into the running choice (example i at row i), in place."""
    both = _concat([chosen.take(np.unique(rows.example_index)), rows])
    won = both.take(_best(criterion, both))
    for col, new in zip(chosen, won):
        col[won.example_index] = new


def _seeds_for(root_seed: int, example_index: int, config: AttackConfig):
    if config.restart_seeds is not None:
        return [derive_seed(s, example_index) for s in config.restart_seeds]
    return derive_seed(root_seed, example_index, config.attack_id)


def _engine(params: ModelParams, config: AttackConfig, X: np.ndarray, y: np.ndarray,
            members: list[int], root_seed: int) -> Iterator[tuple]:
    """Run a built-in attack on the examples `members` in row blocks. Per block,
    yield its examples, rows per example, restart indices, rows, failed flags."""
    per = rows_per_example(config)
    block = max(1, ROW_BLOCK // per)
    for start in range(0, len(members), block):
        idx = members[start:start + block]
        adv, failed_at = attack_rows(params, config, X[idx], y[idx],
                                     [_seeds_for(root_seed, i, config) for i in idx])
        yield (idx, per, np.tile(np.arange(per), len(idx)), adv,
               (failed_at >= 0).reshape(len(idx), per).any(axis=1))


def _runner_blocks(runner: Runner, params: ModelParams, config: AttackConfig,
                   dataset: Dataset, members: list[int], root_seed: int) -> Iterator[tuple]:
    """Call a runner on each example of `members`; yield one block per example,
    as `_engine` does."""
    d = dataset.dimension
    for i in members:
        try:
            cands, failed = runner(params, dataset[i], config,
                                   _seeds_for(root_seed, i, config), i), False
        except AttackFailedError:
            cands, failed = [], True
        for c in cands:
            if c.example_index != i:
                raise ContractError(f"candidate belongs to example {c.example_index}, not {i}")
            if np.shape(c.adversarial_input) != (d,):
                raise ShapeError(f"candidate shape {np.shape(c.adversarial_input)} is not ({d},)")
        yield ([i], len(cands), np.array([c.restart_index for c in cands], dtype=np.int64),
               np.array([c.adversarial_input for c in cands]).reshape(-1, d), failed)


def _checked(params: ModelParams, config: AttackConfig, code: int, X: np.ndarray,
             y: np.ndarray, blocks: Iterator[tuple]
             ) -> Iterator[tuple[list[int], np.ndarray, CandidateRows]]:
    """Check and score the raw blocks of `_engine` or `_runner_blocks`. Per block,
    yield its examples, each one's candidate count (-1 where it failed or gave a
    non-finite row) and the scored candidates of the others. A block's raw rows
    are dropped once it is scored, so they never outlive the round."""
    for idx, per, restarts, adv, failed in blocks:
        norms = check_rows(adv.reshape(len(idx), per, X.shape[1]), X[idx][:, None, :],
                           config.epsilon, config.attack_id)
        failed = np.logical_or(failed, ~np.isfinite(norms).all(axis=1))
        keep = np.repeat(~failed, per)
        yield idx, np.where(failed, -1, per), _scored(
            params, y, np.repeat(idx, per)[keep], code, restarts[keep], adv[keep],
            norms.reshape(-1)[keep])


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
    and attacks ran. Built-in variants without a `runners`
    entry run on the row engine (see the module docstring); the result is
    the same as with runners={variant: run_attack}.
    """
    budget = budget if budget is not None else BudgetPolicy()
    attacks = list(attacks)
    ids = [a.attack_id for a in attacks]
    if len(set(ids)) != len(ids):
        raise ContractError("attack_ids must be unique within a bundle")
    if CLEAN_ID in ids:
        raise ContractError(f"attack_id {CLEAN_ID!r} is reserved for the clean baseline")
    runners = runners or {}
    for a in attacks:
        if a.variant not in VARIANTS and a.variant not in runners:
            raise ContractError(f"no runner for variant {a.variant!r} (attack {a.attack_id!r})")
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
    goal = _goal_test(criterion)
    entries = np.zeros((n, 1 + len(attacks)), dtype=np.int8)
    counts = np.full((n, len(attacks)), -1, dtype=np.int64)
    units = np.zeros(n, dtype=np.int64)

    probs = probs_rows(params, X)
    zeros = np.zeros(n, dtype=np.int64)
    clean = CandidateRows(np.arange(n), zeros, zeros, X, *_scores(probs, y, np.zeros(n)))
    chosen = CandidateRows(*(col.copy() for col in clean))
    pool_blocks = [clean] if keep_candidates else None
    entries[:, 0] = clean.misclassified
    error_norm = np.where(clean.misclassified, 0.0, np.inf)
    goal_met = np.array(goal(clean), dtype=bool)

    done = 0
    while len(active := schedule(budget, len(attacks), done, goal_met)):
        cfg, code, members = attacks[done], done + 1, active.tolist()
        done += 1
        units[active] += 1
        blocks = (_engine(params, cfg, X, y, members, seed) if cfg.variant not in runners
                  else _runner_blocks(runners[cfg.variant], params, cfg, dataset, members, seed))
        for idx, count, rows in _checked(params, cfg, code, X, y, blocks):
            counts[idx, code - 1] = count
            if not len(rows.example_index):
                continue
            if pool_blocks is not None:
                pool_blocks.append(rows)
            fooled = rows.example_index[rows.misclassified]
            entries[fooled, code] = 1
            np.minimum.at(error_norm, fooled, rows.perturbation_norm[rows.misclassified])
            goal_met[rows.example_index[goal(rows)]] = True
            _choose(chosen, rows, criterion)

    cap = budget.max_attack_units_per_example
    allowed = len(attacks) if cap is None else min(len(attacks), cap)
    stopped = budget.early_stop & goal_met & (units < allowed)
    pool = _concat(pool_blocks) if pool_blocks is not None else None
    result = BundleResult(criterion, chosen, OutcomeMatrix(entries, [CLEAN_ID] + ids),
                          error_norm, counts, units, stopped, probs.max(axis=1), pool)
    if result.bundled_error_rate != float(np.mean(chosen.misclassified)):
        raise ContractError("bundled error rate (row-wise OR of the outcome matrix) "
                            "disagrees with the chosen candidates")
    return result


def reselect(result: BundleResult, criterion: Criterion) -> BundleResult:
    """Re-run per-example selection under a different criterion.

    Valid only for exhaustive runs that kept their candidate pools: every
    attack must have run on every example, otherwise a criterion with a
    different stopping goal would have generated different candidates.
    Outcome matrix, rates, and spend are criterion-independent and carry over.
    """
    if result.pool is None:
        raise ContractError("reselect needs a result built with keep_candidates=True")
    n_attacks = len(result.outcome_matrix.attack_ids) - 1
    if np.any(result.units_spent < n_attacks):
        raise ContractError("reselect needs an exhaustive run (every attack on "
                            "every example)")
    return replace(result, criterion=criterion,
                   chosen_rows=result.pool.take(_best(criterion, result.pool)))


def select_by_ensemble(ensemble: Ensemble, example: Example,
                       candidates: Sequence[Candidate]) -> Candidate:
    """Candidate fooling the most members; ties go to higher mean
    wrong-class confidence, then to the first seen. As in `bundle()`, a
    member whose probabilities are not finite is not fooled and gives
    wrong-class confidence -inf."""
    if not candidates:
        raise ContractError("select_by_ensemble needs at least one candidate")
    X = np.stack([_check_input(ensemble.members[0], c.adversarial_input)
                  for c in candidates])
    labels = np.full(len(X), example.label)
    fooled, wrong, _ = zip(*(_scores(probs_rows(member, X), labels, None)
                             for member in ensemble.members))
    # members on the contiguous last axis: each mean sums as np.mean of a list
    keys = list(zip(np.sum(fooled, axis=0).tolist(),
                    np.stack(wrong, axis=1).mean(axis=1).tolist()))
    return candidates[max(range(len(keys)), key=keys.__getitem__)]


def wat_gap_construction(n: int) -> OutcomeMatrix:
    """The n-attack, n-example diagonal where attack i fools only example i.

    Every per-attack error rate is 1/n while the bundled rate is 1, so the
    worst single attack understates the bundled attacker by 1 - 1/n.
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    return OutcomeMatrix(np.eye(n, dtype=np.int8),
                         [f"attack-{i + 1}" for i in range(n)])
