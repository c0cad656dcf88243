"""Attack bundling: pick the best adversarial candidate per example.

Running many attacks and reporting each one's error rate understates what
an attacker can do: the attacker picks the best candidate for every clean
example individually and only then averages. This module implements that
selection, the example-by-attack outcome matrix behind it, and a
round-based scheduler that stops spending attack executions on examples
whose goal is already met.

The clean input always participates as a zero-perturbation baseline
candidate under the reserved attack id "none", so a model that is wrong on
clean data errs at perturbation zero and the bundled error rate is a true
superset of the clean error rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .attacks import AttackConfig, Candidate, run_attack, validate_candidate
from .data import Dataset, Example
from .errors import AttackFailedError, ContractError
from .models import (Ensemble, ModelParams, Prediction, StochasticSpec,
                     ensemble_fooled_count, predict, predict_stochastic)
from .seeding import derive_seed

CLEAN_ID = "none"

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
    stopped_early: bool = False
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
        if cap is not None and cap < 0:
            raise ContractError("max_attack_units_per_example must be >= 0")


@dataclass
class ScheduleState:
    """Per-example progress the scheduler decides from."""

    attacks: tuple[AttackConfig, ...]
    attacks_run: list[int]
    goal_met: list[bool]


def schedule(budget: BudgetPolicy, state: ScheduleState) -> list[tuple[int, AttackConfig]]:
    """Next round of (example_index, attack) assignments; empty when done.

    Each round gives every still-active example its next unrun attack, in
    the declared attack order. An example deactivates when its goal is met
    (unless early_stop is off), when it has run every attack, or when it
    exhausts the unit budget.
    """
    cap = budget.max_attack_units_per_example
    out = []
    for i, done in enumerate(state.attacks_run):
        if done >= len(state.attacks):
            continue
        if cap is not None and done >= cap:
            continue
        if budget.early_stop and state.goal_met[i]:
            continue
        out.append((i, state.attacks[done]))
    return out


@dataclass
class BundleResult:
    criterion: Criterion
    chosen: list[tuple[Candidate, CandidateScore]]
    outcome_matrix: OutcomeMatrix
    per_attack_error_rates: np.ndarray
    bundled_error_rate: float
    computation_log: list[list[ComputationRecord]]
    units_spent: np.ndarray
    stopped_early: np.ndarray
    all_candidates: list[list[tuple[Candidate, CandidateScore]]] | None = None

    def rate_for(self, attack_id: str) -> float:
        j = self.outcome_matrix.attack_ids.index(attack_id)
        return float(self.per_attack_error_rates[j])

    def chosen_misclassified(self) -> np.ndarray:
        return np.array([s.misclassified for _, s in self.chosen], dtype=bool)

    def chosen_wrong_confidence(self) -> np.ndarray:
        return np.array([s.wrong_confidence for _, s in self.chosen])

    def chosen_norms(self) -> np.ndarray:
        return np.array([s.perturbation_norm for _, s in self.chosen])


def _score_from_prediction(pred: Prediction, example: Example,
                           candidate: Candidate) -> CandidateScore:
    probs = pred.probabilities.copy()
    probs[example.label] = -np.inf
    wrong_conf = float(probs.max())
    norm = float(np.max(np.abs(candidate.adversarial_input - example.features)))
    return CandidateScore(pred.predicted_class != example.label, wrong_conf, norm)


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
    if a.misclassified != b.misclassified:
        return 0 if a.misclassified else 1
    if criterion.variant == MIN_NORM and a.misclassified:
        if a.perturbation_norm != b.perturbation_norm:
            return 0 if a.perturbation_norm < b.perturbation_norm else 1
        return 0
    if a.wrong_confidence != b.wrong_confidence:
        return 0 if a.wrong_confidence > b.wrong_confidence else 1
    return 0


def _goal_test(criterion: Criterion) -> Callable[[CandidateScore], bool]:
    if criterion.variant == MISCLASSIFY:
        return lambda s: s.misclassified
    if criterion.variant == MAX_CONFIDENCE:
        t = criterion.threshold
        return lambda s: s.misclassified and s.wrong_confidence > t
    return lambda s: False  # min_norm never stops early


def _seeds_for(root_seed: int, example_index: int, config: AttackConfig):
    if config.restart_seeds is not None:
        return [derive_seed(s, example_index) for s in config.restart_seeds]
    return derive_seed(root_seed, example_index, config.attack_id)


def bundle(params: ModelParams, dataset: Dataset, attacks: Sequence[AttackConfig],
           criterion: Criterion, budget: BudgetPolicy | None = None, seed: int = 0,
           runners: Mapping[str, Runner] | None = None,
           keep_candidates: bool = False) -> BundleResult:
    """Run every scheduled attack and keep the best candidate per example.

    The chosen candidate is maximal under `prefer` among everything
    generated for that example, including the clean baseline. A failed
    attack, including one that returns a non-finite candidate, is logged
    and contributes nothing; it never aborts the bundle. Deterministic
    given seed: every (example, attack, restart) draws from its own
    derive_seed stream, so no draw depends on the schedule or on which
    other examples and attacks ran.
    """
    budget = budget if budget is not None else BudgetPolicy()
    attacks = list(attacks)
    ids = [a.attack_id for a in attacks]
    if len(set(ids)) != len(ids):
        raise ContractError("attack_ids must be unique within a bundle")
    if CLEAN_ID in ids:
        raise ContractError(f"attack_id {CLEAN_ID!r} is reserved for the clean baseline")
    if len(dataset) == 0:
        raise ContractError("cannot bundle over an empty dataset")

    n = len(dataset)
    goal = _goal_test(criterion)
    col_of = {a: j + 1 for j, a in enumerate(ids)}
    entries = np.zeros((n, 1 + len(attacks)), dtype=np.int8)
    chosen: list[tuple[Candidate, CandidateScore]] = []
    pools: list[list[tuple[Candidate, CandidateScore]]] | None = (
        [[] for _ in range(n)] if keep_candidates else None)
    log: list[list[ComputationRecord]] = [[] for _ in range(n)]

    for i, ex in enumerate(dataset.examples):
        base = Candidate(i, ex.features.copy(), CLEAN_ID, 0)
        base_score = score(params, ex, base, example_index=i)
        chosen.append((base, base_score))
        entries[i, 0] = int(base_score.misclassified)
        if pools is not None:
            pools[i].append((base, base_score))

    state = ScheduleState(tuple(attacks), [0] * n,
                          [goal(s) for _, s in chosen])

    while True:
        assignments = schedule(budget, state)
        if not assignments:
            break
        for i, cfg in assignments:
            ex = dataset.examples[i]
            runner = (runners or {}).get(cfg.variant, run_attack)
            state.attacks_run[i] += 1
            try:
                cands = runner(params, ex, cfg, _seeds_for(seed, i, cfg), i)
                scored = []
                for c in cands:
                    validate_candidate(c, ex.features, cfg.epsilon)
                    scored.append((c, score(params, ex, c, example_index=i)))
            except AttackFailedError:
                log[i].append(ComputationRecord(cfg.attack_id, 0, failed=True))
                continue
            log[i].append(ComputationRecord(cfg.attack_id, len(scored)))
            any_mis = False
            for cand, cand_score in scored:
                if pools is not None:
                    pools[i].append((cand, cand_score))
                any_mis = any_mis or cand_score.misclassified
                if prefer(chosen[i][1], cand_score, criterion) == 1:
                    chosen[i] = (cand, cand_score)
                if goal(cand_score):
                    state.goal_met[i] = True
            entries[i, col_of[cfg.attack_id]] = int(any_mis)

    matrix = OutcomeMatrix(entries, [CLEAN_ID] + ids)
    cap = budget.max_attack_units_per_example
    allowed = len(attacks) if cap is None else min(len(attacks), cap)
    stopped = np.array([
        budget.early_stop and state.goal_met[i] and state.attacks_run[i] < allowed
        for i in range(n)
    ], dtype=bool)
    for i in range(n):
        if stopped[i] and log[i]:
            log[i][-1].stopped_early = True
    units = np.array([len(log[i]) for i in range(n)], dtype=np.int64)
    bundled = matrix.bundled_error_rate()
    if bundled != float(np.mean([s.misclassified for _, s in chosen])):
        raise ContractError("bundled error rate (row-wise OR of the outcome matrix) "
                            "disagrees with the chosen candidates")
    return BundleResult(criterion, chosen, matrix, matrix.per_attack_error_rates(),
                        bundled, log, units, stopped, pools)


def reselect(result: BundleResult, criterion: Criterion) -> BundleResult:
    """Re-run per-example selection under a different criterion.

    Valid only for exhaustive runs that kept their candidate pools: every
    attack must have run on every example, otherwise a criterion with a
    different stopping goal would have generated different candidates.
    Outcome matrix, rates, and spend are criterion-independent and carry over.
    """
    if result.all_candidates is None:
        raise ContractError("reselect needs a result built with keep_candidates=True")
    n_attacks = len(result.outcome_matrix.attack_ids) - 1
    if np.any(result.units_spent < n_attacks):
        raise ContractError("reselect needs an exhaustive run (every attack on "
                            "every example)")
    chosen = []
    for pool in result.all_candidates:
        best = pool[0]
        for entry in pool[1:]:
            if prefer(best[1], entry[1], criterion) == 1:
                best = entry
        chosen.append(best)
    return BundleResult(criterion, chosen, result.outcome_matrix,
                        result.per_attack_error_rates, result.bundled_error_rate,
                        result.computation_log, result.units_spent,
                        result.stopped_early, result.all_candidates)


def select_by_ensemble(ensemble: Ensemble, example: Example,
                       candidates: Sequence[Candidate]) -> Candidate:
    """Candidate fooling the most members; ties go to higher mean
    wrong-class confidence, then to the first seen."""
    if not candidates:
        raise ContractError("select_by_ensemble needs at least one candidate")
    best = None
    best_key: tuple[int, float] | None = None
    for cand in candidates:
        count = ensemble_fooled_count(ensemble, cand.adversarial_input, example.label)
        wrong_confs = []
        for member in ensemble.members:
            probs = predict(member, cand.adversarial_input).probabilities.copy()
            probs[example.label] = -np.inf
            wrong_confs.append(probs.max())
        key = (count, float(np.mean(wrong_confs)))
        if best_key is None or key > best_key:
            best, best_key = cand, key
    return best


def wat_gap_construction(n: int) -> OutcomeMatrix:
    """The n-attack, n-example diagonal where attack i fools only example i.

    Every per-attack error rate is 1/n while the bundled rate is 1, so the
    worst single attack understates the bundled attacker by 1 - 1/n.
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    return OutcomeMatrix(np.eye(n, dtype=np.int8),
                         [f"attack-{i + 1}" for i in range(n)])
