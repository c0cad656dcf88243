"""L-infinity attacks: FGSM, restarted PGD, and uniform-noise sampling.

Every candidate is projected onto the box [max(clean-eps, 0), min(clean+eps, 1)],
i.e. the intersection of the eps-ball around the clean input with the valid
input range. Attacks are pure functions of (model, example, config, seed):
restarts emit one candidate each and selection is left to the bundler, so
splitting restarts into separate bundled attacks is exactly equivalent.

Each attack runs on rows, one per (example, restart) or (example, noise
sample), each with its own box and seed stream, in one of two kernels that
`attack_rows` dispatches to: `noise_rows` draws samples and `pgd_rows` takes
signed-gradient steps (FGSM is one PGD step of size epsilon from the clean
input). `noise_rows` is the one random kernel: its samples are
`seeding.uniform_rows` offsets from the clean row, one seed per row, and
PGD's random start is its one-sample draw, one seed per restart.
All rows step together, and every model call computes a row exactly as a
1-row call would, so a row's candidate is bit-identical whatever else is in
the batch. `run_attack` is the per-example adapter over the row functions:
one example, checked by `models._one_row`, yields its rows as `Candidate`s
and raises its first failed row as `AttackFailedError`. `fgsm` and `pgd`
call it; `uniform_noise`, which takes no model, draws from `noise_rows`
directly. Each of them checks its
fields through an `AttackConfig`.

PGD moves each coordinate by +-step_size and clips it to the box, so a row
often lands on a fixed point or a 2-cycle (a failed row is a fixed point).
`pgd_rows` retires a row from the batch once its iterate repeats the one
two steps back and writes out the iterate the remaining steps would end
on, so the candidates are bit-identical to running every step on every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import Example
from .errors import (AttackFailedError, ContractError, ShapeError, is_int, is_int_or_none,
                     is_real)
from .models import ModelParams, _one_row, grad_rows, reduce_rows
from .seeding import MAX_HALF_RANGE, derive_seeds, seed_words, uniform_rows
# perfbench/child.py wraps this name when it traces a run; nothing here calls it
from .seeding import derive_seed  # noqa: F401

FGSM = "fgsm"
PGD = "pgd"
UNIFORM_NOISE = "uniform_noise"
VARIANTS = (FGSM, PGD, UNIFORM_NOISE)
NORM_SLACK = 1e-9  # how far past epsilon a candidate's L-inf distance may round
# most rows (restarts or noise samples) of one example, held in one block, and
# most PGD steps: a stray 10**8 must fail here, not as a MemoryError or endless run
MAX_ROWS_PER_EXAMPLE = 100_000
MAX_NUM_STEPS = 1_000_000


@dataclass(frozen=True)
class AttackConfig:
    """Declarative attack spec; attack_id must be unique within a bundle.

    restart_seeds, a sequence of integers kept as a tuple, pins the base RNG
    seed of each restart directly. The bundler mixes each entry with the
    example index, so a single-restart config carrying seed s reproduces
    exactly the restart that an n-restart config would have run with
    restart_seeds[r] = s.
    """

    attack_id: str
    variant: str
    epsilon: float
    step_size: float | None = None
    num_steps: int | None = None
    num_restarts: int = 1
    random_init: bool = True
    num_samples: int | None = None
    restart_seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        # variants beyond the built-in three are allowed so the bundler can
        # drive externally supplied runners; of the variant fields they check
        # only num_restarts, which sets their rows per example
        if not self.variant:
            raise ContractError("variant must be non-empty")
        # noise and PGD's random start draw from [-epsilon, epsilon]
        if not (is_real(self.epsilon) and 0 < self.epsilon <= MAX_HALF_RANGE):
            raise ContractError("epsilon must be positive, with 2 * epsilon finite")
        if not (isinstance(self.attack_id, str) and self.attack_id):
            raise ContractError("attack_id must be a non-empty string")
        # rates.csv and chosen.csv hold it, and derive_seed hashes its UTF-8 bytes
        if any(ch in ',"\r\n' or "\ud800" <= ch <= "\udfff" for ch in self.attack_id):
            raise ContractError(f"attack_id {self.attack_id!r} must hold no comma, double quote, "
                                "line break or lone surrogate")
        for name in ("num_steps", "num_restarts", "num_samples"):
            if not is_int_or_none(getattr(self, name)):
                raise ContractError(f"{name} must be an integer")
        if self.restart_seeds is not None:
            if not (isinstance(self.restart_seeds, Sequence)
                    and all(is_int(s) for s in self.restart_seeds)):
                raise ContractError(f"restart_seeds must be a sequence of integers, got "
                                    f"{self.restart_seeds!r}")
            object.__setattr__(self, "restart_seeds", tuple(self.restart_seeds))
        if self.variant == PGD:
            if not (is_real(self.step_size) and np.isfinite(self.step_size)
                    and self.step_size > 0):
                raise ContractError("step_size must be finite and positive for pgd")
            if not isinstance(self.random_init, (bool, np.bool_)):
                raise ContractError("random_init must be true or false for pgd")
            if self.num_steps is None or self.num_steps < 0:
                raise ContractError("num_steps must be >= 0 for pgd")
            if self.num_steps > MAX_NUM_STEPS:
                raise ContractError(f"num_steps must be <= {MAX_NUM_STEPS}")
            if self.restart_seeds is not None and len(self.restart_seeds) != self.num_restarts:
                raise ContractError("restart_seeds must have one entry per restart")
        elif self.restart_seeds is not None:
            raise ContractError("restart_seeds only applies to pgd")
        if self.variant not in (FGSM, UNIFORM_NOISE) and (self.num_restarts is None
                                                          or self.num_restarts < 1):
            raise ContractError("num_restarts must be >= 1")
        if self.variant == UNIFORM_NOISE:
            if self.num_samples is None or self.num_samples < 1:
                raise ContractError("num_samples must be >= 1 for uniform_noise")
        if rows_per_example(self) > MAX_ROWS_PER_EXAMPLE:
            key = "num_samples" if self.variant == UNIFORM_NOISE else "num_restarts"
            raise ContractError(f"{key} must be <= {MAX_ROWS_PER_EXAMPLE}")


@dataclass(frozen=True, eq=False)
class Candidate:
    """One attack output: example example_index's adversarial input, from restart_index."""

    example_index: int
    adversarial_input: np.ndarray
    attack_id: str
    restart_index: int = 0


def rows_per_example(config: AttackConfig) -> int:
    """Rows, and so candidates, one example yields: its noise samples, 1 for
    fgsm, else its restarts (pgd and any runner's variant)."""
    if config.variant == UNIFORM_NOISE:
        return config.num_samples
    if config.variant == FGSM:
        return 1
    return config.num_restarts


def _box(clean: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    return np.maximum(clean - epsilon, 0.0), np.minimum(clean + epsilon, 1.0)


def _clamp(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """x clamped into a box `_box` made, in place, with two ufunc calls and
    without np.clip's Python wrapper; returns x.

    The values are np.clip(x, lo, hi)'s: a NaN entry stays NaN. The one case
    where the two forms could pick different zeros, a -0.0 entry on a +0.0
    face, does not arise: `_box` makes no -0.0 face, and the x clamped here
    are sums with a nonzero or +0.0 term (a draw, a step), never -0.0.
    """
    np.maximum(x, lo, out=x)
    return np.minimum(x, hi, out=x)


def project(x: np.ndarray, clean: np.ndarray, epsilon: float) -> np.ndarray:
    """Clamp x into the feasible box around clean. Idempotent."""
    x = np.asarray(x, dtype=np.float64)
    clean = np.asarray(clean, dtype=np.float64)
    if x.shape != clean.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {clean.shape}")
    lo, hi = _box(clean, epsilon)
    return np.clip(x, lo, hi)


def check_rows(adv: np.ndarray, clean: np.ndarray, epsilon: float,
               attack_id: str) -> np.ndarray:
    """L-inf distance of each candidate row (last axis) from its clean row.

    clean may broadcast against adv. The distance is NaN or inf exactly when
    some entry of the row is, so it doubles as the finiteness check: a
    non-finite row is left to the caller as a failed attack. A finite row
    outside the epsilon ball or [0, 1] raises ContractError. The range is
    tested row by row only when the whole block's NaN-skipping min or max
    leaves [0, 1].

    The max is taken over the `int64` view of |adv - clean|, computed in
    float64 whatever a runner's dtype: non-negative doubles order as their
    bit patterns do, and a NaN, whose sign `abs` clears, orders above +inf,
    so a finite row gets numpy's float max bit for bit and a non-finite row
    stays non-finite.
    """
    diff = np.subtract(adv, clean, dtype=np.float64)
    np.abs(diff, out=diff)
    bits = reduce_rows(np.maximum, diff.reshape(-1, diff.shape[-1]).view(np.int64))
    dist = bits.view(np.float64).reshape(diff.shape[:-1])
    finite = np.isfinite(dist)
    if np.any(dist[finite] > epsilon + NORM_SLACK):
        raise ContractError(f"candidate from {attack_id!r} leaves the epsilon ball")
    # fmin and fmax skip NaN, so a NaN row cannot hide another row's range
    if adv.size and (np.fmin.reduce(adv, axis=None) < 0.0
                     or np.fmax.reduce(adv, axis=None) > 1.0):
        if np.any(finite & ((adv.min(axis=-1) < 0.0) | (adv.max(axis=-1) > 1.0))):
            raise ContractError(f"candidate from {attack_id!r} leaves [0, 1]")
    return dist


def validate_candidate(candidate: Candidate, clean: np.ndarray, epsilon: float) -> None:
    """Reject a candidate outside the feasible box; a non-finite one is a failed attack."""
    adv = candidate.adversarial_input
    if adv.shape != clean.shape:
        raise ShapeError(f"candidate shape {adv.shape} does not match clean {clean.shape}")
    dist = check_rows(adv[None, :], clean[None, :], epsilon, candidate.attack_id)
    if not math.isfinite(dist[0]):
        raise AttackFailedError(candidate.example_index, candidate.attack_id,
                                restart=candidate.restart_index, reason="non-finite candidate")


def _restart_seeds(seeds: Sequence, num_restarts: int) -> list[int]:
    """Every example's per-restart seeds, in row order: derive_seed(seed, r)
    of int seeds, in one array pass, or per-restart seed lists as-is."""
    if len(seeds) and not isinstance(seeds[0], (int, np.integer)):
        return [int(s) for seed in seeds for s in seed]
    roots = seed_words(seeds)[:, None]
    return derive_seeds(roots, np.arange(num_restarts, dtype=np.uint64)).ravel().tolist()


def noise_rows(clean: np.ndarray, epsilon: float, seeds: Sequence[int],
               num_samples: int) -> np.ndarray:
    """num_samples uniform draws from the feasible box of each row of clean.

    Row u of clean draws make_rng(seeds[u])'s offsets in [-epsilon, epsilon)
    (`seeding.uniform_rows`), so its samples do not depend on the other rows,
    adds them and clips to the box. Row u * num_samples + j of the result is
    sample j of row u.
    """
    x = uniform_rows(seeds, -epsilon, epsilon, (num_samples, clean.shape[1]))
    x += clean[:, None, :]
    lo, hi = _box(clean, epsilon)
    return _clamp(x, lo[:, None, :], hi[:, None, :]).reshape(-1, clean.shape[1])


def pgd_rows(params: ModelParams, clean: np.ndarray, labels: np.ndarray,
             seeds: Sequence[int] | Sequence[Sequence[int]],
             config: AttackConfig) -> tuple[np.ndarray, np.ndarray]:
    """Projected signed-gradient ascent on every restart of every example.

    clean (U, d) and labels (U,) hold the examples and seeds one seed per
    example, as `pgd` takes it: all ints, or all sequences of per-restart
    seeds. Row u * num_restarts + r of the result is restart r of example u.
    A row whose gradient turns non-finite stops moving; the second array
    holds the step at which it did, -1 for a row that never failed.

    A row retires as soon as its new iterate equals, bit for bit, its
    iterate from two steps back (its start, on the first step). A row's step
    depends only on its own iterate, box and label (`grad_rows` computes
    each row as a 1-row call would), so from then on it alternates between
    its last two iterates, or stays put when they are equal, as a failed row
    does from the step it fails, where it retires. Its final iterate is the
    new one when the steps left are even and the current one otherwise; that
    is written out and the row leaves the batch, so the result is
    bit-identical to running every step. The last step retires nothing.
    """
    r = config.num_restarts
    if any(len(seed) != r for seed in seeds if not isinstance(seed, (int, np.integer))):
        raise ContractError("need one seed per restart")
    clean = np.repeat(clean, r, axis=0)
    labels = np.repeat(labels, r)
    lo, hi = _box(clean, config.epsilon)
    x = clean
    if config.random_init:
        # only the random start reads the seeds, so only it derives them
        x = noise_rows(clean, config.epsilon, _restart_seeds(seeds, r), 1)
    failed_at = np.full(len(x), -1)
    out = np.empty_like(x)
    live = np.arange(len(x))
    prev = x
    for step in range(config.num_steps):
        grad = grad_rows(params, x, labels)
        stepped = _clamp(x + config.step_size * np.sign(grad), lo, hi)
        if not np.isfinite(grad).all():
            # a failed row stays put from here on; matching its prev, it retires now
            failed = ~np.isfinite(grad).all(axis=1)
            stepped[failed] = prev[failed] = x[failed]
            failed_at[live[failed]] = step
        steps_left = config.num_steps - step - 1
        if steps_left:  # the last step retires nothing: out[live] takes every row
            settled = (stepped.view(np.int64) == prev.view(np.int64)).all(axis=1)
            if settled.any():
                out[live[settled]] = (x if steps_left % 2 else stepped)[settled]
                keep = ~settled
                x, stepped, lo, hi = x[keep], stepped[keep], lo[keep], hi[keep]
                labels, live = labels[keep], live[keep]
                if not len(live):
                    break
        prev, x = x, stepped
    out[live] = x
    return out, failed_at


def attack_rows(params: ModelParams, config: AttackConfig, clean: np.ndarray,
                labels: np.ndarray, seeds: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Run a built-in attack on every example of clean (U, d) at once.

    seeds holds one seed per example, as run_attack takes it. Returns the
    candidates, rows_per_example(config) rows per example in example order,
    and each row's failing step (-1 for a row that did not fail). FGSM is
    one PGD step of size epsilon from the clean input, with one row per
    example whatever restart fields its config carries.
    """
    if config.variant == FGSM:
        config = replace(config, variant=PGD, step_size=config.epsilon, num_steps=1,
                         num_restarts=1, random_init=False)
    if config.variant == PGD:
        return pgd_rows(params, clean, labels, seeds, config)
    if config.variant == UNIFORM_NOISE:
        adv = noise_rows(clean, config.epsilon, seeds, config.num_samples)
        return adv, np.full(len(adv), -1)
    raise ContractError(f"no runner for variant {config.variant!r}")


def fgsm(params: ModelParams, example: Example, epsilon: float,
         attack_id: str = FGSM, example_index: int = 0) -> Candidate:
    """Single signed-gradient step of size epsilon, then projection."""
    config = AttackConfig(attack_id, FGSM, epsilon)
    return run_attack(params, example, config, 0, example_index)[0]


def pgd(params: ModelParams, example: Example, config: AttackConfig,
        seed: int | Sequence[int], example_index: int = 0) -> list[Candidate]:
    """Projected signed-gradient ascent; one candidate per restart.

    seed may be a single int (restart r then uses derive_seed(seed, r)) or a
    sequence of per-restart seeds used as-is.
    """
    if config.variant != PGD:
        raise ContractError(f"pgd called with variant {config.variant!r}")
    return run_attack(params, example, config, seed, example_index)


def uniform_noise(example: Example, epsilon: float, num_samples: int, seed: int,
                  attack_id: str = UNIFORM_NOISE, example_index: int = 0) -> list[Candidate]:
    """num_samples independent uniform draws from the feasible box."""
    config = AttackConfig(attack_id, UNIFORM_NOISE, epsilon, num_samples=num_samples)
    samples = noise_rows(example.features[None, :], config.epsilon, [seed], config.num_samples)
    return [Candidate(example_index, x, attack_id, j) for j, x in enumerate(samples)]


def run_attack(params: ModelParams, example: Example, config: AttackConfig,
               seed: int | Sequence[int], example_index: int = 0) -> list[Candidate]:
    """Run a built-in attack on one example; one candidate per row.

    The example is a checked 1-row batch (`models._one_row`) for
    `attack_rows`. The first failed row raises AttackFailedError naming its
    step and restart.
    """
    clean, labels = _one_row(params, example.features, example.label)
    adv, failed_at = attack_rows(params, config, clean, labels, [seed])
    for r, step in enumerate(failed_at.tolist()):
        if step >= 0:
            raise AttackFailedError(example_index, config.attack_id, step=step, restart=r)
    return [Candidate(example_index, x, config.attack_id, r) for r, x in enumerate(adv)]
