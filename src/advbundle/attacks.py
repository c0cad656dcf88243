"""L-infinity attacks: FGSM, restarted PGD, and uniform-noise sampling.

Every candidate is projected onto the box [max(clean-eps, 0), min(clean+eps, 1)],
i.e. the intersection of the eps-ball around the clean input with the valid
input range. Attacks are pure functions of (model, example, config, seed):
restarts emit one candidate each and selection is left to the bundler, so
splitting restarts into separate bundled attacks is exactly equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Example
from .errors import AttackFailedError, ContractError, ShapeError
from .models import ModelParams, _grad_unchecked, input_gradient
from .seeding import derive_seed, make_rng

FGSM = "fgsm"
PGD = "pgd"
UNIFORM_NOISE = "uniform_noise"


@dataclass(frozen=True)
class AttackConfig:
    """Declarative attack spec; attack_id must be unique within a bundle.

    restart_seeds pins the base RNG seed of each restart directly. The
    bundler mixes each entry with the example index, so a single-restart
    config carrying seed s reproduces exactly the restart that an n-restart
    config would have run with restart_seeds[r] = s.
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
        # drive externally supplied runners; they skip field validation
        if not self.variant:
            raise ContractError("variant must be non-empty")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ContractError("epsilon must be finite and positive")
        if not self.attack_id:
            raise ContractError("attack_id must be non-empty")
        if self.variant == PGD:
            if self.step_size is None or not (np.isfinite(self.step_size) and self.step_size > 0):
                raise ContractError("pgd needs a finite positive step_size")
            if self.num_steps is None or self.num_steps < 0:
                raise ContractError("pgd needs num_steps >= 0")
            if self.num_restarts < 1:
                raise ContractError("num_restarts must be >= 1")
            if self.restart_seeds is not None and len(self.restart_seeds) != self.num_restarts:
                raise ContractError("restart_seeds must have one entry per restart")
        else:
            if self.restart_seeds is not None:
                raise ContractError("restart_seeds only applies to pgd")
        if self.variant == UNIFORM_NOISE:
            if self.num_samples is None or self.num_samples < 1:
                raise ContractError("uniform_noise needs num_samples >= 1")


@dataclass(frozen=True)
class Candidate:
    example_index: int
    adversarial_input: np.ndarray
    attack_id: str
    restart_index: int = 0


def project(x: np.ndarray, clean: np.ndarray, epsilon: float) -> np.ndarray:
    """Clamp x into the feasible box around clean. Idempotent."""
    x = np.asarray(x, dtype=np.float64)
    clean = np.asarray(clean, dtype=np.float64)
    if x.shape != clean.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {clean.shape}")
    lo = np.maximum(clean - epsilon, 0.0)
    hi = np.minimum(clean + epsilon, 1.0)
    return np.clip(x, lo, hi)


def validate_candidate(candidate: Candidate, clean: np.ndarray, epsilon: float) -> None:
    """Reject a candidate outside the feasible box; a non-finite one is a failed attack."""
    adv = candidate.adversarial_input
    if adv.shape != clean.shape:
        raise ShapeError(f"candidate shape {adv.shape} does not match clean {clean.shape}")
    # the distance is NaN or inf exactly when some entry is, so the ball
    # check's own reduction doubles as the finiteness check
    dist = float(np.max(np.abs(adv - clean)))
    if not math.isfinite(dist):
        raise AttackFailedError(candidate.example_index, candidate.attack_id,
                                restart=candidate.restart_index, reason="non-finite candidate")
    if dist > epsilon + 1e-9:
        raise ContractError(f"candidate from {candidate.attack_id!r} leaves the epsilon ball")
    if np.any(adv < 0.0) or np.any(adv > 1.0):
        raise ContractError(f"candidate from {candidate.attack_id!r} leaves [0, 1]")


def fgsm(params: ModelParams, example: Example, epsilon: float,
         attack_id: str = FGSM, example_index: int = 0) -> Candidate:
    """Single signed-gradient step of size epsilon, then projection."""
    clean = example.features
    grad = input_gradient(params, clean, example.label)
    if not np.all(np.isfinite(grad)):
        raise AttackFailedError(example_index, attack_id)
    adv = project(clean + epsilon * np.sign(grad), clean, epsilon)
    return Candidate(example_index, adv, attack_id, 0)


def pgd(params: ModelParams, example: Example, config: AttackConfig,
        seed: int | Sequence[int], example_index: int = 0) -> list[Candidate]:
    """Projected signed-gradient ascent; one candidate per restart.

    seed may be a single int (restart r then uses derive_seed(seed, r)) or a
    sequence of per-restart seeds used as-is.
    """
    if config.variant != PGD:
        raise ContractError(f"pgd called with variant {config.variant!r}")
    clean = example.features
    if clean.shape != (params.dimension,):
        raise ShapeError(f"example dimension {clean.shape[0]} does not match model "
                         f"dimension {params.dimension}")
    if isinstance(seed, (int, np.integer)):
        seeds = [derive_seed(int(seed), r) for r in range(config.num_restarts)]
    else:
        seeds = [int(s) for s in seed]
        if len(seeds) != config.num_restarts:
            raise ContractError("need one seed per restart")
    lo = np.maximum(clean - config.epsilon, 0.0)
    hi = np.minimum(clean + config.epsilon, 1.0)
    out = []
    for r, restart_seed in enumerate(seeds):
        if config.random_init:
            rng = make_rng(restart_seed)
            x = np.clip(clean + rng.uniform(-config.epsilon, config.epsilon, clean.shape), lo, hi)
        else:
            x = clean.copy()
        for step in range(config.num_steps):
            grad = _grad_unchecked(params, x, example.label)
            if not np.all(np.isfinite(grad)):
                raise AttackFailedError(example_index, config.attack_id, step=step, restart=r)
            x = np.clip(x + config.step_size * np.sign(grad), lo, hi)
        out.append(Candidate(example_index, x, config.attack_id, r))
    return out


def uniform_noise(example: Example, epsilon: float, num_samples: int, seed: int,
                  attack_id: str = UNIFORM_NOISE, example_index: int = 0) -> list[Candidate]:
    """num_samples independent uniform draws from the feasible box."""
    if num_samples < 1:
        raise ContractError("num_samples must be >= 1")
    clean = example.features
    rng = make_rng(seed)
    noise = rng.uniform(-epsilon, epsilon, size=(num_samples, clean.shape[0]))
    lo = np.maximum(clean - epsilon, 0.0)
    hi = np.minimum(clean + epsilon, 1.0)
    samples = np.clip(clean[None, :] + noise, lo[None, :], hi[None, :])
    return [Candidate(example_index, samples[j], attack_id, j) for j in range(num_samples)]


def run_attack(params: ModelParams, example: Example, config: AttackConfig,
               seed: int | Sequence[int], example_index: int = 0) -> list[Candidate]:
    """Dispatch on config.variant and return all emitted candidates."""
    if config.variant == FGSM:
        return [fgsm(params, example, config.epsilon, config.attack_id, example_index)]
    if config.variant == PGD:
        return pgd(params, example, config, seed, example_index)
    if config.variant == UNIFORM_NOISE:
        if not isinstance(seed, (int, np.integer)):
            raise ContractError("uniform_noise takes a single int seed")
        return uniform_noise(example, config.epsilon, config.num_samples, int(seed),
                             config.attack_id, example_index)
    raise ContractError(f"no runner for variant {config.variant!r}")

