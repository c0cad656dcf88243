"""Small differentiable classifiers with analytic input gradients.

Two architectures: plain softmax regression ("softmax_linear") and a
one-hidden-layer ReLU network ("mlp1"). Both expose class probabilities
and the gradient of the cross-entropy loss with respect to the input,
which is all the attack code needs. Models are immutable after training
and every prediction path is pure, so one trained model serves every
attack and scoring call unchanged.

Conventions, fixed here and relied on by tests:
  * softmax subtracts the max logit before exponentiating
  * probabilities are floored at 1e-12 before taking logs, and the input
    gradient is the gradient of that floored loss (zero once the floor
    is active)
  * argmax ties resolve to the lowest class index
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ContractError, DataError, ShapeError, TrainingDivergedError
from .seeding import make_rng

SOFTMAX_LINEAR = "softmax_linear"
MLP1 = "mlp1"

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Weights for one classifier. Shapes: W1 (d,k) or (d,h), W2 (h,k)."""

    architecture: str
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray | None = None
    b2: np.ndarray | None = None

    def __post_init__(self):
        if self.architecture not in (SOFTMAX_LINEAR, MLP1):
            raise ContractError(f"unknown architecture {self.architecture!r}")
        arrays = [self.W1, self.b1] + ([self.W2, self.b2] if self.architecture == MLP1 else [])
        for arr in arrays:
            if arr is None or not np.all(np.isfinite(arr)):
                raise ContractError("model parameters must be finite")
        if self.architecture == MLP1:
            d, h = self.W1.shape
            if self.b1.shape != (h,) or self.W2.shape[0] != h:
                raise ContractError("inconsistent mlp1 shapes")
            if self.b2.shape != (self.W2.shape[1],):
                raise ContractError("inconsistent mlp1 output shapes")
        else:
            if self.b1.shape != (self.W1.shape[1],):
                raise ContractError("inconsistent linear shapes")

    @property
    def dimension(self) -> int:
        return self.W1.shape[0]

    @property
    def num_classes(self) -> int:
        return self.b2.shape[0] if self.architecture == MLP1 else self.b1.shape[0]

    @property
    def hidden(self) -> int | None:
        return self.W1.shape[1] if self.architecture == MLP1 else None


@dataclass(frozen=True)
class Prediction:
    probabilities: np.ndarray
    predicted_class: int
    confidence: float


@dataclass(frozen=True)
class StochasticSpec:
    """Additive uniform input noise, averaged over m calls."""

    noise_scale: float
    calls: int = 1

    def __post_init__(self):
        if self.noise_scale < 0:
            raise ContractError("noise_scale must be >= 0")
        if self.calls < 1:
            raise ContractError("calls must be >= 1")


@dataclass(frozen=True)
class Ensemble:
    members: tuple[ModelParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ContractError("ensemble needs at least one member")
        d, k = self.members[0].dimension, self.members[0].num_classes
        for m in self.members[1:]:
            if m.dimension != d or m.num_classes != k:
                raise ContractError("ensemble members must share d and k")


@dataclass(frozen=True)
class TrainParams:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int
    hidden: int = 16

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ContractError("training hyperparameters must be positive")
        if self.hidden <= 0:
            raise ContractError("hidden width must be positive")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _check_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.dimension,):
        raise ShapeError(f"input shape {x.shape} does not match model dimension {params.dimension}")
    if not np.all(np.isfinite(x)):
        raise ShapeError("input must be finite")
    return x


def _probs_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Probabilities for a batch of rows. No shape checks; internal."""
    if params.architecture == SOFTMAX_LINEAR:
        return _softmax(X @ params.W1 + params.b1)
    hidden = np.maximum(X @ params.W1 + params.b1, 0.0)
    return _softmax(hidden @ params.W2 + params.b2)


def predict(params: ModelParams, x: np.ndarray) -> Prediction:
    """Class probabilities, argmax class (lowest index on ties), confidence."""
    x = _check_input(params, x)
    probs = _probs_batch(params, x[None, :])[0]
    cls = int(np.argmax(probs))
    return Prediction(probs, cls, float(probs[cls]))


def cross_entropy(params: ModelParams, x: np.ndarray, label: int) -> float:
    """-log p(label | x), with the probability floored for stability."""
    x = _check_input(params, x)
    probs = _probs_batch(params, x[None, :])[0]
    return float(-np.log(max(float(probs[label]), PROB_FLOOR)))


def _grad_unchecked(params: ModelParams, x: np.ndarray, target_label: int) -> np.ndarray:
    """input_gradient without argument validation; attack inner loops use this."""
    if params.architecture == SOFTMAX_LINEAR:
        probs = _softmax(x @ params.W1 + params.b1)
        if probs[target_label] <= PROB_FLOOR:
            return np.zeros_like(x)
        g_logits = probs
        g_logits[target_label] -= 1.0
        return params.W1 @ g_logits
    z1 = x @ params.W1 + params.b1
    a1 = np.maximum(z1, 0.0)
    probs = _softmax(a1 @ params.W2 + params.b2)
    if probs[target_label] <= PROB_FLOOR:
        return np.zeros_like(x)
    g_logits = probs
    g_logits[target_label] -= 1.0
    g_hidden = (params.W2 @ g_logits) * (z1 > 0.0)
    return params.W1 @ g_hidden


def input_gradient(params: ModelParams, x: np.ndarray, target_label: int) -> np.ndarray:
    """Gradient of cross_entropy(params, x, target_label) with respect to x."""
    x = _check_input(params, x)
    if not 0 <= target_label < params.num_classes:
        raise ContractError(f"label {target_label} out of range")
    return _grad_unchecked(params, x, target_label)


def mean_cross_entropy(params: ModelParams, X: np.ndarray, labels: np.ndarray) -> float:
    probs = _probs_batch(params, X)
    picked = np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR)
    return float(-np.log(picked).mean())


def train(dataset: Dataset, architecture: str, hp: TrainParams) -> ModelParams:
    """Minibatch SGD on cross-entropy. Deterministic given hp.seed."""
    if len(dataset) == 0:
        raise ContractError("cannot train on an empty dataset")
    X, y = dataset.features_matrix(), dataset.labels()
    n, d, k = len(dataset), dataset.dimension, dataset.num_classes
    rng = make_rng(hp.seed)
    onehot = np.eye(k)[y]

    if architecture == SOFTMAX_LINEAR:
        W1 = np.zeros((d, k))
        b1 = np.zeros(k)
        W2 = b2 = None
    elif architecture == MLP1:
        h = hp.hidden
        W1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h))
        b1 = np.zeros(h)
        W2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, k))
        b2 = np.zeros(k)
    else:
        raise ContractError(f"unknown architecture {architecture!r}")

    def loss_now() -> float:
        if architecture == SOFTMAX_LINEAR:
            probs = _softmax(X @ W1 + b1)
        else:
            probs = _softmax(np.maximum(X @ W1 + b1, 0.0) @ W2 + b2)
        picked = np.maximum(probs[np.arange(n), y], PROB_FLOOR)
        return float(-np.log(picked).mean())

    initial = loss_now()
    for epoch in range(hp.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            idx = perm[start:start + hp.batch_size]
            Xb, Yb = X[idx], onehot[idx]
            m = len(idx)
            if architecture == SOFTMAX_LINEAR:
                probs = _softmax(Xb @ W1 + b1)
                g_logits = (probs - Yb) / m
                W1 -= hp.learning_rate * (Xb.T @ g_logits)
                b1 -= hp.learning_rate * g_logits.sum(axis=0)
            else:
                z1 = Xb @ W1 + b1
                a1 = np.maximum(z1, 0.0)
                probs = _softmax(a1 @ W2 + b2)
                g_logits = (probs - Yb) / m
                gW2 = a1.T @ g_logits
                gb2 = g_logits.sum(axis=0)
                g_hidden = (g_logits @ W2.T) * (z1 > 0.0)
                W2 -= hp.learning_rate * gW2
                b2 -= hp.learning_rate * gb2
                W1 -= hp.learning_rate * (Xb.T @ g_hidden)
                b1 -= hp.learning_rate * g_hidden.sum(axis=0)
        epoch_loss = loss_now()
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch)

    final = loss_now()
    if final > initial:
        raise TrainingDivergedError(hp.epochs - 1,
                                    f"training raised the loss ({initial:.6g} -> {final:.6g}); "
                                    "lower the learning rate")
    return ModelParams(architecture, W1, b1, W2, b2)


def predict_stochastic(params: ModelParams, spec: StochasticSpec, x: np.ndarray,
                       seed: int) -> Prediction:
    """Mean probabilities over spec.calls noisy evaluations of x.

    Each call adds fresh Uniform(-noise_scale, noise_scale) noise, clips to
    [0, 1], and evaluates the model; the mean vector is re-normalized.
    """
    x = _check_input(params, x)
    if spec.noise_scale == 0.0:
        probs = _probs_batch(params, x[None, :])[0]
    else:
        rng = make_rng(seed)
        noise = rng.uniform(-spec.noise_scale, spec.noise_scale, size=(spec.calls, x.shape[0]))
        noisy = np.clip(x[None, :] + noise, 0.0, 1.0)
        probs = _probs_batch(params, noisy).mean(axis=0)
        probs = probs / probs.sum()
    cls = int(np.argmax(probs))
    return Prediction(probs, cls, float(probs[cls]))


def ensemble_fooled_count(ensemble: Ensemble, x: np.ndarray, true_label: int) -> int:
    """How many members predict a class other than true_label for x."""
    return sum(
        1 for member in ensemble.members
        if predict(member, x).predicted_class != true_label
    )


def save_model(path: str | Path, params: ModelParams) -> None:
    """Flat text format; floats use shortest round-trip decimals."""
    lines = [f"architecture {params.architecture}"]

    def emit(name: str, arr: np.ndarray) -> None:
        shape = " ".join(str(s) for s in arr.shape)
        lines.append(f"{name} {shape}")
        lines.append(" ".join(repr(float(v)) for v in arr.ravel()))

    emit("W1", params.W1)
    emit("b1", params.b1)
    if params.architecture == MLP1:
        emit("W2", params.W2)
        emit("b2", params.b2)
    Path(path).write_text("\n".join(lines) + "\n")


# dimensions of each array in a model file
_ARRAY_NDIM = {"W1": 2, "b1": 1, "W2": 2, "b2": 1}


def load_model(path: str | Path) -> ModelParams:
    """Read a save_model file; a malformed one raises DataError naming its line."""
    rows = [(lineno, line.split()) for lineno, line
            in enumerate(Path(path).read_text().splitlines(), start=1) if line.strip()]
    if not rows or len(rows[0][1]) != 2 or rows[0][1][0] != "architecture":
        raise DataError(f"{path}: not a model file")
    arrays: dict[str, np.ndarray] = {}
    for (lineno, (name, *shape)), values in zip_longest(rows[1::2], rows[2::2]):
        try:
            dims = tuple(int(s) for s in shape)
            if len(dims) != _ARRAY_NDIM.get(name) or name in arrays or min(dims) < 0:
                raise ValueError("expected W1 d h, b1 h, W2 h k or b2 k")
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad array header: {exc}") from exc
        if values is None:
            raise DataError(f"{path}:{lineno}: {name} has no values line")
        try:
            arrays[name] = np.array([float(v) for v in values[1]]).reshape(dims)
        except ValueError as exc:
            raise DataError(f"{path}:{values[0]}: bad {name} values: {exc}") from exc
    try:
        return ModelParams(rows[0][1][1], arrays.get("W1"), arrays.get("b1"),
                           arrays.get("W2"), arrays.get("b2"))
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from exc
