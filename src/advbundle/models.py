"""Small differentiable classifiers with analytic input gradients.

Two architectures: plain softmax regression ("softmax_linear") and a
one-hidden-layer ReLU network ("mlp1"). Both expose class probabilities
and the gradient of the cross-entropy loss with respect to the input,
which is all the attack code needs. Models are immutable after training
and every prediction path is pure, so one trained model serves every
attack and scoring call unchanged.

A model is its list of (W, b) layers, `ModelParams.layers`; one forward pass,
`_forward`, serves scoring, input gradients and training.

Conventions, fixed here and relied on by tests:
  * softmax subtracts the max logit before exponentiating
  * probabilities are floored at 1e-12 before taking logs, and the input
    gradient is the gradient of that floored loss (zero once the floor
    is active)
  * argmax ties resolve to the lowest class index
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ContractError, DataError, ShapeError, TrainingDivergedError
from .seeding import make_rng

SOFTMAX_LINEAR = "softmax_linear"
MLP1 = "mlp1"
ARCHITECTURES = (SOFTMAX_LINEAR, MLP1)

PROB_FLOOR = 1e-12

# widest last axis `reduce_rows` reduces as columns. A max over 4,000 rows
# (2-core x86 box, numpy 2.4) took 33 us as columns against 269 us as rows at
# width 8, about the same at width 32, and 1,026 against 352 us at width 64
NARROW_AXIS = 16


@dataclass(frozen=True)
class ModelParams:
    """Weights for one classifier. Shapes: W1 (d,k) or (d,h), W2 (h,k)."""

    architecture: str
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray | None = None
    b2: np.ndarray | None = None

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ContractError(f"unknown architecture {self.architecture!r}")
        for i, name in enumerate(("W1", "b1", "W2", "b2")):
            needed = i < 2 * len(self.layers)
            if (getattr(self, name) is not None) != needed:
                verb = "needs" if needed else "has no"
                raise ContractError(f"{self.architecture} model {verb} {name}")
        width = None
        for W, b in self.layers:
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ContractError("model parameters must be finite")
            if W.ndim != 2 or b.shape != (W.shape[1],) or width not in (None, W.shape[0]):
                raise ContractError(f"inconsistent {self.architecture} shapes")
            width = W.shape[1]

    @cached_property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The (W, b) pairs in order: ReLU between them, softmax after the last."""
        if self.architecture == MLP1:
            return ((self.W1, self.b1), (self.W2, self.b2))
        return ((self.W1, self.b1),)

    @property
    def dimension(self) -> int:
        return self.W1.shape[0]

    @property
    def num_classes(self) -> int:
        return self.layers[-1][1].shape[0]


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
        if self.seed < 0:
            raise ContractError("training seed must be >= 0")


def _check_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.dimension,):
        raise ShapeError(f"input shape {x.shape} does not match model dimension {params.dimension}")
    if not np.all(np.isfinite(x)):
        raise ShapeError("input must be finite")
    return x


def _by_row(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W as one vector-matrix product per row of X.

    A plain X @ W (gemm) blocks rows differently with the batch size, so a
    row's bits would depend on how many rows ride along; the stacked form
    runs the same 1-row BLAS call per row whatever the batch.
    """
    return np.matmul(X[:, None, :], W)[:, 0]


def _by_col(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """W @ g for each row g of G, one matrix-vector product per row."""
    return np.matmul(W, G[:, :, None])[:, :, 0]


def reduce_rows(reduce: np.ufunc, a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array a reduced over the last axis by the ufunc
    np.maximum or np.logical_and.

    numpy reduces a narrow last axis one short row at a time, so up to
    `NARROW_AXIS` wide the rows of a are reduced as the columns of a
    contiguous transpose instead. These reductions do not depend on order,
    so the values are numpy's, except that a max of zeros may differ in the
    sign of the zero. Sums keep numpy's own order and never come here.
    """
    if a.shape[-1] > NARROW_AXIS:
        return reduce.reduce(a, axis=-1)
    return reduce.reduce(np.ascontiguousarray(a.T), axis=0)


def _forward(layers: Sequence[tuple[np.ndarray, np.ndarray]], X: np.ndarray,
             matmul: Callable) -> tuple[np.ndarray, list[np.ndarray]]:
    """Class probabilities for the rows of X, and each layer's input: X, then
    each hidden activation (> 0 exactly where its pre-activation is).

    ReLU between layers, softmax after the last, each in place on the product
    matmul(A, W) = A @ W, so no layer allocates a second (B, width) array.
    """
    inputs = [X]
    for W, b in layers[:-1]:
        z = matmul(inputs[-1], W)
        z += b
        inputs.append(np.maximum(z, 0.0, out=z))
    W, b = layers[-1]
    logits = matmul(inputs[-1], W)
    logits += b
    logits -= reduce_rows(np.maximum, logits)[:, None]
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits, inputs


def probs_rows(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Class probabilities for each row of X (B, d). No checks.

    Row r is bit-identical to predict(params, X[r]).probabilities for any B.
    """
    return _forward(params.layers, X, _by_row)[0]


def grad_rows(params: ModelParams, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Input gradient of the floored cross-entropy for each row of X. No checks.

    Row r is the gradient at X[r] for labels[r], bit-identical for any B; it
    is zero where the floor is active, and NaN/inf where the model overflows.
    """
    rows = np.arange(len(X))
    probs, inputs = _forward(params.layers, X, _by_row)
    picked = probs[rows, labels]
    grad = probs
    grad[rows, labels] = picked - 1.0
    for i in reversed(range(len(params.layers))):
        grad = _by_col(params.layers[i][0], grad)
        if i:
            grad *= inputs[i] > 0.0
    grad[picked <= PROB_FLOOR] = 0.0
    return grad


def predict(params: ModelParams, x: np.ndarray) -> Prediction:
    """Class probabilities, argmax class (lowest index on ties), confidence."""
    x = _check_input(params, x)
    probs = probs_rows(params, x[None, :])[0]
    cls = int(np.argmax(probs))
    return Prediction(probs, cls, float(probs[cls]))


def input_gradient(params: ModelParams, x: np.ndarray, target_label: int) -> np.ndarray:
    """Gradient of the floored cross-entropy -log p(target_label | x) with respect to x."""
    x = _check_input(params, x)
    if not 0 <= target_label < params.num_classes:
        raise ContractError(f"label {target_label} out of range")
    return grad_rows(params, x[None, :], np.array([target_label]))[0]


def train(dataset: Dataset, architecture: str, hp: TrainParams) -> ModelParams:
    """Minibatch SGD on cross-entropy. Deterministic given hp.seed."""
    if len(dataset) == 0:
        raise ContractError("cannot train on an empty dataset")
    X, y = dataset.features, dataset.labels
    n, d, k = len(dataset), dataset.dimension, dataset.num_classes
    rng = make_rng(hp.seed)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0

    if architecture == SOFTMAX_LINEAR:
        layers = [(np.zeros((d, k)), np.zeros(k))]
    elif architecture == MLP1:
        h = hp.hidden
        layers = [(rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h)), np.zeros(h)),
                  (rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, k)), np.zeros(k))]
    else:
        raise ContractError(f"unknown architecture {architecture!r}")

    def loss_now() -> float:
        probs = _forward(layers, X, np.matmul)[0]
        picked = np.maximum(probs[np.arange(n), y], PROB_FLOOR)
        return float(-np.log(picked).mean())

    initial = final = loss_now()
    for epoch in range(hp.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            idx = perm[start:start + hp.batch_size]
            probs, inputs = _forward(layers, X[idx], np.matmul)
            g = (probs - onehot[idx]) / len(idx)
            for i in reversed(range(len(layers))):
                W, b = layers[i]
                gW, gb = inputs[i].T @ g, g.sum(axis=0)
                if i:
                    g = (g @ W.T) * (inputs[i] > 0.0)
                W -= hp.learning_rate * gW
                b -= hp.learning_rate * gb
        final = loss_now()
        if not np.isfinite(final):
            raise TrainingDivergedError(epoch)

    if final > initial:
        raise TrainingDivergedError(hp.epochs - 1,
                                    f"training raised the loss ({initial:.6g} -> {final:.6g}); "
                                    "lower the learning rate")
    return ModelParams(architecture, *(arr for layer in layers for arr in layer))


def predict_stochastic(params: ModelParams, spec: StochasticSpec, x: np.ndarray,
                       seed: int) -> Prediction:
    """Mean probabilities over spec.calls noisy evaluations of x.

    Each call adds fresh Uniform(-noise_scale, noise_scale) noise, clips to
    [0, 1], and evaluates the model; the mean vector is re-normalized.
    """
    x = _check_input(params, x)
    if spec.noise_scale == 0.0:
        probs = probs_rows(params, x[None, :])[0]
    else:
        rng = make_rng(seed)
        noise = rng.uniform(-spec.noise_scale, spec.noise_scale, size=(spec.calls, x.shape[0]))
        noisy = np.clip(x[None, :] + noise, 0.0, 1.0)
        probs = probs_rows(params, noisy).mean(axis=0)
        probs = probs / probs.sum()
    cls = int(np.argmax(probs))
    return Prediction(probs, cls, float(probs[cls]))


def save_model(path: str | Path, params: ModelParams) -> None:
    """Flat text format; floats use shortest round-trip decimals."""
    lines = [f"architecture {params.architecture}"]
    for i, (W, b) in enumerate(params.layers, start=1):
        for name, arr in ((f"W{i}", W), (f"b{i}", b)):
            lines.append(f"{name} " + " ".join(str(s) for s in arr.shape))
            lines.append(" ".join(repr(float(v)) for v in arr.ravel()))
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
