"""Small differentiable classifiers with analytic input gradients.

Two architectures: plain softmax regression ("softmax_linear") and a
one-hidden-layer ReLU network ("mlp1"). Both expose class probabilities
and the gradient of the cross-entropy loss with respect to the input,
which is all the attack code needs. Models are immutable after training
and every prediction path is pure, so one trained model serves every
attack and scoring call unchanged.

A model is its list of (W, b) layers, `ModelParams.layers`; one forward pass,
`_logits` and then `_softmax` in place, serves scoring, input gradients and
training.

`train` proves most epochs' logits finite from the weights alone. A
`Dataset`'s features lie in [0, 1], so |W| and |b| bound every hidden unit
and logit of every row, and while that bound, `_logit_bound`, stays below
`LOGIT_BOUND` no full-data forward pass is needed. The pass runs after the
last epoch, whose logits give the final loss, and after any epoch the bound
does not clear.

The row functions `probs_rows` and `grad_rows` check nothing; `predict`,
`input_gradient`, `attacks.run_attack` and `bundler.score`, which take one
example, take its inputs through `_one_row`, the one check of width,
finiteness and label.

Conventions, fixed here and relied on by tests:
  * softmax subtracts the max logit before exponentiating
  * probabilities are floored at 1e-12 before taking logs, and the input
    gradient is the gradient of that floored loss (zero once the floor
    is active)
  * argmax ties resolve to the lowest class index
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cached_property
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import Dataset, fmt, read_text, write_lines
from .errors import (ContractError, DataError, ShapeError, TrainingDivergedError, check_type,
                     is_int, is_real)
from .records import FrozenRecord, ValueRecord
from .seeding import _check_seed, make_rng

SOFTMAX_LINEAR = "softmax_linear"
MLP1 = "mlp1"
ARCHITECTURES = (SOFTMAX_LINEAR, MLP1)

PROB_FLOOR = 1e-12

# widest hidden layer, allocated up front, and most training epochs, each a pass
# over the data: a stray 10**9 must fail in TrainParams, not as a MemoryError or
# an endless run
MAX_HIDDEN = 10_000
MAX_EPOCHS = 100_000

# widest last axis `reduce_rows` reduces as columns. A max over 4,000 rows
# (2-core x86 box, numpy 2.4) took 33 us as columns against 269 us as rows at
# width 8, about the same at width 32, and 1,026 against 352 us at width 64
NARROW_AXIS = 16

# `_logit_bound` below this proves every hidden unit and logit finite. float64
# overflows at 2**1024, and a sum of m rounded products, added in any order,
# stays within a factor (1 + 2**-53)**m of the exact sum of their magnitudes
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4). Through both
# layers, and in the bound itself, that is under a factor 2 for any width below
# 2**40, well inside the 2**24 margin. A NaN or inf bound compares False
LOGIT_BOUND = 2.0 ** 1000


def check_architecture(architecture: str) -> None:
    """Refuse an architecture that is not one of ARCHITECTURES."""
    if architecture not in ARCHITECTURES:
        raise ContractError(f"architecture must be one of {', '.join(ARCHITECTURES)}, "
                            f"got {architecture!r}")


class ModelParams(FrozenRecord):
    """Weights for one classifier. Shapes: W1 (d,k) or (d,h), W2 (h,k)."""

    architecture: str
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray | None = None
    b2: np.ndarray | None = None

    def __post_init__(self):
        check_architecture(self.architecture)
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
        if self.dimension < 1 or self.num_classes < 1:
            raise ContractError(f"{self.architecture} model needs d >= 1 and k >= 1, got "
                                f"d = {self.dimension} and k = {self.num_classes}")

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


class Prediction(FrozenRecord):
    """One input's class probabilities, its argmax class and that class's probability."""

    probabilities: np.ndarray
    predicted_class: int
    confidence: float


class TrainParams(ValueRecord):
    """Minibatch SGD settings: step size, passes (at most `MAX_EPOCHS`), batch
    size, seed, and mlp1's hidden width (at most `MAX_HIDDEN`)."""

    learning_rate: float
    epochs: int
    batch_size: int
    seed: int
    hidden: int = 16

    def __post_init__(self):
        for key in ("epochs", "batch_size", "hidden"):
            if not is_int(getattr(self, key)):
                raise ContractError(f"{key} must be an integer")
        if not is_real(self.learning_rate):
            raise ContractError("learning_rate must be a number")
        for key in ("learning_rate", "epochs", "batch_size", "hidden"):
            if getattr(self, key) <= 0:
                raise ContractError(f"{key} must be positive")
        for key, bound in (("hidden", MAX_HIDDEN), ("epochs", MAX_EPOCHS)):
            if getattr(self, key) > bound:
                raise ContractError(f"{key} must be <= {bound}")
        if not np.isfinite(self.learning_rate):
            raise ContractError("learning_rate must be finite")
        _check_seed(self.seed)


def _one_row(params: ModelParams, x: np.ndarray,
             label: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """x and label as the 1-row batch (1, d) and (1,) the row functions take,
    after the checks they skip: x must be as wide as the model and finite,
    else ShapeError; label must be one of the model's classes, else
    ContractError."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.dimension,):
        raise ShapeError(f"input shape {x.shape} does not match model dimension {params.dimension}")
    if not np.all(np.isfinite(x)):
        raise ShapeError("input must be finite")
    if not is_int(label) or not 0 <= label < params.num_classes:
        raise ContractError(f"label {label!r} is not one of the model's "
                            f"{params.num_classes} classes")
    return x[None, :], np.array([label])


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
    so the values are numpy's, except that a float max of zeros may differ
    in the sign of the zero. Sums keep numpy's own order and never come
    here. An integer max is exact at any width: `attacks.check_rows` takes
    its distances as the max of non-negative doubles' bit patterns.
    """
    if a.shape[-1] > NARROW_AXIS:
        return reduce.reduce(a, axis=-1)
    return reduce.reduce(np.ascontiguousarray(a.T), axis=0)


def _logits(layers: Sequence[tuple[np.ndarray, np.ndarray]], X: np.ndarray,
            matmul: Callable) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits for the rows of X, and each layer's input: X, then each hidden
    activation (> 0 exactly where its pre-activation is).

    ReLU between layers, each in place on the product matmul(A, W) = A @ W,
    so no layer allocates a second (B, width) array.
    """
    inputs = [X]
    for W, b in layers[:-1]:
        z = matmul(inputs[-1], W)
        z += b
        inputs.append(np.maximum(z, 0.0, out=z))
    W, b = layers[-1]
    logits = matmul(inputs[-1], W)
    logits += b
    return logits, inputs


def _softmax(logits: np.ndarray) -> np.ndarray:
    """The softmax of each row of logits, in place; returns logits."""
    logits -= reduce_rows(np.maximum, logits)[:, None]
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def probs_rows(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Class probabilities for each row of X (B, d). No checks.

    Row r is bit-identical to predict(params, X[r]).probabilities for any B.
    """
    return _softmax(_logits(params.layers, X, _by_row)[0])


def grad_rows(params: ModelParams, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Input gradient of the floored cross-entropy for each row of X. No checks.

    Row r is the gradient at X[r] for labels[r], bit-identical for any B; it
    is zero where the floor is active, and NaN/inf where the model overflows.
    """
    rows = np.arange(len(X))
    logits, inputs = _logits(params.layers, X, _by_row)
    probs = _softmax(logits)
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
    probs = probs_rows(params, _one_row(params, x)[0])[0]
    cls = int(np.argmax(probs))
    return Prediction(probs, cls, float(probs[cls]))


def input_gradient(params: ModelParams, x: np.ndarray, target_label: int) -> np.ndarray:
    """Gradient of the floored cross-entropy -log p(target_label | x) with respect to x."""
    return grad_rows(params, *_one_row(params, x, target_label))[0]


def _layer_views(flat: np.ndarray, widths: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into the flat buffer, W then b for each layer in order, for
    layers of widths[0] -> widths[1] -> ... units."""
    views, at = [], 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        W = flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out)
        at += fan_in * fan_out
        views.append((W, flat[at:at + fan_out]))
        at += fan_out
    return views


def _logit_bound(abs_layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """A bound on every hidden unit and logit of every input in [0, 1]^d,
    from the layers' elementwise |W| and |b|: colsum|W1| + |b1| bounds each
    pre-activation and so each ReLU output, and s @ |W| + |b| carries a bound
    s through each later layer. Returns the sum of every layer's bounds, since
    a hidden unit that overflows is inf or NaN in the logits even where the
    next layer's small weights keep their own bound low."""
    (W, b), *rest = abs_layers
    s = np.add.reduce(W, axis=0)
    s += b
    total = np.add.reduce(s)
    for W, b in rest:
        s = s @ W
        s += b
        total += np.add.reduce(s)
    return total


def train(dataset: Dataset, architecture: str, hp: TrainParams) -> ModelParams:
    """Minibatch SGD on cross-entropy. Deterministic given hp.seed.

    The (W, b) layers are views into one flat float64 buffer, and each batch
    writes its gradients into the same views of a second one, so a step
    updates every layer with two calls. X and the one-hot labels are permuted
    once per epoch, and each batch is a slice of them.

    Training stops with TrainingDivergedError naming the first epoch after
    which some row's largest logit is not finite. That is exactly when the
    loss is not finite: a softmax row is NaN iff its largest logit is NaN or
    +-inf, and otherwise its floored log is finite. It also stops, naming
    the first epoch after which some weight is not finite, where the logits
    stay finite (an mlp1 unit whose weights went to -inf is 0 after ReLU).
    After each epoch but the last, `_logit_bound` on |flat|, taken into a
    third buffer, proves every logit and weight finite while it stays below
    `LOGIT_BOUND`, since the features lie in [0, 1]. Only where it does not,
    and after the last epoch, does one pass over the data compute the logits
    and test them, and the weights are tested. The loss is taken
    before the loop and from the last epoch's logits, and a final loss above
    the initial one also raises. Overflow in between shows only as that
    error, never as a warning.
    """
    check_type(dataset, Dataset, "dataset")
    check_type(hp, TrainParams, "hp")
    if len(dataset) == 0:
        raise ContractError("cannot train on an empty dataset")
    X, y = dataset.features, dataset.labels
    n, d, k = len(dataset), dataset.dimension, dataset.num_classes
    check_architecture(architecture)
    widths = (d, hp.hidden, k) if architecture == MLP1 else (d, k)
    size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(widths, widths[1:]))
    flat, step, magnitude = np.zeros(size), np.empty(size), np.empty(size)
    layers, grads, abs_layers = (_layer_views(buf, widths) for buf in (flat, step, magnitude))
    rng = make_rng(hp.seed)
    if architecture == MLP1:
        for W, _ in layers:
            W[:] = rng.normal(0.0, 1.0 / np.sqrt(W.shape[0]), size=W.shape)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0

    def loss(logits: np.ndarray) -> float:
        """The mean floored cross-entropy; softmaxes logits in place."""
        picked = np.maximum(_softmax(logits)[np.arange(n), y], PROB_FLOOR)
        return float(-np.log(picked).mean())

    with np.errstate(over="ignore", invalid="ignore"):
        initial = loss(_logits(layers, X, np.matmul)[0])
        for epoch in range(hp.epochs):
            perm = rng.permutation(n)
            X_epoch, Y_epoch = X[perm], onehot[perm]
            for start in range(0, n, hp.batch_size):
                batch = slice(start, start + hp.batch_size)
                logits, inputs = _logits(layers, X_epoch[batch], np.matmul)
                g = _softmax(logits)
                g -= Y_epoch[batch]
                g /= len(g)
                for i in reversed(range(len(layers))):
                    gW, gb = grads[i]
                    np.matmul(inputs[i].T, g, out=gW)
                    np.add.reduce(g, axis=0, out=gb)
                    if i:
                        g = g @ layers[i][0].T
                        g *= inputs[i] > 0.0
                step *= hp.learning_rate
                flat -= step
            if epoch < hp.epochs - 1:
                np.abs(flat, out=magnitude)
                if _logit_bound(abs_layers) < LOGIT_BOUND:
                    continue
            logits = _logits(layers, X, np.matmul)[0]
            if not np.isfinite(reduce_rows(np.maximum, logits)).all():
                raise TrainingDivergedError(epoch)
            # ReLU zeroes a unit whose weights went to -inf, so the logits can hide it
            if not np.isfinite(flat).all():
                raise TrainingDivergedError(epoch, f"training diverged at epoch {epoch}: "
                                                   "non-finite weight")
        final = loss(logits)  # hp.epochs >= 1, so the loop has set logits

    if final > initial:
        raise TrainingDivergedError(hp.epochs - 1,
                                    f"training raised the loss ({initial:.6g} -> {final:.6g}); "
                                    "lower the learning rate")
    return ModelParams(architecture, *(arr for layer in layers for arr in layer))


def save_model(path: str | Path, params: ModelParams) -> None:
    """Flat text format; floats use shortest round-trip decimals."""
    lines = [f"architecture {params.architecture}"]
    for i, (W, b) in enumerate(params.layers, start=1):
        for name, arr in ((f"W{i}", W), (f"b{i}", b)):
            lines.append(f"{name} " + " ".join(str(s) for s in arr.shape))
            lines.append(" ".join(map(fmt, arr.ravel().tolist())))
    write_lines(path, lines)


# dimensions of each array in a model file
_ARRAY_NDIM = {"W1": 2, "b1": 1, "W2": 2, "b2": 1}


def load_model(path: str | Path) -> ModelParams:
    """Read a save_model file; an unreadable or malformed one raises DataError naming it."""
    text = read_text(path, DataError, "model file")
    rows = [(lineno, line.split()) for lineno, line
            in enumerate(text.splitlines(), start=1) if line.strip()]
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
