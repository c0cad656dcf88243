"""Datasets of unit-interval feature vectors with integer labels.

A Dataset is two read-only arrays, `features` (n, d) float64 and `labels`
(n,) int64, plus `num_classes`; `dataset[i]` is the `Example` for row i.
`_invalid_row` alone defines a valid example (features finite and in [0, 1],
label in [0, k)); an Example is checked as a 1-row batch.

CSV layout: d feature columns followed by one integer label column. A
header row is optional on read and always written on save.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, is_int, unreadable
from .seeding import make_rng

# most classes a CSV dataset may have (k is inferred from the largest label),
# and largest synthetic n and d: training and synth_dataset allocate (n, k) and
# (n, d) arrays up front, so one stray huge value must fail before them
MAX_CLASSES = 10_000
MAX_SYNTH_N = 1_000_000
MAX_SYNTH_D = 10_000


def _invalid_row(features: np.ndarray, labels: np.ndarray,
                 num_classes: int | None) -> tuple[int, str] | None:
    """The first invalid row and why, or None; num_classes None: no label bound."""
    feats_ok = ((features >= 0.0) & (features <= 1.0)).all(axis=1)  # False for NaN
    labels_ok = (labels >= 0) & (labels < (np.inf if num_classes is None else num_classes))
    bad = np.flatnonzero(~(feats_ok & labels_ok))
    if not bad.size:
        return None
    i = int(bad[0])
    if not feats_ok[i]:
        return i, "features must be finite and lie in [0, 1]"
    if labels[i] < 0:
        return i, f"label {labels[i]} is negative"
    return i, f"label {labels[i]} >= k={num_classes}"


@dataclass(frozen=True, eq=False)
class Example:
    """One labelled input; every feature must lie in [0, 1]."""

    features: np.ndarray
    label: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", feats)
        if feats.ndim != 1:
            raise ContractError(f"features must be a vector, got shape {feats.shape}")
        if not is_int(self.label):
            raise ContractError(f"label must be an integer, got {self.label!r}")
        bad = _invalid_row(feats[None, :], np.array([self.label]), None)
        if bad is not None:
            raise ContractError(bad[1])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Read-only features (n, d) in [0, 1] and labels (n,) in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if not is_int(self.num_classes) or self.num_classes < 2:
            raise ContractError(f"num_classes must be an integer >= 2, got {self.num_classes!r}")
        try:
            feats = np.array(self.features, dtype=np.float64)
        except ValueError as exc:
            raise ContractError(f"features must be an (n, d) array: {exc}") from exc
        labels = np.array(self.labels, dtype=np.int64)
        if feats.ndim != 2 or labels.shape != feats.shape[:1]:
            raise ContractError(f"need features (n, d) and labels (n,), got shapes "
                                f"{feats.shape} and {labels.shape}")
        if feats.shape[1] < 1:  # the CSV reader refuses d = 0 too
            raise ContractError("need at least one feature column, got d = 0")
        bad = _invalid_row(feats, labels, self.num_classes)
        if bad is not None:
            raise ContractError(f"example {bad[0]}: {bad[1]}")
        feats.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> Example:
        return Example(self.features[i], int(self.labels[i]))


def synth_dataset(n: int, d: int, k: int, seed: int) -> Dataset:
    """Draw k Gaussian blobs and squash each coordinate into [0, 1].

    Class means sit on a circle in the first two coordinates (or are spread
    along the axis for d=1), so a linear model separates them easily. Labels
    round-robin over classes, which keeps them balanced up to rounding.
    """
    for name, value, bound in (("n", n, MAX_SYNTH_N), ("d", d, MAX_SYNTH_D), ("k", k, None)):
        if not is_int(value):
            raise ContractError(f"{name} must be an integer, got {value!r}")
        if bound is not None and value > bound:
            raise ContractError(f"{name} must be <= {bound}, got {value}")
    if k < 2 or n < k or d < 1:
        raise ContractError(f"need n >= k >= 2 and d >= 1, got n={n}, d={d}, k={k}")
    rng = make_rng(seed)
    sep = 3.0
    means = np.zeros((k, d))
    if d == 1:
        means[:, 0] = sep * np.arange(k)
    else:
        angles = 2.0 * np.pi * np.arange(k) / k
        means[:, 0] = sep * np.cos(angles)
        means[:, 1] = sep * np.sin(angles)
    labels = np.arange(n) % k
    raw = means[labels] + rng.normal(0.0, 1.0, size=(n, d))
    lo = raw.min(axis=0)
    span = raw.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return Dataset((raw - lo) / span, labels, num_classes=k)


def load_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset, inferring k from the largest label seen (2 to MAX_CLASSES)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(unreadable(path, exc)) from exc
    linenos, rows = [], []
    # lines split as iterating the file splits them: at \n, \r and \r\n only
    for lineno, line in enumerate(io.StringIO(text, newline=""), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values = [float(c) for c in line.split(",")]
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise DataError(f"{path}:{lineno}: non-numeric value")
        if len(values) < 2:
            raise DataError(f"{path}:{lineno}: need at least one feature column")
        if rows and len(values) != len(rows[0]):
            raise DataError(f"{path}:{lineno}: {len(values)} columns, expected {len(rows[0])}")
        if not (values[-1].is_integer() and abs(values[-1]) < 2.0 ** 63):
            raise DataError(f"{path}:{lineno}: label must be an integer, got {values[-1]}")
        if values[-1] >= MAX_CLASSES:
            raise DataError(f"{path}:{lineno}: label {int(values[-1])} >= "
                            f"MAX_CLASSES={MAX_CLASSES}")
        linenos.append(lineno)
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.array(rows)
    features, labels = table[:, :-1], table[:, -1].astype(np.int64)
    k = max(2, int(labels.max()) + 1)
    bad = _invalid_row(features, labels, k)
    if bad is not None:
        raise DataError(f"{path}:{linenos[bad[0]]}: {bad[1]}")
    return Dataset(features, labels, num_classes=k)


def save_dataset_csv(path: str | Path, dataset: Dataset) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"f{j}" for j in range(dataset.dimension)] + ["label"]) + "\n")
        for x, label in zip(dataset.features.tolist(), dataset.labels.tolist()):
            fh.write(",".join(map(repr, x)) + f",{label}\n")
