"""Datasets of unit-interval feature vectors with integer labels.

A Dataset is two read-only arrays, `features` (n, d) float64 and `labels`
(n,) int64, plus `num_classes`; `dataset[i]` is the `Example` for row i.
`_invalid_row` alone defines a valid example (features finite and in [0, 1], label
an integer in [0, k)), checked before any cast; an Example is checked as a 1-row batch.

CSV layout: d feature columns followed by one integer label column. A
header row is optional on read and always written on save.

Every file the package reads or writes goes through `read_text` and
`write_lines`, as UTF-8 whatever the host's locale; floats are written by `fmt`.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, is_int
from .records import FrozenRecord
from .seeding import _check_seed, make_rng

# most classes a dataset may have (a CSV's k is inferred from its largest label),
# and largest synthetic n and d: training and synth_dataset allocate (n, k) and
# (n, d) arrays up front, so one stray huge value must fail before them
MAX_CLASSES = 10_000
MAX_SYNTH_N = 1_000_000
MAX_SYNTH_D = 10_000


def fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """The file's UTF-8 text, line ends kept and a leading byte-order mark
    dropped; else `error` naming the file."""
    if not Path(path).exists():
        raise error(f"{what} not found: {path}")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text") from exc
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line and a `\\n` as UTF-8, as lines yields it; else DataError naming path."""
    if "\0" in str(path):  # open raises a bare ValueError for it
        raise DataError(f"{path}: cannot write: embedded null byte")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(line + "\n" for line in lines)
    except (OSError, UnicodeEncodeError) as exc:
        raise DataError(f"{path}: cannot write: {getattr(exc, 'strerror', None) or exc}") from exc


def csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The header, then each row: floats by `fmt`, every other value by `str`."""
    yield ",".join(header)
    for row in rows:
        yield ",".join([fmt(v) if isinstance(v, float) else str(v) for v in row])


def _invalid_row(features: np.ndarray, labels: np.ndarray, num_classes: float,
                 name: str = "k") -> tuple[int, str] | None:
    """The first invalid row and why, or None; a float label must hold an int64 value."""
    feats_ok = ((features >= 0.0) & (features <= 1.0)).all(axis=1)  # False for NaN
    whole = ((np.abs(labels) < 2.0 ** 63) & (np.floor(labels) == labels)  # False for NaN, inf
             if labels.dtype.kind == "f" else np.ones(labels.shape, bool))
    labels_ok = whole & (labels >= 0) & (labels < num_classes)
    bad = np.flatnonzero(~(feats_ok & labels_ok))
    if not bad.size:
        return None
    i = int(bad[0])
    if not feats_ok[i]:
        return i, "features must be finite and lie in [0, 1]"
    if not whole[i]:
        return i, f"label must be an integer, got {labels[i]}"
    if labels[i] < 0:
        return i, f"label {int(labels[i])} is negative"
    return i, f"label {int(labels[i])} >= {name}={num_classes}"


class Example(FrozenRecord):
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
        bad = _invalid_row(feats[None, :], np.array([self.label]), np.inf)
        if bad is not None:
            raise ContractError(bad[1])


class Dataset(FrozenRecord):
    """Read-only features (n, d) in [0, 1] and labels (n,) in [0, num_classes <= MAX_CLASSES)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if not (is_int(self.num_classes) and 2 <= self.num_classes <= MAX_CLASSES):
            raise ContractError(f"num_classes must be an integer in [2, {MAX_CLASSES}], "
                                f"got {self.num_classes!r}")
        try:
            feats = np.array(self.features, dtype=np.float64)
            labels = np.array(self.labels)  # checked as given, then cast to int64
        except ValueError as exc:
            raise ContractError(f"need features (n, d) and labels (n,) as arrays: {exc}") from exc
        # a label is an integer or float number, not a bool, a str or another object
        if feats.ndim != 2 or labels.shape != feats.shape[:1] or labels.dtype.kind not in "iuf":
            raise ContractError(f"need features (n, d) and numeric labels (n,), got shapes "
                                f"{feats.shape} and {labels.shape}, labels of {labels.dtype}")
        if feats.shape[1] < 1:  # the CSV reader refuses d = 0 too
            raise ContractError("need at least one feature column, got d = 0")
        bad = _invalid_row(feats, labels, self.num_classes)
        if bad is not None:
            raise ContractError(f"example {bad[0]}: {bad[1]}")
        labels = labels.astype(np.int64, copy=False)
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


def check_synth(n: int, d: int, k: int, seed: int, prefix: str = "") -> None:
    """Refuse `synth_dataset`'s n, d, k or seed out of range, naming it prefix + its name."""
    for name, value, low, shown, high in (("k", k, 2, 2, MAX_CLASSES), ("d", d, 1, 1, MAX_SYNTH_D),
                                          ("n", n, k, f"{prefix}k = {k}", MAX_SYNTH_N)):
        if not is_int(value):  # k first: it is n's low
            raise ContractError(f"{prefix}{name} must be an integer, got {value!r}")
        if value > high:
            raise ContractError(f"{prefix}{name} must be <= {high}, got {value}")
        if value < low:
            raise ContractError(f"{prefix}{name} must be >= {shown}, got {value}")
    _check_seed(seed, prefix + "seed")


def synth_dataset(n: int, d: int, k: int, seed: int) -> Dataset:
    """Draw k Gaussian blobs and squash each coordinate into [0, 1].

    Class means sit on a circle in the first two coordinates (or are spread
    along the axis for d=1), so a linear model separates them easily. Labels
    round-robin over classes, which keeps them balanced up to rounding.
    """
    check_synth(n, d, k, seed)
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
    """Read a dataset, inferring k from the largest label seen (2 to MAX_CLASSES);
    a faulty file is refused at its first faulty line."""
    path = Path(path)
    text = read_text(path, DataError, "dataset file")
    linenos, rows, fault = [], [], None
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
            fault = f"{path}:{lineno}: non-numeric value"
        else:
            if len(values) < 2:
                fault = f"{path}:{lineno}: need at least one feature column"
            elif rows and len(values) != len(rows[0]):
                fault = f"{path}:{lineno}: {len(values)} columns, expected {len(rows[0])}"
        if fault:
            break
        linenos.append(lineno)
        rows.append(values)
    if not rows:
        raise DataError(fault or f"{path}: no data rows")
    table = np.array(rows)
    features, labels = table[:, :-1], table[:, -1]
    # the rows read all come before a structural fault, so their values are checked first
    bad = _invalid_row(features, labels, MAX_CLASSES, "MAX_CLASSES")
    if bad is not None:
        raise DataError(f"{path}:{linenos[bad[0]]}: {bad[1]}")
    if fault:
        raise DataError(fault)
    return Dataset(features, labels, num_classes=max(2, int(labels.max()) + 1))


def save_dataset_csv(path: str | Path, dataset: Dataset) -> None:
    header = [f"f{j}" for j in range(dataset.dimension)] + ["label"]
    write_lines(path, csv_lines(header, (x + [label] for x, label in zip(
        dataset.features.tolist(), dataset.labels.tolist()))))
