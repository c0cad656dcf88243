"""Flat key = value experiment configs with one [attack <id>] section per attack.

The format is deliberately line-oriented so configs diff cleanly: global
keys first, then one section per attack. Grids accept either a comma list
or lo:hi:count (inclusive linspace, 1 <= count <= MAX_GRID_POINTS). parse ->
serialize -> parse is exact.

The config keys are the fields of `ExperimentConfig` and `AttackConfig`;
each field's annotation picks its parse and format functions from
`_CODECS`. Only the criterion (keys `criterion` and `threshold`), the
attack list (the sections) and an attack's id (its section header) are
handled by name.

A rule on a value has one definition, in the module that uses the value, and
parsing calls it: `AttackConfig`, `Criterion`, `TrainParams` and
`BudgetPolicy` (`train_params`, `budget`) check their fields, `check_grid`
the grids, `check_gap_size` the gap sizes and `check_attack_ids` each
section's id, so a config the parser accepts passes every check the run makes
later. Only the integer ranges no consumer checks are the config's own
(`_INT_RANGES`). A failed check names the line of the key its message starts
with, else the section header or the file.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .attacks import MAX_NUM_STEPS, MAX_ROWS_PER_EXAMPLE, VARIANTS, AttackConfig  # noqa: F401
from .bundler import (MAX_CONFIDENCE, MISCLASSIFY, THRESHOLD_RANGE, BudgetPolicy, Criterion,
                      check_attack_ids, check_gap_size)
from .data import MAX_SYNTH_D, MAX_SYNTH_N
from .errors import ConfigError, ContractError, unreadable
from .models import ARCHITECTURES, TrainParams
from .reporting import check_grid, fmt


def _default_threshold_grid() -> tuple[float, ...]:
    return tuple(float(t) for t in np.linspace(0.5, 0.99, 50))


def _default_epsilon_grid() -> tuple[float, ...]:
    return tuple(float(e) for e in np.linspace(0.0, 0.3, 31))


# widest hidden layer, allocated up front, and most training epochs, each a pass
# over the data: a stray 10**9 must fail here, not as a MemoryError or endless run
MAX_HIDDEN = 10_000
MAX_EPOCHS = 100_000
# (low, high) of each integer key no consumer checks (TrainParams names train_seed
# `seed`, the bundling seed's key), None for no bound; a str low names its bound's key
_INT_RANGES = {"synth_seed": (0, None), "synth_n": ("synth_k", MAX_SYNTH_N),
               "synth_d": (1, MAX_SYNTH_D), "synth_k": (2, None), "hidden": (None, MAX_HIDDEN),
               "epochs": (None, MAX_EPOCHS), "max_units": (0, None), "train_seed": (0, None)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of one `advbundle run`: data, model, training, bundle and reports."""

    dataset: str = "synthetic"
    csv_path: str | None = None
    synth_n: int = 600
    synth_d: int = 2
    synth_k: int = 3
    synth_seed: int = 7
    architecture: str = "mlp1"
    hidden: int = 16
    learning_rate: float = 0.3
    epochs: int = 120
    batch_size: int = 32
    train_seed: int = 1
    criterion: Criterion = field(default_factory=Criterion.misclassify)
    max_units: int | None = None
    early_stop: bool = True
    threshold_grid: tuple[float, ...] = field(default_factory=_default_threshold_grid)
    epsilon_grid: tuple[float, ...] = field(default_factory=_default_epsilon_grid)
    gap_ns: tuple[int, ...] = (1, 2, 10, 100, 1000)
    seed: int = 0
    output_dir: str = "out"
    dump_candidates: bool = False
    attacks: tuple[AttackConfig, ...] = ()

    def __post_init__(self):
        if self.dataset not in ("synthetic", "csv"):
            raise ConfigError(f"dataset must be 'synthetic' or 'csv', got {self.dataset!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigError("dataset = csv requires csv_path")
        for key, (low, high) in _INT_RANGES.items():
            value, floor = getattr(self, key), getattr(self, low) if isinstance(low, str) else low
            if value is not None and high is not None and value > high:
                raise ConfigError(f"{key} must be <= {high}")
            if value is not None and floor is not None and value < floor:
                raise ConfigError(f"{key} must be >= {low}")
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"architecture must be one of {', '.join(ARCHITECTURES)}, "
                              f"got {self.architecture!r}")
        try:  # the rules of the values' consumers, so a run fails none after parsing
            check_grid("threshold_grid", self.threshold_grid, THRESHOLD_RANGE)
            check_grid("epsilon_grid", self.epsilon_grid)
            for n in self.gap_ns:
                check_gap_size(n, "gap_ns entries")
            check_attack_ids([attack.attack_id for attack in self.attacks])
            self.train_params, self.budget
        except ContractError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def train_params(self) -> TrainParams:
        return TrainParams(self.learning_rate, self.epochs, self.batch_size,
                           self.train_seed, hidden=self.hidden)

    @property
    def budget(self) -> BudgetPolicy:
        return BudgetPolicy(self.max_units, self.early_stop)


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


# lo:hi:count builds every point up front; a stray count of 10**9 would ask for 7.5 GiB
MAX_GRID_POINTS = 10_000


def _parse_grid(value: str) -> tuple[float, ...]:
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected lo:hi:count, got {len(parts)} ':'-separated fields")
        lo, hi, count = parts
        if int(count) < 1:
            raise ValueError("a lo:hi:count grid needs a count of at least 1")
        if int(count) > MAX_GRID_POINTS:
            raise ValueError(f"more than {MAX_GRID_POINTS} grid points")
        with np.errstate(invalid="ignore", over="ignore"):  # a NaN point fails the grid rule
            return tuple(float(t) for t in np.linspace(float(lo), float(hi), int(count)))
    return tuple(float(v) for v in value.split(","))


def _parse_int_list(value: str) -> tuple[int, ...]:
    return tuple(int(v) for v in value.split(","))


# field annotation (a string under `from __future__ import annotations`)
# -> (parse, format); parse raises ValueError on a malformed value
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, fmt),
    "bool": (_parse_bool, lambda v: str(v).lower()),
    "tuple[float, ...]": (_parse_grid, lambda v: ",".join(fmt(t) for t in v)),
    "tuple[int, ...]": (_parse_int_list, lambda v: ",".join(str(n) for n in v)),
}
# an optional field reads "none" as None; serialize leaves None fields out
_CODECS.update({
    f"{name} | None": (lambda v, parse=parse: None if v.lower() == "none" else parse(v), form)
    for name, (parse, form) in _CODECS.items()
})


def _keys(cls, *by_name: str) -> dict[str, tuple]:
    """Config key -> codec for every field of cls not handled by name."""
    return {f.name: _CODECS[f.type] for f in fields(cls) if f.name not in by_name}


_EXPERIMENT_KEYS = _keys(ExperimentConfig, "criterion", "attacks")
# the criterion field is written as two top-level keys
_TOP_KEYS = {**_EXPERIMENT_KEYS, "criterion": _CODECS["str"], "threshold": _CODECS["float"]}
_ATTACK_KEYS = _keys(AttackConfig, "attack_id")


def _convert(codecs: dict[str, tuple], entries: dict[str, tuple[str, str]]) -> dict:
    """Parse each `key -> (value, where)` entry with its key's codec."""
    out = {}
    for key, (value, where) in entries.items():
        try:
            out[key] = codecs[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key}: {value!r} ({exc})") from exc
    return out


def _line_of(exc: Exception, entries: dict[str, tuple[str, str]], where: str) -> str:
    """The line of the key a check's message starts with, else `where`."""
    key = str(exc).split(" ", 1)[0]
    return entries[key][1] if key in entries else where


def _build_attack(attack_id: str, where: str, entries: dict[str, tuple[str, str]],
                  earlier_ids: list[str]) -> AttackConfig:
    for f in fields(AttackConfig):
        if f.name in _ATTACK_KEYS and f.default is MISSING and f.name not in entries:
            raise ConfigError(f"{where}: attack section needs {f.name}")
    if entries["variant"][0] not in VARIANTS:  # a config cannot supply runners
        raise ConfigError(f"{where}: unknown variant {entries['variant'][0]!r}")
    try:
        check_attack_ids(earlier_ids + [attack_id])
        return AttackConfig(attack_id, **_convert(_ATTACK_KEYS, entries))
    except ContractError as exc:
        raise ConfigError(f"{_line_of(exc, entries, where)}: {exc}") from exc


def parse_experiment_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse config text; errors carry the offending line number."""
    global_entries: dict[str, tuple[str, str]] = {}
    entries, known = global_entries, _TOP_KEYS.keys()
    sections: list[tuple[str, str, dict[str, tuple[str, str]], list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{where}: unterminated section header")
            header = line[1:-1].split()
            if len(header) != 2 or header[0] != "attack":
                raise ConfigError(f"{where}: section header must be [attack <id>]")
            attack_id = header[1]
            entries, known = {}, _ATTACK_KEYS.keys()
            sections.append((attack_id, where, entries, [section[0] for section in sections]))
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{where}: expected key = value")
        if key not in known:
            kind = "attack key" if sections else "key"
            raise ConfigError(f"{where}: unknown {kind} {key!r}")
        if key in entries:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        entries[key] = (value, where)

    kwargs = _convert(_TOP_KEYS, global_entries)
    variant = kwargs.pop("criterion", MISCLASSIFY)
    threshold = kwargs.pop("threshold", 0.9 if variant == MAX_CONFIDENCE else None)
    attacks = tuple(_build_attack(*section) for section in sections)
    try:
        return ExperimentConfig(criterion=Criterion(variant, threshold), attacks=attacks,
                                **kwargs)
    except (ConfigError, ContractError) as exc:
        raise ConfigError(f"{_line_of(exc, global_entries, source)}: {exc}") from exc


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(unreadable(path, exc)) from exc
    return parse_experiment_config(text, source=str(path))


def _key_lines(obj, codecs: dict[str, tuple]) -> list[str]:
    return [f"{f.name} = {codecs[f.name][1](getattr(obj, f.name))}"
            for f in fields(obj) if f.name in codecs and getattr(obj, f.name) is not None]


def serialize_experiment_config(config: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces the config exactly."""
    lines = _key_lines(config, _EXPERIMENT_KEYS)
    lines.append(f"criterion = {config.criterion.variant}")
    if config.criterion.threshold is not None:
        lines.append(f"threshold = {fmt(config.criterion.threshold)}")
    for attack in config.attacks:
        lines += ["", f"[attack {attack.attack_id}]", *_key_lines(attack, _ATTACK_KEYS)]
    return "\n".join(lines) + "\n"


def with_output_dir(config: ExperimentConfig, output_dir: str) -> ExperimentConfig:
    return replace(config, output_dir=output_dir)
