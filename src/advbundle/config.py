"""Flat key = value experiment configs with one [attack <id>] section per attack.

The format is deliberately line-oriented so configs diff cleanly: global
keys first, then one section per attack. Grids accept either a comma list
or lo:hi:count (inclusive linspace, 1 <= count <= MAX_GRID_POINTS). parse ->
serialize -> parse is exact.

The config keys are the fields of `ExperimentConfig` and `AttackConfig`;
each field's annotation picks its parse and format functions, and the
kind test `ExperimentConfig` applies to the field before any other rule,
from `_CODECS`. Only the criterion (keys `criterion` and `threshold`), the
attack list (the sections) and an attack's id (its section header) are
handled by name.

A rule on a value has one definition, in the module that uses the value, which
takes the value's name. `ExperimentConfig` calls each with its key, so a config
built in code is refused before any training, as a file is, and a config the
parser accepts passes every check the run makes later; the parser also makes
`check_attacks`' per-entry check as it reads each section. The config's own
rules are the kind tests, the dataset source and a non-empty output_dir. A
failed check names the line of the key its message starts with, else the
section header or the file.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields
from pathlib import Path

import numpy as np

from .attacks import AttackConfig
from .bundler import (MAX_CONFIDENCE, MISCLASSIFY, THRESHOLD_RANGE, BudgetPolicy, Criterion,
                      _check_attack, _check_run, check_attacks, check_gap_size, check_unit_cap)
from .data import check_synth, fmt, read_text
from .errors import ConfigError, ContractError, is_int, is_real, is_sequence_of
from .models import TrainParams, check_architecture
from .records import ValueRecord
from .reporting import check_grid
from .seeding import _check_seed


def _default_threshold_grid() -> tuple[float, ...]:
    return tuple(float(t) for t in np.linspace(0.5, 0.99, 50))


def _default_epsilon_grid() -> tuple[float, ...]:
    return tuple(float(e) for e in np.linspace(0.0, 0.3, 31))


class ExperimentConfig(ValueRecord):
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
        for key, (_, _, kind, noun) in _EXPERIMENT_KEYS.items():
            if not kind(getattr(self, key)):
                raise ConfigError(f"{key} must be {noun}, got {getattr(self, key)!r}")
        if self.dataset not in ("synthetic", "csv"):
            raise ConfigError(f"dataset must be 'synthetic' or 'csv', got {self.dataset!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigError("dataset = csv requires csv_path")
        if not self.output_dir:  # Path("") is the working directory
            raise ConfigError("output_dir must be a non-empty path")
        try:  # the rules of the values' consumers, so a run fails none after parsing
            check_synth(self.synth_n, self.synth_d, self.synth_k, self.synth_seed, "synth_")
            check_architecture(self.architecture)
            check_unit_cap(self.max_units, "max_units")
            _check_run(self.criterion, seed=self.seed)
            check_grid("threshold_grid", self.threshold_grid, THRESHOLD_RANGE)
            check_grid("epsilon_grid", self.epsilon_grid)
            for n in self.gap_ns:
                check_gap_size(n, "gap_ns entries")
            check_attacks(self.attacks)  # a config cannot supply runners
            _check_seed(self.train_seed, "train_seed")  # else TrainParams names it `seed`
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


def _sequence_of(is_kind):
    """The kind test of a sequence (not text) whose entries pass is_kind."""
    return lambda v: is_sequence_of(v, is_kind)


# field annotation (a string under `from __future__ import annotations`)
# -> (parse, format, kind, noun); parse raises ValueError on a malformed value, and
# ExperimentConfig refuses a field whose value fails kind, which parse never returns
_CODECS = {
    "str": (str, str, lambda v: isinstance(v, str), "a string"),
    "int": (int, str, is_int, "an integer"),
    "float": (float, fmt, is_real, "a number"),
    "bool": (_parse_bool, lambda v: str(v).lower(),
             lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
    "tuple[float, ...]": (_parse_grid, lambda v: ",".join(fmt(t) for t in v),
                          _sequence_of(is_real), "a sequence of numbers"),
    "tuple[int, ...]": (_parse_int_list, lambda v: ",".join(str(n) for n in v),
                        _sequence_of(is_int), "a sequence of integers"),
}
# an optional field reads "none" as None; serialize leaves None fields out
_CODECS.update({
    f"{name} | None": (lambda v, parse=parse: None if v.lower() == "none" else parse(v), form,
                       lambda v, kind=kind: v is None or kind(v), f"{noun} or none")
    for name, (parse, form, kind, noun) in _CODECS.items()
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


def _build_attack(seen: set[str], attack_id: str, where: str,
                  entries: dict[str, tuple[str, str]]) -> AttackConfig:
    for f in fields(AttackConfig):
        if f.name in _ATTACK_KEYS and f.default is MISSING and f.name not in entries:
            raise ConfigError(f"{where}: attack section needs {f.name}")
    try:
        attack = AttackConfig(attack_id, **_convert(_ATTACK_KEYS, entries))
        _check_attack(attack, seen)  # a config cannot supply runners
        return attack
    except ContractError as exc:
        raise ConfigError(f"{_line_of(exc, entries, where)}: {exc}") from exc


def parse_experiment_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse config text; errors carry the offending line number."""
    global_entries: dict[str, tuple[str, str]] = {}
    entries, known = global_entries, _TOP_KEYS.keys()
    sections: list[tuple[str, str, dict[str, tuple[str, str]]]] = []

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
            sections.append((attack_id, where, entries))
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
    seen: set[str] = set()
    attacks = tuple(_build_attack(seen, *section) for section in sections)
    try:
        return ExperimentConfig(criterion=Criterion(variant, threshold), attacks=attacks,
                                **kwargs)
    except (ConfigError, ContractError) as exc:
        raise ConfigError(f"{_line_of(exc, global_entries, source)}: {exc}") from exc


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_experiment_config(read_text(path, ConfigError, "config file"), str(path))


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
