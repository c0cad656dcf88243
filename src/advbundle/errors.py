"""Exception types shared across the package, and the integer and real-number
tests every check of a count, a seed or a magnitude uses."""

from numbers import Real

import numpy as np


def is_int(value) -> bool:
    """Whether value is an integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is a real number; a bool is not a magnitude."""
    return isinstance(value, Real) and not isinstance(value, bool)


def is_int_or_none(value) -> bool:
    return value is None or is_int(value)


class ShapeError(ValueError):
    """An array argument has the wrong dimension or shape."""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class ConfigError(ValueError):
    """An experiment config file is malformed."""


class DataError(ValueError):
    """A dataset file is missing, malformed, or out of range."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}: non-finite loss")


class AttackFailedError(RuntimeError):
    """An attack hit a non-finite value and produced no usable candidate."""

    def __init__(self, example_index: int, attack_id: str, step: int | None = None,
                 restart: int | None = None, reason: str = "non-finite gradient"):
        self.example_index = example_index
        self.attack_id = attack_id
        self.step = step
        self.restart = restart
        where = ""
        if restart is not None:
            where += f", restart {restart}"
        if step is not None:
            where += f", step {step}"
        super().__init__(
            f"attack {attack_id!r} failed on example {example_index}{where}: {reason}"
        )
