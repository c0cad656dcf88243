"""Exception types shared across the package."""


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
