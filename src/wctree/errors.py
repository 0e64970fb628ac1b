"""Error taxonomy shared across the package."""

from __future__ import annotations


class ConfigurationError(ValueError):
    """An input description (space/set/map JSON, parameters) is not usable."""

    def __init__(self, message: str, pointer: str | None = None):
        self.pointer = pointer
        super().__init__(message if pointer is None else f"{pointer}: {message}")


class ModelIntegrityError(RuntimeError):
    """A set model violated its own declared bound or structure."""


class ContractViolation(RuntimeError):
    """A claimed analytic property failed a spot check; carries a counterexample."""

    def __init__(self, message: str, counterexample=None):
        self.counterexample = counterexample
        super().__init__(message)

