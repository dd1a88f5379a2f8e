"""Exception types shared across the package.

Config problems (bad documents, bad field values) raise ConfigError and map
to CLI exit code 1. Numerical failures while solving or learning raise
SolverFailure subclasses and map to exit code 2.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A config document is malformed or fails validation."""


class ValidationError(ValueError):
    """A model, cost, or argument violates a structural invariant."""


class SolverFailure(RuntimeError):
    """Base class for numerical failures in solvers and learners."""


class NotAdmissibleError(SolverFailure):
    """A gain does not stabilize the second moment of the closed loop."""

    def __init__(self, message: str, spectral_radius: float | None = None):
        super().__init__(message)
        self.spectral_radius = spectral_radius


class SingularSystemError(SolverFailure):
    """A linear solve hit a (numerically) singular operator."""


class InsufficientExcitationError(SolverFailure):
    """Collected data does not excite enough directions to identify a kernel."""


class UnreliableKernelError(SolverFailure):
    """An estimated or propagated kernel fails definiteness/conditioning checks."""
