"""Average-cost linear-quadratic regulation under multiplicative and additive
noise: exact model-based policy iteration and an online model-free learner.

The top level holds the README's library surface and the error classes; the
rest is reached through its submodule, e.g. slqr.analysis."""

from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    IllConditionedUpdateError,
    InsufficientExcitationError,
    MalformedVectorError,
    NotAdmissibleError,
    SingularSystemError,
    SolverFailure,
    UnreliableKernelError,
    ValidationError,
)
from .experiment import run_experiment
from .policy_iteration import PolicyIterationTrace
from .qlearning import LearnerConfig, LearningResult, run_online_learning
from .system import CostModel, SystemModel

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "load_config",
    "ConfigError",
    "IllConditionedUpdateError",
    "InsufficientExcitationError",
    "MalformedVectorError",
    "NotAdmissibleError",
    "SingularSystemError",
    "SolverFailure",
    "UnreliableKernelError",
    "ValidationError",
    "run_experiment",
    "PolicyIterationTrace",
    "LearnerConfig",
    "LearningResult",
    "run_online_learning",
    "CostModel",
    "SystemModel",
]
