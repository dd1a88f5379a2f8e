"""Randomized admissible problem instances for the tests."""

from __future__ import annotations

import numpy as np

from slqr.analysis import is_admissible
from slqr.system import CostModel, SystemModel


def random_admissible_system(rng: np.random.Generator,
                             max_state_dim: int = 4,
                             max_input_dim: int = 4,
                             max_channels: int = 2) -> tuple[SystemModel, CostModel]:
    """Draw a system that is mean-square stable with the zero gain.

    A is rescaled to a spectral radius in [0.5, 0.9] and the multiplicative
    variances are kept small; candidates whose moment operator still reaches
    spectral radius 1 are rejected and redrawn.
    """
    for _ in range(200):
        n = int(rng.integers(1, max_state_dim + 1))
        m = int(rng.integers(1, max_input_dim + 1))
        A = rng.normal(size=(n, n))
        radius = np.abs(np.linalg.eigvals(A)).max()
        if radius < 1e-6:
            continue
        A *= rng.uniform(0.5, 0.9) / radius
        B = rng.normal(size=(n, m))
        state_noise = [(rng.normal(size=(n, n)), float(rng.uniform(0.005, 0.03)))
                       for _ in range(int(rng.integers(0, max_channels + 1)))]
        input_noise = [(rng.normal(size=(n, m)), float(rng.uniform(0.005, 0.03)))
                       for _ in range(int(rng.integers(0, max_channels + 1)))]
        g = rng.normal(size=(n, n))
        D = g @ g.T / n + 0.2 * np.eye(n)
        model = SystemModel(A=A, B=B, D=D, X0=np.eye(n),
                            state_noise=state_noise, input_noise=input_noise)
        cost = CostModel(Q=np.diag(rng.uniform(0.5, 2.0, size=n)),
                         R=np.diag(rng.uniform(0.5, 2.0, size=m)))
        admissible, _ = is_admissible(model, np.zeros((m, n)))
        if admissible:
            model.validate()
            cost.validate(model)
            return model, cost
    raise RuntimeError("failed to draw an admissible system in 200 attempts")


def random_admissible_gain(model: SystemModel, rng: np.random.Generator,
                           scale: float = 0.5) -> np.ndarray:
    """A random gain that keeps the loop mean-square stable.

    Shrinks a random direction toward the (admissible) zero gain until the
    stability check passes.
    """
    n, m = model.state_dim, model.input_dim
    direction = rng.normal(size=(m, n))
    for _ in range(40):
        gain = scale * direction
        admissible, _ = is_admissible(model, gain)
        if admissible:
            return gain
        scale /= 2.0
    return np.zeros((m, n))
