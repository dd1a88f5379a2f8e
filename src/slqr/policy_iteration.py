"""Policy iteration for the average-cost problem.

evaluate_improve is the loop both solvers share: evaluate the gain, improve
it greedily, stop when the gain stops moving. policy_iteration evaluates
exactly (the value-kernel linear solve); the learner,
qlearning.learn_from_rollouts, fits a kernel to one rollout. From any
admissible gain the exact kernels decrease monotonically in the semidefinite
order down to the optimal kernel, so policy_iteration is also the reference
solver for the optimality equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import (
    average_cost,
    check_admissible,
    is_admissible,
    policy_improvement,
    q_kernel_matrix,
    solve_value_kernel,
)
from .errors import SolverFailure, ValidationError
from .packing import as_matrix, symmetrize
from .system import CostModel, SystemModel, check_integer, check_positive


@dataclass(frozen=True)
class QKernel:
    """Kernel of the quadratic state-input value form z^T H z, z = [x; u].

    Block accessors follow the usual xx/xu/uu split at state_dim. matrix
    is read by packing.symmetrize: a square matrix of real numbers, finite
    or not (policy_from_h rejects a non-finite one).
    """

    matrix: np.ndarray
    state_dim: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", symmetrize(self.matrix))
        object.__setattr__(self, "state_dim", check_integer(self.state_dim, "state_dim", 1))
        r = self.matrix.shape[0]
        if not self.state_dim < r:
            raise ValidationError(f"state_dim {self.state_dim} must split a {r} x {r} kernel")

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[0] - self.state_dim

    @property
    def xx(self) -> np.ndarray:
        return self.matrix[:self.state_dim, :self.state_dim]

    @property
    def xu(self) -> np.ndarray:
        return self.matrix[:self.state_dim, self.state_dim:]

    @property
    def ux(self) -> np.ndarray:
        return self.matrix[self.state_dim:, :self.state_dim]

    @property
    def uu(self) -> np.ndarray:
        return self.matrix[self.state_dim:, self.state_dim:]

    def value_kernel(self, gain: np.ndarray) -> np.ndarray:
        """Contract back to the state-value kernel: [I; L]^T H [I; L], for a
        finite (m, n) gain (as_matrix)."""
        gain = as_matrix(gain, "gain", (self.input_dim, self.state_dim))
        basis = np.vstack([np.eye(self.state_dim), gain])
        return symmetrize(basis.T @ self.matrix @ basis)


def q_kernel_from_value(model: SystemModel, cost: CostModel,
                        value_kernel: np.ndarray) -> QKernel:
    """Lift a state-value kernel P to the state-input kernel H
    (analysis.q_kernel_matrix). A kernel that is not a finite n x n matrix
    raises ValidationError.
    """
    return QKernel(q_kernel_matrix(model, cost, value_kernel), model.state_dim)


def _settled(gain: np.ndarray, gain_next: np.ndarray, tol: float) -> bool:
    """The loop's stop test: successive gains agree to tol in Frobenius norm (inf on overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(gain_next - gain) < tol


@dataclass
class PolicyIterationTrace:
    """Per-iteration history. gains has one more entry than kernels/costs
    (the initial gain), and costs[t] is the cost of gains[t]; policy_iteration
    gives tr(kernels[t] @ D)."""

    gains: list[np.ndarray]
    kernels: list[np.ndarray]
    costs: list[float]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.kernels)

    def prefix(self, tol: float, max_iter: int) -> PolicyIterationTrace:
        """The trace the same loop returns at a looser (tol, max_iter).

        Each step depends only on the gain before it, so a run at a tighter
        tol or a larger max_iter takes the same first steps. The prefix ends
        at the first step that passes the loop's own stop test at tol, or
        after max_iter steps, and sets converged the same way. Raises
        ValueError when this trace stopped too early to tell.
        """
        for k in range(min(max_iter, self.iterations)):
            if _settled(self.gains[k], self.gains[k + 1], tol):
                return self._head(k + 1, converged=True)
        if self.iterations < max_iter:
            raise ValueError(f"a {self.iterations}-step trace cannot be cut to "
                             f"tol {tol:g}, max_iter {max_iter}")
        return self._head(max_iter, converged=False)

    def _head(self, steps: int, converged: bool) -> PolicyIterationTrace:
        return PolicyIterationTrace(gains=self.gains[:steps + 1],
                                    kernels=self.kernels[:steps],
                                    costs=self.costs[:steps], converged=converged)


def evaluate_improve(initial_gain: np.ndarray,
                     step: Callable[[int, np.ndarray], tuple],
                     tol: float, max_iter: int) -> PolicyIterationTrace:
    """Iterate step(tau, gain) -> (kernel, cost, next gain) from initial_gain.

    Stops when successive gains agree to tol in Frobenius norm. Hitting
    max_iter is reported via converged=False, not an exception. A
    SolverFailure raised in iteration tau propagates with the same type and
    attributes, its message prefixed with "iteration {tau}: ".
    """
    trace = PolicyIterationTrace(gains=[initial_gain], kernels=[], costs=[], converged=False)
    for tau in range(max_iter):
        try:
            kernel, cost, gain_next = step(tau, trace.gains[-1])
        except SolverFailure as exc:
            exc.args = (f"iteration {tau}: {exc}",)
            raise
        trace.kernels.append(kernel)
        trace.costs.append(cost)
        trace.gains.append(gain_next)
        if _settled(trace.gains[-2], gain_next, tol):
            trace.converged = True
            break
    return trace


def policy_iteration(model: SystemModel, cost: CostModel, initial_gain: np.ndarray,
                     tol: float = 1e-9, max_iter: int = 100) -> PolicyIterationTrace:
    """Exact policy iteration from an admissible initial gain.

    Each evaluate_improve step solves the gain's value kernel P, records
    tr(P D) as its cost and takes the greedy gain of P. From the second step
    on the solve starts from the previous step's kernel (the start of
    solve_value_kernel), which the kernels' monotone decrease keeps close.
    """
    tol = check_positive(tol, "tol", finite=True)
    max_iter = check_integer(max_iter, "max_iter", 1)
    gain = as_matrix(initial_gain, "initial_gain", (model.input_dim, model.state_dim))
    check_admissible(is_admissible(model, gain), "initial gain")

    previous = None

    def step(tau: int, gain: np.ndarray):
        nonlocal previous
        p = previous = solve_value_kernel(model, cost, gain, previous)
        return p, average_cost(p, model.D), policy_improvement(model, cost, p)

    return evaluate_improve(gain, step, tol, max_iter)
