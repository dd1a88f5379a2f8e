"""Policy iteration for the average-cost problem.

evaluate_improve is the loop both solvers share: evaluate the gain, improve
it greedily, stop when the gain stops moving. policy_iteration evaluates
exactly (the value-kernel linear solve); the learner,
qlearning.learn_from_rollouts, fits the state-input kernel to one rollout.
Either records its kernels as plain symmetric arrays. From any
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
    solve_value_kernel,
)
from .errors import SolverFailure
from .packing import as_matrix
from .system import CostModel, SystemModel, check_integer, check_positive


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
