"""Second-moment analysis of the noisy closed loop.

Everything here rests on one object: the closed-loop second-moment operator

    T(X) = F0 X F0^T + sum_i var_i F_i X F_i^T,    F0 = A + B L,

with one scaled factor per multiplicative noise channel (A_i for state
channels, B_j L for input channels). Its matrix form M = sum_c F_c kron F_c
acting on row-major vec(X) decides mean-square stability (rho(M) < 1), gives
the stationary state covariance, and, through its transpose, solves the
cost-side linear equation for the value kernel P of a fixed gain.

is_admissible decides stability exactly, from the eigenvalues of M: O(n^6)
work. stationary_covariance and solve_value_kernel solve first, and accept
the gain when their solution X is a Lyapunov certificate of
rho(M) < 1 - ADMISSIBILITY_MARGIN, which is is_admissible's own rule (see
_certified); no eigenvalue problem runs then. Otherwise (X not positive
definite, e.g. P = 0 for Q = 0 at the zero gain; a bound inside the margin;
a singular or non-finite solve) they fall back to is_admissible, and an
inadmissible gain raises NotAdmissibleError with the exact spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotAdmissibleError,
    SingularSystemError,
    UnreliableKernelError,
    ValidationError,
)
from .packing import symmetrize
from .system import CostModel, SystemModel

# A gain is admissible when rho(M) < 1 - ADMISSIBILITY_MARGIN.
ADMISSIBILITY_MARGIN = 1e-9


@dataclass(frozen=True)
class MomentOperator:
    """Matrix of the covariance propagation X -> unvec(matrix @ vec(X)) + offset."""

    matrix: np.ndarray   # (n*n, n*n)
    offset: np.ndarray   # (n*n,) row-major vec of the additive covariance


def closed_loop_factors(model: SystemModel, gain: np.ndarray) -> list[np.ndarray]:
    """Factors F_c of the moment operator, each pre-scaled by sqrt(variance)."""
    gain = np.asarray(gain, dtype=float)
    n, m = model.state_dim, model.input_dim
    if gain.shape != (m, n):
        raise ValidationError(f"gain must have shape {(m, n)}, got {gain.shape}")
    if not np.isfinite(gain).all():
        raise ValidationError("gain has non-finite entries")
    factors = [model.A + model.B @ gain]
    for mat, var in model.state_noise:
        factors.append(np.sqrt(var) * mat)
    for mat, var in model.input_noise:
        factors.append(np.sqrt(var) * (mat @ gain))
    return factors


def moment_operator(model: SystemModel, gain: np.ndarray) -> MomentOperator:
    factors = closed_loop_factors(model, gain)
    mat = sum(np.kron(f, f) for f in factors)
    return MomentOperator(matrix=mat, offset=model.D.ravel())


def is_admissible(model: SystemModel, gain: np.ndarray,
                  margin: float = ADMISSIBILITY_MARGIN) -> tuple[bool, float]:
    """Mean-square stability check. Returns (flag, spectral radius of M).

    Exact: the eigenvalues of the n^2 x n^2 matrix M. A finite gain so large
    that M overflows gives (False, inf).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        op = moment_operator(model, gain)
    if not np.isfinite(op.matrix).all():
        return False, np.inf
    rho = float(np.abs(np.linalg.eigvals(op.matrix)).max())
    return rho < 1.0 - margin, rho


def _exact_radius(model: SystemModel, gain: np.ndarray) -> float:
    """Spectral radius of M from is_admissible; NotAdmissibleError if too large."""
    admissible, rho = is_admissible(model, gain)
    if not admissible:
        raise NotAdmissibleError(
            f"gain is not admissible: moment spectral radius {rho:.6g} >= 1",
            spectral_radius=rho,
        )
    return rho


def _certified(factors: list[np.ndarray], x: np.ndarray, dual: bool) -> bool:
    """Whether the solution x of X = T(X) + C certifies rho(M) < 1 - margin.

    T(X) = sum_c F_c X F_c^T, or T*(X) = sum_c F_c^T X F_c when dual, is a
    positive map with spectral radius rho(M). If X > 0 and Y = X - T(X) > 0,
    then T(X) <= (1 - lmin(Y)/lmax(X)) X, so rho(M) <= 1 - lmin(Y)/lmax(X).
    Y is formed from the X that is returned, not from C, so the bound holds
    for the computed X.
    """
    if not np.isfinite(x).all():
        return False
    x = (x + x.T) / 2.0   # what symmetrize returns
    x_eigs = np.linalg.eigvalsh(x)
    if x_eigs[0] <= 0:
        return False
    mapped = sum(f.T @ x @ f if dual else f @ x @ f.T for f in factors)
    return np.linalg.eigvalsh(x - mapped)[0] > ADMISSIBILITY_MARGIN * x_eigs[-1]


def _fixed_point(model: SystemModel, gain: np.ndarray, rhs: np.ndarray,
                 dual: bool, name: str) -> np.ndarray:
    """Solve (I - M) vec(X) = rhs, or (I - M^T) vec(X) = rhs when dual, for
    an admissible gain, and return the symmetric X.

    The gain's admissibility is certified from X itself (_certified); only
    when that fails does the exact eigenvalue check of is_admissible run.
    """
    # A finite gain whose operator overflows fails the certificate below, and
    # is_admissible rejects it with rho = inf; numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        op = moment_operator(model, gain)
    n = model.state_dim
    eye = np.eye(n * n)
    try:
        x_vec = np.linalg.solve(eye - (op.matrix.T if dual else op.matrix), rhs)
    except np.linalg.LinAlgError as exc:
        rho = _exact_radius(model, gain)
        raise SingularSystemError(
            f"{name} equation is singular (spectral radius {rho:.6g})"
        ) from exc
    x = x_vec.reshape(n, n)
    if not _certified(closed_loop_factors(model, gain), x, dual):
        _exact_radius(model, gain)
    return symmetrize(x, rtol=1e-6)


def stationary_covariance(model: SystemModel, gain: np.ndarray) -> np.ndarray:
    """Fixed point X = T(X) + D of the covariance propagation."""
    x = _fixed_point(model, gain, model.D.ravel(), dual=False, name="covariance")
    eigs = np.linalg.eigvalsh(x)
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        raise SingularSystemError(
            f"stationary covariance came out indefinite (min eig {eigs.min():.3e})"
        )
    return x


def solve_value_kernel(model: SystemModel, cost: CostModel,
                       gain: np.ndarray) -> np.ndarray:
    """Value kernel P of a fixed admissible gain.

    P solves P = F0^T P F0 + sum_c F_c^T P F_c + Q + L^T R L, the cost-side
    (dual) equation of the moment operator. Solved exactly in vec form:
    (I - M^T) vec(P) = vec(Q + L^T R L).
    """
    gain = np.asarray(gain, dtype=float)
    factors = closed_loop_factors(model, gain)   # checks the gain first
    with np.errstate(over="ignore", invalid="ignore"):   # as in _fixed_point
        rhs = cost.Q + gain.T @ cost.R @ gain
    p = _fixed_point(model, gain, rhs.ravel(), dual=True, name="value-kernel")

    # Residual guard: the solve must reproduce the defining equation.
    recon = sum(f.T @ p @ f for f in factors) + rhs
    rel = np.linalg.norm(recon - p) / max(np.linalg.norm(p), 1.0)
    if rel > 1e-8:
        _, rho = is_admissible(model, gain)
        raise SingularSystemError(
            f"value-kernel solve residual {rel:.3e} too large "
            f"(spectral radius {rho:.6g})"
        )
    return p


def average_cost(value_kernel: np.ndarray, additive_cov: np.ndarray) -> float:
    """Steady-state cost per step of the policy whose kernel is given: tr(P D)."""
    value_kernel = np.asarray(value_kernel, dtype=float)
    additive_cov = np.asarray(additive_cov, dtype=float)
    if value_kernel.shape != additive_cov.shape:
        raise ValidationError(
            f"kernel shape {value_kernel.shape} does not match "
            f"covariance shape {additive_cov.shape}"
        )
    return float(np.trace(value_kernel @ additive_cov))


def input_weight(model: SystemModel, cost: CostModel, value_kernel: np.ndarray) -> np.ndarray:
    """R + B^T P B + sum_j var_j B_j^T P B_j, the input-side curvature."""
    p = value_kernel
    w = cost.R + model.B.T @ p @ model.B
    for mat, var in model.input_noise:
        w = w + var * (mat.T @ p @ mat)
    return w


def greedy_gain(curvature: np.ndarray, cross: np.ndarray,
                max_condition: float = np.inf) -> np.ndarray:
    """Minimiser L = -W^-1 C of u^T W u + 2 u^T C x over u = L x.

    The curvature W must be positive definite, with condition number at most
    max_condition; anything else means the kernel it came from is not
    trustworthy, and raises UnreliableKernelError.
    """
    eigs = np.linalg.eigvalsh(curvature)
    if eigs.min() <= 0:
        raise UnreliableKernelError(
            f"input curvature is not positive definite (min eig {eigs.min():.3e})"
        )
    if eigs.max() / eigs.min() > max_condition:
        raise UnreliableKernelError(
            f"input curvature condition number {eigs.max() / eigs.min():.3e} "
            f"exceeds {max_condition:.1e}"
        )
    return -np.linalg.solve(curvature, cross)


def policy_improvement(model: SystemModel, cost: CostModel,
                       value_kernel: np.ndarray) -> np.ndarray:
    """One-step greedy gain for a value kernel P.

    L = -(R + B^T P B + sum_j var_j B_j^T P B_j)^-1 B^T P A, through
    greedy_gain.
    """
    p = symmetrize(np.asarray(value_kernel, dtype=float), rtol=1e-6)
    return greedy_gain(input_weight(model, cost, p), model.B.T @ p @ model.A)


def riccati_residual(model: SystemModel, cost: CostModel,
                     value_kernel: np.ndarray) -> np.ndarray:
    """Fixed-point defect of the optimality equation at a candidate kernel.

    Zero exactly at the optimal kernel:
    P - [Q + A^T P A + sum_i var_i A_i^T P A_i + A^T P B L]
    with L = -W^-1 B^T P A the greedy gain of P and W the input-side curvature.
    """
    p = symmetrize(np.asarray(value_kernel, dtype=float), rtol=1e-6)
    gain = policy_improvement(model, cost, p)
    open_loop = cost.Q + model.A.T @ p @ model.A
    for mat, var in model.state_noise:
        open_loop = open_loop + var * (mat.T @ p @ mat)
    return p - (open_loop + model.A.T @ p @ model.B @ gain)
