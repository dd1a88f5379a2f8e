"""Second-moment analysis of the noisy closed loop.

Everything here rests on one object: the closed-loop second-moment operator

    T(X) = F0 X F0^T + sum_i var_i F_i X F_i^T,    F0 = A + B L,

with one scaled factor per multiplicative noise channel (A_i for state
channels, B_j L for input channels). Its spectral radius decides mean-square
stability (rho < 1); its fixed point with the additive covariance is the
stationary state covariance, and its adjoint T*(P) = sum_c F_c^T P F_c gives
the cost-side linear equation for the value kernel P of a fixed gain.

T maps symmetric matrices to symmetric matrices, so the solvers work in the
s = n(n+1)/2 coordinates vech(X) (MomentOperator.packed), never with the
n^2 x n^2 Kronecker form. This loses nothing: T commutes with transposition,
so its spectrum is that of the symmetric block plus that of the skew block,
and a positive map attains its spectral radius at a PSD eigenvector
(Krein-Rutman), which lies in the symmetric block.

is_admissible decides stability exactly, from the eigenvalues of the s x s
packed matrix: O(s^3) = O(n^6/8) work, an eighth of the n^2 x n^2 form's.
stationary_covariance and solve_value_kernel solve first, and accept the gain
when their solution X is a Lyapunov certificate of rho < 1 -
ADMISSIBILITY_MARGIN, which is is_admissible's own rule (see _certified); no
eigenvalue problem runs then. Otherwise (X not positive definite, e.g. P = 0
for Q = 0 at the zero gain; a bound inside the margin; a singular or
non-finite solve) they fall back to is_admissible, and an inadmissible gain
raises NotAdmissibleError with the exact spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NotAdmissibleError,
    SingularSystemError,
    UnreliableKernelError,
    ValidationError,
)
from .packing import symmetrize
from .system import CostModel, SystemModel

# A gain is admissible when rho(T) < 1 - ADMISSIBILITY_MARGIN.
ADMISSIBILITY_MARGIN = 1e-9


@dataclass(frozen=True)
class MomentOperator:
    """The covariance propagation X -> T(X) + unvec(offset), held as its factors."""

    factors: list[np.ndarray]   # F_c of T(X) = sum_c F_c X F_c^T
    offset: np.ndarray          # (n*n,) row-major vec of the additive covariance

    @cached_property
    def matrix(self) -> np.ndarray:
        """The defining (n*n, n*n) form sum_c F_c kron F_c on row-major vec(X).

        Formed on first read only; the solvers use packed instead.
        """
        return sum(np.kron(f, f) for f in self.factors)

    def packed(self, dual: bool = False) -> np.ndarray:
        """T, or its adjoint T*(P) = sum_c F_c^T P F_c when dual, on symmetric
        matrices in vech coordinates: an s x s matrix, s = n(n+1)/2.

        Row (i, j) and column (a, b), i <= j and a <= b in np.triu_indices
        order, hold sum_c F_c[i,a] F_c[j,b] + F_c[i,b] F_c[j,a], halved on the
        diagonal columns a = b, where X[a,b] and X[b,a] are one coordinate.
        The products are summed factor by factor, as in matrix, so at n = 1
        the two forms agree bit for bit.
        """
        n = self.factors[0].shape[0]
        rows, cols = np.triu_indices(n)
        # terms[(i, j), a, b] = sum_c F_c[i,a] F_c[j,b]: the rows i <= j of matrix
        terms = 0.0
        for f in self.factors:
            f = f.T if dual else f
            terms = terms + np.einsum("sa,sb->sab", f[rows], f[cols])
        packed = terms[:, rows, cols] + terms[:, cols, rows]
        packed[:, rows == cols] *= 0.5
        return packed


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
    return MomentOperator(factors=closed_loop_factors(model, gain),
                          offset=model.D.ravel())


def is_admissible(model: SystemModel, gain: np.ndarray,
                  margin: float = ADMISSIBILITY_MARGIN) -> tuple[bool, float]:
    """Mean-square stability check. Returns (flag, spectral radius of T).

    Exact: the eigenvalues of the s x s packed matrix of T, s = n(n+1)/2,
    whose spectral radius is that of the n^2 x n^2 matrix (module docstring).
    A finite gain so large that the packed matrix overflows gives
    (False, inf).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mat = moment_operator(model, gain).packed()
    if not np.isfinite(mat).all():
        return False, np.inf
    rho = float(np.abs(np.linalg.eigvals(mat)).max())
    return rho < 1.0 - margin, rho


def _exact_radius(model: SystemModel, gain: np.ndarray) -> float:
    """Spectral radius of T from is_admissible; NotAdmissibleError if too large."""
    admissible, rho = is_admissible(model, gain)
    if not admissible:
        raise NotAdmissibleError(
            f"gain is not admissible: moment spectral radius {rho:.6g} >= 1",
            spectral_radius=rho,
        )
    return rho


def _certified(factors: list[np.ndarray], x: np.ndarray, dual: bool) -> bool:
    """Whether the symmetric solution x of X = T(X) + C certifies
    rho(T) < 1 - margin.

    T(X) = sum_c F_c X F_c^T, or T*(X) = sum_c F_c^T X F_c when dual, is a
    positive map with spectral radius rho(T). If X > 0 and Y = X - T(X) > 0,
    then T(X) <= (1 - lmin(Y)/lmax(X)) X, so rho(T) <= 1 - lmin(Y)/lmax(X).
    Y is formed from the X that is returned, not from C, so the bound holds
    for the computed X.
    """
    if not np.isfinite(x).all():
        return False
    x_eigs = np.linalg.eigvalsh(x)
    if x_eigs[0] <= 0:
        return False
    mapped = sum(f.T @ x @ f if dual else f @ x @ f.T for f in factors)
    return np.linalg.eigvalsh(x - mapped)[0] > ADMISSIBILITY_MARGIN * x_eigs[-1]


def _fixed_point(model: SystemModel, gain: np.ndarray, op: MomentOperator,
                 rhs: np.ndarray, dual: bool, name: str) -> np.ndarray:
    """Solve X = T(X) + C, or X = T*(X) + C when dual, for an admissible
    gain and a symmetric n x n C, and return the symmetric X.

    The solve is (I - op.packed(dual)) vech(X) = vech(C) on the symmetric
    subspace; only the upper triangle of C is read. The gain's admissibility
    is certified from X itself (_certified); only when that fails does the
    exact eigenvalue check of is_admissible run.
    """
    rows, cols = np.triu_indices(model.state_dim)
    # A finite gain whose operator overflows fails the solve or the
    # certificate below, and is_admissible rejects it with rho = inf; numpy
    # need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        mat = op.packed(dual)
    try:
        x_vech = np.linalg.solve(np.eye(len(rows)) - mat, rhs[rows, cols])
    except np.linalg.LinAlgError as exc:
        rho = _exact_radius(model, gain)
        raise SingularSystemError(
            f"{name} equation is singular (spectral radius {rho:.6g})"
        ) from exc
    x = np.empty_like(rhs)
    x[rows, cols] = x_vech
    x[cols, rows] = x_vech
    if not _certified(op.factors, x, dual):
        _exact_radius(model, gain)
    return x


def stationary_covariance(model: SystemModel, gain: np.ndarray) -> np.ndarray:
    """Fixed point X = T(X) + D of the covariance propagation."""
    with np.errstate(over="ignore", invalid="ignore"):   # as in is_admissible
        op = moment_operator(model, gain)
    x = _fixed_point(model, gain, op, model.D, dual=False, name="covariance")
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
    (dual) equation of the moment operator. Solved exactly on the symmetric
    subspace: (I - T*) vech(P) = vech(Q + L^T R L) in packed coordinates.
    """
    gain = np.asarray(gain, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # as in is_admissible
        op = moment_operator(model, gain)   # checks the gain first
        rhs = cost.Q + gain.T @ cost.R @ gain
    p = _fixed_point(model, gain, op, rhs, dual=True, name="value-kernel")

    # Residual guard: the solve must reproduce the defining equation.
    recon = sum(f.T @ p @ f for f in op.factors) + rhs
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
