"""Second-moment analysis of the noisy closed loop.

Everything here rests on one object: the closed-loop second-moment operator

    T(X) = sum_c F_c X F_c^T,    F_c = E_c [I; L],

over the model's channel factors E_c = sqrt(var_c) [A_c B_c]
(SystemModel.channels): F0 = A + B L, then sqrt(var_i) A_i and
sqrt(var_j) B_j L. Its spectral radius decides mean-square stability
(rho < 1); its fixed point with the additive covariance is the stationary
state covariance, and its adjoint T*(P) = sum_c F_c^T P F_c gives the
cost-side linear equation for the value kernel P of a fixed gain. T* is
the map of the same form built from the transposed factors F_c^T (Damm,
LNCIS 297, 2004), so the solves below only ever solve X = T(X) + C. The
same channels lift P to the state-input kernel
H = diag(Q, R) + sum_c E_c^T P E_c (q_kernel_matrix; De Koning,
Automatica 1982), whose blocks give the greedy gain and the Riccati defect.

T is held in one form, the (c, n, n) stack of its factors that
moment_operator returns; every routine below takes it, T*'s is its
transpose, and _operator prepares T's application from it. T maps
symmetric matrices to symmetric matrices, so the solvers work in the
s = n(n+1)/2 coordinates vech(X), never with the n^2 x n^2 Kronecker form:
packed(stack) is T's s x s matrix there, packing.congruence of its stack.
This loses nothing: T commutes with transposition, so its spectrum is that
of the symmetric block plus that of the skew block, and a positive map
attains its spectral radius at a PSD eigenvector (Krein-Rutman), which lies
in the symmetric block.

is_admissible decides stability exactly. From PERRON_MIN_N states on it
brackets the Perron root (_perron_radius): T is a positive map, so an X > 0
with lo X <= T(X) <= hi X puts rho in [lo, hi] (Collatz-Wielandt). X comes
from matrix-free power steps, O(c n^3) each, until the observed rate of the
bracket's width predicts more steps than a packed build and three LU steps
cost; then shifted inverse steps on the s x s packed matrix M take over.
Below PERRON_MIN_N, and when the bracket does not close, the eigenvalues of
M decide: O(s^3) = O(n^6/8) work, an eighth of the n^2 x n^2 form's.

stationary_covariance and solve_value_kernel are one solve, _fixed_point,
with one acceptance rule: its solvers run in turn, and the first solution X
that meets its defining equation to RESIDUAL_RTOL and is a Lyapunov
certificate of rho < 1 - ADMISSIBILITY_MARGIN (X > 0 and
X - T(X) > ADMISSIBILITY_MARGIN |X|_F I, two Cholesky factorizations, see
_certified; is_admissible's own threshold) is returned, with no eigenvalue
problem. There are two solvers. The packed LU of the s x s matrix costs
O(n^6) and is the only one below MATRIX_FREE_MIN_N states, where it is the
faster one. From there on a matrix-free splitting runs first
(_splitting_solve), O(n^3) work in n x n products per sweep. Each sweep is
X <- X + S_K(C + T(X) - X), with S_K(Z) = sum_{k<K} F0^k Z (F0^k)^T taken
in J doublings for K = 2^J (Smith 1968): the whole residual, smoothed by
the mean loop, and no tail product, so the depth J sets the rate and not
the answer. J is the least depth whose tail F0^K is small next to the
noise channels: one or two doublings where the noise caps the rate anyway.
The sweeps converge exactly when rho(T) < 1, by the positive-map argument
in _splitting_solve. The splitting gives up near the stability edge (as
soon as two successive step ratios show that its sweep cap is too short),
when F0^K does not get small (F0 not Schur-stable) and on overflow, and
then the packed LU runs as below the crossover. It sweeps from X = 0, or
from a start that solve_value_kernel is given: policy iteration passes the
previous sweep's kernel, which lies close above the next one, and saves a
few sweeps per solve.

When no X is accepted there is one exit, through the exact check of
is_admissible: an inadmissible gain raises NotAdmissibleError with the exact
spectral radius. For an admissible gain, an X that meets its equation but
certifies nothing (e.g. P = 0 for Q = 0 at the zero gain, or a bound inside
the margin) is returned; with no such X the solve raises SingularSystemError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    NotAdmissibleError,
    SingularSystemError,
    SolverFailure,
    UnreliableKernelError,
    ValidationError,
)
from .packing import as_matrix, congruence as packed, symmetrize, unvech, vech
from .system import (CostModel, SystemModel, check_cost, check_integer, check_positive,
                     loop_factors)

# A gain is admissible when rho(T) < 1 - ADMISSIBILITY_MARGIN.
ADMISSIBILITY_MARGIN = 1e-9

# is_admissible brackets the Perron root from this state dimension on; below
# it the eigenvalues of the packed matrix are faster (table in README).
PERRON_MIN_N = 11
# _perron_radius takes its first bracket after PERRON_POWER_STEPS power
# steps and at most PERRON_INVERSE_STEPS shifted inverse steps after the
# hand-over, and accepts a bracket on rho at most PERRON_RTOL * rho wide.
PERRON_POWER_STEPS = 48
PERRON_INVERSE_STEPS = 8
PERRON_RTOL = 1e-12

# _fixed_point tries the matrix-free splitting first from this state
# dimension on; below it the packed LU is faster (crossover table in README).
MATRIX_FREE_MIN_N = 14
# The splitting stops when its a-posteriori error bound falls to
# SPLITTING_RTOL of |X|. It gives up after SPLITTING_MAX_SWEEPS sweeps, as
# soon as its step ratios show that the sweeps left cannot get there, or
# when no doubling depth within STEIN_MAX_SQUARINGS squarings brings
# |F0^(2^J)|_F^2 to STEIN_TAIL_RATIO of the noise channels' sum_c |F_c|_F^2
# (or to SPLITTING_RTOL, when the noise is smaller).
SPLITTING_RTOL = 1e-14
SPLITTING_MAX_SWEEPS = 20
STEIN_TAIL_RATIO = 0.3
STEIN_MAX_SQUARINGS = 8
# The defining equation must hold to this relative residual (_residual).
RESIDUAL_RTOL = 1e-8


def moment_operator(model: SystemModel, gain: np.ndarray) -> np.ndarray:
    """The factors F_c = E_c [I; L] of T (system.loop_factors) stacked in one
    C-contiguous (c, n, n) array: F0 = A + B L first, always, then
    sqrt(var_i) A_i and sqrt(var_j) B_j L.
    A noise factor that is exactly zero, as every B_j L is at the zero gain
    where policy iteration starts, is left out. It adds only zeros to T(X),
    and no bit of packed(stack) changes: each sum there runs over c from 0.0,
    so it never holds a -0.0 (0.0 + -0.0 is 0.0), and the +-0 products of a
    zero factor change nothing in it. loop_factors checks the gain."""
    factors = loop_factors(model, gain)
    kept = factors[1:].any(axis=(1, 2))
    return factors if kept.all() else factors[np.concatenate(([True], kept))]


def is_admissible(model: SystemModel, gain: np.ndarray) -> tuple[bool, float]:
    """Mean-square stability check. Returns (flag, spectral radius of T).

    Exact: the spectral radius of T on symmetric matrices, that of the
    n^2 x n^2 matrix (module docstring). From PERRON_MIN_N states on it is
    the midpoint of a closed Perron bracket (_perron_radius); else, and when
    the bracket does not close, the largest eigenvalue modulus of the packed
    matrix, built at most once. An overflowing packed matrix gives (False, inf).
    """
    # Overflowing or vanishing iterates end non-finite; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stack = moment_operator(model, gain)
        mat = functools.cache(lambda: packed(stack))
        rho = (_perron_radius(stack, _operator(stack), mat)
               if model.state_dim >= PERRON_MIN_N else None)
        if rho is None and np.isfinite(mat()).all():
            rho = float(np.abs(np.linalg.eigvals(mat())).max())
    return (False, np.inf) if rho is None else (rho < 1.0 - ADMISSIBILITY_MARGIN, rho)


def check_admissible(verdict: tuple[bool, float], label: str) -> float:
    """The spectral radius of an is_admissible verdict (flag, rho); raises
    NotAdmissibleError, naming the gain by label, when the flag is False."""
    admissible, rho = verdict
    if not admissible:
        raise NotAdmissibleError(
            f"{label} is not admissible: moment spectral radius {rho:.6g} >= 1",
            spectral_radius=rho)
    return rho


def _perron_radius(stack: np.ndarray, apply, packed_matrix) -> float | None:
    """Spectral radius of T (its factor stack and apply = _operator(stack))
    from a closed Collatz-Wielandt bracket, or None when it does not close.

    For X = C C^T > 0, the extreme eigenvalues lo, hi of C^-1 T(X) C^-T give
    lo X <= T(X) <= hi X, and since T is a positive map, lo <= rho <= hi.
    X starts from I and takes power steps X <- T(X), normalised to trace 1
    after every 16th (the bracket does not depend on X's scale); a bracket
    reuses the next step's T(X). The first comes after PERRON_POWER_STEPS
    steps, each next one where the rate at which the relative width
    w = (hi - lo)/hi shrank since the last (w = 1 at I, as lo >= 0)
    predicts w <= PERRON_RTOL. Once that is more steps ahead than a
    hand-over costs, a packed build and three inverse steps,
    2.5 (n + 1) + 3 (n + 1)^3/(32 c) steps of 4 c n^3 flops (the build's
    2 c s n^2 flops run at a tenth of the power steps' speed, the
    (2/3) s^3 flops of an inverse step's LU at two thirds of it), or w did
    not shrink, shifted inverse steps v <- (hi I - M)^-1 v take over from
    v = vech(X), on M = packed_matrix() and with the current upper bound hi
    as the shift.
    As hi >= rho, rho is the eigenvalue nearest the shift and (hi I - T)^-1
    is again a positive map, so they converge even where power steps cycle.
    The bracket is accepted when it is finite, at most PERRON_RTOL * hi wide
    and does not straddle edge = 1 - ADMISSIBILITY_MARGIN, so that its
    midpoint decides rho < edge as rho itself does. None when X is not
    positive definite (e.g. a reducible T, whose Perron vector can be
    singular), when an iterate or M is not finite, when the shifted matrix
    is singular, when an inverse step does not raise lo and lower hi (each
    step nests the new bracket in the old one in exact arithmetic, as
    (hi I - T)^-1 is a positive map commuting with T, so such a step has hit
    the rounding floor, which grows with cond(X)), and after
    PERRON_INVERSE_STEPS inverse steps.
    """
    c, n = stack.shape[:2]
    budget = 2.5 * (n + 1) + 3 * (n + 1) ** 3 / (32 * c)
    edge = 1.0 - ADMISSIBILITY_MARGIN

    def bracket(x, tx):
        c_inv = np.linalg.inv(np.linalg.cholesky(x))
        eigs = np.linalg.eigvalsh(c_inv @ tx @ c_inv.T)
        if not np.isfinite(eigs).all():
            raise np.linalg.LinAlgError
        return eigs[0], eigs[-1]

    tx, steps, check, last = apply(np.eye(n)), 0, PERRON_POWER_STEPS, (0, 1.0)
    try:
        while True:
            for steps in range(steps + 1, check + 1):
                x = tx
                if steps % 16 == 0:
                    x /= np.trace(x)
                tx = apply(x)
            lo, hi = bracket(x, tx)
            if hi - lo <= PERRON_RTOL * hi:
                return None if lo < edge <= hi else float((lo + hi) / 2)
            width = (hi - lo) / hi
            rate = (width / last[1]) ** (1.0 / (steps - last[0]))
            if not rate < 1 or (left := np.log(PERRON_RTOL / width) / np.log(rate)) > budget:
                break
            last, check = (steps, width), steps + int(left) + 1
        mat = packed_matrix()
        shifted = 0.0 - mat   # hi I - M, its diagonal rewritten for each shift hi
        for _ in range(PERRON_INVERSE_STEPS):
            prev_lo, prev_hi = lo, hi
            np.fill_diagonal(shifted, hi - mat.diagonal())
            x = unvech(np.linalg.solve(shifted, vech(x)))
            x /= np.trace(x)
            lo, hi = bracket(x, apply(x))
            if hi - lo <= PERRON_RTOL * hi:
                return None if lo < edge <= hi else float((lo + hi) / 2)
            if lo <= prev_lo or hi >= prev_hi:
                break
    except np.linalg.LinAlgError:   # X not positive definite, a bracket or M not finite
        pass
    return None


def _operator(stack: np.ndarray):
    """X -> T(X) = sum_c F_c X F_c^T for the stacked factors, prepared once:
    the n x cn row [F_1 ... F_c] times the broadcast product of X with the
    contiguous stack of the F_c^T, whose (c, n, n) result is already the
    cn x n block vstack_c(X F_c^T). Two products and no copy per call."""
    c, n = stack.shape[:2]
    row = stack.transpose(1, 0, 2).reshape(n, c * n)
    cols = np.ascontiguousarray(stack.transpose(0, 2, 1))
    return lambda x: row @ (x @ cols).reshape(c * n, n)


def _norm(x: np.ndarray) -> np.floating:
    """|x|_F as np.linalg.norm gives it, without its per-call overhead."""
    return np.sqrt(np.vdot(x, x))


def _certified(x: np.ndarray, tx: np.ndarray) -> bool:
    """Whether the symmetric solution x of X = T(X) + C, with tx = T(x),
    certifies rho(T) < 1 - ADMISSIBILITY_MARGIN.

    T is a positive map. If X > 0 and Y = X - T(X) > 0, then
    T(X) <= (1 - lmin(Y)/lmax(X)) X, so rho(T) <= 1 - lmin(Y)/lmax(X)
    <= 1 - lmin(Y)/|X|_F. The certificate is two Cholesky factorizations,
    of X and of Y - ADMISSIBILITY_MARGIN |X|_F I, which succeed exactly when
    X > 0 and lmin(Y) > ADMISSIBILITY_MARGIN |X|_F; as |X|_F >= lmax(X),
    this never certifies a gain that the bound with lmax(X) rejects. The
    shifted Y must be finite (so T(X) is): a Cholesky factorization does not
    fail on NaN or infinite entries. Y is formed from the X that is
    returned, not from C, so the bound holds for the computed X.
    """
    y = x - tx - ADMISSIBILITY_MARGIN * _norm(x) * np.eye(len(x))
    if not np.isfinite(y).all():
        return False
    try:
        np.linalg.cholesky(x)
        np.linalg.cholesky(y)
    except np.linalg.LinAlgError:
        return False
    return True


def _residual(x: np.ndarray, tx: np.ndarray, rhs: np.ndarray) -> float:
    """Relative defect |T(X) + C - X| / max(|X|, 1) of X = T(X) + C, with
    tx = T(x) (Frobenius norms)."""
    return _norm(tx + rhs - x) / max(_norm(x), 1.0)


def _stein_powers(stack: np.ndarray) -> list[np.ndarray] | None:
    """The powers F_0^(2^j), j = 0..J, of the mean loop F_0 = stack[0], for
    the least doubling depth J whose tail G = F_0^(2^J) is small next to the
    noise channels F_c = stack[c], c >= 1:

        |G|_F^2 <= max(STEIN_TAIL_RATIO sum_{c>=1} |F_c|_F^2, SPLITTING_RTOL).

    The second term stands in for the noise when there is little or none:
    a tail that contracts by SPLITTING_RTOL a sweep lets the stop rule fire
    on the second sweep. None when the noise overflows, or when no
    J <= STEIN_MAX_SQUARINGS gets there (F_0 not Schur-stable, or overflow).
    """
    bound = max(STEIN_TAIL_RATIO * np.linalg.norm(stack[1:]) ** 2, SPLITTING_RTOL)
    if bound == np.inf:
        return None
    powers = [stack[0]]
    while not np.linalg.norm(powers[-1]) ** 2 <= bound:
        if len(powers) > STEIN_MAX_SQUARINGS:
            return None
        powers.append(powers[-1] @ powers[-1])
    return powers


def _splitting_solve(stack: np.ndarray, apply, rhs: np.ndarray,
                     start: np.ndarray | None = None) -> np.ndarray | None:
    """Solve X = sum_c F_c X F_c^T + C (factor stack, apply = _operator(stack))
    in O(n^3) work per sweep, or return None when it does not settle.

    The sweeps split off the mean loop F_0. With K = 2^J, G = F_0^K and
    S_K(Z) = sum_{k<K} F_0^k Z (F_0^T)^k, S_K(Z - F_0 Z F_0^T) = Z - G Z G^T
    telescopes, so each sweep

        X <- X + S_K(C + T(X) - X) = S_K(C) + S_K(N(X)) + G X G^T,

    N(X) = sum_{c>=1} F_c X F_c^T, has the fixed points of X = T(X) + C at
    any depth: one application of T, then J Smith doublings Z <- Z + P Z P^T
    over P = F_0^(2^j), j < J, squared once per solve to the depth that
    _stein_powers finds (None without one); no S_K(C) or tail is formed.

    The sweeps converge exactly when rho(T) < 1, from any start. Their map
    H = S_K N + G (x) G is positive, and I - H = S_K (I - T). If rho(T) < 1,
    X* = sum_k T^k(I) > 0 and H(X*) = X* - S_K(I) < X*, so rho(H) < 1
    (Collatz-Wielandt). If rho(H) < 1, then (I - T)^-1 = (I - H)^-1 S_K is a
    positive map, so rho(T) < 1 (Damm, LNCIS 297, 2004). The rate q = rho(H)
    tends to 1 at the stability edge. The sweeps start from X = 0, or from
    start, an n x n guess such as the kernel of a nearby gain. They stop
    when the error bound step q/(1 - q), with step the norm of the last
    increment S_K(C + T(X) - X) and q the ratio of the last two, is at most
    SPLITTING_RTOL |X|; the first sweep has no step before it, so the
    iteration never stops on it. It gives None after SPLITTING_MAX_SWEEPS
    sweeps past the first, or sooner, once two successive ratios q (or a
    q >= 1, or one that is not finite) show that steps shrinking by q could
    not meet the stop rule within the sweeps left.
    """
    powers = _stein_powers(stack)
    if powers is None:
        return None
    powers.pop()
    x, step = (np.zeros_like(rhs) if start is None else start), None
    was_hopeful = True
    for sweep in range(SPLITTING_MAX_SWEEPS + 1):
        z = apply(x) + rhs - x
        for p in powers:
            z += p @ z @ p.T
        x = x + z
        prev, step = step, _norm(z)
        if prev is None:   # the first sweep
            continue
        ratio = step / prev
        if step == 0:
            return (x + x.T) / 2
        hopeful = False
        if ratio < 1:
            room = SPLITTING_RTOL * (1 - ratio) * _norm(x)
            if step * ratio <= room:
                return (x + x.T) / 2
            # Steps that keep shrinking by ratio meet the stop rule by the
            # cap's last sweep only if step * ratio^(sweeps left + 1) <= room.
            hopeful = step * ratio ** (SPLITTING_MAX_SWEEPS - sweep + 1) <= room
        if not (hopeful or was_hopeful):
            return None
        was_hopeful = hopeful
    return None


def _packed_solve(stack: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve (I - T) vech(X) = vech(C) on the packed s x s matrix by LU, or
    return None when it is singular. Only the upper triangle of C is read."""
    vec = vech(rhs)
    try:
        return unvech(np.linalg.solve(np.eye(len(vec)) - packed(stack), vec))
    except np.linalg.LinAlgError:
        return None


def _fixed_point(model: SystemModel, gain: np.ndarray, equation, name: str,
                 start: np.ndarray | None = None) -> np.ndarray:
    """Solve X = sum_c F_c X F_c^T + C for an admissible gain and return the
    symmetric X, with (F, C) = equation(moment_operator(model, gain)): the
    stacked factors to solve with and a symmetric n x n matrix.

    The solvers run in turn: from MATRIX_FREE_MIN_N states on the
    matrix-free splitting (_splitting_solve), which sweeps from start when
    one is given, then the packed LU (_packed_solve), which ignores start.
    A start thus changes how many sweeps the splitting takes, not the rule
    that accepts its X. The first X that meets the defining equation to
    RESIDUAL_RTOL and certifies the gain (_certified) is returned; T(X) is
    formed once for both checks. Otherwise the exact check of is_admissible
    decides: NotAdmissibleError with its spectral radius, else the last X if
    it meets the equation (its certificate fell inside the margin, e.g. P = 0
    for Q = 0), else SingularSystemError.
    """
    # A finite gain whose operator overflows fails the solves or the
    # certificate below, and is_admissible rejects it with rho = inf; numpy
    # need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        # moment_operator checks the gain before equation reads it.
        stack, rhs = equation(moment_operator(model, gain))
        apply = _operator(stack)
        solvers = [_packed_solve]
        if model.state_dim >= MATRIX_FREE_MIN_N:
            solvers.insert(0, lambda f, c: _splitting_solve(f, apply, c, start))
        for solve in solvers:
            x = solve(stack, rhs)
            if x is None:
                continue
            tx = apply(x)
            rel = _residual(x, tx, rhs)
            if rel <= RESIDUAL_RTOL and _certified(x, tx):
                return x
    rho = check_admissible(is_admissible(model, gain), "gain")
    if x is not None and rel <= RESIDUAL_RTOL:
        return x
    failure = "is singular" if x is None else f"residual {rel:.3e} is too large"
    raise SingularSystemError(f"{name} equation {failure} (spectral radius {rho:.6g})")


def stationary_covariance(model: SystemModel, gain: np.ndarray) -> np.ndarray:
    """Fixed point X = T(X) + D of the covariance propagation."""
    x = _fixed_point(model, gain, lambda stack: (stack, model.D), "covariance")
    eigs = np.linalg.eigvalsh(x)
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        raise SingularSystemError(
            f"stationary covariance came out indefinite (min eig {eigs.min():.3e})"
        )
    return x


def solve_value_kernel(model: SystemModel, cost: CostModel, gain: np.ndarray,
                       start: np.ndarray | None = None) -> np.ndarray:
    """Value kernel P of a fixed admissible gain.

    P solves P = sum_c F_c^T P F_c + Q + L^T R L, the cost-side (adjoint)
    equation of the moment operator. That is the covariance-form equation
    of the map built from the transposed factors F_c^T, and _fixed_point
    solves it as such: matrix-free from MATRIX_FREE_MIN_N states on, else
    by LU in packed coordinates.

    start is an optional n x n first guess for the matrix-free sweeps, such
    as the kernel of the previous gain in policy iteration. Any start gives
    the same P to the splitting's tolerance; one that is not finite or does
    not help costs at most a capped attempt before the packed LU answers. A
    start that is not an n x n matrix of real numbers raises ValidationError
    (as_matrix), as do a gain that is not a finite (m, n) one and an unfit
    cost (check_cost).
    """
    n, m = model.state_dim, model.input_dim
    check_cost(model, cost)
    gain = as_matrix(gain, "gain", (m, n))
    if start is not None:
        start = as_matrix(start, "start", (n, n), finite=False)
    return _fixed_point(
        model, gain,
        lambda stack: (stack.transpose(0, 2, 1), cost.Q + gain.T @ cost.R @ gain),
        "value-kernel", start)


def average_cost(value_kernel: np.ndarray, additive_cov: np.ndarray) -> float:
    """Steady-state cost per step of the policy whose kernel is given: tr(P D).
    Raises ValidationError unless D is a finite square matrix and P a finite
    one of D's shape (as_matrix), and SolverFailure when tr(P D) is not
    finite: it exceeds the float range."""
    additive_cov = as_matrix(additive_cov, "additive covariance", square=True)
    value_kernel = as_matrix(value_kernel, "value kernel", additive_cov.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        cost = float(np.trace(value_kernel @ additive_cov))
    if not math.isfinite(cost):
        raise SolverFailure(f"average cost tr(P D) is {cost}: it exceeds the float range")
    return cost


def checked_kernel(model: SystemModel, value_kernel: np.ndarray) -> np.ndarray:
    """value_kernel symmetrized (rtol 1e-6); ValidationError unless a finite n x n matrix."""
    n = model.state_dim
    return symmetrize(as_matrix(value_kernel, "value kernel", (n, n)), rtol=1e-6)


def q_kernel_matrix(model: SystemModel, cost: CostModel, value_kernel: np.ndarray) -> np.ndarray:
    """The state-input kernel H = diag(Q, R) + sum_c E_c^T P E_c of a value
    kernel P (checked_kernel) over the model's channel factors E_c. Two
    products: the batch P E_c, stacked to (c n) x r rows, times the E_c
    stacked the same way. A cost that does not fit the model raises
    ValidationError (check_cost). Entries that overflow come back
    non-finite, for greedy_gain to reject."""
    check_cost(model, cost)
    p = checked_kernel(model, value_kernel)
    n, channels = model.state_dim, model.channels
    flat = channels.reshape(-1, channels.shape[2])
    with np.errstate(over="ignore", invalid="ignore"):
        h = flat.T @ (p @ channels).reshape(flat.shape)
        h[n:, n:] += cost.R
        h[:n, :n] += cost.Q
    return h


def greedy_gain(kernel: np.ndarray, state_dim: int,
                max_condition: float = np.inf) -> np.ndarray:
    """Greedy gain L = -H_uu^-1 H_ux of a state-input kernel H split at
    state_dim: the minimiser of [x; u]^T H [x; u] over u = L x. The one
    function that splits an H.

    kernel must be a square matrix of real numbers (as_matrix, finite or
    not), state_dim an integer >= 1 below its size and max_condition a real
    number > 0 (inf allowed), else ValidationError. H must be finite, and
    H_uu positive definite with condition number at most max_condition;
    anything else means the kernel is not trustworthy, and raises
    UnreliableKernelError. Only the uu and ux blocks are used.
    """
    kernel = as_matrix(kernel, "kernel", square=True, finite=False)
    n = check_integer(state_dim, "state_dim", 1)
    if not n < len(kernel):
        raise ValidationError(f"state_dim {n} must split a {len(kernel)} x {len(kernel)} kernel")
    max_condition = check_positive(max_condition, "max_condition")
    if not np.isfinite(kernel).all():
        raise UnreliableKernelError("kernel contains non-finite entries")
    curvature = kernel[n:, n:]
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
    return -np.linalg.solve(curvature, kernel[n:, :n])


def policy_improvement(model: SystemModel, cost: CostModel,
                       value_kernel: np.ndarray) -> np.ndarray:
    """One-step greedy gain L = -H_uu^-1 H_ux for a value kernel P: greedy_gain
    of its kernel H (q_kernel_matrix)."""
    return greedy_gain(q_kernel_matrix(model, cost, value_kernel), model.state_dim)


def riccati_residual(model: SystemModel, cost: CostModel,
                     value_kernel: np.ndarray) -> np.ndarray:
    """Fixed-point defect P - (H_xx + H_xu L) of the optimality equation at
    a candidate kernel P, with H its kernel (q_kernel_matrix) and
    L = -H_uu^-1 H_ux its greedy gain. Zero exactly at the optimal kernel
    (P checked by checked_kernel).
    """
    p = checked_kernel(model, value_kernel)
    h = q_kernel_matrix(model, cost, p)
    n = model.state_dim
    return p - (h[:n, :n] + h[:n, n:] @ greedy_gain(h, n))
