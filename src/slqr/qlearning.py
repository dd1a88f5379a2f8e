"""Online model-free learning of the optimal gain from rollout data.

Each iteration rolls the current gain out with an exploration probe, fits the
quadratic state-input value kernel H of that gain by least squares on the
one-step cost identity

    phi(z_k)^T vecs(H) = c_k - lambda + phi(zbar_{k+1})^T vecs(H),

where z_k stacks the state with the input actually applied, zbar_{k+1} uses
the unprobed feedback input at the next state, and lambda is the policy's
average cost. lambda is eliminated through lambda = tr(H kappa) with
kappa = [I; L] D [I; L]^T. D is the additive-noise covariance in known_d mode;
in empirical mode it is D-hat, the intercept of the weighted regression of
vech(x_{k+1} x_{k+1}^T) on [phi(z_k); 1], from sums the pass forms anyway.
That is average-cost least-squares temporal-difference learning (Tsitsiklis &
Van Roy, 1999), which fits lambda as one more coefficient: the two agree up to
the ridge, as stage costs z^T diag(Q, R) z have no intercept on [phi; 1].
With instruments Psi (rows w_k phi(z_k)), regressors G (rows
phi(z_k) - phi(zbar_{k+1}) + vech(kappa)) and the raw costs c as targets, the
learner's fit is one regularised solve

    (I / rls_init_scale + Psi^T G) h = Psi^T c,    h = vecs(H),

which is exactly what the recursive least-squares update (rls_update, with
weight w_k) reaches after folding in every sample from the inverse-Gram start
rls_init_scale * I; rls_update is kept as that streaming form. The paper's
plain fit (unit weights, mean-centred costs without D, no regularisation)
stays available as bls_estimate. The leverage weights w_k = (1 + |z_k|^2)^-2
keep the fit consistent, because the Bellman residual has zero mean given
z_k, and tame the heavy tails of the plain instruments phi(z_k) near the edge
of fourth-moment stability. The improved gain then comes from the uu/ux blocks
of H.

The normal equations come from one pass over the rollout in windows of
ROLLOUT_BLOCK samples. Each window builds its features once, over its rows
and the next one, into a buffer that the pass keeps, and adds to
statistics that do not depend on the gain, where psi stacks the instrument
w phi with w itself (w = 1 for the plain fit). Each is summed once, by two
products per window: sum w phi phi^T is one symmetric rank-k product of
the rows sqrt(w) phi, and one product with the columns
[vech(x_{k+1} x_{k+1}^T) | c | 1] gives sum psi vech(x x^T)^T, sum psi c
and sum psi, whose first s entries, sum w phi, are also the last row of
sum psi phi^T. The next-state columns need no gather: vech(x x^T) is the
first n - i entries of the features' row runs i < n, read one column on,
and the weights are applied in place once they are read. The next-state
features are a linear image of the state-only ones,
phi(x, L x) = K_L vech(x x^T) with K_L = packing.congruence of the one
factor [I; L], so the gain enters once after the pass:
sum psi phi(zbar_{k+1})^T = (sum psi vech(x x^T)^T) K_L^T.
Working memory is O(ROLLOUT_BLOCK * s) whatever the rollout length, and the
statistics of several rollouts add up, so a refit for any gain on pooled
data is their sum and one K_L product.

The learner sees only a rollout sampler, stage costs, and optionally D; the
plant matrices stay out of reach by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import greedy_gain
from .errors import (
    IllConditionedUpdateError,
    InsufficientExcitationError,
    UnreliableKernelError,
    ValidationError,
)
from .packing import congruence, packed_length, unvech, unvecs, vech
from .policy_iteration import QKernel, evaluate_improve
from .system import (
    ROLLOUT_BLOCK,
    CostModel,
    SystemModel,
    Trajectory,
    as_matrix,
    check_integer,
    check_positive,
    simulate_closed_loop,
)

# Conditioning ceiling for the uu block when extracting a gain.
MAX_KERNEL_CONDITION = 1e8

COST_MODES = ("known_d", "empirical")


def features(z: np.ndarray) -> np.ndarray:
    """Quadratic feature vector: vech of the outer product of z with itself."""
    z = np.asarray(z, dtype=float)
    return vech(np.outer(z, z))


def feature_matrix(states: np.ndarray, inputs: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Rows of quadratic features for a batch of stacked (state, input) pairs.

    Returns the (N, s) matrix whose row k is features(z_k), as the transpose
    view of an (s, N) array: each feature z_i z_j is written as one
    contiguous run along the sample axis. Given out, the transpose view of
    an (s, N) array with contiguous rows, the features are written into it
    and out is returned. states and inputs must be matrices of real numbers
    with one row per sample (as_matrix), else ValidationError; non-finite
    rows are featurised as they are.
    """
    states = as_matrix(states, "states", finite=False)
    inputs = as_matrix(inputs, "inputs", (len(states), None), finite=False)
    n = states.shape[1]
    r = n + inputs.shape[1]
    z = np.empty((r, len(states)))               # (r, N), rows contiguous
    z[:n] = states.T
    z[n:] = inputs.T
    if out is None:
        out = np.empty((packed_length(r), z.shape[1])).T
    columns = out.T
    start = 0
    for i in range(r):   # row i of the upper triangle: z_i z_j for j >= i
        np.multiply(z[i], z[i:], out=columns[start:start + r - i])
        start += r - i
    return out


def noise_shape_kernel(gain: np.ndarray, additive_cov: np.ndarray) -> np.ndarray:
    """kappa = [I; L] D [I; L]^T: how the additive noise spreads over z-space.

    Raises ValidationError unless D is a finite square matrix and the gain a
    finite matrix with D's number of columns (as_matrix).
    """
    additive_cov = as_matrix(additive_cov, "additive covariance", square=True)
    n = len(additive_cov)
    gain = as_matrix(gain, "gain", (None, n))
    basis = np.vstack([np.eye(n), gain])
    return basis @ additive_cov @ basis.T


@dataclass
class RlsState:
    """Running state of the recursive estimator.

    gram_inv tracks the inverse of (init_scale^-1 I + sum_k psi_k g_k^T); the
    instrument psi_k = w_k phi_k and regressor g differ, so it is not
    symmetric in general. weighted_costs accumulates sum_k psi_k c_k. The
    kernel estimate at any point is unvecs(gram_inv @ weighted_costs).
    """

    gram_inv: np.ndarray
    weighted_costs: np.ndarray
    samples_seen: int = 0


def initial_rls_state(dim: int, init_scale: float) -> RlsState:
    """The estimator before any sample: inverse Gram init_scale * I, no costs.

    Raises ValidationError unless init_scale is a finite number > 0.
    """
    check_positive(init_scale, "init_scale", finite=True)
    return RlsState(gram_inv=init_scale * np.eye(dim),
                    weighted_costs=np.zeros(dim), samples_seen=0)


def rls_update(state: RlsState, feats: np.ndarray, next_feats: np.ndarray,
               noise_correction: np.ndarray, cost: float,
               weight: float = 1.0) -> RlsState:
    """Fold one transition into the estimator.

    The rank-one inverse update for the regressor g = feats - next_feats +
    noise_correction against the instrument weight * feats. weight = 1 is the
    paper's plain fit; the learner's weight is w_k = (1 + |z_k|^2)^-2. Raises
    ValidationError unless feats, next_feats and noise_correction are vectors
    of the estimator's dimension, and IllConditionedUpdateError when the
    update denominator is numerically zero.
    """
    dim = state.weighted_costs.shape[0]
    for name, vector in (("feats", feats), ("next_feats", next_feats),
                         ("noise_correction", noise_correction)):
        if np.shape(vector) != (dim,):
            raise ValidationError(
                f"{name} must have shape {(dim,)}, got {np.shape(vector)}"
            )
    instrument = weight * feats
    g = feats - next_feats + noise_correction
    gram_feats = state.gram_inv @ instrument
    g_gram = g @ state.gram_inv
    denom = 1.0 + g_gram @ instrument
    if abs(denom) < 1e-12:
        raise IllConditionedUpdateError(
            f"update denominator {denom:.3e} at sample {state.samples_seen}"
        )
    return RlsState(
        gram_inv=state.gram_inv - np.outer(gram_feats, g_gram) / denom,
        weighted_costs=state.weighted_costs + instrument * cost,
        samples_seen=state.samples_seen + 1,
    )


def rls_kernel(state: RlsState, state_dim: int) -> QKernel:
    """Current kernel estimate held by the recursive state."""
    vec = state.gram_inv @ state.weighted_costs
    if not np.all(np.isfinite(vec)):
        raise UnreliableKernelError("kernel estimate contains non-finite entries")
    return QKernel(matrix=unvecs(vec), state_dim=state_dim)


def _solve(gram: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.solve, each failure an UnreliableKernelError naming what."""
    try:
        vec = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise UnreliableKernelError(f"{what} cannot be solved for: {exc}") from None
    if not np.isfinite(vec).all():
        raise UnreliableKernelError(f"{what} contains non-finite entries")
    return vec


def _normal_equations(traj: Trajectory, gain: np.ndarray,
                      noise_cov: np.ndarray | None, weighted: bool):
    """Instrumental-variable normal equations Psi^T G h = Psi^T c of a rollout.

    The regressors G are the rows phi(z_k) - phi(zbar_{k+1}) and h = vecs(H).
    With noise_cov given, they also carry the noise correction vech(kappa)
    and the targets are the raw costs.

    weighted=False is the paper's plain fit: the instruments Psi are the rows
    phi(z_k), and with noise_cov None the targets are the costs minus their
    mean over the whole rollout. weighted=True is the learner's fit: the
    instruments are w_k phi(z_k) with w_k = (1 + |z_k|^2)^-2, and with
    noise_cov None the correction uses D-hat, the last row of the solve of
    sum w [phi; 1][phi; 1]^T (cross bordered by the totals) against
    sum psi vech(x x^T)^T.

    One pass over windows of ROLLOUT_BLOCK samples builds each window's
    features once, over samples k0..k1 and the row after, and adds to
    gain-free sums over psi_k = [w_k phi(z_k); w_k]. Two arrays are
    allocated per fit and reused by every window: feature_matrix writes the
    features into the first s rows of the one, whose last row takes
    sqrt(w_k) = 1 / (1 + |z_k|^2) from the rows z_i^2 by plain row adds, and
    the other takes sqrt(w) [vech(x_{k+1} x_{k+1}^T) | c_k - centre | 1]
    (the state-only rows of the next row's features, read as the first
    n - i entries of row run i < n one column on, the targets, and the
    constant). The feature rows are then scaled by sqrt(w) in place, and two
    products give the sums: the symmetric rank-k product of the rows
    sqrt(w_k) phi(z_k) gives sum w phi phi^T, and [sqrt(w) phi; sqrt(w)]
    times the second array gives sum psi vech(x x^T)^T, sum psi (c - centre)
    and sum psi. The first s entries of sum psi are sum w phi, the last row
    of sum psi phi^T. After the pass the gain enters once, through
    sum psi phi(zbar_{k+1})^T = (sum psi vech(x x^T)^T) K_L^T, with
    K_L = congruence([I; L]) (module docstring), so no N x s array is formed.

    Returns (gram, rhs, correction), correction = vech(kappa) or None (plain,
    no noise_cov). Raises UnreliableKernelError when the data are not finite
    (a diverged rollout), at the first window that holds a non-finite state,
    input or cost, when the sums overflow, or when D-hat cannot be solved for,
    and ValidationError unless gain is a finite (m, n) matrix (as_matrix).
    """
    n = traj.states.shape[1]
    m = traj.inputs.shape[1]
    gain = as_matrix(gain, "gain", (m, n))
    n_samples, s = traj.n_steps, packed_length(n + m)
    unknowns = s + (weighted and noise_cov is None)   # D-hat's has one more
    if n_samples < unknowns:
        raise InsufficientExcitationError(
            f"{n_samples} samples cannot identify {unknowns} coefficients; "
            f"use a longer rollout"
        )
    # Row run i of the features holds z_i z_j for j >= i and starts with z_i^2;
    # for i < n its first n - i entries are row run i of vech(x x^T).
    r, t = n + m, packed_length(n)
    runs = [s - packed_length(r - i) for i in range(r)]
    next_runs = [(runs[i], t - packed_length(n - i), n - i) for i in range(n)]
    cross = np.zeros((s, s))                      # sum w phi phi^T
    sums = np.zeros((s + 1, t + 2))               # sum psi [vech(x x^T) | c - centre | 1]
    # Each side of a window product carries one factor sqrt(w) of the weight:
    # the rows [phi; sqrt(w)] of a window and its next row become
    # [sqrt(w) phi; sqrt(w)] in place once the next-state rows are read.
    width = min(n_samples, ROLLOUT_BLOCK)
    left = np.empty((s + 1, width + 1))
    right = np.empty((t + 2, width))
    with np.errstate(over="ignore", invalid="ignore"):
        centre = traj.costs.mean() if not weighted and noise_cov is None else 0.0
        for k0 in range(0, n_samples, ROLLOUT_BLOCK):
            k1 = min(k0 + ROLLOUT_BLOCK, n_samples)
            states, inputs = traj.states[k0:k1 + 1], traj.inputs[k0:k1 + 1]
            costs = traj.costs[k0:k1]
            if not (np.isfinite(states).all() and np.isfinite(inputs).all()
                    and np.isfinite(costs).all()):
                raise UnreliableKernelError(
                    f"rollout holds non-finite data in rows {k0}..{k1}"
                )
            feats = left[:s, :k1 - k0 + 1]
            feature_matrix(states, inputs, out=feats.T)
            lhs, moments = left[:, :k1 - k0], right[:, :k1 - k0]
            root = lhs[s]                              # sqrt(w) = 1 / (1 + |z|^2)
            if weighted:
                np.add(lhs[runs[0]], lhs[runs[1]], out=root)
                for row in runs[2:]:
                    root += lhs[row]
                root += 1.0
                np.reciprocal(root, out=root)
            else:
                root[...] = 1.0
            for row, at, length in next_runs:
                np.multiply(feats[row:row + length, 1:], root,
                            out=moments[at:at + length])
            np.subtract(costs, centre, out=moments[t])
            moments[t] *= root
            moments[t + 1] = root
            lhs[:s] *= root
            cross += lhs[:s] @ lhs[:s].T               # one symmetric rank-k product
            sums += lhs @ moments.T
        # Psi^T G for the regressors phi(z_k) - phi(zbar_{k+1}); the product
        # takes all s + 1 rows, as OpenBLAS's rounding depends on the count.
        totals, rhs, correction = sums[:, t + 1], sums[:s, t], None
        gain_map = congruence(np.vstack([np.eye(n), gain])[None])
        gram = cross - (sums[:, :t] @ gain_map.T)[:s]
        if weighted and noise_cov is None:
            # D-hat: the intercept of the weighted regression of vech(x x^T)
            # on [phi; 1], whose Gram sum w [phi; 1][phi; 1]^T is cross
            # bordered by the totals and whose targets are sum psi vech(x x^T)^T.
            if not (np.isfinite(cross).all() and np.isfinite(sums).all()):
                raise UnreliableKernelError("noise estimate: sums are non-finite")
            bordered = np.column_stack([np.vstack([cross, totals[:s]]), totals])
            noise_cov = unvech(_solve(bordered, sums[:, :t], "noise estimate")[s])
        if noise_cov is not None:
            # The constant correction enters as the rank-one term (Psi^T 1) corr^T.
            correction = vech(noise_shape_kernel(gain, noise_cov))
            gram += np.outer(totals[:s], correction)
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise UnreliableKernelError("normal equations contain non-finite entries")
    return gram, rhs, correction


def bls_estimate(traj: Trajectory, gain: np.ndarray,
                 noise_cov: np.ndarray | None = None) -> QKernel:
    """Batch least-squares kernel fit over one rollout, unregularised.

    With noise_cov given, the average cost is eliminated through the noise
    shape kernel; with noise_cov None the empirical mean cost is subtracted
    from the targets instead.
    """
    gram, rhs, _ = _normal_equations(traj, gain, noise_cov, weighted=False)
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise InsufficientExcitationError(
            f"normal matrix condition number {cond:.3e}; use a longer rollout "
            f"or a larger probe variance"
        )
    vec = np.linalg.solve(gram, rhs)
    return QKernel(matrix=unvecs(vec), state_dim=traj.states.shape[1])


def policy_from_h(kernel: QKernel) -> np.ndarray:
    """Greedy gain encoded by a state-input kernel: L = -H_uu^-1 H_ux, with
    the condition number of H_uu capped at MAX_KERNEL_CONDITION."""
    if not np.isfinite(kernel.matrix).all():
        raise UnreliableKernelError("kernel contains non-finite entries")
    return greedy_gain(kernel.uu, kernel.ux, MAX_KERNEL_CONDITION)


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of the online learner.

    initial_gain must be a finite 2-d matrix (ValidationError otherwise) and
    admissible for the plant the sampler wraps; the learner cannot check
    admissibility without a model, so the caller asserts it.
    cost_mode "known_d" pins the average cost inside the regression through
    the additive-noise covariance D, "empirical" through D-hat estimated from
    the rollout. For the plant's stage costs the latter is the fit with the
    average cost as one more coefficient; costs with a free constant of their
    own, which no plant produces, are fitted wrongly. A fit takes at least
    (n+m)(n+m+1)/2 samples, one more in empirical mode. probe_var,
    rls_init_scale and gain_tol are held as floats.
    """

    initial_gain: np.ndarray
    rollout_len: int
    probe_var: float
    rls_init_scale: float
    max_iterations: int
    gain_tol: float
    seed: int
    cost_mode: str = "known_d"

    def __post_init__(self):
        object.__setattr__(self, "initial_gain",
                           as_matrix(self.initial_gain, "initial_gain"))
        check_integer(self.rollout_len, "rollout_len", 1)
        check_integer(self.max_iterations, "max_iterations", 1)
        check_integer(self.seed, "seed", 0)
        for name in ("probe_var", "rls_init_scale", "gain_tol"):
            check_positive(getattr(self, name), name, finite=name == "gain_tol")
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.cost_mode not in COST_MODES:
            raise ValidationError(
                f"cost_mode must be one of {COST_MODES}, got {self.cost_mode!r}"
            )


@dataclass
class LearningResult:
    """gains includes the initial gain, so it is one longer than kernels.
    cost_estimates[t] is the average-cost estimate of iteration t's policy,
    tr(H_t kappa), with D-hat in kappa in empirical mode."""

    gains: list[np.ndarray]
    kernels: list[QKernel]
    cost_estimates: list[float]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.kernels)


def iteration_seed(base_seed: int, iteration: int) -> int:
    """Deterministic per-iteration rollout seed on an independent stream."""
    return int(np.random.SeedSequence([base_seed, iteration]).generate_state(1)[0])


def _fit_iteration(traj: Trajectory, gain: np.ndarray,
                   noise_cov: np.ndarray | None,
                   init_scale: float) -> tuple[QKernel, float]:
    """The regularised weighted solve over a rollout: (kernel, cost estimate
    tr(H kappa)), with D-hat in kappa when noise_cov is None."""
    gram, rhs, correction = _normal_equations(traj, gain, noise_cov, weighted=True)
    gram[np.diag_indices_from(gram)] += 1.0 / init_scale
    vec = _solve(gram, rhs, "kernel estimate")
    return QKernel(matrix=unvecs(vec), state_dim=traj.states.shape[1]), float(correction @ vec)


def learn_from_rollouts(sampler: Callable[[np.ndarray, int], Trajectory],
                        config: LearnerConfig,
                        noise_cov: np.ndarray | None = None) -> LearningResult:
    """Run the online learning loop against an opaque rollout sampler.

    sampler(gain, seed) must return a Trajectory rolled out under that gain
    with the configured probe. This function is the whole model-free surface:
    it touches nothing of the plant beyond sampled data (plus noise_cov in
    known_d mode). Each iteration of the shared evaluate_improve loop rolls
    the gain out once, at seed iteration_seed(config.seed, tau), fits its
    kernel with _fit_iteration and improves it with policy_from_h; a
    SolverFailure names the iteration it happened in.
    """
    if config.cost_mode == "known_d" and noise_cov is None:
        raise ValidationError("cost_mode 'known_d' requires the additive covariance")
    if config.cost_mode == "empirical":
        noise_cov = None

    def step(tau: int, gain: np.ndarray):
        traj = sampler(gain, iteration_seed(config.seed, tau))
        kernel, cost_estimate = _fit_iteration(traj, gain, noise_cov,
                                               config.rls_init_scale)
        return kernel, cost_estimate, policy_from_h(kernel)

    trace = evaluate_improve(config.initial_gain, step, config.gain_tol,
                             config.max_iterations)
    return LearningResult(gains=trace.gains, kernels=trace.kernels,
                          cost_estimates=trace.costs, converged=trace.converged)


def run_online_learning(model: SystemModel, cost: CostModel,
                        config: LearnerConfig) -> LearningResult:
    """Wire the learner to a plant simulator and run it.

    The model is used only to build the rollout sampler (and to hand over D
    in known_d mode); the learning loop itself never reads the plant matrices.
    """
    def sampler(gain: np.ndarray, seed: int) -> Trajectory:
        return simulate_closed_loop(model, cost, gain, config.rollout_len,
                                    config.probe_var, seed)

    noise_cov = model.D if config.cost_mode == "known_d" else None
    return learn_from_rollouts(sampler, config, noise_cov)
