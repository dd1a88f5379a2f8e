"""Online model-free learning of the optimal gain from rollout data.

Each iteration rolls the current gain out with an exploration probe, fits
the quadratic state-input value kernel H of that gain, a symmetric
(n+m) x (n+m) array, and takes the improved gain from its uu/ux blocks.

The fit is plug-in policy evaluation on a gain-free least-squares model of
the second-moment dynamics. With the s features phi(z) = vech(z z^T) of
z = (x, u) and the t entries psi' = vech(x_{k+1} x_{k+1}^T), the model
regresses psi'_k - d and the stage costs c_k on phi(z_k), with weights w_k:
E[psi' | z] = B^T phi(z) + d and c(z) = c^T phi(z). Here d = vech(D) for
the additive-noise covariance D in known_d mode, and in empirical mode
vech(D-hat), the intercept of the weighted regression of psi' on [phi; 1].
B (s x t) and c come from one solve of the Gram sum w phi phi^T against
the t + 1 columns [sum w phi (psi' - d)^T | sum w phi c]. A gain L is then
evaluated on the model by one t x t solve: with K_L = packing.congruence of
the one factor [I; L], which maps vech(x x^T) to phi(x, L x),

    (I - K_L^T B) v = K_L^T c,    vecs(H) = c + B v,    lambda = d^T v,

where v = vecs(P) for the value kernel P = [I; L]^T H [I; L], and
lambda = tr(P D) is the average cost. That is exactly average-cost
least-squares temporal-difference learning (Tsitsiklis & Van Roy, 1999) of
phi(z_k)^T vecs(H) = c_k - lambda + phi(zbar_{k+1})^T vecs(H), zbar_{k+1}
being the next state with its unprobed feedback input, with instruments
w_k phi(z_k) (LSTD is plug-in evaluation on the least-squares linear model;
Parr et al., ICML 2008). Every fit first checks the condition number of
its Gram sum w phi phi^T against 1e12. The learner then adds the ridge
1 / rls_init_scale to the Gram, which makes its fit the solve

    (I / rls_init_scale + Psi^T G) h = Psi^T c,    h = vecs(H),

with instruments Psi (rows w_k phi(z_k)) and regressors G (rows
phi(z_k) - phi(zbar_{k+1}) + K_L d): what the paper's recursive least
squares (rls_estimate, with weights w_k) reaches after folding in every
sample from the inverse-Gram start rls_init_scale * I. The paper's plain
fit, with unit weights, no ridge and the same d, stays available as
bls_estimate.
The leverage weights w_k = (1 + |z_k|^2)^-2 keep the fit consistent,
because the Bellman residual has zero mean given z_k, and tame the heavy
tails of the plain instruments phi(z_k) near the edge of fourth-moment
stability.

The model's sums come from one pass over the rollout in windows of
ROLLOUT_BLOCK samples, with one feature build per window (_moment_model).
Working memory is O(ROLLOUT_BLOCK * s) whatever the rollout length, and the
sums of several rollouts add up, so a model of pooled data is their sum
and one solve.

The learner sees only a rollout sampler, stage costs, and optionally D; the
plant matrices stay out of reach by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import greedy_gain
from .errors import InsufficientExcitationError, UnreliableKernelError, ValidationError
from .packing import (as_matrix, congruence, packed_length, side_from_packed_length,
                      symmetrize, unvecs, vech)
from .policy_iteration import PolicyIterationTrace, evaluate_improve
from .system import (
    ROLLOUT_BLOCK,
    CostModel,
    RolloutBuffers,
    SystemModel,
    Trajectory,
    check_integer,
    check_positive,
    simulate_closed_loop,
)

# Conditioning ceiling for the uu block when extracting a gain.
MAX_KERNEL_CONDITION = 1e8

COST_MODES = ("known_d", "empirical")


def feature_matrix(states: np.ndarray, inputs: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Rows of quadratic features for a batch of stacked (state, input) pairs.

    Returns the (N, s) matrix whose row k is vech(z_k z_k^T), as the transpose
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


def rls_estimate(feats: np.ndarray, next_feats: np.ndarray, noise_correction: np.ndarray,
                 costs: np.ndarray, init_scale: float,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """The paper's recursive least-squares estimate of vecs(H) (unvecs gives H).

    From the inverse Gram init_scale * I, the rows k are folded in order, each
    a rank-one update for the regressor feats[k] - next_feats[k] +
    noise_correction against the instrument weights[k] * feats[k]. Unit
    weights (None) are the paper's plain fit, w_k = (1 + |z_k|^2)^-2 the
    learner's; a gain L's noise correction is congruence([I; L]) @ vech(D).
    Raises ValidationError unless feats is a matrix with columns, next_feats
    of its shape, noise_correction one entry per column and costs and weights
    one per row (as_matrix, finite or not) and init_scale finite and > 0,
    and UnreliableKernelError for a numerically zero update denominator or a
    non-finite estimate.
    """
    feats = as_matrix(feats, "feats", finite=False)
    n_samples, dim = feats.shape
    if dim == 0:
        raise ValidationError(f"feats must have at least one column, got shape {feats.shape}")
    next_feats = as_matrix(next_feats, "next_feats", feats.shape, finite=False)
    noise_correction = as_matrix(noise_correction, "noise_correction", (dim,), finite=False)
    costs = as_matrix(costs, "costs", (n_samples,), finite=False)
    weights = (np.ones(n_samples) if weights is None
               else as_matrix(weights, "weights", (n_samples,), finite=False))
    gram_inv = check_positive(init_scale, "init_scale", finite=True) * np.eye(dim)
    weighted_costs = np.zeros(dim)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite estimate raises
        for k in range(n_samples):
            instrument = weights[k] * feats[k]
            g = feats[k] - next_feats[k] + noise_correction
            gram_feats = gram_inv @ instrument
            g_gram = g @ gram_inv
            denom = 1.0 + g_gram @ instrument
            if abs(denom) < 1e-12:
                raise UnreliableKernelError(f"update denominator {denom:.3e} at sample {k}")
            gram_inv = gram_inv - np.outer(gram_feats, g_gram) / denom
            weighted_costs = weighted_costs + instrument * costs[k]
        vec = gram_inv @ weighted_costs
    if not np.isfinite(vec).all():
        raise UnreliableKernelError("kernel estimate contains non-finite entries")
    return vec


def _solve(gram: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.solve, each failure an UnreliableKernelError naming what."""
    try:
        vec = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise UnreliableKernelError(f"{what} cannot be solved for: {exc}") from None
    if not np.isfinite(vec).all():
        raise UnreliableKernelError(f"{what} contains non-finite entries")
    return vec


def _moment_model(traj: Trajectory, noise_cov: np.ndarray | None, weighted: bool,
                  ridge: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gain-free moment model of a rollout (module docstring): (B, c, d).

    weighted=False is the paper's plain fit, with unit weights; weighted=True
    the learner's, with weights w_k = (1 + |z_k|^2)^-2. With noise_cov None,
    d = vech(D-hat), the last row of the solve of sum w [phi; 1][phi; 1]^T
    against sum psi psi'^T; with noise_cov given, d = vech(noise_cov). B and c
    solve (sum w phi phi^T + ridge I) [B | c] = [sum w phi (psi' - d)^T | sum w phi c].

    The pass reuses two arrays over windows of ROLLOUT_BLOCK samples. The
    one takes the window's features, over samples k0..k1 and the row after,
    and below them sqrt(w_k) = 1 / (1 + |z_k|^2), summed from the rows z_i^2;
    the other takes sqrt(w) [psi'_k | c_k | 1], psi' read as the first n - i
    entries of feature row run i < n one column on. With the feature rows
    scaled by sqrt(w) in place, the symmetric rank-k product of the rows
    sqrt(w) phi gives sum w phi phi^T, and [sqrt(w) phi; sqrt(w)] times the
    other array sum psi [psi' | c | 1], psi = [w phi; w].

    Raises ValidationError unless noise_cov is None or a finite (n, n)
    matrix (as_matrix); UnreliableKernelError for non-finite data (a
    diverged rollout, at the first window that holds them), overflowing
    sums, or a D-hat or model that cannot be solved for; and
    InsufficientExcitationError for fewer samples than unknowns or a Gram
    sum w phi phi^T, before the ridge, whose condition number exceeds 1e12
    (with the rollout's largest state norm, large if it diverged).
    """
    n, m = traj.states.shape[1], traj.inputs.shape[1]
    estimate_d = noise_cov is None
    noise = None if estimate_d else vech(as_matrix(noise_cov, "noise_cov", (n, n)))
    n_samples, s = traj.n_steps, packed_length(n + m)
    unknowns = s + estimate_d                     # D-hat's regression has one more
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
    sums = np.zeros((s + 1, t + 2))               # sum psi [psi' | c | 1]
    # The rows [phi; sqrt(w)] of a window become [sqrt(w) phi; sqrt(w)] in
    # place once the next-state rows are read: each side carries sqrt(w).
    width = min(n_samples, ROLLOUT_BLOCK)
    left = np.empty((s + 1, width + 1))
    right = np.empty((t + 2, width))
    with np.errstate(over="ignore", invalid="ignore"):
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
            np.multiply(costs, root, out=moments[t])
            moments[t + 1] = root
            lhs[:s] *= root
            cross += lhs[:s] @ lhs[:s].T               # one symmetric rank-k product
            sums += lhs @ moments.T
    if not (np.isfinite(cross).all() and np.isfinite(sums).all()):
        raise UnreliableKernelError(
            f"{'noise estimate' if estimate_d else 'moment model'}: sums are non-finite")
    totals = sums[:, t + 1]
    eigs = np.linalg.eigvalsh(cross)              # ascending; lambda_min <= 0 reads as inf
    with np.errstate(over="ignore"):
        cond = eigs[-1] / eigs[0] if eigs[0] > 0 else np.inf
    if cond > 1e12:
        with np.errstate(over="ignore"):
            peak = np.linalg.norm(traj.states, axis=1).max()
        raise InsufficientExcitationError(
            f"model Gram condition number {cond:.3e}; use a longer rollout or a larger "
            f"probe variance, unless the rollout diverged (largest state norm {peak:.3e})")
    if estimate_d:
        # D-hat: the intercept of the weighted regression of psi' on [phi; 1],
        # whose Gram sum w [phi; 1][phi; 1]^T is cross bordered by the totals.
        bordered = np.column_stack([np.vstack([cross, totals[:s]]), totals])
        noise = _solve(bordered, sums[:, :t], "noise estimate")[s]
    cross[np.diag_indices_from(cross)] += ridge
    targets = np.column_stack([sums[:s, :t] - np.outer(totals[:s], noise), sums[:s, t]])
    model = _solve(cross, targets, "moment model")
    return model[:, :t], model[:, t], noise


def _evaluate(b: np.ndarray, c: np.ndarray, d: np.ndarray,
              gain: np.ndarray) -> tuple[np.ndarray, float]:
    """Plug-in evaluation of a gain on the moment model (B, c, d) of
    _moment_model (module docstring): (H, average cost d^T v).

    Raises ValidationError unless gain is a finite (m, n) matrix
    (as_matrix), and UnreliableKernelError when I - K_L^T B is singular.
    """
    n = side_from_packed_length(len(d))
    gain = as_matrix(gain, "gain", (side_from_packed_length(len(c)) - n, n))
    gain_map = congruence(np.vstack([np.eye(n), gain])[None]).T   # K_L^T
    value = _solve(np.eye(len(d)) - gain_map @ b, gain_map @ c, "kernel estimate")   # vecs(P)
    return unvecs(c + b @ value), float(d @ value)


def bls_estimate(traj: Trajectory, gain: np.ndarray,
                 noise_cov: np.ndarray | None = None) -> np.ndarray:
    """Batch least-squares kernel fit over one rollout, unregularised: the
    plain moment model evaluated at the gain. Its average cost is pinned by
    D, or with noise_cov None by D-hat, the intercept of the unit-weight
    regression of psi' on [phi; 1].
    """
    return _evaluate(*_moment_model(traj, noise_cov, weighted=False), gain)[0]


def policy_from_h(kernel: np.ndarray, state_dim: int) -> np.ndarray:
    """Greedy gain of a fitted state-input kernel: greedy_gain of H, a square
    matrix of real numbers, finite or not, made symmetric by
    packing.symmetrize (named "kernel"), split at state_dim, with the
    condition number of H_uu capped at MAX_KERNEL_CONDITION."""
    return greedy_gain(symmetrize(kernel, "kernel"), state_dim, MAX_KERNEL_CONDITION)


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of the online learner.

    initial_gain must be a finite 2-d matrix (ValidationError otherwise) and
    admissible for the plant the sampler wraps; the learner cannot check
    admissibility without a model, so the caller asserts it.
    Each iteration evaluates its gain on the moment model of its rollout
    (module docstring), with the ridge 1 / rls_init_scale on the model's
    Gram. cost_mode "known_d" takes the model's noise term d, and so the
    average cost tr(P D), from the additive-noise covariance D, "empirical"
    from D-hat, the model's intercept. For the plant's stage costs the
    latter is the fit with the average cost as one more coefficient; costs
    with a free constant of their own, which no plant produces, are fitted
    wrongly. A fit takes at least (n+m)(n+m+1)/2 samples, one more in empirical
    mode. probe_var, rls_init_scale and gain_tol are held as floats, counts as ints.
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
        for name, minimum in (("rollout_len", 1), ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, minimum))
        for name in ("probe_var", "rls_init_scale", "gain_tol"):
            object.__setattr__(self, name, check_positive(getattr(self, name), name,
                                                          finite=name != "rls_init_scale"))
        if self.cost_mode not in COST_MODES:
            raise ValidationError(
                f"cost_mode must be one of {COST_MODES}, got {self.cost_mode!r}"
            )


class LearningResult(PolicyIterationTrace):
    """The learner's evaluate_improve trace, cut by prefix like any other.
    kernels[t] is iteration t's fitted H; gains[t + 1] = policy_from_h(kernels[t], n).
    costs[t], also read as cost_estimates[t], is the average-cost estimate of
    iteration t's policy, tr(P_t D-hat) for the value kernel P_t of its fit,
    with D-hat = D in known_d mode."""

    @property
    def cost_estimates(self) -> list[float]:
        return self.costs


def iteration_seed(base_seed: int, iteration: int) -> int:
    """Deterministic per-iteration rollout seed on an independent stream, of integers >= 0."""
    seeds = [check_integer(base_seed, "base_seed", 0), check_integer(iteration, "iteration", 0)]
    return int(np.random.SeedSequence(seeds).generate_state(1)[0])


def _fit_iteration(traj: Trajectory, gain: np.ndarray,
                   noise_cov: np.ndarray | None,
                   init_scale: float) -> tuple[np.ndarray, float]:
    """The learner's fit over a rollout: the weighted moment model, ridge
    1 / init_scale, evaluated at the gain; (kernel, cost estimate tr(P D-hat)),
    with D-hat = noise_cov when it is given."""
    return _evaluate(*_moment_model(traj, noise_cov, True, 1.0 / init_scale), gain)


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
        return kernel, cost_estimate, policy_from_h(kernel, gain.shape[1])

    trace = evaluate_improve(config.initial_gain, step, config.gain_tol,
                             config.max_iterations)
    return LearningResult(**vars(trace))


def run_online_learning(model: SystemModel, cost: CostModel,
                        config: LearnerConfig) -> LearningResult:
    """Wire the learner to a plant simulator and run it.

    The model is used only to build the rollout sampler and to hand over D
    (read in known_d mode); the learning loop never reads the plant matrices.
    The sampler rolls out through one RolloutBuffers per run, so every
    rollout after the first writes into the memory of the one before, which
    learn_from_rollouts has used up and dropped by then. Only the first
    rollout faults its arrays in (about 4.4 MB on example_sec6); the results
    are bit-identical to fresh rollouts.
    """
    buffers = RolloutBuffers()

    def sampler(gain: np.ndarray, seed: int) -> Trajectory:
        return simulate_closed_loop(model, cost, gain, config.rollout_len,
                                    config.probe_var, seed, buffers=buffers)

    return learn_from_rollouts(sampler, config, model.D)
