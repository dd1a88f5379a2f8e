"""System and cost models plus closed-loop simulation.

The plant is linear with multiplicative noise on both the state and input
matrices and additive Gaussian noise:

    x_{k+1} = (A + sum_i alpha_ik A_i) x_k + (B + sum_j beta_jk B_j) u_k + d_k

with alpha_ik ~ N(0, var_i), beta_jk ~ N(0, var_j), d_k ~ N(0, D), all
mutually independent across channels and time, and x_0 ~ N(0, X0). In the
channel factors E_c = sqrt(var_c) [A_c B_c] (SystemModel.channels) a step
is x_{k+1} = sum_c w_ck E_c [x_k; u_k] + d_k, with w_0k = 1 and the other
w_ck standard normals, and under feedback u_k = L x_k + e_k it is
x_{k+1} = M_k x_k + b_k with M_k = sum_c w_ck E_c [I; L] (loop_factors)
and b_k = sum_c w_ck E_c [0; e_k] + d_k. The rollout works in windows of
ROLLOUT_BLOCK steps: it draws a window's noise at once and builds every
step map [M_k | b_k] of the window in one product, of the window's draws
(with a constant 1 and the products w_ck e_k of the input-side channels
with the probe) by a matrix fixed per rollout. The affine recurrence is then
solved by a two-level scan (the blocked prefix scan of affine maps; Blelloch,
"Prefix sums and their applications", 1990): the window is split into lanes
of about sqrt(ROLLOUT_BLOCK) steps, all lanes compose their step maps at once
in batched products, and then each lane in turn gets all its states from one
product of its composed maps with its start state, whose last row starts the
next lane (see _lane_scan). That is about 2 sqrt(ROLLOUT_BLOCK) Python-level
steps per window instead of ROLLOUT_BLOCK. Inputs and stage costs are formed
from the window's states afterwards: the inputs are one product of the
states with a contiguous copy of L^T, made once per rollout and written
straight into the returned array, plus the scaled probe rows of the
window's draws. Working memory beyond the returned arrays is
O(ROLLOUT_BLOCK * (n^2 + m + p + q m)) for p state and q input channels,
whatever the rollout length.

The scan does O(n^3) work per step where a step-by-step loop over the same
step maps does O(n^2). On 42000-step rollouts (m = n/2, m = 1 at n = 3; a
2-core Intel Xeon, one BLAS thread; 5 interleaved runs each) the rollout
takes 13-23 ms against 106-181 ms with the loop at n = 3, 52-65 against
154-233 ms at n = 10 and 180-224 against 254-338 ms at n = 20, and the two
are level at n = 30 (362-494 against 370-507 ms). At n = 30 the learner's
fit over s = (n+m)(n+m+1)/2 = 1035 features costs s^2 N = 4.5e10
multiply-adds per rollout, which dwarfs the rollout, so there is one rollout
path and no size-dependent switch.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .packing import as_matrix, symmetrize

# Definiteness margin: smallest eigenvalue must exceed this for a PD check.
PD_EIG_FLOOR = 1e-12

# Steps per window of a closed-loop rollout (see the module docstring).
ROLLOUT_BLOCK = 4096


def _owned(mat) -> np.ndarray:
    """A read-only float copy of mat, for a model to hold: the caller's
    array can then change neither the model nor what was derived from it."""
    mat = np.array(mat, dtype=float)
    mat.flags.writeable = False
    return mat


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is a Python or numpy real number that converts to float;
    a bool is not, nor is an int beyond the float range."""
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return isinstance(value, (float, np.integer, np.floating))


def _kind(value) -> str:
    """What value is, for a message saying that it is not a real number."""
    return "int beyond the float range" if is_integer(value) else type(value).__name__


def check_integer(value, name: str, minimum: int) -> None:
    """Raise ValidationError unless value is an integer (is_integer) >= minimum."""
    if not is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def check_positive(value, name: str, finite: bool = False) -> None:
    """Raise ValidationError unless value is a real number (Python or numpy,
    not a bool) > 0; NaN is not. With finite, inf is not either."""
    if not is_real(value):
        raise ValidationError(f"{name} must be a number, got {_kind(value)}")
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if finite and value == np.inf:
        raise ValidationError(f"{name} must be finite, got {value}")


def _nonempty(mat: np.ndarray, name: str) -> np.ndarray:
    """mat, unless it has no entries (ValidationError naming it by name)."""
    if mat.size == 0:
        raise ValidationError(f"{name} must not be empty, got shape {mat.shape}")
    return mat


def _check_psd(mat: np.ndarray, name: str) -> None:
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() < -PD_EIG_FLOOR * max(1.0, abs(eigs.max())):
        raise ValidationError(
            f"{name} must be positive semidefinite, smallest eigenvalue {eigs.min():.3e}"
        )


def _check_pd(mat: np.ndarray, name: str) -> None:
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() <= PD_EIG_FLOOR:
        raise ValidationError(
            f"{name} must be positive definite, smallest eigenvalue {eigs.min():.3e}"
        )


@dataclass(frozen=True)
class SystemModel:
    """Plant description.

    state_noise / input_noise are lists of (matrix, variance) pairs: the
    direction each scalar noise channel acts in, and its variance.
    Construction checks every shape and variance (A and B must not be
    empty: a plant has a state and an input) and stacks the channel
    factors in channels, one C-contiguous (c, n, n + m) array: [A B] first,
    then sqrt(var_i) [A_i 0] and sqrt(var_j) [0 B_j], in the draw order.
    The model holds read-only copies of all its matrices.
    """

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    X0: np.ndarray
    state_noise: list[tuple[np.ndarray, float]] = field(default_factory=list)
    input_noise: list[tuple[np.ndarray, float]] = field(default_factory=list)
    channels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _nonempty(as_matrix(self.A, "A", square=True), "A")
        b = _nonempty(as_matrix(self.B, "B", (len(a), None)), "B")
        n, m = b.shape
        object.__setattr__(self, "A", _owned(a))
        object.__setattr__(self, "B", _owned(b))
        for name in ("D", "X0"):
            mat = as_matrix(getattr(self, name), name, (n, n))
            object.__setattr__(self, name, _owned(symmetrize(mat)))
        factors = [np.hstack([a, b])]
        for name, part in (("state_noise", slice(None, n)), ("input_noise", slice(n, None))):
            checked = []
            for i, entry in enumerate(getattr(self, name)):
                where = f"{name}[{i}]"
                try:
                    mat, var = entry
                except (TypeError, ValueError):
                    raise ValidationError(f"{where} must be a (matrix, variance) pair") from None
                factor = np.zeros((n, n + m))
                mat = as_matrix(mat, where, factor[:, part].shape)
                if not is_real(var):
                    raise ValidationError(
                        f"{where} variance must be a real number, got {_kind(var)}")
                if not 0 <= var < math.inf:
                    raise ValidationError(f"{where} variance must be finite and >= 0, got {var}")
                factor[:, part] = math.sqrt(var) * mat
                checked.append((_owned(mat), float(var)))
                factors.append(factor)
            object.__setattr__(self, name, checked)
        object.__setattr__(self, "channels", _owned(factors))

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    def validate(self) -> None:
        """Check that D is positive definite and X0 positive semidefinite;
        construction has checked the shapes and variances."""
        _check_pd(self.D, "D")
        _check_psd(self.X0, "X0")


def loop_factors(model: SystemModel, gain: np.ndarray) -> np.ndarray:
    """The loop factors E_c [I; L] = E_c[:, :n] + E_c[:, n:] L of the model's
    channels under u = L x, as one C-contiguous (c, n, n) stack. Raises
    ValidationError unless gain is a finite (m, n) matrix."""
    n, m = model.state_dim, model.input_dim
    gain = as_matrix(gain, "gain", (m, n))
    flat = model.channels.reshape(-1, n + m)
    return (flat[:, :n] + flat[:, n:] @ gain).reshape(-1, n, n)


@dataclass(frozen=True)
class CostModel:
    """Quadratic stage cost x^T Q x + u^T R u with Q >= 0 and R > 0, held
    as read-only copies; an empty Q or R is a ValidationError."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("Q", "R"):
            mat = _nonempty(as_matrix(getattr(self, name), name), name)
            object.__setattr__(self, name, _owned(symmetrize(mat)))

    def validate(self, model: SystemModel | None = None) -> None:
        _check_psd(self.Q, "Q")
        _check_pd(self.R, "R")
        if model is not None:
            as_matrix(self.Q, "Q", (model.state_dim,) * 2)
            as_matrix(self.R, "R", (model.input_dim,) * 2)


@dataclass
class Trajectory:
    """A closed-loop rollout of n_steps transitions.

    states has n_steps+1 rows. inputs also has n_steps+1 rows: rows 0..n_steps-1
    are the inputs actually applied (feedback plus exploration probe), and the
    final row is the unprobed feedback input at the terminal state, so that
    consumers can form the (state, on-policy input) pair at every index.
    costs[k] is the stage cost of (states[k], inputs[k]) for k < n_steps.
    """

    states: np.ndarray   # (n_steps + 1, n)
    inputs: np.ndarray   # (n_steps + 1, m)
    costs: np.ndarray    # (n_steps,)

    @property
    def n_steps(self) -> int:
        return self.costs.shape[0]


def noise_factor(cov: np.ndarray) -> np.ndarray:
    """A factor G with G G^T = cov. Cholesky when PD, eigh square root otherwise."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigs, vecs_ = np.linalg.eigh(cov)
        if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
            raise ValidationError(
                f"covariance has negative eigenvalue {eigs.min():.3e}"
            ) from None
        return vecs_ * np.sqrt(np.clip(eigs, 0.0, None))


def _quadratic_forms(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """row @ weight @ row for every row, bit-identical to the one-row product."""
    return ((rows @ weight)[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _lane_scan(maps: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """Write x_{k+1} = M_k x_k + b_k into out[k] for every k < len(out), from x_0 = x.

    maps, read in place, holds the step maps [M_k | b_k] in lanes of width
    steps: its (lanes, width, n, n+1) entry [k // width, k % width] is step
    k's, and the entries past len(out) pad the last lane with zeros, whose
    states are dropped. Every lane starts from the identity map and
    advances its steps in lock-step with the others, carrying the affine map
    [[P, y], [0, 1]] from its start state to its current state, so that a
    step is one batched product by [M_k | b_k]. The lanes then run in order:
    one (width (n+1)) x (n+1) product of a lane's stacked maps with [x_l; 1]
    gives all its states, each with the 1 appended, and its last one is
    [x_{l+1}; 1]. That is about 2 sqrt(len(out)) Python-level steps in place
    of len(out), and working memory of one (n+1) x (n+1) map and one
    (n+1)-vector per step.
    """
    steps, n = out.shape
    lanes, width = maps.shape[:2]
    # carried[l, j] takes lane l's start state to its state after step j + 1.
    carried = np.zeros((lanes, width, n + 1, n + 1))
    carried[:, :, n, n] = 1.0
    carried[:, 0, :n] = maps[:, 0]
    for j in range(1, width):
        np.matmul(maps[:, j], carried[:, j - 1], out=carried[:, j, :n])
    carried = carried.reshape(lanes, width * (n + 1), n + 1)
    lifted = np.empty((lanes, width * (n + 1)))
    start = np.append(x, 1.0)
    for lane_maps, lane_states in zip(carried, lifted):
        np.dot(lane_maps, start, out=lane_states)
        start = lane_states[-(n + 1):]
    lifted = lifted.reshape(lanes * width, n + 1)
    out[...] = lifted[:steps, :n]


def simulate_closed_loop(model: SystemModel, cost: CostModel, gain: np.ndarray,
                         n_steps: int, probe_var: float, seed) -> Trajectory:
    """Roll out u_k = gain @ x_k + e_k with e_k ~ N(0, probe_var * I).

    Draw order is fixed for reproducibility: n draws for x0, then per step the
    m-vector probe (drawn even when probe_var == 0, so the noise stream does
    not depend on the probe setting), p + q channel scalars, and the n-vector
    for the additive noise. Costs are charged on the input actually applied.
    The window size does not change the draws: each window takes the next
    rows of the same stream. Raises ValidationError unless gain is a finite
    (m, n) matrix, n_steps an integer >= 1 whose arrays can be allocated,
    probe_var a real number, finite and >= 0, and seed an integer >= 0.
    """
    loop = loop_factors(model, gain)
    gain = np.asarray(gain, dtype=float)
    n, m = model.state_dim, model.input_dim
    check_integer(n_steps, "n_steps", 1)
    if not is_real(probe_var):
        raise ValidationError(f"probe_var must be a real number, got {_kind(probe_var)}")
    if not 0 <= probe_var < math.inf:
        raise ValidationError(f"probe_var must be finite and >= 0, got {probe_var}")
    check_integer(seed, "seed", 0)

    rng = np.random.default_rng(seed)
    d_factor = noise_factor(model.D)
    x0_factor = noise_factor(model.X0)
    channels = model.channels
    draw_width = m + len(channels) - 1 + n
    root_probe = math.sqrt(probe_var)
    probed = [c for c in range(1, len(channels)) if channels[c, :, n:].any()]
    # A window's step maps are one product: the rows of its regressors,
    # [draws | 1 | w_c e_a], times the rows of map_terms, each the part of
    # [M_k | b_k] that one regressor scales. A probe e_a adds
    # sqrt(probe_var) B[:, a] to the drive column, a channel draw w_c (row
    # m + c - 1) its loop factor E_c [I; L] to the loop, an additive draw its
    # column of the D factor to the drive, the constant 1 the mean loop, and
    # a product w_c e_a, for each channel in probed (those with a nonzero
    # input part), sqrt(probe_var) E_c[:, n + a] to the drive.
    map_terms = np.zeros((draw_width + 1 + len(probed) * m, n, n + 1))
    map_terms[:m, :, n] = root_probe * channels[0, :, n:].T
    map_terms[m:draw_width - n, :, :n] = loop[1:]
    map_terms[draw_width - n:draw_width, :, n] = d_factor.T
    map_terms[draw_width, :, :n] = loop[0]
    for k, c in enumerate(probed):
        row = draw_width + 1 + k * m
        map_terms[row:row + m, :, n] = root_probe * channels[c, :, n:].T
    map_terms = map_terms.reshape(len(map_terms), n * (n + 1))
    regressors = np.empty((len(map_terms), min(n_steps, ROLLOUT_BLOCK)))
    regressors[draw_width] = 1.0
    gain_t = np.ascontiguousarray(gain.T)

    try:
        states = np.empty((n_steps + 1, n))
        inputs = np.empty((n_steps + 1, m))
        costs = np.empty(n_steps)
    except (ValueError, MemoryError) as exc:
        raise ValidationError(
            f"n_steps is too large for the rollout's arrays: {exc}") from None

    states[0] = x0_factor @ rng.standard_normal(n)
    # A gain that is not mean-square stable overflows the states; they come
    # back non-finite, for the fit to reject, without numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, ROLLOUT_BLOCK):
            stop = min(start + ROLLOUT_BLOCK, n_steps)
            steps = stop - start
            draws = rng.standard_normal((steps, draw_width))
            window = regressors[:, :steps]
            window[:draw_width] = draws.T
            products = window[draw_width + 1:].reshape(len(probed), m, steps)
            for k, c in enumerate(probed):
                np.multiply(window[m - 1 + c], window[:m], out=products[k])
            width = math.isqrt(steps)
            lanes = -(-steps // width)
            maps = np.empty((lanes * width, n, n + 1))
            maps[steps:] = 0.0
            np.matmul(window.T, map_terms, out=maps[:steps].reshape(steps, n * (n + 1)))
            block_states = states[start:stop]
            _lane_scan(maps.reshape(lanes, width, n, n + 1), block_states[0],
                       out=states[start + 1:stop + 1])
            # np.dot: matmul takes a slow path for an (N, 1) by (1, 1) product.
            block_inputs = np.dot(block_states, gain_t, out=inputs[start:stop])
            block_inputs += root_probe * window[:m].T
            costs[start:stop] = (_quadratic_forms(block_states, cost.Q)
                                 + _quadratic_forms(block_inputs, cost.R))

        inputs[n_steps] = gain @ states[n_steps]
    return Trajectory(states=states, inputs=inputs, costs=costs)
