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
whatever the rollout length. A RolloutBuffers holds all of those arrays
and the returned ones across rollouts: a learner run passes one to every
rollout, which then writes into the memory of the one before instead of
freeing and faulting in its arrays afresh (about 4.4 MB, or 1030 minor
page faults, per 42000-step rollout at n = 3). The returned trajectory
then lives in the buffers until their next rollout.

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


def check_integer(value, name: str, minimum: int) -> int:
    """value as a Python int; ValidationError unless a Python or numpy integer >= minimum."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_positive(value, name: str, finite: bool = False) -> float:
    """value as a float; ValidationError unless a real number (as_matrix) > 0, finite if set."""
    number = float(as_matrix(value, name, (), finite=False))
    if not number > 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if finite and number == math.inf:
        raise ValidationError(f"{name} must be finite, got {value}")
    return number


def _variance(value, name: str) -> float:
    """value as a float; ValidationError unless a real number (as_matrix), finite and >= 0."""
    number = float(as_matrix(value, name, (), finite=False))
    if not 0 <= number < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return number


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
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValidationError(f"{name} must be a list of (matrix, variance) pairs")
            checked = []
            for i, entry in enumerate(getattr(self, name)):
                where = f"{name}[{i}]"
                try:
                    mat, var = entry
                except (TypeError, ValueError):
                    raise ValidationError(f"{where} must be a (matrix, variance) pair") from None
                factor = np.zeros((n, n + m))
                mat = as_matrix(mat, where, factor[:, part].shape)
                var = _variance(var, f"{where} variance")
                factor[:, part] = math.sqrt(var) * mat
                checked.append((_owned(mat), var))
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
            check_cost(model, self)


def check_cost(model: SystemModel, cost: CostModel) -> None:
    """Raise ValidationError unless cost's Q and R fit the model's state and input sizes."""
    as_matrix(cost.Q, "Q", (model.state_dim,) * 2, finite=False)   # finite since construction
    as_matrix(cost.R, "R", (model.input_dim,) * 2, finite=False)


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


class RolloutBuffers:
    """The arrays a rollout writes, kept for the next rollout to write again.

    simulate_closed_loop(..., buffers=b) takes every array it writes from b:
    the returned trajectory's states, inputs and costs, and its window
    arrays (regressors, draws, step maps, the lane scan's composed maps and
    lifted states, and probe rows). An array is reused while its shape
    matches and replaced otherwise, so rollouts of one length and plant
    write into the same memory. The Trajectory that such a call returns
    lives in b until b's next rollout, which overwrites it.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], make=np.empty) -> np.ndarray:
        """The array held as name if it has the shape, else make(shape), held
        in its place."""
        array = self._arrays.get(name)
        if array is None or array.shape != shape:
            array = self._arrays[name] = make(shape)
        return array


def noise_factor(cov: np.ndarray) -> np.ndarray:
    """A factor G with G G^T = cov. Cholesky when PD, eigh square root otherwise."""
    cov = as_matrix(cov, "cov", square=True)
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
    """row @ weight @ row for every row. Up to n = 3 columns it is bit-identical
    to the one-row product x @ weight @ x; from n = 4 on the batched
    rows @ weight runs as a matrix-matrix product where x @ weight runs as a
    matrix-vector one, and on OpenBLAS a fifth to two fifths of the rows
    differ in the last bits (below 3e-15 relative at n = 4-8)."""
    return ((rows @ weight)[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _affine_maps(shape: tuple[int, int, int]) -> np.ndarray:
    """A stack of (n+1) x (n+1) maps, each zero but for its last row [0 ... 0 1]."""
    maps = np.zeros(shape)
    maps[:, -1, -1] = 1.0
    return maps


def _lane_scan(maps: np.ndarray, x: np.ndarray, out: np.ndarray,
               composed: np.ndarray, lifted: np.ndarray) -> None:
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
    of len(out). The caller's composed, an (N, n+1, n+1) array whose entries
    all have the last row [0 ... 0 1], and lifted, an (N, n+1) array, with
    N >= lanes * width, are the working memory: one map and one vector per
    step. Only the first n rows of composed's entries are written.
    """
    steps, n = out.shape
    lanes, width = maps.shape[:2]
    # carried[l, j] takes lane l's start state to its state after step j + 1.
    carried = composed[:lanes * width].reshape(lanes, width, n + 1, n + 1)
    carried[:, 0, :n] = maps[:, 0]
    for j in range(1, width):
        np.matmul(maps[:, j], carried[:, j - 1], out=carried[:, j, :n])
    carried = carried.reshape(lanes, width * (n + 1), n + 1)
    lanes_lifted = lifted[:lanes * width].reshape(lanes, width * (n + 1))
    start = np.append(x, 1.0)
    for lane_maps, lane_states in zip(carried, lanes_lifted):
        np.dot(lane_maps, start, out=lane_states)
        start = lane_states[-(n + 1):]
    out[...] = lifted[:steps, :n]


def simulate_closed_loop(model: SystemModel, cost: CostModel, gain: np.ndarray,
                         n_steps: int, probe_var: float, seed,
                         buffers: RolloutBuffers | None = None) -> Trajectory:
    """Roll out u_k = gain @ x_k + e_k with e_k ~ N(0, probe_var * I).

    Draw order is fixed for reproducibility: n draws for x0, then per step the
    m-vector probe (drawn even when probe_var == 0, so the noise stream does
    not depend on the probe setting), p + q channel scalars, and the n-vector
    for the additive noise. Costs are charged on the input actually applied.
    The window size does not change the draws: each window takes the next
    rows of the same stream. Without buffers every array is allocated
    afresh and the trajectory's arrays are the caller's; with buffers, a
    RolloutBuffers, every array the rollout writes is taken from it, and the
    returned trajectory lives in it until its next rollout, which
    overwrites it. The outputs are the same either way, bit for bit. Raises
    ValidationError unless cost fits the model (check_cost), gain is a
    finite (m, n) matrix, n_steps an integer >= 1 whose arrays can be
    allocated, probe_var a real number, finite and >= 0, seed an integer
    >= 0 and buffers None or a RolloutBuffers.
    """
    if buffers is None:
        buffers = RolloutBuffers()
    elif not isinstance(buffers, RolloutBuffers):
        raise ValidationError(
            f"buffers must be a RolloutBuffers, got {type(buffers).__name__}")
    check_cost(model, cost)
    loop = loop_factors(model, gain)
    gain = np.asarray(gain, dtype=float)
    n, m = model.state_dim, model.input_dim
    n_steps = check_integer(n_steps, "n_steps", 1)
    probe_var = _variance(probe_var, "probe_var")
    seed = check_integer(seed, "seed", 0)

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
    gain_t = np.ascontiguousarray(gain.T)

    try:
        states = buffers.take("states", (n_steps + 1, n))
        inputs = buffers.take("inputs", (n_steps + 1, m))
        costs = buffers.take("costs", (n_steps,))
    except (ValueError, MemoryError) as exc:
        raise ValidationError(
            f"n_steps is too large for the rollout's arrays: {exc}") from None
    # The window arrays, sized by the first window, the longest: a later,
    # shorter one has at most as many lane entries (lanes * width).
    block = min(n_steps, ROLLOUT_BLOCK)
    lane_width = math.isqrt(block)
    capacity = -(-block // lane_width) * lane_width
    regressors = buffers.take("regressors", (len(map_terms), block))
    regressors[draw_width] = 1.0
    draws = buffers.take("draws", (block, draw_width))
    step_maps = buffers.take("step_maps", (capacity, n, n + 1))
    composed = buffers.take("composed", (capacity, n + 1, n + 1), make=_affine_maps)
    lifted = buffers.take("lifted", (capacity, n + 1))
    probe_rows = buffers.take("probe_rows", (block, m))

    states[0] = x0_factor @ rng.standard_normal(n)
    # A gain that is not mean-square stable overflows the states; they come
    # back non-finite, for the fit to reject, without numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, ROLLOUT_BLOCK):
            stop = min(start + ROLLOUT_BLOCK, n_steps)
            steps = stop - start
            rng.standard_normal(out=draws[:steps])
            window = regressors[:, :steps]
            window[:draw_width] = draws[:steps].T
            products = window[draw_width + 1:].reshape(len(probed), m, steps)
            for k, c in enumerate(probed):
                np.multiply(window[m - 1 + c], window[:m], out=products[k])
            width = math.isqrt(steps)
            lanes = -(-steps // width)
            maps = step_maps[:lanes * width]
            maps[steps:] = 0.0
            np.matmul(window.T, map_terms, out=maps[:steps].reshape(steps, n * (n + 1)))
            block_states = states[start:stop]
            _lane_scan(maps.reshape(lanes, width, n, n + 1), block_states[0],
                       out=states[start + 1:stop + 1], composed=composed, lifted=lifted)
            # np.dot: matmul takes a slow path for an (N, 1) by (1, 1) product.
            block_inputs = np.dot(block_states, gain_t, out=inputs[start:stop])
            block_inputs += np.multiply(root_probe, window[:m].T, out=probe_rows[:steps])
            costs[start:stop] = (_quadratic_forms(block_states, cost.Q)
                                 + _quadratic_forms(block_inputs, cost.R))

        inputs[n_steps] = gain @ states[n_steps]
    return Trajectory(states=states, inputs=inputs, costs=costs)
