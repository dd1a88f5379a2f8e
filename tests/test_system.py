import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from slqr.analysis import (
    is_admissible,
    moment_operator,
    solve_value_kernel,
    stationary_covariance,
)
from slqr.config import fixture_path, load_config
from slqr.errors import ValidationError
from slqr.system import (
    ROLLOUT_BLOCK,
    CostModel,
    RolloutBuffers,
    SystemModel,
    noise_factor,
    simulate_closed_loop,
)

from random_instances import random_admissible_gain, random_admissible_system


def scalar_model(a=0.5, b=1.0, d=1.0, state_noise=(), input_noise=()):
    return SystemModel(A=[[a]], B=[[b]], D=[[d]], X0=[[1.0]],
                       state_noise=list(state_noise), input_noise=list(input_noise))


def det_model(A, B):
    # Deterministic-limit plant: no noise channels, D = 0.
    n = np.asarray(A).shape[0]
    return SystemModel(A=A, B=B, D=np.zeros((n, n)), X0=np.eye(n))


def test_validate_accepts_example_system(sec6):
    model, cost = sec6
    model.validate()
    cost.validate(model)
    assert model.state_dim == 3 and model.input_dim == 3
    assert len(model.state_noise) == 2 and len(model.input_noise) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrices_are_rejected_without_a_warning(bad):
    # Each raises before symmetrize or an eigenvalue check sees the entry
    # (RuntimeWarnings fail the suite).
    with pytest.raises(ValidationError, match="^Q has non-finite entries"):
        CostModel(Q=[[bad]], R=[[1.0]])
    with pytest.raises(ValidationError, match="^D has non-finite entries"):
        scalar_model(d=bad)
    with pytest.raises(ValidationError, match=r"^state_noise\[0\] has non-finite"):
        scalar_model(state_noise=[([[bad]], 0.1)])


@pytest.mark.parametrize("build, message", [
    (lambda: scalar_model(a="x"), r"^A must be a matrix of real numbers"),
    (lambda: CostModel(Q=[["x"]], R=[[1.0]]), r"^Q must be a matrix of real numbers"),
    (lambda: scalar_model(input_noise=[([["x"]], 0.1)]),
     r"^input_noise\[0\] must be a matrix of real numbers"),
], ids=["A", "Q", "channel"])
def test_non_numeric_matrices_are_rejected_by_name(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: scalar_model(a=np.array(0.5 + 1j)), r"^A must be a matrix of real numbers"),
    (lambda: scalar_model(state_noise=[(np.array([[2j]]), 0.1)]),
     r"^state_noise\[0\] must be a matrix of real numbers"),
    (lambda: is_admissible(scalar_model(), np.array([[0.1 + 2j]])),
     r"^gain must be a matrix of real numbers"),
], ids=["A", "channel", "gain"])
def test_complex_matrices_are_rejected_by_name(build, message):
    # A complex array cast to float would lose its imaginary part, and the
    # run would go on with another plant or gain; its ComplexWarning is no
    # check, as a caller's warning filter may show it, hide it or raise it.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=message):
            build()
    assert not caught


@pytest.mark.parametrize("build, message", [
    (lambda: SystemModel(A=np.zeros((0, 0)), B=np.zeros((0, 1)), D=np.zeros((0, 0)),
                         X0=np.zeros((0, 0))), r"^A must not be empty, got shape \(0, 0\)$"),
    (lambda: SystemModel(A=[[0.5]], B=np.zeros((1, 0)), D=[[1.0]], X0=[[1.0]]),
     r"^B must not be empty, got shape \(1, 0\)$"),
    (lambda: CostModel(Q=np.zeros((0, 0)), R=[[1.0]]), r"^Q must not be empty"),
    (lambda: CostModel(Q=[[1.0]], R=np.zeros((0, 0))), r"^R must not be empty"),
], ids=["no states", "no inputs", "empty Q", "empty R"])
def test_empty_models_are_rejected_by_name(build, message):
    # A plant has at least one state and one input, and a cost weighs both.
    with pytest.raises(ValidationError, match=message):
        build()


@pytest.mark.parametrize("name", ["Q", "R", "D", "X0"])
def test_an_asymmetric_matrix_is_rejected_by_name(name):
    # Each symmetric argument is read once, by symmetrize, under its own name.
    skewed = [[1.0, 0.5], [0.0, 1.0]]
    args = dict(A=np.eye(2), B=np.eye(2), D=np.eye(2), X0=np.eye(2), Q=np.eye(2), R=np.eye(2))
    args[name] = skewed
    with pytest.raises(ValidationError, match=rf"^{name} is asymmetric: max \|M - M\^T\|"):
        SystemModel(A=args["A"], B=args["B"], D=args["D"], X0=args["X0"])
        CostModel(Q=args["Q"], R=args["R"])


def test_validate_rejects_zero_r():
    with pytest.raises(ValidationError, match="R must be positive definite"):
        CostModel(Q=[[1.0]], R=[[0.0]]).validate()


def test_validate_rejects_indefinite_q():
    with pytest.raises(ValidationError, match="Q must be positive semidefinite"):
        CostModel(Q=[[-1.0]], R=[[1.0]]).validate()
    # Also near the float maximum, where symmetrizing must not overflow to -inf.
    with pytest.raises(ValidationError, match="Q must be positive semidefinite"):
        CostModel(Q=[[-1e308]], R=[[1.0]]).validate()


@pytest.mark.parametrize("corner, low", [(-1.5e308, "-inf"), (1.5e308, r"0\.000e\+00")],
                         ids=["indefinite", "semidefinite"])
def test_validate_rejects_a_spectrum_beyond_the_float_range(corner, low):
    # eigh gives [-inf, inf] for the indefinite matrix and [0, inf] for the
    # semidefinite one: an inf eigenvalue bounds nothing, so both fail.
    q = [[1.5e308, 1.5e308], [1.5e308, corner]]
    message = (r"^Q must be positive semidefinite: its spectrum exceeds the float range, "
               rf"eigenvalues {low} to inf$")
    with pytest.raises(ValidationError, match=message):
        CostModel(Q=q, R=[[1.0]]).validate()


def test_entries_near_the_float_maximum_are_held_as_given():
    model = scalar_model(d=1e308)
    model.validate()
    assert model.D.tolist() == [[1e308]]
    assert CostModel(Q=[[1e308]], R=[[1e308]]).Q.tolist() == [[1e308]]


def test_validate_rejects_wrong_b_rows():
    with pytest.raises(ValidationError, match=r"^B must have shape \(3, 3\), got \(2, 3\)$"):
        SystemModel(A=np.eye(3) * 0.5, B=np.zeros((2, 3)), D=np.eye(3), X0=np.eye(3))


@pytest.mark.parametrize("field, value, message", [
    ("A", np.zeros((3, 2)), r"^A must be square"),
    ("D", np.eye(2), r"^D must have shape \(3, 3\)"),
    ("X0", np.eye(4), r"^X0 must have shape \(3, 3\)"),
])
def test_mismatched_shapes_are_rejected_at_construction(field, value, message):
    plant = dict(A=np.eye(3) * 0.5, B=np.zeros((3, 1)), D=np.eye(3), X0=np.eye(3))
    plant[field] = value
    with pytest.raises(ValidationError, match=message):
        SystemModel(**plant)


def test_validate_rejects_degenerate_d_without_flag():
    model = SystemModel(A=[[0.5]], B=[[1.0]], D=[[0.0]], X0=[[1.0]])
    with pytest.raises(ValidationError, match="D must be positive definite"):
        model.validate()


def test_validate_rejects_a_singular_d_at_any_scale():
    # Rank-2 D = 1e6 g g^T: its smallest eigenvalue is rounding error, far
    # below 1e-12 of the largest but not always below an absolute 1e-12.
    rng = np.random.default_rng(0)
    for _ in range(500):
        g = rng.standard_normal((3, 2))
        model = SystemModel(A=np.eye(3) * 0.5, B=np.ones((3, 1)), D=1e6 * g @ g.T, X0=np.eye(3))
        with pytest.raises(ValidationError, match="^D must be positive definite: smallest "):
            model.validate()


def test_validate_accepts_tiny_well_conditioned_d_and_r():
    # The rule is relative: 1e-13 I is as definite as I.
    SystemModel(A=np.eye(2) * 0.5, B=np.ones((2, 1)), D=1e-13 * np.eye(2),
                X0=np.eye(2)).validate()
    CostModel(Q=[[1.0]], R=[[1e-13]]).validate()


@pytest.mark.parametrize("name", ["Q", "X0"])
def test_validate_rejects_a_tiny_indefinite_matrix(name):
    # -5e-15 next to 1e-14 is indefinite at the matrix's own scale.
    tiny = 1e-14 * np.diag([1.0, -0.5])
    message = (rf"^{name} must be positive semidefinite: smallest eigenvalue -5\.000e-15 "
               rf"is below -1e-12 times the largest magnitude, 1\.000e-14$")
    with pytest.raises(ValidationError, match=message):
        if name == "Q":
            CostModel(Q=tiny, R=[[1.0]]).validate()
        else:
            SystemModel(A=np.eye(2) * 0.5, B=np.ones((2, 1)), D=np.eye(2), X0=tiny).validate()


def test_validate_rejects_negative_variance():
    with pytest.raises(ValidationError, match=r"state_noise\[0\] variance"):
        scalar_model(state_noise=[([[1.0]], -0.1)])


@pytest.mark.parametrize("side", ["state_noise", "input_noise"])
@pytest.mark.parametrize("var", [np.inf, np.nan])
def test_validate_rejects_a_non_finite_variance(side, var):
    # An infinite variance is invalid input, not an inadmissible model.
    with pytest.raises(ValidationError,
                       match=rf"^{side}\[0\] variance must be finite and >= 0, got {var}$"):
        scalar_model(**{side: [([[1.0]], var)]})


def test_validate_rejects_wrong_channel_shape():
    with pytest.raises(ValidationError,
                       match=r"^input_noise\[0\] must have shape \(1, 1\), got \(2, 2\)$"):
        scalar_model(input_noise=[(np.zeros((2, 2)), 0.1)])


@pytest.mark.parametrize("side, entry, message", [
    ("state_noise", ([[1.0]], None), "variance must be a real number$"),
    ("state_noise", ([[1.0]], 0.1 + 0j), "variance must be a real number$"),
    ("input_noise", ([[1.0]], "0.1"), "variance must be a real number$"),
    ("input_noise", ([[1.0]], True), "variance must be a real number$"),
    ("state_noise", [[1.0]], r"must be a \(matrix, variance\) pair"),
    ("input_noise", np.eye(1), r"must be a \(matrix, variance\) pair"),
    ("state_noise", 0.1, r"must be a \(matrix, variance\) pair"),
    ("state_noise", ([[1.0]], 10**400), "variance must be a real number$"),
    ("input_noise", ([[1.0]], np.ones(1)), r"variance must be a real number, got shape \(1,\)$"),
])
def test_malformed_channels_are_rejected_at_construction(side, entry, message):
    with pytest.raises(ValidationError, match=rf"^{side}\[0\] {message}"):
        scalar_model(**{side: [entry]})


def test_numpy_variances_are_accepted_as_floats():
    # A variance is read by as_matrix: anything a matrix entry can be, a 0-d
    # array and a Fraction too.
    model = scalar_model(state_noise=[([[1.0]], np.float64(0.1)), ([[1.0]], np.array(0.2))],
                         input_noise=[([[1.0]], np.int64(0)), ([[1.0]], Fraction(1, 4))])
    assert [var for _, var in model.state_noise + model.input_noise] == [0.1, 0.2, 0.0, 0.25]
    assert all(type(var) is float for _, var in model.state_noise + model.input_noise)


def test_channel_stack_holds_every_factor_in_draw_order(sec6):
    model, _ = sec6
    n, m = model.state_dim, model.input_dim
    stack = model.channels
    assert stack.shape == (5, n, n + m) and stack.flags.c_contiguous
    np.testing.assert_array_equal(stack[0], np.hstack([model.A, model.B]))
    zeros = np.zeros((n, n + m))
    for c, (mat, var) in enumerate(model.state_noise, start=1):
        np.testing.assert_array_equal(stack[c], np.hstack([math.sqrt(var) * mat, zeros[:, n:]]))
    for c, (mat, var) in enumerate(model.input_noise, start=3):
        np.testing.assert_array_equal(stack[c], np.hstack([zeros[:, :n], math.sqrt(var) * mat]))


def test_models_hold_their_own_read_only_matrices():
    # Writing to the arrays a model was built from changes neither the
    # model nor what the solvers derive from it, and the model's own
    # arrays refuse writes.
    a, mat = np.array([[0.5]]), np.array([[0.3]])
    model = SystemModel(A=a, B=[[1.0]], D=[[1.0]], X0=[[1.0]], state_noise=[(mat, 0.5)])
    q = np.array([[2.0]])
    cost = CostModel(Q=q, R=[[1.0]])
    a[0, 0], mat[0, 0], q[0, 0] = 2.0, 9.0, 7.0
    assert model.A[0, 0] == 0.5 and model.state_noise[0][0][0, 0] == 0.3
    assert cost.Q[0, 0] == 2.0
    stack = moment_operator(model, np.zeros((1, 1)))
    assert stack[0, 0, 0] == 0.5 and stack[1, 0, 0] == math.sqrt(0.5) * 0.3
    held = (model.A, model.B, model.D, model.X0, model.state_noise[0][0], model.channels,
            cost.Q, cost.R)
    for arr in held:
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def test_noise_factor_reproduces_covariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.normal(size=(3, 3))
        cov = g @ g.T
        fac = noise_factor(cov)
        np.testing.assert_allclose(fac @ fac.T, cov, atol=1e-10)
    # Singular PSD input falls back to the eigendecomposition root.
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    fac = noise_factor(cov)
    np.testing.assert_allclose(fac @ fac.T, cov, atol=1e-12)
    with pytest.raises(ValidationError):
        noise_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))


@pytest.mark.parametrize("name", ["D", "X0"])
def test_a_rollout_names_the_covariance_with_a_negative_eigenvalue(name):
    # A model that was never validated: its D or X0 reaches noise_factor.
    args = dict(A=[[0.5]], B=[[1.0]], D=[[1.0]], X0=[[1.0]])
    args[name] = [[-1.0]]
    model = SystemModel(**args)
    message = (rf"^{name} must be positive semidefinite: smallest eigenvalue -1\.000e\+00 "
               rf"is below -1e-12 times the largest magnitude, 1\.000e\+00$")
    with pytest.raises(ValidationError, match=message):
        simulate_closed_loop(model, CostModel(Q=[[1.0]], R=[[1.0]]), [[0.0]], 1, 0.0, 0)


def test_a_rollout_and_validate_agree_on_a_slightly_indefinite_x0():
    # One rule decides in both places: an eigenvalue of -5e-11 next to 1 is
    # below -1e-12 of the largest.
    model = SystemModel(A=np.eye(2) * 0.5, B=np.ones((2, 1)), D=np.eye(2),
                        X0=np.diag([1.0, -5e-11]))
    message = (r"^X0 must be positive semidefinite: smallest eigenvalue -5\.000e-11 "
               r"is below -1e-12 times the largest magnitude, 1\.000e\+00$")
    with pytest.raises(ValidationError, match=message):
        model.validate()
    with pytest.raises(ValidationError, match=message):
        simulate_closed_loop(model, CostModel(Q=np.eye(2), R=[[1.0]]), np.zeros((1, 2)), 1, 0.0, 0)


def test_noise_factor_reads_its_covariance_as_a_symmetric_matrix():
    # Cholesky reads one triangle only; the asymmetric matrix is not a
    # covariance, whatever its lower triangle says.
    message = r"^cov is asymmetric: max \|M - M\^T\| = 5\.000e\+00"
    with pytest.raises(ValidationError, match=message):
        noise_factor([[1.0, 5.0], [0.0, 1.0]])


@pytest.mark.parametrize("cov, message", [
    ("ab", "^cov must be a matrix of real numbers$"),
    ([1.0], r"^cov must be a 2-d matrix, got shape \(1,\)$"),
    ([[1.0], [1.0, 2.0]], "^cov must be a matrix of real numbers$"),
    ([[1.0, 0.0]], r"^cov must be square, got shape \(1, 2\)$"),
    ([[np.nan]], "^cov has non-finite entries$")])
def test_noise_factor_names_a_malformed_covariance(cov, message):
    with pytest.raises(ValidationError, match=message):
        noise_factor(cov)


@pytest.mark.parametrize("side", ["state_noise", "input_noise"])
@pytest.mark.parametrize("channels", [5, None, 0.1])
def test_a_channel_list_that_is_no_list_is_rejected_by_name(side, channels):
    with pytest.raises(ValidationError,
                       match=rf"^{side} must be a list of \(matrix, variance\) pairs$"):
        SystemModel(A=[[0.5]], B=[[1.0]], D=[[1.0]], X0=[[1.0]], **{side: channels})


def test_simulate_length_contract(sec6):
    model, cost = sec6
    traj = simulate_closed_loop(model, cost, np.zeros((3, 3)), 1, 0.0, 0)
    assert traj.states.shape == (2, 3)
    assert traj.inputs.shape == (2, 3)
    assert traj.costs.shape == (1,)
    assert traj.n_steps == 1


@pytest.mark.parametrize("n_steps", [10**300, 2**62], ids=["10**300", "2**62"])
def test_simulate_rejects_a_rollout_too_long_to_allocate(n_steps):
    # numpy's size check rejects both lengths before anything is allocated.
    model = det_model([[0.5]], [[1.0]])
    cost = CostModel(Q=[[1.0]], R=[[1.0]])
    with pytest.raises(ValidationError, match="n_steps is too large"):
        simulate_closed_loop(model, cost, np.zeros((1, 1)), n_steps, 0.0, 0)


def test_simulate_unprobed_zero_gain_has_zero_inputs():
    model = det_model([[0.5]], [[1.0]])
    cost = CostModel(Q=[[1.0]], R=[[1.0]])
    traj = simulate_closed_loop(model, cost, np.zeros((1, 1)), 10, 0.0, 4)
    assert np.array_equal(traj.inputs, np.zeros((11, 1)))


def test_simulate_is_bitwise_reproducible(sec6):
    model, cost = sec6
    gain = -0.1 * np.eye(3)
    a = simulate_closed_loop(model, cost, gain, 50, 0.64, 123)
    b = simulate_closed_loop(model, cost, gain, 50, 0.64, 123)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.costs, b.costs)
    c = simulate_closed_loop(model, cost, gain, 50, 0.64, 124)
    assert not np.array_equal(a.states, c.states)


def test_simulate_terminal_input_is_unprobed_feedback(sec6):
    model, cost = sec6
    gain = -0.2 * np.eye(3)
    traj = simulate_closed_loop(model, cost, gain, 25, 0.64, 5)
    np.testing.assert_array_equal(traj.inputs[-1], gain @ traj.states[-1])


def test_simulate_costs_charge_the_applied_input(sec6):
    model, cost = sec6
    traj = simulate_closed_loop(model, cost, np.zeros((3, 3)), 40, 0.64, 6)
    for k in range(traj.n_steps):
        x, u = traj.states[k], traj.inputs[k]
        assert traj.costs[k] == x @ cost.Q @ x + u @ cost.R @ u
    assert np.abs(traj.inputs[:-1]).max() > 0  # probes actually applied
    # From n = 4 on the batched forms run as matrix-matrix products and the
    # one-row ones as matrix-vector products: they agree to roundoff only.
    rng = np.random.default_rng(6)
    q, r = rng.standard_normal((5, 5)), rng.standard_normal((2, 2))
    wide = SystemModel(A=0.3 * np.eye(5), B=rng.standard_normal((5, 2)), D=np.eye(5),
                       X0=np.eye(5))
    wide_cost = CostModel(Q=q @ q.T, R=r @ r.T + np.eye(2))
    traj = simulate_closed_loop(wide, wide_cost, np.zeros((2, 5)), 40, 0.64, 6)
    for k in range(traj.n_steps):
        x, u = traj.states[k], traj.inputs[k]
        want = x @ wide_cost.Q @ x + u @ wide_cost.R @ u
        assert traj.costs[k] == pytest.approx(want, rel=1e-13, abs=0)


def replay_closed_loop(model, cost, gain, n_steps, probe_var, seed):
    # One step at a time, in the documented draw order: n normals for x0, then
    # per step m probes, p + q channel scalars and n additive normals.
    rng = np.random.default_rng(seed)
    n, m = model.state_dim, model.input_dim
    d_factor = noise_factor(model.D)
    x = noise_factor(model.X0) @ rng.standard_normal(n)
    states, inputs, costs = [x], [], []
    for _ in range(n_steps):
        u = gain @ x + np.sqrt(probe_var) * rng.standard_normal(m)
        inputs.append(u)
        costs.append(x @ cost.Q @ x + u @ cost.R @ u)
        a_eff = model.A + sum(np.sqrt(var) * rng.standard_normal() * mat
                              for mat, var in model.state_noise)
        b_eff = model.B + sum(np.sqrt(var) * rng.standard_normal() * mat
                              for mat, var in model.input_noise)
        x = a_eff @ x + b_eff @ u + d_factor @ rng.standard_normal(n)
        states.append(x)
    inputs.append(gain @ x)
    return np.array(states), np.array(inputs), np.array(costs)


def test_simulate_matches_per_step_replay(sec6, sec6_reference):
    model, cost = sec6
    _, l_star, _ = sec6_reference
    lane = math.isqrt(ROLLOUT_BLOCK)
    long_run = 2 * ROLLOUT_BLOCK + 37
    # Larger n with both channel kinds, and a plant without input channels.
    rng = np.random.default_rng(0)
    wide, wide_cost = random_admissible_system(rng, max_state_dim=6)
    assert wide.state_dim >= 4 and wide.state_noise and wide.input_noise
    smoke = load_config(fixture_path("scalar_smoke"))
    assert not smoke.model.input_noise
    cases = [(model, cost, gain, n_steps)
             for gain in (np.zeros((3, 3)), l_star)
             for n_steps in (1, 2, lane - 1, lane + 1, long_run)]
    cases += [(wide, wide_cost, random_admissible_gain(wide, rng), n_steps)
              for n_steps in (lane + 1, long_run)]
    cases += [(smoke.model, smoke.cost, np.array([[-0.2]]), long_run)]
    for plant, plant_cost, gain, n_steps in cases:
        traj = simulate_closed_loop(plant, plant_cost, gain, n_steps, 0.64, 8)
        for got, want in zip((traj.states, traj.inputs, traj.costs),
                             replay_closed_loop(plant, plant_cost, gain, n_steps, 0.64, 8)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # A gain that is not mean-square stable overflows both ways.
    with np.errstate(all="ignore"):
        traj = simulate_closed_loop(model, cost, 0.3 * np.eye(3), long_run, 0.64, 8)
        replayed, _, _ = replay_closed_loop(model, cost, 0.3 * np.eye(3), long_run, 0.64, 8)
    assert not np.isfinite(traj.states[-1]).any()
    assert not np.isfinite(replayed[-1]).any()


def assert_same_rollout(got, want):
    for got_array, want_array in zip((got.states, got.inputs, got.costs),
                                     (want.states, want.inputs, want.costs)):
        assert got_array.shape == want_array.shape
        assert got_array.tobytes() == want_array.tobytes()


def test_rollouts_through_one_buffer_set_equal_fresh_ones(sec6, sec6_reference):
    # 4097 steps end in a one-step window, 42000 steps reuse the window
    # arrays of 4096 and 4097, and 50 steps replace every array. Two rollouts
    # of one length write the same memory.
    model, cost = sec6
    _, l_star, _ = sec6_reference
    buffers = RolloutBuffers()
    for n_steps in (ROLLOUT_BLOCK, ROLLOUT_BLOCK + 1, 42000, 50):
        first = None
        for gain, seed in ((np.zeros((3, 3)), 1), (l_star, 2)):
            got = simulate_closed_loop(model, cost, gain, n_steps, 0.64, seed, buffers=buffers)
            assert_same_rollout(got, simulate_closed_loop(model, cost, gain, n_steps, 0.64,
                                                          seed))
            if first is not None:
                for name in ("states", "inputs", "costs"):
                    assert np.shares_memory(getattr(got, name), getattr(first, name))
            first = got


def test_a_diverged_rollout_leaves_the_buffers_fit_for_the_next(sec6):
    # 0.3 I is not mean-square stable: its states overflow to inf and nan.
    model, cost = sec6
    long_run = 2 * ROLLOUT_BLOCK + 37
    buffers = RolloutBuffers()
    diverged = simulate_closed_loop(model, cost, 0.3 * np.eye(3), long_run, 0.64, 8,
                                    buffers=buffers)
    assert not np.isfinite(diverged.states[-1]).any()
    got = simulate_closed_loop(model, cost, -0.1 * np.eye(3), long_run, 0.64, 9,
                               buffers=buffers)
    assert_same_rollout(got, simulate_closed_loop(model, cost, -0.1 * np.eye(3), long_run,
                                                  0.64, 9))
    assert np.isfinite(got.states).all()


def traced_peak(call):
    """call() and the peak of the memory it allocated, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffers"])
@pytest.mark.parametrize("plant", ["example_sec6", "random_both_channels"])
def test_rollout_working_memory_does_not_grow_with_the_rollout(sec6, plant, buffered):
    # Beyond the returned trajectory the rollout holds one window's draws,
    # step maps and lane maps at a time, O(ROLLOUT_BLOCK * n^2): its traced
    # peak less the returned arrays is the same for a 4x longer rollout.
    # Through buffers that a rollout of the same length has filled it
    # allocates none of those arrays: what remains, a window's temporaries,
    # is a small part of that and does not grow either.
    if plant == "example_sec6":
        model, cost = sec6
    else:
        model, cost = random_admissible_system(np.random.default_rng(0), max_state_dim=6)
        assert model.state_noise and model.input_noise
    gain = np.zeros((model.input_dim, model.state_dim))
    simulate_closed_loop(model, cost, gain, 100, 0.64, 3)    # one-time set-up, untraced
    buffers = RolloutBuffers()
    extra = []
    for n_steps in (42000, 168000):
        traj, peak = traced_peak(lambda: simulate_closed_loop(model, cost, gain, n_steps,
                                                              0.64, 3))
        fresh = peak - traj.states.nbytes - traj.inputs.nbytes - traj.costs.nbytes
        if buffered:
            simulate_closed_loop(model, cost, gain, n_steps, 0.64, 4, buffers=buffers)
            _, peak = traced_peak(lambda: simulate_closed_loop(model, cost, gain, n_steps,
                                                               0.64, 3, buffers=buffers))
            assert peak <= 0.25 * fresh
        extra.append(peak if buffered else fresh)
    assert abs(extra[1] - extra[0]) <= 0.1 * extra[0]


def test_probe_setting_does_not_shift_the_noise_stream():
    # With A = 0 the additive noise is readable off the states exactly, so the
    # probed and unprobed runs must reveal the identical d_k sequence.
    model = SystemModel(A=np.zeros((2, 2)), B=np.eye(2), D=np.eye(2), X0=np.eye(2))
    cost = CostModel(Q=np.eye(2), R=np.eye(2))
    quiet = simulate_closed_loop(model, cost, np.zeros((2, 2)), 30, 0.0, 21)
    probed = simulate_closed_loop(model, cost, np.zeros((2, 2)), 30, 0.64, 21)
    np.testing.assert_array_equal(quiet.states[0], probed.states[0])
    d_quiet = quiet.states[1:]
    d_probed = probed.states[1:] - probed.inputs[:-1] @ model.B.T
    np.testing.assert_allclose(d_probed, d_quiet, atol=1e-12)


def test_simulate_argument_validation(sec6):
    model, cost = sec6
    with pytest.raises(ValidationError, match="gain must have shape"):
        simulate_closed_loop(model, cost, np.zeros((1, 3)), 10, 0.0, 0)
    with pytest.raises(ValidationError, match="n_steps"):
        simulate_closed_loop(model, cost, np.zeros((3, 3)), 0, 0.0, 0)
    with pytest.raises(ValidationError, match="probe_var"):
        simulate_closed_loop(model, cost, np.zeros((3, 3)), 10, -0.1, 0)
    with pytest.raises(ValidationError, match="probe_var"):
        simulate_closed_loop(model, cost, np.zeros((3, 3)), 10, np.inf, 0)
    with pytest.raises(ValidationError, match="gain has non-finite entries"):
        simulate_closed_loop(model, cost, np.full((3, 3), np.nan), 10, 0.0, 0)
    with pytest.raises(ValidationError, match="seed"):
        simulate_closed_loop(model, cost, np.zeros((3, 3)), 10, 0.0, -1)
    with pytest.raises(ValidationError, match="^buffers must be a RolloutBuffers, got str$"):
        simulate_closed_loop(model, cost, np.zeros((3, 3)), 10, 0.0, 0, buffers="x")


@pytest.mark.parametrize("probe_var, message", [
    ("0.1", ""), (None, ""), (True, ""), (0.1 + 0j, ""), (10**400, ""),
    (np.ones(1), r", got shape \(1,\)")],
    ids=["str", "None", "bool", "complex", "int beyond the float range", "vector"])
def test_a_non_numeric_probe_var_is_rejected(sec6, probe_var, message):
    model, cost = sec6
    with pytest.raises(ValidationError, match=f"^probe_var must be a real number{message}$"):
        simulate_closed_loop(model, cost, np.zeros((3, 3)), 10, probe_var, 0)


def test_sample_covariance_matches_stationary_covariance(sec6):
    # Long zero-gain run against the analytic fixed point, at a pinned seed.
    model, cost = sec6
    target = stationary_covariance(model, np.zeros((3, 3)))
    traj = simulate_closed_loop(model, cost, np.zeros((3, 3)), 100000, 0.0, 77)
    xs = traj.states[20000:]
    sample = xs.T @ xs / xs.shape[0]
    rel = np.linalg.norm(sample - target) / np.linalg.norm(target)
    assert rel <= 0.03


def test_unprobed_average_cost_matches_value_kernel(sec6):
    model, cost = sec6
    p0 = solve_value_kernel(model, cost, np.zeros((3, 3)))
    lam = float(np.trace(p0 @ model.D))
    traj = simulate_closed_loop(model, cost, np.zeros((3, 3)), 42000, 0.0, 7)
    assert abs(traj.costs.mean() - lam) / lam <= 0.05


def test_probed_average_cost_matches_corrected_oracle(sec6):
    # With probing the input feeds extra energy into the loop; the stationary
    # covariance picks up sigma_u^2 (B B^T + sum var_j B_j B_j^T) per step and
    # the cost picks up sigma_u^2 tr(R) on top of tr(Q X).
    model, cost = sec6
    probe_var = 0.64
    matrix = sum(np.kron(f, f) for f in moment_operator(model, np.zeros((3, 3))))
    pumped = model.D + probe_var * (
        model.B @ model.B.T
        + sum(var * (mat @ mat.T) for mat, var in model.input_noise))
    x_vec = np.linalg.solve(np.eye(9) - matrix, pumped.ravel())
    lam = float(np.trace(cost.Q @ x_vec.reshape(3, 3))) + probe_var * float(np.trace(cost.R))
    traj = simulate_closed_loop(model, cost, np.zeros((3, 3)), 42000, probe_var, 2024)
    assert abs(traj.costs.mean() - lam) / lam <= 0.05
