import math
import tracemalloc
import warnings

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
    SystemModel,
    noise_factor,
    simulate_closed_loop,
)
from slqr.testing import random_admissible_gain, random_admissible_system


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


def test_validate_rejects_zero_r():
    with pytest.raises(ValidationError, match="R must be positive definite"):
        CostModel(Q=[[1.0]], R=[[0.0]]).validate()


def test_validate_rejects_indefinite_q():
    with pytest.raises(ValidationError, match="Q must be positive semidefinite"):
        CostModel(Q=[[-1.0]], R=[[1.0]]).validate()


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
    ("state_noise", ([[1.0]], None), "variance must be a real number, got NoneType"),
    ("state_noise", ([[1.0]], 0.1 + 0j), "variance must be a real number, got complex"),
    ("input_noise", ([[1.0]], "0.1"), "variance must be a real number, got str"),
    ("input_noise", ([[1.0]], True), "variance must be a real number, got bool"),
    ("state_noise", [[1.0]], r"must be a \(matrix, variance\) pair"),
    ("input_noise", np.eye(1), r"must be a \(matrix, variance\) pair"),
    ("state_noise", 0.1, r"must be a \(matrix, variance\) pair"),
    ("state_noise", ([[1.0]], 10**400),
     "variance must be a real number, got int beyond the float range"),
])
def test_malformed_channels_are_rejected_at_construction(side, entry, message):
    with pytest.raises(ValidationError, match=rf"^{side}\[0\] {message}"):
        scalar_model(**{side: [entry]})


def test_numpy_variances_are_accepted_as_floats():
    model = scalar_model(state_noise=[([[1.0]], np.float64(0.1))],
                         input_noise=[([[1.0]], np.int64(0))])
    assert [type(var) for _, var in model.state_noise + model.input_noise] == [float, float]


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


@pytest.mark.parametrize("plant", ["example_sec6", "random_both_channels"])
def test_rollout_working_memory_does_not_grow_with_the_rollout(sec6, plant):
    # Beyond the returned trajectory the rollout holds one window's draws,
    # step maps and lane maps at a time, O(ROLLOUT_BLOCK * n^2): its traced
    # peak less the returned arrays is the same for a 4x longer rollout.
    if plant == "example_sec6":
        model, cost = sec6
    else:
        model, cost = random_admissible_system(np.random.default_rng(0), max_state_dim=6)
        assert model.state_noise and model.input_noise
    gain = np.zeros((model.input_dim, model.state_dim))
    simulate_closed_loop(model, cost, gain, 100, 0.64, 3)    # one-time set-up, untraced
    extra = []
    for n_steps in (42000, 168000):
        tracemalloc.start()
        try:
            traj = simulate_closed_loop(model, cost, gain, n_steps, 0.64, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - traj.states.nbytes - traj.inputs.nbytes - traj.costs.nbytes)
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


@pytest.mark.parametrize("probe_var, kind", [("0.1", "str"), (None, "NoneType")])
def test_a_non_numeric_probe_var_is_rejected(sec6, probe_var, kind):
    model, cost = sec6
    with pytest.raises(ValidationError, match=f"^probe_var must be a real number, got {kind}$"):
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
