from fractions import Fraction

import numpy as np
import pytest

import slqr.policy_iteration as pi_module
from slqr.analysis import (
    average_cost,
    is_admissible,
    policy_improvement,
    q_kernel_matrix,
    riccati_residual,
    solve_value_kernel,
)
from slqr.errors import NotAdmissibleError, SingularSystemError, ValidationError
from slqr.policy_iteration import evaluate_improve, policy_iteration
from slqr.qlearning import LearnerConfig
from slqr.system import CostModel, SystemModel, simulate_closed_loop

from random_instances import random_admissible_gain, random_admissible_system

SCALAR = SystemModel(A=[[0.5]], B=[[1.0]], D=[[1.0]], X0=[[1.0]])
SCALAR_COST = CostModel(Q=[[1.0]], R=[[1.0]])
SCALAR_ROOT = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0  # of P^2 - 0.25P - 1 = 0


def test_scalar_iteration_reaches_closed_form():
    trace = policy_iteration(SCALAR, SCALAR_COST, np.zeros((1, 1)), tol=1e-12)
    assert trace.converged
    assert abs(trace.kernels[-1][0, 0] - SCALAR_ROOT) <= 1e-10
    expected_gain = -SCALAR_ROOT / (2.0 * (1.0 + SCALAR_ROOT))
    assert abs(trace.gains[-1][0, 0] - expected_gain) <= 1e-10


def test_iteration_from_the_fixed_point_stops_immediately():
    trace = policy_iteration(SCALAR, SCALAR_COST, np.zeros((1, 1)), tol=1e-12)
    l_star = trace.gains[-1]
    again = policy_iteration(SCALAR, SCALAR_COST, l_star, tol=1e-9)
    assert again.converged and again.iterations == 1
    assert np.linalg.norm(again.gains[-1] - l_star) <= 1e-9


def test_trace_shape_and_cost_bookkeeping(sec6):
    model, cost = sec6
    trace = policy_iteration(model, cost, np.zeros((3, 3)), tol=1e-9, max_iter=200)
    assert trace.converged
    assert len(trace.gains) == len(trace.kernels) + 1 == len(trace.costs) + 1
    assert trace.iterations == len(trace.kernels)
    for p, lam in zip(trace.kernels, trace.costs):
        assert lam == average_cost(p, model.D)
    for gain in trace.gains:
        ok, _ = is_admissible(model, gain)
        assert ok


def test_example_system_monotone_and_optimal(sec6, sec6_reference):
    model, cost = sec6
    p_star, l_star, lam_star = sec6_reference
    trace = policy_iteration(model, cost, np.zeros((3, 3)), tol=1e-9, max_iter=200)
    for p_a, p_b in zip(trace.kernels, trace.kernels[1:]):
        assert np.linalg.eigvalsh(p_a - p_b).min() >= -1e-9
    assert np.linalg.norm(trace.gains[-1] - l_star) <= 1e-8
    assert abs(trace.costs[-1] - lam_star) <= 1e-8
    res = riccati_residual(model, cost, trace.kernels[-1])
    assert np.linalg.norm(res) / np.linalg.norm(trace.kernels[-1]) <= 1e-8


def test_max_iter_exhaustion_reports_not_converged(sec6):
    model, cost = sec6
    trace = policy_iteration(model, cost, np.zeros((3, 3)), tol=1e-9, max_iter=1)
    assert not trace.converged and trace.iterations == 1
    assert len(trace.gains) == 2 and len(trace.kernels) == 1


def test_inadmissible_start_is_rejected(sec6):
    model, cost = sec6
    with pytest.raises(NotAdmissibleError) as err:
        policy_iteration(model, cost, 5.0 * np.eye(3))
    assert err.value.spectral_radius > 1.0


def test_argument_validation(sec6):
    model, cost = sec6
    with pytest.raises(ValidationError, match="tol"):
        policy_iteration(model, cost, np.zeros((3, 3)), tol=0.0)
    with pytest.raises(ValidationError, match="max_iter"):
        policy_iteration(model, cost, np.zeros((3, 3)), max_iter=0)
    with pytest.raises(ValidationError, match="tol"):
        policy_iteration(model, cost, np.zeros((3, 3)), tol=float("nan"))


LEARNER_ARGS = dict(initial_gain=np.zeros((1, 1)), rollout_len=100, probe_var=0.5,
                    rls_init_scale=1e8, max_iterations=5, gain_tol=0.05, seed=0)


def scalar_policy_iteration(**kwargs):
    return policy_iteration(SCALAR, SCALAR_COST, np.zeros((1, 1)), **kwargs)


def learner_config(**kwargs):
    return LearnerConfig(**{**LEARNER_ARGS, **kwargs})


def scalar_rollout(n_steps=3, probe_var=0.5):
    return simulate_closed_loop(SCALAR, SCALAR_COST, np.zeros((1, 1)), n_steps, probe_var, 0)


@pytest.mark.parametrize("build, field, value, valid", [
    (scalar_policy_iteration, "max_iter", 2.5, False),
    (scalar_policy_iteration, "max_iter", None, False),
    (scalar_policy_iteration, "max_iter", True, False),
    (scalar_policy_iteration, "max_iter", np.int64(50), True),
    (scalar_policy_iteration, "tol", "1e-9", False),
    (scalar_policy_iteration, "tol", None, False),
    (scalar_policy_iteration, "tol", True, False),
    (scalar_policy_iteration, "tol", np.float32(1e-6), True),
    (scalar_policy_iteration, "tol", np.inf, False),
    (learner_config, "rollout_len", 2999.5, False),
    (learner_config, "rollout_len", np.int32(3000), True),
    (learner_config, "max_iterations", 2.5, False),
    (learner_config, "max_iterations", False, False),
    (learner_config, "seed", 1.5, False),
    (learner_config, "seed", -1, False),
    (learner_config, "seed", np.uint64(7), True),
    (learner_config, "probe_var", "0.5", False),
    (learner_config, "probe_var", np.inf, False),
    (learner_config, "gain_tol", np.inf, False),
    (learner_config, "rls_init_scale", np.inf, True),
    (scalar_rollout, "n_steps", 2.5, False),
    (scalar_rollout, "n_steps", np.float64(3), False),
    (scalar_rollout, "n_steps", np.int64(3), True),
    # An int beyond the float range is no real number.
    pytest.param(scalar_policy_iteration, "tol", 10**400, False, id="tol-huge"),
    pytest.param(learner_config, "probe_var", 10**400, False, id="probe_var-huge"),
    pytest.param(learner_config, "rls_init_scale", 10**400, False, id="rls_init_scale-huge"),
    pytest.param(scalar_rollout, "probe_var", 10**400, False, id="rollout-probe_var-huge"),
    # A number is read by as_matrix: a 0-d array or a Fraction is one, while
    # a string, a bool, None, a complex number or a 1-entry vector is not.
    (scalar_policy_iteration, "tol", np.array(1e-9), True),
    (scalar_policy_iteration, "tol", Fraction(1, 10**9), True),
    (scalar_policy_iteration, "tol", 1e-9 + 0j, False),
    (scalar_policy_iteration, "tol", np.ones(1), False),
    (learner_config, "probe_var", np.array(0.5), True),
    (learner_config, "probe_var", Fraction(1, 2), True),
    (learner_config, "probe_var", None, False),
    (learner_config, "probe_var", True, False),
    (learner_config, "rls_init_scale", Fraction(10**8), True),
    (learner_config, "rls_init_scale", np.ones(1), False),
    (learner_config, "gain_tol", np.array(0.05), True),
    (learner_config, "gain_tol", "0.05", False),
    (learner_config, "gain_tol", 0.05 + 0j, False),
    (scalar_rollout, "probe_var", np.array(0.5), True),
    (scalar_rollout, "probe_var", Fraction(1, 2), True),
    (scalar_rollout, "probe_var", np.ones(1), False),
], ids=lambda v: repr(v) if not callable(v) else v.__name__)
def test_integer_and_number_arguments_are_checked_up_front(monkeypatch, build, field,
                                                           value, valid):
    # Python and numpy integers pass, bools and floats do not; tolerances
    # must be finite, while rls_init_scale may be inf (no regularisation). A
    # bad value is a ValidationError, raised before policy_iteration's exact
    # check.
    checks = []
    check = pi_module.is_admissible
    monkeypatch.setattr(pi_module, "is_admissible",
                        lambda *args: checks.append(args) or check(*args))
    if valid:
        build(**{field: value})
        assert len(checks) == (build is scalar_policy_iteration)
    else:
        with pytest.raises(ValidationError, match=field):
            build(**{field: value})
        assert not checks


def scripted_step(next_gains, fail_at=None):
    # step(tau, gain) that hands out next_gains[tau] with kernel "k{tau}" and
    # cost tau, and raises a NotAdmissibleError at iteration fail_at.
    def step(tau, gain):
        if tau == fail_at:
            raise NotAdmissibleError("scripted failure", spectral_radius=1.2)
        return f"k{tau}", float(tau), np.array([[next_gains[tau]]])
    return step


def test_driver_stops_at_the_first_gain_step_below_tol():
    step = scripted_step([1.0, 0.5, 0.5 + 1e-3, 0.5 + 1.1e-3])
    trace = evaluate_improve(np.array([[2.0]]), step, tol=1e-2, max_iter=10)
    assert trace.converged and trace.iterations == 3
    assert [g[0, 0] for g in trace.gains] == [2.0, 1.0, 0.5, 0.5 + 1e-3]
    assert trace.kernels == ["k0", "k1", "k2"]
    assert trace.costs == [0.0, 1.0, 2.0]


def test_driver_reports_max_iter_exhaustion():
    trace = evaluate_improve(np.array([[0.0]]), scripted_step([1.0, 2.0, 3.0, 4.0]),
                             tol=1e-2, max_iter=3)
    assert not trace.converged and trace.iterations == 3
    assert len(trace.gains) == 4 and len(trace.kernels) == len(trace.costs) == 3


def assert_same_trace(cut, direct):
    assert cut.converged == direct.converged
    assert cut.iterations == direct.iterations == len(direct.kernels)
    for name in ("gains", "kernels", "costs"):
        got, want = getattr(cut, name), getattr(direct, name)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), name


def test_a_long_run_cut_down_is_the_shorter_run():
    # Every step depends only on the gain before it, so cutting a (1e-10, 500)
    # run to (tol, max_iter) must give the direct run at (tol, max_iter)
    # exactly, including at and just below the step where it converges.
    rng = np.random.default_rng(41)
    for _ in range(6):
        model, cost = random_admissible_system(rng)
        zero = np.zeros((model.input_dim, model.state_dim))
        full = policy_iteration(model, cost, zero, tol=1e-10, max_iter=500)
        assert full.converged
        for tol in (1e-2, 1e-6, 1e-9, 1e-10):
            settles = policy_iteration(model, cost, zero, tol=tol, max_iter=500).iterations
            for max_iter in {1, max(settles - 1, 1), settles, 100, 500}:
                direct = policy_iteration(model, cost, zero, tol=tol, max_iter=max_iter)
                assert_same_trace(full.prefix(tol, max_iter), direct)


def test_a_cut_uses_the_loops_stop_test_and_refuses_to_extend():
    step = scripted_step([1.0, 0.5, 0.5 + 1e-3, 0.5 + 1.1e-3, 0.5 + 1.15e-3])
    full = evaluate_improve(np.array([[2.0]]), step, tol=1e-4, max_iter=10)
    assert full.converged and full.iterations == 4
    for tol, max_iter in ((1e-2, 10), (1e-2, 2), (1e-3, 3), (1e-4, 4), (1.0, 1)):
        direct = evaluate_improve(np.array([[2.0]]), step, tol=tol, max_iter=max_iter)
        assert_same_trace(full.prefix(tol, max_iter), direct)
    # A tighter tol would take steps this trace does not hold.
    with pytest.raises(ValueError, match="cannot be cut"):
        full.prefix(1e-5, 10)
    short = evaluate_improve(np.array([[2.0]]), step, tol=1e-2, max_iter=2)
    with pytest.raises(ValueError, match="cannot be cut"):
        short.prefix(1e-2, 3)


def test_iterations_is_derived_from_the_kernels():
    trace = evaluate_improve(np.array([[0.0]]), scripted_step([1.0, 2.0]),
                             tol=1e-2, max_iter=2)
    assert trace.iterations == 2
    with pytest.raises(AttributeError):
        trace.iterations = 3


def test_driver_names_the_iteration_and_keeps_the_error():
    step = scripted_step([1.0, 2.0, 3.0], fail_at=2)
    with pytest.raises(NotAdmissibleError, match="^iteration 2: scripted failure$") as err:
        evaluate_improve(np.array([[0.0]]), step, tol=1e-2, max_iter=10)
    assert err.value.spectral_radius == 1.2


def test_model_based_failure_names_its_iteration(sec6, monkeypatch):
    model, cost = sec6

    def failing_solve(*args):
        raise SingularSystemError("scripted failure")

    monkeypatch.setattr(pi_module, "solve_value_kernel", failing_solve)
    with pytest.raises(SingularSystemError, match="^iteration 0: scripted failure$"):
        policy_iteration(model, cost, np.zeros((3, 3)))


def test_monotone_convergence_on_random_systems():
    rng = np.random.default_rng(31)
    for _ in range(10):
        model, cost = random_admissible_system(rng)
        gain0 = random_admissible_gain(model, rng)
        trace = policy_iteration(model, cost, gain0, tol=1e-10, max_iter=500)
        assert trace.converged
        for p_a, p_b in zip(trace.kernels, trace.kernels[1:]):
            assert np.linalg.eigvalsh(p_a - p_b).min() >= -1e-9
        res = riccati_residual(model, cost, trace.kernels[-1])
        assert np.linalg.norm(res) / np.linalg.norm(trace.kernels[-1]) <= 1e-8


def test_q_kernel_from_zero_value_is_block_diagonal(sec6):
    model, cost = sec6
    kernel = q_kernel_matrix(model, cost, np.zeros((3, 3)))
    np.testing.assert_array_equal(kernel[:3, :3], cost.Q)
    np.testing.assert_array_equal(kernel[3:, 3:], cost.R)
    np.testing.assert_array_equal(kernel[:3, 3:], np.zeros((3, 3)))


@pytest.mark.parametrize("seed", [0, 2, 3, 7, 8])
def test_q_kernel_blocks_match_direct_formulas(seed):
    # The lift against the per-list formulas, on plants with both channel
    # kinds and at a nonzero gain's kernel.
    rng = np.random.default_rng(seed)
    model, cost = random_admissible_system(rng, max_state_dim=5)
    assert model.state_noise and model.input_noise
    gain = random_admissible_gain(model, rng)
    assert gain.any()
    p = solve_value_kernel(model, cost, gain)
    kernel = q_kernel_matrix(model, cost, p)
    n = model.state_dim
    xx = cost.Q + model.A.T @ p @ model.A
    for mat, var in model.state_noise:
        xx = xx + var * (mat.T @ p @ mat)
    uu = cost.R + model.B.T @ p @ model.B
    for mat, var in model.input_noise:
        uu = uu + var * (mat.T @ p @ mat)
    xu = model.A.T @ p @ model.B
    scale = 1e-12 * np.linalg.norm(p)
    np.testing.assert_allclose(kernel[:n, :n], xx, rtol=0, atol=scale)
    np.testing.assert_allclose(kernel[:n, n:], xu, rtol=0, atol=scale)
    np.testing.assert_allclose(kernel[n:, n:], uu, rtol=0, atol=scale)
    np.testing.assert_allclose(policy_improvement(model, cost, p),
                               -np.linalg.solve(uu, xu.T), rtol=0, atol=1e-10)
    np.testing.assert_allclose(riccati_residual(model, cost, p),
                               p - (xx - xu @ np.linalg.solve(uu, xu.T)),
                               rtol=0, atol=scale)


def test_q_kernel_contracts_back_to_value_kernel(sec6):
    # [I; L]^T H [I; L] recovers the value kernel the lift started from.
    model, cost = sec6
    rng = np.random.default_rng(23)
    for _ in range(10):
        gain = random_admissible_gain(model, rng, scale=0.4)
        p = solve_value_kernel(model, cost, gain)
        kernel = q_kernel_matrix(model, cost, p)
        basis = np.vstack([np.eye(3), gain])
        back = basis.T @ kernel @ basis
        assert np.linalg.norm(back - p) / np.linalg.norm(p) <= 1e-9


def test_q_kernel_greedy_gain_matches_policy_improvement(sec6, sec6_reference):
    model, cost = sec6
    p_star, _, _ = sec6_reference
    kernel = q_kernel_matrix(model, cost, p_star)
    direct = policy_improvement(model, cost, p_star)
    from_h = -np.linalg.solve(kernel[3:, 3:], kernel[3:, :3])
    np.testing.assert_allclose(from_h, direct, atol=1e-9)
