import importlib
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slqr.analysis import (
    ADMISSIBILITY_MARGIN,
    average_cost,
    closed_loop_factors,
    input_weight,
    is_admissible,
    moment_operator,
    policy_improvement,
    riccati_residual,
    solve_value_kernel,
    stationary_covariance,
)
from slqr.errors import NotAdmissibleError, UnreliableKernelError, ValidationError
from slqr.packing import vech
from slqr.policy_iteration import policy_iteration
from slqr.system import CostModel, SystemModel
from slqr.testing import random_admissible_gain, random_admissible_system


def scalar_model(a, d=1.0, state_noise=()):
    return SystemModel(A=[[a]], B=[[1.0]], D=[[d]], X0=[[1.0]],
                       state_noise=list(state_noise))


SCALAR_COST = CostModel(Q=[[1.0]], R=[[1.0]])
L0_1 = np.zeros((1, 1))
L0_3 = np.zeros((3, 3))


def test_moment_operator_scalar_with_state_noise():
    model = scalar_model(0.9, state_noise=[([[1.0]], 0.1)])
    op = moment_operator(model, L0_1)
    np.testing.assert_allclose(op.matrix, [[0.91]], atol=1e-15)
    np.testing.assert_array_equal(op.offset, [1.0])


def test_moment_operator_without_noise_is_kron_of_closed_loop():
    model = SystemModel(A=[[0.5, 0.1], [0.0, 0.4]], B=np.eye(2), D=np.eye(2),
                        X0=np.eye(2))
    op = moment_operator(model, np.zeros((2, 2)))
    np.testing.assert_array_equal(op.matrix, np.kron(model.A, model.A))


def test_moment_operator_application_matches_direct_products(sec6):
    # M acting on vec(I) must equal vec(sum_c F_c F_c^T) computed directly.
    model, _ = sec6
    op = moment_operator(model, L0_3)
    applied = (op.matrix @ np.eye(3).ravel()).reshape(3, 3)
    direct = sum(f @ f.T for f in closed_loop_factors(model, L0_3))
    np.testing.assert_allclose(applied, direct, atol=1e-12)


SHEAR = SystemModel(A=[[0.0, 2.0], [0.0, 0.0]], B=np.eye(2), D=np.eye(2), X0=np.eye(2))


def test_packed_operator_matches_its_definition():
    # packed(dual) @ vech(X) == vech(unvec(matrix @ vec(X))), with matrix^T
    # for the adjoint, on symmetric X; the shear tells T from T*.
    rng = np.random.default_rng(7)
    cases = [(SHEAR, np.zeros((2, 2))), (SHEAR, np.array([[0.3, -0.1], [0.2, 0.4]]))]
    for _ in range(20):
        model, _ = random_admissible_system(rng, 5, 4, 3)
        cases.append((model, random_admissible_gain(model, rng)))
    for model, gain in cases:
        op = moment_operator(model, gain)
        n = model.state_dim
        g = rng.normal(size=(n, n))
        x = g + g.T
        for dual in (False, True):
            full = op.matrix.T if dual else op.matrix
            expected = vech((full @ x.ravel()).reshape(n, n))
            got = op.packed(dual) @ vech(x)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_packed_operator_is_the_matrix_at_n1():
    rng = np.random.default_rng(3)
    for _ in range(50):
        model = SystemModel(
            A=[[rng.normal()]], B=[[rng.normal()]], D=[[1.0]], X0=[[1.0]],
            state_noise=[([[rng.normal()]], rng.uniform(0.01, 1.0)) for _ in range(2)],
            input_noise=[([[rng.normal()]], rng.uniform(0.01, 1.0)) for _ in range(2)])
        op = moment_operator(model, rng.normal(size=(1, 1)))
        for dual in (False, True):
            np.testing.assert_array_equal(op.packed(dual), op.matrix)


def _edge_scale(model, direction):
    """Gain scale t at which rho(M(t * direction)) crosses 1, bisected on the
    eigenvalues of the n^2 x n^2 matrix; None if it stays below 1."""
    def rho(t):
        return np.abs(np.linalg.eigvals(moment_operator(model, t * direction).matrix)).max()
    hi = 1.0
    while rho(hi) < 1.0:
        hi *= 2.0
        if hi > 1e6:
            return None
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if rho(mid) < 1.0 else (lo, mid)
    return lo


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       side=st.sampled_from([-1.0, 1.0]),
       log_gap=st.floats(-7.0, 0.0))
@example(seed=0, side=-1.0, log_gap=0.0)   # the zero gain
def test_packed_radius_is_the_matrix_radius(seed, side, log_gap):
    # Gains from zero to the stability edge and past it: the packed matrix
    # and the n^2 x n^2 matrix have the same spectral radius, so
    # is_admissible decides as the defining matrix would.
    rng = np.random.default_rng(seed)
    model, _ = random_admissible_system(rng)
    direction = rng.normal(size=(model.input_dim, model.state_dim))
    edge = _edge_scale(model, direction)
    if edge is None:
        return
    gain = edge * (1.0 + side * 10.0 ** log_gap) * direction
    op = moment_operator(model, gain)
    rho_full = np.abs(np.linalg.eigvals(op.matrix)).max()
    for dual in (False, True):
        rho_packed = np.abs(np.linalg.eigvals(op.packed(dual))).max()
        assert abs(rho_packed - rho_full) <= 1e-10 * rho_full
    admissible, rho = is_admissible(model, gain)
    assert abs(rho - rho_full) <= 1e-10 * rho_full
    assert admissible == (rho_full < 1.0 - ADMISSIBILITY_MARGIN)


def test_admissibility_scalar_fixtures_exact():
    ok, rho = is_admissible(scalar_model(0.9, state_noise=[([[1.0]], 0.1)]), L0_1)
    assert ok and abs(rho - 0.91) <= 1e-12
    ok, rho = is_admissible(scalar_model(0.9, state_noise=[([[1.0]], 0.2)]), L0_1)
    assert not ok and abs(rho - 1.01) <= 1e-12


def test_open_loop_example_system_is_admissible(sec6):
    model, _ = sec6
    ok, rho = is_admissible(model, L0_3)
    assert ok and 0.9 < rho < 1.0


def test_stationary_covariance_scalar_values():
    np.testing.assert_allclose(
        stationary_covariance(scalar_model(0.0, d=2.0), L0_1), [[2.0]], atol=1e-12)
    np.testing.assert_allclose(
        stationary_covariance(scalar_model(0.5), L0_1), [[4.0 / 3.0]], atol=1e-12)


def test_stationary_covariance_matches_fixed_point_iteration(sec6):
    model, _ = sec6
    solved = stationary_covariance(model, L0_3)
    factors = closed_loop_factors(model, L0_3)
    x = np.zeros((3, 3))
    for _ in range(5000):
        x_next = sum(f @ x @ f.T for f in factors) + model.D
        if np.abs(x_next - x).max() < 1e-14:
            x = x_next
            break
        x = x_next
    assert np.linalg.norm(solved - x) / np.linalg.norm(x) <= 1e-10


def test_stationary_covariance_rejects_inadmissible_gain():
    model = scalar_model(0.9, state_noise=[([[1.0]], 0.2)])
    with pytest.raises(NotAdmissibleError) as err:
        stationary_covariance(model, L0_1)
    assert abs(err.value.spectral_radius - 1.01) <= 1e-12


def test_value_kernel_scalar_closed_form():
    # P = Q / (1 - a^2) for the zero gain without multiplicative noise.
    p = solve_value_kernel(scalar_model(0.5), SCALAR_COST, L0_1)
    np.testing.assert_allclose(p, [[4.0 / 3.0]], atol=1e-12)


def test_value_kernel_satisfies_defining_equation(sec6):
    model, cost = sec6
    rng = np.random.default_rng(8)
    for _ in range(10):
        gain = random_admissible_gain(model, rng, scale=0.4)
        p = solve_value_kernel(model, cost, gain)
        rhs = cost.Q + gain.T @ cost.R @ gain
        recon = sum(f.T @ p @ f for f in closed_loop_factors(model, gain)) + rhs
        assert np.linalg.norm(recon - p) / np.linalg.norm(p) <= 1e-10


def test_value_kernel_rejects_inadmissible_gain(sec6):
    model, cost = sec6
    with pytest.raises(NotAdmissibleError):
        solve_value_kernel(model, cost, 5.0 * np.eye(3))


def test_average_cost_examples():
    assert average_cost(np.eye(3), np.eye(3)) == 3.0
    p = solve_value_kernel(scalar_model(0.5), SCALAR_COST, L0_1)
    assert abs(average_cost(p, np.array([[1.0]])) - 4.0 / 3.0) <= 1e-12
    with pytest.raises(ValidationError):
        average_cost(np.eye(3), np.eye(2))


def test_duality_of_cost_and_covariance_solvers(sec6):
    # tr(P D) and tr((Q + L^T R L) X) compute the same average cost from the
    # two sides of the moment operator.
    model, cost = sec6
    rng = np.random.default_rng(17)
    for _ in range(10):
        gain = random_admissible_gain(model, rng, scale=0.4)
        p = solve_value_kernel(model, cost, gain)
        x = stationary_covariance(model, gain)
        lhs = average_cost(p, model.D)
        rhs = float(np.trace((cost.Q + gain.T @ cost.R @ gain) @ x))
        assert abs(lhs - rhs) / abs(lhs) <= 1e-9


def test_policy_improvement_scalar_value():
    p = np.array([[4.0 / 3.0]])
    gain = policy_improvement(scalar_model(0.5), SCALAR_COST, p)
    np.testing.assert_allclose(gain, [[-2.0 / 7.0]], atol=1e-12)


def test_policy_improvement_zero_kernel_gives_zero_gain(sec6):
    model, cost = sec6
    np.testing.assert_array_equal(
        policy_improvement(model, cost, np.zeros((3, 3))), np.zeros((3, 3)))


def test_policy_improvement_rejects_corrupt_kernel(sec6):
    # Both callers of the greedy-gain check reject an indefinite curvature.
    model, cost = sec6
    for solver in (policy_improvement, riccati_residual):
        with pytest.raises(UnreliableKernelError, match="not positive definite"):
            solver(model, cost, -10.0 * np.eye(3))


def test_input_weight_includes_input_channels(sec6):
    model, cost = sec6
    p = np.eye(3)
    w = input_weight(model, cost, p)
    direct = cost.R + model.B.T @ p @ model.B
    for mat, var in model.input_noise:
        direct = direct + var * (mat.T @ p @ mat)
    np.testing.assert_allclose(w, direct, atol=1e-14)
    assert not np.allclose(w, cost.R + model.B.T @ p @ model.B)


def test_riccati_residual_scalar_root_is_zero():
    # Optimal kernel of the scalar problem: positive root of P^2 - 0.25P - 1.
    root = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    res = riccati_residual(scalar_model(0.5), SCALAR_COST, np.array([[root]]))
    assert abs(res[0, 0]) <= 1e-12


def test_riccati_residual_zero_kernel_zero_cost():
    model = scalar_model(0.5)
    cost = CostModel(Q=[[0.0]], R=[[1.0]])
    res = riccati_residual(model, cost, np.zeros((1, 1)))
    assert res[0, 0] == 0.0


def test_solvers_agree_on_random_instances():
    # Cross-check the linear solve against direct fixed-point iteration on a
    # spread of machine-generated admissible pairs.
    rng = np.random.default_rng(99)
    for _ in range(10):
        model, cost = random_admissible_system(rng)
        gain = random_admissible_gain(model, rng)
        _, rho = is_admissible(model, gain)
        if rho > 0.95:
            gain = np.zeros((model.input_dim, model.state_dim))
        p = solve_value_kernel(model, cost, gain)
        factors = closed_loop_factors(model, gain)
        rhs = cost.Q + gain.T @ cost.R @ gain
        pfp = np.zeros_like(p)
        for _ in range(20000):
            p_next = sum(f.T @ pfp @ f for f in factors) + rhs
            if np.abs(p_next - pfp).max() < 1e-13 * max(1.0, np.abs(p_next).max()):
                pfp = p_next
                break
            pfp = p_next
        assert np.linalg.norm(p - pfp) / np.linalg.norm(p) <= 1e-10


# Entry points that take a gain, called as entry(model, cost, gain).
GAIN_ENTRY_POINTS = {
    "is_admissible": lambda model, cost, gain: is_admissible(model, gain),
    "stationary_covariance": lambda model, cost, gain: stationary_covariance(model, gain),
    "solve_value_kernel": solve_value_kernel,
    "policy_iteration": policy_iteration,
}
FIXED_POINT_SOLVERS = ("stationary_covariance", "solve_value_kernel")


@pytest.mark.parametrize("entry", sorted(GAIN_ENTRY_POINTS))
@pytest.mark.parametrize("gain, message", [
    (np.where(np.eye(3) > 0, np.nan, 0.0), "non-finite"),
    (np.where(np.eye(3) > 0, np.inf, 0.0), "non-finite"),
    (np.zeros((3, 2)), "shape"),
], ids=["nan", "inf", "shape"])
def test_malformed_gain_is_a_validation_error(sec6, entry, gain, message):
    model, cost = sec6
    with pytest.raises(ValidationError, match=message):
        GAIN_ENTRY_POINTS[entry](model, cost, gain)


def test_overflowing_gain_is_not_admissible(sec6):
    # Finite, but the Kronecker products of the moment operator overflow.
    model, cost = sec6
    assert is_admissible(model, 1e200 * np.eye(3)) == (False, np.inf)
    for entry in FIXED_POINT_SOLVERS:
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NotAdmissibleError) as err:
            GAIN_ENTRY_POINTS[entry](model, cost, 1e200 * np.eye(3))
        assert err.value.spectral_radius == np.inf


def test_overflowing_gain_raises_without_numpy_warnings(sec6):
    model, cost = sec6
    for entry in FIXED_POINT_SOLVERS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAdmissibleError) as err:
                GAIN_ENTRY_POINTS[entry](model, cost, 1e200 * np.eye(3))
        assert err.value.spectral_radius == np.inf


def test_huge_radius_gives_a_short_message(sec6):
    # rho ~ 1e100 and 1e200: the message must not spell out every digit.
    model, cost = sec6
    for scale in (1e50, 1e100):
        gain = scale * np.eye(3)
        _, rho = is_admissible(model, gain)
        assert np.isfinite(rho) and rho > 1e99
        for entry in ("stationary_covariance", "solve_value_kernel", "policy_iteration"):
            with pytest.raises(NotAdmissibleError) as err:
                GAIN_ENTRY_POINTS[entry](model, cost, gain)
            assert len(str(err.value)) < 100
            assert err.value.spectral_radius == rho


@pytest.mark.parametrize("entry", FIXED_POINT_SOLVERS)
def test_bound_inside_the_margin_falls_back_to_the_exact_check(entry):
    # rho = 1 - 1e-12: the solve succeeds (X ~ 1e12), but its certificate
    # only bounds rho by about 1 - 1e-12, inside the margin, so the exact
    # check decides, and rejects.
    model = scalar_model(0.0, state_noise=[([[1.0]], 1.0 - 1e-12)])
    _, rho = is_admissible(model, L0_1)
    assert 1.0 - ADMISSIBILITY_MARGIN < rho < 1.0
    with pytest.raises(NotAdmissibleError) as err:
        GAIN_ENTRY_POINTS[entry](model, SCALAR_COST, L0_1)
    assert err.value.spectral_radius == rho


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       log_scale=st.one_of(st.none(), st.floats(-1.5, 1.0)),
       zero_q=st.booleans())
@example(seed=0, log_scale=None, zero_q=True)   # P = 0: no certificate
def test_fixed_point_solvers_reject_exactly_the_inadmissible_gains(seed, log_scale, zero_q):
    # Gains scaled across the stability boundary: a solver raises
    # NotAdmissibleError iff is_admissible rejects the gain, and a solution
    # X > 0 brackets the exact radius with its Lyapunov gap Y = X - T(X):
    # 1 - lmax(Y)/lmin(X) <= rho <= 1 - lmin(Y)/lmax(X).
    rng = np.random.default_rng(seed)
    model, cost = random_admissible_system(rng)
    if zero_q:
        cost = CostModel(Q=np.zeros_like(cost.Q), R=cost.R)
    gain = np.zeros((model.input_dim, model.state_dim))
    if log_scale is not None:
        direction = rng.normal(size=gain.shape)
        gain = 10.0 ** log_scale * direction / np.linalg.norm(direction)
    admissible, rho = is_admissible(model, gain)
    for entry, dual in (("stationary_covariance", False), ("solve_value_kernel", True)):
        if not admissible:
            with pytest.raises(NotAdmissibleError) as err:
                GAIN_ENTRY_POINTS[entry](model, cost, gain)
            assert err.value.spectral_radius == rho
            continue
        x = GAIN_ENTRY_POINTS[entry](model, cost, gain)
        x_eigs = np.linalg.eigvalsh(x)
        if x_eigs[0] <= 0:
            continue
        factors = closed_loop_factors(model, gain)
        y = x - sum(f.T @ x @ f if dual else f @ x @ f.T for f in factors)
        y_eigs = np.linalg.eigvalsh(y)
        tol = 1e-9
        assert 1.0 - y_eigs[-1] / x_eigs[0] - tol <= rho <= 1.0 - y_eigs[0] / x_eigs[-1] + tol


def test_admissibility_work_counts(sec6, monkeypatch):
    # A certified solve runs no eigenvalue problem and builds M once;
    # policy_iteration keeps one exact check, for its initial gain.
    analysis = importlib.import_module("slqr.analysis")
    pi_module = importlib.import_module("slqr.policy_iteration")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(analysis, "moment_operator",
                        counted("moment_operator", analysis.moment_operator))
    checked = counted("is_admissible", analysis.is_admissible)
    monkeypatch.setattr(analysis, "is_admissible", checked)
    monkeypatch.setattr(pi_module, "is_admissible", checked)
    model, cost = sec6

    solve_value_kernel(model, cost, L0_3)
    assert (calls["is_admissible"], calls["moment_operator"]) == (0, 1)

    calls.clear()
    trace = policy_iteration(model, cost, L0_3)
    assert calls["is_admissible"] == 1
    assert calls["moment_operator"] == 1 + trace.iterations

    # On a non-normal loop only each equation's own map certifies: the
    # transposed one leaves X - A^T X A (X - A X A^T for P) indefinite.
    calls.clear()
    shear = SystemModel(A=[[0.0, 2.0], [0.0, 0.0]], B=np.eye(2), D=np.eye(2),
                        X0=np.eye(2))
    stationary_covariance(shear, np.zeros((2, 2)))
    solve_value_kernel(shear, CostModel(Q=np.eye(2), R=np.eye(2)), np.zeros((2, 2)))
    assert calls["is_admissible"] == 0

    # Q = 0 at the zero gain gives P = 0, which certifies nothing.
    calls.clear()
    p = solve_value_kernel(model, CostModel(Q=np.zeros((3, 3)), R=cost.R), L0_3)
    assert not p.any()
    assert (calls["is_admissible"], calls["moment_operator"]) == (1, 2)


def test_solvers_never_form_the_kronecker_matrix(sec6, monkeypatch):
    # The solvers and the exact check work on the packed matrix only: no
    # read of MomentOperator.matrix and no np.kron, on the certified path,
    # on the fallback paths and on rejection.
    analysis = importlib.import_module("slqr.analysis")
    calls = Counter()
    kron = np.kron
    defining = analysis.MomentOperator.matrix.func

    def counted_kron(*args):
        calls["kron"] += 1
        return kron(*args)

    def counted_matrix(op):
        calls["matrix"] += 1
        return defining(op)

    monkeypatch.setattr(np, "kron", counted_kron)
    monkeypatch.setattr(analysis.MomentOperator, "matrix", property(counted_matrix))
    model, cost = sec6
    zero_q = CostModel(Q=np.zeros((3, 3)), R=cost.R)

    is_admissible(model, L0_3)
    stationary_covariance(model, L0_3)
    solve_value_kernel(model, cost, L0_3)
    solve_value_kernel(model, zero_q, L0_3)   # P = 0: falls back
    policy_iteration(model, cost, L0_3)
    for entry in FIXED_POINT_SOLVERS:
        with pytest.raises(NotAdmissibleError):
            GAIN_ENTRY_POINTS[entry](model, cost, 10.0 * np.eye(3))
    assert calls == Counter()

    moment_operator(model, L0_3).matrix   # the counters do see a read
    assert calls == Counter(matrix=1, kron=len(closed_loop_factors(model, L0_3)))
