import contextlib
import importlib
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slqr.analysis import (
    ADMISSIBILITY_MARGIN,
    average_cost,
    checked_kernel,
    greedy_gain,
    is_admissible,
    moment_operator,
    policy_improvement,
    q_kernel_matrix,
    riccati_residual,
    solve_value_kernel,
    stationary_covariance,
)
from slqr.errors import (
    NotAdmissibleError,
    SingularSystemError,
    SolverFailure,
    UnreliableKernelError,
    ValidationError,
)
from slqr.packing import symmetrize, unvech, vech
from slqr.policy_iteration import policy_iteration
from slqr.qlearning import MAX_KERNEL_CONDITION, policy_from_h
from slqr.system import CostModel, SystemModel

from random_instances import random_admissible_gain, random_admissible_system

analysis_module = importlib.import_module("slqr.analysis")
# is_admissible's size gate as shipped, and the Perron bracket tried at every
# size; both must give the same flag and radius.
RADIUS_GATES = (analysis_module.PERRON_MIN_N, 1)
# The least even size that the bracket runs at, for loops built from two
# equal blocks or with -r^2 on their spectral circle.
EVEN_BRACKET_N = analysis_module.PERRON_MIN_N + analysis_module.PERRON_MIN_N % 2


@contextlib.contextmanager
def perron_min_n(value):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis_module, "PERRON_MIN_N", value)
        yield


def scalar_model(a, d=1.0, state_noise=()):
    return SystemModel(A=[[a]], B=[[1.0]], D=[[d]], X0=[[1.0]],
                       state_noise=list(state_noise))


SCALAR_COST = CostModel(Q=[[1.0]], R=[[1.0]])
L0_1 = np.zeros((1, 1))
L0_3 = np.zeros((3, 3))
packed = analysis_module.packed


def kron_matrix(stack):
    """The defining n^2 x n^2 form sum_c F_c kron F_c of T on row-major vec(X)."""
    return sum(np.kron(f, f) for f in stack)


def test_moment_operator_scalar_with_state_noise():
    model = scalar_model(0.9, state_noise=[([[1.0]], 0.1)])
    stack = moment_operator(model, L0_1)
    np.testing.assert_allclose(kron_matrix(stack), [[0.91]], atol=1e-15)


def test_moment_operator_without_noise_is_kron_of_closed_loop():
    model = SystemModel(A=[[0.5, 0.1], [0.0, 0.4]], B=np.eye(2), D=np.eye(2),
                        X0=np.eye(2))
    stack = moment_operator(model, np.zeros((2, 2)))
    assert stack.shape == (1, 2, 2)
    np.testing.assert_array_equal(kron_matrix(stack), np.kron(model.A, model.A))


def test_moment_operator_application_matches_direct_products(sec6):
    # M acting on vec(I) must equal vec(sum_c F_c F_c^T) computed directly.
    model, _ = sec6
    stack = moment_operator(model, L0_3)
    applied = (kron_matrix(stack) @ np.eye(3).ravel()).reshape(3, 3)
    direct = sum(f @ f.T for f in stack)
    np.testing.assert_allclose(applied, direct, atol=1e-12)


SHEAR = SystemModel(A=[[0.0, 2.0], [0.0, 0.0]], B=np.eye(2), D=np.eye(2), X0=np.eye(2))


def adjoint(stack):
    """T*'s stack: the transposed factors."""
    return stack.transpose(0, 2, 1)


@pytest.mark.parametrize("n", [1, 3, 12, 20])
@pytest.mark.parametrize("c", [1, 3, 5])
def test_the_prepared_application_matches_a_per_factor_loop(n, c):
    # _operator's two products against sum_c F_c X F_c^T, one factor at a
    # time, for T's stack and T*'s transposed one, on a non-symmetric X.
    rng = np.random.default_rng(100 * n + c)
    stack = rng.normal(size=(c, n, n)) / np.sqrt(n)
    x = rng.normal(size=(n, n))
    for factors in (stack, adjoint(stack)):
        expected = sum(f @ x @ f.T for f in factors)
        applied = analysis_module._operator(factors)(x)
        assert applied.shape == (n, n)
        assert np.linalg.norm(applied - expected) <= 1e-14 * np.linalg.norm(expected)


def test_packed_operator_matches_its_definition():
    # packed() @ vech(X) == vech(unvec(matrix @ vec(X))) on symmetric X, and
    # the adjoint's packed matrix is that of matrix^T; the shear tells T
    # from T*.
    rng = np.random.default_rng(7)
    cases = [(SHEAR, np.zeros((2, 2))), (SHEAR, np.array([[0.3, -0.1], [0.2, 0.4]]))]
    for _ in range(20):
        model, _ = random_admissible_system(rng, 5, 4, 3)
        cases.append((model, random_admissible_gain(model, rng)))
    for model, gain in cases:
        stack = moment_operator(model, gain)
        n = model.state_dim
        g = rng.normal(size=(n, n))
        x = g + g.T
        full = kron_matrix(stack)
        for full, factors in ((full, stack), (full.T, adjoint(stack))):
            expected = vech((full @ x.ravel()).reshape(n, n))
            got = packed(factors) @ vech(x)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


# packed() against sum_c F_c X F_c^T, relative to the latter (Frobenius norm).
PACKED_RTOL = 1e-13


def test_packed_operator_is_the_matrix_at_n1():
    # At n = 1 both forms are the number sum_c F_c^2; packed() sums it in
    # one batched product, kron_matrix as a sum of Kronecker products.
    rng = np.random.default_rng(3)
    for _ in range(50):
        model = SystemModel(
            A=[[rng.normal()]], B=[[rng.normal()]], D=[[1.0]], X0=[[1.0]],
            state_noise=[([[rng.normal()]], rng.uniform(0.01, 1.0)) for _ in range(2)],
            input_noise=[([[rng.normal()]], rng.uniform(0.01, 1.0)) for _ in range(2)])
        stack = moment_operator(model, rng.normal(size=(1, 1)))
        full = kron_matrix(stack)
        for factors in (stack, adjoint(stack)):
            mat = packed(factors)
            assert mat.shape == (1, 1)
            assert abs(mat - full).max() <= PACKED_RTOL * full.max()


def factor_list(rng, n, kinds):
    """n x n factors, one per kind: "zero" (0.0 and -0.0 entries), "minus
    zero" (-0.0 entries only) or "normal" (Gaussian, with some -0.0
    entries)."""
    factors = []
    for kind in kinds:
        if kind == "normal":
            f = rng.normal(size=(n, n))
            f[rng.random((n, n)) < 0.3] = -0.0
        else:
            f = np.full((n, n), -0.0)
            if kind == "zero":
                f[rng.random((n, n)) < 0.5] = 0.0
        factors.append(f)
    return factors


FACTOR_KINDS = st.lists(st.sampled_from(["normal", "zero", "minus zero"]),
                        min_size=1, max_size=5)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 8), kinds=FACTOR_KINDS, seed=st.integers(0, 2**32 - 1))
def test_packed_operator_applies_the_moment_map(n, kinds, seed):
    # unvech(packed() @ vech(X)) is sum_c F_c X F_c^T on symmetric X, with
    # zero and -0.0 factors in the list.
    rng = np.random.default_rng(seed)
    factors = factor_list(rng, n, kinds)
    g = rng.normal(size=(n, n))
    x = g + g.T
    got = unvech(packed(np.array(factors)) @ vech(x))
    expected = sum(f @ x @ f.T for f in factors)
    assert np.linalg.norm(got - expected) <= PACKED_RTOL * np.linalg.norm(expected)


def test_zero_factors_leave_the_packed_matrix_bit_identical():
    # Leaving out the exactly-zero factors after the first, -0.0 entries
    # included, as moment_operator does, changes no bit: the bytes are
    # compared, so a -0.0 where the full sum has 0.0 fails.
    rng = np.random.default_rng(11)
    kinds = ["normal", "zero", "minus zero"]
    for n in range(1, 7):
        s = n * (n + 1) // 2
        for _ in range(10):
            count = int(rng.integers(1, 6))
            factors = factor_list(rng, n, rng.choice(kinds, size=count, p=[0.5, 0.25, 0.25]))
            kept = packed(np.array(factors[:1] + [f for f in factors[1:] if f.any()]))
            assert kept.shape == (s, s)
            assert kept.tobytes() == packed(np.array(factors)).tobytes()
        # Zero factors alone give the s x s zero matrix, with no -0.0 in it.
        zeros = packed(np.array([np.zeros((n, n)), np.full((n, n), -0.0)]))
        assert zeros.tobytes() == np.zeros((s, s)).tobytes()


def test_the_zero_gain_builds_from_the_channels_that_act():
    # At the zero gain every input-noise factor B_j L is zero: the stack
    # holds A and the state channels only, 1 + p factors, and all 1 + p + q
    # at a nonzero gain. It is one C-contiguous array.
    rng = np.random.default_rng(2)
    n, m = 4, 2
    model = SystemModel(
        A=0.3 * rng.normal(size=(n, n)), B=rng.normal(size=(n, m)), D=np.eye(n),
        X0=np.eye(n),
        state_noise=[(rng.normal(size=(n, n)), 0.01) for _ in range(2)],
        input_noise=[(rng.normal(size=(n, m)), 0.01) for _ in range(3)])
    zero, full = (moment_operator(model, gain) for gain in (np.zeros((m, n)), np.ones((m, n))))
    channels = len(model.state_noise)
    assert zero.shape == (1 + channels, n, n)
    assert full.shape == (1 + channels + len(model.input_noise), n, n)
    np.testing.assert_array_equal(zero[0], model.A)
    np.testing.assert_array_equal(full[0], model.A + model.B @ np.ones((m, n)))
    assert zero.flags.c_contiguous and full.flags.c_contiguous


def test_a_zero_mean_loop_stays_first_in_the_stack():
    # A = 0 at the zero gain: F0 = 0 is kept first, alone without noise
    # (rho = 0) and ahead of the state channel with it (rho = var).
    for state_noise, rho_exact in (((), 0.0), ((([[1.0]], 0.25),), 0.25)):
        model = scalar_model(0.0, state_noise=state_noise)
        stack = moment_operator(model, L0_1)
        assert stack.shape == (1 + len(state_noise), 1, 1)
        assert stack[0, 0, 0] == 0.0
        assert is_admissible(model, L0_1) == (True, rho_exact)
        np.testing.assert_allclose(stationary_covariance(model, L0_1),
                                   [[1.0 / (1.0 - rho_exact)]], rtol=1e-12)


def _edge_scale(model, direction):
    """Gain scale t at which rho(M(t * direction)) crosses 1, bisected on the
    eigenvalues of the n^2 x n^2 matrix; None if it stays below 1."""
    def rho(t):
        return np.abs(np.linalg.eigvals(kron_matrix(moment_operator(model, t * direction)))).max()
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
    stack = moment_operator(model, gain)
    rho_full = np.abs(np.linalg.eigvals(kron_matrix(stack))).max()
    for factors in (stack, adjoint(stack)):
        rho_packed = np.abs(np.linalg.eigvals(packed(factors))).max()
        assert abs(rho_packed - rho_full) <= 1e-10 * rho_full
    for gate in RADIUS_GATES:
        with perron_min_n(gate):
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
    factors = moment_operator(model, L0_3)
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


def test_stationary_covariance_rejects_an_indefinite_fixed_point():
    # Construction checks shapes only, so an indefinite D gets this far and
    # gives X = D / (1 - 0.25) = -4/3.
    model = SystemModel(A=[[0.5]], B=[[1.0]], D=[[-1.0]], X0=[[1.0]])
    message = "stationary covariance came out indefinite (min eig -1.333e+00)"
    with pytest.raises(SingularSystemError, match=f"^{re.escape(message)}$"):
        stationary_covariance(model, L0_1)


def test_stationary_covariance_rejects_a_tiny_indefinite_fixed_point():
    # X = -1.33e-14 is as indefinite as -4/3: the rule is relative to X's
    # own scale, with no floor at 1.
    model = SystemModel(A=[[0.5]], B=[[1.0]], D=[[-1e-14]], X0=[[1.0]])
    message = "stationary covariance came out indefinite (min eig -1.333e-14)"
    with pytest.raises(SingularSystemError, match=f"^{re.escape(message)}$"):
        stationary_covariance(model, L0_1)


@pytest.mark.parametrize("solve", [
    lambda model: stationary_covariance(model, L0_1),
    lambda model: solve_value_kernel(model, SCALAR_COST, L0_1),
], ids=["covariance", "value kernel"])
def test_a_singular_packed_solve_exits_through_the_exact_check(monkeypatch, solve):
    # At rho = 1 exactly, I - T is singular: the packed LU gives no X, and
    # the exact check reports the radius.
    packed_solve, results = analysis_module._packed_solve, []

    def recorded(*args):
        results.append(packed_solve(*args))
        return results[-1]

    monkeypatch.setattr(analysis_module, "_packed_solve", recorded)
    with pytest.raises(NotAdmissibleError,
                       match=r"^gain is not admissible: moment spectral radius 1 >= 1$") as err:
        solve(scalar_model(1.0))
    assert err.value.spectral_radius == 1.0
    assert results == [None]


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
        recon = sum(f.T @ p @ f for f in moment_operator(model, gain)) + rhs
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


@pytest.mark.parametrize("kernel, cov", [
    (np.eye(2), 1e308 * np.eye(2)),
    ([[1e308]], [[10.0]]),
    (np.full((2, 2), 1e308), [[10.0, -10.0], [-10.0, 10.0]])],
    ids=["sum", "product", "inf - inf"])
def test_an_average_cost_beyond_the_float_range_is_a_solver_failure(kernel, cov):
    # tr(P D) overflows to inf, or to nan where two overflows cancel: a
    # typed failure, not a RuntimeWarning and an infinite cost.
    with pytest.raises(SolverFailure, match=r"^average cost tr\(P D\) is (inf|nan)"):
        average_cost(kernel, cov)


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


# Each kernel entry point, called as entry(model, cost, kernel).
KERNEL_ENTRY_POINTS = {
    "checked_kernel": lambda model, cost, kernel: checked_kernel(model, kernel),
    "q_kernel_matrix": q_kernel_matrix,
    "policy_improvement": policy_improvement,
    "riccati_residual": riccati_residual,
}


@pytest.mark.parametrize("entry", sorted(KERNEL_ENTRY_POINTS))
@pytest.mark.parametrize("kernel, message", [
    (np.where(np.eye(3) > 0, np.nan, 0.0), r"has non-finite entries"),
    (np.where(np.eye(3) > 0, np.inf, 0.0), r"has non-finite entries"),
    (np.full((3, 3), -np.inf), r"has non-finite entries"),
    (np.eye(2), r"must have shape \(3, 3\), got \(2, 2\)"),
    (np.eye(4), r"must have shape \(3, 3\), got \(4, 4\)"),
    (np.ones(3), r"must be a 2-d matrix, got shape \(3,\)"),
    (np.eye(3, 4), r"must have shape \(3, 3\), got \(3, 4\)"),
    ("abc", r"must be a matrix of real numbers"),
    (np.triu(np.ones((3, 3))), r"is asymmetric: max \|M - M\^T\| = 1.000e\+00 exceeds 1.0e-08 .*"),
], ids=["nan", "inf", "-inf", "2x2", "4x4", "1-d", "3x4", "string", "asymmetric"])
def test_malformed_kernel_is_a_validation_error(sec6, entry, kernel, message):
    # A kernel that is not a finite n x n matrix is rejected before any
    # product or eigenvalue problem, and numpy does not warn.
    model, cost = sec6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=rf"^value kernel {message}$"):
            KERNEL_ENTRY_POINTS[entry](model, cost, kernel)


def test_checked_kernel_rejects_asymmetry_above_1e_8_of_its_scale(sec6):
    # Every value kernel the package makes is exactly symmetric, so a
    # relative asymmetry of 1e-7 is no roundoff; one of 1e-12 is.
    model, _ = sec6
    kernel = 1e3 * np.eye(3)
    kernel[0, 1] = 1e-9
    np.testing.assert_allclose(checked_kernel(model, kernel), (kernel + kernel.T) / 2,
                               rtol=0, atol=1e-25)
    kernel[0, 1] = 1e-4
    with pytest.raises(ValidationError, match=r"^value kernel is asymmetric: .* 1.0e-08 relative "
                                              r"to scale 1.000e\+03$"):
        checked_kernel(model, kernel)


@pytest.mark.parametrize("entry, value", [((2, 2), np.nan), ((2, 0), np.inf),
                                          ((0, 1), np.nan), ((1, 2), -np.inf)],
                         ids=["nan uu", "inf ux", "nan xx", "-inf xu"])
def test_greedy_gain_rejects_non_finite_input(entry, value):
    # Any non-finite entry, in whichever block, marks the whole kernel.
    kernel = np.eye(3)
    kernel[entry] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnreliableKernelError, match="^kernel contains non-finite entries$"):
            greedy_gain(kernel, 2)


@pytest.mark.parametrize("args, message", [
    (dict(kernel=np.ones(3), state_dim=1), r"^kernel must be a 2-d matrix, got shape \(3,\)$"),
    (dict(kernel=np.ones((2, 3)), state_dim=1), r"^kernel must be square, got shape \(2, 3\)$"),
    (dict(kernel="ab", state_dim=1), r"^kernel must be a matrix of real numbers$"),
    (dict(kernel=np.eye(3), state_dim=3), r"^state_dim 3 must split a 3 x 3 kernel$"),
    (dict(kernel=np.zeros((0, 0)), state_dim=1), r"^state_dim 1 must split a 0 x 0 kernel$"),
    (dict(kernel=np.eye(3), state_dim=2, max_condition=np.nan),
     r"^max_condition must be > 0, got nan$"),
    (dict(kernel=np.eye(3), state_dim=2, max_condition=0.0),
     r"^max_condition must be > 0, got 0.0$"),
], ids=["1-d kernel", "2x3 kernel", "string kernel", "state_dim too large", "empty kernel",
        "nan max_condition", "zero max_condition"])
def test_greedy_gain_names_a_malformed_argument(args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            greedy_gain(**args)


def test_greedy_gain_caps_the_condition_number_it_is_given():
    kernel = np.diag([1.0, 1e-6, 1e6])
    with pytest.raises(UnreliableKernelError, match="condition number 1.000e[+]12 exceeds 1.0e[+]08"):
        greedy_gain(kernel, 1, 1e8)
    np.testing.assert_array_equal(greedy_gain(kernel, 1), np.zeros((2, 1)))


def test_every_greedy_step_is_greedy_gain(sec6):
    # Both solvers' improvement steps are greedy_gain of a whole H, bit for
    # bit: the exact one of q_kernel_matrix's H as it comes, the learner's of
    # the symmetrized fit with the learner's condition cap.
    rng = np.random.default_rng(11)
    instances = [sec6] + [random_admissible_system(rng) for _ in range(5)]
    for model, cost in instances:
        n = model.state_dim
        p = solve_value_kernel(model, cost, random_admissible_gain(model, rng))
        h = q_kernel_matrix(model, cost, p)
        assert np.array_equal(policy_improvement(model, cost, p), greedy_gain(h, n))
        assert np.array_equal(policy_from_h(h, n),
                              greedy_gain(symmetrize(h), n, MAX_KERNEL_CONDITION))


def test_input_weight_includes_input_channels(sec6):
    model, cost = sec6
    p = np.eye(3)
    h = q_kernel_matrix(model, cost, p)
    w = h[3:, 3:]
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
        factors = moment_operator(model, gain)
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
    for gate in RADIUS_GATES:
        with perron_min_n(gate):
            assert is_admissible(model, 1e200 * np.eye(3)) == (False, np.inf)
            for entry in FIXED_POINT_SOLVERS:
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(NotAdmissibleError) as err:
                    GAIN_ENTRY_POINTS[entry](model, cost, 1e200 * np.eye(3))
                assert err.value.spectral_radius == np.inf


def test_overflowing_gain_raises_without_numpy_warnings(sec6):
    model, cost = sec6
    for gate in RADIUS_GATES:
        for entry in FIXED_POINT_SOLVERS:
            with perron_min_n(gate), warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotAdmissibleError) as err:
                    GAIN_ENTRY_POINTS[entry](model, cost, 1e200 * np.eye(3))
            assert err.value.spectral_radius == np.inf


def test_huge_radius_gives_a_short_message(sec6):
    # rho ~ 1e100 and 1e200: the message must not spell out every digit.
    model, cost = sec6
    for scale in (1e50, 1e100):
        gain = scale * np.eye(3)
        rho_eig = packed_radius(model, gain)
        for gate in RADIUS_GATES:
            with perron_min_n(gate), warnings.catch_warnings():
                warnings.simplefilter("error")
                _, rho = is_admissible(model, gain)
                assert np.isfinite(rho) and rho > 1e99
                assert abs(rho - rho_eig) <= 1e-10 * rho_eig
                for entry in ("stationary_covariance", "solve_value_kernel",
                              "policy_iteration"):
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


@pytest.mark.parametrize("entry, name", [("stationary_covariance", "covariance"),
                                         ("solve_value_kernel", "value-kernel")])
def test_a_solution_that_misses_its_equation_is_rejected(sec6, monkeypatch, entry, name):
    # An LU answer off by a relative 1e-6 still certifies the gain, but misses
    # its defining equation: both solvers raise SingularSystemError with the
    # residual instead of returning it.
    model, cost = sec6
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: (1.0 + 1e-6) * solve(a, b))
    with pytest.raises(SingularSystemError,
                       match=rf"^{name} equation residual \S+ is too large \(spectral"):
        GAIN_ENTRY_POINTS[entry](model, cost, L0_3)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       log_scale=st.one_of(st.none(), st.floats(-1.5, 1.0)),
       zero_q=st.booleans())
@example(seed=0, log_scale=None, zero_q=True)   # P = 0: no certificate
def test_fixed_point_solvers_reject_exactly_the_inadmissible_gains(seed, log_scale, zero_q):
    check_exact_rejection(seed, log_scale, zero_q)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       log_scale=st.one_of(st.none(), st.floats(-1.5, 1.0)),
       zero_q=st.booleans())
@example(seed=0, log_scale=None, zero_q=True)
def test_matrix_free_solvers_reject_exactly_the_inadmissible_gains(seed, log_scale, zero_q):
    # The same rule with the splitting tried first at every size, on the
    # small non-normal systems where gains near the edge are easy to draw.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis_module, "MATRIX_FREE_MIN_N", 1)
        check_exact_rejection(seed, log_scale, zero_q)


def check_exact_rejection(seed, log_scale, zero_q):
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
        factors = moment_operator(model, gain)
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
    # np.kron on the certified path, on the fallback paths and on rejection.
    calls = Counter()
    kron = np.kron

    def counted_kron(*args):
        calls["kron"] += 1
        return kron(*args)

    monkeypatch.setattr(np, "kron", counted_kron)
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

    stack = moment_operator(model, L0_3)
    kron_matrix(stack)   # the counter does see the Kronecker form
    assert calls == Counter(kron=len(stack))


# --- The matrix-free splitting solve, from MATRIX_FREE_MIN_N states on ---
WIDE_N = analysis_module.MATRIX_FREE_MIN_N


def wide_system(rng, n=WIDE_N):
    """An n-state, n//2-input system with two noise channels per side whose
    zero gain is admissible by a norm bound (as in the pi_n20 benchmark)."""
    def unit(shape):
        mat = rng.normal(size=shape)
        return mat / np.linalg.norm(mat, 2)

    m = n // 2
    a = rng.uniform(0.6, 0.85)
    budget = 0.25 * (1.0 - a * a)
    g = rng.normal(size=(n, n))
    model = SystemModel(A=a * unit((n, n)), B=rng.normal(size=(n, m)) / np.sqrt(n),
                        D=g @ g.T / n + 0.2 * np.eye(n), X0=np.eye(n),
                        state_noise=[(unit((n, n)), budget * rng.uniform(0.5, 1.0))
                                     for _ in range(2)],
                        input_noise=[(unit((n, m)), rng.uniform(0.01, 0.05))
                                     for _ in range(2)])
    cost = CostModel(Q=np.diag(rng.uniform(0.5, 2.0, size=n)),
                     R=np.diag(rng.uniform(0.5, 2.0, size=m)))
    return model, cost


def scaled_noise_system(rng, splitting_rate, n=WIDE_N):
    """rho(A) = 0.6 and one state channel in the direction I with variance v:
    at the zero gain T = T_A + v I exactly, so rho(T) = 0.36 + v, and the
    splitting's rate is v / (1 - 0.36), here splitting_rate."""
    a = rng.normal(size=(n, n))
    a *= 0.6 / np.abs(np.linalg.eigvals(a)).max()
    model = SystemModel(A=a, B=rng.normal(size=(n, n // 2)), D=np.eye(n), X0=np.eye(n),
                        state_noise=[(np.eye(n), splitting_rate * 0.64)])
    return model, CostModel(Q=np.eye(n), R=np.eye(n // 2))


def packed_solve(monkeypatch, call):
    """call() with the packed LU as the only path."""
    with monkeypatch.context() as patch:
        patch.setattr(analysis_module, "MATRIX_FREE_MIN_N", np.inf)
        return call()


def count_packed_builds(monkeypatch):
    calls = Counter()

    def counted(stack):
        calls["packed"] += 1
        return packed(stack)

    monkeypatch.setattr(analysis_module, "packed", counted)
    return calls


def test_matrix_free_solves_agree_with_the_packed_solve(monkeypatch):
    rng = np.random.default_rng(3)
    calls = count_packed_builds(monkeypatch)
    for _ in range(2):
        model, cost = wide_system(rng)
        for gain in (np.zeros((model.input_dim, model.state_dim)),
                     random_admissible_gain(model, rng)):
            for entry in FIXED_POINT_SOLVERS:
                solve = lambda: GAIN_ENTRY_POINTS[entry](model, cost, gain)  # noqa: E731
                calls.clear()
                x = solve()
                assert calls["packed"] == 0   # converged and certified
                dense = packed_solve(monkeypatch, solve)
                assert calls["packed"] == 1
                assert np.array_equal(x, x.T)
                assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense)
    # One state fewer, the packed solve is the only path.
    model, cost = wide_system(rng, WIDE_N - 1)
    calls.clear()
    solve_value_kernel(model, cost, np.zeros((model.input_dim, model.state_dim)))
    assert calls["packed"] == 1


def test_capped_splitting_returns_the_packed_answer(monkeypatch):
    # Near the edge the splitting contracts at 0.95 a sweep, too slowly for
    # the cap: it gives up and the packed solve answers; with the cap lifted
    # it converges to the same X.
    model, cost = scaled_noise_system(np.random.default_rng(4), splitting_rate=0.95)
    gain = np.zeros((model.input_dim, model.state_dim))
    admissible, rho = is_admissible(model, gain)
    assert admissible and rho == pytest.approx(0.36 + 0.95 * 0.64)
    calls = count_packed_builds(monkeypatch)
    for entry in FIXED_POINT_SOLVERS:
        solve = lambda: GAIN_ENTRY_POINTS[entry](model, cost, gain)  # noqa: E731
        calls.clear()
        x = solve()
        assert calls["packed"] == 1
        assert np.array_equal(x, packed_solve(monkeypatch, solve))
        with monkeypatch.context() as patch:
            patch.setattr(analysis_module, "SPLITTING_MAX_SWEEPS", 10_000)
            calls.clear()
            lifted = solve()
        assert calls["packed"] == 0
        assert np.linalg.norm(lifted - x) <= 1e-12 * np.linalg.norm(x)


def test_a_splitting_out_of_sweeps_gives_up_to_the_packed_solve(monkeypatch):
    # With a cap of one sweep past the first, the splitting runs out of
    # sweeps before its stop rule can hold and gives up; the packed solve
    # then returns the kernel an unpatched solve gives.
    model, cost = wide_system(np.random.default_rng(5))
    gain = np.zeros((model.input_dim, model.state_dim))
    want = solve_value_kernel(model, cost, gain)
    splitting, answers = analysis_module._splitting_solve, []

    def recorded(*args):
        answers.append(splitting(*args))
        return answers[-1]

    with monkeypatch.context() as patch:
        patch.setattr(analysis_module, "SPLITTING_MAX_SWEEPS", 1)
        patch.setattr(analysis_module, "_splitting_solve", recorded)
        calls = count_sweeps(patch)
        builds = count_packed_builds(patch)
        got = solve_value_kernel(model, cost, gain)
    assert answers == [None] and calls["sweeps"] == 2 and builds["packed"] == 1
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def scale_to_radius(model, direction, target):
    """A gain t * direction with rho(T) = target, bisected on is_admissible."""
    def rho(t):
        return is_admissible(model, t * direction)[1]

    lo, hi = 0.0, 1.0
    while rho(hi) < target:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if rho(mid) < target else (lo, mid)
    return lo * direction


def test_a_hopeless_splitting_attempt_gives_up_early(monkeypatch):
    # rho(T) = 0.99 along a random gain direction: the sweeps contract at
    # nearly 1, and two successive ratios show that the sweeps left under
    # the cap cannot meet the stop rule. The attempt ends after three
    # sweeps, not SPLITTING_MAX_SWEEPS + 1, and the packed solve answers as
    # after a full capped attempt; with the cap lifted the splitting
    # converges to the same X.
    rng = np.random.default_rng(0)
    model, cost = wide_system(rng)
    gain = scale_to_radius(model, rng.normal(size=(model.input_dim, model.state_dim)), 0.99)
    assert is_admissible(model, gain)[1] == pytest.approx(0.99, abs=1e-12)
    for entry in FIXED_POINT_SOLVERS:
        solve = lambda: GAIN_ENTRY_POINTS[entry](model, cost, gain)  # noqa: E731
        with monkeypatch.context() as patch:
            calls = count_sweeps(patch)
            builds = count_packed_builds(patch)
            x = solve()
        assert calls["sweeps"] == 3 and builds["packed"] == 1, entry
        assert np.array_equal(x, packed_solve(monkeypatch, solve)), entry
        with monkeypatch.context() as patch:
            patch.setattr(analysis_module, "SPLITTING_MAX_SWEEPS", 10_000)
            builds = count_packed_builds(patch)
            lifted = solve()
        assert builds["packed"] == 0, entry
        assert np.linalg.norm(lifted - x) <= 1e-10 * np.linalg.norm(x), entry


def test_inexact_splitting_falls_back_to_the_packed_solve(monkeypatch):
    # A splitting that returns a certified X missing its equation by about
    # 2e-4: the residual guard rejects it and the packed solve answers.
    model, cost = wide_system(np.random.default_rng(3))
    gain = np.zeros((model.input_dim, model.state_dim))
    splitting = analysis_module._splitting_solve
    misses = []

    def inexact(stack, apply, rhs, start=None):
        x = (1 + 5e-4) * splitting(stack, apply, rhs, start)
        tx = apply(x)
        assert analysis_module._certified(x, tx)
        misses.append(analysis_module._residual(x, tx, rhs))
        return x

    monkeypatch.setattr(analysis_module, "_splitting_solve", inexact)
    calls = count_packed_builds(monkeypatch)
    for entry in FIXED_POINT_SOLVERS:
        solve = lambda: GAIN_ENTRY_POINTS[entry](model, cost, gain)  # noqa: E731
        calls.clear()
        x = solve()
        assert calls["packed"] == 1
        assert np.array_equal(x, packed_solve(monkeypatch, solve))
    assert len(misses) == 2 and all(1e-4 < miss < 1e-3 for miss in misses)


def record_depths(monkeypatch, force=None):
    """The doubling depth J of each splitting solve, read from its powers
    F0^(2^j), j = 0..J; with force, the first force + 1 powers are used
    instead of the depth rule's."""
    depths = []
    powers = analysis_module._stein_powers

    def recorded(stack):
        out = powers(stack) if force is None else [stack[0], stack[0] @ stack[0]][:force + 1]
        depths.append(None if out is None else len(out) - 1)
        return out

    monkeypatch.setattr(analysis_module, "_stein_powers", recorded)
    return depths


@pytest.mark.parametrize("depth", [0, 1])
def test_any_doubling_depth_solves_the_equation(monkeypatch, depth):
    # The tail F0^K X (F0^K)^T is carried whole in every sweep, so a shallow
    # depth changes the rate, not the equation: the splitting's own X meets
    # it to roundoff and is accepted without a packed build.
    model, cost = wide_system(np.random.default_rng(3))
    gain = np.zeros((model.input_dim, model.state_dim))
    depths = record_depths(monkeypatch, force=depth)
    calls = count_packed_builds(monkeypatch)
    for entry, dual in (("stationary_covariance", False), ("solve_value_kernel", True)):
        x = GAIN_ENTRY_POINTS[entry](model, cost, gain)
        factors = moment_operator(model, gain)
        rhs = cost.Q if dual else model.D
        tx = sum(f.T @ x @ f if dual else f @ x @ f.T for f in factors)
        assert np.linalg.norm(tx + rhs - x) <= 1e-12 * np.linalg.norm(x), entry
    assert depths == [depth, depth]
    assert calls["packed"] == 0


def test_a_zero_mean_loop_solves_matrix_free(monkeypatch):
    # A = -B L makes F0 = A + B L exactly zero. The stack keeps it first,
    # the splitting takes no doubling (its tail F0 X F0^T is zero) and sweeps
    # the noise channels alone; no packed matrix is built, and both
    # solutions match the packed solve.
    rng = np.random.default_rng(21)
    n, m = WIDE_N, WIDE_N // 2
    b = rng.normal(size=(n, m)) / np.sqrt(n)
    gain = rng.normal(size=(m, n))
    unit = [mat / np.linalg.norm(mat, 2) for mat in rng.normal(size=(3, n, n))]
    model = SystemModel(A=-(b @ gain), B=b, D=np.eye(n), X0=np.eye(n),
                        state_noise=[(unit[0], 0.03), (unit[1], 0.02)],
                        input_noise=[(unit[2][:, :m], 0.01)])
    cost = CostModel(Q=np.eye(n), R=np.eye(m))
    stack = moment_operator(model, gain)
    assert stack.shape == (4, n, n) and not stack[0].any() and stack[1:].any(axis=(1, 2)).all()
    assert is_admissible(model, gain)[0]
    depths = record_depths(monkeypatch)
    builds = count_packed_builds(monkeypatch)
    for entry in FIXED_POINT_SOLVERS:
        solve = lambda: GAIN_ENTRY_POINTS[entry](model, cost, gain)  # noqa: E731
        x = solve()
        assert builds["packed"] == 0, entry
        dense = packed_solve(monkeypatch, solve)
        builds.clear()
        assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense), entry
    assert depths == [0, 0]


def test_the_doubling_depth_follows_the_noise(monkeypatch):
    # On pi_n20-style systems the noise channels cap the rate at about 0.07
    # a sweep, and the tail needs one or two doublings to fall below them;
    # the kernels still match the packed solve.
    depths = record_depths(monkeypatch)
    for seed in range(10):
        model, cost = wide_system(np.random.default_rng(seed), n=20)
        gain = np.zeros((model.input_dim, model.state_dim))
        p = solve_value_kernel(model, cost, gain)
        dense = packed_solve(monkeypatch, lambda: solve_value_kernel(model, cost, gain))
        assert np.linalg.norm(p - dense) <= 1e-12 * np.linalg.norm(dense)
    assert len(depths) == 10 and set(depths) <= {1, 2}


def test_noise_free_and_weak_noise_solves_stay_matrix_free(monkeypatch):
    # With no noise the depth rule falls back to a tail below SPLITTING_RTOL,
    # so the second sweep stops the iteration; with weak noise (variances
    # 1e-3) the sweeps settle within four past the first. Neither builds a
    # packed matrix.
    rng = np.random.default_rng(14)
    n = 16
    a = rng.normal(size=(n, n))
    a *= 0.9 / np.abs(np.linalg.eigvals(a)).max()
    quiet = SystemModel(A=a, B=rng.normal(size=(n, n // 2)), D=np.eye(n), X0=np.eye(n))
    wide, cost = wide_system(rng, n)
    weak = SystemModel(A=wide.A, B=wide.B, D=wide.D, X0=wide.X0,
                       state_noise=[(mat, 1e-3) for mat, _ in wide.state_noise],
                       input_noise=[(mat, 1e-3) for mat, _ in wide.input_noise])
    for model, most in ((quiet, 2), (weak, 5)):
        zero = np.zeros((model.input_dim, n))
        greedy = policy_improvement(model, cost, solve_value_kernel(model, cost, zero))
        for gain in (zero, greedy):
            for entry in FIXED_POINT_SOLVERS:
                with monkeypatch.context() as patch:
                    calls = count_sweeps(patch)
                    builds = count_packed_builds(patch)
                    x = GAIN_ENTRY_POINTS[entry](model, cost, gain)
                dense = packed_solve(monkeypatch,
                                     lambda: GAIN_ENTRY_POINTS[entry](model, cost, gain))
                assert builds["packed"] == 0, entry
                assert 2 <= calls["sweeps"] <= most, entry
                assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense), entry


def test_an_accepted_matrix_free_solve_checks_its_residual_once(monkeypatch):
    # The gate's one rule checks the splitting's X once, no packed matrix
    # is built, and the gate and the sweeps share one prepared application.
    model, cost = wide_system(np.random.default_rng(3))
    gain = np.zeros((model.input_dim, model.state_dim))
    calls = count_packed_builds(monkeypatch)
    applications = count_applications(monkeypatch)
    residual = analysis_module._residual

    def counted(*args, **kwargs):
        calls["residual"] += 1
        return residual(*args, **kwargs)

    monkeypatch.setattr(analysis_module, "_residual", counted)
    for entry in FIXED_POINT_SOLVERS:
        calls.clear()
        applications.clear()
        GAIN_ENTRY_POINTS[entry](model, cost, gain)
        assert calls == Counter(residual=1)
        assert applications["prepared"] == 1 and applications["applied"] >= 3


@pytest.mark.parametrize("entry", FIXED_POINT_SOLVERS)
def test_an_accepted_packed_solve_applies_its_map_once(sec6, monkeypatch, entry):
    # The packed LU is the only solver below MATRIX_FREE_MIN_N states, and
    # the gate forms T(X) once for both the residual and the certificate.
    model, cost = sec6
    assert model.state_dim < analysis_module.MATRIX_FREE_MIN_N
    calls = count_applications(monkeypatch)
    GAIN_ENTRY_POINTS[entry](model, cost, L0_3)
    assert calls == Counter(prepared=1, applied=1)


def test_matrix_free_rejections_report_the_exact_radius():
    # Noise-driven instability with a Schur-stable mean loop (also with
    # Q = 0, where the splitting settles at once on P = 0, which certifies
    # nothing), a mean loop that is not Schur-stable, and a gain whose powers
    # overflow: each raises NotAdmissibleError with is_admissible's radius,
    # without a numpy warning on the way.
    rng = np.random.default_rng(5)
    noisy, noisy_cost = scaled_noise_system(rng, splitting_rate=1.05)
    zero_q = CostModel(Q=np.zeros_like(noisy_cost.Q), R=noisy_cost.R)
    wide, wide_cost = wide_system(rng)
    unstable = 3.0 * np.linalg.pinv(wide.B)
    assert np.abs(np.linalg.eigvals(wide.A + wide.B @ unstable)).max() > 1.0
    noisy_zero = np.zeros((noisy.input_dim, noisy.state_dim))
    cases = [(noisy, noisy_cost, noisy_zero), (noisy, zero_q, noisy_zero),
             (wide, wide_cost, unstable),
             (wide, wide_cost, 1e200 * np.eye(wide.input_dim, wide.state_dim))]
    for model, cost, gain in cases:
        admissible, rho = is_admissible(model, gain)
        assert not admissible
        for entry in FIXED_POINT_SOLVERS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotAdmissibleError) as err:
                    GAIN_ENTRY_POINTS[entry](model, cost, gain)
            assert err.value.spectral_radius == rho


def test_policy_iteration_on_the_matrix_free_path(monkeypatch):
    # Ten pi_n20-style runs: every solve is matrix-free, and so is the
    # initial exact check wherever its power steps close the Perron bracket
    # (8 of the 10); where they hand over to the inverse steps, that is the
    # run's one packed build. Each path matches the packed solver's, sweep
    # for sweep.
    calls = count_packed_builds(monkeypatch)
    closed = 0
    for seed in range(6, 16):
        model, cost = wide_system(np.random.default_rng(seed), n=20)
        gain = np.zeros((model.input_dim, model.state_dim))
        calls.clear()
        is_admissible(model, gain)
        check = calls["packed"]
        closed += check == 0
        calls.clear()
        trace = policy_iteration(model, cost, gain)
        assert trace.converged and calls["packed"] == check <= 1
        dense = packed_solve(monkeypatch, lambda: policy_iteration(model, cost, gain))
        assert trace.iterations == dense.iterations
        p = trace.kernels[-1]
        assert np.linalg.norm(riccati_residual(model, cost, p)) < 1e-9 * np.linalg.norm(p)
        for kernel, expected in zip(trace.kernels, dense.kernels):
            assert np.linalg.norm(kernel - expected) <= 1e-12 * np.linalg.norm(expected)
    assert closed >= 8


def count_applications(monkeypatch, key="applied"):
    """Count the applications of T that _operator prepares ("prepared") and
    the calls of each (key)."""
    calls = Counter()
    operator = analysis_module._operator

    def counted_operator(stack):
        apply = operator(stack)
        calls["prepared"] += 1

        def counted(x):
            calls[key] += 1
            return apply(x)

        return counted

    monkeypatch.setattr(analysis_module, "_operator", counted_operator)
    return calls


def count_sweeps(monkeypatch):
    """Count the splitting's sweeps in calls["sweeps"]: one application of
    T each. The gate's check of a solver's X makes one more application,
    followed by one _residual call, so each _residual call takes one back
    off. The power steps of an exact check count as sweeps too."""
    calls = count_applications(monkeypatch, key="sweeps")
    residual = analysis_module._residual

    def counted_residual(x, tx, rhs):
        calls["sweeps"] -= 1
        return residual(x, tx, rhs)

    monkeypatch.setattr(analysis_module, "_residual", counted_residual)
    return calls


def test_policy_iteration_calls_the_traced_entry_points(monkeypatch):
    # The benchmark's tracer times policy_iteration's module attributes
    # is_admissible and solve_value_kernel: a run makes one exact check, for
    # its initial gain, and one solve per sweep. Sweep 0 starts cold and
    # each later sweep from the kernel returned in the sweep before it.
    pi_module = importlib.import_module("slqr.policy_iteration")
    checks, starts, kernels = [], [], []

    def check(*args, **kwargs):
        checks.append(args)
        return is_admissible(*args, **kwargs)

    def solve(model, cost, gain, start=None):
        starts.append(start)
        kernels.append(solve_value_kernel(model, cost, gain, start))
        return kernels[-1]

    monkeypatch.setattr(pi_module, "is_admissible", check)
    monkeypatch.setattr(pi_module, "solve_value_kernel", solve)
    model, cost = wide_system(np.random.default_rng(7), n=20)
    trace = policy_iteration(model, cost, np.zeros((model.input_dim, model.state_dim)))
    assert trace.converged and trace.iterations > 2
    assert len(checks) == 1
    assert len(kernels) == trace.iterations
    assert all(p is kernel for p, kernel in zip(trace.kernels, kernels))
    assert starts[0] is None
    assert all(start is kernel for start, kernel in zip(starts[1:], kernels))


def test_warm_started_policy_iteration_matches_cold_solves(monkeypatch):
    # Each kernel on the warm-started path is the cold solve of its gain,
    # the run takes as many sweeps of policy iteration as a cold run, and
    # the warm starts save splitting sweeps in total.
    pi_module = importlib.import_module("slqr.policy_iteration")
    rng = np.random.default_rng(12)
    totals = Counter()
    for _ in range(10):
        model, cost = wide_system(rng, n=20)
        gain = np.zeros((model.input_dim, model.state_dim))
        with monkeypatch.context() as patch:
            calls = count_sweeps(patch)
            warm = policy_iteration(model, cost, gain)
            totals["warm"] += calls["sweeps"]
        with monkeypatch.context() as patch:
            calls = count_sweeps(patch)
            patch.setattr(pi_module, "solve_value_kernel",
                          lambda model, cost, gain, start=None:
                          solve_value_kernel(model, cost, gain))
            cold = policy_iteration(model, cost, gain)
            totals["cold"] += calls["sweeps"]
        assert warm.converged and warm.iterations == cold.iterations
        for gain, p in zip(warm.gains, warm.kernels):
            expected = solve_value_kernel(model, cost, gain)
            assert np.linalg.norm(p - expected) <= 1e-12 * np.linalg.norm(expected)
    assert totals["warm"] < totals["cold"]


def test_hostile_starts_return_the_cold_kernel(monkeypatch):
    # Any start gives the cold kernel, without a numpy warning: after a
    # start that is not finite the splitting gives up and the packed LU
    # answers; the exact answer still takes two sweeps, as the stop rule
    # needs the ratio of two steps.
    rng = np.random.default_rng(13)
    model, cost = wide_system(rng)
    other, other_cost = wide_system(rng)
    n = model.state_dim
    gain = random_admissible_gain(model, rng)
    cold = solve_value_kernel(model, cost, gain)
    other_zero = np.zeros((other.input_dim, n))
    starts = {"zeros": np.zeros((n, n)), "inf": np.full((n, n), np.inf),
              "nan": np.where(np.eye(n) > 0, np.nan, cold),
              "non-symmetric": cold + rng.normal(size=(n, n)),
              "other system": solve_value_kernel(other, other_cost, other_zero),
              "exact": cold}
    for name, start in starts.items():
        with monkeypatch.context() as patch:
            calls = count_sweeps(patch)
            builds = count_packed_builds(patch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p = solve_value_kernel(model, cost, gain, start)
        assert np.linalg.norm(p - cold) <= 1e-12 * np.linalg.norm(cold), name
        assert np.array_equal(p, p.T), name
        finite = np.isfinite(start).all()
        assert builds["packed"] == (0 if finite else 1), name
        assert calls["sweeps"] >= 2 or not finite, name
    for shape in ((n, n + 1), (n - 1, n - 1)):
        with pytest.raises(ValidationError, match=r"^start must have shape"):
            solve_value_kernel(model, cost, gain, np.zeros(shape))
    with pytest.raises(ValidationError,
                       match=rf"^start must be a 2-d matrix, got shape \({n},\)$"):
        solve_value_kernel(model, cost, gain, np.zeros(n))


def test_the_packed_solve_ignores_the_start(sec6):
    # Below MATRIX_FREE_MIN_N states the packed LU is the only path, and a
    # start of the right shape does not change a bit of its answer.
    model, cost = sec6
    assert model.state_dim < analysis_module.MATRIX_FREE_MIN_N
    p = solve_value_kernel(model, cost, L0_3)
    for start in (np.full((3, 3), np.nan), p, np.ones((3, 3))):
        assert np.array_equal(solve_value_kernel(model, cost, L0_3, start), p)
    with pytest.raises(ValidationError, match=r"^start must have shape \(3, 3\)"):
        solve_value_kernel(model, cost, L0_3, np.zeros((2, 2)))


def margin_system(rng, gap):
    """scaled_noise_system with rho(T) = 1 - gap at the zero gain."""
    return scaled_noise_system(rng, splitting_rate=1.0 - gap / 0.64)


def eigenvalue_certificate(x, tx):
    """The certificate with lmax(X) in place of |X|_F: a weaker rule that
    _certified must imply."""
    x_eigs = np.linalg.eigvalsh(x)
    return bool(x_eigs[0] > 0
                and np.linalg.eigvalsh(x - tx)[0] > ADMISSIBILITY_MARGIN * x_eigs[-1])


def test_the_cholesky_certificate_rejects_what_it_cannot_show():
    certified = analysis_module._certified
    n = 3
    # X not positive definite, although X - T(X) = 3 I is (T = 4 X).
    assert not certified(-np.eye(n), -4.0 * np.eye(n))
    # X - T(X) indefinite: T(I) = diag(1.44, 0.25, 0.25) for F = diag(1.2, 0.5, 0.5).
    f = np.diag([1.2, 0.5, 0.5])
    assert not certified(np.eye(n), analysis_module._operator(np.array([f]))(np.eye(n)))
    # A non-finite T(X); -inf on the diagonal would even factor.
    for bad in (np.full((n, n), np.nan), np.diag([-np.inf, 0.0, 0.0])):
        assert not certified(np.eye(n), bad)
    assert certified(np.eye(n), 0.5 * np.eye(n))
    # rho = 1 - 1e-11: X = (I - T)^-1 (I) and X - T(X) are positive definite,
    # but lmin(X - T(X)) / |X|_F is inside the margin.
    model, _ = margin_system(np.random.default_rng(14), 1e-11)
    factors = moment_operator(model, np.zeros((model.input_dim, model.state_dim)))
    x = analysis_module._packed_solve(factors, np.eye(model.state_dim))
    tx = analysis_module._operator(factors)(x)
    np.linalg.cholesky(x)
    np.linalg.cholesky(x - tx)
    assert not certified(x, tx)


def test_the_cholesky_certificate_implies_the_eigenvalue_certificate():
    # Over 200 solves, random ones and some with rho inside the margin,
    # every certificate also holds with lmax(X) in place of |X|_F.
    certified = analysis_module._certified
    rng = np.random.default_rng(15)
    draws = []
    for i in range(90):
        model, cost = wide_system(rng) if i % 9 == 0 else random_admissible_system(rng)
        draws.append((model, cost, random_admissible_gain(model, rng)))
    for gap in np.geomspace(1e-12, 1e-10, 10):
        model, cost = margin_system(rng, gap)
        draws.append((model, cost, np.zeros((model.input_dim, model.state_dim))))
    outcomes = Counter()
    for model, cost, gain in draws:
        factors = moment_operator(model, gain)
        for hs, rhs in ((factors, model.D),
                        (adjoint(factors), cost.Q + gain.T @ cost.R @ gain)):
            x = analysis_module._packed_solve(hs, rhs)
            tx = analysis_module._operator(hs)(x)
            new, old = certified(x, tx), eigenvalue_certificate(x, tx)
            assert old or not new
            outcomes[new] += 1
    assert sum(outcomes.values()) == 200 and outcomes[True] >= 170


# --- The Perron bracket of is_admissible, from PERRON_MIN_N states on ---
def count_eigvals(monkeypatch):
    calls = Counter()
    eigvals = np.linalg.eigvals

    def counted(mat):
        calls["eigvals"] += 1
        return eigvals(mat)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def packed_radius(model, gain):
    return float(np.abs(np.linalg.eigvals(packed(moment_operator(model, gain)))).max())


def test_perron_bracket_replaces_the_eigenvalues_from_the_size_gate(monkeypatch):
    # A pi_n20-style system, at the zero gain and at a random admissible one:
    # no eigenvalue problem, and the radius of the packed matrix to 1e-10.
    # One state below the gate, the eigenvalues decide.
    rng = np.random.default_rng(8)
    model, _ = wide_system(rng, n=20)
    expected = []
    for gain in (np.zeros((model.input_dim, 20)), random_admissible_gain(model, rng)):
        expected.append((gain, packed_radius(model, gain)))
    calls = count_eigvals(monkeypatch)
    for gain, rho_eig in expected:
        admissible, rho = is_admissible(model, gain)
        assert admissible and abs(rho - rho_eig) <= 1e-10 * rho_eig
    assert calls["eigvals"] == 0
    small, _ = wide_system(rng, n=analysis_module.PERRON_MIN_N - 1)
    is_admissible(small, np.zeros((small.input_dim, small.state_dim)))
    assert calls["eigvals"] == 1


def test_loops_without_a_positive_definite_perron_vector_fall_back(monkeypatch):
    # A block-diagonal loop: T's Perron vector lives on the slower-decaying
    # block and is singular, so the bracket cannot close. A deadbeat loop
    # (A nilpotent) has T^n(I) = 0, and the power steps end at 0/0. Both
    # times the eigenvalues of the packed matrix decide, without a numpy
    # warning.
    rng = np.random.default_rng(9)
    n = EVEN_BRACKET_N
    blocks = []
    for radius in (0.9, 0.5):
        a = rng.normal(size=(n // 2, n // 2))
        blocks.append(a * radius / np.abs(np.linalg.eigvals(a)).max())
    zero = np.zeros((n // 2, n // 2))
    cases = [(np.block([[blocks[0], zero], [zero, blocks[1]]]), 0.81),
             (np.triu(rng.normal(size=(n, n)), 1), 0.0)]
    gain = np.zeros((2, n))
    calls = count_eigvals(monkeypatch)
    for a, rho_exact in cases:
        model = SystemModel(A=a, B=np.eye(n, 2), D=np.eye(n), X0=np.eye(n))
        rho_eig = packed_radius(model, gain)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_admissible(model, gain) == (True, rho_eig)
        assert calls["eigvals"] == 1
        assert rho_eig == pytest.approx(rho_exact, abs=1e-12)


def test_overflowing_power_steps_fall_back_without_warnings(monkeypatch):
    # The packed matrix is finite (entries near 1e307), but a power step
    # overflows: the eigenvalues decide, and numpy does not warn.
    model, _ = wide_system(np.random.default_rng(3))
    gain = 10.0 ** 153.75 * np.eye(model.input_dim, model.state_dim)
    rho_eig = packed_radius(model, gain)
    assert np.isfinite(rho_eig)
    calls = count_eigvals(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_admissible(model, gain) == (False, rho_eig)
    assert calls["eigvals"] == 1


@pytest.mark.parametrize("rho_target", [1e24, 1e-40])
def test_iterates_leaving_the_float_range_within_a_block_fall_back(monkeypatch, rho_target):
    # The power iterate is normalised once per 16 steps, so it moves by
    # rho^16 in between: at rho = 1e24 it overflows within one block, at
    # rho = 1e-40 it vanishes. The eigenvalues then decide, with no numpy
    # warning, and give the verdict and radius that a closed bracket gives
    # (to 1e-12). Scaling A by c and every variance by c^2 scales T by c^2.
    base, _ = wide_system(np.random.default_rng(3))
    gain = np.zeros((base.input_dim, base.state_dim))
    c2 = rho_target / packed_radius(base, gain)
    model = SystemModel(A=np.sqrt(c2) * base.A, B=base.B, D=base.D, X0=base.X0,
                        state_noise=[(a, c2 * v) for a, v in base.state_noise])
    rho_eig = packed_radius(model, gain)
    assert rho_eig == pytest.approx(rho_target, rel=1e-12)
    calls = count_eigvals(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_admissible(model, gain) == (rho_target < 1.0, rho_eig)
    assert calls["eigvals"] == 1


def test_periodic_loop_gets_the_perron_root(monkeypatch):
    # A weighted cyclic shift: A's eigenvalues are r times the n-th roots of
    # unity, so T has every r^2 w (w^n = 1) on its spectral circle, -r^2
    # among them, and power steps alone cycle. Their bracket does not
    # narrow, so the shifted inverse steps take over at the first bracket,
    # with the run's one packed build, and close it on both sides of the
    # stability edge.
    rng = np.random.default_rng(10)
    n = EVEN_BRACKET_N
    weights = rng.uniform(0.5, 1.5, size=n)
    cycle = np.roll(np.eye(n), 1, axis=0) * weights / np.prod(weights) ** (1.0 / n)
    cases = []
    for r in (0.9, 1.1):
        model = SystemModel(A=r * cycle, B=np.eye(n, 2), D=np.eye(n), X0=np.eye(n))
        cases.append((model, r * r))
    gain = np.zeros((2, n))
    assert np.isclose(np.linalg.eigvals(packed(moment_operator(cases[0][0], gain))),
                      -0.81).any()
    calls = count_eigvals(monkeypatch)
    builds = count_packed_builds(monkeypatch)
    for model, rho_exact in cases:
        builds.clear()
        admissible, rho = is_admissible(model, gain)
        assert admissible == (rho_exact < 1.0)
        assert abs(rho - rho_exact) <= 1e-12
        assert builds["packed"] == 1
    assert calls["eigvals"] == 0


def test_a_bracket_across_the_margin_leaves_the_decision_to_the_eigenvalues(monkeypatch):
    # With the width rule lifted, any bracket is accepted except one that
    # holds 1 - margin: there its midpoint could fall on the wrong side.
    # Scaling A by c and every variance by c^2 scales T by c^2.
    monkeypatch.setattr(analysis_module, "PERRON_RTOL", 1.0)
    edge = 1.0 - ADMISSIBILITY_MARGIN
    base, _ = wide_system(np.random.default_rng(11))
    gain = np.zeros((base.input_dim, base.state_dim))
    rho_base = packed_radius(base, gain)
    calls = count_eigvals(monkeypatch)
    for rho_target, fallbacks in ((0.5, 0), (edge - 1e-12, 1), (edge + 1e-12, 1)):
        c2 = rho_target / rho_base
        model = SystemModel(A=np.sqrt(c2) * base.A, B=base.B, D=base.D, X0=base.X0,
                            state_noise=[(a, c2 * v) for a, v in base.state_noise])
        rho_eig = packed_radius(model, gain)
        calls.clear()
        admissible, rho = is_admissible(model, gain)
        assert calls["eigvals"] == fallbacks
        if fallbacks:
            assert (admissible, rho) == (rho_eig < edge, rho_eig)


def test_a_stalled_bracket_stops_the_inverse_steps(monkeypatch):
    # A graded loop, A = diag(0.9 ... 0.09) with one weak noise channel: the
    # Perron vector is ill-conditioned, and the bracket's rounding floor
    # (about 1e-11 wide) lies above PERRON_RTOL. The first inverse step that
    # does not nest its bracket in the last one hands over to the
    # eigenvalues, instead of running all PERRON_INVERSE_STEPS. The
    # eigenvalues read the packed matrix that the inverse steps built, so
    # the check builds it once.
    rng = np.random.default_rng(0)
    n = analysis_module.PERRON_MIN_N
    noise = rng.normal(size=(n, n))
    model = SystemModel(A=np.diag(np.geomspace(0.9, 0.09, n)), B=np.eye(n, 2),
                        D=np.eye(n), X0=np.eye(n),
                        state_noise=[(noise / np.linalg.norm(noise, 2), 1e-2)])
    gain = np.zeros((2, n))
    rho_eig = packed_radius(model, gain)
    calls = count_eigvals(monkeypatch)
    solve = np.linalg.solve

    def counted_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    builds = count_packed_builds(monkeypatch)
    assert is_admissible(model, gain) == (True, rho_eig)
    assert calls["eigvals"] == 1 and 1 <= calls["solve"] <= 3
    assert builds["packed"] == 1


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(n=st.integers(analysis_module.PERRON_MIN_N, 20), seed=st.integers(0, 2**32 - 1),
       log_scale=st.one_of(st.none(), st.floats(-3.0, 0.5)))
def test_the_perron_radius_is_the_eigenvalue_radius(n, seed, log_scale):
    # From the size gate on, is_admissible's radius is that of the packed
    # matrix's eigenvalues to 1e-12, at the zero gain (log_scale None) and
    # along a random gain direction, on either side of the edge.
    rng = np.random.default_rng(seed)
    model, _ = wide_system(rng, n)
    gain = np.zeros((model.input_dim, n))
    if log_scale is not None:
        gain = 10.0 ** log_scale * rng.normal(size=gain.shape)
    rho_eig = packed_radius(model, gain)
    assert abs(is_admissible(model, gain)[1] - rho_eig) <= 1e-12 * rho_eig


def test_pi_n20_policy_iteration_makes_no_eigenvalue_problem(monkeypatch, load_perfbench):
    # Ten systems of the pi_n20 benchmark: the initial exact check closes
    # its Perron bracket (no eigvals call), with the eigenvalue radius to
    # 1e-12 on the first five. Every solve stays matrix-free, and so does
    # the check wherever its power steps close the bracket (8 of the 10);
    # elsewhere its hand-over to the inverse steps is the run's one packed
    # build.
    workloads = load_perfbench("workloads")
    closed = 0
    for index in range(10):
        model, cost = workloads.pi_system(0, index)
        gain = np.zeros((model.input_dim, model.state_dim))
        if index < 5:
            rho_eig = packed_radius(model, gain)
            assert abs(is_admissible(model, gain)[1] - rho_eig) <= 1e-12 * rho_eig
        with monkeypatch.context() as patch:
            packed = count_packed_builds(patch)
            is_admissible(model, gain)
            check = packed["packed"]
            packed.clear()
            calls = count_eigvals(patch)
            trace = policy_iteration(model, cost, gain)
        assert trace.converged, index
        assert calls["eigvals"] == 0 and packed["packed"] == check <= 1, index
        closed += check == 0
    assert closed >= 8
