import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from slqr import packing, qlearning
from slqr.analysis import average_cost, policy_improvement, q_kernel_matrix, solve_value_kernel
from slqr.config import fixture_path, load_config
from slqr.errors import InsufficientExcitationError, UnreliableKernelError, ValidationError
from slqr.packing import congruence, unvech, unvecs, vech, vecs
from slqr.policy_iteration import policy_iteration
from slqr.qlearning import (
    COST_MODES,
    LearnerConfig,
    LearningResult,
    bls_estimate,
    feature_matrix,
    iteration_seed,
    learn_from_rollouts,
    policy_from_h,
    rls_estimate,
    run_online_learning,
)
from slqr.system import (
    ROLLOUT_BLOCK,
    CostModel,
    RolloutBuffers,
    SystemModel,
    Trajectory,
    simulate_closed_loop,
)

from random_instances import random_admissible_gain, random_admissible_system

L0_3 = np.zeros((3, 3))


def det_model(model):
    # Deterministic-limit twin of a plant: same A, B, no noise.
    n = model.state_dim
    return SystemModel(A=model.A, B=model.B, D=np.zeros((n, n)), X0=np.eye(n))


def noise_correction(gain, cov):
    # K_L vech(D), K_L = congruence([I; L]): vech([I; L] D [I; L]^T), the
    # additive noise's share of the next on-policy features.
    return congruence(np.vstack([np.eye(len(cov)), gain])[None]) @ vech(cov)


def test_feature_matrix_examples():
    np.testing.assert_array_equal(feature_matrix([[1.0]], [[2.0]]), [[1.0, 2.0, 4.0]])
    np.testing.assert_array_equal(feature_matrix(np.zeros((1, 2)), np.zeros((1, 1))),
                                  np.zeros((1, 6)))


def test_feature_rows_evaluate_quadratic_forms():
    rng = np.random.default_rng(12)
    for _ in range(100):
        r = int(rng.integers(2, 8))
        k = int(rng.integers(1, r))   # z's first k entries are the state
        z = rng.normal(size=r)
        s = rng.normal(size=(r, r))
        s = s + s.T
        lhs = feature_matrix(z[None, :k], z[None, k:])[0] @ vecs(s)
        rhs = z @ s @ z
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_feature_matrix_rows_are_vech_of_outer_products():
    rng = np.random.default_rng(13)
    states = rng.normal(size=(9, 3))
    inputs = rng.normal(size=(9, 2))
    batch = feature_matrix(states, inputs)
    for k in range(9):
        z = np.concatenate([states[k], inputs[k]])
        np.testing.assert_array_equal(batch[k], vech(np.outer(z, z)))


def test_feature_matrix_names_inputs_of_another_length():
    with pytest.raises(ValidationError, match=r"^inputs must have shape \(5, 1\), got \(4, 1\)$"):
        feature_matrix(np.ones((5, 2)), np.ones((4, 1)))
    with pytest.raises(ValidationError, match=r"^states must be a 2-d matrix, got shape \(5,\)$"):
        feature_matrix(np.ones(5), np.ones((5, 1)))


@pytest.mark.parametrize("bad, message", [
    ("ab", "must be a matrix of real numbers"),
    ([[1.0], [1.0, 2.0]], "must be a matrix of real numbers"),
    (np.ones(2), r"must be a 2-d matrix, got shape \(2,\)"),
], ids=["string", "ragged", "vector"])
@pytest.mark.parametrize("arg", ["states", "inputs"])
def test_feature_matrix_of_anything_but_rows_is_a_validation_error(arg, bad, message):
    args = {"states": np.ones((2, 1)), "inputs": np.ones((2, 1)), arg: bad}
    with pytest.raises(ValidationError, match=rf"^{arg} {message}$"):
        feature_matrix(**args)


def test_feature_matrix_keeps_non_finite_rows():
    # The fit checks each window's rows itself.
    states = np.array([[1.0], [np.nan], [np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = feature_matrix(states, np.ones((3, 1)))
    np.testing.assert_array_equal(batch[0], [1.0, 1.0, 1.0])
    assert np.isnan(batch[1, :2]).all() and batch[2, 0] == np.inf


def test_gain_map_gives_the_on_policy_features():
    # K_L, the congruence of the one factor [I; L], maps vech(x x^T) to the
    # features of (x, L x), for every shape.
    rng = np.random.default_rng(14)
    shapes = [(1, 1)] + [(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
                         for _ in range(30)]
    for n, m in shapes:
        gain = rng.normal(size=(m, n))
        kmap = congruence(np.vstack([np.eye(n), gain])[None])
        assert kmap.shape == ((n + m) * (n + m + 1) // 2, n * (n + 1) // 2)
        for _ in range(5):
            x = rng.normal(size=n)
            expected = feature_matrix(x[None], (gain @ x)[None])[0]
            got = kmap @ vech(np.outer(x, x))
            assert np.abs(got - expected).max() <= 1e-14 * max(1.0, np.abs(expected).max())


def _dense_normal_equations(traj, gain, noise_cov, weighted):
    # The textbook form Psi^T G h = Psi^T c from whole-rollout feature arrays.
    phi = feature_matrix(traj.states[:-1], traj.inputs[:-1])
    phi_next = feature_matrix(traj.states[1:], traj.states[1:] @ gain.T)
    regressors = phi - phi_next
    costs = traj.costs
    z = np.hstack([traj.states[:-1], traj.inputs[:-1]])
    weights = (1.0 + (z ** 2).sum(axis=1)) ** -2 if weighted else np.ones(len(costs))
    psi = weights[:, None] * phi
    if noise_cov is not None:
        regressors = regressors + noise_correction(gain, noise_cov)
    else:
        psi = np.hstack([psi, weights[:, None]])
        regressors = np.hstack([regressors, np.ones((len(costs), 1))])
    return psi.T @ regressors, psi.T @ costs


@pytest.fixture
def feature_builds(monkeypatch):
    """Row counts of every feature_matrix call the fit makes."""
    builds = []
    original = qlearning.feature_matrix

    def counted(states, inputs, out=None):
        builds.append(len(states))
        return original(states, inputs, out=out)

    monkeypatch.setattr(qlearning, "feature_matrix", counted)
    return builds


FIT_MODES = {"known_d": (True, True), "empirical": (True, False),
             "plain_known_d": (False, True), "plain": (False, False)}


def _dense_moment_sums(traj, noise, weighted, ridge):
    # The model's Gram sum w phi phi^T + ridge I and its columns
    # [sum w phi (psi' - d)^T | sum w phi c] from whole-rollout arrays.
    phi = feature_matrix(traj.states[:-1], traj.inputs[:-1])
    next_moments = feature_matrix(traj.states[1:], np.empty((len(phi), 0)))
    z = np.hstack([traj.states[:-1], traj.inputs[:-1]])
    weights = (1.0 + (z ** 2).sum(axis=1)) ** -2 if weighted else np.ones(len(phi))
    psi = weights[:, None] * phi
    gram = psi.T @ phi + ridge * np.eye(phi.shape[1])
    return gram, psi.T @ np.column_stack([next_moments - noise, traj.costs])


@pytest.mark.parametrize("mode", sorted(FIT_MODES))
@pytest.mark.parametrize("n_steps", [21, ROLLOUT_BLOCK - 1, ROLLOUT_BLOCK, ROLLOUT_BLOCK + 1,
                                     2 * ROLLOUT_BLOCK + 37])
def test_streamed_normal_equations_match_the_dense_form(sec6, feature_builds, mode,
                                                        n_steps):
    # The windowed pass must give the model of the whole-rollout sums at every
    # window boundary, building each window's features once: the model solves
    # the dense normal equations to a backward error of roundoff, and without
    # D its D-hat is the dense regression's intercept. 21 = s at n = m = 3 is
    # the shortest rollout the fit accepts, but for D-hat, whose regression
    # has s + 1 unknowns. The second plant has n = 4 states, m = 2 inputs and
    # both channel kinds, so s = 21 again but the next-state block is 10 wide.
    # A small ridge keeps the 21-sample Grams solvable, and every mode takes it.
    weighted, known_d = FIT_MODES[mode]
    plant, plant_cost = random_admissible_system(np.random.default_rng(22), max_state_dim=4,
                                                 max_input_dim=3)
    assert (plant.state_dim, plant.input_dim) == (4, 2) and plant.input_noise
    cases = [(*sec6, -0.3 * np.eye(3)),
             (plant, plant_cost, random_admissible_gain(plant, np.random.default_rng(22)))]
    for model, cost, gain in cases:
        feature_builds.clear()
        traj = simulate_closed_loop(model, cost, gain, n_steps, 0.64, 31)
        noise_cov = model.D if known_d else None
        if not known_d and n_steps == 21:
            with pytest.raises(InsufficientExcitationError, match="21 samples cannot identify 22"):
                qlearning._moment_model(traj, noise_cov, weighted, 1e-8)
            continue
        moments, costs, noise = qlearning._moment_model(traj, noise_cov, weighted, 1e-8)
        if known_d:
            np.testing.assert_array_equal(noise, vech(model.D))
        else:
            intercept = _dense_noise_regression(traj, weighted)[1][-1]
            gap = np.linalg.norm(noise - intercept) / np.linalg.norm(intercept)
            assert gap <= 1e-9          # 1.7e-11 measured, unweighted on the n = 4 plant
        # The fit without D is known_d's with the pass's D-hat.
        gram, columns = _dense_moment_sums(traj, noise, weighted, 1e-8)
        model_coef = np.column_stack([moments, costs])
        residual = np.linalg.norm(gram @ model_coef - columns)
        scale = np.linalg.norm(gram) * np.linalg.norm(model_coef) + np.linalg.norm(columns)
        assert residual <= 1e-14 * scale                   # 1.2e-16 measured
        windows = math.ceil(n_steps / ROLLOUT_BLOCK)
        assert len(feature_builds) == windows
        assert sum(feature_builds) == n_steps + windows     # each window reads one row more


def _dense_noise_regression(traj, weighted=True):
    # M = sum w [phi; 1][phi; 1]^T and the coefficients of the regression of
    # vech(x_{k+1} x_{k+1}^T) on [phi(z_k); 1] with the learner's weights or
    # unit ones, from whole-rollout arrays; the last row is vech(D-hat).
    phi = feature_matrix(traj.states[:-1], traj.inputs[:-1])
    z = np.hstack([traj.states[:-1], traj.inputs[:-1]])
    weights = (1.0 + (z ** 2).sum(axis=1)) ** -2 if weighted else np.ones(len(phi))
    regressors = np.hstack([phi, np.ones((len(weights), 1))])
    instruments = weights[:, None] * regressors
    next_moments = feature_matrix(traj.states[1:], np.empty((len(weights), 0)))
    gram = instruments.T @ regressors
    return gram, np.linalg.solve(gram, instruments.T @ next_moments)


def _identity_case(plant):
    # (model, cost, rollout gain, off-policy gain, rollout length, probe
    # variance, rls_init_scale): the fixtures at their learner settings from
    # the zero gain, or the n = 4, m = 2 plant from one of its admissible gains.
    if plant == "n4":
        model, cost = random_admissible_system(np.random.default_rng(22), max_state_dim=4,
                                               max_input_dim=3)
        gain = random_admissible_gain(model, np.random.default_rng(22))
        return model, cost, gain, 0.5 * gain, 20000, 0.64, 1e8
    config = load_config(fixture_path(plant))
    model, learner = config.model, config.learner
    off_policy = -0.3 * np.eye(3) if plant == "example_sec6" else np.array([[-0.2]])
    return (model, config.cost, np.zeros((model.input_dim, model.state_dim)), off_policy,
            learner.rollout_len, learner.probe_var, learner.rls_init_scale)


@pytest.mark.parametrize("plant", ["example_sec6", "scalar_smoke", "n4"])
@pytest.mark.parametrize("policy", ["on", "off"])
def test_empirical_fit_is_the_lambda_column_fit(plant, policy):
    # Without D the fit estimates D-hat, the intercept of the weighted
    # regression of vech(x_{k+1} x_{k+1}^T) on [phi(z_k); 1], and is the
    # known_d fit with it. The reference fits lambda as one more
    # coefficient instead: regressor 1 against the instruments [w phi; w],
    # with the same ridge eps = 1/rls_init_scale on every unknown. The two
    # differ by exactly delta = mu - eps (M^-1 [h; lambda])_s, where h and
    # lambda are the reference's, M = sum w [phi; 1][phi; 1]^T and mu is the
    # intercept of the weighted regression of the costs on [phi; 1], which
    # is 0 up to roundoff for stage costs z^T diag(Q, R) z: lambda moves by
    # delta (1 - corr^T A^-1 t) and h by -A^-1 t delta, where A is the
    # ridged known_d gram with D-hat, corr its correction and t = sum w phi.
    model, cost, gain, off_policy, n_steps, probe_var, scale = _identity_case(plant)
    traj = simulate_closed_loop(model, cost, gain, n_steps, probe_var, 5)
    if policy == "off":
        gain = off_policy
    dense_gram, dense_rhs = _dense_normal_equations(traj, gain, None, weighted=True)
    reference = np.linalg.solve(dense_gram + np.eye(len(dense_rhs)) / scale, dense_rhs)
    kernel, lam = qlearning._fit_iteration(traj, gain, None, scale)

    moments, coef = _dense_noise_regression(traj)
    d_hat = qlearning._moment_model(traj, None, True, 1.0 / scale)[2]
    assert np.allclose(d_hat, coef[-1], rtol=1e-9, atol=0)
    gram, _ = _dense_normal_equations(traj, gain, unvech(d_hat), weighted=True)
    gram[np.diag_indices_from(gram)] += 1.0 / scale
    correction = noise_correction(gain, unvech(d_hat))
    lift = np.linalg.solve(gram, moments[:-1, -1])             # A^-1 t
    delta = -np.linalg.solve(moments, reference)[-1] / scale
    lam_shift, h_shift = delta * (1.0 - correction @ lift), -delta * lift
    assert abs(reference[-1] - lam - lam_shift) <= 1e-2 * abs(lam_shift)
    h_gap = reference[:-1] - vecs(kernel)
    assert np.linalg.norm(h_gap - h_shift) <= 1e-2 * np.linalg.norm(h_shift)
    # The ridge's share is far below any estimation error.
    assert abs(reference[-1] - lam) <= 1e-8 * abs(lam)
    assert np.linalg.norm(h_gap) <= 1e-8 * np.linalg.norm(reference[:-1])


@pytest.mark.parametrize("mode", sorted(FIT_MODES))
@pytest.mark.parametrize("policy", ["on", "off"])
@pytest.mark.parametrize("plant", ["example_sec6", "scalar_smoke", "n4"])
def test_fit_is_the_dense_textbook_solve(plant, policy, mode):
    # Plug-in evaluation on the moment model is the textbook solve
    # (eps I + Psi^T G) h = Psi^T c on whole-rollout arrays, eps =
    # 1/rls_init_scale for the learner's fit and 0 for the plain one, with
    # lambda = (K_L d)^T h; each fit without D is its known_d form with the
    # fit's D-hat.
    # The bounds are the dense solve's own roundoff: at most 2.7e-14 was
    # measured on the weighted fits and 8.2e-15 on the plain fixture ones,
    # and 2.7e-10 on the plain n = 4 ones, whose Gram is worse conditioned.
    weighted, known_d = FIT_MODES[mode]
    model, cost, gain, off_policy, n_steps, probe_var, scale = _identity_case(plant)
    traj = simulate_closed_loop(model, cost, gain, n_steps, probe_var, 5)
    if policy == "off":
        gain = off_policy
    noise_cov = model.D if known_d else None
    ridge = 1.0 / scale if weighted else 0.0
    if weighted:
        kernel, lam = qlearning._fit_iteration(traj, gain, noise_cov, scale)
    else:
        kernel = bls_estimate(traj, gain, noise_cov)
    if not known_d:
        noise_cov = unvech(qlearning._moment_model(traj, None, weighted, ridge)[2])
    gram, rhs = _dense_normal_equations(traj, gain, noise_cov, weighted)
    dense = np.linalg.solve(gram + ridge * np.eye(len(rhs)), rhs)
    bound = 1e-9 if plant == "n4" and not weighted else 1e-13
    assert np.linalg.norm(vecs(kernel) - dense) <= bound * np.linalg.norm(dense)
    if weighted:
        dense_lam = noise_correction(gain, noise_cov) @ dense
        assert abs(lam - dense_lam) <= bound * abs(dense_lam)


def _corrupt(traj, kind):
    states, inputs, costs = traj.states.copy(), traj.inputs.copy(), traj.costs.copy()
    if kind == "inf_last_state":
        states[-1] = np.inf
    elif kind == "huge_state":
        states[ROLLOUT_BLOCK + 5] = 1e200
    elif kind == "nan_input":
        inputs[ROLLOUT_BLOCK + 5] = np.nan
    elif kind == "nan_last_input":
        inputs[-1] = np.nan
    else:
        costs[ROLLOUT_BLOCK + 5] = np.nan
    return Trajectory(states=states, inputs=inputs, costs=costs)


FITS = {
    "known_d": lambda traj, d: qlearning._fit_iteration(traj, L0_3, d, 1e8),
    "empirical": lambda traj, d: qlearning._fit_iteration(traj, L0_3, None, 1e8),
    "bls_known_d": lambda traj, d: bls_estimate(traj, L0_3, d),
    "bls_empirical": lambda traj, d: bls_estimate(traj, L0_3, None),
}


@pytest.mark.parametrize("fit", sorted(FITS))
@pytest.mark.parametrize("kind", ["inf_last_state", "huge_state", "nan_cost", "nan_input",
                                  "nan_last_input"])
def test_diverged_data_raise_a_typed_error_without_warnings(sec6, feature_builds, fit,
                                                           kind):
    # No errstate here: a numpy warning fails the test. Non-finite data stop
    # the pass at their window; an overflowing state is caught at the end.
    model, cost = sec6
    traj = _corrupt(simulate_closed_loop(model, cost, L0_3, 2 * ROLLOUT_BLOCK + 37,
                                         0.64, 7), kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnreliableKernelError, match="non-finite"):
            FITS[fit](traj, model.D)
    assert len(feature_builds) == {"inf_last_state": 2, "huge_state": 3, "nan_cost": 1,
                                   "nan_input": 1, "nan_last_input": 2}[kind]


@pytest.mark.parametrize("cost_mode", COST_MODES)
def test_fit_working_memory_does_not_grow_with_the_rollout(sec6, cost_mode):
    # The fit holds one window of features at a time: its traced peak is the
    # same for a 4x longer rollout and stays far below the N x s arrays
    # (6.7 MiB each at 42000 samples).
    model, cost = sec6
    noise_cov = model.D if cost_mode == "known_d" else None
    peaks = []
    for n_steps in (42000, 168000):
        traj = simulate_closed_loop(model, cost, L0_3, n_steps, 0.64, 3)
        tracemalloc.start()
        try:
            qlearning._fit_iteration(traj, L0_3, noise_cov, 1e8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4 * 2 ** 20
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def test_noise_correction_examples(sec6):
    d = np.diag([1.0, 2.0])
    zero_gain = unvech(noise_correction(np.zeros((2, 2)), d))
    np.testing.assert_array_equal(zero_gain[:2, :2], d)
    np.testing.assert_array_equal(zero_gain[2:, :], np.zeros((2, 4)))
    np.testing.assert_array_equal(zero_gain[:2, 2:], np.zeros((2, 2)))

    ones = unvech(noise_correction(np.eye(2), np.eye(2)))
    np.testing.assert_array_equal(ones, np.tile(np.eye(2), (2, 2)))

    model, _ = sec6
    kappa = unvech(noise_correction(L0_3, model.D))
    np.testing.assert_array_equal(kappa[:3, :3], 0.5 * np.eye(3))
    assert np.abs(kappa[3:, :]).max() == 0.0


@pytest.mark.parametrize("fit", ["bls", "learner"])
def test_fit_reads_its_covariance_and_gain_by_name(sec6, fit):
    # The covariance is checked before the pass, the gain when it is evaluated.
    model, cost = sec6
    traj = simulate_closed_loop(model, cost, L0_3, 100, 0.64, 0)
    call = {"bls": bls_estimate,
            "learner": lambda *args: qlearning._fit_iteration(*args, 1e8)}[fit]
    for cov, message in (
            (1.0, r"must be a 2-d matrix, got shape \(\)"),
            (np.ones(3), r"must be a 2-d matrix, got shape \(3,\)"),
            (np.ones((3, 2)), r"must have shape \(3, 3\), got \(3, 2\)"),
            (np.ones((1, 3, 3)), r"must be a 2-d matrix, got shape \(1, 3, 3\)"),
            (np.diag([1.0, np.nan, 1.0]), "has non-finite entries")):
        with pytest.raises(ValidationError, match=rf"^noise_cov {message}$"):
            call(traj, L0_3, cov)
    for gain, message in ((np.zeros(3), r"must be a 2-d matrix, got shape \(3,\)"),
                          (np.zeros((2, 3)), r"must have shape \(3, 3\), got \(2, 3\)"),
                          (0.0, r"must be a 2-d matrix, got shape \(\)")):
        with pytest.raises(ValidationError, match=rf"^gain {message}$"):
            call(traj, gain, model.D)


def test_model_evaluation_reports_a_failed_solve():
    # n = m = 1 at gain 0.5: K_L^T = [1, 0.5, 0.25], so B = e_1 makes
    # I - K_L^T B singular, and a NaN in c gives a non-finite value kernel.
    gain, d = [[0.5]], np.ones(1)
    with pytest.raises(UnreliableKernelError,
                       match="^kernel estimate cannot be solved for: Singular matrix$"):
        qlearning._evaluate(np.array([[1.0], [0.0], [0.0]]), np.ones(3), d, gain)
    with pytest.raises(UnreliableKernelError,
                       match="^kernel estimate contains non-finite entries$"):
        qlearning._evaluate(np.zeros((3, 1)), np.array([1.0, np.nan, 0.0]), d, gain)


def test_rls_one_dimensional_hand_values():
    # Inverse Gram 1 / (1 + 1) = 0.5 after one sample, weighted cost 2.
    estimate = rls_estimate([[1.0]], [[0.0]], [0.0], [2.0], 1.0)
    np.testing.assert_allclose(estimate, [1.0], atol=1e-15)


def test_rls_zero_instrument_changes_nothing():
    # A sample with zero features leaves the inverse Gram and the weighted
    # costs as they were, whatever its next features and cost.
    real = ([1.0, 0.5, 0.2], [0.3, 0.1, 0.0], 2.0)    # features, next features, cost
    zero = ([0.0] * 3, [1.0, 2.0, 3.0], 5.0)

    def fold(*samples):
        feats, next_feats, costs = zip(*samples)
        return rls_estimate(feats, next_feats, np.zeros(3), costs, 10.0)

    np.testing.assert_array_equal(fold(zero, real), fold(real))


def test_rls_estimate_names_a_malformed_argument():
    good = dict(feats=np.zeros((2, 3)), next_feats=np.zeros((2, 3)),
                noise_correction=np.zeros(3), costs=np.ones(2), init_scale=1.0)
    for name, bad, message in [
            ("feats", np.zeros(3), r"must be a 2-d matrix, got shape \(3,\)"),
            ("feats", np.zeros((2, 0)), r"must have at least one column, got shape \(2, 0\)"),
            ("next_feats", np.zeros((2, 4)), r"must have shape \(2, 3\), got \(2, 4\)"),
            ("noise_correction", np.zeros((3, 1)), r"must be a 1-d vector, got shape \(3, 1\)"),
            ("feats", "ab", "must be a matrix of real numbers"),
            ("next_feats", [[1.0], [1.0, 2.0]], "must be a matrix of real numbers"),
            ("costs", "ab", "must be a vector of real numbers"),
            ("costs", np.ones(3), r"must have shape \(2,\), got \(3,\)"),
            ("weights", np.ones((2, 1)), r"must be a 1-d vector, got shape \(2, 1\)"),
            ("weights", "ab", "must be a vector of real numbers")]:
        with pytest.raises(ValidationError, match=rf"^{name} {message}$"):
            rls_estimate(**dict(good, **{name: bad}))


@pytest.mark.parametrize("sample", [0, 1, 2])
def test_rls_estimate_rejects_zero_denominator(sample):
    # g = feats - next + correction = -1 makes 1 + g xi phi vanish; the
    # zero-feature samples before it leave xi = 1, so the error names it.
    feats, next_feats = [[0.0]] * sample + [[1.0]], [[0.0]] * sample + [[2.0]]
    with pytest.raises(UnreliableKernelError, match=f"^update denominator .* at sample {sample}$"):
        rls_estimate(feats, next_feats, [0.0], [1.0] * (sample + 1), 1.0)


def test_rls_estimate_init_scale_and_nonfinite_guard():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="^init_scale"):
            rls_estimate(np.eye(3), np.zeros((3, 3)), np.zeros(3), np.ones(3), bad)
    with pytest.raises(UnreliableKernelError, match="non-finite"):
        rls_estimate(np.eye(3), np.zeros((3, 3)), np.zeros(3), [1.0, np.inf, 0.0], 1.0)


@pytest.mark.parametrize("name", ["feats", "next_feats", "noise_correction", "costs",
                                  "weights"])
def test_rls_estimate_turns_a_nan_argument_into_an_unreliable_kernel(name):
    # The arrays are read finite or not; a NaN anywhere reaches the estimate,
    # which raises without a numpy warning on the way.
    args = dict(feats=np.eye(3), next_feats=np.zeros((3, 3)), noise_correction=np.zeros(3),
                costs=np.ones(3), weights=np.ones(3))
    args[name] = args[name].copy()
    args[name].flat[0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnreliableKernelError, match="^kernel estimate contains non-finite"):
            rls_estimate(init_scale=1.0, **args)


@pytest.mark.parametrize("init_scale", [1.0, 1e8])
@pytest.mark.parametrize("weighted", [False, True], ids=["unit weights", "leverage weights"])
def test_rls_estimate_is_the_regularised_batch_solve(weighted, init_scale):
    # Folding every sample from init_scale * I reaches
    # (I / init_scale + Psi^T G)^-1 Psi^T c, Psi = w phi and G = phi - phi' + d.
    rng = np.random.default_rng(7)
    feats, next_feats = rng.standard_normal((40, 4)), 0.5 * rng.standard_normal((40, 4))
    correction, costs = 0.1 * rng.standard_normal(4), rng.standard_normal(40)
    weights = 1.0 / (1.0 + np.sum(feats ** 2, axis=1)) ** 2 if weighted else None
    psi = feats if weights is None else weights[:, None] * feats
    gram = np.eye(4) / init_scale + psi.T @ (feats - next_feats + correction)
    np.testing.assert_allclose(
        rls_estimate(feats, next_feats, correction, costs, init_scale, weights),
        np.linalg.solve(gram, psi.T @ costs), rtol=1e-9, atol=1e-12)


def test_rls_estimate_without_weights_is_the_unit_weighted_fold():
    rng = np.random.default_rng(3)
    feats, next_feats = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
    args = (feats, next_feats, np.zeros(3), rng.standard_normal(10), 10.0)
    np.testing.assert_array_equal(rls_estimate(*args), rls_estimate(*args, np.ones(10)))


def test_rls_estimate_over_no_samples_is_zero():
    np.testing.assert_array_equal(
        rls_estimate(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(3), np.zeros(0), 1.0),
        np.zeros(3))


def test_recursive_matches_batch_on_one_rollout(sec6):
    # Same data, same kernel: the recursion is the batch solve in disguise.
    model, cost = sec6
    traj = simulate_closed_loop(model, cost, L0_3, 5000, 0.64, 123)
    phi = feature_matrix(traj.states[:-1], traj.inputs[:-1])
    phi_next = feature_matrix(traj.states[1:], traj.states[1:] @ L0_3.T)
    correction = noise_correction(L0_3, model.D)
    recursive = unvecs(rls_estimate(phi, phi_next, correction, traj.costs, 1e8))
    batch = bls_estimate(traj, L0_3, model.D)
    rel = np.linalg.norm(recursive - batch) / np.linalg.norm(batch)
    assert rel <= 1e-6


@pytest.mark.parametrize("cost_mode", COST_MODES)
def test_learner_kernel_equals_a_fold_of_rls_estimate(sec6, sec6_config, monkeypatch,
                                                      cost_mode):
    # The learner's one regularised solve is the recursive estimator started
    # from rls_init_scale * I, folded over every sample of the same rollout
    # with the instrument weights w_k = (1 + |z_k|^2)^-2. Without D the fold
    # carries lambda as one more coefficient, which the fit through D-hat
    # matches up to the ridge (test_empirical_fit_is_the_lambda_column_fit).
    model, cost = sec6
    config = replace(sec6_config.learner, max_iterations=1, seed=3, cost_mode=cost_mode)
    rollouts = []

    def sampler(gain, seed):
        rollouts.append(simulate_closed_loop(model, cost, gain, config.rollout_len,
                                             config.probe_var, seed))
        return rollouts[-1]

    # Take whatever kernel the fit produces, even one without a usable gain.
    monkeypatch.setattr(qlearning, "policy_from_h", lambda kernel, state_dim: L0_3)
    noise_cov = model.D if cost_mode == "known_d" else None
    learned = learn_from_rollouts(sampler, config, noise_cov)

    (traj,) = rollouts
    phi = feature_matrix(traj.states[:-1], traj.inputs[:-1])
    phi_next = feature_matrix(traj.states[1:], traj.states[1:] @ L0_3.T)
    z = np.hstack([traj.states[:-1], traj.inputs[:-1]])
    weights = (1.0 + (z ** 2).sum(axis=1)) ** -2
    if noise_cov is None:
        # The average cost is one more coefficient: feature 1 now, 0 next.
        phi = np.hstack([phi, np.ones((phi.shape[0], 1))])
        phi_next = np.hstack([phi_next, np.zeros((phi.shape[0], 1))])
        correction = np.zeros(phi.shape[1])
    else:
        correction = noise_correction(L0_3, noise_cov)
    folded = rls_estimate(phi, phi_next, correction, traj.costs, config.rls_init_scale,
                          weights)
    if noise_cov is None:
        lam = folded[-1]
        assert abs(learned.cost_estimates[0] - lam) <= 1e-8 * abs(lam)
        folded = folded[:-1]
    folded = unvecs(folded)
    kernel = learned.kernels[0]
    assert np.linalg.norm(kernel - folded) <= 1e-8 * np.linalg.norm(folded)


@pytest.mark.parametrize("cost_mode", COST_MODES)
def test_inadmissible_gain_raises_a_typed_error(sec6, sec6_config, cost_mode):
    # 0.3 I destabilises the loop, so the rollout overflows: the fit must
    # report it as UnreliableKernelError, not as a raw numpy error or a NaN gain.
    model, cost = sec6
    config = replace(sec6_config.learner, initial_gain=0.3 * np.eye(3),
                     cost_mode=cost_mode)
    with pytest.raises(UnreliableKernelError, match="iteration 0: .*non-finite"):
        run_online_learning(model, cost, config)


def test_bls_recovers_kernel_from_synthetic_costs(sec6):
    # Costs manufactured from a known kernel through the exact regression
    # identity must reproduce that kernel to solver precision.
    model, cost = sec6
    p0 = solve_value_kernel(model, cost, L0_3)
    h_true = q_kernel_matrix(model, cost, p0)
    traj = simulate_closed_loop(model, cost, L0_3, 200, 0.64, 11)
    phi = feature_matrix(traj.states[:-1], traj.inputs[:-1])
    phi_next = feature_matrix(traj.states[1:], traj.states[1:] @ L0_3.T)
    kappa = noise_correction(L0_3, model.D)
    costs = (phi - phi_next + kappa) @ vecs(h_true)
    synth = Trajectory(states=traj.states, inputs=traj.inputs, costs=costs)
    h_hat = bls_estimate(synth, L0_3, model.D)
    rel = np.linalg.norm(h_hat - h_true) / np.linalg.norm(h_true)
    assert rel <= 1e-8
    # One improvement from the recovered kernel equals the exact improvement.
    gain_exact = policy_improvement(model, cost, p0)
    assert np.linalg.norm(policy_from_h(h_hat, 3) - gain_exact) <= 1e-8


def test_bls_empirical_mode_solves_its_normal_equations(sec6):
    model, cost = sec6
    p0 = solve_value_kernel(model, cost, L0_3)
    h_true = q_kernel_matrix(model, cost, p0)
    traj = simulate_closed_loop(model, cost, L0_3, 200, 0.64, 11)
    phi = feature_matrix(traj.states[:-1], traj.inputs[:-1])
    phi_next = feature_matrix(traj.states[1:], traj.states[1:] @ L0_3.T)
    costs = (phi - phi_next) @ vecs(h_true) + 7.3
    synth = Trajectory(states=traj.states, inputs=traj.inputs, costs=costs)
    h_hat = bls_estimate(synth, L0_3, noise_cov=None)
    # Without D the plain fit is its known_d form with the unit-weight D-hat.
    d_hat = _dense_noise_regression(traj, weighted=False)[1][-1]
    correction = noise_correction(L0_3, unvech(d_hat))
    lhs = (phi.T @ (phi - phi_next + correction)) @ vecs(h_hat)
    rhs = phi.T @ costs
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-8


def test_learner_fit_recovers_kernel_and_cost_from_synthetic_costs(sec6, sec6_config):
    # Costs manufactured from a known kernel through the exact regression
    # identity: the learner's weighted, regularised known_d fit must return
    # the kernel and the average cost to solver precision. Without D the fit
    # estimates D from the next states, and costs like these, built with a
    # free constant for lambda, depend on x_{k+1}: they are no plant's stage
    # cost, so that fit is covered by test_empirical_fit_is_the_lambda_column_fit.
    model, cost = sec6
    p0 = solve_value_kernel(model, cost, L0_3)
    h_true = q_kernel_matrix(model, cost, p0)
    lam_true = average_cost(p0, model.D)
    # The 1/rls_init_scale regularisation biases the fit by O(1/N): about
    # 1e-8 relative at 200 samples, so take 2000.
    traj = simulate_closed_loop(model, cost, L0_3, 2000, 0.64, 11)
    phi = feature_matrix(traj.states[:-1], traj.inputs[:-1])
    phi_next = feature_matrix(traj.states[1:], traj.states[1:] @ L0_3.T)
    kappa = noise_correction(L0_3, model.D)
    costs = (phi - phi_next + kappa) @ vecs(h_true)
    synth = Trajectory(states=traj.states, inputs=traj.inputs, costs=costs)
    h_hat, lam_hat = qlearning._fit_iteration(synth, L0_3, model.D,
                                              sec6_config.learner.rls_init_scale)
    rel = np.linalg.norm(h_hat - h_true) / np.linalg.norm(h_true)
    assert rel <= 1e-8
    assert abs(lam_hat - lam_true) <= 1e-8 * lam_true


def test_bls_estimate_paper_scale_recovery(sec6, sec6_reference):
    # Kernel estimation error from one long probed rollout. Mixing is slow at
    # the zero gain, so the bound there is loose; near the optimal gain the
    # loop mixes fast and the estimate lands within 10%.
    model, cost = sec6
    _, l_star, _ = sec6_reference
    p0 = solve_value_kernel(model, cost, L0_3)
    h0 = q_kernel_matrix(model, cost, p0)
    traj = simulate_closed_loop(model, cost, L0_3, 42000, 0.64, 77)
    h_hat = bls_estimate(traj, L0_3, model.D)
    rel0 = np.linalg.norm(h_hat - h0) / np.linalg.norm(h0)
    assert rel0 <= 0.35

    p_star_gain = solve_value_kernel(model, cost, l_star)
    h_opt = q_kernel_matrix(model, cost, p_star_gain)
    traj_opt = simulate_closed_loop(model, cost, l_star, 42000, 0.64, 42)
    h_hat_opt = bls_estimate(traj_opt, l_star, model.D)
    rel_opt = (np.linalg.norm(h_hat_opt - h_opt)
               / np.linalg.norm(h_opt))
    assert rel_opt <= 0.10
    # Contracting the accepted estimate reproduces the value kernel within
    # the statistical band.
    basis = np.vstack([np.eye(3), l_star])
    back = basis.T @ h_hat_opt @ basis
    assert (np.linalg.norm(back - p_star_gain)
            / np.linalg.norm(p_star_gain)) <= 0.15


def _fixture(name):
    config = load_config(fixture_path(name))
    return config.model, config.cost, config.learner


def test_plain_fit_without_d_is_consistent():
    # Without D the plain fit takes D-hat, its model's intercept, so its
    # error falls with the rollout: 0.013-0.019 on seeds 0-2 at 42000 steps.
    # An estimator that subtracts the mean cost instead stays biased (about
    # 0.33 here at any length): the probe lifts the mean cost above the
    # gain's own average cost, and no feature is constant to absorb it.
    model, cost, learner = _fixture("scalar_smoke")
    reference = policy_iteration(model, cost, np.zeros((1, 1)), tol=1e-10, max_iter=200)
    l_star = reference.gains[-1]
    exact = q_kernel_matrix(model, cost, reference.kernels[-1])
    traj = simulate_closed_loop(model, cost, l_star, 42000, learner.probe_var, 0)
    estimate = bls_estimate(traj, l_star, None)
    assert np.linalg.norm(estimate - exact) <= 0.05 * np.linalg.norm(exact)


def test_exact_plant_is_an_instance_of_the_moment_model():
    # The plant's own moments are a moment model (module docstring):
    # E[psi' | z] = B^T phi(z) + d with B = congruence(E)^T over its channel
    # factors E_c and d = vech(D), and c(z) = c^T phi(z) with
    # c = vecs(diag(Q, R)). Evaluating a gain on that model gives the
    # model-based kernel and average cost: 5.4e-14 relative at worst. The
    # learner's greedy step on that kernel (policy_from_h) is the exact one
    # on the value kernel (policy_improvement): 1.7e-14 relative at worst.
    rng = np.random.default_rng(17)
    plants = [_fixture(name)[:2] for name in ("example_sec6", "scalar_smoke")]
    plants += [random_admissible_system(rng) for _ in range(20)]
    for model, cost in plants:
        n, m = model.state_dim, model.input_dim
        stage = np.block([[cost.Q, np.zeros((n, m))], [np.zeros((m, n)), cost.R]])
        b, c, d = congruence(model.channels).T, vecs(stage), vech(model.D)
        for _ in range(5):
            gain = random_admissible_gain(model, rng)
            kernel, lam = qlearning._evaluate(b, c, d, gain)
            value = solve_value_kernel(model, cost, gain)
            exact = q_kernel_matrix(model, cost, value)
            assert np.linalg.norm(kernel - exact) <= 1e-10 * np.linalg.norm(exact)
            exact_lam = average_cost(value, model.D)
            assert abs(lam - exact_lam) <= 1e-10 * exact_lam
            improved = policy_improvement(model, cost, value)
            assert (np.linalg.norm(policy_from_h(kernel, n) - improved)
                    <= 1e-10 * np.linalg.norm(improved))


def test_bls_needs_enough_samples(sec6):
    model, cost = sec6
    traj = simulate_closed_loop(model, cost, L0_3, 10, 0.64, 0)  # 10 < 21
    with pytest.raises(InsufficientExcitationError):
        bls_estimate(traj, L0_3, model.D)


def test_bls_rejects_unexcited_data():
    # Zero initial state, zero probe, zero gain: the rollout never moves.
    model = SystemModel(A=[[0.5]], B=[[1.0]], D=[[0.0]], X0=[[0.0]])
    cost = CostModel(Q=[[1.0]], R=[[1.0]])
    traj = simulate_closed_loop(model, cost, np.zeros((1, 1)), 10, 0.0, 0)
    with pytest.raises(InsufficientExcitationError):
        bls_estimate(traj, np.zeros((1, 1)), np.zeros((1, 1)))


def test_empirical_fit_rejects_unexcited_data():
    # A rollout that never moves has a zero Gram: the excitation check stops
    # the fit before the D-hat solve, whatever the ridge.
    model = SystemModel(A=[[0.5]], B=[[1.0]], D=[[0.0]], X0=[[0.0]])
    cost = CostModel(Q=[[1.0]], R=[[1.0]])
    traj = simulate_closed_loop(model, cost, np.zeros((1, 1)), 10, 0.0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientExcitationError,
                           match="^model Gram condition number inf;"):
            qlearning._fit_iteration(traj, np.zeros((1, 1)), None, 1e8)


@pytest.mark.parametrize("cost_mode", COST_MODES)
def test_learner_rejects_an_unexcited_fit(cost_mode):
    # A probe of variance 1e-320 leaves the input direction unexcited. The
    # Gram check comes before the ridge, which makes any Gram solvable, so
    # the run stops at iteration 0 before an unexcited fit becomes a gain.
    model, cost, learner = _fixture("scalar_smoke")
    learner = replace(learner, probe_var=1e-320, cost_mode=cost_mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientExcitationError,
                           match="^iteration 0: model Gram condition number"):
            run_online_learning(model, cost, learner)


def test_policy_from_h_examples(sec6, sec6_reference):
    model, cost = sec6
    block = np.diag([2.0, 3.0, 5.0, 7.0])
    np.testing.assert_array_equal(policy_from_h(block, 2), np.zeros((2, 2)))

    scalar = np.array([[3.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(policy_from_h(scalar, 1), [[-0.5]], atol=1e-15)
    # An asymmetry within 1e-8 of the scale is averaged away before the blocks are read.
    skewed = scalar + [[0.0, 0.0], [1e-12, 0.0]]
    np.testing.assert_array_equal(policy_from_h(skewed, 1),
                                  policy_from_h(packing.symmetrize(skewed), 1))

    p_star, _, _ = sec6_reference
    h_star = q_kernel_matrix(model, cost, p_star)
    np.testing.assert_allclose(policy_from_h(h_star, 3),
                               policy_improvement(model, cost, p_star), atol=1e-9)


def test_policy_from_h_guards():
    with pytest.raises(UnreliableKernelError, match="not positive definite"):
        policy_from_h(np.diag([1.0, -2.0]), 1)
    with pytest.raises(UnreliableKernelError, match="condition number"):
        policy_from_h(np.diag([1.0, 1e-6, 1e6]), 1)
    with pytest.raises(UnreliableKernelError, match="non-finite"):
        policy_from_h(np.full((2, 2), np.nan), 1)


@pytest.mark.parametrize("kernel, state_dim, message", [
    (np.eye(3), 3, r"^state_dim 3 must split a 3 x 3 kernel$"),
    (np.zeros((0, 0)), 1, r"^state_dim 1 must split a 0 x 0 kernel$"),
    (np.eye(3), 0, r"^state_dim must be >= 1, got 0$"),
    (np.array([[1.0, 2.0], [0.0, 1.0]]), 1, r"^kernel is asymmetric"),
    (np.ones((2, 3)), 1, r"^kernel must be square, got shape \(2, 3\)$"),
], ids=["no input rows", "empty", "no state rows", "asymmetric", "rectangular"])
def test_policy_from_h_rejects_a_kernel_it_cannot_split(kernel, state_dim, message):
    # The kernel's symmetry, its split at state_dim and the count itself are
    # read before any block.
    with pytest.raises(ValidationError, match=message):
        policy_from_h(kernel, state_dim)


def test_excitation_error_of_a_diverging_rollout_gives_its_state_norm(sec6_config):
    # The plain fit of seed 35's zero-gain rollout gives a gain whose moment
    # operator has spectral radius 1.348: its rollout stays finite but
    # reaches a state norm of 5.06e5, and the plain fit on it stops at the
    # excitation check. The message says how large the states grew.
    model, cost, learner = sec6_config.model, sec6_config.cost, sec6_config.learner

    def rollout(gain, iteration):
        return simulate_closed_loop(model, cost, gain, learner.rollout_len,
                                    learner.probe_var, iteration_seed(35, iteration))

    gain = policy_from_h(bls_estimate(rollout(L0_3, 0), L0_3, None), 3)
    traj = rollout(gain, 1)
    assert np.isfinite(traj.states).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientExcitationError,
                           match=r"^model Gram condition number inf; .*"
                                 r"\(largest state norm 5\.060e\+05\)$"):
            bls_estimate(traj, gain, None)


@pytest.mark.parametrize("cost_mode", COST_MODES)
@pytest.mark.parametrize("fixture", ["example_sec6", "scalar_smoke"])
def test_learned_kernels_are_symmetric_arrays_that_give_the_next_gain(fixture, cost_mode):
    model, cost, learner = _fixture(fixture)
    result = run_online_learning(model, cost, replace(learner, seed=0, cost_mode=cost_mode))
    r = model.state_dim + model.input_dim
    assert result.iterations >= 1
    for t, kernel in enumerate(result.kernels):
        assert type(kernel) is np.ndarray and kernel.shape == (r, r)
        np.testing.assert_array_equal(kernel, kernel.T)
        np.testing.assert_array_equal(policy_from_h(kernel, model.state_dim),
                                      result.gains[t + 1])


def test_learner_config_validation():
    good = dict(initial_gain=np.zeros((1, 1)), rollout_len=100, probe_var=0.5,
                rls_init_scale=1e8, max_iterations=5, gain_tol=0.05, seed=0)
    LearnerConfig(**good)
    nan = float("nan")
    for field, value in [("rollout_len", 0), ("probe_var", 0.0),
                         ("rls_init_scale", 0.0), ("max_iterations", 0),
                         ("gain_tol", 0.0), ("cost_mode", "guess"),
                         ("probe_var", nan), ("rls_init_scale", nan), ("gain_tol", nan),
                         ("initial_gain", [[nan]]), ("initial_gain", [[float("inf")]]),
                         ("initial_gain", np.zeros(2))]:
        with pytest.raises(ValidationError, match=field):
            LearnerConfig(**{**good, field: value})


def test_iteration_seed_is_deterministic_and_spread():
    assert iteration_seed(7, 3) == iteration_seed(7, 3)
    seeds = {iteration_seed(7, tau) for tau in range(20)}
    assert len(seeds) == 20
    assert iteration_seed(8, 3) != iteration_seed(7, 3)


@pytest.mark.parametrize("args, message", [
    ((-1, 0), "^base_seed must be >= 0, got -1$"),
    ((0, -1), "^iteration must be >= 0, got -1$"),
    ((0.5, 0), "^base_seed must be an integer, got float$")])
def test_iteration_seed_rejects_a_negative_or_fractional_seed(args, message):
    with pytest.raises(ValidationError, match=message):
        iteration_seed(*args)


def test_learn_from_rollouts_sampler_contract(sec6):
    # The learning loop sees the plant only through the sampler, and asks it
    # for one rollout per iteration at the documented derived seeds.
    model, cost = sec6
    twin = det_model(model)
    calls = []

    def sampler(gain, seed):
        calls.append((gain.copy(), seed))
        return simulate_closed_loop(twin, cost, gain, 300, 0.3, seed)

    config = LearnerConfig(initial_gain=L0_3, rollout_len=300, probe_var=0.3,
                           rls_init_scale=1e10, max_iterations=3, gain_tol=1e-12,
                           seed=5, cost_mode="known_d")
    result = learn_from_rollouts(sampler, config, noise_cov=np.zeros((3, 3)))
    assert len(calls) == result.iterations
    for tau, (gain, seed) in enumerate(calls):
        np.testing.assert_array_equal(gain, result.gains[tau])
        assert seed == iteration_seed(5, tau)


@pytest.mark.parametrize("cost_mode", COST_MODES)
@pytest.mark.parametrize("fixture", ["example_sec6", "scalar_smoke"])
def test_online_learning_equals_the_loop_over_fresh_rollouts(fixture, cost_mode,
                                                            monkeypatch):
    # run_online_learning rolls out through one RolloutBuffers per run, by
    # keyword, at the module attribute that the benchmark traces; the same
    # loop over rollouts allocated afresh gives the same gains, kernels and
    # cost estimates bit for bit.
    config = load_config(fixture_path(fixture))
    model, cost = config.model, config.cost
    noise_cov = model.D if cost_mode == "known_d" else None
    buffers = []

    def traced(*args, **kwargs):
        buffers.append(kwargs["buffers"])
        return simulate_closed_loop(*args, **kwargs)

    monkeypatch.setattr(qlearning, "simulate_closed_loop", traced)
    for seed in (0, 1, 2):
        learner = replace(config.learner, seed=seed, cost_mode=cost_mode)

        def fresh(gain, rollout_seed):
            return simulate_closed_loop(model, cost, gain, learner.rollout_len,
                                        learner.probe_var, rollout_seed)

        buffers.clear()
        got = run_online_learning(model, cost, learner)
        assert len(buffers) == got.iterations
        assert all(isinstance(b, RolloutBuffers) and b is buffers[0] for b in buffers)
        want = learn_from_rollouts(fresh, learner, noise_cov)
        assert got.converged == want.converged
        assert got.cost_estimates == want.cost_estimates
        assert len(got.gains) == len(want.gains)
        for got_gain, want_gain in zip(got.gains, want.gains):
            np.testing.assert_array_equal(got_gain, want_gain)
        for got_kernel, want_kernel in zip(got.kernels, want.kernels):
            np.testing.assert_array_equal(got_kernel, want_kernel)


def test_a_learner_trace_cuts_like_a_policy_iteration_trace(sec6_config):
    # Each learner step depends only on the gain before it and the seed of
    # its own iteration, so a cut of a tight run is the looser run itself.
    model, cost = sec6_config.model, sec6_config.cost
    for seed in (0, 1, 2):
        learner = replace(sec6_config.learner, seed=seed)
        run = run_online_learning(model, cost, replace(learner, gain_tol=1e-6,
                                                       max_iterations=6))
        for tol, max_iter in [(0.05, 10), (0.2, 10), (1e-6, 2)]:
            got = run.prefix(tol, max_iter)
            want = run_online_learning(model, cost, replace(learner, gain_tol=tol,
                                                            max_iterations=max_iter))
            assert type(got) is LearningResult, (seed, tol)
            assert got.converged == want.converged, (seed, tol)
            assert got.cost_estimates == want.cost_estimates, (seed, tol)
            assert len(got.gains) == len(want.gains), (seed, tol)
            for got_array, want_array in zip(got.gains + got.kernels,
                                             want.gains + want.kernels):
                np.testing.assert_array_equal(got_array, want_array)


def test_learn_known_d_requires_covariance():
    config = LearnerConfig(initial_gain=np.zeros((1, 1)), rollout_len=10,
                           probe_var=0.5, rls_init_scale=1e8, max_iterations=1,
                           gain_tol=0.05, seed=0, cost_mode="known_d")
    with pytest.raises(ValidationError, match="known_d"):
        learn_from_rollouts(lambda gain, seed: None, config)


def test_learn_failure_names_the_iteration():
    def sampler(gain, seed):
        states = np.ones((11, 1))
        inputs = np.ones((11, 1))
        return Trajectory(states=states, inputs=inputs, costs=np.full(10, np.nan))

    config = LearnerConfig(initial_gain=np.zeros((1, 1)), rollout_len=10,
                           probe_var=0.5, rls_init_scale=1e8, max_iterations=3,
                           gain_tol=0.05, seed=0, cost_mode="empirical")
    with pytest.raises(UnreliableKernelError, match="iteration 0:"):
        learn_from_rollouts(sampler, config)


def test_large_tolerance_stops_after_one_iteration(sec6):
    model, cost = sec6
    twin = det_model(model)
    config = LearnerConfig(initial_gain=L0_3, rollout_len=300, probe_var=0.3,
                           rls_init_scale=1e10, max_iterations=10, gain_tol=10.0,
                           seed=0, cost_mode="known_d")
    result = run_online_learning(twin, cost, config)
    assert result.converged and result.iterations == 1
    assert len(result.gains) == 2 and len(result.kernels) == 1


def test_deterministic_limit_batch_step_equals_exact_iteration(sec6):
    # Without noise the regression identity is exact, so a batch fit plus one
    # improvement reproduces the exact evaluate/improve step to solver
    # precision.
    model, cost = sec6
    twin = det_model(model)
    exact = policy_iteration(twin, cost, L0_3, tol=1e-12, max_iter=50)
    for seed in (0, 1, 2):
        traj = simulate_closed_loop(twin, cost, L0_3, 300, 0.3, seed)
        h_hat = bls_estimate(traj, L0_3, twin.D)
        assert np.linalg.norm(policy_from_h(h_hat, 3) - exact.gains[1]) <= 1e-6


def test_deterministic_limit_recursive_run_tracks_exact_iteration(sec6):
    # The learner's solve carries an extra init_scale^-1 regularization, so
    # the full online run is held to a looser bound than the batch path above.
    model, cost = sec6
    twin = det_model(model)
    exact = policy_iteration(twin, cost, L0_3, tol=1e-12, max_iter=50)
    for seed in (0, 1, 2):
        config = LearnerConfig(initial_gain=L0_3, rollout_len=300, probe_var=0.3,
                               rls_init_scale=1e10, max_iterations=1,
                               gain_tol=1e-12, seed=seed, cost_mode="known_d")
        result = run_online_learning(twin, cost, config)
        assert np.linalg.norm(result.gains[1] - exact.gains[1]) <= 1e-3


def test_online_learning_scalar_system_both_cost_modes():
    # Stochastic end-to-end runs at pinned seeds on the one-dimensional
    # fixture system.
    model = SystemModel(A=[[0.5]], B=[[1.0]], D=[[1.0]], X0=[[1.0]],
                        state_noise=[([[1.0]], 0.1)])
    cost = CostModel(Q=[[1.0]], R=[[1.0]])
    reference = policy_iteration(model, cost, np.zeros((1, 1)), tol=1e-10,
                                 max_iter=200)
    l_star = reference.gains[-1]

    known = LearnerConfig(initial_gain=np.zeros((1, 1)), rollout_len=3000,
                          probe_var=0.25, rls_init_scale=1e8, max_iterations=10,
                          gain_tol=0.05, seed=0, cost_mode="known_d")
    result = run_online_learning(model, cost, known)
    assert result.converged
    assert np.linalg.norm(result.gains[-1] - l_star) <= 0.1
    assert abs(result.cost_estimates[-1] - reference.costs[-1]) <= 0.1

    empirical = LearnerConfig(initial_gain=np.zeros((1, 1)), rollout_len=3000,
                              probe_var=0.25, rls_init_scale=1e8,
                              max_iterations=10, gain_tol=0.05, seed=1,
                              cost_mode="empirical")
    result = run_online_learning(model, cost, empirical)
    assert result.converged
    assert np.linalg.norm(result.gains[-1] - l_star) <= 0.1
