"""Acceptance checks with pinned tolerances.

Each test prints one summary line of the form
``[criterion N] label: PASS/FAIL (detail)`` before asserting, so running
this module with ``-s`` doubles as a report. Criteria 6 and 7 pin
success-rate targets for the online learner at the example_sec6 scale,
across seeds 0..9 in the known_d and empirical cost modes. README.md
"Learner success rates" has the measured rates and the estimator that
reaches them.
"""

from dataclasses import replace

import numpy as np

from slqr.analysis import (
    average_cost,
    is_admissible,
    moment_operator,
    policy_improvement,
    riccati_residual,
    solve_value_kernel,
    stationary_covariance,
)
from slqr.errors import SolverFailure
from slqr.packing import congruence, vech, vecs
from slqr.policy_iteration import policy_iteration, q_kernel_from_value
from slqr.qlearning import (
    LearnerConfig,
    bls_estimate,
    feature_matrix,
    initial_rls_state,
    policy_from_h,
    rls_kernel,
    rls_update,
    run_online_learning,
)
from slqr.system import SystemModel, simulate_closed_loop
from slqr.testing import random_admissible_gain, random_admissible_system

# Known solution of the example_sec6 fixture, accurate to the digits shown.
EXPECTED_P = np.array([
    [1.5864, 0.0673, 0.1208],
    [0.0673, 1.4252, 0.0528],
    [0.1208, 0.0528, 1.3770],
])
EXPECTED_L = np.array([
    [-0.5175, -0.0394, -0.0761],
    [-0.0404, -0.4419, -0.0353],
    [-0.0776, -0.0352, -0.4466],
])
EXPECTED_LAMBDA = 2.1943


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {label}: {status} ({detail})")


def solve_by_fixed_point(model, cost, gain, sweeps=20000, tol=1e-14):
    # Independent route to the same kernel: iterate the affine map directly.
    n = model.state_dim
    matrix = sum(np.kron(f, f) for f in moment_operator(model, gain))
    drive = (cost.Q + gain.T @ cost.R @ gain).reshape(-1)
    vec = np.zeros(n * n)
    for _ in range(sweeps):
        nxt = matrix.T @ vec + drive
        if np.abs(nxt - vec).max() < tol:
            vec = nxt
            break
        vec = nxt
    return vec.reshape(n, n)


def test_criterion_1_reproduces_known_example_solution(sec6):
    model, cost = sec6
    trace = policy_iteration(model, cost, np.zeros((3, 3)),
                             tol=1e-9, max_iter=100)
    gap_p = float(np.abs(trace.kernels[-1] - EXPECTED_P).max())
    gap_l = float(np.abs(trace.gains[-1] - EXPECTED_L).max())
    gap_lam = abs(trace.costs[-1] - EXPECTED_LAMBDA)
    ok = (trace.converged and gap_p <= 5e-4 and gap_l <= 5e-4
          and gap_lam <= 5e-4)
    report(1, "policy iteration reproduces the known solution", ok,
           f"P gap {gap_p:.1e}, L gap {gap_l:.1e}, lambda gap {gap_lam:.1e}, "
           f"{trace.iterations} iterations")
    assert ok


def test_criterion_2_value_kernels_decrease_monotonically(sec6):
    rng = np.random.default_rng(202406)
    systems = [sec6] + [random_admissible_system(rng) for _ in range(50)]
    worst_eig = np.inf
    worst_residual = 0.0
    for model, cost in systems:
        zero = np.zeros((model.input_dim, model.state_dim))
        trace = policy_iteration(model, cost, zero, tol=1e-10, max_iter=500)
        assert trace.converged
        for early, late in zip(trace.kernels, trace.kernels[1:]):
            gap_eig = float(np.linalg.eigvalsh(early - late).min())
            worst_eig = min(worst_eig, gap_eig)
        residual = riccati_residual(model, cost, trace.kernels[-1])
        rel = float(np.linalg.norm(residual)
                    / np.linalg.norm(trace.kernels[-1]))
        worst_residual = max(worst_residual, rel)
    ok = worst_eig >= -1e-9 and worst_residual <= 1e-8
    report(2, "policy iteration is monotone and lands on the optimality "
              "equation", ok,
           f"51 systems, min eig of P_t - P_t+1 = {worst_eig:.1e}, "
           f"worst relative residual {worst_residual:.1e}")
    assert ok


def test_criterion_3_value_kernel_solver_cross_checks():
    rng = np.random.default_rng(7)
    worst_solver_gap = 0.0
    worst_duality_gap = 0.0
    for _ in range(100):
        model, cost = random_admissible_system(rng)
        gain = random_admissible_gain(model, rng)
        _, rho = is_admissible(model, gain)
        if rho > 0.95:  # keep the fixed-point route cheap
            gain = np.zeros_like(gain)
        kernel = solve_value_kernel(model, cost, gain)
        direct = solve_by_fixed_point(model, cost, gain)
        gap = float(np.abs(kernel - direct).max() / (1 + np.abs(kernel).max()))
        worst_solver_gap = max(worst_solver_gap, gap)

        lam = average_cost(kernel, model.D)
        cov = stationary_covariance(model, gain)
        dual = float(np.trace((cost.Q + gain.T @ cost.R @ gain) @ cov))
        worst_duality_gap = max(worst_duality_gap,
                                abs(lam - dual) / (1 + abs(lam)))
    ok = worst_solver_gap <= 1e-10 and worst_duality_gap <= 1e-9
    report(3, "direct solve matches fixed-point iteration and cost duality",
           ok, f"100 pairs, solver gap {worst_solver_gap:.1e}, "
               f"duality gap {worst_duality_gap:.1e}")
    assert ok


def test_criterion_4_action_kernel_identities(sec6, sec6_reference):
    model, cost = sec6
    p_star, l_star, _ = sec6_reference
    rng = np.random.default_rng(41)
    worst_recon = 0.0
    for _ in range(50):
        gain = random_admissible_gain(model, rng)
        kernel = solve_value_kernel(model, cost, gain)
        action = q_kernel_from_value(model, cost, kernel)
        recon = action.value_kernel(gain)
        worst_recon = max(worst_recon,
                          float(np.abs(recon - kernel).max()))
    action_star = q_kernel_from_value(model, cost, p_star)
    greedy = policy_from_h(action_star)
    improved = policy_improvement(model, cost, p_star)
    greedy_gap = float(np.abs(greedy - improved).max())
    ok = worst_recon <= 1e-9 and greedy_gap <= 1e-9
    report(4, "action-value kernel reproduces value kernels and greedy gains",
           ok, f"50 gains, reconstruction gap {worst_recon:.1e}, "
               f"greedy gap {greedy_gap:.1e}")
    assert ok


def test_criterion_5_recursive_estimate_matches_batch(sec6):
    model, cost = sec6
    gain = np.zeros((3, 3))
    traj = simulate_closed_loop(model, cost, gain, 5000, 0.64, 123)
    phi = feature_matrix(traj.states[:-1], traj.inputs[:-1])
    phi_next = feature_matrix(traj.states[1:], traj.states[1:] @ gain.T)
    correction = congruence(np.vstack([np.eye(3), gain])[None]) @ vech(model.D)
    state = initial_rls_state(phi.shape[1], 1e8)
    for k in range(phi.shape[0]):
        state = rls_update(state, phi[k], phi_next[k], correction,
                           traj.costs[k])
    recursive = rls_kernel(state, 3)
    batch = bls_estimate(traj, gain, model.D)
    rel = float(np.linalg.norm(recursive.matrix - batch.matrix)
                / np.linalg.norm(batch.matrix))
    ok = rel <= 1e-6
    report(5, "recursive least squares equals the batch solve", ok,
           f"5000 samples, relative gap {rel:.1e}")
    assert ok


def _learning_outcomes(model, cost, learner, seeds, gain_ref, lam_ref):
    hits = 0
    iteration_counts = []
    for seed in seeds:
        try:
            result = run_online_learning(model, cost, replace(learner, seed=seed))
        except SolverFailure:
            iteration_counts.append(learner.max_iterations)
            continue
        iteration_counts.append(result.iterations)
        gain_err = float(np.linalg.norm(result.gains[-1] - gain_ref))
        cost_err = abs(result.cost_estimates[-1] - lam_ref) / lam_ref
        if gain_err <= 0.05 and cost_err <= 0.02:
            hits += 1
    return hits, float(np.median(iteration_counts))


def test_criterion_6_online_learner_across_seeds(sec6, sec6_config,
                                                 sec6_reference):
    model, cost = sec6
    _, l_star, lam_star = sec6_reference
    hits, med = _learning_outcomes(model, cost, sec6_config.learner,
                                   sec6_config.seeds, l_star, lam_star)
    ok = hits >= 7 and med <= 6
    report(6, "online learner recovers the optimal gain on most seeds", ok,
           f"{hits}/{len(sec6_config.seeds)} seeds within tolerance, "
           f"median iterations {med:.1f}")
    assert ok


def test_criterion_7_online_learner_with_empirical_costs(sec6, sec6_config,
                                                         sec6_reference):
    model, cost = sec6
    _, l_star, lam_star = sec6_reference
    learner = replace(sec6_config.learner, cost_mode="empirical")
    hits, med = _learning_outcomes(model, cost, learner,
                                   sec6_config.seeds, l_star, lam_star)
    ok = hits >= 6
    report(7, "online learner works without the additive-noise covariance",
           ok, f"{hits}/{len(sec6_config.seeds)} seeds within tolerance, "
               f"median iterations {med:.1f}")
    assert ok


def test_criterion_8_packing_identities():
    rng = np.random.default_rng(11)
    worst_quad = 0.0
    worst_trace = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 7))
        z = rng.standard_normal(r)
        s = rng.standard_normal((r, r))
        s = s + s.T
        k = rng.standard_normal((r, r))
        k = k + k.T
        quad = float(vech(np.outer(z, z)) @ vecs(s))
        worst_quad = max(worst_quad, abs(quad - z @ s @ z))
        tr = float(vech(k) @ vecs(s))
        worst_trace = max(worst_trace, abs(tr - np.trace(s @ k)))
    ok = worst_quad <= 1e-12 and worst_trace <= 1e-12
    report(8, "packed quadratic-form and trace identities hold", ok,
           f"1000 draws, quad gap {worst_quad:.1e}, "
           f"trace gap {worst_trace:.1e}")
    assert ok


def test_criterion_9_admissibility_boundary(sec6):
    def scalar(variance):
        return SystemModel(A=[[0.3]], B=[[1.0]], D=[[1.0]], X0=[[1.0]],
                           state_noise=[([[1.0]], variance)],
                           input_noise=[])

    zero = np.zeros((1, 1))
    inside, rho_inside = is_admissible(scalar(0.82), zero)
    outside, rho_outside = is_admissible(scalar(0.92), zero)
    model, _ = sec6
    open_loop, rho_open = is_admissible(model, np.zeros((3, 3)))
    ok = (inside and not outside
          and abs(rho_inside - 0.91) <= 1e-12
          and abs(rho_outside - 1.01) <= 1e-12
          and open_loop and 0.9 < rho_open < 1.0)
    report(9, "mean-square stability test is exact at the boundary", ok,
           f"radii {rho_inside:.2f} in, {rho_outside:.2f} out, "
           f"open loop {rho_open:.4f}")
    assert ok
