"""The library's error contract: every public function of slqr.analysis,
slqr.packing, slqr.qlearning and slqr.policy_iteration that takes a matrix
returns or raises SolverFailure or ValidationError, whatever is passed in
each matrix argument, and numpy does not warn on the way."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from slqr import analysis, packing, policy_iteration, qlearning
from slqr.errors import SolverFailure, ValidationError
from slqr.policy_iteration import QKernel
from slqr.qlearning import LearnerConfig
from slqr.system import CostModel, SystemModel, simulate_closed_loop

MODEL = SystemModel(A=[[0.5, 0.1], [0.0, 0.4]], B=[[1.0], [0.5]], D=np.eye(2), X0=np.eye(2),
                    state_noise=[(np.eye(2), 0.05)], input_noise=[([[1.0], [0.0]], 0.05)])
COST = CostModel(Q=np.eye(2), R=[[1.0]])
GAIN = np.zeros((1, 2))
LEARNER = LearnerConfig(initial_gain=GAIN, rollout_len=50, probe_var=0.25,
                        rls_init_scale=1e8, max_iterations=1, gain_tol=0.05, seed=0)


def sampler(gain, seed):
    return simulate_closed_loop(MODEL, COST, gain, LEARNER.rollout_len, LEARNER.probe_var, seed)


# name: (callable, well-formed arguments, the matrix arguments, whether a
# non-finite matrix passes through by design).
CASES = {
    "analysis.moment_operator": (analysis.moment_operator, dict(model=MODEL, gain=GAIN),
                                 ["gain"], False),
    "analysis.is_admissible": (analysis.is_admissible, dict(model=MODEL, gain=GAIN),
                               ["gain"], False),
    "analysis.stationary_covariance": (analysis.stationary_covariance,
                                       dict(model=MODEL, gain=GAIN), ["gain"], False),
    # A non-finite start is allowed: the packed LU answers after it.
    "analysis.solve_value_kernel": (analysis.solve_value_kernel,
                                    dict(model=MODEL, cost=COST, gain=GAIN, start=np.eye(2)),
                                    ["gain", "start"], False),
    "analysis.average_cost": (analysis.average_cost,
                              dict(value_kernel=np.eye(2), additive_cov=np.eye(2)),
                              ["value_kernel", "additive_cov"], False),
    "analysis.greedy_gain": (analysis.greedy_gain,
                             dict(curvature=np.eye(2), cross=np.ones((2, 3))),
                             ["curvature", "cross"], False),
    "packing.as_matrix": (packing.as_matrix, dict(mat=np.eye(2), name="mat"), ["mat"], False),
    "packing.symmetrize": (packing.symmetrize, dict(mat=np.eye(2)), ["mat"], True),
    "packing.vech": (packing.vech, dict(mat=np.eye(2)), ["mat"], True),
    "packing.vecs": (packing.vecs, dict(mat=np.eye(2)), ["mat"], True),
    "qlearning.feature_matrix": (qlearning.feature_matrix,
                                 dict(states=np.ones((5, 2)), inputs=np.ones((5, 1))),
                                 ["states", "inputs"], True),
    "qlearning.noise_shape_kernel": (qlearning.noise_shape_kernel,
                                     dict(gain=GAIN, additive_cov=np.eye(2)),
                                     ["gain", "additive_cov"], False),
    "qlearning.bls_estimate": (qlearning.bls_estimate,
                               dict(traj=sampler(GAIN, 0), gain=GAIN, noise_cov=np.eye(2)),
                               ["gain", "noise_cov"], False),
    "qlearning.learn_from_rollouts": (qlearning.learn_from_rollouts,
                                      dict(sampler=sampler, config=LEARNER,
                                           noise_cov=np.eye(2)), ["noise_cov"], False),
    "qlearning.LearnerConfig": (lambda initial_gain: replace(LEARNER, initial_gain=initial_gain),
                                dict(initial_gain=GAIN), ["initial_gain"], False),
    # A record with no checks of its own: the estimator's functions build it.
    "qlearning.RlsState": (qlearning.RlsState,
                           dict(gram_inv=np.eye(2), weighted_costs=np.zeros(2)),
                           ["gram_inv"], True),
    # policy_from_h rejects a kernel with non-finite entries.
    "policy_iteration.QKernel": (policy_iteration.QKernel,
                                 dict(matrix=np.eye(3), state_dim=2), ["matrix"], True),
    "policy_iteration.QKernel.value_kernel": (
        lambda gain: QKernel(np.eye(3), 2).value_kernel(gain), dict(gain=GAIN), ["gain"], False),
    "policy_iteration.policy_iteration": (policy_iteration.policy_iteration,
                                          dict(model=MODEL, cost=COST, initial_gain=GAIN),
                                          ["initial_gain"], False),
}

# Public callables left out, and why.
LEFT_OUT = {
    # Their value kernel: test_analysis.py::test_malformed_kernel_is_a_validation_error.
    "analysis.checked_kernel", "analysis.q_kernel_matrix", "analysis.policy_improvement",
    "analysis.riccati_residual", "policy_iteration.q_kernel_from_value",
    # No matrix argument.
    "analysis.check_admissible", "packing.packed_length", "packing.packed_indices",
    "packing.side_from_packed_length", "qlearning.initial_rls_state", "qlearning.rls_kernel",
    "qlearning.policy_from_h", "qlearning.iteration_seed", "qlearning.run_online_learning",
    "qlearning.LearningResult", "policy_iteration.PolicyIterationTrace",
    # A vector or a (c, p, q) factor stack, not a matrix.
    "packing.unvech", "packing.unvecs", "packing.congruence", "qlearning.features",
    "qlearning.rls_update",
    # The gain goes only to the caller's step, which reads it.
    "policy_iteration.evaluate_improve",
}

BAD = {
    "string": lambda good: "ab",
    "1-d": lambda good: np.ones(good.shape[1]),
    "wrong shape": lambda good: np.ones((good.shape[0] + 1, good.shape[1])),
    "nan": lambda good: np.full(good.shape, np.nan),
}


def test_every_public_callable_is_checked_or_left_out_by_name():
    public = set()
    for module in (analysis, packing, qlearning, policy_iteration):
        for name, member in vars(module).items():
            if (not name.startswith("_") and callable(member)
                    and getattr(member, "__module__", None) == module.__name__):
                public.add(f"{module.__name__.removeprefix('slqr.')}.{name}")
    checked = {".".join(name.split(".")[:2]) for name in CASES}   # a method counts for its class
    assert public == checked | LEFT_OUT


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("name, arg", [(name, arg) for name, case in CASES.items()
                                       for arg in case[2]])
def test_a_malformed_matrix_argument_stays_inside_the_error_contract(name, arg, kind):
    call, args, _, passes_non_finite = CASES[name]
    args = dict(args, **{arg: BAD[kind](args[arg])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**args)
        except (SolverFailure, ValidationError):
            return
    # A returned number is finite, unless a non-finite input passes through
    # by design.
    if isinstance(result, (float, np.ndarray)) and not passes_non_finite:
        assert np.isfinite(result).all()
