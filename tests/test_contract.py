"""The library's error contract: every public function of slqr.analysis,
slqr.packing, slqr.qlearning, slqr.policy_iteration and slqr.system that
takes a matrix, a vector, a factor stack or a real number returns or raises
SolverFailure or ValidationError, whatever is passed in each such argument,
and numpy does not warn on the way. Every count argument of those functions
rejects anything but an integer at or above its minimum with a
ValidationError that names it. Every public callable that takes a model and
a cost rejects a cost that does not fit the model by name."""

import inspect
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from slqr import analysis, experiment, packing, policy_iteration, qlearning, system
from slqr.errors import SolverFailure, ValidationError
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


# name: (callable, well-formed arguments, the array and number arguments,
# whether a non-finite argument passes through by design).
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
                             dict(kernel=np.eye(3), state_dim=2, max_condition=1e8),
                             ["kernel", "max_condition"], False),
    "packing.as_matrix": (packing.as_matrix, dict(mat=np.eye(2), name="mat"), ["mat"], False),
    "packing.symmetrize": (packing.symmetrize, dict(mat=np.eye(2)), ["mat"], True),
    "packing.vech": (packing.vech, dict(mat=np.eye(2)), ["mat"], True),
    "packing.vecs": (packing.vecs, dict(mat=np.eye(2)), ["mat"], True),
    "packing.unvech": (packing.unvech, dict(vec=np.ones(3)), ["vec"], True),
    "packing.unvecs": (packing.unvecs, dict(vec=np.ones(3)), ["vec"], True),
    "packing.congruence": (packing.congruence, dict(factors=np.ones((2, 2, 3))), ["factors"],
                           True),
    "qlearning.feature_matrix": (qlearning.feature_matrix,
                                 dict(states=np.ones((5, 2)), inputs=np.ones((5, 1))),
                                 ["states", "inputs"], True),
    "qlearning.bls_estimate": (qlearning.bls_estimate,
                               dict(traj=sampler(GAIN, 0), gain=GAIN, noise_cov=np.eye(2)),
                               ["gain", "noise_cov"], False),
    "qlearning.learn_from_rollouts": (qlearning.learn_from_rollouts,
                                      dict(sampler=sampler, config=LEARNER,
                                           noise_cov=np.eye(2)), ["noise_cov"], False),
    "qlearning.LearnerConfig": (lambda initial_gain: replace(LEARNER, initial_gain=initial_gain),
                                dict(initial_gain=GAIN), ["initial_gain"], False),
    "qlearning.rls_estimate": (qlearning.rls_estimate,
                               dict(feats=np.ones((2, 3)), next_feats=np.zeros((2, 3)),
                                    noise_correction=np.zeros(3), costs=np.ones(2),
                                    weights=np.ones(2), init_scale=1.0),
                               ["feats", "next_feats", "noise_correction", "costs", "weights",
                                "init_scale"], False),
    # A non-finite kernel passes symmetrize and raises UnreliableKernelError.
    "qlearning.policy_from_h": (qlearning.policy_from_h, dict(kernel=np.eye(3), state_dim=2),
                                ["kernel"], False),
    "policy_iteration.policy_iteration": (policy_iteration.policy_iteration,
                                          dict(model=MODEL, cost=COST, initial_gain=GAIN,
                                               tol=1e-9),
                                          ["initial_gain", "tol"], False),
    "qlearning.LearnerConfig (numbers)": (
        lambda probe_var, rls_init_scale, gain_tol: replace(
            LEARNER, probe_var=probe_var, rls_init_scale=rls_init_scale, gain_tol=gain_tol),
        dict(probe_var=0.25, rls_init_scale=1e8, gain_tol=0.05),
        ["probe_var", "rls_init_scale", "gain_tol"], False),
    "system.SystemModel": (
        lambda A, B, D, X0, variance: SystemModel(A, B, D, X0,
                                                  state_noise=[(np.eye(2), variance)]),
        dict(A=MODEL.A, B=MODEL.B, D=MODEL.D, X0=MODEL.X0, variance=0.05),
        ["A", "B", "D", "X0", "variance"], False),
    "system.CostModel": (CostModel, dict(Q=COST.Q, R=COST.R), ["Q", "R"], False),
    "system.CostModel.validate": (lambda Q, R: CostModel(Q, R).validate(MODEL),
                                  dict(Q=COST.Q, R=COST.R), ["Q", "R"], False),
    "system.loop_factors": (system.loop_factors, dict(model=MODEL, gain=GAIN), ["gain"], False),
    "system.simulate_closed_loop": (
        lambda gain, probe_var: simulate_closed_loop(MODEL, COST, gain, 10, probe_var, 0),
        dict(gain=GAIN, probe_var=0.25), ["gain", "probe_var"], False),
    "system.noise_factor": (system.noise_factor, dict(cov=np.eye(2)), ["cov"], False),
    "system.check_positive": (system.check_positive, dict(value=1.0, name="value"),
                              ["value"], False),
}

# Public callables left out, and why.
LEFT_OUT = {
    # Their value kernel: test_analysis.py::test_malformed_kernel_is_a_validation_error.
    "analysis.checked_kernel", "analysis.q_kernel_matrix", "analysis.policy_improvement",
    "analysis.riccati_residual",
    # No matrix argument.
    "analysis.check_admissible", "qlearning.run_online_learning", "qlearning.LearningResult",
    # Its model and cost: test_a_cost_that_does_not_fit_the_model_is_rejected_by_name.
    "system.check_cost",
    # A record with no checks of its own: simulate_closed_loop builds it.
    "system.Trajectory",
    # No argument; simulate_closed_loop checks that its buffers are one:
    # test_system.py::test_simulate_argument_validation.
    "system.RolloutBuffers",
    # Counts that their package callers have read already (check_integer):
    # the packing helpers' sizes and the max_iter of evaluate_improve and of
    # PolicyIterationTrace.prefix. evaluate_improve's gain goes only to the
    # caller's step, which reads it.
    "packing.packed_length", "packing.packed_indices", "packing.side_from_packed_length",
    "policy_iteration.evaluate_improve", "policy_iteration.PolicyIterationTrace",
}

# Each takes the well-formed argument as an array: a matrix, a vector, a
# (c, p, q) stack or a number.
BAD = {
    "string": lambda good: "ab",
    "ragged": lambda good: [[1.0], [1.0, 2.0]],
    # A matrix's row or a stack's first factor; a vector or a number as rows.
    "wrong rank": lambda good: (np.ones(good.shape[1:]) if good.ndim > 1
                                else np.ones((2,) + good.shape)),
    # One more entry on the first axis; a number as a 1 x 1 matrix.
    "wrong shape": lambda good: (np.ones((good.shape[0] + 1,) + good.shape[1:]) if good.ndim
                                 else np.ones((1, 1))),
    "nan": lambda good: np.full(good.shape, np.nan)[()],
    # As nested lists, or the bare value for a number.
    "bool": lambda good: np.full(good.shape, True).tolist(),
    "int beyond the float range": lambda good: np.full(good.shape, 10**400).tolist(),
    # No entry on any axis; a number as an empty list.
    "empty": lambda good: np.zeros((0,) * good.ndim) if good.ndim else [],
}


# name: (callable, well-formed arguments, each count argument with its minimum).
COUNT_CASES = {
    "analysis.greedy_gain (state_dim)": (analysis.greedy_gain,
                                         dict(kernel=np.eye(3), state_dim=2),
                                         {"state_dim": 1}),
    "qlearning.policy_from_h (state_dim)": (qlearning.policy_from_h,
                                            dict(kernel=np.eye(3), state_dim=2),
                                            {"state_dim": 1}),
    "qlearning.LearnerConfig (counts)": (
        lambda **counts: replace(LEARNER, **counts),
        dict(rollout_len=50, max_iterations=1, seed=0),
        {"rollout_len": 1, "max_iterations": 1, "seed": 0}),
    "qlearning.iteration_seed": (qlearning.iteration_seed, dict(base_seed=0, iteration=0),
                                 {"base_seed": 0, "iteration": 0}),
    "policy_iteration.policy_iteration (max_iter)": (
        policy_iteration.policy_iteration,
        dict(model=MODEL, cost=COST, initial_gain=GAIN, max_iter=1), {"max_iter": 1}),
    "system.simulate_closed_loop (counts)": (
        simulate_closed_loop,
        dict(model=MODEL, cost=COST, gain=GAIN, n_steps=10, probe_var=0.25, seed=0),
        {"n_steps": 1, "seed": 0}),
    "system.check_integer": (system.check_integer, dict(value=0, name="value", minimum=0),
                             {"value": 0}),
}

# Values that are no count; each case also passes its minimum - 1.
BAD_COUNTS = {"float": 2.5, "bool": True, "string": "3", "None": None}


def test_every_public_callable_is_checked_or_left_out_by_name():
    public = set()
    for module in (analysis, packing, qlearning, policy_iteration, system):
        for name, member in vars(module).items():
            if (not name.startswith("_") and callable(member)
                    and getattr(member, "__module__", None) == module.__name__):
                public.add(f"{module.__name__.removeprefix('slqr.')}.{name}")
    # A method counts for its class, and a note in brackets names a second case.
    checked = {".".join(name.split(" ")[0].split(".")[:2]) for name in {**CASES, **COUNT_CASES}}
    assert public == checked | LEFT_OUT


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("name, arg", [(name, arg) for name, case in CASES.items()
                                       for arg in case[2]])
def test_a_malformed_argument_stays_inside_the_error_contract(name, arg, kind):
    call, args, _, passes_non_finite = CASES[name]
    args = dict(args, **{arg: BAD[kind](np.asarray(args[arg]))})
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


@pytest.mark.parametrize("kind", [*BAD_COUNTS, "below the minimum"])
@pytest.mark.parametrize("name, arg", [(name, arg) for name, case in COUNT_CASES.items()
                                       for arg in case[2]])
def test_a_malformed_count_is_a_validation_error_naming_it(name, arg, kind):
    call, args, minimums = COUNT_CASES[name]
    if kind in BAD_COUNTS:
        bad = BAD_COUNTS[kind]
        message = f"{arg} must be an integer, got {type(bad).__name__}"
    else:
        bad = minimums[arg] - 1
        message = f"{arg} must be >= {minimums[arg]}, got {bad}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(**dict(args, **{arg: bad}))


# Every public callable with a model and a cost argument, with the rest of
# its arguments; the cost is passed by keyword.
PAIRED = {
    analysis.solve_value_kernel: dict(gain=GAIN),
    analysis.q_kernel_matrix: dict(value_kernel=np.eye(2)),
    analysis.policy_improvement: dict(value_kernel=np.eye(2)),
    analysis.riccati_residual: dict(value_kernel=np.eye(2)),
    policy_iteration.policy_iteration: dict(initial_gain=GAIN),
    qlearning.run_online_learning: dict(config=LEARNER),
    system.check_cost: {},
    system.simulate_closed_loop: dict(gain=GAIN, n_steps=10, probe_var=0.25, seed=0),
    experiment.reference_solution: {},
}


def test_every_callable_of_a_model_and_a_cost_is_paired():
    found = set()
    for module in (analysis, experiment, packing, qlearning, policy_iteration, system):
        for name, member in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(member)
                    and member.__module__ == module.__name__
                    and {"model", "cost"} <= set(inspect.signature(member).parameters)):
                found.add(member)
    assert found == set(PAIRED)


@pytest.mark.parametrize("wrong, message", [
    ("Q", r"^Q must have shape \(2, 2\), got \(3, 3\)$"),
    ("R", r"^R must have shape \(1, 1\), got \(2, 2\)$")])
@pytest.mark.parametrize("call", PAIRED, ids=lambda call: f"{call.__module__}.{call.__name__}")
def test_a_cost_that_does_not_fit_the_model_is_rejected_by_name(call, wrong, message):
    # A Q or R one size too large for MODEL: square and definite, but not MODEL's.
    size = {"Q": 3, "R": 2}[wrong]
    cost = replace(COST, **{wrong: np.eye(size)})
    with pytest.raises(ValidationError, match=message):
        call(MODEL, cost=cost, **PAIRED[call])
    cost.validate()    # fine on its own: the pairing is what fails
