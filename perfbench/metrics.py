"""Metric definitions and the per-layer figures computed from tracer spans.

BENCHMARK.json repeats the (name, unit, better) triples below; the tests
check that the two agree. ``moves`` records, before anything is measured,
which end-to-end metric (or figure of the run report, such as
``failed_share``) a layer metric should move and on which workload.

Iteration timings are divided by the time of a fixed reference kernel
measured around each iteration (unit ``ref``); see reference.py.
Per-layer times are plain seconds of the traced run.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

# name: (unit, better, meaning)
END_TO_END = {
    "setup_s": ("s", "lower",
                "fresh process to first timed call: imports, config load, "
                "reference solve and check, first BLAS call (median of 5)"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the workload process"),
    "iter_cost.p50": ("ref", "lower",
                      "median wall time of one solver iteration (learner iteration, "
                      "or policy-iteration sweep on pi_n20) over the reference "
                      "kernel's time around it"),
}

LEARNERS = "sec6_learn, smoke_learn"
# (name, unit, better, moves)
PER_LAYER = [
    ("system.rollout.calls", "count", "lower", f"iter_cost.p50 on {LEARNERS}; not pi_n20"),
    ("system.rollout.busy_s", "s", "lower", f"iter_cost.p50 on {LEARNERS}"),
    ("system.rollout.steps_per_s", "1/s", "higher", f"iter_cost.p50 on {LEARNERS}"),
    ("system.rollout.nonfinite_share", "ratio", "lower",
     "iter_cost.p50 and failed_share on sec6_learn only"),
    ("qlearning.feature_matrix.busy_s", "s", "lower", f"iter_cost.p50 on {LEARNERS}"),
    ("qlearning.fit.busy_s", "s", "lower", f"iter_cost.p50 on {LEARNERS}"),
    ("qlearning.fit.samples_per_s", "1/s", "higher", f"iter_cost.p50 on {LEARNERS}"),
    ("qlearning.policy_from_h.calls", "count", "lower", f"iter_cost.p50 on {LEARNERS}"),
    ("qlearning.policy_from_h.busy_s", "s", "lower", f"iter_cost.p50 on {LEARNERS}"),
    ("qlearning.useful_fit_share", "ratio", "higher",
     "learner_success_rate and failed_share on sec6_learn"),
    ("qlearning.iterations", "count", "lower",
     "learner_success_rate and failed_share on sec6_learn"),
    ("analysis.moment_operator.calls", "count", "lower", "iter_cost.p50 on pi_n20"),
    ("analysis.moment_operator.busy_s", "s", "lower", "iter_cost.p50 on pi_n20"),
    ("analysis.is_admissible.calls", "count", "lower", "iter_cost.p50 on pi_n20"),
    ("analysis.is_admissible.busy_s", "s", "lower", "iter_cost.p50 on pi_n20"),
    ("analysis.solve_value_kernel.calls", "count", "lower", "iter_cost.p50 on pi_n20"),
    ("analysis.solve_value_kernel.busy_s", "s", "lower", "iter_cost.p50 on pi_n20"),
    ("analysis.policy_improvement.busy_s", "s", "lower", "iter_cost.p50 on pi_n20"),
    ("analysis.eig_flops_computed", "flop", "lower", "iter_cost.p50 on pi_n20"),
    ("analysis.operator_bytes_computed", "B", "lower", "iter_cost.p50 on pi_n20"),
    ("policy_iteration.sweeps", "count", "lower", "iter_cost.p50, pi_solve_s.p50 on pi_n20"),
    ("policy_iteration.sweep_s.p50", "s", "lower", "iter_cost.p50 on pi_n20"),
    ("experiment.reference_solution.busy_s", "s", "lower",
     "setup_s on every workload; iter_cost.p50 on smoke_learn"),
    ("experiment.run_experiment.busy_s", "s", "lower", "iter_cost.p50 on smoke_learn"),
    ("experiment.bytes_written", "B", "lower", "iter_cost.p50 on smoke_learn"),
    ("config.load_config.busy_s", "s", "lower", "setup_s on every workload"),
    ("trace_overhead_share", "ratio", "lower", "none: traced run against untraced run"),
]

# Where each traced span is looked up by its callers: (module, attribute).
# Spans named in SELF_TIMED report busy time minus their traced children.
TRACE_POINTS = {
    "config.load_config": [("config", "load_config")],
    "system.rollout": [("qlearning", "simulate_closed_loop")],
    "qlearning.feature_matrix": [("qlearning", "feature_matrix")],
    "qlearning.fit": [("qlearning", "run_online_learning"),
                      ("experiment", "run_online_learning")],
    "qlearning.policy_from_h": [("qlearning", "policy_from_h")],
    "analysis.moment_operator": [("analysis", "moment_operator")],
    "analysis.is_admissible": [("analysis", "is_admissible"),
                               ("policy_iteration", "is_admissible"),
                               ("experiment", "is_admissible")],
    "analysis.solve_value_kernel": [("policy_iteration", "solve_value_kernel"),
                                    ("experiment", "solve_value_kernel")],
    "analysis.policy_improvement": [("policy_iteration", "policy_improvement")],
    "policy_iteration.policy_iteration": [("policy_iteration", "policy_iteration"),
                                          ("experiment", "policy_iteration")],
    "experiment.reference_solution": [("experiment", "reference_solution")],
    "experiment.run_experiment": [("experiment", "run_experiment")],
}
SELF_TIMED = {"qlearning.fit", "analysis.solve_value_kernel", "experiment.run_experiment"}


def _state_dim(args, kwargs, result):
    return {"n": (kwargs.get("model") or args[0]).state_dim}


def _rollout(args, kwargs, result):
    return {"steps": result.n_steps, "nonfinite": not np.isfinite(result.states).all()}


def _bytes_written(args, kwargs, result):
    out = Path(kwargs.get("output_dir") or args[1])
    return {"bytes": sum(f.stat().st_size for f in out.iterdir())}


MEASURES = {
    "system.rollout": _rollout,
    "analysis.moment_operator": _state_dim,
    "analysis.is_admissible": _state_dim,
    "experiment.run_experiment": _bytes_written,
}


def install(tracer):
    for span, points in TRACE_POINTS.items():
        for module, attr in points:
            tracer.wrap(f"slqr.{module}", attr, span, MEASURES.get(span))


def eig_flops(n: int) -> float:
    """Computed flops of eigenvalues of the n^2 x n^2 operator (~10 N^3)."""
    return 10.0 * float(n * n) ** 3


def layer_metrics(tracer) -> dict:
    """Per-layer figures over the set-up and run phases of a traced run."""
    own = tracer.self_times()
    phases = ("setup", "run")
    index = {}
    for i, s in enumerate(tracer.spans):
        if s.phase in phases:
            index.setdefault(s.name, []).append(i)

    def spans(name):
        return [tracer.spans[i] for i in index.get(name, [])]

    def busy(name):
        if name in SELF_TIMED:
            return sum((own[i] for i in index.get(name, [])), 0.0)
        return sum((s.duration for s in spans(name)), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    rollouts = spans("system.rollout")
    fitted = sum(s.info["steps"] for s in rollouts if not s.raised)
    gains = sum(not s.raised for s in spans("qlearning.policy_from_h"))
    out = {
        "system.rollout.calls": len(rollouts),
        "system.rollout.busy_s": busy("system.rollout"),
        "system.rollout.steps_per_s": ratio(sum(s.info.get("steps", 0) for s in rollouts),
                                            busy("system.rollout")),
        "system.rollout.nonfinite_share": ratio(sum(s.info.get("nonfinite", False)
                                                    for s in rollouts), len(rollouts)),
        "qlearning.feature_matrix.busy_s": busy("qlearning.feature_matrix"),
        "qlearning.fit.busy_s": busy("qlearning.fit"),
        "qlearning.fit.samples_per_s": ratio(fitted, busy("qlearning.fit")),
        "qlearning.policy_from_h.calls": len(spans("qlearning.policy_from_h")),
        "qlearning.policy_from_h.busy_s": busy("qlearning.policy_from_h"),
        "qlearning.useful_fit_share": ratio(gains, sum(not s.raised for s in rollouts)),
        "qlearning.iterations": len(rollouts),
    }
    for name in ("moment_operator", "is_admissible", "solve_value_kernel"):
        out[f"analysis.{name}.calls"] = len(spans(f"analysis.{name}"))
        out[f"analysis.{name}.busy_s"] = busy(f"analysis.{name}")
    out["analysis.policy_improvement.busy_s"] = busy("analysis.policy_improvement")
    out["analysis.eig_flops_computed"] = sum(
        (eig_flops(s.info["n"]) for s in spans("analysis.is_admissible") if s.info), 0.0)
    out["analysis.operator_bytes_computed"] = sum(
        8 * s.info["n"] ** 4 for s in spans("analysis.moment_operator") if s.info)

    children: dict[int, list] = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)
    sweeps = []
    for i in index.get("policy_iteration.policy_iteration", []):
        evaluate = None
        for child in children.get(i, []):
            if child.name == "analysis.solve_value_kernel":
                evaluate = child
            elif child.name == "analysis.policy_improvement" and evaluate is not None:
                sweeps.append(child.end - evaluate.start)
                evaluate = None
    out["policy_iteration.sweeps"] = len(sweeps)
    out["policy_iteration.sweep_s.p50"] = statistics.median(sweeps) if sweeps else 0.0
    out["experiment.reference_solution.busy_s"] = busy("experiment.reference_solution")
    out["experiment.run_experiment.busy_s"] = busy("experiment.run_experiment")
    out["experiment.bytes_written"] = sum(s.info.get("bytes", 0)
                                          for s in spans("experiment.run_experiment"))
    out["config.load_config.busy_s"] = busy("config.load_config")
    return out


def layer_shares(tracer, run_seconds: float) -> dict:
    """Self time of each layer in the run phase, as a share of run time."""
    shares: dict[str, float] = {}
    for s, own in zip(tracer.spans, tracer.self_times()):
        if s.phase == "run":
            layer = s.name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + own / run_seconds
    return shares
