"""Experiment orchestration: run the configured solvers, compare every
iterate against the model-based reference optimum, and write machine-readable
convergence traces plus a structured summary.

The reference optimum and the model-based trace come from one policy-iteration
run from the zero gain, at tol min(pi.tol, REFERENCE_TOL) and max_iter
max(pi.max_iter, REFERENCE_MAX_ITER). Each is the prefix of that run that the
loop returns at its own (tol, max_iter), so both equal what a separate run
would give. Without model-based output the run is the reference's alone. A
pi.tol below REFERENCE_TOL that is never met runs the one solve up to
max(pi.max_iter, REFERENCE_MAX_ITER) sweeps.

Outputs in the configured directory:
    convergence.csv   one row per (method, seed, iteration)
    summary.json      reference solution, final iterates, flags
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import average_cost, check_admissible, is_admissible, solve_value_kernel
from .config import ExperimentConfig
from .errors import SolverFailure
from .policy_iteration import policy_iteration
from .qlearning import run_online_learning
from .system import CostModel, SystemModel

# The reference optimum is solved tighter than any configured run.
REFERENCE_TOL = 1e-10
REFERENCE_MAX_ITER = 500

CSV_HEADER = ("method", "seed", "tau", "gain_error", "rel_cost_error", "lambda")


@dataclass(frozen=True)
class ConvergenceRecord:
    method: str
    seed: int
    tau: int
    gain_error: float
    rel_cost_error: float
    lam: float


def _solve(model: SystemModel, cost: CostModel, tol: float = REFERENCE_TOL,
           max_iter: int = REFERENCE_MAX_ITER):
    """Policy iteration off the zero gain at a tol and max_iter at least as
    tight as the reference's, and the optimum (P*, L*, lambda*) read off it.

    A SolverFailure's message gets the prefix "reference solve: ".
    """
    n, m = model.state_dim, model.input_dim
    try:
        run = policy_iteration(model, cost, np.zeros((m, n)),
                               tol=tol, max_iter=max_iter)
    except SolverFailure as exc:
        exc.args = (f"reference solve: {exc}",)
        raise
    reference = run.prefix(REFERENCE_TOL, REFERENCE_MAX_ITER)
    if not reference.converged:
        raise SolverFailure(
            f"reference solve did not converge in {REFERENCE_MAX_ITER} iterations"
        )
    return run, (reference.kernels[-1], reference.gains[-1], reference.costs[-1])


def reference_solution(model: SystemModel, cost: CostModel):
    """Optimal (P*, L*, lambda*) from policy iteration off the zero gain."""
    return _solve(model, cost)[1]


def _relative_error(lam: float, lam_ref: float) -> float:
    """|lam - lam*| / |lam*|; with lam* = 0 (Q = 0), inf, or 0.0 when lam = lam*."""
    return abs(lam - lam_ref) / abs(lam_ref) if lam_ref else (np.inf if lam else 0.0)


def _records(method: str, seed: int, gains: list[np.ndarray], lams: list[float],
             gain_ref: np.ndarray, lam_ref: float) -> list[ConvergenceRecord]:
    """One row per gain of a run, lams[tau] being the cost given for gains[tau]."""
    return [
        ConvergenceRecord(
            method=method, seed=seed, tau=tau,
            gain_error=float(np.linalg.norm(gain - gain_ref)),
            rel_cost_error=_relative_error(lam, lam_ref),
            lam=lam,
        )
        for tau, (gain, lam) in enumerate(zip(gains, lams))
    ]


def emit_convergence_csv(records: list[ConvergenceRecord], path: str | Path) -> None:
    """Write records sorted by (method, seed, tau), full-precision floats."""
    ordered = sorted(records, key=lambda r: (r.method, r.seed, r.tau))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in ordered:
            writer.writerow([rec.method, rec.seed, rec.tau,
                             repr(rec.gain_error), repr(rec.rel_cost_error),
                             repr(rec.lam)])


def run_experiment(config: ExperimentConfig,
                   output_dir: str | Path | None = None) -> dict:
    """Run the configured methods and write convergence.csv + summary.json.

    Returns the summary as a dict. A SolverFailure in the policy-iteration
    run, which gives the reference and the model-based trace, raises before
    anything is written, its message prefixed "reference solve: "; that run
    starts from the zero gain, so it is also the check of a zero
    learner.initial_gain. Learner failures abort with the original exception
    after flushing the rows and summaries of the seeds that finished; the
    message names the method, seed, and iteration (an inadmissible nonzero
    initial gain: "method model_free: ").
    """
    out = Path(output_dir if output_dir is not None else config.output_dir)
    model, cost = config.model, config.cost
    if config.runs_model_based():
        run, optimum = _solve(model, cost, min(config.pi_tol, REFERENCE_TOL),
                              max(config.pi_max_iter, REFERENCE_MAX_ITER))
    else:
        run, optimum = _solve(model, cost)
    kernel_ref, gain_ref, lam_ref = optimum

    records: list[ConvergenceRecord] = []
    summary: dict = {
        "reference": {
            "P": kernel_ref.tolist(),
            "L": gain_ref.tolist(),
            "lambda": lam_ref,
        },
    }

    def flush(partial: bool):
        emit_convergence_csv(records, out / "convergence.csv")
        if partial:
            summary["aborted"] = True
        with open(out / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @contextmanager
    def aborting(method: str):
        """Flush the partial outputs on a SolverFailure and name the method."""
        try:
            yield
        except SolverFailure as exc:
            flush(partial=True)
            exc.args = (f"method {method}: {exc}",)
            raise

    if config.runs_model_based():
        trace = run.prefix(config.pi_tol, config.pi_max_iter)
        # Give the final improved gain its own row, with its exactly evaluated cost.
        final_cost = average_cost(solve_value_kernel(model, cost, trace.gains[-1]),
                                  model.D)
        records.extend(_records("model_based", 0, trace.gains,
                                trace.costs + [final_cost], gain_ref, lam_ref))
        summary["model_based"] = {
            "converged": trace.converged,
            "iterations": trace.iterations,
            "P": trace.kernels[-1].tolist(),
            "L": trace.gains[-1].tolist(),
            "lambda": trace.costs[-1],
            "gain_error": float(np.linalg.norm(trace.gains[-1] - gain_ref)),
        }

    if config.runs_model_free():
        learner = config.learner
        # The policy-iteration run above starts from the zero gain and has
        # checked it already.
        if learner.initial_gain.any():
            with aborting("model_free"):
                check_admissible(is_admissible(model, learner.initial_gain), "initial gain")
        per_seed: dict = {}
        summary["model_free"] = {"cost_mode": learner.cost_mode, "seeds": per_seed}
        for seed in config.seeds:
            with aborting(f"model_free, seed {seed}"):
                result = run_online_learning(model, cost,
                                             replace(learner, seed=seed))
            # The returned gain never gets its own evaluation pass; repeat the
            # last estimate so the trace ends at the gain the learner returns.
            lams = result.cost_estimates + result.cost_estimates[-1:]
            records.extend(_records("model_free", seed, result.gains, lams,
                                    gain_ref, lam_ref))
            per_seed[str(seed)] = {
                "converged": result.converged,
                "iterations": result.iterations,
                "L": result.gains[-1].tolist(),
                "lambda": result.cost_estimates[-1],
                "gain_error": float(np.linalg.norm(result.gains[-1] - gain_ref)),
                "rel_cost_error": _relative_error(result.cost_estimates[-1], lam_ref),
            }

    flush(partial=False)
    return summary
