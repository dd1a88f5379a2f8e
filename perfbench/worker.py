"""One benchmark process: set up, run one workload for a time budget, report.

Started by run.py in a fresh interpreter. Prints one JSON object as its last
line: the set-up time, and unless --setup-only, the run's metrics, counts
and report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SWEEP_SIZES = (3, 6, 10, 14, 18, 22)
# Traced learner runs should spend nearly all run time in these layers, and
# pi_n20 in analysis + policy_iteration; a report, not a check on slqr.
PREMISE = {
    "sec6_learn": ("system", "qlearning", 0.9),
    "smoke_learn": ("system", "qlearning", 0.9),
    "pi_n20": ("analysis", "policy_iteration", 0.8),
}


def machine() -> dict:
    import numpy as np
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def n_sweep() -> list[dict]:
    """Time is_admissible and solve_value_kernel at the zero gain over n.

    Both form and factor the n^2 x n^2 moment operator; flops are computed
    from n (eigenvalues ~10 N^3, LU solve 2/3 N^3 with N = n^2)."""
    import numpy as np
    from metrics import eig_flops
    from workloads import mod, random_system
    analysis = mod("analysis")
    rows = []
    for n in SWEEP_SIZES:
        model, cost = random_system(np.random.default_rng(n), n, max(1, n // 2))
        gain = np.zeros((model.input_dim, model.state_dim))
        row = {"n": n, "eig_flops_computed": eig_flops(n),
               "solve_flops_computed": eig_flops(n) + 2.0 / 3.0 * float(n * n) ** 3}
        for name, call in (("is_admissible", lambda: analysis.is_admissible(model, gain)),
                           ("solve_value_kernel",
                            lambda: analysis.solve_value_kernel(model, cost, gain))):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            row[f"{name}_s"] = statistics.median(times)   # of 3 calls
        row["is_admissible_gflop_per_s"] = row["eig_flops_computed"] / row["is_admissible_s"] / 1e9
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args(argv)

    import numpy as np
    import slqr
    if Path(slqr.__file__).resolve().parent != (ROOT / "src" / "slqr").resolve():
        raise SystemExit(f"slqr imported from {slqr.__file__}, not from {ROOT / 'src'}")
    import metrics
    import tracer as tracing
    import workloads
    from reference import Reference, account

    tracer = tracing.Tracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, tracer)
    reference = Reference()
    if args.trace:
        metrics.install(tracer)
    elif workload.learner:
        # Untraced learner runs wrap only the rollout, which starts each
        # iteration: to count iterations and time the reference kernel
        # before it and after it.
        (module, attr), = metrics.TRACE_POINTS["system.rollout"]
        tracer.wrap(f"slqr.{module}", attr, "system.rollout",
                    before=functools.partial(reference, starts_iteration=True),
                    after=reference)

    sec6 = workloads.load_fixture("example_sec6")
    workload.setup(sec6, workloads.check_reference(sec6))
    # The first BLAS/LAPACK calls pay one-off costs; keep them in set-up.
    warm = np.random.default_rng(0).normal(size=(100, 100))
    np.linalg.eigvals(warm)
    np.linalg.solve(warm, warm[0])
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer.phase = "run"
    deadline = time.perf_counter() + args.seconds
    reference()
    while not workload.ops or time.perf_counter() < deadline:
        workload.ops.append(workload.run(len(workload.ops)))
        reference()
    tracer.phase = "check"
    ops = workload.ops
    for op in ops:
        account(op, reference.log)
    workload.final_checks()
    errors = [op.error for op in ops if op.error]
    iterations = sum(op.iterations for op in ops)
    if iterations == 0:
        raise tracing.TracerError("no solver iteration was observed")
    run_s = sum(op.seconds for op in ops)

    result = {
        "setup_s": setup_s,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "report": {"workload": args.workload, "seed": args.seed,
                   "machine": machine(), "figures": workload.report()},
    }
    if not args.trace:
        result["metrics"] = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "iter_cost.p50": statistics.median(c for op in ops for c in op.costs),
        }
    else:
        tracer.require_calls(workload.spans)
        layer = metrics.layer_metrics(tracer)
        overhead = (tracing.span_cost() * sum(s.phase == "run" for s in tracer.spans)
                    + tracer.measure_s["run"])
        layer["trace_overhead_share"] = overhead / (run_s - overhead)
        shares = metrics.layer_shares(tracer, run_s)
        tracer.uninstall()
        first, second, floor = PREMISE[args.workload]
        share = shares.get(first, 0.0) + shares.get(second, 0.0)
        premise = {f"{first}+{second}_share": share, "required": floor,
                   "analysis_share": shares.get("analysis", 0.0),
                   "holds": share >= floor and (args.workload == "pi_n20"
                                                or shares.get("analysis", 0.0) < 0.05)}
        result["metrics"] = layer
        result["report"].update(layer_shares=shares, premise=premise, n_sweep=n_sweep(),
                                overhead_note="trace_overhead_share is computed: "
                                "spans x calibrated wrapper cost + measure time")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({"metrics": layer, **result["report"]}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
