"""slqr benchmark: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; slqr is imported from its ``src/``. Every
measurement runs in a fresh worker process with the BLAS thread count pinned
to one, so a run on a small shared machine does not race its own BLAS
threads. With ``--trace 0`` four extra set-up-only workers, two before and
two after the measuring one, give ``setup_s`` its median of five, and the
last line carries the end-to-end metrics; iteration costs are in units of a
reference kernel's time (see reference.py). With ``--trace 1`` one traced
worker gives the per-layer metrics. The last line of stdout is the JSON
result; the line before it is the run's report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def worker(args, deadline: float, setup_only: bool) -> dict:
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slqr" / "__init__.py").is_file():
        print(f"error: no slqr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # Set-up samples before and after the main worker, so their median
        # spans the run rather than one moment of the machine's load.
        extra = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
        setups = [worker(args, deadline, setup_only=True)["setup_s"] for _ in range(extra)]
        result = worker(args, deadline, setup_only=False)
        setups += [worker(args, deadline, setup_only=True)["setup_s"] for _ in range(extra)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    units = ({name: unit for name, unit, _, _ in metrics.PER_LAYER} if args.trace
             else {name: unit for name, (unit, _, _) in metrics.END_TO_END.items()})
    if not args.trace:
        setups.append(result["setup_s"])
        values["setup_s"] = statistics.median(setups)
        result["report"]["setup_s_samples"] = setups
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(values)} are not {sorted(units)}",
              file=sys.stderr)
        return 1
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result["report"]))
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
