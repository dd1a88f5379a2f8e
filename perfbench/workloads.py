"""The benchmark's three workloads: their inputs, operations and checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. Inputs come from the workload seed only.
slqr is always called through the module attribute its own callers use
(``mod("experiment").run_experiment``), so the tracer's wrappers see the
benchmark's calls as well as the package's internal ones.

An operation whose solver raises ``SolverFailure``/``ValidationError`` has
ended inside the package's documented error contract; it is reported in
``failed_share``. Any other exception, or a result that fails a check,
makes the operation fail and the run incorrect.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import statistics
import tempfile
import traceback
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter as now

import numpy as np

# Known solution of the example_sec6 fixture (acceptance criterion 1).
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
REFERENCE_ATOL = 1e-4

# Criterion 6's tolerance for a learned gain and its cost estimate.
GAIN_TOL = 0.05
REL_COST_TOL = 0.02

CHANNELS = 2   # multiplicative noise channels per side in generated systems
PI_TOL = 1e-9
PI_MAX_ITER = 100
RICCATI_RTOL = 1e-9

# Spans that every traced workload hits in set-up (the reference solve).
SETUP_SPANS = (
    "config.load_config", "experiment.reference_solution",
    "policy_iteration.policy_iteration", "analysis.is_admissible",
    "analysis.moment_operator", "analysis.solve_value_kernel",
    "analysis.policy_improvement",
)
LEARNER_SPANS = ("system.rollout", "qlearning.feature_matrix", "qlearning.fit",
                 "qlearning.policy_from_h")


def mod(name: str):
    """A module of the package under test, e.g. ``mod("analysis")``."""
    return importlib.import_module(f"slqr.{name}")


def _stream(workload_seed: int, name: str, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([workload_seed, zlib.crc32(name.encode()), index])


def learner_seed(workload_seed: int, name: str, index: int) -> int:
    """Seed of the index-th learner run of a workload."""
    return int(_stream(workload_seed, name, index).generate_state(1)[0])


def random_system(rng: np.random.Generator, n: int, m: int):
    """A system whose zero gain is admissible by construction.

    With zero gain the moment operator is A(x)A + sum_i var_i A_i(x)A_i, whose
    spectral radius is at most |A|^2 + sum_i var_i |A_i|^2 (spectral norms).
    A is scaled to norm a < 0.9 and the state-noise variances share half of
    the remaining 1 - a^2, so the bound stays below 1 without an O(n^6)
    eigenvalue check. There are CHANNELS state and CHANNELS input channels.
    """
    System, Cost = mod("system").SystemModel, mod("system").CostModel

    def unit(shape):
        mat = rng.normal(size=shape)
        return mat / np.linalg.norm(mat, 2)

    a = rng.uniform(0.6, 0.85)
    A = a * unit((n, n))
    B = rng.normal(size=(n, m)) / np.sqrt(n)
    budget = 0.5 * (1.0 - a * a) / CHANNELS
    state_noise = [(unit((n, n)), float(rng.uniform(0.5, 1.0) * budget))
                   for _ in range(CHANNELS)]
    input_noise = [(unit((n, m)), float(rng.uniform(0.01, 0.05)))
                   for _ in range(CHANNELS)]
    g = rng.normal(size=(n, n))
    model = System(A=A, B=B, D=g @ g.T / n + 0.2 * np.eye(n), X0=np.eye(n),
                   state_noise=state_noise, input_noise=input_noise)
    cost = Cost(Q=np.diag(rng.uniform(0.5, 2.0, size=n)),
                R=np.diag(rng.uniform(0.5, 2.0, size=m)))
    model.validate()
    cost.validate(model)
    return model, cost


def pi_system(workload_seed: int, index: int):
    """The index-th generated system of the pi_n20 workload."""
    rng = np.random.default_rng(_stream(workload_seed, "pi_n20", index))
    return random_system(rng, 20, 10)


def load_fixture(name: str):
    config = mod("config")
    return config.load_config(config.fixture_path(name))


def check_reference(sec6):
    """reference_solution on example_sec6 must reproduce criterion 1.

    Returns the reference (P*, L*, lambda*)."""
    p, gain, lam = mod("experiment").reference_solution(sec6.model, sec6.cost)
    gaps = (np.abs(p - EXPECTED_P).max(), np.abs(gain - EXPECTED_L).max(),
            abs(lam - EXPECTED_LAMBDA))
    if max(gaps) > REFERENCE_ATOL:
        raise AssertionError(
            f"reference_solution(example_sec6) is off the known solution: "
            f"P gap {gaps[0]:.2e}, L gap {gaps[1]:.2e}, lambda gap {gaps[2]:.2e}")
    return p, gain, lam


@dataclass
class Op:
    seed: int = 0              # learner seed, or index of the generated system
    start: float = 0.0         # perf_counter() around the solver call
    end: float = 0.0
    iterations: int = 0
    # Filled by reference.account: wall times without the reference kernel,
    # and each iteration's time over the reference kernel's.
    seconds: float = 0.0
    iteration_s: list[float] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    solver_failure: bool = False
    hit: bool = False          # learner: within criterion 6's tolerance
    error: str | None = None   # failed check or exception outside the contract
    digest: str | None = None  # smoke_learn: sha256 of convergence.csv


class Workload:
    name = ""
    spans: tuple[str, ...] = SETUP_SPANS
    learner = True

    def __init__(self, seed: int, root: Path, tracer):
        self.seed = seed
        self.root = root
        self.tracer = tracer   # must trace system.rollout on learner workloads
        self.ops: list[Op] = []

    def setup(self, sec6, optimum) -> None:
        pass

    def run(self, index: int) -> Op:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks across operations; they set ``error`` on the ops they fail."""

    def timed(self, op: Op, call):
        """Time one solver call and count the learner rollouts it made.

        Returns the call's result, or None when it raised: a typed solver
        failure is recorded as such, anything else as an error."""
        errors = mod("errors")
        first = len(self.tracer.spans)
        op.start = now()
        try:
            return call()
        except (errors.SolverFailure, errors.ValidationError):
            op.solver_failure = True
        except Exception as exc:  # outside the error contract: a failure
            traceback.print_exc()
            op.error = f"seed {op.seed}: {type(exc).__name__}: {exc}"
        finally:
            op.end = now()
            op.iterations = sum(s.name == "system.rollout" for s in self.tracer.spans[first:])
        return None

    def report(self) -> dict:
        """Workload figures in plain units: seconds, rates, shares and counts."""
        ops = self.ops
        run_s = sum(o.seconds for o in ops)
        out = {
            "run_s": (run_s, "s"),
            "failed_share": (sum(o.solver_failure for o in ops) / len(ops), "ratio"),
        }
        if self.learner:
            iters = sum(o.iterations for o in ops)
            out["learner_samples_per_s"] = (iters * self.rollout_len / run_s, "1/s")
            out["learner_iter_s.p50"] = (
                statistics.median(t for op in ops for t in op.iteration_s), "s")
            out["learner_iterations"] = (iters, "count")
            out["learner_success_rate"] = (sum(o.hit for o in ops) / len(ops), "ratio")
        else:
            out["pi_solve_s.p50"] = (statistics.median(o.seconds for o in ops), "s")
            out["pi_solves"] = (len(ops), "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


class Sec6Learn(Workload):
    name = "sec6_learn"
    spans = SETUP_SPANS + LEARNER_SPANS

    def setup(self, sec6, optimum):
        self.config = sec6
        self.rollout_len = sec6.learner.rollout_len
        self.optimum = optimum

    def run(self, index):
        config = self.config
        op = Op(seed=learner_seed(self.seed, self.name, index))
        learner = replace(config.learner, seed=op.seed)
        # Diverging rollouts overflow before the kernel guard trips, as in
        # acceptance criterion 6.
        with np.errstate(over="ignore", invalid="ignore"):
            result = self.timed(op, lambda: mod("qlearning").run_online_learning(
                config.model, config.cost, learner))
        if result is None:
            return op
        _, gain_ref, lam_ref = self.optimum
        if (len(result.gains) != result.iterations + 1
                or result.iterations != op.iterations
                or not np.isfinite(np.array(result.gains)).all()
                or not np.isfinite(result.cost_estimates).all()):
            op.error = f"seed {op.seed}: malformed learning result"
        else:
            gain_err = np.linalg.norm(result.gains[-1] - gain_ref)
            cost_err = abs(result.cost_estimates[-1] - lam_ref) / lam_ref
            op.hit = bool(gain_err <= GAIN_TOL and cost_err <= REL_COST_TOL)
        return op


class SmokeLearn(Workload):
    name = "smoke_learn"
    spans = SETUP_SPANS + LEARNER_SPANS + ("experiment.run_experiment",)

    def setup(self, sec6, optimum):
        self.config = load_fixture("scalar_smoke")
        self.rollout_len = self.config.learner.rollout_len
        self.out = self.root / ".perfbench_out"
        self.out.mkdir(exist_ok=True)

    def run(self, index):
        return self.experiment(learner_seed(self.seed, self.name, index))

    def experiment(self, seed: int) -> Op:
        """One experiment; the op's digest is the sha256 of its convergence.csv."""
        op = Op(seed=seed)
        config = replace(self.config, seeds=[seed])
        out = Path(tempfile.mkdtemp(prefix="smoke_", dir=self.out))
        try:
            summary = self.timed(op, lambda: mod("experiment").run_experiment(config, out))
            if summary is None:
                return op
            csv = (out / "convergence.csv").read_bytes()
            on_disk = json.loads((out / "summary.json").read_text())
        finally:
            shutil.rmtree(out)
        model_based = summary["model_based"]
        learned = summary["model_free"]["seeds"][str(seed)]
        rows = csv.count(b"\n") - 1
        if (on_disk != json.loads(json.dumps(summary)) or not model_based["converged"]
                or model_based["gain_error"] > 1e-6
                or learned["iterations"] != op.iterations
                or rows != model_based["iterations"] + learned["iterations"] + 2):
            op.error = f"seed {seed}: experiment outputs are inconsistent"
        op.hit = bool(learned["gain_error"] <= GAIN_TOL
                      and learned["rel_cost_error"] <= REL_COST_TOL)
        op.digest = hashlib.sha256(csv).hexdigest()
        return op

    def final_checks(self):
        """convergence.csv must be byte-identical when an experiment reruns,
        within this run and against earlier runs in the same checkout."""
        done = [op for op in self.ops if op.digest]
        if done and self.experiment(done[0].seed).digest != done[0].digest:
            done[0].error = f"seed {done[0].seed}: convergence.csv changed on rerun"
        store = self.out / "convergence_digests.json"
        known = json.loads(store.read_text()) if store.exists() else {}
        for op in done:
            if known.setdefault(str(op.seed), op.digest) != op.digest:
                op.error = f"seed {op.seed}: convergence.csv differs from an earlier run"
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True))
        os.replace(tmp, store)


class PiN20(Workload):
    name = "pi_n20"
    learner = False

    def run(self, index):
        model, cost = pi_system(self.seed, index)
        gain = np.zeros((model.input_dim, model.state_dim))
        op = Op(seed=index)
        trace = self.timed(op, lambda: mod("policy_iteration").policy_iteration(
            model, cost, gain, tol=PI_TOL, max_iter=PI_MAX_ITER))
        if trace is None:
            return op
        op.iterations = trace.iterations
        p = trace.kernels[-1]
        rel = (np.linalg.norm(mod("analysis").riccati_residual(model, cost, p))
               / np.linalg.norm(p))
        if not trace.converged or not rel < RICCATI_RTOL:
            op.error = (f"system {index}: converged={trace.converged}, "
                        f"relative Riccati residual {rel:.2e}")
        return op


WORKLOADS = {w.name: w for w in (Sec6Learn, SmokeLearn, PiN20)}

