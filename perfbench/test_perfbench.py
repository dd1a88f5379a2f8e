"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _system_arrays(model, cost):
    return [model.A, model.B, model.D, cost.Q, cost.R] + [
        mat for mat, _ in model.state_noise + model.input_noise]


def test_same_workload_seed_gives_same_inputs():
    for name in ("sec6_learn", "smoke_learn"):
        seeds = [workloads.learner_seed(5, name, i) for i in range(8)]
        assert seeds == [workloads.learner_seed(5, name, i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert seeds != [workloads.learner_seed(6, name, i) for i in range(8)]
    for index in range(3):
        first, again = workloads.pi_system(5, index), workloads.pi_system(5, index)
        for a, b in zip(_system_arrays(*first), _system_arrays(*again)):
            np.testing.assert_array_equal(a, b)
    assert not np.array_equal(workloads.pi_system(5, 0)[0].A,
                              workloads.pi_system(6, 0)[0].A)


@pytest.mark.parametrize("workload_seed", [0, 1, 2])
def test_generated_pi_systems_are_admissible_at_zero_gain(workload_seed):
    analysis = workloads.mod("analysis")
    for index in range(3):
        model, _ = workloads.pi_system(workload_seed, index)
        assert (model.state_dim, model.input_dim) == (20, 10)
        assert len(model.state_noise) == len(model.input_noise) == 2
        admissible, rho = analysis.is_admissible(model, np.zeros((10, 20)))
        assert admissible and rho < 1.0


def test_metric_definitions_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, (unit, better, _) in metrics.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in metrics.PER_LAYER]


def _run(trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pi_n20", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_account_splits_iterations_and_cuts_out_the_kernel():
    T = reference.Timing
    log = [T(0, 1, 1.0, False),                      # before the operation
           T(2, 3, 1.0, True), T(5, 6, 2.0, False),  # around rollout 1
           T(7, 8, 2.0, True), T(9, 10, 2.0, False),  # around rollout 2
           T(12, 13, 2.0, False)]                    # after the operation
    op = workloads.Op(start=1.5, end=11.0, iterations=2)
    reference.account(op, log)
    assert op.seconds == pytest.approx(5.5)
    assert op.iteration_s == pytest.approx([3.5, 2.0])
    assert op.costs == pytest.approx([0.5 / 1.0 + 2 / 1.5 + 1 / 2.0, 1 / 2.0 + 1 / 2.0])

    solve = workloads.Op(start=1.0, end=5.0, iterations=4)
    reference.account(solve, [T(0, 1, 1.0, False), T(5, 6, 3.0, False)])
    assert solve.seconds == pytest.approx(4.0)
    assert solve.iteration_s == pytest.approx([1.0] * 4)
    assert solve.costs == pytest.approx([0.5] * 4)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake")
    module.error = ValueError("negative")

    def inner(x):
        if x < 0:
            raise module.error
        return x

    def outer(x):
        return module.inner(x) + 1

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_tracer_refuses_a_missing_attribute(fake_module):
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TracerError, match="perfbench_fake.renamed"):
        tracer.wrap(fake_module.__name__, "renamed", "fake.renamed")


def test_tracer_reports_spans_that_never_ran(fake_module):
    tracer = tracing.Tracer()
    tracer.wrap(fake_module.__name__, "inner", "fake.inner")
    tracer.wrap(fake_module.__name__, "outer", "fake.outer")
    fake_module.inner(1)
    tracer.require_calls(["fake.inner"])
    with pytest.raises(tracing.TracerError, match="fake.outer"):
        tracer.require_calls(["fake.inner", "fake.outer"])


def test_tracer_nests_spans_and_reraises_unchanged(fake_module):
    inner = fake_module.inner
    tracer = tracing.Tracer()
    tracer.wrap(fake_module.__name__, "inner", "fake.inner")
    tracer.wrap(fake_module.__name__, "outer", "fake.outer")
    assert fake_module.outer(2) == 3
    outer_span, inner_span = tracer.spans
    assert (outer_span.parent, inner_span.parent) == (-1, 0)
    assert tracer.self_times()[0] == pytest.approx(
        outer_span.duration - inner_span.duration)

    with pytest.raises(ValueError) as caught:
        fake_module.outer(-1)
    assert caught.value is fake_module.error
    assert [s.raised for s in tracer.spans[2:]] == [True, True]

    tracer.uninstall()
    assert fake_module.inner is inner
