import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import slqr
from slqr import errors

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


# Public module-level functions and classes of slqr that nothing in src/slqr
# or perfbench/ calls, each with the reason it ships.
KEPT = {
    "analysis.stationary_covariance": "the covariance side of the solve gate",
    "packing.vecs": "the packing that unvecs inverts",
    "qlearning.bls_estimate": "the paper's plain fit, criterion 5's batch side",
    "qlearning.rls_estimate": "the paper's recursive scheme, criterion 5's recursive side",
}


def test_every_public_name_has_a_caller_or_a_kept_reason():
    # A name counts as called where a Name or Attribute node of src/slqr or
    # of the benchmark (perfbench/, its tests left out) spells it, outside
    # the name's own definition; docstrings and comments do not count.
    sources = [*sorted((ROOT / "src" / "slqr").glob("*.py")),
               *sorted(p for p in (ROOT / "perfbench").glob("*.py")
                       if not p.name.startswith("test_"))]
    defined, called = {}, set()
    for path in sources:
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)   # a def's or a class's name
            if path.parent.name == "slqr" and own and not own.startswith("_"):
                defined[f"{path.stem}.{own}"] = own
            called |= {node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(stmt)
                       if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    uncalled = {key for key, name in defined.items() if name not in called}
    assert uncalled == set(KEPT)


def test_every_kept_name_is_called_by_the_tests():
    # A kept name ships for what the tests check with it; one they no longer
    # call is dead code.
    called = {node.id if isinstance(node, ast.Name) else node.attr
              for path in (ROOT / "tests").glob("test_*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.Name, ast.Attribute))}
    assert {key for key in KEPT if key.split(".")[1] not in called} == set()


def test_every_imported_name_is_used():
    # A module under src/slqr or tests/ spells each name it imports as a
    # Name node; the base of an Attribute, as np in np.eye, is one too.
    # slqr/__init__.py imports to re-export, and __future__ imports are
    # directives.
    paths = sorted({*(ROOT / "src" / "slqr").glob("*.py"), *(ROOT / "tests").glob("*.py")}
                   - {ROOT / "src" / "slqr" / "__init__.py"})
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                        and node.module != "__future__")
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_the_test_helpers_are_not_in_the_package():
    # The random instances the tests draw live in tests/random_instances.py.
    assert importlib.util.find_spec("slqr.testing") is None
    for path in (ROOT / "src" / "slqr").glob("*.py"):
        assert "random_instances" not in path.read_text(), path.name


def test_top_level_surface_matches_the_readme():
    for name in slqr.__all__:
        assert getattr(slqr, name) is not None, name
    library = README.read_text().split("## Library", 1)[1]
    imported = re.search(r"from slqr import \(([^)]*)\)", library).group(1)
    names = {name.strip() for name in imported.split(",")} - {""}
    assert names and names <= set(slqr.__all__)


def test_every_error_class_is_exported():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, Exception)}
    assert {"ConfigError", "ValidationError", "SolverFailure"} <= classes
    assert classes <= set(slqr.__all__)


def test_submodules_are_not_shadowed_by_top_level_names():
    import slqr.policy_iteration as module
    assert inspect.ismodule(module)
    assert module.policy_iteration.__module__ == "slqr.policy_iteration"
    for info in pkgutil.iter_modules(slqr.__path__):
        if hasattr(slqr, info.name):
            assert inspect.ismodule(getattr(slqr, info.name)), info.name


def test_every_benchmark_trace_point_resolves(monkeypatch):
    # perfbench's tracer wraps slqr.<module>.<attr> for each trace point; a
    # name that goes missing breaks only traced benchmark runs, so check the
    # list here. The file is loaded by path and only read: no bytecode is
    # written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_metrics",
                                                  ROOT / "perfbench" / "metrics.py")
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    points = [point for span in metrics.TRACE_POINTS.values() for point in span]
    assert points
    for module, attr in points:
        target = getattr(importlib.import_module(f"slqr.{module}"), attr, None)
        assert callable(target), f"slqr.{module}.{attr}"


def test_the_benchmark_set_up_calls_every_set_up_span(load_perfbench, tmp_path):
    # The benchmark's set-up (load example_sec6, solve its reference) must
    # pass through every span in SETUP_SPANS, or traced runs stop with a
    # TracerError; a change that drops or reroutes one of these calls, such
    # as policy_iteration's initial is_admissible, fails here. One traced
    # pi_n20 operation after it must pass its own checks and leave every
    # span of that workload recorded, the model-based ones in its run phase,
    # so a change to what moment_operator returns or to how it is called
    # fails here too.
    tracing, metrics, workloads = (load_perfbench(name)
                                   for name in ("tracer", "metrics", "workloads"))
    tracer = tracing.Tracer()
    try:
        metrics.install(tracer)
        workloads.check_reference(workloads.load_fixture("example_sec6"))
        tracer.require_calls(workloads.SETUP_SPANS)
        tracer.phase = "run"
        workload = workloads.PiN20(1, tmp_path, tracer)
        op = workload.run(0)
        assert op.error is None and not op.solver_failure and op.iterations > 1
        tracer.require_calls(workload.spans)
        for name in ("policy_iteration.policy_iteration", "analysis.moment_operator",
                     "analysis.solve_value_kernel", "analysis.policy_improvement"):
            assert tracer.select(name, phases=("run",)), name
        assert all(s.info["n"] == 20 for s in tracer.select("analysis.moment_operator",
                                                            phases=("run",)))
    finally:
        tracer.uninstall()


def test_a_traced_learner_run_calls_every_learner_span(load_perfbench, tmp_path):
    # Traced learner runs require every span in LEARNER_SPANS, among them
    # qlearning.feature_matrix, which the fit must call through the module
    # attribute once per window; a fit that stops calling it passes the
    # numeric tests and still stops every traced learner run with a
    # TracerError. One smoke_learn operation after the set-up must pass its
    # own checks and leave every span of that workload recorded.
    tracing, metrics, workloads = (load_perfbench(name)
                                   for name in ("tracer", "metrics", "workloads"))
    tracer = tracing.Tracer()
    try:
        metrics.install(tracer)
        sec6 = workloads.load_fixture("example_sec6")
        optimum = workloads.check_reference(sec6)
        workload = workloads.SmokeLearn(1, tmp_path, tracer)
        workload.setup(sec6, optimum)
        tracer.phase = "run"
        op = workload.run(0)
        assert op.error is None and not op.solver_failure and op.iterations >= 1
        tracer.require_calls(workload.spans)
        for name in ("system.rollout", "qlearning.feature_matrix", "qlearning.fit"):
            assert tracer.select(name, phases=("run",)), name
    finally:
        tracer.uninstall()
