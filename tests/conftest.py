import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from slqr.config import fixture_path, load_config
from slqr.policy_iteration import policy_iteration


@pytest.fixture(scope="session")
def sec6_config():
    return load_config(fixture_path("example_sec6"))


@pytest.fixture(scope="session")
def sec6(sec6_config):
    return sec6_config.model, sec6_config.cost


@pytest.fixture(scope="session")
def sec6_reference(sec6):
    """Tight model-based optimum (P*, L*, lambda*) of the 3x3 example system."""
    model, cost = sec6
    trace = policy_iteration(model, cost, np.zeros((3, 3)), tol=1e-10, max_iter=500)
    assert trace.converged
    return trace.kernels[-1], trace.gains[-1], trace.costs[-1]


@pytest.fixture
def load_perfbench(monkeypatch):
    """A loader of perfbench/<name>.py by path, under a name of its own and
    registered in sys.modules (its dataclasses look their module up there)
    for the test only. The file is only read: no bytecode is written next
    to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    root = Path(__file__).resolve().parents[1]

    def load(name: str):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      root / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load
