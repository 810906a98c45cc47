"""The benchmark's tracer (bench/tracer.py) times the program by replacing
module attributes named in its WRAPPED tuple. These tests keep every named
attribute resolvable, so no span goes missing unnoticed, and keep the flow
step a module global called once per integration step."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from trajreward import simulate

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def wrapped_targets() -> tuple:
    """The WRAPPED tuple, read from the tracer's source without running it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no WRAPPED tuple")


TARGETS = wrapped_targets()


@pytest.mark.parametrize("module_name, path, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_wrapped_attribute_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = inspect.getattr_static(owner, part)  # AttributeError when renamed away
    func = owner.__func__ if isinstance(owner, (classmethod, staticmethod)) else owner
    assert callable(func), f"{module_name}.{path} ({span}) is not callable"


def test_flow_step_runs_once_per_step(monkeypatch):
    calls = 0
    step = simulate.flow_step

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(simulate, "flow_step", counting)
    config = simulate.FlowConfig(step_size=1e-2, max_time=200.0, integrator="rk4", record_every=50)
    report = simulate.simulate_convergence(simulate.preferred_mass_instance(0.1), config)
    assert calls > 0
    assert calls == round(report.hit_time / config.step_size)
