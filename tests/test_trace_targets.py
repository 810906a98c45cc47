"""The benchmark's tracer (bench/tracer.py) times the program by replacing
module attributes named in its WRAPPED tuple. These tests keep every named
attribute resolvable, so no span goes missing unnoticed, and keep the
wrapped calls where the tracer looks for them: the flow step a module global
called once per integration step, and the reward stages called through
``cli`` and ``distance`` once per prompt batch or trajectory."""

import ast
import gc
import importlib
import inspect
import json
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from trajreward import cli, distance, simulate

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def count_calls(monkeypatch, module, name, calls: Counter, check=None):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    func = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        if check is not None:
            check(*args)
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def two_prompt_batches(tmp_path, fixtures_dir) -> tuple[list, Path]:
    """The shipped fixture's records, and a file holding them twice under two prompt ids."""
    lines = (fixtures_dir / "planted_batch.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    second = [dict(rec, prompt_id="p1", traj_id=f"{rec['traj_id']}b") for rec in records]
    batch_file = tmp_path / "two_prompts.jsonl"
    batch_file.write_text("".join(json.dumps(rec) + "\n" for rec in records + second))
    return records, batch_file


def test_reward_stages_run_once_per_batch_or_trajectory(monkeypatch, tmp_path, fixtures_dir):
    records, batch_file = two_prompt_batches(tmp_path, fixtures_dir)

    def planned_list(requests, source, parallelism):
        # the tracer counts a batch's requests only in a list or tuple, never an iterator
        assert isinstance(requests, (list, tuple))

    calls = Counter()
    count_calls(monkeypatch, distance, "score_batch", calls, planned_list)
    for name in ("batch_distance_matrices", "curiosity_reward", "assemble_rewards"):
        count_calls(monkeypatch, cli, name, calls)
    config = fixtures_dir / "planted_config.yaml"
    argv = ["reward", "--config", str(config), "--input", str(batch_file), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert calls == {
        "score_batch": 2,
        "batch_distance_matrices": 2,
        "assemble_rewards": 2,
        "curiosity_reward": 2 * len(records),
    }



def test_a_batch_scores_are_freed_before_the_next_is_planned(monkeypatch, tmp_path, fixtures_dir):
    _, batch_file = two_prompt_batches(tmp_path, fixtures_dir)
    plan = cli.score_plan
    first_response, freed = [], []

    def tracking(*args, **kwargs):
        if first_response:
            gc.collect()
            freed.append(first_response[0]() is None)
        scores = plan(*args, **kwargs)
        if not first_response:
            first_response.append(weakref.ref(next(iter(scores.values()))))
        return scores

    monkeypatch.setattr(cli, "score_plan", tracking)
    config = fixtures_dir / "planted_config.yaml"
    argv = ["reward", "--config", str(config), "--input", str(batch_file), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert freed == [True]  # checked once, when the second batch is planned

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


def test_benchmark_flow_child_runs_on_list_reports(monkeypatch, tmp_path):
    # the benchmark's flow child, imported as it is, without writing bytecode into bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    flow_child = importlib.import_module("flow_child")
    inputs = importlib.import_module("inputs")
    instances = [
        dict(inputs.sweep_instance(mass), step_size=1e-2, max_time=100.0, record_every=200)
        for mass in inputs.SWEEP_MASSES[:2]
    ]
    instances_path, results_path = tmp_path / "instances.json", tmp_path / "results.json"
    instances_path.write_text(json.dumps(instances))
    calls = Counter()
    count_calls(monkeypatch, simulate, "flow_step", calls)
    assert flow_child.run(str(instances_path), str(results_path)) == 0
    results = json.loads(results_path.read_text())
    assert len(results) == 2
    for result in results:
        assert "error" not in result, result
        assert isinstance(result["hit_time"], float) and result["hit_time"] > 0.0
        assert result["times"][-1] == result["hit_time"]
        assert all(isinstance(t, float) for t in result["times"])
        assert len(result["probs"]) == len(result["times"])
        assert all(isinstance(x, float) for row in result["probs"] for x in row)
    assert calls["flow_step"] == sum(round(r["hit_time"] / 1e-2) for r in results)
