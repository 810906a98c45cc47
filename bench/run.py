#!/usr/bin/env python3
"""The trajreward benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {toy-planted,http-service,flow-convergence}
                         --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Run from the root of a source checkout. Each workload builds its inputs
from the seed, times one cold set-up in a child process, then repeats
whole passes of the program (each a few child processes with a fixed,
minimal environment) until ``--seconds`` have been measured, checks the
outputs against the benchmark's own computations, and prints one JSON
line last: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
passes). With ``--trace 1`` every other pass runs under ``bench/tracer.py``
and the metrics are the per-layer ones, plus ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

import checks
import inputs
from stub_service import StubScoringService

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TIME_LIMIT_S = 170.0  # every run, set-up and checks included, ends well within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# per-layer metric -> unit
PER_LAYER = {
    "cli.import_s": "s",
    "simulate.import_s": "s",
    "config.load_s": "s",
    "scoring.toy_build_s": "s",
    "config.echo_s": "s",
    "trajectory.load_s": "s",
    "trajectory.count": "count",
    "scoring.toy_score_s": "s",
    "scoring.toy_score_calls": "count",
    "scoring.batch_s": "s",
    "scoring.batch_requests": "count",
    "scoring.batch_unique_content": "count",
    "scoring.unique_ratio": "ratio",
    "scoring.http_score_s": "s",
    "scoring.http_score_calls": "count",
    "service.requests": "count",
    "service.unique_content": "count",
    "service.retries": "count",
    "service.busy_s": "s",
    "service.replay_requests": "count",
    "distance.matrices_s": "s",
    "distance.self_s": "s",
    "distance.cells": "count",
    "distance.write_s": "s",
    "distance.read_s": "s",
    "rewards.curiosity_s": "s",
    "rewards.curiosity_calls": "count",
    "rewards.assemble_s": "s",
    "analysis.diversity_s": "s",
    "analysis.feature_stats_s": "s",
    "analysis.curves_s": "s",
    "simulate.convergence_s": "s",
    "simulate.flow_step_calls": "count",
    "simulate.flow_step_us": "us",
    "simulate.steps": "count",
    "simulate.growth_check_s": "s",
    "trace.overhead_s": "s",
    "trace.missing": "count",
}
# per-layer time metric -> span name in the tracer
SPAN_TOTALS = {
    "config.load_s": "config.load",
    "scoring.toy_build_s": "scoring.toy_build",
    "config.echo_s": "config.echo",
    "trajectory.load_s": "trajectory.load",
    "scoring.toy_score_s": "scoring.toy_score",
    "scoring.batch_s": "scoring.batch",
    "scoring.http_score_s": "scoring.http_score",
    "distance.matrices_s": "distance.matrices",
    "distance.write_s": "distance.write",
    "distance.read_s": "distance.read",
    "rewards.curiosity_s": "rewards.curiosity",
    "rewards.assemble_s": "rewards.assemble",
    "analysis.diversity_s": "analysis.diversity",
    "analysis.feature_stats_s": "analysis.feature_stats",
    "analysis.curves_s": "analysis.curves",
    "simulate.convergence_s": "simulate.convergence",
    "simulate.growth_check_s": "simulate.growth_check",
}
SPAN_CALLS = {
    "scoring.toy_score_calls": "scoring.toy_score",
    "scoring.http_score_calls": "scoring.http_score",
    "rewards.curiosity_calls": "rewards.curiosity",
    "simulate.flow_step_calls": "simulate.flow_step",
}

# Workload sizes. "full" is what the benchmark measures; "smoke" runs the
# same code paths and checks in a second or two.
TOY_SHAPES = {
    "full": inputs.PlantedShape(2, 24, 32, (12, 8, 4), (0.85, 0.6, 0.5)),
    "smoke": inputs.PlantedShape(2, 6, 4, (3, 2, 1), (0.85, 0.6, 0.5)),
}
HTTP_SHAPES = {
    "full": inputs.PlantedShape(6, 6, 4, (3, 2, 1), (0.85, 0.6, 0.5)),
    "smoke": inputs.PlantedShape(2, 4, 3, (2, 1, 1), (0.85, 0.6, 0.5)),
}
FLOW_STEP_BUDGET = {"full": 24_000, "smoke": 600}  # RK4 steps of the seeded random instances
FLOW_STEP_SIZE = 1e-2
FLOW_RECORD_EVERY = 200


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, child hung)."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    trace: dict | None = None


@dataclass
class Pass:
    children: list[Child] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    fingerprint: bytes = b""
    service: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


class Runner:
    """Starts program processes and reads their wall time and rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {
            "PATH": os.defpath,
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "LC_ALL": "C.UTF-8",
            "HOME": str(work),
        }
        self._logs = 0

    def run(self, argv: list[str]) -> Child:
        self._logs += 1
        log_path = self.work / f"child{self._logs:04d}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"{argv[:3]} ran past the time limit; log {log_path}")
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)

    def program(self, cli_argv: list[str], traced: bool, tag: str) -> Child:
        """Run a trajreward CLI command, plainly or under the tracer."""
        if not traced:
            return self.run(["-m", "trajreward.cli", *cli_argv])
        return self._traced(["cli", *cli_argv], tag)

    def _traced(self, argv: list[str], tag: str) -> Child:
        summary = self.work / f"{tag}.summary.json"
        child = self.run([str(BENCH / "tracer.py"), str(summary), str(self.work / f"{tag}.spans.jsonl"), *argv])
        if child.code == 0:
            child.trace = json.loads(summary.read_text(encoding="utf-8"))
        return child

    def flow(self, instances: Path, results: Path, traced: bool, tag: str) -> Child:
        if not traced:
            return self.run([str(BENCH / "flow_child.py"), str(instances), str(results)])
        return self._traced(["flow", str(instances), str(results)], tag)


def _write_yaml(path: Path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, default_flow_style=False, sort_keys=True)


def _read(paths) -> bytes:
    return b"".join(Path(p).read_bytes() for p in paths)


class ToyPlanted:
    """reward --scorer toy --workers 1 on planted batches, then analyze."""

    def __init__(self, seed: int, size: str, runner: Runner):
        self.runner, self.work = runner, runner.work
        self.prompts = inputs.planted_prompts(TOY_SHAPES[size], seed)
        self.input = self.work / "batch.jsonl"
        self.config = self.work / "toy_config.yaml"
        inputs.write_records(self.prompts, self.input)
        _write_yaml(self.config, inputs.toy_config(self.prompts, self.input, seed))

    def setup(self) -> Child:
        return self.runner.run([str(BENCH / "setup_child.py"), "reward", str(self.config)])

    def run_pass(self, idx: int, traced: bool) -> Pass:
        out = self.work / f"pass{idx}"
        reward, analysis = out / "reward", out / "analysis"
        p = Pass(attempted=2)
        p.children.append(self.runner.program(
            ["reward", "--config", str(self.config), "--scorer", "toy", "--workers", "1", "--out", str(reward)],
            traced, f"pass{idx}-reward",
        ))
        p.children.append(self.runner.program(
            ["analyze", "--input", str(self.input), "--rewards", str(reward / "rewards.jsonl"),
             "--matrices", str(reward / "matrices.jsonl"), "--out", str(analysis)],
            traced, f"pass{idx}-analyze",
        ))
        p.failed = sum(c.code != 0 for c in p.children)
        if not p.failed:
            p.fingerprint = _read([reward / f for f in checks.DATA_FILES]
                                  + [analysis / f for f in ("feature_stats.csv", "curves.csv", "diversity.csv")])
        return p

    def check(self, idx: int) -> list[str]:
        out = self.work / f"pass{idx}"
        return checks.check_toy_planted(self.prompts, out / "reward", out / "analysis")

    def close(self) -> None:
        pass


class HttpService:
    """reward --scorer http --workers 2 against the stub, then the same command again."""

    def __init__(self, seed: int, size: str, runner: Runner):
        self.runner, self.work = runner, runner.work
        self.prompts = inputs.planted_prompts(HTTP_SHAPES[size], seed)
        self.input = self.work / "batch.jsonl"
        self.config = self.work / "http_config.yaml"
        self.cache = self.work / "score_cache.jsonl"
        inputs.write_records(self.prompts, self.input)
        self.stub = StubScoringService(seed, max_connections=os.cpu_count() or 1)
        _write_yaml(self.config, inputs.http_config(self.input, self.stub.url, self.cache, seed))
        self.stub.start()

    def setup(self) -> Child:
        return self.runner.run([str(BENCH / "setup_child.py"), "reward", str(self.config)])

    def run_pass(self, idx: int, traced: bool) -> Pass:
        out = self.work / f"pass{idx}"
        argv = ["reward", "--config", str(self.config), "--scorer", "http", "--workers", "2", "--out", str(out / "reward")]
        self.cache.unlink(missing_ok=True)
        p = Pass(attempted=2)
        self.stub.begin_phase()
        first = self.runner.program(argv, traced, f"pass{idx}-reward")
        first_counts = dict(self.stub.counts)
        p.children.append(first)
        if first.code == 0:
            (out / "first").mkdir()
            for name in checks.DATA_FILES:
                shutil.copy(out / "reward" / name, out / "first" / name)
        # The README promises that replies are recorded into cache_path so a
        # rerun never re-contacts the service; the replay fails while it does.
        self.stub.begin_phase()
        replay = self.runner.program(argv, traced, f"pass{idx}-replay")
        replay_counts = dict(self.stub.counts)
        p.children.append(replay)
        p.failed = (first.code != 0) + (replay.code != 0 or replay_counts["requests"] > 0)
        p.service = {
            "service.requests": first_counts["requests"] + replay_counts["requests"],
            "service.unique_content": first_counts["unique_content"],
            "service.retries": first_counts["retries"] + replay_counts["retries"],
            "service.busy_s": first_counts["busy_s"] + replay_counts["busy_s"],
            "service.replay_requests": replay_counts["requests"],
        }
        if first.code == 0 and replay.code == 0:
            p.fingerprint = _read([out / "first" / f for f in checks.DATA_FILES])
        return p

    def check(self, idx: int) -> list[str]:
        out = self.work / f"pass{idx}"
        return checks.check_http_service(self.prompts, self.stub.served, out / "first", out / "reward")

    def close(self) -> None:
        self.stub.stop()


class FlowConvergence:
    """simulate_convergence on seeded random instances plus the worked sweep."""

    def __init__(self, seed: int, size: str, runner: Runner):
        self.runner, self.work = runner, runner.work
        self.instances = [_flow_instance(inputs.sweep_instance(m)) for m in inputs.SWEEP_MASSES]
        self.sweep = list(range(len(self.instances)))
        # Fill a fixed budget of integration steps, so a pass does the same
        # work whatever the seed; the benchmark's own probability-space RK4
        # gives each instance's step count (and later checks the program's).
        rng = random.Random(seed)
        remaining = FLOW_STEP_BUDGET[size]
        for _ in range(1000):
            if remaining < 300:
                break
            inst = _flow_instance(inputs.random_convergence_instance(rng))
            if inst["expected_steps"] is not None and inst["expected_steps"] <= remaining:
                self.instances.append(inst)
                remaining -= inst["expected_steps"]
        self.path = self.work / "instances.json"
        self.path.write_text(json.dumps(self.instances), encoding="utf-8")

    def setup(self) -> Child:
        return self.runner.run([str(BENCH / "setup_child.py"), "simulate"])

    def run_pass(self, idx: int, traced: bool) -> Pass:
        results = self.work / f"results{idx}.json"
        child = self.runner.flow(self.path, results, traced, f"pass{idx}-flow")
        p = Pass(children=[child], attempted=len(self.instances))
        if child.code != 0:
            p.failed = len(self.instances)
            return p
        p.failed = sum("error" in r for r in json.loads(results.read_text(encoding="utf-8")))
        p.fingerprint = results.read_bytes()
        return p

    def check(self, idx: int) -> list[str]:
        results = json.loads((self.work / f"results{idx}.json").read_text(encoding="utf-8"))
        return checks.check_flow(self.instances, results, self.sweep)

    def close(self) -> None:
        pass


def _flow_instance(inst: dict) -> dict:
    """Add the integration settings and the benchmark's own hit step count."""
    bound = checks.convergence_bound(inst)
    inst.update(
        step_size=FLOW_STEP_SIZE,
        record_every=FLOW_RECORD_EVERY,
        max_time=math.ceil(bound) + 1.0,
        expected_steps=checks.probability_space_hit_steps(inst, FLOW_STEP_SIZE, math.ceil(bound / FLOW_STEP_SIZE) + 2),
    )
    return inst


WORKLOADS = {"toy-planted": ToyPlanted, "http-service": HttpService, "flow-convergence": FlowConvergence}


def merged_trace(p: Pass) -> tuple[dict[str, dict], dict[str, float], set[str]]:
    """Span totals (with parent counts), counters and missing names of one pass."""
    layers: dict[str, dict] = {}
    counters: dict[str, float] = {}
    missing: set[str] = set()
    for child in p.children:
        trace = child.trace or {}
        for name, t in trace.get("layers", {}).items():
            acc = layers.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0, "parents": {}})
            for key in ("total_s", "self_s", "calls"):
                acc[key] += t[key]
            for parent, n in t["parents"].items():
                acc["parents"][parent] = acc["parents"].get(parent, 0) + n
        for name, value in trace.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        missing.update(trace.get("missing", ()))
    return layers, counters, missing


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its processes."""
    layers, counters, missing = merged_trace(p)
    imports = {key: [c.trace[key] for c in p.children if c.trace and key in c.trace]
               for key in ("cli.import_s", "simulate.import_s")}
    zero = {"total_s": 0.0, "self_s": 0.0, "calls": 0}
    m = {key: statistics.fmean(v) if v else 0.0 for key, v in imports.items()}
    m.update({metric: layers.get(span, zero)["total_s"] for metric, span in SPAN_TOTALS.items()})
    m.update({metric: layers.get(span, zero)["calls"] for metric, span in SPAN_CALLS.items()})
    for name in ("trajectory.count", "scoring.batch_requests", "scoring.batch_unique_content",
                 "distance.cells", "simulate.steps"):
        m[name] = counters.get(name, 0)
    m["scoring.unique_ratio"] = (
        m["scoring.batch_unique_content"] / m["scoring.batch_requests"] if m["scoring.batch_requests"] else 0.0
    )
    m["distance.self_s"] = layers.get("distance.matrices", zero)["self_s"]
    flow = layers.get("simulate.flow_step", zero)
    m["simulate.flow_step_us"] = flow["total_s"] / flow["calls"] * 1e6 if flow["calls"] else 0.0
    for name in ("service.requests", "service.unique_content", "service.retries", "service.busy_s",
                 "service.replay_requests"):
        m[name] = p.service.get(name, 0)
    m["trace.missing"] = len(missing)
    return m


def print_layer_table(p: Pass) -> None:
    """Human-readable trace of one pass: span name, calls, total and self time, parents."""
    layers, _, missing = merged_trace(p)
    print(f"{'span':<24} {'calls':>8} {'total_s':>10} {'self_s':>10}  parents")
    for name, t in sorted(layers.items(), key=lambda kv: -kv[1]["total_s"]):
        parents = ", ".join(f"{k} x{v}" for k, v in sorted(t["parents"].items()))
        print(f"{name:<24} {t['calls']:>8} {t['total_s']:>10.4f} {t['self_s']:>10.4f}  {parents}")
    for name in sorted(missing):
        print(f"missing: {name}")


def measure(workload, seconds: float, trace: bool) -> tuple[Child, list[Pass], list[Pass]]:
    setup = workload.setup()
    if setup.code != 0:
        raise BenchError(f"set-up child exited {setup.code}; see {workload.work}")
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        idx = len(plain) + len(traced)
        is_traced = trace and idx % 2 == 1
        p = workload.run_pass(idx, is_traced)
        (traced if is_traced else plain).append(p)
        print(f"pass {idx}{' traced' if is_traced else ''}: wall {p.wall_s:.4f} s, cpu {p.cpu_s:.4f} s, "
              f"rss {p.rss_mb:.1f} MB, {p.failed}/{p.attempted} failed", file=sys.stderr, flush=True)
        if time.perf_counter() - start >= seconds and (not trace or traced):
            return setup, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "trajreward" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'trajreward'}; run from a trajreward checkout", file=sys.stderr)
        return 2
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, Runner(work, deadline))
        setup, plain, traced = measure(workload, args.seconds, bool(args.trace))
        passes = plain + traced
        ok = [i for i, p in enumerate(passes) if p.fingerprint]
        try:
            problems = workload.check(ok[0]) if ok else []
        except (KeyError, ValueError, IndexError, TypeError, OSError) as exc:
            problems = [f"outputs of pass {ok[0]} are unreadable: {exc!r}"]
        for i in ok[1:]:
            if passes[i].fingerprint != passes[ok[0]].fingerprint:
                problems.append(f"pass {i} outputs differ from pass {ok[0]}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if workload is not None:
            workload.close()

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        print_layer_table(traced[0])
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": setup.wall_s,
            "run_s": statistics.median(p.wall_s for p in plain),
            "cpu_s": statistics.median(p.cpu_s for p in plain),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
