#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, with its checks.

    python3 bench/smoke.py

Runs each workload once plain and once traced at ``--size smoke`` and
asserts that the outputs checked out, that the metric names and units are
the ones BENCHMARK.json declares, that only the known-failing replay
fails, and that the benchmark refuses to run without the program source.
Takes about half a minute. Not collected by pytest on purpose: it starts
many processes, and the tier-1 suite stays as it is.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run([str(BENCH / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0",
                        "--trace", str(trace), "--size", "smoke"], ROOT)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expected_failed = result["attempted"] // 2 if workload == "http-service" else 0
            if not result["correct"]:
                failures.append(f"{label}: outputs failed their checks\n{proc.stderr}")
            if units != declared[trace]:
                failures.append(f"{label}: metrics {sorted(units.items())} != BENCHMARK.json")
            if result["failed"] != expected_failed:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} failed, expected {expected_failed}")
            if trace and workload == "http-service" and not result["metrics"]["service.replay_requests"]["value"] > 0:
                failures.append(f"{label}: replay reached the service zero times")
            print(f"ok   {label}: attempted {result['attempted']}, failed {result['failed']}")

    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(["bench/run.py", "--workload", "flow-convergence", "--seed", "1", "--seconds", "1"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without the program source: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print("ok   without the program source the benchmark exits", proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
