"""Traced child: run one program command in-process with timing wrappers.

    python bench/tracer.py SUMMARY.json SPANS.jsonl cli ARGV...
    python bench/tracer.py SUMMARY.json SPANS.jsonl flow INSTANCES.json RESULTS.json

The wrappers sit on the module attributes the program calls, so the
program itself is unchanged. Each call becomes a span (id, parent, name,
thread, start, end) kept in memory and written to SPANS.jsonl when the
command returns; SUMMARY.json holds per-name totals, self times (span
time minus the same-thread child spans inside it), call counts, the
layer counters and the wrapped names that no longer exist.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute path, span name)
WRAPPED = (
    ("trajreward.cli", "load_config", "config.load"),
    ("trajreward.config", "RunConfig.echo", "config.echo"),
    ("trajreward.cli", "load_prompt_batches", "trajectory.load"),
    ("trajreward.scoring", "ToyModel.from_config", "scoring.toy_build"),
    ("trajreward.scoring", "ToyModel.score", "scoring.toy_score"),
    ("trajreward.scoring", "HttpScorer.score", "scoring.http_score"),
    ("trajreward.distance", "score_batch", "scoring.batch"),
    ("trajreward.cli", "batch_distance_matrices", "distance.matrices"),
    ("trajreward.cli", "write_matrices", "distance.write"),
    ("trajreward.cli", "read_matrices", "distance.read"),
    ("trajreward.cli", "curiosity_reward", "rewards.curiosity"),
    ("trajreward.cli", "assemble_rewards", "rewards.assemble"),
    ("trajreward.analysis", "diversity_metrics", "analysis.diversity"),
    ("trajreward.analysis", "feature_statistics", "analysis.feature_stats"),
    ("trajreward.analysis", "curve_aggregate", "analysis.curves"),
    ("trajreward.simulate", "simulate_convergence", "simulate.convergence"),
    ("trajreward.simulate", "flow_step", "simulate.flow_step"),
    ("trajreward.simulate", "growth_bound_satisfied", "simulate.growth_check"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, thread, start_ns, end_ns]
        self.counters: Counter = Counter()
        self.contents: set = set()
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module_name: str, path: str, name: str, after=None) -> None:
        """Replace ``module.path`` with a timing wrapper, or note it missing."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{path}")
            return
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if raw is None:
            self.missing.append(f"{module_name}.{path}")
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        wrapper = self._wrapper(func, name, after)
        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def _wrapper(self, func, name, after):
        spans, ids, stack_of, main_stack = self.spans, self._ids, self._stack, self._main_stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            # a worker thread's first span hangs under the main thread's open span
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append([sid, parent, name, threading.get_ident(), start, end])
            if after is not None:
                try:
                    after(self, args, result)
                except Exception as exc:  # noqa: BLE001 - a changed return type must not fail the run
                    self.missing.append(f"{name} counter: {exc!r}")
            return result

        return traced

    def summary(self) -> dict:
        by_id = {s[0]: s for s in self.spans}
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, thread, start, end in self.spans:
            if parent is not None and by_id.get(parent, (0, 0, 0, None))[3] == thread:
                child_ns[parent] += end - start
        totals: dict[str, dict] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0, "parents": Counter()}
        )
        for sid, parent, name, _, start, end in self.spans:
            t = totals[name]
            t["total_s"] += (end - start) / 1e9
            t["self_s"] += (end - start - child_ns[sid]) / 1e9
            t["calls"] += 1
            t["parents"][by_id[parent][2] if parent in by_id else "(root)"] += 1
        counters = dict(self.counters)
        counters["scoring.batch_unique_content"] = len(self.contents)
        return {"layers": dict(totals), "counters": counters, "missing": sorted(set(self.missing))}

    def write(self, summary_path: str, spans_path: str, extra: dict) -> None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({**self.summary(), **extra}, fh, indent=1, sort_keys=True)


def _count_trajectories(tracer, args, batches):
    tracer.counters["trajectory.count"] += sum(len(b.trajectories) for b in batches)


def _count_batch(tracer, args, responses):
    requests = args[0]
    if not isinstance(requests, (list, tuple)):
        return  # an iterator was consumed by the call; nothing left to count
    tracer.counters["scoring.batch_requests"] += len(requests)
    tracer.contents.update((r.prefix, r.continuation) for r in requests)


def _count_cells(tracer, args, matrices):
    tracer.counters["distance.cells"] += sum(m.values.size for m in matrices.values())


def _count_steps(tracer, args, report):
    tracer.counters["simulate.steps"] += round(report.hit_time / args[1].step_size)


AFTER = {
    "trajectory.load": _count_trajectories,
    "scoring.batch": _count_batch,
    "distance.matrices": _count_cells,
    "simulate.convergence": _count_steps,
}


def main(argv: list[str]) -> int:
    summary_path, spans_path, mode, *rest = argv
    start = time.perf_counter()
    if mode == "cli":
        import trajreward.cli as entry
    else:
        import trajreward.simulate  # noqa: F401
    imported = time.perf_counter() - start
    tracer = Tracer()
    for module_name, path, name in WRAPPED:
        tracer.wrap(module_name, path, name, AFTER.get(name))
    if mode == "cli":
        code = entry.main(rest)
    else:
        import flow_child

        code = flow_child.run(*rest)
    import_key = "cli.import_s" if mode == "cli" else "simulate.import_s"
    tracer.write(summary_path, spans_path, {import_key: imported})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
