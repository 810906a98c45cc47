"""Run ``simulate_convergence`` on every instance of a JSON file.

    python bench/flow_child.py INSTANCES.json RESULTS.json

Each instance carries its probabilities, rewards, gamma, preferred set and
integration settings (RK4). The results file holds, per instance, the hit
time, the program's bound and the recorded checkpoints, or the error that
instance raised.
"""

from __future__ import annotations

import json
import sys

from trajreward import simulate
from trajreward.errors import TrajRewardError


def run(instances_path: str, results_path: str) -> int:
    with open(instances_path, "r", encoding="utf-8") as fh:
        instances = json.load(fh)
    results = []
    for inst in instances:
        instance = simulate.ConvergenceInstance(
            inst["probs0"], inst["r_true"], inst["r_proxy"], gamma=inst["gamma"], y_plus=inst["y_plus"]
        )
        config = simulate.FlowConfig(
            step_size=inst["step_size"],
            max_time=inst["max_time"],
            integrator="rk4",
            record_every=inst["record_every"],
        )
        try:
            report = simulate.simulate_convergence(instance, config)
        except TrajRewardError as exc:
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append(
            {
                "hit_time": float(report.hit_time),
                "bound": float(report.bound),
                "times": [float(t) for t in report.times],
                "probs": [[float(x) for x in p] for p in report.probs],
            }
        )
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2]))
