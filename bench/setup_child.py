"""One cold set-up, timed from outside by the benchmark.

    python bench/setup_child.py reward CONFIG.yaml   # import the CLI, load config, build scorer
    python bench/setup_child.py simulate             # import trajreward.simulate

This is the work every reward (or simulate) process pays before its first
score, so its wall time from process start to exit is the workload's
``setup_s``.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if argv[0] == "simulate":
        import trajreward.simulate  # noqa: F401

        return 0
    import trajreward.cli  # noqa: F401
    from trajreward.config import load_config
    from trajreward.scoring import HttpScorer, ToyModel

    cfg = load_config(argv[1])
    s = cfg.scorer
    if s.source == "toy":
        ToyModel.from_config(s.toy)
    else:
        HttpScorer(base_url=s.base_url, timeout=s.timeout, attempts=s.attempts, backoff=s.backoff)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
