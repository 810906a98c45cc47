"""Seeded draws shared by the toy scorer, the simulate presets and the probe.

Each draw reads only ``random()`` of a ``random.Random(seed)``, whose
sequence Python keeps across versions; ``choices``, ``randrange`` and
``expovariate`` carry no such promise.
"""

from __future__ import annotations

import random
from math import fsum, log


def draw_index(rng: random.Random, n: int) -> int:
    """A uniform integer in [0, n)."""
    return int(rng.random() * n)


def draw_dirichlet(rng: random.Random, n: int) -> list[float]:
    """A Dirichlet(1) draw over n entries: normalized -log(1 - u) draws."""
    draws = [-log(1.0 - rng.random()) for _ in range(n)]
    total = fsum(draws)
    return [x / total for x in draws]


def draw_vote(rng: random.Random, p: list[float], k: int) -> int:
    """The modal index of k draws from p, ties to the lowest index.

    Each draw is the first index whose running sum of p exceeds u * fsum(p),
    or the last index should no running sum exceed it after rounding.
    """
    total, counts = fsum(p), [0] * len(p)
    for _ in range(k):
        x, running = rng.random() * total, 0.0
        for i, w in enumerate(p):
            running += w
            if running > x:
                break
        counts[i] += 1
    return counts.index(max(counts))
