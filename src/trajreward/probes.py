"""Randomized perturbation probes for the group-reward aggregations.

The generator draws con/vol on a dyadic grid (multiples of 1/1024) and
group sizes that are powers of two, so the linear reward and its
perturbation deltas are exact in floating point and the probe can assert
exact equality where the math promises it:

  - raising one member's con moves the linear reward by exactly dc/G and
    strictly raises the vector reward;
  - raising one member's vol lowers the linear reward (by exactly dv/G);
  - the vector reward's gain never exceeds the linear reward's gain
    (robustness to an outlier consistency spike);
  - raising the largest vol further (all-positive con) strictly lowers
    the vector reward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rewards import TrajectoryFeatures, linear_group_reward, vector_group_reward

GRID = 1024
ROBUSTNESS_TOL = 1e-12


@dataclass
class ProbeReport:
    groups_checked: int = 0
    violations: dict[str, int] = field(
        default_factory=lambda: {
            "linear_con_exact": 0,
            "linear_vol_negative": 0,
            "vector_con_positive": 0,
            "vector_leq_linear": 0,
            "vector_vol_negative": 0,
        }
    )

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


def _features(con, vol) -> list[TrajectoryFeatures]:
    return [TrajectoryFeatures(str(j), c, v) for j, (c, v) in enumerate(zip(con, vol))]


def probe_reward_perturbations(n_groups: int = 10_000, seed: int = 0) -> ProbeReport:
    """Check the perturbation identities over ``n_groups`` random groups."""
    if n_groups < 1:
        raise ValueError(f"n_groups {n_groups} must be >= 1")
    rng = np.random.default_rng(seed)
    report = ProbeReport()
    sizes = np.array([1, 2, 4, 8, 16])
    for _ in range(n_groups):
        g = int(sizes[rng.integers(len(sizes))])
        con = rng.integers(0, GRID + 1, g) / GRID
        vol = rng.integers(0, GRID + 1, g) / GRID
        i = int(rng.integers(g))
        dc = int(rng.integers(1, GRID + 1)) / GRID
        dv = int(rng.integers(1, GRID + 1)) / GRID

        base = _features(con, vol)
        r_lin = linear_group_reward(base)
        r_vec = vector_group_reward(base)

        con_up = con.copy()
        con_up[i] += dc
        bumped_con = _features(con_up, vol)
        d_lin_c = linear_group_reward(bumped_con) - r_lin
        d_vec_c = vector_group_reward(bumped_con) - r_vec

        vol_up = vol.copy()
        vol_up[i] += dv
        d_lin_v = linear_group_reward(_features(con, vol_up)) - r_lin

        if d_lin_c != dc / g:
            report.violations["linear_con_exact"] += 1
        if not d_lin_v < 0.0:
            report.violations["linear_vol_negative"] += 1
        if not d_vec_c > 0.0:
            report.violations["vector_con_positive"] += 1
        if not d_vec_c <= d_lin_c + ROBUSTNESS_TOL:
            report.violations["vector_leq_linear"] += 1

        # vector reward vs vol: needs the perturbed angle ordered above the
        # rest, a sizeable bump, and positive magnitudes on both sides
        if g >= 2:
            con_pos = rng.integers(GRID // 16, GRID + 1, g) / GRID
            vol_any = rng.integers(0, GRID + 1, g) / GRID
            top = int(np.argmax(vol_any))
            dv_big = int(rng.integers(GRID // 16, GRID + 1)) / GRID
            vol_bump = vol_any.copy()
            vol_bump[top] += dv_big
            d_vec_v = vector_group_reward(
                _features(con_pos, vol_bump)
            ) - vector_group_reward(_features(con_pos, vol_any))
            if not d_vec_v < 0.0:
                report.violations["vector_vol_negative"] += 1

        report.groups_checked += 1
    return report
