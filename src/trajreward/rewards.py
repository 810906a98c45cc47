"""Trajectory features and reward aggregation.

Consistency is the fraction of states whose own-answer distance attains
the row minimum; volatility is the (0-based) position ratio of the last
state that deviates. Groups of trajectories sharing a final answer get
either a linear reward, mean(con - vol), or a vector reward, the mean
magnitude of the con-scaled unit vectors at angle vol. A curiosity term
rewards low-probability steps, damped by a log(1 + KL-to-uniform)
penalty so a few near-zero-probability tokens cannot dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import EmptyGroup, MissingMatrix
from .trajectory import PromptBatch, group_by_answer

ADVANTAGE_EPS = 1e-8
VARIANTS = ("linear", "vector")  # the intrinsic rewards assemble_rewards can give


@dataclass(frozen=True)
class TrajectoryFeatures:
    """(con, vol) pair of one trajectory, plus its curiosity score."""

    traj_id: str
    con: float
    vol: float
    curiosity: float = 0.0


@dataclass(frozen=True)
class GroupReward:
    group_index: int
    canonical_answer: str
    size: int
    r_linear: float
    r_vector: float


@dataclass(frozen=True)
class TrajectoryReward:
    traj_id: str
    group: int
    con: float
    vol: float
    r_int_linear: float
    r_int_vector: float
    r_cur: float
    r_total: float
    advantage: float
    skip: bool


@dataclass
class RewardReport:
    """Per-trajectory rewards for one prompt batch."""

    prompt_id: str
    variant: str
    num_trajectories: int
    num_groups: int
    skip: bool
    groups: list[GroupReward] = field(default_factory=list)
    rewards: list[TrajectoryReward] = field(default_factory=list)


def consistency(values) -> float:
    """Fraction of states whose own-answer distance ties the row minimum.

    With a single candidate answer every row trivially counts, giving 1.0.
    """
    total = len(values)
    hits = 0
    for row in values:
        if row[0] == min(row):
            hits += 1
    return hits / total


def volatility(values) -> float:
    """Position ratio of the last state deviating from the own answer.

    0-based index over T states; 0.0 when no state deviates.
    """
    total = len(values)
    last = -1
    for i, row in enumerate(values):
        if row[0] != min(row):
            last = i
    return last / total if last >= 0 else 0.0


def trajectory_features(matrix, curiosity: float = 0.0) -> TrajectoryFeatures:
    """Features of a ``distance.DistanceMatrix``."""
    return TrajectoryFeatures(
        matrix.traj_id,
        consistency(matrix.values),
        volatility(matrix.values),
        curiosity,
    )


def linear_group_reward(features: Sequence[TrajectoryFeatures]) -> float:
    """Group mean of con - vol; range [-1, 1] for features in [0, 1]."""
    if not features:
        raise EmptyGroup("linear reward of an empty group")
    total = 0.0
    for f in features:
        total += f.con - f.vol
    return total / len(features)


def vector_group_reward(features: Sequence[TrajectoryFeatures]) -> float:
    """Mean magnitude of the summed con-scaled unit vectors at angle vol.

    A single-member group returns its con unchanged (the vector has unit
    direction), bypassing the norm's last-ulp rounding.
    """
    if not features:
        raise EmptyGroup("vector reward of an empty group")
    if len(features) == 1:
        return features[0].con
    vx = 0.0
    vy = 0.0
    for f in features:
        vx += f.con * math.cos(f.vol)
        vy += f.con * math.sin(f.vol)
    return math.hypot(vx, vy) / len(features)


@dataclass(frozen=True)
class CuriosityConfig:
    """Reading of the step-level curiosity term.

    sign "eq10" scores each step as a distance (negated mean logprob,
    >= 0); "alg2" accumulates the raw logprob (<= 0). denominator "step"
    divides by the step's own token count; "prefix" divides by the token
    length of the whole state ending with the step.
    """

    sign: str = "eq10"
    denominator: str = "step"

    def __post_init__(self):
        # named by the run config fields that set them
        if self.sign not in ("eq10", "alg2"):
            raise ValueError(f"curiosity_mode {self.sign!r} is not one of eq10, alg2")
        if self.denominator not in ("step", "prefix"):
            raise ValueError(
                f"curiosity_denominator {self.denominator!r} is not one of step, prefix"
            )


def step_curiosity(
    token_logprobs, denominator_tokens: int | None = None, sign: str = "eq10"
) -> float:
    """Curiosity contribution of one step.

    The step's distance minus ln(KL(P, U) + 1), with P the step's
    chosen-token probabilities normalized to sum 1 and U uniform over the
    step length. The distance is the summed logprob over
    ``denominator_tokens`` (default: the step's token count), negated
    under the "eq10" sign (see ``CuriosityConfig``).
    """
    total = sum(token_logprobs)
    n = denominator_tokens if denominator_tokens is not None else len(token_logprobs)
    distance = total / n if sign == "alg2" else (0.0 - total) / n
    return distance - math.log1p(_kl_to_uniform(token_logprobs))


def _kl_to_uniform(token_logprobs) -> float:
    probs = [math.exp(lp) for lp in token_logprobs]
    if not any(probs):
        # every probability underflowed; shifting by the top logprob leaves q unchanged
        top = max(token_logprobs)
        probs = [math.exp(lp - top) for lp in token_logprobs]
    mass = sum(probs)
    m = len(probs)
    kl = 0.0
    for p in probs:
        q = p / mass
        if q > 0.0:
            kl += q * math.log(q * m)
    return kl


def normalize_advantages(rewards: Sequence[float]) -> list[float]:
    """(r - mean) / (population std + 1e-8); all-equal input maps to zeros."""
    if not rewards:
        raise ValueError("cannot normalize an empty reward sequence")
    n = len(rewards)
    mean = sum(rewards) / n
    var = sum((r - mean) ** 2 for r in rewards) / n
    std = math.sqrt(var)
    return [(r - mean) / (std + ADVANTAGE_EPS) for r in rewards]


def assemble_rewards(
    batch: PromptBatch,
    matrices: Mapping,
    variant: str = "vector",
    curiosity_weight: float = 1.0,
    curiosities: Mapping[str, float] | None = None,
) -> RewardReport:
    """Combine group rewards and curiosity into per-trajectory totals.

    ``matrices`` maps each traj_id to its ``distance.DistanceMatrix``.
    Every trajectory inherits its answer group's intrinsic reward (the
    chosen variant) plus its own weighted curiosity; advantages are
    normalized over the whole batch. A batch whose answers all agree has
    no learning signal: it is flagged skip and every advantage is 0.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown reward variant {variant!r}")
    missing = [t.traj_id for t in batch.trajectories if t.traj_id not in matrices]
    if missing:
        raise MissingMatrix(f"no distance matrix for trajectories {missing}")

    groups = group_by_answer(batch)
    features = {
        t.traj_id: trajectory_features(
            matrices[t.traj_id], (curiosities or {}).get(t.traj_id, 0.0)
        )
        for t in batch.trajectories
    }
    group_of = {}
    group_rewards = []
    for g in groups:
        members = [features[tid] for tid in g.member_traj_ids]
        group_rewards.append(
            GroupReward(
                g.group_index,
                g.canonical_answer,
                g.size,
                linear_group_reward(members),
                vector_group_reward(members),
            )
        )
        for tid in g.member_traj_ids:
            group_of[tid] = g.group_index

    skip = len(groups) == 1
    totals = []
    for t in batch.trajectories:
        gr = group_rewards[group_of[t.traj_id]]
        r_int = gr.r_vector if variant == "vector" else gr.r_linear
        totals.append(r_int + curiosity_weight * features[t.traj_id].curiosity)
    try:
        advantages = [0.0] * len(totals) if skip else normalize_advantages(totals)
        finite = all(math.isfinite(x) for x in [*totals, *advantages])
    except OverflowError:  # finite totals too far apart to square
        finite = False
    if not finite:  # inf and nan are not JSON numbers
        raise ValueError(f"reward.curiosity_weight {curiosity_weight!r} makes a reward non-finite")

    rewards = []
    for t, total, adv in zip(batch.trajectories, totals, advantages):
        f = features[t.traj_id]
        gr = group_rewards[group_of[t.traj_id]]
        rewards.append(
            TrajectoryReward(
                traj_id=t.traj_id,
                group=gr.group_index,
                con=f.con,
                vol=f.vol,
                r_int_linear=gr.r_linear,
                r_int_vector=gr.r_vector,
                r_cur=f.curiosity,
                r_total=total,
                advantage=adv,
                skip=skip,
            )
        )
    return RewardReport(
        prompt_id=batch.prompt_id,
        variant=variant,
        num_trajectories=batch.size,
        num_groups=len(groups),
        skip=skip,
        groups=group_rewards,
        rewards=rewards,
    )
