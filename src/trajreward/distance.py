"""State-to-answer distances, distance matrices, normalized curves.

The distance from an intermediate state to a candidate answer is the
negative mean per-token log-probability of the answer continued from
that state. Row i of a trajectory's matrix corresponds to the state
holding steps 0..i-1 (row 0 is the bare prompt); column 0 is always the
trajectory's own final answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import EmptyAnswer, SingleAnswerBatch
from .rewards import CuriosityConfig, step_curiosity
from .scoring import LogProbSource, ScoreRequest, ScoreResponse, score_batch
from .trajectory import PromptBatch, Trajectory, canonicalize_answer, group_by_answer
from .trajectory import correct_label, is_kind, read_jsonl, write_jsonl


@dataclass
class DistanceMatrix:
    """T x K matrix of state-to-answer distances for one trajectory."""

    traj_id: str
    values: list[list[float]]
    answer_order: tuple[str, ...]
    correct: bool | None = None

    @property
    def num_states(self) -> int:
        return len(self.values)

    @property
    def num_answers(self) -> int:
        return len(self.values[0])


@dataclass
class NormalizedCurve:
    """Per-state own-answer distance divided by the closest rival distance.

    A point below 1 means the state is strictly closer to its own final
    answer than to every rival answer.
    """

    traj_id: str
    points: list[float]
    correct: bool | None = None


def distance_from_logprobs(token_logprobs) -> float:
    """Negative mean per-token log-probability of a scored answer."""
    return -sum(token_logprobs) / len(token_logprobs)


def candidate_order(groups, own_canonical: str) -> list[str]:
    """Own answer first, then the remaining group answers in group order."""
    return [own_canonical] + [g.canonical_answer for g in groups if g.canonical_answer != own_canonical]


def _candidates(batch: PromptBatch) -> list[tuple[Trajectory, tuple[str, ...]]]:
    groups = group_by_answer(batch)
    return [
        (traj, tuple(candidate_order(groups, canonicalize_answer(traj.final_answer))))
        for traj in batch.trajectories
    ]


def step_requests(traj: Trajectory) -> list[ScoreRequest]:
    """Each non-blank reasoning step continued from the state before it."""
    return [
        ScoreRequest(traj.state_prefix(i), step.text)
        for i, step in enumerate(traj.steps)
        if step.text.strip()
    ]


def plan_requests(batch: PromptBatch, steps: bool) -> list[ScoreRequest]:
    """Every distinct score request a prompt batch needs, grouped by prefix.

    The requests are the matrix cells (each state of each trajectory
    against each of its candidate answers) and, with ``steps``, each
    non-blank reasoning step continued from the state before it. A
    prefix's requests are contiguous; prefixes come in first-use order
    (cells row-major, then steps), and so do each prefix's continuations.
    Requests with equal text, such as the bare-prompt cells shared by
    every trajectory, appear once.
    """
    groups: dict[str, dict[str, None]] = {}
    for traj, answers in _candidates(batch):
        if any(not a for a in answers):
            raise EmptyAnswer(f"empty candidate answer for traj {traj.traj_id!r}")
        for i in range(traj.num_steps):
            groups.setdefault(traj.state_prefix(i), {}).update(dict.fromkeys(answers))
    if steps:
        for traj in batch.trajectories:
            for req in step_requests(traj):
                groups.setdefault(req.prefix, {})[req.continuation] = None
    return [ScoreRequest(prefix, c) for prefix, conts in groups.items() for c in conts]


def score_plan(
    batch: PromptBatch, source: LogProbSource, parallelism: int = 1, steps: bool = False
) -> dict[ScoreRequest, ScoreResponse]:
    """Score a batch's planned requests once; the mapping every consumer reads.

    The result is identical for any worker count.
    """
    return score_batch(plan_requests(batch, steps), source, parallelism)


def batch_distance_matrices(
    batch: PromptBatch, scores: Mapping[ScoreRequest, ScoreResponse]
) -> dict[str, DistanceMatrix]:
    """Distance matrices for every trajectory of a prompt batch.

    ``scores`` holds the batch's scored plan (see ``score_plan``).
    """
    matrices: dict[str, DistanceMatrix] = {}
    for traj, answers in _candidates(batch):
        rows = [
            [scores[ScoreRequest(traj.state_prefix(i), a)].token_logprobs for a in answers]
            for i in range(traj.num_steps)
        ]
        values = [[distance_from_logprobs(lp) for lp in row] for row in rows]
        matrices[traj.traj_id] = DistanceMatrix(traj.traj_id, values, answers, traj.correct)
    return matrices


def curiosity_reward(
    traj: Trajectory,
    scores: Mapping[ScoreRequest, ScoreResponse],
    config: CuriosityConfig = CuriosityConfig(),
) -> float:
    """Mean step-transition curiosity over a trajectory.

    Each reasoning step's tokens are scored as the continuation of the
    preceding state; ``scores`` is the batch's scored plan (see
    ``score_plan`` with steps on). Steps with no tokens are skipped. With
    the "prefix" denominator the state length counts the prompt's
    whitespace tokens plus all scored step tokens so far.
    """
    contributions = []
    prefix_tokens = len(traj.prompt_text.split())
    for req in step_requests(traj):
        response = scores[req]
        prefix_tokens += response.token_count
        denom = prefix_tokens if config.denominator == "prefix" else None
        contributions.append(step_curiosity(response.token_logprobs, denom, config.sign))
    if not contributions:
        return 0.0
    return sum(contributions) / len(contributions)


def normalized_curve(matrix: DistanceMatrix) -> NormalizedCurve:
    """Own-answer distance over the minimum rival distance, per state.

    A rival distance of exactly 0 yields +inf (the state reads as
    inconsistent) unless the own distance is also 0, which is a tie and
    yields 1.0, keeping "point <= 1" aligned with the consistency count.
    """
    if matrix.num_answers < 2:
        raise SingleAnswerBatch("normalized curve needs at least two distinct answers")
    points = []
    for own, *rivals in matrix.values:
        rival = min(rivals)
        points.append(own / rival if rival != 0.0 else (1.0 if own == 0.0 else math.inf))
    return NormalizedCurve(matrix.traj_id, points, matrix.correct)


def write_matrices(matrices, path) -> None:
    """Export matrices as line-delimited JSON for plotting and analysis."""
    write_jsonl(path, (
        {
            "traj_id": m.traj_id,
            "T": m.num_states,
            "K": m.num_answers,
            "answer_order": m.answer_order,
            "rows": m.values,
            "correct": m.correct,
        }
        for m in matrices
    ))


def read_matrices(path) -> list[DistanceMatrix]:
    """Matrices exported by ``write_matrices``; a malformed line, or a
    repeated ``traj_id``, is an InputError."""
    fields = {"traj_id": str, "rows": list[list[float]], "answer_order": list[str]}
    optional = dict.fromkeys(["T", "K", "correct"])
    return list(read_jsonl(path, fields, _matrix_record, optional, ids={"traj_id": True}))


def _matrix_record(rec: dict) -> DistanceMatrix:
    rows = rec["rows"]
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("rows must be a non-empty rectangular table")
    values = [[float(v) for v in row] for row in rows]
    if not all(0.0 <= v < math.inf for row in values for v in row):  # NaN fails too
        raise ValueError("every distance must be finite and >= 0")
    T, K = len(rows), len(rows[0])
    shape = [rec.get("T"), rec.get("K")]  # the writer always writes both
    if not is_kind(shape, list[int]) or shape != [T, K] or len(rec["answer_order"]) != K:
        raise ValueError(f"T, K and the answer_order length must match the {T} x {K} rows")
    return DistanceMatrix(rec["traj_id"], values, tuple(rec["answer_order"]), correct_label(rec))
