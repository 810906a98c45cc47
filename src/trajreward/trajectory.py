"""Trajectory representation: segmentation, answer canonicalization, grouping.

A response is segmented into ordered reasoning steps plus a final answer.
Step spans index into the original response text, so every intermediate
state (prompt + steps 0..i-1) is an exact prefix of the text the model
actually produced; nothing is re-tokenized or re-joined.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterator

from .errors import EmptyResponse, NoAnswerFound

DEFAULT_DELIMITER = r"\n\s*\n"
DEFAULT_ANSWER_PATTERN = r"\\boxed\{(.+?)\}|[Aa]nswer:\s*(.+)"


@dataclass(frozen=True)
class ReasoningStep:
    """One reasoning step; ``text == response_text[start:end]``."""

    text: str
    start: int
    end: int


@dataclass(frozen=True)
class SegmentationRules:
    """How raw response text is cut into steps and a final answer.

    delimiter: regex separating steps (default: blank line).
    min_step_chars: segments shorter than this merge into a neighbor.
    answer_pattern: regex whose last match yields the final answer
        (first non-empty capture group, else the whole match).
    use_last_step_fallback: when the pattern never matches, treat the
        last segment as the answer instead of raising NoAnswerFound.
    """

    delimiter: str = DEFAULT_DELIMITER
    min_step_chars: int = 2
    answer_pattern: str = DEFAULT_ANSWER_PATTERN
    use_last_step_fallback: bool = True


@dataclass
class Trajectory:
    """One sampled response: ordered steps plus a final answer.

    ``correct`` is an analysis-only label; rewards never read it.
    ``answer_start`` is the offset where the trailing answer region
    begins (== len(response_text) when the answer lives inside the
    last remaining step, which happens only for single-step responses).
    """

    prompt_id: str
    traj_id: str
    prompt_text: str
    response_text: str
    steps: list[ReasoningStep]
    final_answer: str
    answer_start: int
    correct: bool | None = None

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def state_prefix(self, i: int) -> str:
        """Text of the i-th intermediate state: prompt plus steps 0..i-1.

        ``state_prefix(0)`` is the bare prompt; ``state_prefix(num_steps)``
        is the full reasoning prefix just before the answer region.
        """
        if i < 0 or i > len(self.steps):
            raise IndexError(f"state index {i} out of range [0, {len(self.steps)}]")
        if i == 0:
            return self.prompt_text
        if i == len(self.steps):
            return self.prompt_text + self.response_text[: self.answer_start]
        return self.prompt_text + self.response_text[: self.steps[i].start]


@dataclass
class PromptBatch:
    """All trajectories sampled for one prompt."""

    prompt_id: str
    prompt_text: str
    trajectories: list[Trajectory] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.trajectories)


@dataclass(frozen=True)
class AnswerGroup:
    """Trajectories of one prompt that share a canonical final answer."""

    canonical_answer: str
    member_traj_ids: tuple[str, ...]
    group_index: int

    @property
    def size(self) -> int:
        return len(self.member_traj_ids)


def canonicalize_answer(raw_answer: str) -> str:
    """Deterministic normal form of an answer string.

    Trims, strips enclosing ``$...$`` / ``\\boxed{...}`` markup, collapses
    whitespace runs, and lowercases. Idempotent; empty input stays empty.
    """
    s = raw_answer.strip().lower()
    while True:
        before = s
        if len(s) >= 2 and s.startswith("$") and s.endswith("$"):
            s = s[1:-1].strip()
        s = _strip_boxed(s).strip()
        if s == before:
            break
    return re.sub(r"\s+", " ", s)


def _strip_boxed(s: str) -> str:
    prefix = "\\boxed{"
    if not (s.startswith(prefix) and s.endswith("}")):
        return s
    # only strip when the final brace closes the opening one
    depth = 1
    for i in range(len(prefix), len(s)):
        if s[i] == "{":
            depth += 1
        elif s[i] == "}":
            depth -= 1
            if depth == 0:
                return s[len(prefix) : i] if i == len(s) - 1 else s
    return s


def segment_trajectory(
    response_text: str,
    rules: SegmentationRules,
    *,
    prompt_id: str = "",
    traj_id: str = "",
    prompt_text: str = "",
    correct: bool | None = None,
) -> Trajectory:
    """Split a raw response into reasoning steps and a final answer.

    Segments are the delimiter-separated runs of the response; segments
    shorter than ``min_step_chars`` merge into the preceding step (the
    leading one merges right). The final answer comes from the last
    ``answer_pattern`` match; without a match the last segment doubles
    as the answer when fallback is enabled, and it is removed from the
    step list only if at least one step remains.
    """
    if not response_text or not response_text.strip():
        raise EmptyResponse(f"empty response for traj {traj_id!r}")

    segments = _split_segments(response_text, rules.delimiter)

    answer_text, answer_seg_idx = _find_answer(response_text, segments, rules, traj_id)

    if answer_seg_idx is not None and answer_seg_idx > 0:
        step_segs = segments[:answer_seg_idx]
        answer_start = segments[answer_seg_idx][0]
    elif answer_seg_idx is None and len(segments) >= 2:
        # fallback: the last segment doubles as the answer
        step_segs = segments[:-1]
        answer_start = segments[-1][0]
    else:
        # the answer lives inside the only available step; keep it so T >= 1
        step_segs = segments
        answer_start = len(response_text)

    step_segs = _merge_short(step_segs, rules.min_step_chars)
    steps = [ReasoningStep(response_text[a:b], a, b) for a, b in step_segs]
    return Trajectory(
        prompt_id=prompt_id,
        traj_id=traj_id,
        prompt_text=prompt_text,
        response_text=response_text,
        steps=steps,
        final_answer=answer_text,
        answer_start=answer_start,
        correct=correct,
    )


def _split_segments(text: str, delimiter: str) -> list[tuple[int, int]]:
    """Spans of the non-delimiter runs, in order, zero-length runs dropped."""
    spans = []
    pos = 0
    for m in re.finditer(delimiter, text):
        if m.start() > pos:
            spans.append((pos, m.start()))
        pos = m.end()
    if pos < len(text):
        spans.append((pos, len(text)))
    if not spans:
        raise EmptyResponse("response contains only delimiters")
    return spans


def _find_answer(
    text: str,
    segments: list[tuple[int, int]],
    rules: SegmentationRules,
    traj_id: str,
) -> tuple[str, int | None]:
    """Return (answer text, index of the segment holding the match).

    The segment index is None when the pattern never matched and the
    fallback is taking over (or about to raise).
    """
    last = None
    for m in re.finditer(rules.answer_pattern, text):
        last = m
    if last is not None:
        captured = next((g for g in last.groups() if g is not None), None)
        answer = captured if captured is not None else last.group(0)
        for idx, (a, b) in enumerate(segments):
            if a <= last.start() < b:
                return answer.strip(), idx
        return answer.strip(), len(segments) - 1
    if not rules.use_last_step_fallback:
        raise NoAnswerFound(f"no answer pattern match in traj {traj_id!r}")
    a, b = segments[-1]
    return text[a:b].strip(), None


def _merge_short(spans: list[tuple[int, int]], min_chars: int) -> list[tuple[int, int]]:
    """Merge sub-minimum segments into the preceding span (first one right)."""
    merged: list[tuple[int, int]] = []
    carry: tuple[int, int] | None = None
    for a, b in spans:
        if carry is not None:
            a = carry[0]
            carry = None
        if b - a < min_chars:
            if merged:
                merged[-1] = (merged[-1][0], b)
            else:
                carry = (a, b)
        else:
            merged.append((a, b))
    if carry is not None:
        # every span was short; keep the union as the single step
        merged.append(carry)
    return merged


def group_by_answer(batch: PromptBatch) -> list[AnswerGroup]:
    """Partition a batch by canonical final answer, first-occurrence order."""
    members: dict[str, list[str]] = {}
    for traj in batch.trajectories:
        members.setdefault(canonicalize_answer(traj.final_answer), []).append(traj.traj_id)
    return [
        AnswerGroup(answer, tuple(ids), k)
        for k, (answer, ids) in enumerate(members.items())
    ]


def read_trajectory_records(path, required=()) -> Iterator[dict]:
    """Yield the records of a line-delimited JSON file.

    A line that is not a JSON object, or lacks a ``required`` field, is a
    ValueError naming the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object but {type(rec).__name__}")
            missing = set(required) - rec.keys()
            if missing:
                raise ValueError(f"{path}:{lineno}: missing fields {sorted(missing)}")
            yield rec


def load_prompt_batches(path, rules: SegmentationRules) -> list[PromptBatch]:
    """Read and segment a JSONL trajectory file into per-prompt batches.

    Records need {prompt_id, traj_id, prompt_text, response_text} and may
    carry an optional boolean ``correct`` label.
    """
    batches: dict[str, PromptBatch] = {}
    required = ("prompt_id", "traj_id", "prompt_text", "response_text")
    for rec in read_trajectory_records(path, required):
        pid = str(rec["prompt_id"])
        traj = segment_trajectory(
            rec["response_text"],
            rules,
            prompt_id=pid,
            traj_id=str(rec["traj_id"]),
            prompt_text=rec["prompt_text"],
            correct=rec.get("correct"),
        )
        batch = batches.setdefault(pid, PromptBatch(pid, rec["prompt_text"]))
        if batch.prompt_text != rec["prompt_text"]:
            raise ValueError(f"prompt_id {pid!r} maps to two different prompt texts")
        batch.trajectories.append(traj)
    return list(batches.values())
