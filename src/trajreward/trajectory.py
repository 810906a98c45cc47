"""Trajectory representation: segmentation, answer canonicalization, grouping.

A response is segmented into ordered reasoning steps plus a final answer.
Step spans index into the original response text, so every intermediate
state (prompt + steps 0..i-1) is an exact prefix of the text the model
actually produced; nothing is re-tokenized or re-joined.
"""

from __future__ import annotations

import io
import json
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, get_args, get_origin

from .errors import EmptyResponse, InputError, NoAnswerFound

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

    def __post_init__(self):
        for name in ("delimiter", "answer_pattern"):
            try:
                re.compile(getattr(self, name))
            except re.error as exc:
                raise ValueError(f"segmentation.{name} is not a regex: {exc}") from exc


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


def is_kind(value, kind) -> bool:
    """Whether a parsed JSON or YAML value has ``kind``.

    ``kind`` is a type, ``list[T]`` or a union such as ``str | None``. An
    int within float range counts as a float; a bool counts only as a bool.
    """
    if type(kind) is not type:
        if get_origin(kind) is list:
            (item,) = get_args(kind)
            return isinstance(value, list) and all(is_kind(v, item) for v in value)
        return any(is_kind(value, k) for k in get_args(kind))
    if isinstance(value, bool):
        return kind is bool
    if kind is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def kind_name(kind) -> str:
    return str(kind) if get_args(kind) else kind.__name__


def check_fields(record: dict, fields: Mapping[str, Any], optional=None) -> None:
    """ValueError unless ``record`` has each field of ``fields`` with its kind and,
    when ``optional`` maps keys to kinds (None: any), no other key nor one of another kind."""
    if optional is not None:
        unknown = [key for key in record if key not in fields and key not in optional]
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r}")
    missing = fields.keys() - record.keys()
    if missing:
        raise ValueError(f"missing fields {sorted(missing)}")
    for name, kind in {**(optional or {}), **fields}.items():
        if name in record and kind is not None and not is_kind(record[name], kind):
            raise ValueError(
                f"field {name!r} must be {kind_name(kind)}, not {type(record[name]).__name__}"
            )


def correct_label(record: dict) -> bool | None:
    """A record's optional ``correct`` label; only true, false and null
    (or no field) are labels, anything else is a ValueError."""
    label = record.get("correct")
    if not is_kind(label, bool | None):
        raise ValueError(f"field 'correct' must be true, false or null, not {type(label).__name__}")
    return label


def read_jsonl(
    path, fields: Mapping[str, Any], build: Callable[[dict], Any] = dict, optional=None,
    ids: Mapping[str, bool] | None = None,
) -> Iterator:
    """Yield ``build(record)`` for each record of a line-delimited JSON file.

    Each record must be a JSON object with the ``fields`` kinds and, when
    ``optional`` is given, no key outside ``fields`` and ``optional`` (see
    ``check_fields``). A line that is not, holds a byte that is not UTF-8,
    or on which ``build`` raises a ValueError, is an InputError naming the
    file and line. An id field named in ``ids`` is compared as text: ``1``
    and ``"1"`` are one id, which may not appear as both; where ``ids``
    maps the field to True, each id names one record. Breaking either rule
    is an InputError naming both lines.
    """
    seen: dict[tuple[str, str], tuple[str, Any]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in _numbered_lines(fh, path):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                raise InputError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise InputError(f"{where}: not a JSON object but {type(rec).__name__}")
            try:
                check_fields(rec, fields, optional)
                item = build(rec)
            except ValueError as exc:
                raise InputError(f"{where}: {exc}") from exc
            for name, once in (ids or {}).items():
                value = rec[name]
                first, old = seen.setdefault((name, str(value)), (where, value))
                if type(old) is not type(value):
                    raise InputError(f"{where}: {name} {value!r} is also given as {old!r} at {first}")
                if once and first != where:
                    raise InputError(f"{where}: {name} {value!r} repeats the record at {first}")
            yield item


def write_jsonl(path, records) -> None:
    """Write each record as one JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_json(path, obj) -> None:
    """Write one JSON document: keys sorted, indented by 2, ending in a newline.

    A dataclass inside ``obj`` is written as its field dict.
    """
    text = json.dumps(obj, default=vars, sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _numbered_lines(fh, path) -> Iterator[tuple[int, str]]:
    """Number the lines of an open UTF-8 text file; a byte that is not
    UTF-8 is an InputError naming the line that holds it."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise InputError(_undecodable(path)) from exc


def _undecodable(path) -> str:
    """Name the file and line of the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end as text mode ends them: at \n, \r\n or a lone \r
        head = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
        lineno = head.count("\n") + 1
        return f"{path}:{lineno}: not UTF-8 text: {exc.reason} {data[exc.start]:#04x}"
    return f"{path}: not UTF-8 text"


def load_prompt_batches(path, rules: SegmentationRules) -> list[PromptBatch]:
    """Read and segment a JSONL trajectory file into per-prompt batches.

    Records need string or integer {prompt_id, traj_id}, string
    {prompt_text, response_text} and may carry an optional ``correct``
    label (see ``correct_label``). A bad record, a response that cannot
    be segmented, or a prompt text other than its ``prompt_id``'s first
    one, is an InputError naming the file and line; so is a repeated
    ``traj_id``, or an id given both as a number and as a string (see
    ``read_jsonl``).
    """
    id_kind = str | int
    fields = {"prompt_id": id_kind, "traj_id": id_kind, "prompt_text": str, "response_text": str}

    texts: dict[str, str] = {}

    def build(rec: dict) -> Trajectory:
        traj = segment_trajectory(
            rec["response_text"],
            rules,
            prompt_id=str(rec["prompt_id"]),
            traj_id=str(rec["traj_id"]),
            prompt_text=rec["prompt_text"],
            correct=correct_label(rec),
        )
        if texts.setdefault(traj.prompt_id, traj.prompt_text) != traj.prompt_text:
            raise ValueError(f"prompt_id {traj.prompt_id!r} maps to two different prompt texts")
        return traj

    batches: dict[str, PromptBatch] = {}
    for traj in read_jsonl(path, fields, build, ids={"prompt_id": False, "traj_id": True}):
        batch = batches.setdefault(traj.prompt_id, PromptBatch(traj.prompt_id, traj.prompt_text))
        batch.trajectories.append(traj)
    return list(batches.values())
