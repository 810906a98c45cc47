"""Batch statistics over features, curves, and response diversity."""

from __future__ import annotations

import bisect
import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .distance import NormalizedCurve
from .rewards import TrajectoryFeatures

LABELS = ("correct", "incorrect", "unlabeled")


@dataclass(frozen=True)
class LabelStats:
    count: int
    con_mean: float
    con_std: float
    vol_mean: float
    vol_std: float


def _label_of(flag: bool | None) -> str:
    if flag is None:
        return "unlabeled"
    return "correct" if flag else "incorrect"


def _mean(xs: Sequence[float]) -> float:
    try:
        return math.fsum(xs) / len(xs)  # correctly rounded
    except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
        return sum(xs) / len(xs)  # inf or nan, as a plain float sum gives


def _std(xs: Sequence[float]) -> float:
    mean = _mean(xs)
    return math.sqrt(_mean([(x - mean) ** 2 for x in xs]))


def feature_statistics(
    features: Sequence[TrajectoryFeatures], labels: Sequence[bool | None]
) -> dict[str, LabelStats]:
    """Per-label mean and population std of con and vol, in ``LABELS`` order."""
    if not features:
        raise ValueError("no features to summarize")
    if len(features) != len(labels):
        raise ValueError("features and labels must align")
    buckets: dict[str, list[TrajectoryFeatures]] = {}
    for f, flag in zip(features, labels):
        buckets.setdefault(_label_of(flag), []).append(f)
    out = {}
    for label in LABELS:
        group = buckets.get(label)
        if not group:
            continue
        con, vol = [f.con for f in group], [f.vol for f in group]
        out[label] = LabelStats(len(group), _mean(con), _std(con), _mean(vol), _std(vol))
    return out


def write_csv(path, header, rows) -> None:
    """A comma-separated table: the header, then one line per row (``None`` written empty)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def curve_aggregate(
    curves: Sequence[NormalizedCurve], bucket_by_length: bool = False
) -> list[dict]:
    """Mean normalized-distance curve per label (optionally per state count).

    Rows: {label, bucket, state_index, mean_point, count}. Without
    bucketing, curves of different lengths contribute to every index they
    reach.
    """
    rows = []
    groups: dict[tuple[str, int | None], list[NormalizedCurve]] = {}
    for c in curves:
        bucket = len(c.points) if bucket_by_length else None
        groups.setdefault((_label_of(c.correct), bucket), []).append(c)
    for (label, bucket), members in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1] if kv[0][1] is not None else -1)
    ):
        longest = max(len(c.points) for c in members)
        for i in range(longest):
            points = [c.points[i] for c in members if len(c.points) > i]
            rows.append(
                {
                    "label": label,
                    "bucket": bucket if bucket is not None else "all",
                    "state_index": i,
                    "mean_point": _mean(points),
                    "count": len(points),
                }
            )
    return rows


@dataclass(frozen=True)
class DiversityMetrics:
    """Pooled token entropy (nats) and mean pairwise-reference BLEU overlap.

    self_bleu is None for a single response (nothing to compare against);
    identical responses give 1.0.
    """

    token_entropy: float
    self_bleu: float | None


def diversity_metrics(responses: Sequence[Sequence[str]], ngram_max: int = 4) -> DiversityMetrics:
    token_seqs = [list(r) for r in responses]
    if not token_seqs:
        raise ValueError("no responses")
    entropy = token_entropy([tok for seq in token_seqs for tok in seq])
    if len(token_seqs) < 2:
        return DiversityMetrics(entropy, None)
    return DiversityMetrics(entropy, _mean(_self_bleu_scores(token_seqs, ngram_max)))


def _self_bleu_scores(token_seqs: list[list[str]], max_n: int) -> list[float]:
    """Each seq's BLEU against all the other seqs as references.

    BLEU is the geometric mean of the modified n-gram precisions of orders
    1..min(max_n, len(seq)), counts clipped to the top reference count,
    times the brevity penalty against the closest reference length (the
    shorter on a tie); an empty seq scores 0. Each response's n-grams are
    counted once. Per gram the pool keeps its top count, the response
    owning it and the second-highest count, so the clip against all
    *other* responses is the top count, or the second one when the
    hypothesis owns the top. The cost is linear in the total number of
    n-grams instead of quadratic in responses.
    """
    counts = [
        [Counter(zip(*(seq[k:] for k in range(n)))) for n in range(1, min(max_n, len(seq)) + 1)]
        for seq in token_seqs
    ]
    pools: list[dict[tuple, list[int]]] = [{} for _ in range(max_n)]
    for owner, per_order in enumerate(counts):
        for pool, grams in zip(pools, per_order):
            for gram, count in grams.items():
                entry = pool.get(gram)
                if entry is None:
                    pool[gram] = [count, owner, 0]
                elif count > entry[0]:
                    entry[:] = [count, owner, entry[0]]
                elif count > entry[2]:
                    entry[2] = count

    lengths = [len(seq) for seq in token_seqs]
    length_counts = Counter(lengths)
    distinct_lengths = sorted(length_counts)

    def leave_one_out(i: int, per_order: list[Counter]) -> float:
        hyp_len = lengths[i]
        if not hyp_len:
            return 0.0
        log_precisions = []
        for pool, grams in zip(pools, per_order):
            clipped = 0
            for gram, count in grams.items():
                top, owner, second = pool[gram]
                clipped += min(count, second if owner == i else top)
            if clipped == 0:
                return 0.0
            log_precisions.append(math.log(clipped / sum(grams.values())))
        geo_mean = math.exp(sum(log_precisions) / min(max_n, hyp_len))
        ref_len = _closest_other_length(hyp_len, length_counts, distinct_lengths)
        brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
        return brevity * geo_mean

    return [leave_one_out(i, per_order) for i, per_order in enumerate(counts)]


def _closest_other_length(length: int, length_counts: Counter, distinct: list[int]) -> int:
    """The reference length closest to ``length`` (the shorter on a tie)
    among all lengths but one occurrence of ``length`` itself."""
    if length_counts[length] > 1:
        return length
    at = bisect.bisect_left(distinct, length)
    neighbours = distinct[max(at - 1, 0) : at] + distinct[at + 1 : at + 2]
    return min(neighbours, key=lambda L: (abs(L - length), L))


def token_entropy(tokens: Sequence[str]) -> float:
    """Shannon entropy (natural log) of the pooled token frequencies."""
    if not tokens:
        return 0.0
    counts = Counter(tokens)
    total = len(tokens)
    # fsum is correctly rounded, so the result does not depend on token order
    return -math.fsum((c / total) * math.log(c / total) for c in counts.values())
