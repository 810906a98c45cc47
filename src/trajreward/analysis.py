"""Batch statistics over features, curves, and response diversity."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


@dataclass
class FeatureStats:
    """Per-label mean and population std of con and vol."""

    per_label: dict[str, LabelStats]


def _label_of(flag: bool | None) -> str:
    if flag is None:
        return "unlabeled"
    return "correct" if flag else "incorrect"


def feature_statistics(
    features: Sequence[TrajectoryFeatures], labels: Sequence[bool | None]
) -> FeatureStats:
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
        con = np.array([f.con for f in group])
        vol = np.array([f.vol for f in group])
        out[label] = LabelStats(
            count=len(group),
            con_mean=float(con.mean()),
            con_std=float(con.std()),
            vol_mean=float(vol.mean()),
            vol_std=float(vol.std()),
        )
    return FeatureStats(out)


def write_feature_stats(stats: FeatureStats, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "count", "con_mean", "con_std", "vol_mean", "vol_std"])
        for label in LABELS:
            if label in stats.per_label:
                s = stats.per_label[label]
                writer.writerow([label, s.count, s.con_mean, s.con_std, s.vol_mean, s.vol_std])


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
                    "mean_point": float(np.mean(points)),
                    "count": len(points),
                }
            )
    return rows


def write_curve_table(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "bucket", "state_index", "mean_point", "count"])
        for r in rows:
            writer.writerow([r["label"], r["bucket"], r["state_index"], r["mean_point"], r["count"]])


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
    scores = [
        bleu(seq, token_seqs[:i] + token_seqs[i + 1 :], ngram_max)
        for i, seq in enumerate(token_seqs)
    ]
    return DiversityMetrics(entropy, float(np.mean(scores)))


def token_entropy(tokens: Sequence[str]) -> float:
    """Shannon entropy (natural log) of the pooled token frequencies."""
    if not tokens:
        return 0.0
    counts = Counter(tokens)
    total = len(tokens)
    # fsum is correctly rounded, so the result does not depend on token order
    return -math.fsum((c / total) * math.log(c / total) for c in counts.values())


def bleu(hypothesis: Sequence[str], references: Sequence[Sequence[str]], max_n: int = 4) -> float:
    """BLEU of one token sequence against reference sequences.

    Modified n-gram precision with reference-clipped counts, uniform
    weights over orders 1..max_n (capped at the hypothesis length so
    short identical sequences still score 1), and the standard brevity
    penalty against the closest reference length.
    """
    hyp = list(hypothesis)
    if not hyp or not references:
        return 0.0
    orders = min(max_n, len(hyp))
    log_precisions = []
    for n in range(1, orders + 1):
        hyp_counts = Counter(_ngrams(hyp, n))
        max_ref = Counter()
        for ref in references:
            for gram, count in Counter(_ngrams(ref, n)).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped = sum(min(count, max_ref[gram]) for gram, count in hyp_counts.items())
        total = sum(hyp_counts.values())
        if clipped == 0:
            return 0.0
        log_precisions.append(math.log(clipped / total))
    geo_mean = math.exp(sum(log_precisions) / orders)
    ref_len = min((len(r) for r in references), key=lambda L: (abs(L - len(hyp)), L))
    brevity = 1.0 if len(hyp) >= ref_len else math.exp(1.0 - ref_len / len(hyp))
    return brevity * geo_mean


def _ngrams(tokens: Sequence[str], n: int):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def write_diversity(metrics: DiversityMetrics, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token_entropy", "self_bleu"])
        bleu_out = "" if metrics.self_bleu is None else metrics.self_bleu
        writer.writerow([metrics.token_entropy, bleu_out])
