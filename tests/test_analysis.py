import itertools
import math
import statistics
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from trajreward.analysis import (
    curve_aggregate,
    diversity_metrics,
    feature_statistics,
    token_entropy,
)
from trajreward.distance import NormalizedCurve
from trajreward.rewards import TrajectoryFeatures


def feat(con, vol=0.0, traj_id="t"):
    return TrajectoryFeatures(traj_id, con, vol)


class TestFeatureStatistics:
    def test_singleton(self):
        stats = feature_statistics([feat(0.5)], [True])
        block = stats["correct"]
        assert block.count == 1
        assert block.con_mean == 0.5
        assert block.con_std == 0.0

    def test_two_values_population_std(self):
        stats = feature_statistics([feat(0.2), feat(0.8)], [None, None])
        block = stats["unlabeled"]
        assert block.con_mean == pytest.approx(0.5, abs=1e-12)
        assert block.con_std == pytest.approx(0.3, abs=1e-12)

    def test_labels_partition_counts(self):
        feats = [feat(0.1), feat(0.2), feat(0.3), feat(0.4)]
        stats = feature_statistics(feats, [True, False, True, None])
        assert stats["correct"].count == 2
        assert stats["incorrect"].count == 1
        assert stats["unlabeled"].count == 1

    def test_label_permutation_permutes_blocks(self):
        feats = [feat(0.1), feat(0.9), feat(0.4)]
        stats_a = feature_statistics(feats, [True, False, False])
        stats_b = feature_statistics(feats, [False, True, True])
        # flipping every label swaps the two blocks and changes nothing else
        assert stats_a["correct"] == stats_b["incorrect"]
        assert stats_a["incorrect"] == stats_b["correct"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            feature_statistics([], [])


class TestCurveAggregate:
    def test_single_curve_is_identity(self):
        curve = NormalizedCurve("t", [1.5, 0.8, 0.6], True)
        rows = curve_aggregate([curve])
        assert [r["mean_point"] for r in rows] == [1.5, 0.8, 0.6]
        assert all(r["label"] == "correct" for r in rows)

    def test_two_identical_curves_average_to_same(self):
        curve = NormalizedCurve("t", [1.2, 0.9], False)
        rows = curve_aggregate([curve, curve])
        assert [r["mean_point"] for r in rows] == [1.2, 0.9]
        assert all(r["count"] == 2 for r in rows)

    def test_bucketing_by_length(self):
        c2 = NormalizedCurve("a", [1.0, 0.5], True)
        c3 = NormalizedCurve("b", [2.0, 1.5, 0.5], True)
        rows = curve_aggregate([c2, c3], bucket_by_length=True)
        buckets = {r["bucket"] for r in rows}
        assert buckets == {2, 3}

    def test_mixed_lengths_without_bucketing(self):
        c2 = NormalizedCurve("a", [2.0, 0.4], None)
        c3 = NormalizedCurve("b", [1.0, 0.8, 0.2], None)
        rows = curve_aggregate([c2, c3])
        by_index = {r["state_index"]: r for r in rows}
        assert by_index[0]["mean_point"] == pytest.approx(1.5)
        assert by_index[2]["count"] == 1

    def test_mean_past_the_float_range(self):
        # fsum raises on both; the mean is what a plain float sum gives
        huge = [NormalizedCurve("a", [1e308], None), NormalizedCurve("b", [1e308], None)]
        assert curve_aggregate(huge)[0]["mean_point"] == math.inf
        signed = [NormalizedCurve("a", [math.inf], None), NormalizedCurve("b", [-math.inf], None)]
        assert math.isnan(curve_aggregate(signed)[0]["mean_point"])


def naive_bleu(hypothesis, references, max_n):
    """Independent n-gram matcher used as the cross-check oracle."""
    orders = min(max_n, len(hypothesis))
    if orders == 0 or not references:
        return 0.0
    precisions = []
    for n in range(1, orders + 1):
        grams = [tuple(hypothesis[i : i + n]) for i in range(len(hypothesis) - n + 1)]
        matched = 0
        for gram in set(grams):
            best = 0
            for ref in references:
                ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
                best = max(best, ref_grams.count(gram))
            matched += min(grams.count(gram), best)
        if matched == 0:
            return 0.0
        precisions.append(matched / len(grams))
    geo = math.exp(sum(math.log(p) for p in precisions) / orders)
    closest = min((len(r) for r in references), key=lambda L: (abs(L - len(hypothesis)), L))
    bp = 1.0 if len(hypothesis) >= closest else math.exp(1 - closest / len(hypothesis))
    return bp * geo


class TestDiversity:
    def test_identical_responses_have_self_bleu_one(self):
        resp = "the cat sat on the mat".split()
        metrics = diversity_metrics([resp, list(resp), list(resp)])
        assert metrics.self_bleu == 1.0

    def test_point_mass_tokens_have_zero_entropy(self):
        metrics = diversity_metrics([["a", "a"], ["a", "a", "a"]])
        assert metrics.token_entropy == 0.0

    def test_single_response_sentinel(self):
        metrics = diversity_metrics([["a", "b"]])
        assert metrics.self_bleu is None

    def test_three_response_cross_check_against_naive_matcher(self):
        responses = [
            "the quick brown fox jumps over the lazy dog".split(),
            "the quick brown cat naps near the lazy dog".split(),
            "a slow green turtle walks under a busy bridge".split(),
        ]
        metrics = diversity_metrics(responses, ngram_max=4)
        expected = statistics.fmean(
            [
                naive_bleu(responses[i], responses[:i] + responses[i + 1 :], 4)
                for i in range(3)
            ]
        )
        assert metrics.self_bleu == pytest.approx(expected, abs=1e-12)

    def test_entropy_matches_direct_formula(self):
        tokens = ["a", "b", "b", "c", "c", "c"]
        counts = Counter(tokens)
        expected = -sum(c / 6 * math.log(c / 6) for c in counts.values())
        assert token_entropy(tokens) == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30))
    def test_entropy_permutation_invariant(self, tokens):
        for perm in itertools.islice(itertools.permutations(tokens), 3):
            assert token_entropy(list(perm)) == token_entropy(tokens)

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c"]), max_size=9), min_size=2, max_size=8
        )
    )
    def test_self_bleu_equals_leave_one_out_naive_matcher(self, responses):
        # three symbols: ties for the top count, repeated grams, equal lengths,
        # and responses shorter than the highest order all come up
        expected = statistics.fmean(
            [naive_bleu(r, responses[:i] + responses[i + 1 :], 4) for i, r in enumerate(responses)]
        )
        assert diversity_metrics(responses).self_bleu == expected

    def test_self_bleu_order_invariant(self):
        responses = [
            "alpha beta gamma delta".split(),
            "alpha beta gamma epsilon".split(),
            "zeta eta theta iota".split(),
        ]
        forward = diversity_metrics(responses).self_bleu
        backward = diversity_metrics(responses[::-1]).self_bleu
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_brevity_penalty_applies(self):
        short = ["a", "b"]
        ref = [["a", "b", "c", "d"]]
        assert naive_bleu(short, ref, 2) == pytest.approx(math.exp(1 - 2.0) * 1.0, abs=1e-12)

    def test_disjoint_responses_score_zero(self):
        assert naive_bleu(["x", "y"], [["p", "q"]], 2) == 0.0
