import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from planted import PlantedSpec, planted_batch, planted_model

from trajreward.distance import batch_distance_matrices, curiosity_reward, score_plan
from trajreward.errors import EmptyGroup, MissingMatrix
from trajreward.rewards import (
    ADVANTAGE_EPS,
    CuriosityConfig,
    TrajectoryFeatures,
    assemble_rewards,
    consistency,
    linear_group_reward,
    normalize_advantages,
    step_curiosity,
    vector_group_reward,
    volatility,
)
from trajreward.scoring import PerRequestSource, ScoreResponse
from trajreward.trajectory import PromptBatch, SegmentationRules, segment_trajectory

RULES = SegmentationRules(delimiter=r"\n\n", min_step_chars=1, answer_pattern=r"Answer: (.*)")


def feats(pairs):
    return [TrajectoryFeatures(str(i), c, v) for i, (c, v) in enumerate(pairs)]


def matrix_with_rows(own_is_min):
    """T x 2 matrix where row i is own-minimal iff own_is_min[i]."""
    rows = []
    for flag in own_is_min:
        rows.append([1.0, 2.0] if flag else [2.0, 1.0])
    return np.array(rows)


class TestConsistency:
    def test_all_rows_own_minimal(self):
        assert consistency(matrix_with_rows([True] * 5)) == 1.0

    def test_three_of_four(self):
        assert consistency(matrix_with_rows([True, True, False, True])) == 0.75

    def test_single_answer_convention(self):
        assert consistency(np.array([[3.0], [0.5]])) == 1.0

    def test_tie_counts_consistent(self):
        assert consistency(np.array([[1.0, 1.0], [2.0, 1.0]])) == 0.5


class TestVolatility:
    def test_no_deviation(self):
        assert volatility(matrix_with_rows([True, True, True])) == 0.0

    def test_last_deviation_at_index_two(self):
        assert volatility(matrix_with_rows([False, True, False, True])) == 0.5

    def test_deviation_only_at_last(self):
        assert volatility(matrix_with_rows([True, True, True, False])) == 0.75


class TestLinearReward:
    def test_single_member(self):
        assert linear_group_reward(feats([(0.8, 0.25)])) == pytest.approx(0.55, abs=1e-15)

    def test_two_members(self):
        assert linear_group_reward(feats([(0.8, 0.25), (0.6, 0.5)])) == pytest.approx(
            0.325, abs=1e-15
        )

    def test_maximum(self):
        assert linear_group_reward(feats([(1.0, 0.0)] * 3)) == 1.0

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            linear_group_reward([])


class TestVectorReward:
    def test_single_member_returns_con_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            c, v = float(rng.random()), float(rng.random())
            assert vector_group_reward(feats([(c, v)])) == c

    def test_half_angle_identity(self):
        r = vector_group_reward(feats([(1.0, 0.0), (1.0, 1.0)]))
        assert r == pytest.approx(math.cos(0.5), abs=1e-12)

    def test_aligned_vectors(self):
        assert vector_group_reward(feats([(1.0, 0.0), (1.0, 0.0)])) == 1.0

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            vector_group_reward([])

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_bounds(self, pairs):
        r = vector_group_reward(feats(pairs))
        assert 0.0 <= r <= 1.0 + 1e-12
        assert abs(linear_group_reward(feats(pairs))) <= 1.0 + 1e-12

    def test_never_exceeds_max_member_con(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pairs = [(float(rng.random()), float(rng.random())) for _ in range(rng.integers(1, 8))]
            r = vector_group_reward(feats(pairs))
            assert r <= max(c for c, _ in pairs) + 1e-12


class TestMonotonicity:
    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8
        ),
        st.integers(0, 7),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200)
    def test_con_increase_raises_both_rewards(self, pairs, idx, dc):
        idx = idx % len(pairs)
        bumped = list(pairs)
        bumped[idx] = (bumped[idx][0] + dc, bumped[idx][1])
        assert linear_group_reward(feats(bumped)) > linear_group_reward(feats(pairs))
        assert vector_group_reward(feats(bumped)) > vector_group_reward(feats(pairs))

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8
        ),
        st.integers(0, 7),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200)
    def test_vol_increase_lowers_linear_reward(self, pairs, idx, dv):
        idx = idx % len(pairs)
        bumped = list(pairs)
        bumped[idx] = (bumped[idx][0], bumped[idx][1] + dv)
        assert linear_group_reward(feats(bumped)) < linear_group_reward(feats(pairs))

    @given(
        st.lists(
            st.tuples(st.floats(1 / 16, 1), st.floats(0, 1)), min_size=2, max_size=8
        ),
        st.floats(1 / 16, 1.0),
    )
    @settings(max_examples=200)
    def test_vol_increase_on_top_angle_lowers_vector_reward(self, pairs, dv):
        # the perturbed member must stay ordered above the rest
        idx = max(range(len(pairs)), key=lambda j: pairs[j][1])
        bumped = list(pairs)
        bumped[idx] = (bumped[idx][0], bumped[idx][1] + dv)
        assert vector_group_reward(feats(bumped)) < vector_group_reward(feats(pairs))


class TestStepCuriosity:
    def test_half_probability_tokens(self):
        value = step_curiosity([math.log(0.5)] * 3)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_certain_tokens(self):
        assert step_curiosity([0.0, 0.0, 0.0]) == 0.0

    def test_mixed_probability_hand_value(self):
        logprobs = [-4.0, 0.0, 0.0]
        # independent arithmetic: P = softmax(logprobs), KL against uniform(3)
        probs = [math.exp(x) for x in logprobs]
        mass = sum(probs)
        kl = sum(p / mass * math.log(p / mass * 3) for p in probs)
        expected = 4.0 / 3.0 - math.log(kl + 1.0)
        value = step_curiosity(logprobs)
        assert value == pytest.approx(expected, abs=1e-12)
        assert kl == pytest.approx(0.36004, abs=1e-4)
        assert value == pytest.approx(1.0258, abs=1e-4)

    def test_underflowing_probabilities(self):
        # exp(-800) is 0.0 in floating point, yet the step's KL term is that of [0, -1]
        assert step_curiosity([-800.0]) == 800.0
        shifted = step_curiosity([-800.0, -801.0]) - 800.5
        assert shifted == pytest.approx(step_curiosity([0.0, -1.0]) - 0.5, abs=1e-12)


class StepScorer(PerRequestSource):
    """Scripted logprobs keyed by continuation text; answers get -1 per token."""

    def __init__(self, by_text):
        self.by_text = by_text

    def score(self, request):
        default = [-1.0] * len(request.continuation.split())
        return ScoreResponse(tuple(self.by_text.get(request.continuation, default)))


def step_scores(traj, by_text):
    """Scored plan, steps included, of a batch holding only ``traj``."""
    batch = PromptBatch(traj.prompt_id, traj.prompt_text, [traj])
    return score_plan(batch, StepScorer(by_text), steps=True)


def traj_with_steps(step_texts, answer="7"):
    text = "\n\n".join(step_texts) + f"\n\nAnswer: {answer}"
    return segment_trajectory(text, RULES, traj_id="t0", prompt_id="p", prompt_text="q\n\n")


class TestCuriosityReward:
    def test_mean_over_steps(self):
        traj = traj_with_steps(["one two three", "four five six"])
        scores = step_scores(traj, {"one two three": [math.log(0.5)] * 3, "four five six": [0.0] * 3})
        value = curiosity_reward(traj, scores)
        assert value == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)

    def test_alg2_sign_mode(self):
        traj = traj_with_steps(["one two three"])
        scores = step_scores(traj, {"one two three": [math.log(0.5)] * 3})
        value = curiosity_reward(traj, scores, CuriosityConfig(sign="alg2"))
        assert value == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_prefix_denominator_mode(self):
        traj = traj_with_steps(["one two three"])
        scores = step_scores(traj, {"one two three": [math.log(0.5)] * 3})
        # prompt "q\n\n" is 1 whitespace token; state length = 1 + 3
        value = curiosity_reward(traj, scores, CuriosityConfig(denominator="prefix"))
        assert value == pytest.approx(3 * math.log(2.0) / 4.0, abs=1e-12)

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            CuriosityConfig(sign="other")
        with pytest.raises(ValueError):
            CuriosityConfig(denominator="other")


class TestNormalizeAdvantages:
    def test_two_point_hand_case(self):
        out = normalize_advantages([1.0, 0.0])
        assert out[0] == pytest.approx(1.0, abs=1e-7)
        assert out[1] == pytest.approx(-1.0, abs=1e-7)

    def test_constant_input_is_all_zeros(self):
        assert normalize_advantages([0.3, 0.3, 0.3]) == [0.0, 0.0, 0.0]

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=32))
    def test_output_moments(self, values):
        if max(values) - min(values) < 1e-6:
            return
        out = np.array(normalize_advantages(values))
        std = float(np.std(values))
        assert out.mean() == pytest.approx(0.0, abs=1e-9)
        # the documented (r - mean) / (std + eps) has std std / (std + eps)
        assert out.std() == pytest.approx(std / (std + ADVANTAGE_EPS), abs=1e-9)


class TestAssembleRewards:
    def build(self, answers, seed=0):
        batch = PromptBatch("p", "q\n\n")
        for i, ans in enumerate(answers):
            batch.trajectories.append(
                segment_trajectory(
                    f"a{i} b\n\nc d{i}\n\nAnswer: {ans}",
                    RULES,
                    prompt_id="p",
                    traj_id=f"t{i}",
                    prompt_text="q\n\n",
                )
            )
        from trajreward.scoring import ToyModel

        vocab = ["q", "7", "9", "a0", "a1", "a2", "a3", "b", "c", "d0", "d1", "d2", "d3"]
        scores = score_plan(batch, ToyModel(vocab, seed=seed), steps=True)
        return batch, batch_distance_matrices(batch, scores), scores

    def test_single_answer_batch_is_skipped_with_zero_advantages(self):
        batch, mats, _ = self.build(["7", "7", "7"])
        report = assemble_rewards(batch, mats)
        assert report.skip is True
        assert report.num_groups == 1
        assert all(r.advantage == 0.0 for r in report.rewards)
        assert all(r.skip for r in report.rewards)

    def test_members_inherit_group_reward(self):
        batch, mats, _ = self.build(["7", "7", "9"])
        report = assemble_rewards(batch, mats, variant="vector")
        by_id = {r.traj_id: r for r in report.rewards}
        assert by_id["t0"].r_int_vector == by_id["t1"].r_int_vector
        g7 = report.groups[by_id["t0"].group]
        assert by_id["t0"].r_total == g7.r_vector  # zero curiosity by default

    def test_totals_recompose_from_components(self):
        batch, mats, scores = self.build(["7", "9", "7", "9"])
        curiosities = {t.traj_id: curiosity_reward(t, scores) for t in batch.trajectories}
        report = assemble_rewards(
            batch, mats, variant="linear", curiosity_weight=0.5, curiosities=curiosities
        )
        for r in report.rewards:
            assert r.r_total == r.r_int_linear + 0.5 * r.r_cur
        advantages = normalize_advantages([r.r_total for r in report.rewards])
        for r, a in zip(report.rewards, advantages):
            assert r.advantage == a

    def test_missing_matrix_rejected(self):
        batch, mats, _ = self.build(["7", "9"])
        del mats["t1"]
        with pytest.raises(MissingMatrix):
            assemble_rewards(batch, mats)

    def test_unknown_variant_rejected(self):
        batch, mats, _ = self.build(["7", "9"])
        with pytest.raises(ValueError):
            assemble_rewards(batch, mats, variant="other")


class TestAgainstLoopTranscription:
    def test_random_matrices_match_loop_reference(self):
        from reference_loop import group_rewards_reference

        rng = np.random.default_rng(99)
        for _ in range(50):
            g = int(rng.integers(1, 6))
            mats = [
                rng.uniform(0, 4, (int(rng.integers(1, 9)), int(rng.integers(1, 5))))
                for _ in range(g)
            ]
            cons = [consistency(m) for m in mats]
            vols = [volatility(m) for m in mats]
            fs = feats(list(zip(cons, vols)))
            ref = group_rewards_reference(mats)
            assert cons == ref.cons
            assert vols == ref.vols
            assert linear_group_reward(fs) == ref.r_linear
            assert vector_group_reward(fs) == ref.r_vector


class TestPlantedOrdering:
    def test_correct_label_has_higher_con_lower_vol(self):
        spec = PlantedSpec(seed=5)
        batch = planted_batch(spec)
        mats = batch_distance_matrices(batch, score_plan(batch, planted_model(spec)))
        by_label = {True: [], False: []}
        for t in batch.trajectories:
            m = mats[t.traj_id]
            by_label[t.correct].append((consistency(m.values), volatility(m.values)))
        con_true = np.mean([c for c, _ in by_label[True]])
        con_false = np.mean([c for c, _ in by_label[False]])
        vol_true = np.mean([v for _, v in by_label[True]])
        vol_false = np.mean([v for _, v in by_label[False]])
        assert con_true > con_false
        assert vol_true < vol_false

    @pytest.mark.parametrize(
        "n_correct, n_incorrect, num_steps", [(4, 4, 6), (6, 6, 8), (3, 5, 4), (8, 4, 12)]
    )
    def test_every_trajectory_has_its_planted_con_vol(self, n_correct, n_incorrect, num_steps):
        # correct trajectory c<j> strays to the rival at state 1 when j is odd;
        # incorrect ones hold the rival at states 0..T-2 and their own at T-1
        T = num_steps
        misses = []
        for seed in range(60):
            spec = PlantedSpec(seed, n_correct, n_incorrect, num_steps)
            batch = planted_batch(spec)
            mats = batch_distance_matrices(batch, score_plan(batch, planted_model(spec)))
            for t in batch.trajectories:
                strays = int(t.traj_id[1:]) % 2
                planted = ((T - strays) / T, strays / T) if t.correct else (1 / T, (T - 2) / T)
                values = mats[t.traj_id].values
                if (consistency(values), volatility(values)) != planted:
                    misses.append((seed, t.traj_id))
        assert misses == []
