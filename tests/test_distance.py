import math

import numpy as np
import pytest
from planted import PlantedSpec, planted_batch, planted_model

from trajreward.distance import (
    DistanceMatrix,
    batch_distance_matrices,
    distance_from_logprobs,
    normalized_curve,
    plan_requests,
    read_matrices,
    score_plan,
    write_matrices,
)
from trajreward.errors import EmptyAnswer, SingleAnswerBatch
from trajreward.rewards import consistency
from trajreward.scoring import PerRequestSource, ScoreRequest, ScoreResponse, ToyModel
from trajreward.trajectory import PromptBatch, SegmentationRules, segment_trajectory

VOCAB = ["a", "b", "c", "d", "7", "9"]
RULES = SegmentationRules(delimiter=r"\n\n", min_step_chars=1, answer_pattern=r"Answer: (.*)")


class FixedScorer(PerRequestSource):
    """Returns scripted logprobs keyed by continuation text."""

    def __init__(self, table):
        self.table = table

    def score(self, request):
        return ScoreResponse(tuple(self.table[request.continuation]))


def traj_of(steps, answer, traj_id="t0", prompt="q\n\n"):
    text = "\n\n".join(steps) + f"\n\nAnswer: {answer}"
    return segment_trajectory(text, RULES, traj_id=traj_id, prompt_text=prompt, prompt_id="p")


def batch_of(*trajs):
    return PromptBatch("p", "q\n\n", list(trajs))


def matrices_of(batch, source):
    return batch_distance_matrices(batch, score_plan(batch, source))


def matrix_of(traj, answers, source):
    """Matrix of ``traj`` in a batch whose rivals give the other answers."""
    rivals = [traj_of(["r"], a, traj_id=f"r{k}") for k, a in enumerate(answers[1:])]
    m = matrices_of(batch_of(traj, *rivals), source)[traj.traj_id]
    assert m.answer_order == tuple(answers)
    return m


class TestStateAnswerDistance:
    def test_certain_tokens_give_zero(self):
        traj = traj_of(["a b"], "7")
        m = matrix_of(traj, ["7"], FixedScorer({"7": [0.0, 0.0]}))
        assert all(v == 0.0 for row in m.values for v in row)
        assert distance_from_logprobs([0.0, 0.0]) == 0.0

    def test_hand_mean_of_two_tokens(self):
        traj = traj_of(["a b"], "7")
        m = matrix_of(traj, ["7"], FixedScorer({"7": [-1.0, -3.0]}))
        assert all(v == 2.0 for row in m.values for v in row)
        assert distance_from_logprobs([-1.0, -3.0]) == 2.0

    def test_uniform_vocab_three_token_answer(self):
        model = ToyModel(VOCAB, order=2, init="uniform")
        traj = traj_of(["a b"], "c d a")
        m = matrix_of(traj, ["c d a"], model)
        assert [len(row) for row in m.values] == [1]
        assert m.values[0][0] == pytest.approx(math.log(len(VOCAB)), abs=1e-12)

    def test_empty_answer_rejected(self):
        # "$ $" canonicalizes to the empty string
        batch = batch_of(traj_of(["a b"], "$ $"), traj_of(["c"], "7", traj_id="t1"))
        with pytest.raises(EmptyAnswer):
            plan_requests(batch, steps=False)
        with pytest.raises(EmptyAnswer):
            score_plan(batch, FixedScorer({}))


class TestDistanceMatrix:
    def test_minimal_one_by_one(self):
        traj = traj_of(["only step"], "7")
        # fallback answer handling keeps T = 1
        model = ToyModel(VOCAB, seed=0)
        m = matrix_of(traj, ["7"], model)
        assert [len(row) for row in m.values] == [1]

    def test_entries_match_per_cell_recompute(self):
        traj = traj_of(["a b", "c d", "b a"], "7")
        model = ToyModel(VOCAB, seed=11)
        m = matrix_of(traj, ["7", "9"], model)
        for i in range(m.num_states):
            for k, answer in enumerate(m.answer_order):
                response = model.score(ScoreRequest(traj.state_prefix(i), answer))
                assert m.values[i][k] == distance_from_logprobs(response.token_logprobs)

    def test_batch_shapes(self):
        batch = PromptBatch("p", "q\n\n")
        lengths = [2, 3, 4, 1]
        for j, T in enumerate(lengths):
            steps = [f"s{j}{i} tok" for i in range(T)]
            batch.trajectories.append(traj_of(steps, "7" if j % 2 else "9", traj_id=f"t{j}"))
        model = ToyModel(VOCAB, seed=4)
        mats = matrices_of(batch, model)
        assert len(mats) == 4
        for j, T in enumerate(lengths):
            assert [len(row) for row in mats[f"t{j}"].values] == [2] * T
            assert mats[f"t{j}"].answer_order[0] == ("7" if j % 2 else "9")

    def test_own_answer_must_come_first(self):
        # the rival group comes first in the batch; column 0 is still the own answer
        traj = traj_of(["a"], "7", traj_id="t1")
        batch = batch_of(traj_of(["b"], "9"), traj)
        m = matrices_of(batch, ToyModel(VOCAB, seed=0))["t1"]
        assert m.answer_order == ("7", "9")
        model = ToyModel(VOCAB, seed=0)
        for i, answer in enumerate(["7", "9"]):
            response = model.score(ScoreRequest(traj.state_prefix(0), answer))
            assert m.values[0][i] == distance_from_logprobs(response.token_logprobs)

    def test_non_negative_on_random_models(self):
        model = ToyModel(VOCAB, seed=8)
        traj = traj_of(["a b c", "d a"], "7")
        m = matrix_of(traj, ["7", "9"], model)
        assert all(v >= 0 for row in m.values for v in row)

    def test_monotone_response_to_boost(self):
        spec_steps = ["a b", "c d"]
        traj = traj_of(spec_steps, "7")
        base = ToyModel(VOCAB, seed=21)
        boosted = ToyModel(VOCAB, seed=21)
        for ctx in VOCAB:
            boosted.boost([ctx], "7", 2.0)
        m0 = matrix_of(traj, ["7"], base)
        m1 = matrix_of(traj, ["7"], boosted)
        pairs = zip(sum(m1.values, []), sum(m0.values, []), strict=True)
        assert all(v1 <= v0 + 1e-12 for v1, v0 in pairs)

    def test_export_roundtrip(self, tmp_path):
        traj = traj_of(["a b", "c"], "7")
        model = ToyModel(VOCAB, seed=2)
        m = matrix_of(traj, ["7", "9"], model)
        path = tmp_path / "matrices.jsonl"
        write_matrices([m], path)
        (loaded,) = read_matrices(path)
        assert loaded.traj_id == m.traj_id
        assert loaded.answer_order == m.answer_order
        assert loaded.values == m.values

    def test_integer_cells_read_back_as_floats(self, tmp_path):
        path = tmp_path / "matrices.jsonl"
        path.write_text(
            '{"traj_id": "t", "T": 1, "K": 2, "rows": [[1, 2]], "answer_order": ["7", "9"]}\n'
        )
        (loaded,) = read_matrices(path)
        assert loaded.values == [[1.0, 2.0]]
        assert all(type(v) is float for v in loaded.values[0])
        assert normalized_curve(loaded).points == [0.5]


class TestNormalizedCurve:
    def curve_for(self, rows):
        return normalized_curve(DistanceMatrix("t", rows, ("7", "9")))

    def test_half_when_rival_twice_as_far(self):
        assert self.curve_for([[1.0, 2.0]]).points[0] == 0.5

    def test_tie_is_boundary_one(self):
        assert self.curve_for([[1.5, 1.5]]).points[0] == 1.0

    def test_zero_rival_is_inf_sentinel(self):
        assert self.curve_for([[1.0, 0.0]]).points[0] == math.inf

    def test_zero_tie_counts_consistent(self):
        assert self.curve_for([[0.0, 0.0]]).points[0] == 1.0

    def test_single_answer_rejected(self):
        with pytest.raises(SingleAnswerBatch):
            normalized_curve(DistanceMatrix("t", [[1.0]], ("7",)))

    def test_points_below_one_iff_state_counts_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            T, K = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            values = rng.uniform(0, 3, (T, K)).tolist()
            # sprinkle exact ties and zeros
            if T > 1:
                values[0][0] = values[0][1]
                values[-1][rng.integers(K)] = 0.0
            m = DistanceMatrix("t", values, tuple(str(k) for k in range(K)))
            points = normalized_curve(m).points
            for i in range(T):
                consistent_row = values[i][0] == min(values[i])
                assert (points[i] <= 1.0) == consistent_row

    def test_planted_correct_crosses_below_one_earlier(self):
        spec = PlantedSpec(seed=13)
        batch = planted_batch(spec)
        model = planted_model(spec)
        mats = matrices_of(batch, model)
        crossings = {True: [], False: []}
        for traj in batch.trajectories:
            points = normalized_curve(mats[traj.traj_id]).points
            first = next((i for i, p in enumerate(points) if p < 1.0), len(points))
            crossings[traj.correct].append(first)
        assert max(crossings[True]) < min(crossings[False])

    def test_curve_consistency_cross_module_on_planted(self):
        spec = PlantedSpec(seed=3)
        batch = planted_batch(spec)
        mats = matrices_of(batch, planted_model(spec))
        for traj in batch.trajectories:
            m = mats[traj.traj_id]
            points = normalized_curve(m).points
            fraction_below = sum(1 for p in points if p <= 1.0) / m.num_states
            assert fraction_below == consistency(m.values)
