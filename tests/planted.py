"""Planted toy batches with controlled likelihood structure.

Builds a prompt batch plus a boosted toy model in which "correct"
trajectories become strongly predictive of their own final answer from
an early state onward, while "incorrect" trajectories lean toward the
rival answer until the very last state. Each trajectory uses its own
step symbols, so every state's preferences are planted independently.

The shipped fixture ``tests/fixtures/planted_batch.jsonl`` holds
``planted_records(PlantedSpec())``, and the ``scorer.toy`` mapping of
``tests/fixtures/planted_config.yaml`` is ``toy_config`` of its
``planted_model``; ``test_fixture_matches_generator`` checks both.
"""

from __future__ import annotations

from dataclasses import dataclass

from trajreward.scoring import ToyModel
from trajreward.trajectory import PromptBatch, SegmentationRules, segment_trajectory

CORRECT_ANSWER = "7"
WRONG_ANSWER = "9"
BOOST = 64.0


@dataclass(frozen=True)
class PlantedSpec:
    """Prompt text ends with a blank line: states are exact text
    concatenations, so the prompt must carry its own separator."""

    seed: int = 0
    n_correct: int = 4
    n_incorrect: int = 4
    num_steps: int = 6
    prompt_id: str = "p0"
    prompt_text: str = "q\n\n"


def planted_records(spec: PlantedSpec) -> list[dict]:
    """Raw trajectory records (the line-delimited JSON input schema)."""
    records = []
    for j in range(spec.n_correct):
        records.append(_record(spec, f"c{j}", _step_tokens("c", j, spec.num_steps), CORRECT_ANSWER, True))
    for j in range(spec.n_incorrect):
        records.append(_record(spec, f"w{j}", _step_tokens("w", j, spec.num_steps), WRONG_ANSWER, False))
    return records


def _step_tokens(tag: str, j: int, num_steps: int) -> list[str]:
    return [f"{tag}{j}x{i}" for i in range(num_steps)]


def _record(spec: PlantedSpec, traj_id: str, steps: list[str], answer: str, correct: bool) -> dict:
    return {
        "prompt_id": spec.prompt_id,
        "traj_id": traj_id,
        "prompt_text": spec.prompt_text,
        "response_text": "\n\n".join(steps) + f"\n\nAnswer: {answer}",
        "correct": correct,
    }


def planted_model(spec: PlantedSpec) -> ToyModel:
    """Toy model whose boosts realize the planted trajectory patterns.

    State i >= 1 of a trajectory ends with its step token i-1, so each
    state's answer preference is planted through that bigram context.
    State 0 (the bare prompt context) is shared by every trajectory and
    leans toward the correct answer, pinning the first curve point on
    the same side for all of them.
    """
    prompt_tokens = spec.prompt_text.split()
    tokens = prompt_tokens + [CORRECT_ANSWER, WRONG_ANSWER]
    for j in range(spec.n_correct):
        tokens.extend(_step_tokens("c", j, spec.num_steps))
    for j in range(spec.n_incorrect):
        tokens.extend(_step_tokens("w", j, spec.num_steps))
    model = ToyModel(tokens, order=2, seed=spec.seed)
    model.boost(prompt_tokens, CORRECT_ANSWER, BOOST)

    for j in range(spec.n_correct):
        steps = _step_tokens("c", j, spec.num_steps)
        settled = 1 + j % 2  # stay near the rival for 0-1 early states
        for i in range(1, settled):
            model.boost([steps[i - 1]], WRONG_ANSWER, BOOST)
        for i in range(settled, spec.num_steps):
            model.boost([steps[i - 1]], CORRECT_ANSWER, BOOST)
    for j in range(spec.n_incorrect):
        steps = _step_tokens("w", j, spec.num_steps)
        for i in range(1, spec.num_steps - 1):
            model.boost([steps[i - 1]], CORRECT_ANSWER, BOOST)
        model.boost([steps[spec.num_steps - 2]], WRONG_ANSWER, BOOST)
    return model


def toy_config(model: ToyModel) -> dict:
    """The ``scorer.toy`` mapping that ``ToyModel.from_config`` rebuilds ``model`` from."""
    return {
        "vocabulary": list(model.vocabulary),
        "order": model.order,
        "seed": model.seed,
        "init": model.init,
        "boosts": [
            {"context": list(ctx), "token": model.vocabulary[tok_idx], "delta": delta}
            for (ctx, tok_idx), delta in sorted(
                ((ctx, tok_idx), delta)
                for ctx, deltas in model._boosts.items()
                for tok_idx, delta in deltas.items()
            )
        ],
    }


def planted_batch(spec: PlantedSpec, rules: SegmentationRules | None = None) -> PromptBatch:
    """Segmented prompt batch for the planted records."""
    rules = rules or SegmentationRules()
    batch = PromptBatch(spec.prompt_id, spec.prompt_text)
    for rec in planted_records(spec):
        batch.trajectories.append(
            segment_trajectory(
                rec["response_text"],
                rules,
                prompt_id=rec["prompt_id"],
                traj_id=rec["traj_id"],
                prompt_text=rec["prompt_text"],
                correct=rec["correct"],
            )
        )
    return batch
