"""Seeded inputs for the benchmark workloads.

Everything here is built from the workload seed alone; the program only
ever sees the files these functions write. The shapes (prompts,
trajectories per prompt, steps, answers per prompt, words per step) are
fixed per workload size, so the seed changes which tokens and planted
preferences appear but not how much work a pass does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Every step is one stock phrase plus the trajectory's own planting token.
# Sharing the phrases across trajectories keeps self-BLEU well above 0,
# as it is for real samples; all phrases have the same word count so the
# number of tokens scored does not depend on the seed.
PHRASES = (
    "so we then have",
    "it follows that the",
    "adding both sides gives",
    "we can now check",
    "this means that the",
    "next we compute the",
    "by the same argument",
    "and therefore the value",
    "we substitute it into",
    "from the previous step",
    "note that this is",
    "so the total is",
)
ANSWER_POOL = tuple(str(n) for n in range(11, 60))
# Logit boost that plants a state's preferred answer. A Dirichlet(1) draw
# would have to put the preferred token below e^-64 of the rival's mass to
# overturn it (probability about 1.6e-28 per context).
PLANT_BOOST = 64.0
REWARD = {"variant": "vector", "curiosity": True, "curiosity_mode": "eq10", "curiosity_weight": 1.0}


@dataclass(frozen=True)
class PlantedShape:
    prompts: int
    trajectories: int
    steps: int
    group_sizes: tuple[int, ...]  # one answer group per entry, sizes sum to trajectories
    own_share: tuple[float, ...]  # per group: chance a state plants the own answer


@dataclass
class PlantedTrajectory:
    prompt_id: str
    traj_id: str
    prompt_text: str
    steps: list[str]
    answer: str
    correct: bool
    preferred: list[str]  # planted preferred answer of states 0..steps-1

    @property
    def response_text(self) -> str:
        return "\n\n".join(self.steps) + f"\n\nAnswer: {self.answer}"

    def state_prefix(self, i: int) -> str:
        """Prompt plus steps 0..i-1, exactly as the response text holds them."""
        if i == 0:
            return self.prompt_text
        return self.prompt_text + "\n\n".join(self.steps[:i]) + "\n\n"

    def record(self) -> dict:
        return {
            "prompt_id": self.prompt_id,
            "traj_id": self.traj_id,
            "prompt_text": self.prompt_text,
            "response_text": self.response_text,
            "correct": self.correct,
        }


@dataclass
class PlantedPrompt:
    prompt_id: str
    prompt_text: str
    prompt_token: str
    answers: list[str]  # answer of group g; group 0 is the correct one
    trajectories: list[PlantedTrajectory] = field(default_factory=list)


def planted_prompts(shape: PlantedShape, seed: int) -> list[PlantedPrompt]:
    """Prompts whose every state prefers one answer by design.

    State 0 (the bare prompt) prefers the correct answer for every
    trajectory of the prompt. State i >= 1 ends with the planting token of
    step i-1 and prefers the trajectory's own answer with the group's
    ``own_share`` probability, otherwise a random rival answer.
    """
    if sum(shape.group_sizes) != shape.trajectories:
        raise ValueError("group sizes must sum to the trajectory count")
    rng = random.Random(seed)
    prompts = []
    for p in range(shape.prompts):
        token = f"q{p}"
        answers = rng.sample(ANSWER_POOL, len(shape.group_sizes))
        prompt = PlantedPrompt(f"p{p}", f"problem {p} {token}\n\n", token, answers)
        groups = [g for g, size in enumerate(shape.group_sizes) for _ in range(size)]
        rng.shuffle(groups)
        for j, g in enumerate(groups):
            own = answers[g]
            steps = [f"{rng.choice(PHRASES)} p{p}t{j}s{i}" for i in range(shape.steps)]
            preferred = [answers[0]]
            for _ in range(1, shape.steps):
                if rng.random() < shape.own_share[g]:
                    preferred.append(own)
                else:
                    preferred.append(rng.choice([a for a in answers if a != own]))
            prompt.trajectories.append(
                PlantedTrajectory(
                    prompt.prompt_id, f"p{p}t{j}", prompt.prompt_text, steps, own, g == 0, preferred
                )
            )
        prompts.append(prompt)
    return prompts


def planted_boosts(prompts: list[PlantedPrompt]) -> list[dict]:
    boosts = []
    for prompt in prompts:
        boosts.append({"context": [prompt.prompt_token], "token": prompt.answers[0], "delta": PLANT_BOOST})
        for traj in prompt.trajectories:
            for i in range(1, len(traj.steps)):
                planting_token = traj.steps[i - 1].split()[-1]
                boosts.append(
                    {"context": [planting_token], "token": traj.preferred[i], "delta": PLANT_BOOST}
                )
    return boosts


def vocabulary(prompts: list[PlantedPrompt]) -> list[str]:
    words = {"Answer:", *ANSWER_POOL}
    for phrase in PHRASES:
        words.update(phrase.split())
    for prompt in prompts:
        for traj in prompt.trajectories:
            words.update(traj.prompt_text.split())
            for step in traj.steps:
                words.update(step.split())
    return sorted(words)


def write_records(prompts: list[PlantedPrompt], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for prompt in prompts:
            for traj in prompt.trajectories:
                fh.write(json.dumps(traj.record(), sort_keys=True) + "\n")


def toy_config(prompts: list[PlantedPrompt], input_path, seed: int) -> dict:
    return {
        "input": str(input_path),
        "seed": seed,
        "workers": 1,
        "scorer": {
            "source": "toy",
            "toy": {
                "vocabulary": vocabulary(prompts),
                "order": 2,
                "seed": seed,
                "init": "dirichlet",
                "boosts": planted_boosts(prompts),
            },
        },
        "reward": REWARD,
    }


def http_config(input_path, base_url: str, cache_path, seed: int) -> dict:
    return {
        "input": str(input_path),
        "seed": seed,
        "workers": 2,
        "scorer": {
            "source": "http",
            "base_url": base_url,
            "cache_path": str(cache_path),
            "timeout": 30.0,
            "attempts": 3,
            # short backoff: the stub refuses a few first attempts on purpose,
            # and the retry path should run without sleeps dominating the pass
            "backoff": 0.002,
        },
        "reward": REWARD,
    }


# ---------------------------------------------------------------------------
# flow-convergence instances


def random_convergence_instance(rng) -> dict:
    """One instance shaped like the acceptance suite's random convergence set."""
    n = rng.randint(4, 9)
    k = rng.randint(1, min(3, n - 2))
    preferred = sorted(rng.sample(range(n), k))
    raw = [rng.expovariate(1.0) for _ in range(n)]
    mass = rng.uniform(0.08, 0.4)
    plus_raw = sum(raw[y] for y in preferred)
    minus_raw = sum(raw[y] for y in range(n) if y not in preferred)
    probs0 = [
        raw[y] / plus_raw * mass if y in preferred else raw[y] / minus_raw * (1.0 - mass)
        for y in range(n)
    ]
    baseline = rng.uniform(0.0, 0.3)
    return {
        "probs0": probs0,
        "r_true": [1.0 if y in preferred else 0.0 for y in range(n)],
        "r_proxy": [1.0 if y in preferred else baseline for y in range(n)],
        "gamma": rng.uniform(0.1, 0.75 - mass),
        "y_plus": preferred,
    }


def sweep_instance(mass: float) -> dict:
    """Five outputs, output 0 preferred with initial mass ``mass``, gamma 0.4.

    mass 0.1 is the worked instance (bound 1280/9).
    """
    probs0 = [mass] + [(1.0 - mass) / 4.0] * 4
    reward = [1.0, 0.0, 0.0, 0.0, 0.0]
    return {"probs0": probs0, "r_true": reward, "r_proxy": list(reward), "gamma": 0.4, "y_plus": [0]}


SWEEP_MASSES = (0.3, 0.2, 0.1, 0.05)
