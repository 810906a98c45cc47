"""Output checks, computed apart from the program.

Every expected value here comes from the benchmark's own inputs and its
own transcription of the paper's formulas (or of the theory's closed
forms), never from a stored copy of an earlier run. Each check returns a
list of human-readable problems; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

from inputs import PlantedPrompt, PlantedTrajectory

ADVANTAGE_EPS = 1e-8  # the paper's advantage normalisation: (r - mean) / (std + eps)
DATA_FILES = ("rewards.jsonl", "matrices.jsonl", "summary.json")


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# reward formulas


def con_vol(rows) -> tuple[float, float]:
    """Consistency and volatility of a T x K distance matrix (own answer first)."""
    deviating = [i for i, row in enumerate(rows) if row[0] > min(row)]
    con = (len(rows) - len(deviating)) / len(rows)
    vol = deviating[-1] / len(rows) if deviating else 0.0
    return con, vol


def group_rewards(members: list[tuple[float, float]]) -> tuple[float, float]:
    """(linear, vector) reward of one answer group from its (con, vol) pairs."""
    linear = math.fsum(c - v for c, v in members) / len(members)
    if len(members) == 1:
        return linear, members[0][0]
    x = math.fsum(c * math.cos(v) for c, v in members)
    y = math.fsum(c * math.sin(v) for c, v in members)
    return linear, math.sqrt(x * x + y * y) / len(members)


def eq10_step(logprobs) -> float:
    """Step surprise (negated mean logprob) damped by log(1 + KL(P || U))."""
    m = len(logprobs)
    probs = [math.exp(lp) for lp in logprobs]
    mass = math.fsum(probs)
    kl = math.fsum(p / mass * math.log(p / mass * m) for p in probs if p > 0.0)
    return -math.fsum(logprobs) / m - math.log1p(kl)


def advantages(totals: list[float]) -> list[float]:
    mean = math.fsum(totals) / len(totals)
    std = math.sqrt(math.fsum((r - mean) ** 2 for r in totals) / len(totals))
    return [(r - mean) / (std + ADVANTAGE_EPS) for r in totals]


def answer_order(prompt: PlantedPrompt, traj: PlantedTrajectory) -> list[str]:
    """Own answer first, then the other answers in first-occurrence order."""
    seen = []
    for t in prompt.trajectories:
        if t.answer not in seen:
            seen.append(t.answer)
    return [traj.answer] + [a for a in seen if a != traj.answer]


# ---------------------------------------------------------------------------
# analysis formulas


def token_entropy(tokens) -> float:
    total = len(tokens)
    return -math.fsum(c / total * math.log(c / total) for c in Counter(tokens).values())


def self_bleu(responses: list[list[str]], max_n: int = 4) -> float:
    """Mean BLEU of each response against all the others.

    Reference clipping uses, per n-gram, the two largest counts over all
    responses, so the maximum over "all but one" is read off in O(1)
    instead of rescanning every reference for every hypothesis.
    """
    per_order = []
    for n in range(1, max_n + 1):
        counts = [Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1)) for r in responses]
        top: dict[tuple, list[int]] = {}
        for c in counts:
            for gram, k in c.items():
                pair = top.setdefault(gram, [0, 0])
                if k > pair[0]:
                    pair[0], pair[1] = k, pair[0]
                elif k > pair[1]:
                    pair[1] = k
        per_order.append((counts, top))
    lengths = sorted(len(r) for r in responses)
    scores = []
    for idx, hyp in enumerate(responses):
        orders = min(max_n, len(hyp))
        logs = []
        for n in range(1, orders + 1):
            counts, top = per_order[n - 1]
            clipped = 0
            for gram, k in counts[idx].items():
                first, second = top[gram]
                clipped += min(k, second if k == first else first)
            if clipped == 0:
                break
            logs.append(math.log(clipped / (len(hyp) - n + 1)))
        if len(logs) < orders:
            scores.append(0.0)
            continue
        others = list(lengths)
        others.remove(len(hyp))
        ref_len = min(others, key=lambda L: (abs(L - len(hyp)), L))
        brevity = 1.0 if len(hyp) >= ref_len else math.exp(1.0 - ref_len / len(hyp))
        scores.append(brevity * math.exp(math.fsum(logs) / orders))
    return math.fsum(scores) / len(scores)


def feature_stats(records: list[dict]) -> dict[str, list[float]]:
    """label -> [count, con_mean, con_std, vol_mean, vol_std] (population std)."""
    out = {}
    for label, flag in (("correct", True), ("incorrect", False)):
        group = [r for r in records if r["correct"] is flag]
        if not group:
            continue
        row = [float(len(group))]
        for key in ("con", "vol"):
            values = [r[key] for r in group]
            mean = math.fsum(values) / len(values)
            row += [mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))]
        out[label] = row
    return out


# ---------------------------------------------------------------------------
# reward workloads


def check_toy_planted(prompts: list[PlantedPrompt], reward_dir: Path, analysis_dir: Path) -> list[str]:
    problems: list[str] = []
    rewards = {r["traj_id"]: r for r in read_jsonl(reward_dir / "rewards.jsonl")}
    matrices = {m["traj_id"]: m for m in read_jsonl(reward_dir / "matrices.jsonl")}
    expected_trajs = sum(len(p.trajectories) for p in prompts)
    if len(rewards) != expected_trajs or len(matrices) != expected_trajs:
        problems.append(f"expected {expected_trajs} trajectories, got {len(rewards)} rewards, {len(matrices)} matrices")
        return problems

    for prompt in prompts:
        features: dict[str, tuple[float, float]] = {}
        for traj in prompt.trajectories:
            rec, mat = rewards[traj.traj_id], matrices[traj.traj_id]
            order = answer_order(prompt, traj)
            if mat["answer_order"] != order or mat["T"] != len(traj.steps) or mat["K"] != len(order):
                problems.append(f"{traj.traj_id}: matrix shape/order {mat['T']}x{mat['K']} {mat['answer_order']}")
                continue
            for i, row in enumerate(mat["rows"]):
                want = order.index(traj.preferred[i])
                if min(range(len(row)), key=row.__getitem__) != want or row.count(row[want]) != 1:
                    problems.append(f"{traj.traj_id} state {i}: planted answer {traj.preferred[i]} is not the unique closest")
            hits = [traj.preferred[i] == traj.answer for i in range(len(traj.steps))]
            con = sum(hits) / len(hits)
            misses = [i for i, hit in enumerate(hits) if not hit]
            vol = misses[-1] / len(hits) if misses else 0.0
            if (rec["con"], rec["vol"]) != (con, vol):
                problems.append(f"{traj.traj_id}: con/vol {rec['con']}/{rec['vol']}, planted {con}/{vol}")
            features[traj.traj_id] = (con, vol)
        problems += _check_group_and_totals(prompt, rewards, features)
        problems += _check_advantage_moments(prompt, rewards)

    stats = feature_stats(list(rewards.values()))
    with open(analysis_dir / "feature_stats.csv", newline="", encoding="utf-8") as fh:
        rows = {row[0]: [float(x) for x in row[1:]] for row in list(csv.reader(fh))[1:]}
    if rows.keys() != stats.keys():
        problems.append(f"feature_stats labels {sorted(rows)} != {sorted(stats)}")
    for label, want in stats.items():
        got = rows.get(label, [])
        if len(got) != len(want) or not all(close(a, b) for a, b in zip(got, want)):
            problems.append(f"feature_stats[{label}] = {got}, recomputed {want}")

    responses = [t.response_text.split() for p in prompts for t in p.trajectories]
    with open(analysis_dir / "diversity.csv", newline="", encoding="utf-8") as fh:
        entropy, bleu = (float(x) for x in list(csv.reader(fh))[1])
    want_entropy = token_entropy([tok for r in responses for tok in r])
    want_bleu = self_bleu(responses)
    if not close(entropy, want_entropy):
        problems.append(f"token_entropy {entropy}, recomputed {want_entropy}")
    if not close(bleu, want_bleu):
        problems.append(f"self_bleu {bleu}, recomputed {want_bleu}")
    if not want_bleu > 0.1:
        problems.append(f"inputs too diverse: self-BLEU {want_bleu}")
    return problems


def check_http_service(prompts: list[PlantedPrompt], served: dict, first_dir: Path, replay_dir: Path) -> list[str]:
    problems: list[str] = []
    rewards = {r["traj_id"]: r for r in read_jsonl(first_dir / "rewards.jsonl")}
    matrices = {m["traj_id"]: m for m in read_jsonl(first_dir / "matrices.jsonl")}
    expected_trajs = sum(len(p.trajectories) for p in prompts)
    if len(rewards) != expected_trajs or len(matrices) != expected_trajs:
        return [f"expected {expected_trajs} trajectories, got {len(rewards)} rewards, {len(matrices)} matrices"]

    def logprobs(prefix: str, continuation: str):
        lp = served.get((prefix, continuation))
        if lp is None:
            problems.append(f"never served: {continuation!r} after {prefix[-40:]!r}")
        return lp

    for prompt in prompts:
        features: dict[str, tuple[float, float]] = {}
        curiosity: dict[str, float] = {}
        for traj in prompt.trajectories:
            order = answer_order(prompt, traj)
            rows = []
            for i in range(len(traj.steps)):
                row = []
                for answer in order:
                    lp = logprobs(traj.state_prefix(i), answer)
                    row.append(-math.fsum(lp) / len(lp) if lp else math.nan)
                rows.append(row)
            got = matrices[traj.traj_id]["rows"]
            if matrices[traj.traj_id]["answer_order"] != order or len(got) != len(rows) or not all(
                len(g) == len(w) and all(close(a, b) for a, b in zip(g, w)) for g, w in zip(got, rows)
            ):
                problems.append(f"{traj.traj_id}: distance matrix differs from the served log-probabilities")
                continue
            features[traj.traj_id] = con_vol(rows)
            steps = [logprobs(traj.state_prefix(i), traj.steps[i]) for i in range(len(traj.steps))]
            if any(lp is None for lp in steps):
                continue
            curiosity[traj.traj_id] = math.fsum(eq10_step(lp) for lp in steps) / len(steps)
            rec = rewards[traj.traj_id]
            con, vol = features[traj.traj_id]
            if (rec["con"], rec["vol"]) != (con, vol):
                problems.append(f"{traj.traj_id}: con/vol {rec['con']}/{rec['vol']}, recomputed {con}/{vol}")
            if not close(rec["r_cur"], curiosity[traj.traj_id]):
                problems.append(f"{traj.traj_id}: r_cur {rec['r_cur']}, recomputed {curiosity[traj.traj_id]}")
        if len(features) != len(prompt.trajectories) or len(curiosity) != len(prompt.trajectories):
            continue
        problems += _check_group_and_totals(prompt, rewards, features, curiosity)
        problems += _check_advantage_moments(prompt, rewards)

    full_texts = {p.prompt_text: [p.prompt_text + t.response_text for t in p.trajectories] for p in prompts}
    for prefix, _ in served:
        texts = next((v for k, v in full_texts.items() if prefix.startswith(k)), ())
        if not any(text.startswith(prefix) for text in texts):
            problems.append(f"served prefix is no prefix of any prompt + response: {prefix[:60]!r}")
            break
    for name in DATA_FILES:
        if (first_dir / name).read_bytes() != (replay_dir / name).read_bytes():
            problems.append(f"{name} differs between the first run and the replay")
    return problems


def _check_group_and_totals(prompt, rewards, features, curiosity=None) -> list[str]:
    """Group rewards from (con, vol), r_total = r_int + w r_cur, advantages."""
    problems = []
    by_answer: dict[str, list[str]] = {}
    for t in prompt.trajectories:
        by_answer.setdefault(t.answer, []).append(t.traj_id)
    totals = []
    for t in prompt.trajectories:
        rec = rewards[t.traj_id]
        linear, vector = group_rewards([features[m] for m in by_answer[t.answer]])
        if not (close(rec["r_int_linear"], linear) and close(rec["r_int_vector"], vector)):
            problems.append(
                f"{t.traj_id}: group rewards {rec['r_int_linear']}/{rec['r_int_vector']}, recomputed {linear}/{vector}"
            )
        r_cur = rec["r_cur"] if curiosity is None else curiosity[t.traj_id]
        total = vector + 1.0 * r_cur
        if not close(rec["r_total"], total):
            problems.append(f"{t.traj_id}: r_total {rec['r_total']} != r_int + w r_cur = {total}")
        if rec["skip"]:
            problems.append(f"{t.traj_id}: batch with {len(by_answer)} answers flagged skip")
        totals.append(total)
    for t, want in zip(prompt.trajectories, advantages(totals)):
        if not close(rewards[t.traj_id]["advantage"], want, rel=1e-9, abs_=1e-9):
            problems.append(f"{t.traj_id}: advantage {rewards[t.traj_id]['advantage']}, recomputed {want}")
    return problems


def _check_advantage_moments(prompt, rewards) -> list[str]:
    adv = [rewards[t.traj_id]["advantage"] for t in prompt.trajectories]
    mean = math.fsum(adv) / len(adv)
    std = math.sqrt(math.fsum((a - mean) ** 2 for a in adv) / len(adv))
    if abs(mean) > 1e-9 or abs(std - 1.0) > 1e-6:
        return [f"{prompt.prompt_id}: advantages have mean {mean}, std {std}"]
    return []


# ---------------------------------------------------------------------------
# flow-convergence


def convergence_bound(inst: dict) -> float:
    """4 |Y+| / ((1 - rho) sigma) * (1 / pi0(Y+) - 1 / rho)."""
    p0, plus = inst["probs0"], inst["y_plus"]
    rho = math.fsum(p0[y] for y in plus) + inst["gamma"]
    e_proxy = math.fsum(p * r for p, r in zip(p0, inst["r_proxy"]))
    sigma = (1.0 - rho) * (1.0 - e_proxy)
    mass = math.fsum(p0[y] for y in plus)
    return 4.0 * len(plus) / ((1.0 - rho) * sigma) * (1.0 / mass - 1.0 / rho)


def target(inst: dict) -> float:
    return math.fsum(inst["probs0"][y] for y in inst["y_plus"]) + inst["gamma"]


def _velocity(p, r):
    """Closed-form probability velocity: pi^2 (r - E r) - pi sum pi^2 (r - E r)."""
    e = math.fsum(a * b for a, b in zip(p, r))
    w = [a * a * (b - e) for a, b in zip(p, r)]
    s = math.fsum(w)
    return [wi - a * s for wi, a in zip(w, p)]


def probability_space_hit_steps(inst: dict, h: float, max_steps: int) -> int | None:
    """RK4 in probability space on the closed-form velocity; first step at/above rho."""
    p, r, plus, rho = list(inst["probs0"]), inst["r_proxy"], inst["y_plus"], target(inst)
    for step in range(1, max_steps + 1):
        k1 = _velocity(p, r)
        k2 = _velocity([a + 0.5 * h * b for a, b in zip(p, k1)], r)
        k3 = _velocity([a + 0.5 * h * b for a, b in zip(p, k2)], r)
        k4 = _velocity([a + h * b for a, b in zip(p, k3)], r)
        p = [a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(p, k1, k2, k3, k4)]
        if math.fsum(p[y] for y in plus) >= rho:
            return step
    return None


def check_flow(instances: list[dict], results: list[dict], sweep: list[int]) -> list[str]:
    problems = []
    for idx, (inst, res) in enumerate(zip(instances, results)):
        if "error" in res:
            continue  # counted as a failed operation
        bound, rho, h = convergence_bound(inst), target(inst), inst["step_size"]
        hit = res["hit_time"]
        if not close(res["bound"], bound):
            problems.append(f"instance {idx}: bound {res['bound']}, closed form {bound}")
        if not hit <= bound:
            problems.append(f"instance {idx}: hit time {hit} exceeds bound {bound}")
        p0 = inst["probs0"]
        for t, probs in zip(res["times"], res["probs"]):
            if any(p > q * math.exp(2.0 * t) * (1.0 + 1e-9) for p, q in zip(probs, p0)):
                problems.append(f"instance {idx}: growth cap pi_t <= pi_0 e^(2t) broken at t={t}")
                break
        e_true = [math.fsum(probs[y] for y in inst["y_plus"]) for probs in res["probs"]]
        if res["times"][-1] != hit or not e_true[-1] >= rho * (1.0 - 1e-12):
            problems.append(f"instance {idx}: expected true reward {e_true[-1]} below rho {rho} at the hit")
        if any(e >= rho for e in e_true[:-1]):
            problems.append(f"instance {idx}: target rho {rho} reached before the reported hit")
        want = inst["expected_steps"]
        if abs(round(hit / h) - want) > 2:
            problems.append(f"instance {idx}: hit after {round(hit / h)} steps, probability-space RK4 needs {want}")
    hits = [results[i].get("hit_time", math.nan) for i in sweep]
    if not all(a < b for a, b in zip(hits, hits[1:])):
        problems.append(f"sweep hit times {hits} do not rise as the initial preferred mass falls")
    return problems
