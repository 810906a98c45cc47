"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured evidence; the stated
runtime budgets are asserted alongside the numeric tolerances.
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from gradients import exact_policy_gradient, policy_velocity
from planted import PlantedSpec, planted_batch, planted_model
from reference_loop import group_rewards_reference

from trajreward.analysis import curve_aggregate
from trajreward.distance import batch_distance_matrices, normalized_curve, score_plan
from trajreward.probes import probe_reward_perturbations
from trajreward.rewards import (
    TrajectoryFeatures,
    consistency,
    linear_group_reward,
    step_curiosity,
    vector_group_reward,
    volatility,
)
from trajreward.simulate import (
    ConvergenceInstance,
    FlowConfig,
    TabularPolicy,
    flow_step,
    growth_bound_satisfied,
    random_latent_model,
    simulate_collapse,
    simulate_convergence,
    verify_elbo,
)


def random_distance_matrix(rng):
    t = int(rng.integers(1, 12))
    k = int(rng.integers(1, 6))
    values = rng.uniform(0.0, 5.0, (t, k))
    if k >= 2 and rng.random() < 0.5:
        values[rng.integers(t), 0] = values[rng.integers(t) % t, :].min()  # plant a tie
    return values


def test_criterion_1_formula_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 120:
        group_size = int(rng.integers(1, 6))
        matrices = [random_distance_matrix(rng) for _ in range(group_size)]
        reference = group_rewards_reference(matrices)
        cons = [consistency(m) for m in matrices]
        vols = [volatility(m) for m in matrices]
        features = [TrajectoryFeatures(str(i), c, v) for i, (c, v) in enumerate(zip(cons, vols))]
        assert cons == reference.cons
        assert vols == reference.vols
        assert linear_group_reward(features) == reference.r_linear
        assert vector_group_reward(features) == reference.r_vector
        checked += group_size

    # step-term fixtures, hand-evaluated
    assert abs(step_curiosity([math.log(0.5)] * 3) - math.log(2.0)) <= 1e-12
    assert step_curiosity([0.0, 0.0, 0.0]) == 0.0
    probs = [math.exp(-4.0), 1.0, 1.0]
    mass = sum(probs)
    kl = sum(p / mass * math.log(p / mass * 3.0) for p in probs)
    expected = 4.0 / 3.0 - math.log(kl + 1.0)
    assert abs(step_curiosity([-4.0, 0.0, 0.0]) - expected) <= 1e-12
    assert abs(expected - 1.0258) < 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: {checked} matrices match the loop transcription exactly; "
          f"curiosity fixtures within 1e-12 ({elapsed:.3f}s)")


def test_criterion_2_vector_reward_identities():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        c, v = float(rng.random()), float(rng.random())
        assert vector_group_reward([TrajectoryFeatures("t", c, v)]) == c
    pair = [TrajectoryFeatures("a", 1.0, 0.0), TrajectoryFeatures("b", 1.0, 1.0)]
    value = vector_group_reward(pair)
    assert abs(value - math.cos(0.5)) <= 1e-12
    print(f"PASS criterion 2: single-member identity exact over 1000 draws; "
          f"two-member case = {value:.12f} vs cos(0.5) = {math.cos(0.5):.12f}")


def test_criterion_3_monotonicity_and_robustness_sweep():
    start = time.perf_counter()
    report = probe_reward_perturbations(n_groups=10_000, seed=17)
    elapsed = time.perf_counter() - start
    assert report.groups_checked == 10_000
    assert report.total_violations == 0, report.violations
    assert elapsed < 10.0
    print(f"PASS criterion 3: 10000 groups, zero violations "
          f"{report.violations} ({elapsed:.2f}s)")


def step(policy, rewards, config):
    """One ``flow_step`` from a policy, on the float lists it works on."""
    rewards = np.asarray(rewards, dtype=float).tolist()
    logits, _ = flow_step(policy.logits, policy.probs, rewards, config)
    return TabularPolicy(logits)


def test_criterion_4_gradient_and_flow_checks():
    rng = np.random.default_rng(41)
    worst_rel = 0.0
    h = 1e-5
    step_cfg = FlowConfig(step_size=h, integrator="euler")
    for _ in range(100):
        n = int(rng.integers(2, 9))
        policy = TabularPolicy(rng.normal(scale=1.5, size=n))
        rewards = rng.random(n)
        exact = exact_policy_gradient(policy, rewards)
        eps = 1e-5
        fd = np.zeros(n)
        for i in range(n):
            up, down = np.array(policy.logits), np.array(policy.logits)
            up[i] += eps
            down[i] -= eps
            pu = np.exp(up - up.max()); pu /= pu.sum()
            pd = np.exp(down - down.max()); pd /= pd.sum()
            fd[i] = (pu @ rewards - pd @ rewards) / (2 * eps)
        rel = np.linalg.norm(fd - exact) / max(1e-12, np.linalg.norm(exact))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6

        # realized probability velocity vs the closed form
        realized = (np.array(step(policy, rewards, step_cfg).probs) - policy.probs) / h
        assert np.allclose(realized, policy_velocity(policy.probs, rewards), atol=100 * h)

    # the worked two-output point evaluates to 0.1152
    policy = TabularPolicy.from_probs([0.6, 0.4])
    assert policy_velocity(policy.probs, np.array([1.0, 0.0]))[0] == pytest.approx(
        0.1152, abs=1e-12
    )
    realized = (step(policy, np.array([1.0, 0.0]), step_cfg).probs[0] - 0.6) / h
    assert abs(realized - 0.1152) <= 10 * h

    # growth bound at every checkpoint of random flows
    cfg = FlowConfig(step_size=1e-2, integrator="rk4")
    for _ in range(10):
        n = int(rng.integers(2, 6))
        policy = TabularPolicy.from_probs(rng.dirichlet(np.ones(n)))
        rewards = rng.random(n)
        p0 = policy.probs
        times, probs = [0.0], [p0]
        for k in range(1, 301):
            policy = step(policy, rewards, cfg)
            times.append(k * cfg.step_size)
            probs.append(policy.probs)
        assert growth_bound_satisfied(p0, times, probs)
    print(f"PASS criterion 4: exact gradient within {worst_rel:.2e} of finite differences "
          f"(100 instances); velocity matches closed form; growth bound holds at every checkpoint")


def test_criterion_5_majority_vote_collapse():
    start = time.perf_counter()
    cfg = FlowConfig(step_size=1e-2, max_time=80.0, integrator="euler", record_every=10)
    report = simulate_collapse(
        TabularPolicy.from_probs([0.6, 0.4]), cfg, mode="exact", truth_index=1
    )
    elapsed = time.perf_counter() - start
    assert report.converged and report.modal_prob[-1] >= 0.99
    assert report.monotone
    assert (np.diff(report.modal_prob) >= 0.0).all()
    # the modal output collects reward 1 every step while accuracy collapses
    assert (np.array(report.y_star) == report.y_star[0]).all()
    assert report.true_accuracy[-1] < 0.01
    assert report.expected_proxy[-1] >= 0.99
    assert report.growth_ok
    assert elapsed < 5.0
    print(f"PASS criterion 5: modal prob {report.modal_prob[-1]:.4f} (monotone), "
          f"true accuracy {report.true_accuracy[-1]:.4f} under constant modal reward "
          f"({elapsed:.2f}s)")


def _random_convergence_instance(rng):
    n = int(rng.integers(4, 10))
    k = int(rng.integers(1, min(4, n - 1)))
    idx = rng.permutation(n)
    preferred = tuple(int(i) for i in idx[:k])
    mask = np.zeros(n, dtype=bool)
    mask[list(preferred)] = True
    raw = rng.dirichlet(np.ones(n))
    mass = float(rng.uniform(0.08, 0.4))
    probs0 = np.empty(n)
    probs0[mask] = raw[mask] / raw[mask].sum() * mass
    probs0[~mask] = raw[~mask] / raw[~mask].sum() * (1.0 - mass)
    r_true = mask.astype(float)
    r_proxy = np.where(mask, 1.0, float(rng.uniform(0.0, 0.3)))
    gamma = float(rng.uniform(0.1, 0.75 - mass))
    return ConvergenceInstance(probs0, r_true, r_proxy, gamma=gamma, y_plus=preferred)


def test_criterion_6_convergence_bound():
    start = time.perf_counter()
    worked = ConvergenceInstance(
        np.array([0.1, 0.225, 0.225, 0.225, 0.225]),
        np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
        gamma=0.4,
        y_plus=(0,),
    )
    assert worked.bound == pytest.approx(1280.0 / 9.0, abs=1e-9)  # ~142.22
    report = simulate_convergence(
        worked, FlowConfig(step_size=1e-3, max_time=200.0, integrator="rk4", record_every=100)
    )
    assert report.within_bound and report.growth_ok

    rng = np.random.default_rng(2718)
    cfg = FlowConfig(step_size=1e-2, max_time=2000.0, integrator="rk4", record_every=200)
    slack = []
    for _ in range(100):
        instance = _random_convergence_instance(rng)
        rep = simulate_convergence(instance, cfg)
        assert rep.within_bound, (rep.hit_time, rep.bound)
        assert rep.growth_ok
        slack.append(rep.hit_time / rep.bound)

    # hitting time grows as the preferred set's initial mass shrinks
    hits = []
    for mass in [0.3, 0.2, 0.1, 0.05]:
        n = 5
        probs0 = np.full(n, (1.0 - mass) / (n - 1))
        probs0[0] = mass
        r = np.zeros(n)
        r[0] = 1.0
        inst = ConvergenceInstance(probs0, r, r.copy(), gamma=0.4, y_plus=(0,))
        hits.append(simulate_convergence(inst, cfg).hit_time)
    assert all(a < b for a, b in zip(hits, hits[1:]))

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 6: worked bound {worked.bound:.4f} respected "
          f"(hit {report.hit_time:.2f}); 100 random instances within bound "
          f"(max hit/bound {max(slack):.3f}); hitting times {['%.2f' % h for h in hits]} "
          f"increase as initial mass falls ({elapsed:.1f}s)")


def test_criterion_7_elbo_bound():
    rng = random.Random(99)
    worst_prior = 0.0
    worst_posterior = 0.0
    for _ in range(100):
        model = random_latent_model(rng.randrange(2, 5), rng.randrange(2, 6), rng)
        prior_report = verify_elbo(model, model.prior)
        posterior_report = verify_elbo(model, model.posterior())
        assert (np.array(prior_report.gaps) >= -1e-9).all()
        assert (np.abs(posterior_report.gaps) <= 1e-9).all()
        worst_prior = min(worst_prior, float(np.min(prior_report.gaps)))
        worst_posterior = max(worst_posterior, float(np.abs(posterior_report.gaps).max()))
    print(f"PASS criterion 7: 100 latent models; prior-side min gap {worst_prior:.2e} >= -1e-9; "
          f"posterior max |gap| {worst_posterior:.2e} <= 1e-9")


def first_index_below_one(mean_points):
    for i, value in enumerate(mean_points):
        if value < 1.0:
            return i
    return len(mean_points)


def test_criterion_8_qualitative_feature_reproduction():
    start = time.perf_counter()
    spec = PlantedSpec(seed=31, n_correct=6, n_incorrect=6, num_steps=8)
    batch = planted_batch(spec)
    model = planted_model(spec)
    matrices = batch_distance_matrices(batch, score_plan(batch, model))

    by_label = {True: [], False: []}
    curves = []
    for traj in batch.trajectories:
        m = matrices[traj.traj_id]
        by_label[traj.correct].append((consistency(m.values), volatility(m.values)))
        curves.append(normalized_curve(m))

    con_correct = np.mean([c for c, _ in by_label[True]])
    con_incorrect = np.mean([c for c, _ in by_label[False]])
    vol_correct = np.mean([v for _, v in by_label[True]])
    vol_incorrect = np.mean([v for _, v in by_label[False]])
    assert con_correct > con_incorrect
    assert vol_correct < vol_incorrect

    rows = curve_aggregate(curves)
    mean_curve = {
        label: [r["mean_point"] for r in rows if r["label"] == label]
        for label in ("correct", "incorrect")
    }
    cross_correct = first_index_below_one(mean_curve["correct"])
    cross_incorrect = first_index_below_one(mean_curve["incorrect"])
    assert cross_correct < cross_incorrect

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 8: mean con {con_correct:.3f} > {con_incorrect:.3f}, "
          f"mean vol {vol_correct:.3f} < {vol_incorrect:.3f}, "
          f"mean curve crosses at {cross_correct} < {cross_incorrect} ({elapsed:.2f}s)")


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "trajreward.cli", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def test_criterion_9_end_to_end_determinism(tmp_path, fixtures_dir):
    repo_root = Path(__file__).resolve().parents[1]
    config = fixtures_dir / "planted_config.yaml"
    data_files = ["rewards.jsonl", "matrices.jsonl", "summary.json"]

    first = tmp_path / "run"
    proc = run_cli(["reward", "--config", str(config), "--out", str(first)], cwd=repo_root)
    assert proc.returncode == 0, proc.stderr
    snapshots = {f: (first / f).read_bytes() for f in data_files + ["resolved_config.json"]}

    # identical invocation into the same directory reproduces every byte
    proc = run_cli(["reward", "--config", str(config), "--out", str(first)], cwd=repo_root)
    assert proc.returncode == 0, proc.stderr
    for f, blob in snapshots.items():
        assert (first / f).read_bytes() == blob, f

    # a different worker count changes nothing in the data outputs
    wide = tmp_path / "wide"
    proc = run_cli(
        ["reward", "--config", str(config), "--out", str(wide), "--workers", "4"],
        cwd=repo_root,
    )
    assert proc.returncode == 0, proc.stderr
    for f in data_files:
        assert (wide / f).read_bytes() == snapshots[f], f

    records = [json.loads(line) for line in (first / "rewards.jsonl").read_text().splitlines()]
    assert len(records) == 8
    print("PASS criterion 9: reward outputs byte-identical across reruns and worker counts "
          f"({len(records)} records)")
