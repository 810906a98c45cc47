import math
import random
import subprocess
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from gradients import exact_policy_gradient, kl_gradient
from test_acceptance import _random_convergence_instance

from trajreward.config import SimulateConfig
from trajreward.draws import draw_dirichlet, draw_index, draw_vote
from trajreward.errors import InstanceInvalid, NonConvergence
from trajreward.probes import probe_reward_perturbations
from trajreward.simulate import (
    SWEEP_MASSES,
    ConvergenceInstance,
    FlowConfig,
    LatentTabularModel,
    TabularPolicy,
    flow_step,
    growth_bound_satisfied,
    preferred_mass_instance,
    random_latent_model,
    run_preset,
    simulate_collapse,
    simulate_convergence,
    verify_elbo,
)


def step(policy, rewards, config, ref_log_probs=None):
    """One ``flow_step`` from a policy, on the float lists it works on."""
    rewards = np.asarray(rewards, dtype=float).tolist()
    ref = None if ref_log_probs is None else np.asarray(ref_log_probs, dtype=float).tolist()
    logits, _ = flow_step(policy.logits, policy.probs, rewards, config, ref)
    return TabularPolicy(logits)


def finite_difference_gradient(logits, rewards, eps=1e-5):
    rewards = np.asarray(rewards, dtype=float)

    def objective(th):
        p = np.exp(th - th.max())
        p = p / p.sum()
        return float(p @ rewards)

    grad = np.zeros_like(logits)
    for i in range(len(logits)):
        up, down = logits.copy(), logits.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (objective(up) - objective(down)) / (2 * eps)
    return grad


class TestExactGradient:
    def test_hand_case(self):
        g = exact_policy_gradient(TabularPolicy.from_probs([0.5, 0.5]), np.array([1.0, 0.0]))
        assert g == pytest.approx([0.25, -0.25], abs=1e-15)

    def test_constant_reward_gives_zero(self):
        g = exact_policy_gradient(TabularPolicy.from_probs([0.2, 0.3, 0.5]), np.full(3, 0.7))
        assert g == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            policy = TabularPolicy(rng.normal(size=n))
            g = exact_policy_gradient(policy, rng.random(n))
            assert g.sum() == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        policy = TabularPolicy(rng.normal(size=5))
        rewards = rng.random(5)
        exact = exact_policy_gradient(policy, rewards)
        fd = finite_difference_gradient(np.array(policy.logits), rewards)
        assert np.linalg.norm(fd - exact) <= 1e-6 * max(1.0, np.linalg.norm(exact))


class TestFlowStep:
    def test_zero_reward_leaves_policy_unchanged(self):
        policy = TabularPolicy.from_probs([0.6, 0.4])
        stepped = step(policy, np.zeros(2), FlowConfig(step_size=1e-2))
        assert np.array_equal(stepped.logits, policy.logits)

    def test_realized_velocity_matches_closed_form(self):
        policy = TabularPolicy.from_probs([0.6, 0.4])
        rewards = np.array([1.0, 0.0])
        h = 1e-4
        stepped = step(policy, rewards, FlowConfig(step_size=h, integrator="euler"))
        realized = (stepped.probs[0] - policy.probs[0]) / h
        assert realized == pytest.approx(0.1152, abs=10 * h)

    def test_rk4_and_euler_agree_for_small_steps(self):
        policy = TabularPolicy.from_probs([0.3, 0.3, 0.4])
        rewards = np.array([1.0, 0.2, 0.0])
        e = step(policy, rewards, FlowConfig(step_size=1e-5, integrator="euler"))
        r = step(policy, rewards, FlowConfig(step_size=1e-5, integrator="rk4"))
        assert e.probs == pytest.approx(r.probs, abs=1e-9)

    def test_kl_term_pulls_back_toward_reference(self):
        ref = TabularPolicy.from_probs([0.5, 0.5])
        policy = TabularPolicy.from_probs([0.9, 0.1])
        cfg = FlowConfig(step_size=1e-2, kl_coefficient=5.0)
        stepped = step(policy, np.zeros(2), cfg, ref_log_probs=np.log(ref.probs))
        assert stepped.probs[0] < policy.probs[0]

    def test_kl_gradient_zero_at_reference(self):
        policy = TabularPolicy.from_probs([0.25, 0.75])
        g = kl_gradient(policy, np.log(policy.probs))
        assert g == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_simplex_preserved_along_flow(self):
        policy = TabularPolicy.from_probs([0.2, 0.5, 0.3])
        cfg = FlowConfig(step_size=1e-2)
        rewards = np.array([0.9, 0.1, 0.4])
        for _ in range(200):
            policy = step(policy, rewards, cfg)
            p = np.array(policy.probs)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert (p > 0).all()


def reference_flow_step(policy, rewards, config, ref_log_probs=None):
    """flow_step with the derivative composed from the public gradients,
    one TabularPolicy per evaluation."""
    lam = config.kl_coefficient

    def f(th):
        grad = exact_policy_gradient(TabularPolicy(th), rewards)
        if lam > 0.0 and ref_log_probs is not None:
            grad = grad - lam * kl_gradient(TabularPolicy(th), ref_log_probs)
        return grad

    h, th = config.step_size, policy.logits
    if config.integrator == "euler":
        return th + h * f(th)
    k1 = f(th)
    k2 = f(th + 0.5 * h * k1)
    k3 = f(th + 0.5 * h * k2)
    k4 = f(th + h * k3)
    return th + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("kl", [False, True])
def test_flow_step_equals_gradient_composition(integrator, kl):
    rng = np.random.default_rng(2024 + 2 * kl + (integrator == "rk4"))
    for _ in range(300):
        n = int(rng.integers(2, 9))
        policy = TabularPolicy(rng.normal(scale=2.0, size=n))
        rewards = rng.random(n)
        ref = np.log(rng.dirichlet(np.ones(n))) if kl else None
        cfg = FlowConfig(
            step_size=float(rng.uniform(1e-3, 0.1)),
            integrator=integrator,
            kl_coefficient=float(rng.uniform(0.01, 2.0)) if kl else 0.0,
        )
        expected = reference_flow_step(policy, rewards, cfg, ref)
        assert (step(policy, rewards, cfg, ref_log_probs=ref).logits == expected).all()


# The flow loop as it ran on numpy arrays, kept as the reference for the
# float loop: the same formulas, with numpy's reductions in place of sums
# over lists. Only the names differ (a numpy_ prefix, and a policy class
# whose probabilities come from the numpy softmax).


def numpy_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


@dataclass
class NumpyPolicy:
    logits: np.ndarray

    @property
    def probs(self) -> np.ndarray:
        return numpy_softmax(self.logits)


def numpy_tangent(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Logit gradient of E_p[f] for a fixed f; components sum to zero."""
    return p * (f - float(p @ f))


def numpy_flow_step(
    policy: NumpyPolicy,
    rewards: np.ndarray,
    config: FlowConfig,
    ref_log_probs: np.ndarray | None = None,
) -> NumpyPolicy:
    """Advance the logits one step along d theta / dt = grad J (- lam grad KL)."""
    h = config.step_size
    lam = config.kl_coefficient
    r = np.asarray(rewards, dtype=float)
    with_kl = lam > 0.0 and ref_log_probs is not None

    def f(th):
        p = numpy_softmax(th)
        grad = numpy_tangent(p, r)
        if with_kl:
            grad = grad - lam * numpy_tangent(p, np.log(p) - ref_log_probs)
        return grad

    th = policy.logits
    if config.integrator == "euler":
        new = th + h * f(th)
    else:
        k1 = f(th)
        k2 = f(th + 0.5 * h * k1)
        k3 = f(th + 0.5 * h * k2)
        k4 = f(th + h * k3)
        new = th + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return NumpyPolicy(new)


def numpy_run_flow(policy: NumpyPolicy, config: FlowConfig, rewards_at, stop=None):
    steps = int(round(config.max_time / config.step_size))
    p = policy.probs
    ref_log_probs = np.log(p)
    r = rewards_at(p)
    checkpoints = [(0.0, p, r)]
    for step in range(1, steps + 1):
        policy = numpy_flow_step(policy, r, config, ref_log_probs=ref_log_probs)
        p = policy.probs
        r = rewards_at(p)
        stopped = stop is not None and stop(p)
        if stopped or step % config.record_every == 0 or step == steps:
            checkpoints.append((step * config.step_size, p, r))
        if stopped:
            break
    times, probs, rewards = zip(*checkpoints)
    return np.array(times), np.array(probs), np.array(rewards)


def numpy_convergence(instance, config):
    """(times, probs) of ``simulate_convergence``'s run on the numpy loop."""
    rho = instance.rho
    policy = NumpyPolicy(np.array(TabularPolicy.from_probs(instance.probs0).logits))
    reached = lambda p: float(p @ instance.r_true) >= rho  # noqa: E731
    times, probs, _ = numpy_run_flow(policy, config, lambda p: instance.r_proxy, reached)
    return times, probs


def hit_time_cases():
    rng = np.random.default_rng(2718)
    criterion_6 = FlowConfig(step_size=1e-2, max_time=2000.0, integrator="rk4", record_every=200)
    worked = FlowConfig(step_size=1e-3, max_time=200.0, integrator="rk4", record_every=100)
    cases = [(_random_convergence_instance(rng), criterion_6) for _ in range(100)]
    cases += [(preferred_mass_instance(mass), criterion_6) for mass in SWEEP_MASSES]
    return cases + [(preferred_mass_instance(0.1), worked)]


def test_float_loop_matches_numpy_loop():
    """Criterion 6's random instances, the sweep masses and the worked
    instance at h = 1e-3 stop on the same step as on the numpy loop, with
    every checkpoint probability within 1e-14."""
    cases = hit_time_cases()
    assert len(cases) == 105
    for instance, config in cases:
        report = simulate_convergence(instance, config)
        times, probs = numpy_convergence(instance, config)
        h = config.step_size
        assert round(report.hit_time / h) == round(times[-1] / h)
        assert report.times == times.tolist()
        assert np.abs(np.array(report.probs) - probs).max() <= 1e-14


def test_checkpoints_at_record_every_and_last_step():
    cfg = FlowConfig(step_size=0.1, max_time=2.0, integrator="euler", record_every=7)
    report = simulate_collapse(TabularPolicy.from_probs([0.6, 0.4]), cfg, target=0.5)
    assert report.times == [0.0, 0.7000000000000001, 1.4000000000000001, 2.0]


class TestCollapse:
    def test_exact_mode_reaches_target_monotonically(self):
        cfg = FlowConfig(step_size=1e-2, max_time=80, integrator="euler", record_every=10)
        report = simulate_collapse(TabularPolicy.from_probs([0.6, 0.4]), cfg)
        assert report.converged
        assert report.monotone
        assert report.growth_ok
        assert report.modal_prob[-1] >= 0.99
        # strictly increasing until saturating at 1
        live = np.array(report.modal_prob) < 1.0 - 1e-12
        diffs = np.diff(report.modal_prob)
        assert (diffs[live[:-1]] > 0.0).all()

    def test_reward_hacking_drives_accuracy_down(self):
        cfg = FlowConfig(step_size=1e-2, max_time=80, integrator="euler", record_every=10)
        report = simulate_collapse(
            TabularPolicy.from_probs([0.6, 0.4]), cfg, truth_index=1
        )
        assert report.true_accuracy[0] == pytest.approx(0.4, abs=1e-12)
        assert report.true_accuracy[-1] < 0.01
        assert report.expected_proxy[-1] >= 0.99

    def test_near_point_mass_is_a_fixed_point(self):
        cfg = FlowConfig(step_size=1e-2, max_time=5, integrator="euler")
        report = simulate_collapse(
            TabularPolicy.from_probs([1 - 1e-9, 1e-9]), cfg, target=0.5
        )
        assert report.modal_prob[-1] == pytest.approx(report.modal_prob[0], abs=1e-8)

    def test_sampled_mode_is_seeded_and_converges(self):
        cfg = FlowConfig(
            step_size=1e-2, max_time=60, integrator="euler", sample_count=32, seed=11,
            record_every=10,
        )
        a = simulate_collapse(TabularPolicy.from_probs([0.7, 0.3]), cfg, mode="sampled")
        b = simulate_collapse(TabularPolicy.from_probs([0.7, 0.3]), cfg, mode="sampled")
        assert np.array_equal(a.probs, b.probs)
        assert a.converged

    def test_three_outputs_collapse_onto_mode(self):
        cfg = FlowConfig(step_size=1e-2, max_time=120, integrator="euler", record_every=20)
        report = simulate_collapse(TabularPolicy.from_probs([0.5, 0.3, 0.2]), cfg)
        assert report.converged
        assert report.y_star[-1] == 0

    def test_single_output_rejected(self):
        with pytest.raises(ValueError):
            simulate_collapse(TabularPolicy.from_probs([1.0]), FlowConfig())


def simple_instance(p_plus=0.1, gamma=0.4, n=5):
    probs0 = np.full(n, (1 - p_plus) / (n - 1))
    probs0[0] = p_plus
    r = np.zeros(n)
    r[0] = 1.0
    return ConvergenceInstance(probs0, r, r.copy(), gamma=gamma, y_plus=(0,))


class TestConvergence:
    def test_worked_instance_bound_value(self):
        inst = simple_instance()
        assert inst.rho == pytest.approx(0.5, abs=1e-12)
        assert inst.sigma == pytest.approx(0.45, abs=1e-12)
        assert inst.bound == pytest.approx(1280.0 / 9.0, abs=1e-9)  # ~142.22

    def test_hit_time_within_bound(self):
        cfg = FlowConfig(step_size=1e-3, max_time=200.0, integrator="rk4", record_every=100)
        report = simulate_convergence(simple_instance(), cfg)
        assert report.within_bound
        assert report.growth_ok
        assert report.expected_true[-1] >= 0.5

    def test_gamma_zero_hits_immediately(self):
        report = simulate_convergence(simple_instance(gamma=0.0), FlowConfig())
        assert report.hit_time == 0.0

    def test_bound_decreases_when_initial_mass_doubles(self):
        lo = simple_instance(p_plus=0.1)
        hi = simple_instance(p_plus=0.2)
        assert hi.bound < lo.bound

    def test_non_convergence_on_short_horizon(self):
        cfg = FlowConfig(step_size=1e-2, max_time=0.5, integrator="euler")
        with pytest.raises(NonConvergence):
            simulate_convergence(simple_instance(), cfg)

    def test_invalid_instances_rejected(self):
        good = simple_instance()
        bad_proxy = ConvergenceInstance(
            good.probs0, good.r_true, [0.5 * r for r in good.r_proxy], gamma=0.4, y_plus=(0,)
        )
        with pytest.raises(InstanceInvalid):
            bad_proxy.validate()
        not_indicator = ConvergenceInstance(
            good.probs0, [0.9 * r for r in good.r_true], good.r_proxy, gamma=0.4, y_plus=(0,)
        )
        with pytest.raises(InstanceInvalid):
            not_indicator.validate()
        rho_too_big = simple_instance(gamma=0.95)
        with pytest.raises(InstanceInvalid):
            rho_too_big.validate()
        with pytest.raises(InstanceInvalid):
            ConvergenceInstance(good.probs0, good.r_true, good.r_proxy, 0.4, ()).validate()
        for y_plus in [(5,), (0, -1), (0, 0)]:  # outputs that are not there, or named twice
            with pytest.raises(InstanceInvalid):
                ConvergenceInstance(good.probs0, good.r_true, good.r_proxy, 0.4, y_plus).validate()
        with pytest.raises(InstanceInvalid):  # one proxy value short
            ConvergenceInstance(good.probs0, good.r_true, good.r_proxy[:4], 0.4, (0,)).validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field, gamma",
        [("gamma", None), ("probs0", 0.4), ("probs0", 0.0), ("r_true", 0.4), ("r_proxy", 0.4)],
    )
    def test_non_finite_values_rejected(self, field, gamma, bad):
        # NaN must fail every check: a NaN target is never reached, yet never missed either
        values = {
            "probs0": [0.1, 0.45, 0.45], "r_true": [1.0, 0.0, 0.0], "r_proxy": [1.0, 0.0, 0.0]
        }
        if field == "gamma":
            gamma = bad
        else:
            values[field][0] = bad
        instance = ConvergenceInstance(**values, gamma=gamma, y_plus=(0,))
        with pytest.raises(InstanceInvalid):
            instance.validate()
        with pytest.raises(InstanceInvalid):
            simulate_convergence(instance, FlowConfig(step_size=1e-2, max_time=5.0))

    def test_over_rewarded_mass_rejected(self):
        # a non-preferred output with proxy above the initial mean violates
        # the smallness condition whenever its mass is non-negligible
        probs0 = np.array([0.1, 0.4, 0.5])
        r_true = np.array([1.0, 0.0, 0.0])
        r_proxy = np.array([1.0, 0.9, 0.0])
        inst = ConvergenceInstance(probs0, r_true, r_proxy, gamma=0.3, y_plus=(0,))
        assert inst.y_minus == (1,)
        with pytest.raises(InstanceInvalid):
            inst.validate()


class TestGrowthBound:
    def test_holds_along_random_flows(self):
        rng = np.random.default_rng(3)
        cfg = FlowConfig(step_size=1e-2, integrator="rk4")
        for _ in range(5):
            n = int(rng.integers(2, 6))
            policy = TabularPolicy.from_probs(rng.dirichlet(np.ones(n)))
            rewards = rng.random(n)
            p0 = policy.probs
            times, probs = [0.0], [p0]
            for k in range(1, 501):
                policy = step(policy, rewards, cfg)
                times.append(k * cfg.step_size)
                probs.append(policy.probs)
            assert growth_bound_satisfied(p0, times, probs)

    def test_detects_violation(self):
        assert not growth_bound_satisfied([0.5, 0.5], [0.1], [[0.8, 0.2]])

    def test_cap_past_the_float_range(self):
        # exp(2 t) overflows a float from t = 355 on: the cap is then infinite
        p0 = [1e-300, 1.0 - 1e-300]
        times = [0.0, 354.0, 355.0, 1e6, float("inf")]
        probs = [p0, [0.5, 0.5], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert growth_bound_satisfied(p0, times, probs)
            assert growth_bound_satisfied(np.array(p0), np.array(times), np.array(probs))
            # a breach before the overflow is still caught, whatever follows it
            times, probs = [0.0, 1.0, 400.0], [p0, [1e-100, 1.0], [1.0, 0.0]]
            assert not growth_bound_satisfied(p0, times, probs)
            assert not growth_bound_satisfied(np.array(p0), np.array(times), np.array(probs))

    def test_same_verdict_on_lists_and_arrays(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p0 = rng.dirichlet(np.ones(n))
            times = np.sort(rng.uniform(0.0, 2.0, size=4))
            probs = rng.dirichlet(np.ones(n), size=4)
            verdict = growth_bound_satisfied(p0, times, probs)
            assert growth_bound_satisfied(p0.tolist(), times.tolist(), probs.tolist()) == verdict
            caps = p0 * np.exp(2.0 * times[:, None])
            assert verdict == bool((probs <= caps * (1.0 + 1e-9)).all())


class TestElbo:
    def test_equality_when_conditional_ignores_latent(self):
        model = LatentTabularModel(
            prior=[0.3, 0.7], conditional=[[0.2, 0.8], [0.2, 0.8]]
        )
        report = verify_elbo(model, model.prior)
        assert report.tight

    def test_prior_bound_holds_on_random_model(self):
        rng = random.Random(5)
        model = random_latent_model(3, 4, rng)
        report = verify_elbo(model, model.prior)
        assert report.holds
        assert (np.array(report.gaps) >= -1e-9).all()

    def test_posterior_is_tight(self):
        rng = random.Random(6)
        model = random_latent_model(4, 3, rng)
        report = verify_elbo(model, model.posterior())
        assert report.tight

    def test_other_variational_distribution_is_loose(self):
        rng = random.Random(7)
        model = random_latent_model(3, 3, rng)
        q = np.array([0.98, 0.01, 0.01])
        report = verify_elbo(model, q)
        assert report.holds
        assert max(report.gaps) > 1e-6

    def test_rejects_non_positive_q(self):
        model = LatentTabularModel(prior=[0.5, 0.5], conditional=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            verify_elbo(model, np.array([1.0, 0.0]))


# The ELBO check as it ran on numpy arrays, kept as the reference for the
# loops over lists: the same formulas, with numpy's reductions in place of
# sums over lists.


def numpy_posterior(prior: np.ndarray, conditional: np.ndarray) -> np.ndarray:
    """(Y, S) posterior over latent states for each output."""
    joint = prior[:, None] * conditional  # (S, Y)
    return (joint / joint.sum(axis=0, keepdims=True)).T


def numpy_elbo_gaps(prior: np.ndarray, conditional: np.ndarray, q) -> np.ndarray:
    """Per-output gap log p(y) - ELBO(q, y)."""
    q = np.asarray(q, dtype=float)
    n_latent, n_out = conditional.shape
    if q.ndim == 1:
        q = np.tile(q, (n_out, 1))
    q = q / q.sum(axis=1, keepdims=True)
    log_marginal = np.log(prior @ conditional)
    log_cond = np.log(conditional)  # (S, Y)
    reward_term = np.einsum("ys,sy->y", q, log_cond)
    kl = (q * (np.log(q) - np.log(prior)[None, :])).sum(axis=1)
    return log_marginal - (reward_term - kl)


def test_elbo_loops_match_numpy_reference():
    """On random models, with q the prior, the posterior or one random row
    per output: the same posterior, the same verdicts, and every gap within
    1e-15 of the numpy formulas (their sums run in another order)."""
    rng, draws = np.random.default_rng(2025), random.Random(2025)
    for _ in range(300):
        model = random_latent_model(int(rng.integers(1, 6)), int(rng.integers(1, 7)), draws)
        prior, conditional = np.array(model.prior), np.array(model.conditional)
        posterior = numpy_posterior(prior, conditional)
        assert model.posterior() == posterior.tolist()
        per_output = rng.dirichlet(np.ones(len(prior)), size=conditional.shape[1])
        for q in (prior, posterior, per_output):
            report = verify_elbo(model, q.tolist())
            reference = numpy_elbo_gaps(prior, conditional, q)
            assert np.abs(np.array(report.gaps) - reference).max() <= 1e-15
            assert report.holds == bool((reference >= -report.tol).all())
            assert report.tight == bool((np.abs(reference) <= report.tol).all())


def test_zero_conditional_entry_gives_an_infinite_gap():
    # log p(y | s) = -inf for that entry: the bound holds there, but is not tight
    model = LatentTabularModel([0.5, 0.5], [[1, 0], [0, 1]])
    report = verify_elbo(model, model.prior)
    assert report.gaps == [np.inf, np.inf]
    assert report.holds and not report.tight
    with np.errstate(divide="ignore"):  # numpy warns on log 0
        reference = numpy_elbo_gaps(np.array(model.prior), np.array(model.conditional), model.prior)
    assert reference.tolist() == report.gaps
    # an output no latent state emits has no posterior, so it cannot be a q
    model = LatentTabularModel([0.5, 0.5], [[1, 0], [1, 0]])
    assert np.isnan(model.posterior()[1]).all()
    with pytest.raises(ValueError):
        verify_elbo(model, model.posterior())


NAN, INF = float("nan"), float("inf")


def collapse(*, mode="exact", target=0.99, **flow):
    config = FlowConfig(**{"step_size": 1e-2, "max_time": 1.0, **flow})
    return simulate_collapse(TabularPolicy.from_probs([0.6, 0.4]), config, mode, target=target)


def convergence(**flow):
    return simulate_convergence(preferred_mass_instance(0.1), FlowConfig(**flow))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: TabularPolicy.from_probs([NAN, 0.5]), "pi0"),
        (lambda: TabularPolicy.from_probs([INF, 0.5]), "pi0"),
        (lambda: TabularPolicy.from_probs([0.5, 0.7]), "pi0"),  # never renormalized
        (lambda: LatentTabularModel([NAN, 0.5], [[0.5, 0.5], [0.5, 0.5]]), "prior"),
        (lambda: LatentTabularModel([0.5, 0.5], [[NAN, 1.0], [0.5, 0.5]]), "conditional"),
        (lambda: LatentTabularModel([0.5, 0.5], [[1.0]]), "conditional"),  # one row short
        (lambda: LatentTabularModel([0.5, 0.5], [[0.5, 0.5], [1.0]]), "conditional"),  # ragged
        (lambda: collapse(mode="sampled", sample_count=0), "sample_count"),
        (lambda: collapse(target=NAN), "target"),
        (lambda: collapse(target=0.0), "target"),
        (lambda: collapse(target=1.0), "target"),
        (lambda: collapse(max_time=INF), "max_time"),
        (lambda: collapse(max_time=1e-3), "max_time"),  # zero steps
        (lambda: convergence(max_time=INF), "max_time"),
        (lambda: convergence(step_size=1e-2, max_time=1e-3), "max_time"),
        (lambda: probe_reward_perturbations(0), "n_groups"),
        (lambda: random_latent_model(0, 3, random.Random(0)), "n_latent"),
        (lambda: random_latent_model(3, 0, random.Random(0)), "n_outputs"),
    ],
)
def test_library_rejects_bad_argument_by_name(call, name):
    # the CLI relies on these checks: it only prefixes the message with ``simulate.``
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call()
    assert str(info.value).startswith(f"{name} ")


def test_simulator_does_not_import_the_scoring_stack():
    stack = ["trajreward.scoring", "trajreward.distance", "http.client", "concurrent.futures"]
    code = f"import sys, trajreward.simulate; print([m for m in {stack!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestDraws:
    """The seeded draws read only random(): one value per index, entry or vote."""

    def test_index_is_the_floor_of_u_times_n(self):
        for n in (1, 2, 5, 1025):
            rng, u = random.Random(n), random.Random(n)
            assert [draw_index(rng, n) for _ in range(50)] == [
                int(u.random() * n) for _ in range(50)
            ]

    def test_dirichlet_normalizes_exponential_draws(self):
        rng, u = random.Random(3), random.Random(3)
        w = draw_dirichlet(rng, 7)
        draws = [-np.log1p(-u.random()) for _ in range(7)]
        assert w == pytest.approx(np.array(draws) / sum(draws), rel=1e-15)
        assert abs(sum(w) - 1.0) <= 1e-15 and all(x > 0 for x in w)
        assert rng.random() == u.random()  # one random() per entry

    def test_vote_matches_a_bincount_of_running_sum_draws(self):
        # argmax(bincount) takes ties to the lowest index
        data = np.random.default_rng(8)
        for seed in range(300):
            n, k = int(data.integers(1, 7)), int(data.integers(1, 9))
            p = data.dirichlet(np.ones(n)) * data.choice([1.0, 1.0 / 3])  # sum 1 or not
            if data.random() < 0.2 and n > 1:
                p[data.integers(n)] = 0.0
            p = p.tolist()
            u = random.Random(seed)
            running, total = np.cumsum(p), math.fsum(p)
            first_above = (np.searchsorted(running, u.random() * total, "right") for _ in range(k))
            draws = [min(i, n - 1) for i in first_above]
            expected = int(np.argmax(np.bincount(draws, minlength=n)))
            rng = random.Random(seed)
            assert draw_vote(rng, p, k) == expected
            assert rng.random() == u.random()  # one random() per draw


@pytest.mark.parametrize("preset, seeds", [("elbo", range(200)), ("growth-bound", range(10))])
def test_seeded_preset_verdicts_hold(tmp_path, preset, seeds):
    sim = SimulateConfig(preset=preset)
    assert [seed for seed in seeds if not run_preset(sim, seed, tmp_path)[0]] == []
