import numpy as np
import pytest

from trajreward.errors import InstanceInvalid, NonConvergence
from trajreward.simulate import (
    ConvergenceInstance,
    FlowConfig,
    LatentTabularModel,
    TabularPolicy,
    exact_policy_gradient,
    flow_step,
    growth_bound_satisfied,
    kl_gradient,
    random_latent_model,
    simulate_collapse,
    simulate_convergence,
    verify_elbo,
)


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
        fd = finite_difference_gradient(policy.logits, rewards)
        assert np.linalg.norm(fd - exact) <= 1e-6 * max(1.0, np.linalg.norm(exact))


class TestFlowStep:
    def test_zero_reward_leaves_policy_unchanged(self):
        policy = TabularPolicy.from_probs([0.6, 0.4])
        stepped = flow_step(policy, np.zeros(2), FlowConfig(step_size=1e-2))
        assert np.array_equal(stepped.logits, policy.logits)

    def test_realized_velocity_matches_closed_form(self):
        policy = TabularPolicy.from_probs([0.6, 0.4])
        rewards = np.array([1.0, 0.0])
        h = 1e-4
        stepped = flow_step(policy, rewards, FlowConfig(step_size=h, integrator="euler"))
        realized = (stepped.probs[0] - policy.probs[0]) / h
        assert realized == pytest.approx(0.1152, abs=10 * h)

    def test_rk4_and_euler_agree_for_small_steps(self):
        policy = TabularPolicy.from_probs([0.3, 0.3, 0.4])
        rewards = np.array([1.0, 0.2, 0.0])
        e = flow_step(policy, rewards, FlowConfig(step_size=1e-5, integrator="euler"))
        r = flow_step(policy, rewards, FlowConfig(step_size=1e-5, integrator="rk4"))
        assert e.probs == pytest.approx(r.probs, abs=1e-9)

    def test_kl_term_pulls_back_toward_reference(self):
        ref = TabularPolicy.from_probs([0.5, 0.5])
        policy = TabularPolicy.from_probs([0.9, 0.1])
        cfg = FlowConfig(step_size=1e-2, kl_coefficient=5.0)
        stepped = flow_step(policy, np.zeros(2), cfg, ref_log_probs=np.log(ref.probs))
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
            policy = flow_step(policy, rewards, cfg)
            p = policy.probs
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
        assert (flow_step(policy, rewards, cfg, ref_log_probs=ref).logits == expected).all()


def test_checkpoints_at_record_every_and_last_step():
    cfg = FlowConfig(step_size=0.1, max_time=2.0, integrator="euler", record_every=7)
    report = simulate_collapse(TabularPolicy.from_probs([0.6, 0.4]), cfg, target=0.5)
    assert report.times.tolist() == [0.0, 0.7000000000000001, 1.4000000000000001, 2.0]


class TestCollapse:
    def test_exact_mode_reaches_target_monotonically(self):
        cfg = FlowConfig(step_size=1e-2, max_time=80, integrator="euler", record_every=10)
        report = simulate_collapse(TabularPolicy.from_probs([0.6, 0.4]), cfg)
        assert report.converged
        assert report.monotone
        assert report.growth_ok
        assert report.modal_prob[-1] >= 0.99
        # strictly increasing until saturating at 1
        live = report.modal_prob < 1.0 - 1e-12
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
            good.probs0, good.r_true, good.r_proxy * 0.5, gamma=0.4, y_plus=(0,)
        )
        with pytest.raises(InstanceInvalid):
            bad_proxy.validate()
        not_indicator = ConvergenceInstance(
            good.probs0, good.r_true * 0.9, good.r_proxy, gamma=0.4, y_plus=(0,)
        )
        with pytest.raises(InstanceInvalid):
            not_indicator.validate()
        rho_too_big = simple_instance(gamma=0.95)
        with pytest.raises(InstanceInvalid):
            rho_too_big.validate()
        with pytest.raises(InstanceInvalid):
            ConvergenceInstance(good.probs0, good.r_true, good.r_proxy, 0.4, ()).validate()

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
            for step in range(1, 501):
                policy = flow_step(policy, rewards, cfg)
                times.append(step * cfg.step_size)
                probs.append(policy.probs)
            assert growth_bound_satisfied(p0, times, probs)

    def test_detects_violation(self):
        assert not growth_bound_satisfied([0.5, 0.5], [0.1], [[0.8, 0.2]])


class TestElbo:
    def test_equality_when_conditional_ignores_latent(self):
        model = LatentTabularModel(
            prior=[0.3, 0.7], conditional=[[0.2, 0.8], [0.2, 0.8]]
        )
        report = verify_elbo(model, model.prior)
        assert report.tight

    def test_prior_bound_holds_on_random_model(self):
        rng = np.random.default_rng(5)
        model = random_latent_model(3, 4, rng)
        report = verify_elbo(model, model.prior)
        assert report.holds
        assert (report.gaps >= -1e-9).all()

    def test_posterior_is_tight(self):
        rng = np.random.default_rng(6)
        model = random_latent_model(4, 3, rng)
        report = verify_elbo(model, model.posterior())
        assert report.tight

    def test_other_variational_distribution_is_loose(self):
        rng = np.random.default_rng(7)
        model = random_latent_model(3, 3, rng)
        q = np.array([0.98, 0.01, 0.01])
        report = verify_elbo(model, q)
        assert report.holds
        assert report.gaps.max() > 1e-6

    def test_rejects_non_positive_q(self):
        model = LatentTabularModel(prior=[0.5, 0.5], conditional=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            verify_elbo(model, np.array([1.0, 0.0]))
