"""Tabular softmax policy under gradient flow.

Exact-expectation machinery for a policy with one free logit per output:
the policy-gradient field, its closed-form probability velocity, Euler
and RK4 integration of the flow, majority-vote collapse runs, hitting
times against the proxy-reward convergence bound, an enumeration check
of the latent-state evidence lower bound, and the ``simulate`` presets
that run these checks and write their results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InstanceInvalid, NonConvergence
from .probes import probe_reward_perturbations

GROWTH_RATE = 2.0  # probability mass can grow at most like exp(2 t)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


@dataclass
class TabularPolicy:
    """Softmax distribution over a finite output set, one logit per output."""

    logits: np.ndarray

    @classmethod
    def from_probs(cls, probs) -> "TabularPolicy":
        p = np.asarray(probs, dtype=float)
        if (p <= 0).any():
            raise ValueError("initial probabilities must be strictly positive")
        return cls(np.log(p / p.sum()))

    @property
    def probs(self) -> np.ndarray:
        return softmax(self.logits)


def _tangent(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Logit gradient of E_p[f] for a fixed f; components sum to zero."""
    return p * (f - float(p @ f))


def exact_policy_gradient(policy: TabularPolicy, rewards: np.ndarray) -> np.ndarray:
    """Exact objective gradient: component y is pi(y) * (r(y) - E_pi[r])."""
    return _tangent(policy.probs, np.asarray(rewards, dtype=float))


def kl_gradient(policy: TabularPolicy, ref_log_probs: np.ndarray) -> np.ndarray:
    """Gradient of KL(pi_theta || pi_ref) with respect to the logits."""
    p = policy.probs
    return _tangent(p, np.log(p) - ref_log_probs)


def policy_velocity(probs: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """Closed-form d pi / dt under the exact gradient flow.

    pi(y)^2 (r(y) - E[r]) - pi(y) * sum_y' pi(y')^2 (r(y') - E[r]).
    """
    p = np.asarray(probs, dtype=float)
    r = np.asarray(rewards, dtype=float)
    centered = r - float(p @ r)
    weighted = p * p * centered
    return weighted - p * weighted.sum()


@dataclass(frozen=True)
class FlowConfig:
    """Integration settings for a gradient-flow run."""

    step_size: float = 1e-3
    max_time: float = 50.0
    integrator: str = "rk4"  # "euler" | "rk4"
    kl_coefficient: float = 0.0
    sample_count: int = 16
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.kl_coefficient < 0:
            raise ValueError("kl_coefficient must be >= 0")


def flow_step(
    policy: TabularPolicy,
    rewards: np.ndarray,
    config: FlowConfig,
    ref_log_probs: np.ndarray | None = None,
) -> TabularPolicy:
    """Advance the logits one step along d theta / dt = grad J (- lam grad KL)."""
    h = config.step_size
    lam = config.kl_coefficient
    r = np.asarray(rewards, dtype=float)
    with_kl = lam > 0.0 and ref_log_probs is not None

    def f(th):
        p = softmax(th)
        grad = _tangent(p, r)
        if with_kl:
            grad = grad - lam * _tangent(p, np.log(p) - ref_log_probs)
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
    return TabularPolicy(new)


def _run_flow(policy: TabularPolicy, config: FlowConfig, rewards_at, stop=None):
    """Integrate the flow from ``policy`` with the KL reference at log pi_0.

    Runs round(max_time / step_size) steps; ``rewards_at(p)`` is the
    reward vector at probabilities p, and the run ends at the first step
    after t = 0 whose probabilities satisfy ``stop(p)``. Returns arrays
    (times, probs, rewards) at the checkpoints: t = 0, every
    ``record_every``-th step, the last step and a stopping step.
    """
    steps = int(round(config.max_time / config.step_size))
    p = policy.probs
    ref_log_probs = np.log(p)
    r = rewards_at(p)
    checkpoints = [(0.0, p, r)]
    for step in range(1, steps + 1):
        policy = flow_step(policy, r, config, ref_log_probs=ref_log_probs)
        p = policy.probs
        r = rewards_at(p)
        stopped = stop is not None and stop(p)
        if stopped or step % config.record_every == 0 or step == steps:
            checkpoints.append((step * config.step_size, p, r))
        if stopped:
            break
    times, probs, rewards = zip(*checkpoints)
    return np.array(times), np.array(probs), np.array(rewards)


def growth_bound_satisfied(probs0, times, probs_series, rtol: float = 1e-9) -> bool:
    """Every checkpoint obeys pi_t(y) <= pi_0(y) * exp(2 t), up to rtol."""
    p0 = np.asarray(probs0, dtype=float)
    for t, p in zip(times, probs_series):
        cap = p0 * np.exp(GROWTH_RATE * float(t))
        if (np.asarray(p) > cap * (1.0 + rtol)).any():
            return False
    return True


# ---------------------------------------------------------------------------
# majority-vote collapse


@dataclass
class CollapseReport:
    """Time series of a majority-vote reward run.

    In exact mode the modal output's probability is non-decreasing and,
    when the modal output is not the ground truth, true accuracy decays
    while the modal output keeps collecting reward 1.
    """

    times: np.ndarray
    probs: np.ndarray  # checkpoints x outputs
    y_star: np.ndarray
    modal_prob: np.ndarray
    true_accuracy: np.ndarray
    expected_proxy: np.ndarray
    target: float
    converged: bool
    monotone: bool
    growth_ok: bool


def simulate_collapse(
    policy0: TabularPolicy,
    config: FlowConfig,
    mode: str = "exact",
    truth_index: int | None = None,
    target: float = 0.99,
) -> CollapseReport:
    """Evolve a policy under the majority-vote reward until ``max_time``.

    "exact" mode rewards the argmax of the current policy (ties break to
    the lowest index); "sampled" re-derives the modal output each step
    from ``sample_count`` fresh draws.
    """
    if len(policy0.logits) < 2:
        raise ValueError("collapse needs at least two outputs")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown collapse mode {mode!r}")
    rng = np.random.default_rng(config.seed)

    def majority_reward(p):
        if mode == "exact":
            star = int(np.argmax(p))
        else:
            draws = rng.choice(len(p), size=config.sample_count, p=p)
            star = int(np.argmax(np.bincount(draws, minlength=len(p))))
        rewards = np.zeros(len(p))
        rewards[star] = 1.0
        return rewards

    times, probs, rewards = _run_flow(policy0, config, majority_reward)
    stars = rewards.argmax(axis=1)
    modal = probs[np.arange(len(stars)), stars]
    truth = truth_index if truth_index is not None else int(stars[0])
    monotone = bool(np.all(np.diff(modal) >= 0.0)) if mode == "exact" else True
    return CollapseReport(
        times=times,
        probs=probs,
        y_star=stars,
        modal_prob=modal,
        true_accuracy=probs[:, truth],
        expected_proxy=modal,  # E_pi[1{y = y*}] = pi(y*)
        target=target,
        converged=bool(modal[-1] >= target),
        monotone=monotone,
        growth_ok=growth_bound_satisfied(probs[0], times, probs),
    )


# ---------------------------------------------------------------------------
# convergence-time bound


@dataclass
class ConvergenceInstance:
    """A proxy-reward flow with a true-reward target raise of gamma.

    The true reward is the indicator of the preferred set; the proxy
    reward is 1 on the preferred set and at most the initial expected
    proxy elsewhere, so only the preferred outputs are over-rewarded.
    """

    probs0: np.ndarray
    r_true: np.ndarray
    r_proxy: np.ndarray
    gamma: float
    y_plus: tuple[int, ...]

    def __post_init__(self):
        self.probs0 = np.asarray(self.probs0, dtype=float)
        self.r_true = np.asarray(self.r_true, dtype=float)
        self.r_proxy = np.asarray(self.r_proxy, dtype=float)
        self.y_plus = tuple(int(y) for y in self.y_plus)

    @property
    def initial_true(self) -> float:
        return float(self.probs0 @ self.r_true)

    @property
    def initial_proxy(self) -> float:
        return float(self.probs0 @ self.r_proxy)

    @property
    def rho(self) -> float:
        return self.initial_true + self.gamma

    @property
    def sigma(self) -> float:
        return (1.0 - self.rho) * (1.0 - self.initial_proxy)

    @property
    def y_minus(self) -> tuple[int, ...]:
        e0 = self.initial_proxy
        return tuple(
            y for y in range(len(self.probs0)) if y not in self.y_plus and self.r_proxy[y] > e0
        )

    @property
    def bound(self) -> float:
        """Closed-form cap on the hitting time.

        4 |Y+| / ((1 - rho) sigma) * (1 / pi0(Y+) - 1 / rho).
        """
        mass_plus = float(self.probs0[list(self.y_plus)].sum())
        return (
            4.0
            * len(self.y_plus)
            / ((1.0 - self.rho) * self.sigma)
            * (1.0 / mass_plus - 1.0 / self.rho)
        )

    def validate(self) -> None:
        p0 = self.probs0
        if abs(p0.sum() - 1.0) > 1e-9 or (p0 <= 0).any():
            raise InstanceInvalid("probs0 must be a strictly positive distribution")
        if self.gamma < 0:
            raise InstanceInvalid("gamma must be >= 0")
        if not self.y_plus:
            raise InstanceInvalid("the preferred set is empty")
        if ((self.r_true < 0) | (self.r_true > 1)).any() or (
            (self.r_proxy < 0) | (self.r_proxy > 1)
        ).any():
            raise InstanceInvalid("reward values must lie in [0, 1]")
        indicator = np.zeros(len(p0))
        indicator[list(self.y_plus)] = 1.0
        if not np.array_equal(self.r_true, indicator):
            raise InstanceInvalid("true reward must be the indicator of the preferred set")
        if not np.all(self.r_proxy[list(self.y_plus)] == 1.0):
            raise InstanceInvalid("proxy reward must be 1 on the preferred set")
        if self.gamma > 0 and not (0.0 < self.rho < 1.0):
            raise InstanceInvalid(f"rho = {self.rho} outside (0, 1)")
        if self.gamma > 0:
            if self.sigma <= 0:
                raise InstanceInvalid("sigma must be positive")
            e0 = self.initial_proxy
            for y in self.y_plus:
                if not self.r_proxy[y] > e0:
                    raise InstanceInvalid("preferred outputs must beat the initial proxy mean")
            mass_plus = float(p0[list(self.y_plus)].sum())
            mass_minus = float(p0[list(self.y_minus)].sum()) if self.y_minus else 0.0
            cap = (
                self.sigma
                * (1.0 - self.rho)
                * mass_plus**2
                / (4.0 * len(self.y_plus))
                * np.exp(-GROWTH_RATE * self.bound)
            )
            if mass_minus > cap:
                raise InstanceInvalid(
                    f"over-rewarded non-preferred mass {mass_minus} exceeds {cap}"
                )


@dataclass
class ConvergenceReport:
    hit_time: float
    bound: float
    times: np.ndarray
    expected_true: np.ndarray
    probs: np.ndarray  # checkpoints x outputs
    growth_ok: bool

    @property
    def within_bound(self) -> bool:
        return self.hit_time <= self.bound


def simulate_convergence(instance: ConvergenceInstance, config: FlowConfig) -> ConvergenceReport:
    """Run the proxy-reward flow until the true-reward target is hit.

    The hitting time is the first step time at or above the target;
    NonConvergence is raised when the horizon ends first.
    """
    instance.validate()
    rho = instance.rho
    policy = TabularPolicy.from_probs(instance.probs0)
    if instance.gamma == 0.0:
        times, probs = np.zeros(1), policy.probs[None, :]
    else:
        # stops at the first discrete time at/above target: an upper bound
        # on the true hitting time, which is what the bound check needs
        reached = lambda p: float(p @ instance.r_true) >= rho  # noqa: E731
        times, probs, _ = _run_flow(policy, config, lambda p: instance.r_proxy, reached)
    expected = np.array([float(p @ instance.r_true) for p in probs])
    if instance.gamma > 0.0 and expected[-1] < rho:
        raise NonConvergence(
            f"target {rho} not reached by t = {config.max_time} "
            f"(final expected true reward {expected[-1]})"
        )
    return ConvergenceReport(
        hit_time=float(times[-1]),
        bound=instance.bound,
        times=times,
        expected_true=expected,
        probs=probs,
        growth_ok=growth_bound_satisfied(probs[0], times, probs),
    )


# ---------------------------------------------------------------------------
# evidence lower bound over latent states


@dataclass
class LatentTabularModel:
    """Prior over latent states and per-state output conditionals."""

    prior: np.ndarray  # (S,)
    conditional: np.ndarray  # (S, Y), rows sum to 1

    def __post_init__(self):
        self.prior = np.asarray(self.prior, dtype=float)
        self.conditional = np.asarray(self.conditional, dtype=float)
        if abs(self.prior.sum() - 1.0) > 1e-9 or (self.prior <= 0).any():
            raise ValueError("prior must be a strictly positive distribution")
        if (np.abs(self.conditional.sum(axis=1) - 1.0) > 1e-9).any():
            raise ValueError("conditional rows must sum to 1")

    @property
    def marginal(self) -> np.ndarray:
        """Exact output marginal by enumerating latent states."""
        return self.prior @ self.conditional

    def posterior(self) -> np.ndarray:
        """(Y, S) posterior over latent states for each output."""
        joint = self.prior[:, None] * self.conditional  # (S, Y)
        return (joint / joint.sum(axis=0, keepdims=True)).T


@dataclass
class ElboReport:
    """Per-output gap log p(y) - ELBO(q, y); the bound holds when gaps >= 0."""

    gaps: np.ndarray
    tol: float = 1e-9

    @property
    def holds(self) -> bool:
        return bool((self.gaps >= -self.tol).all())

    @property
    def tight(self) -> bool:
        return bool((np.abs(self.gaps) <= self.tol).all())


def verify_elbo(model: LatentTabularModel, q) -> ElboReport:
    """Evaluate the latent-state evidence lower bound for each output.

    ``q`` is a distribution over latent states, either one shared row of
    shape (S,) or a per-output matrix of shape (Y, S). The bound uses the
    conditional log-likelihood directly as the reward term:

        log p(y) >= E_q[log p(y | s)] - KL(q || prior).
    """
    q = np.asarray(q, dtype=float)
    n_latent, n_out = model.conditional.shape
    if q.ndim == 1:
        q = np.tile(q, (n_out, 1))
    if q.shape != (n_out, n_latent):
        raise ValueError(f"q must have shape ({n_out}, {n_latent})")
    if (q <= 0).any():
        raise ValueError("variational distribution must be strictly positive")
    q = q / q.sum(axis=1, keepdims=True)

    log_marginal = np.log(model.marginal)
    log_cond = np.log(model.conditional)  # (S, Y)
    reward_term = np.einsum("ys,sy->y", q, log_cond)
    kl = (q * (np.log(q) - np.log(model.prior)[None, :])).sum(axis=1)
    return ElboReport(gaps=log_marginal - (reward_term - kl))


def random_latent_model(n_latent: int, n_outputs: int, rng) -> LatentTabularModel:
    prior = rng.dirichlet(np.ones(n_latent))
    conditional = rng.dirichlet(np.ones(n_outputs), size=n_latent)
    return LatentTabularModel(prior, conditional)


# ---------------------------------------------------------------------------
# presets of the simulate command


def preferred_mass_instance(mass: float) -> ConvergenceInstance:
    """Five outputs, output 0 preferred with initial mass ``mass``, gamma 0.4.

    Mass 0.1 is the worked instance, whose bound is 1280 / 9.
    """
    probs0 = np.full(5, (1.0 - mass) / 4.0)
    probs0[0] = mass
    rewards = np.zeros(5)
    rewards[0] = 1.0
    return ConvergenceInstance(probs0, rewards, rewards.copy(), gamma=0.4, y_plus=(0,))


WORKED_MASS = 0.1
SWEEP_MASSES = (0.3, 0.2, WORKED_MASS, 0.05)


def _write_series(path: Path, report, e_true, e_proxy) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t, p, a, b in zip(report.times, report.probs, e_true, e_proxy):
            rec = {"t": float(t), "pi": p.tolist(), "E_r_true": float(a), "E_r_proxy": float(b)}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _collapse_preset(sim, flow: FlowConfig, seed: int, out: Path):
    policy0 = TabularPolicy.from_probs(sim.pi0)
    report = simulate_collapse(policy0, flow, sim.mode, sim.truth_index, sim.target)
    _write_series(out / "series.jsonl", report, report.true_accuracy, report.expected_proxy)
    assertions = {
        "converged": report.converged,
        "monotone": report.monotone,
        "growth_bound": report.growth_ok,
        "final_modal_prob": float(report.modal_prob[-1]),
        "final_true_accuracy": float(report.true_accuracy[-1]),
        "modal_reward_constant_one": True,  # by construction of the majority reward
    }
    return report.converged and report.monotone and report.growth_ok, assertions


def _convergence_preset(sim, flow: FlowConfig, seed: int, out: Path):
    worked = preferred_mass_instance(WORKED_MASS)
    try:
        report = simulate_convergence(worked, flow)
    except NonConvergence as exc:
        return False, {"within_bound": False, "error": str(exc)}
    proxy = [float(p @ worked.r_proxy) for p in report.probs]
    _write_series(out / "series.jsonl", report, report.expected_true, proxy)

    # hitting time vs initial preferred mass, as a columnar text table
    sweep_ok = True
    with open(out / "sweep.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{'pi0_plus':>10} {'hit_time':>12} {'bound':>12} {'within':>8}\n")
        for mass in SWEEP_MASSES:
            instance = preferred_mass_instance(mass)
            try:
                run = report if mass == WORKED_MASS else simulate_convergence(instance, flow)
                hit, within = run.hit_time, run.within_bound
            except NonConvergence:
                hit, within = float("nan"), False
            sweep_ok = sweep_ok and within
            fh.write(f"{mass:>10.4f} {hit:>12.4f} {instance.bound:>12.4f} {str(within):>8}\n")
    assertions = {
        "hit_time": float(report.hit_time),
        "bound": float(report.bound),
        "within_bound": report.within_bound,
        "growth_bound": report.growth_ok,
        "sweep_within_bound": sweep_ok,
    }
    return report.within_bound and report.growth_ok and sweep_ok, assertions


def _elbo_preset(sim, flow: FlowConfig, seed: int, out: Path):
    model = random_latent_model(sim.n_latent, sim.n_outputs, np.random.default_rng(seed))
    prior_report = verify_elbo(model, model.prior)
    posterior_report = verify_elbo(model, model.posterior())
    assertions = {
        "prior_bound_holds": prior_report.holds,
        "posterior_tight": posterior_report.tight,
        "min_gap_prior": float(prior_report.gaps.min()),
        "max_abs_gap_posterior": float(np.abs(posterior_report.gaps).max()),
    }
    return prior_report.holds and posterior_report.tight, assertions


def _growth_preset(sim, flow: FlowConfig, seed: int, out: Path):
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        policy = TabularPolicy.from_probs(rng.dirichlet(np.ones(n)))
        rewards = rng.random(n)
        times, probs, _ = _run_flow(policy, flow, lambda p: rewards)
        p0 = probs[0]
        # t = 0 is left out: there the cap is p0 itself, so the ratio is always 1
        for t, p in zip(times[1:], probs[1:]):
            worst = max(worst, float((p / (p0 * np.exp(GROWTH_RATE * t))).max()))
        ok = ok and growth_bound_satisfied(p0, times, probs)
    return ok, {"growth_bound": ok, "worst_ratio_to_cap": worst}


def _probe_preset(sim, flow: FlowConfig, seed: int, out: Path):
    report = probe_reward_perturbations(sim.n_groups, seed)
    assertions = {
        "groups_checked": report.groups_checked,
        "violations": report.total_violations,
        **{f"violations_{k}": v for k, v in report.violations.items()},
    }
    return report.total_violations == 0, assertions


PRESETS = {
    "collapse": _collapse_preset,
    "convergence": _convergence_preset,
    "elbo": _elbo_preset,
    "growth-bound": _growth_preset,
    "robustness-probe": _probe_preset,
}


def run_preset(sim, flow: FlowConfig, seed: int, out: Path) -> tuple[bool, dict]:
    """Run the preset named by ``sim.preset``; return (passed, assertions).

    ``sim`` is a run config's ``simulate`` section. Presets that produce
    a series or a sweep table write it into ``out``.
    """
    if sim.preset not in PRESETS:
        raise ValueError(f"unknown simulate preset {sim.preset!r}")
    return PRESETS[sim.preset](sim, flow, seed, out)
