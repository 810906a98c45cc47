"""Tabular softmax policy under gradient flow.

Exact-expectation machinery for a policy with one free logit per output:
the policy-gradient and KL tangents, Euler and RK4 integration of the
flow, majority-vote collapse runs, hitting times against the
proxy-reward convergence bound, an enumeration check of the latent-state
evidence lower bound, and the ``simulate`` presets that run these checks
and write their results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from math import exp, inf, isfinite, log, nan
from operator import mul
from pathlib import Path

from .draws import draw_dirichlet, draw_index, draw_vote
from .errors import InstanceInvalid, NonConvergence
from .trajectory import write_jsonl

GROWTH_RATE = 2.0  # probability mass can grow at most like exp(2 t)


def _check_distribution(name: str, p, strict: bool = True, error=ValueError) -> None:
    """Raise ``error`` unless p's entries are > 0 (>= 0 unless ``strict``) and sum to 1."""
    if not (all(x > 0 if strict else x >= 0 for x in p) and abs(sum(p) - 1.0) <= 1e-9):
        sign = "positive" if strict else "non-negative"
        raise error(f"{name} {_floats(p)} must be {sign} and sum to 1 within 1e-9")


def softmax(logits: list[float]) -> list[float]:
    top = max(logits)
    shifted = [exp(x - top) for x in logits]
    total = sum(shifted)
    return [s / total for s in shifted]


@dataclass
class TabularPolicy:
    """Softmax distribution over a finite output set, one logit per output."""

    logits: list[float]  # any sequence of numbers; stored as a list of floats

    def __post_init__(self):
        self.logits = _floats(self.logits)

    @classmethod
    def from_probs(cls, pi0) -> "TabularPolicy":
        _check_distribution("pi0", pi0)
        total = sum(pi0)
        return cls([log(p / total) for p in pi0])

    @property
    def probs(self) -> list[float]:
        return softmax(self.logits)


def _floats(values) -> list[float]:
    return [float(x) for x in values]


def _log(x: float) -> float:
    return -inf if x == 0 else log(x)  # log 0 = -inf, not a ValueError


def _expectation(p: list[float], f: list[float]) -> float:
    """E_p[f], summed in output order."""
    return sum(map(mul, p, f))


def _tangent(p: list[float], f: list[float]) -> list[float]:
    """Logit gradient of E_p[f] for a fixed f; components sum to zero."""
    mean = _expectation(p, f)
    return [a * (b - mean) for a, b in zip(p, f)]


def _kl_tangent(p: list[float], ref_log_probs: list[float]) -> list[float]:
    return _tangent(p, [log(a) - b for a, b in zip(p, ref_log_probs)])


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
        if not self.step_size > 0:  # NaN fails too
            raise ValueError(f"step_size {self.step_size} must be positive")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError(f"integrator {self.integrator!r} is not 'euler' or 'rk4'")
        if not (isfinite(self.kl_coefficient) and self.kl_coefficient >= 0):
            raise ValueError(f"kl_coefficient {self.kl_coefficient} must be finite and >= 0")
        if self.record_every < 1:
            raise ValueError(f"record_every {self.record_every} must be >= 1")


def flow_step(
    logits: list[float],
    probs: list[float],
    rewards: list[float],
    config: FlowConfig,
    ref_log_probs: list[float] | None = None,
) -> tuple[list[float], list[float]]:
    """Advance the logits one step along d theta / dt = grad J (- lam grad KL).

    ``probs`` is softmax(logits). Returns the new logits and their softmax.
    """
    h = config.step_size
    lam = config.kl_coefficient
    with_kl = lam > 0.0 and ref_log_probs is not None

    def f(p):
        grad = _tangent(p, rewards)
        if with_kl:
            if not all(a > 0.0 for a in p):  # log p of the KL term needs every p > 0
                raise ValueError(
                    f"kl_coefficient {lam} is too stiff for step_size {h}: a probability fell to 0"
                )
            grad = [g - lam * k for g, k in zip(grad, _kl_tangent(p, ref_log_probs))]
        return grad

    if config.integrator == "euler":
        new = [t + h * k for t, k in zip(logits, f(probs))]
    else:
        half = 0.5 * h
        k1 = f(probs)
        k2 = f(softmax([t + half * k for t, k in zip(logits, k1)]))
        k3 = f(softmax([t + half * k for t, k in zip(logits, k2)]))
        k4 = f(softmax([t + h * k for t, k in zip(logits, k3)]))
        sixth = h / 6.0
        new = [
            t + sixth * (a + 2.0 * b + 2.0 * c + d)
            for t, a, b, c, d in zip(logits, k1, k2, k3, k4)
        ]
    return new, softmax(new)


def _run_flow(logits, config: FlowConfig, rewards_at, stop=None):
    """Integrate the flow from ``logits`` with the KL reference at log pi_0.

    Runs round(max_time / step_size) steps; ``rewards_at(p)`` is the
    reward list at the probability list p, and the run ends at the first
    step after t = 0 whose probabilities satisfy ``stop(p)``. Returns
    lists (times, probs, rewards) at the checkpoints: t = 0, every
    ``record_every``-th step, the last step and a stopping step.
    """
    steps = config.max_time / config.step_size
    if not (isfinite(steps) and round(steps) >= 1):
        raise ValueError(
            f"max_time {config.max_time} must span a finite number of steps, "
            f"at least one, of step_size {config.step_size}"
        )
    steps = round(steps)
    logits = _floats(logits)
    p = softmax(logits)
    ref_log_probs = [log(a) for a in p]
    r = rewards_at(p)
    checkpoints = [(0.0, p, r)]
    for step in range(1, steps + 1):
        logits, p = flow_step(logits, p, r, config, ref_log_probs)
        r = rewards_at(p)
        stopped = stop is not None and stop(p)
        if stopped or step % config.record_every == 0 or step == steps:
            checkpoints.append((step * config.step_size, p, r))
        if stopped:
            break
    return [list(column) for column in zip(*checkpoints)]


def _growth_caps(p0: list[float], t) -> list[float]:
    """The caps pi_0(y) * exp(2 t) on the probabilities at time t."""
    try:
        growth = exp(GROWTH_RATE * float(t))
    except OverflowError:  # a cap past the float range is inf, never exceeded
        growth = float("inf")
    return [b * growth for b in p0]


def growth_bound_satisfied(probs0, times, probs_series, rtol: float = 1e-9) -> bool:
    """Every checkpoint obeys pi_t(y) <= pi_0(y) * exp(2 t), up to rtol."""
    p0 = _floats(probs0)
    for t, p in zip(times, probs_series):
        if any(a > cap * (1.0 + rtol) for a, cap in zip(p, _growth_caps(p0, t))):
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

    times: list[float]
    probs: list[list[float]]  # checkpoints x outputs
    y_star: list[int]
    modal_prob: list[float]
    true_accuracy: list[float]
    expected_proxy: list[float]
    target: float
    converged: bool
    monotone: bool
    growth_ok: bool


def simulate_collapse(
    pi0: TabularPolicy,
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
    n = len(pi0.logits)
    if n < 2:
        raise ValueError(f"pi0 has {n} output(s); collapse needs at least two")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode {mode!r} is not 'exact' or 'sampled'")
    if truth_index is not None and not 0 <= truth_index < n:
        raise ValueError(f"truth_index {truth_index} is not one of the {n} outputs")
    if not 0.0 < target < 1.0:  # a softmax policy reaches neither bound; NaN fails too
        raise ValueError(f"target {target} must lie in (0, 1)")
    if mode == "sampled" and config.sample_count < 1:
        raise ValueError(f"sample_count {config.sample_count} must be >= 1 when sampled")
    rng = random.Random(config.seed)

    def majority_reward(p):
        if mode == "exact":
            star = p.index(max(p))
        else:
            star = draw_vote(rng, p, config.sample_count)
        rewards = [0.0] * len(p)
        rewards[star] = 1.0
        return rewards

    times, probs, rewards = _run_flow(pi0.logits, config, majority_reward)
    stars = [r.index(1.0) for r in rewards]
    modal = [p[star] for p, star in zip(probs, stars)]
    truth = truth_index if truth_index is not None else stars[0]
    return CollapseReport(
        times=times,
        probs=probs,
        y_star=stars,
        modal_prob=modal,
        true_accuracy=[p[truth] for p in probs],
        expected_proxy=modal,  # E_pi[1{y = y*}] = pi(y*)
        target=target,
        converged=modal[-1] >= target,
        monotone=mode == "sampled" or all(a <= b for a, b in zip(modal, modal[1:])),
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

    probs0: list[float]  # any sequence of numbers; stored as a list of floats
    r_true: list[float]
    r_proxy: list[float]
    gamma: float
    y_plus: tuple[int, ...]

    def __post_init__(self):
        self.probs0 = _floats(self.probs0)
        self.r_true = _floats(self.r_true)
        self.r_proxy = _floats(self.r_proxy)
        self.y_plus = tuple(int(y) for y in self.y_plus)

    @property
    def initial_true(self) -> float:
        return _expectation(self.probs0, self.r_true)

    @property
    def initial_proxy(self) -> float:
        return _expectation(self.probs0, self.r_proxy)

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
        mass_plus = sum(self.probs0[y] for y in self.y_plus)
        return (
            4.0
            * len(self.y_plus)
            / ((1.0 - self.rho) * self.sigma)
            * (1.0 / mass_plus - 1.0 / self.rho)
        )

    def validate(self) -> None:
        # every check is written so that NaN fails it
        p0 = self.probs0
        _check_distribution("probs0", p0, error=InstanceInvalid)
        if not (isfinite(self.gamma) and self.gamma >= 0):
            raise InstanceInvalid("gamma must be finite and >= 0")
        y_plus, n = self.y_plus, len(p0)
        if not (y_plus and len(set(y_plus)) == len(y_plus) and all(0 <= y < n for y in y_plus)):
            raise InstanceInvalid("the preferred set must name one or more distinct outputs")
        rewards = self.r_true + self.r_proxy
        if len(self.r_proxy) != n or not all(0.0 <= r <= 1.0 for r in rewards):
            raise InstanceInvalid("rewards must hold one value in [0, 1] per output")
        if self.r_true != [float(y in y_plus) for y in range(n)]:
            raise InstanceInvalid("true reward must be the indicator of the preferred set")
        if not all(self.r_proxy[y] == 1.0 for y in y_plus):
            raise InstanceInvalid("proxy reward must be 1 on the preferred set")
        if self.gamma > 0 and not (0.0 < self.rho < 1.0):
            raise InstanceInvalid(f"rho = {self.rho} outside (0, 1)")
        if self.gamma > 0:
            if self.sigma <= 0:
                raise InstanceInvalid("sigma must be positive")
            e0 = self.initial_proxy
            if not all(self.r_proxy[y] > e0 for y in y_plus):
                raise InstanceInvalid("preferred outputs must beat the initial proxy mean")
            mass_plus = sum(p0[y] for y in y_plus)
            mass_minus = sum(p0[y] for y in self.y_minus)
            cap = (
                self.sigma
                * (1.0 - self.rho)
                * mass_plus**2
                / (4.0 * len(y_plus))
                * exp(-GROWTH_RATE * self.bound)
            )
            if mass_minus > cap:
                raise InstanceInvalid(
                    f"over-rewarded non-preferred mass {mass_minus} exceeds {cap}"
                )


@dataclass
class ConvergenceReport:
    hit_time: float
    bound: float
    times: list[float]
    expected_true: list[float]
    probs: list[list[float]]  # checkpoints x outputs
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
    rho, r_true, r_proxy = instance.rho, instance.r_true, instance.r_proxy
    total = sum(instance.probs0)
    logits = [log(p / total) for p in instance.probs0]
    if instance.gamma == 0.0:
        times, probs = [0.0], [softmax(logits)]
    else:
        # stops at the first discrete time at/above target: an upper bound
        # on the true hitting time, which is what the bound check needs
        reached = lambda p: _expectation(p, r_true) >= rho  # noqa: E731
        times, probs, _ = _run_flow(logits, config, lambda p: r_proxy, reached)
    # the stop test's sum on the same floats, so a hit is never reported missed
    expected = [_expectation(p, r_true) for p in probs]
    if instance.gamma > 0.0 and not expected[-1] >= rho:
        raise NonConvergence(
            f"target {rho} not reached by t = {config.max_time} "
            f"(final expected true reward {expected[-1]})"
        )
    return ConvergenceReport(
        hit_time=times[-1],
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

    prior: list[float]  # S entries; any sequence of numbers, stored as a list of floats
    conditional: list[list[float]]  # S x Y, rows sum to 1

    def __post_init__(self):
        self.prior = _floats(self.prior)
        self.conditional = [_floats(row) for row in self.conditional]
        _check_distribution("prior", self.prior)
        if len(self.conditional) != len(self.prior) or len(set(map(len, self.conditional))) != 1:
            raise ValueError("conditional must hold one row per latent state, all of one length")
        for row in self.conditional:
            _check_distribution("conditional row", row, strict=False)

    @property
    def marginal(self) -> list[float]:
        """Exact output marginal by enumerating latent states."""
        return [_expectation(self.prior, column) for column in zip(*self.conditional)]

    def posterior(self) -> list[list[float]]:
        """Y x S posterior over latent states for each output; NaN where p(y) = 0."""
        columns = zip(zip(*self.conditional), self.marginal)
        return [[a * b / p_y if p_y else nan for a, b in zip(self.prior, c)] for c, p_y in columns]


@dataclass
class ElboReport:
    """Per-output gap log p(y) - ELBO(q, y); the bound holds when gaps >= 0."""

    gaps: list[float]
    tol: float = 1e-9

    @property
    def holds(self) -> bool:
        return all(g >= -self.tol for g in self.gaps)

    @property
    def tight(self) -> bool:
        return all(abs(g) <= self.tol for g in self.gaps)


def verify_elbo(model: LatentTabularModel, q) -> ElboReport:
    """Evaluate the latent-state evidence lower bound for each output.

    ``q`` is a distribution over latent states: one row of S entries shared by
    every output, or one row per output (Y x S). The reward term is log p(y | s):

        log p(y) >= E_q[log p(y | s)] - KL(q || prior).
    """
    n_latent, n_out = len(model.prior), len(model.conditional[0])
    shared = not (len(q) and hasattr(q[0], "__len__"))  # one row of numbers for every output
    rows = [_floats(q)] * n_out if shared else [_floats(row) for row in q]
    if len(rows) != n_out or any(len(row) != n_latent for row in rows):
        raise ValueError(f"q must have shape ({n_out}, {n_latent})")
    if not all(0.0 < x < inf for row in rows for x in row):  # NaN fails too
        raise ValueError("q must be finite and strictly positive")
    gaps = []
    for y, (row, p_y) in enumerate(zip(rows, model.marginal)):
        total = sum(row)
        q_y = [a / total for a in row]
        # a zero p(y | s) makes the reward term -inf and the gap inf: held, not tight
        reward_term = sum(a * _log(c[y]) for a, c in zip(q_y, model.conditional))
        kl = sum(a * (_log(a) - log(b)) for a, b in zip(q_y, model.prior))
        gaps.append(_log(p_y) - (reward_term - kl))
    return ElboReport(gaps=gaps)


def random_latent_model(n_latent: int, n_outputs: int, rng: random.Random) -> LatentTabularModel:
    for name, n in (("n_latent", n_latent), ("n_outputs", n_outputs)):
        if n < 1:
            raise ValueError(f"{name} {n} must be >= 1")
    prior = draw_dirichlet(rng, n_latent)
    conditional = [draw_dirichlet(rng, n_outputs) for _ in range(n_latent)]
    return LatentTabularModel(prior, conditional)


# ---------------------------------------------------------------------------
# presets of the simulate command


def preferred_mass_instance(mass: float) -> ConvergenceInstance:
    """Five outputs, output 0 preferred with initial mass ``mass``, gamma 0.4.

    Mass 0.1 is the worked instance, whose bound is 1280 / 9.
    """
    rewards = [1.0, 0.0, 0.0, 0.0, 0.0]
    probs0 = [mass] + [(1.0 - mass) / 4.0] * 4
    return ConvergenceInstance(probs0, rewards, list(rewards), gamma=0.4, y_plus=(0,))


WORKED_MASS = 0.1
SWEEP_MASSES = (0.3, 0.2, WORKED_MASS, 0.05)


def _write_series(path: Path, report, e_true, e_proxy) -> None:
    rows = zip(report.times, report.probs, e_true, e_proxy)
    write_jsonl(path, (dict(zip(("t", "pi", "E_r_true", "E_r_proxy"), row)) for row in rows))


def _collapse_preset(sim, flow: FlowConfig, out: Path):
    pi0 = TabularPolicy.from_probs(sim.pi0)
    report = simulate_collapse(pi0, flow, sim.mode, sim.truth_index, sim.target)
    _write_series(out / "series.jsonl", report, report.true_accuracy, report.expected_proxy)
    assertions = {
        "converged": report.converged,
        "monotone": report.monotone,
        "growth_bound": report.growth_ok,
        "final_modal_prob": report.modal_prob[-1],
        "final_true_accuracy": report.true_accuracy[-1],
        "modal_reward_constant_one": True,  # by construction of the majority reward
    }
    return report.converged and report.monotone and report.growth_ok, assertions


def _convergence_preset(sim, flow: FlowConfig, out: Path):
    worked = preferred_mass_instance(WORKED_MASS)
    try:
        report = simulate_convergence(worked, flow)
    except NonConvergence as exc:
        return False, {"within_bound": False, "error": str(exc)}
    proxy = [_expectation(p, worked.r_proxy) for p in report.probs]
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
        "hit_time": report.hit_time,
        "bound": report.bound,
        "within_bound": report.within_bound,
        "growth_bound": report.growth_ok,
        "sweep_within_bound": sweep_ok,
    }
    return report.within_bound and report.growth_ok and sweep_ok, assertions


def _elbo_preset(sim, flow: FlowConfig, out: Path):
    model = random_latent_model(sim.n_latent, sim.n_outputs, random.Random(flow.seed))
    prior_report = verify_elbo(model, model.prior)
    posterior_report = verify_elbo(model, model.posterior())
    assertions = {
        "prior_bound_holds": prior_report.holds,
        "posterior_tight": posterior_report.tight,
        "min_gap_prior": min(prior_report.gaps),
        "max_abs_gap_posterior": max(map(abs, posterior_report.gaps)),
    }
    return prior_report.holds and posterior_report.tight, assertions


def _growth_preset(sim, flow: FlowConfig, out: Path):
    rng = random.Random(flow.seed)
    ok = True
    worst = 0.0
    for _ in range(5):
        n = 2 + draw_index(rng, 4)
        pi0 = draw_dirichlet(rng, n)
        rewards = [rng.random() for _ in range(n)]
        times, probs, _ = _run_flow([log(p) for p in pi0], flow, lambda p: rewards)
        p0 = probs[0]
        # t = 0 is left out: there the cap is p0 itself, so the ratio is always 1
        for t, p in zip(times[1:], probs[1:]):
            worst = max(worst, *(a / cap for a, cap in zip(p, _growth_caps(p0, t))))
        ok = ok and growth_bound_satisfied(p0, times, probs)
    return ok, {"growth_bound": ok, "worst_ratio_to_cap": worst}


def _probe_preset(sim, flow: FlowConfig, out: Path):
    from .probes import probe_reward_perturbations
    report = probe_reward_perturbations(sim.n_groups, flow.seed)
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


def run_preset(sim, seed: int, out: Path) -> tuple[bool, dict]:
    """Run the preset named by ``sim.preset``; return (passed, assertions).

    ``sim`` is a run config's ``simulate`` section, whose ``preset`` was
    checked when the section was built; presets that produce a
    series or a sweep table write it into ``out``. A setting that would make
    a verdict vacuous is rejected by the function that takes it, with a
    ValueError that begins with the field's name; here it gains the prefix
    ``simulate.``. So a failed assertion always means a failed check.
    """
    try:
        settings = {f.name: getattr(sim, f.name) for f in fields(FlowConfig) if f.name != "seed"}
        return PRESETS[sim.preset](sim, FlowConfig(**settings, seed=seed), out)
    except ValueError as exc:
        raise ValueError(f"simulate.{exc}") from exc
