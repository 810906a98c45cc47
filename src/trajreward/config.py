"""Declarative run configuration with CLI-flag overrides.

A run is reproducible from its config alone: every random choice flows
from the single seed, and the resolved config is echoed into the output
directory of each command.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .rewards import CuriosityConfig
from .trajectory import SegmentationRules


@dataclass
class ScorerConfig:
    source: str = "toy"  # toy | file | http
    cache_path: str | None = None
    base_url: str | None = None
    timeout: float = 10.0
    attempts: int = 3
    backoff: float = 0.1
    toy: dict = field(
        default_factory=lambda: {
            "vocabulary": ["a", "b", "c", "d"],
            "order": 2,
            "seed": 0,
            "init": "dirichlet",
            "boosts": [],
        }
    )


@dataclass
class RewardConfig:
    variant: str = "vector"  # linear | vector
    curiosity: bool = True
    curiosity_weight: float = 1.0
    curiosity_mode: str = "eq10"  # eq10 | alg2
    curiosity_denominator: str = "step"  # step | prefix

    def curiosity_config(self) -> CuriosityConfig:
        return CuriosityConfig(self.curiosity_mode, self.curiosity_denominator)


@dataclass
class SimulateConfig:
    preset: str = "collapse"  # collapse | convergence | elbo | growth-bound | robustness-probe
    pi0: list = field(default_factory=lambda: [0.6, 0.4])
    truth_index: int = 1
    mode: str = "exact"  # exact | sampled
    target: float = 0.99
    step_size: float = 1e-2
    max_time: float = 80.0
    integrator: str = "euler"
    kl_coefficient: float = 0.0
    sample_count: int = 16
    record_every: int = 10
    n_groups: int = 10_000
    n_latent: int = 3
    n_outputs: int = 4


@dataclass
class RunConfig:
    input: str | None = None
    out: str = "runs/out"
    seed: int = 0
    workers: int = 1
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    segmentation: SegmentationRules = field(default_factory=SegmentationRules)
    reward: RewardConfig = field(default_factory=RewardConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)

    def echo(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "resolved_config.json", "w", encoding="utf-8") as fh:
            # each section serialises as its field dict; no deep copy of the toy boosts
            json.dump(self, fh, default=vars, sort_keys=True, indent=2)
            fh.write("\n")


def _merge_section(cls, data):
    """``cls`` built from a config section, its sections built in turn.

    An unknown field, or a value of another kind than the field's default
    (an int is accepted where the default is a float; a None default
    accepts anything), is a ValueError.
    """
    data = data or {}
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} section must be a mapping, not {type(data).__name__}")
    defaults = cls()
    fields = {f.name for f in dataclasses.fields(cls)}
    values = {}
    for key, value in data.items():
        if key not in fields:
            raise ValueError(f"unknown {cls.__name__} field {key!r}")
        default = getattr(defaults, key)
        if dataclasses.is_dataclass(default):
            value = _merge_section(type(default), value)
        elif default is not None:
            kinds = (int, float) if type(default) is float else type(default)
            wrong_bool = isinstance(value, bool) and type(default) is not bool
            if wrong_bool or not isinstance(value, kinds):
                raise ValueError(
                    f"{cls.__name__} field {key!r} must be {type(default).__name__}, "
                    f"not {type(value).__name__}"
                )
        values[key] = value
    return cls(**values)


def _parse_yaml(fh, path):
    """The YAML document in ``fh``; malformed YAML is a one-line ValueError."""
    # libyaml builds the same data as the pure-Python loader, several times faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        return yaml.load(fh, Loader=loader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ValueError(f"{path}: malformed YAML: {exc.problem}{where}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: malformed YAML: {' '.join(str(exc).split())}") from exc


def load_config(path: str | None) -> RunConfig:
    """Build a RunConfig from a YAML mapping (missing path: defaults)."""
    data: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = _parse_yaml(fh, path) or {}
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a YAML mapping, not {type(data).__name__}")
    return _merge_section(RunConfig, data)


def apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """Apply explicitly-set CLI flags on top of the config file."""
    if getattr(args, "input", None) is not None:
        cfg.input = args.input
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "workers", None) is not None:
        cfg.workers = args.workers
    if getattr(args, "scorer", None) is not None:
        cfg.scorer.source = args.scorer
    if getattr(args, "variant", None) is not None:
        cfg.reward.variant = args.variant
    if getattr(args, "curiosity_mode", None) is not None:
        cfg.reward.curiosity_mode = args.curiosity_mode
    if getattr(args, "preset", None) is not None:
        cfg.simulate.preset = args.preset
    return cfg
