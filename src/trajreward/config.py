"""Declarative run configuration; CLI flags are fields of the same mapping.

A run is reproducible from its config alone: every random choice flows
from the single seed, and the resolved config is echoed into the output
directory of each command.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import get_type_hints

from .rewards import VARIANTS, CuriosityConfig
from .scoring import check_http_settings, check_toy_settings
from .simulate import PRESETS
from .trajectory import SegmentationRules, is_kind, kind_name, write_json


# each worker is one scoring thread and, for http, at most one keep-alive connection
MAX_WORKERS = 256


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

    def __post_init__(self):
        if self.source not in ("toy", "file", "http"):
            raise ValueError(f"scorer.source {self.source!r} is not one of toy, file, http")
        check_http_settings(self.attempts, self.timeout, self.backoff)
        check_toy_settings(self.toy)


@dataclass
class RewardConfig:
    variant: str = "vector"  # linear | vector
    curiosity: bool = True
    curiosity_weight: float = 1.0
    curiosity_mode: str = "eq10"  # eq10 | alg2
    curiosity_denominator: str = "step"  # step | prefix

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"reward.variant {self.variant!r} is not one of {', '.join(VARIANTS)}")
        if not isfinite(self.curiosity_weight):  # NaN or inf would make r_total non-JSON
            raise ValueError(f"reward.curiosity_weight {self.curiosity_weight} must be finite")
        try:
            self.curiosity_config()
        except ValueError as exc:
            raise ValueError(f"reward.{exc}") from exc

    def curiosity_config(self) -> CuriosityConfig:
        return CuriosityConfig(self.curiosity_mode, self.curiosity_denominator)


@dataclass
class SimulateConfig:
    preset: str = "collapse"  # collapse | convergence | elbo | growth-bound | robustness-probe
    pi0: list[float] = field(default_factory=lambda: [0.6, 0.4])
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

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"simulate.preset {self.preset!r} is not one of {', '.join(PRESETS)}")


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

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers {self.workers} is not in [1, {MAX_WORKERS}]")

    def echo(self, out_dir: Path) -> None:
        # each section serialises as its field dict; no deep copy of the toy boosts
        write_json(out_dir / "resolved_config.json", self)


def _merge_section(cls, data: dict, prefix: str = ""):
    """``cls`` built from a config section, its sections built in turn.

    An unknown field, or a value whose kind differs from the field's
    annotation (an int is accepted for a float), is a ValueError naming
    the dotted field. A section left empty (null) keeps its defaults.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{prefix.rstrip('.')} must be a mapping, not {type(data).__name__}")
    kinds = get_type_hints(cls)
    values = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if key not in kinds:
            raise ValueError(f"{name} is not a config field")
        kind = kinds[key]
        if dataclasses.is_dataclass(kind):
            value = _merge_section(kind, {} if value is None else value, name + ".")
        elif not is_kind(value, kind):
            raise ValueError(f"{name} must be {kind_name(kind)}, not {type(value).__name__}")
        values[key] = value
    return cls(**values)


def _parse_yaml(fh, path):
    """The YAML document in ``fh``; malformed YAML is a one-line ValueError."""
    import yaml  # loaded here, so a run without a config file never loads it
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


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a YAML mapping (missing path: defaults) whose
    values ``overrides`` replaces first, by dotted field (``"reward.variant"``)."""
    data = None
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = _parse_yaml(fh, path)
        if not isinstance(data, (dict, type(None))):
            raise ValueError(f"{path}: config must be a YAML mapping, not {type(data).__name__}")
    data = data or {}
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.rpartition(".")
        if section and data.get(section) is None:
            data[section] = {}
        target = data[section] if section else data
        if isinstance(target, dict):  # else the section's own kind error is reported
            target[key] = value
    return _merge_section(RunConfig, data)
