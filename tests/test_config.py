import re

import pytest
import yaml

from trajreward.config import RewardConfig, RunConfig, load_config
from trajreward.trajectory import SegmentationRules


def test_pure_python_loader_gives_equal_config(fixtures_dir, monkeypatch):
    path = str(fixtures_dir / "planted_config.yaml")
    fast = load_config(path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_config(path) == fast
    assert fast.scorer.toy["boosts"]


def test_missing_path_gives_defaults():
    assert load_config(None) == RunConfig()


def test_empty_document_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(str(path)) == RunConfig()


def test_null_section_keeps_defaults(tmp_path):
    path = tmp_path / "null.yaml"
    path.write_text("simulate:\nscorer:\n")
    assert load_config(str(path)) == RunConfig()


def test_segmentation_section_builds_rules(tmp_path):
    path = tmp_path / "seg.yaml"
    path.write_text("segmentation:\n  min_step_chars: 5\n  use_last_step_fallback: false\n")
    rules = load_config(str(path)).segmentation
    assert rules == SegmentationRules(min_step_chars=5, use_last_step_fallback=False)


def test_int_accepted_where_default_is_float(tmp_path):
    path = tmp_path / "int.yaml"
    path.write_text("reward:\n  curiosity_weight: 2\nscorer:\n  base_url: http://h:1\n")
    cfg = load_config(str(path))
    assert cfg.reward.curiosity_weight == 2
    assert cfg.scorer.base_url == "http://h:1"


def test_overrides_replace_file_values(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("workers: 2\nreward: {variant: vector, curiosity: false}\nscorer:\n")
    overrides = {"workers": 4, "reward.variant": "linear", "scorer.source": "file"}
    cfg = load_config(str(path), overrides)
    assert cfg.workers == 4
    assert cfg.reward == RewardConfig(variant="linear", curiosity=False)
    assert cfg.scorer.source == "file"
    assert load_config(None, overrides).reward == RewardConfig(variant="linear")


@pytest.mark.parametrize("workers", [1, 256])
def test_workers_range_ends_accepted(workers):
    assert load_config(None, {"workers": workers}).workers == workers


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"workers": 0}, "workers 0 is not in [1, 256]"),
        ({"workers": 257}, "workers 257 is not in [1, 256]"),
        ({"reward.variant": "foo"}, "reward.variant 'foo' is not one of linear, vector"),
    ],
)
def test_override_meets_the_file_rules(overrides, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(None, overrides)


def test_override_into_a_section_that_is_not_a_mapping(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("scorer: 0\n")
    with pytest.raises(ValueError, match="^scorer must be a mapping, not int$"):
        load_config(str(path), {"scorer.source": "toy"})


@pytest.mark.parametrize(
    "text, message",
    [
        ("scorer: [toy\n", "malformed YAML"),
        ("seed: 1\n  workers: 2\n", "malformed YAML"),
        ("- 1\n- 2\n", "must be a YAML mapping, not list"),
        ("just a string\n", "must be a YAML mapping, not str"),
        ("segmentation:\n  delimeter: x\n", "segmentation.delimeter is not a config field"),
        ("reward:\n  curiosity_config: 1\n", "reward.curiosity_config is not a config field"),
        ("simulate: 5\n", "simulate must be a mapping, not int"),
        (
            "segmentation:\n  min_step_chars: '5'\n",
            "segmentation.min_step_chars must be int, not str",
        ),
        ("reward:\n  curiosity_weight: true\n", "reward.curiosity_weight must be float, not bool"),
        ("seed: [1]\n", "seed must be int, not list"),
        ("workers: 2.0\n", "workers must be int, not float"),
        ("worker: 4\n", "worker is not a config field"),
        ("imput: x.jsonl\n", "imput is not a config field"),
        ("[]\n", "must be a YAML mapping, not list"),
        ("0\n", "must be a YAML mapping, not int"),
        ("input: [a]\n", "input must be str | None, not list"),
        ("scorer:\n  cache_path: [a]\n", "scorer.cache_path must be str | None, not list"),
        ("scorer:\n  base_url: 5\n", "scorer.base_url must be str | None, not int"),
        ("simulate: []\n", "simulate must be a mapping, not list"),
        ("scorer: 0\n", "scorer must be a mapping, not int"),
        ('reward: ""\n', "reward must be a mapping, not str"),
        ("simulate:\n  pi0: [0.5, x]\n", "simulate.pi0 must be list[float], not list"),
        ("simulate:\n  max_time: " + "9" * 400 + "\n", "simulate.max_time must be float, not int"),
        ("segmentation:\n  delimiter: '('\n", "segmentation.delimiter is not a regex"),
        ("segmentation:\n  answer_pattern: '['\n", "segmentation.answer_pattern is not a regex"),
        ("reward:\n  curiosity_denominator: x\n", "reward.curiosity_denominator 'x' is not one of"),
        ("reward:\n  variant: 1\n", "reward.variant must be str, not int"),
        ("simulate:\n  preset: x\n", "simulate.preset 'x' is not one of"),
        ("reward:\n  1: x\n", "reward.1 is not a config field"),  # a key that is not a string
    ],
)
def test_bad_config_is_one_line_value_error(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        load_config(str(path))
    assert "\n" not in str(info.value)
