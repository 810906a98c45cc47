import pytest
import yaml

from trajreward.config import RunConfig, load_config
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("scorer: [toy\n", "malformed YAML"),
        ("seed: 1\n  workers: 2\n", "malformed YAML"),
        ("- 1\n- 2\n", "must be a YAML mapping, not list"),
        ("just a string\n", "must be a YAML mapping, not str"),
        ("segmentation:\n  delimeter: x\n", "unknown SegmentationRules field 'delimeter'"),
        ("reward:\n  curiosity_config: 1\n", "unknown RewardConfig field 'curiosity_config'"),
        ("simulate: 5\n", "SimulateConfig section must be a mapping, not int"),
        (
            "segmentation:\n  min_step_chars: '5'\n",
            "SegmentationRules field 'min_step_chars' must be int, not str",
        ),
        ("reward:\n  curiosity_weight: true\n", "field 'curiosity_weight' must be float, not bool"),
        ("seed: [1]\n", "RunConfig field 'seed' must be int, not list"),
        ("workers: 2.0\n", "RunConfig field 'workers' must be int, not float"),
        ("worker: 4\n", "unknown RunConfig field 'worker'"),
        ("imput: x.jsonl\n", "unknown RunConfig field 'imput'"),
    ],
)
def test_bad_config_is_one_line_value_error(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        load_config(str(path))
    assert "\n" not in str(info.value)
