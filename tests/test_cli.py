import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest
import yaml
from hypothesis import given, settings, strategies as st
from planted import PlantedSpec, planted_model, planted_records, toy_config

from trajreward.cli import main
from trajreward.distance import plan_requests
from trajreward.errors import CacheMiss
from trajreward.scoring import FileCacheScorer, HttpScorer, ToyModel
from trajreward.trajectory import SegmentationRules, is_kind, load_prompt_batches


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


@pytest.fixture
def planted_setup(tmp_path):
    spec = PlantedSpec()
    batch_path = tmp_path / "batch.jsonl"
    write_jsonl(batch_path, planted_records(spec))
    cfg = {
        "input": str(batch_path),
        "seed": 0,
        "workers": 1,
        "scorer": {"source": "toy", "toy": toy_config(planted_model(spec))},
        "reward": {"variant": "vector", "curiosity": True},
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    return cfg_path, tmp_path


GOOD_TRAJECTORY = {
    "prompt_id": "p", "traj_id": "t0", "prompt_text": "q\n\n", "response_text": "a b\n\nAnswer: 7"
}
# a minimal line that each reader accepts
GOOD_LINES = {
    "trajectory": GOOD_TRAJECTORY,
    "rewards": {"traj_id": "t0", "con": 1.0, "vol": 0.0, "r_cur": 0.0},
    "matrices": {"traj_id": "t0", "T": 1, "K": 2, "rows": [[0.5, 1.0]], "answer_order": ["7", "8"]},
    "cache": {"key": "k", "token_logprobs": [-1.0]},
}


def first_miss(cache, plan):
    """Position of the first request in ``plan`` that ``cache`` cannot score."""
    for i, request in enumerate(plan):
        try:
            cache.score(request)
        except CacheMiss:
            return i
    return None


def read_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture
def scorer_calls(monkeypatch):
    """Every score call of every scorer, and every thread pool opened."""
    calls = []
    for cls in (ToyModel, FileCacheScorer, HttpScorer):
        for name in ("score", "score_prefix"):
            def counted(self, *request, real=getattr(cls, name)):
                calls.append(request)
                return real(self, *request)
            monkeypatch.setattr(cls, name, counted)
    # score_batch imports the pool class when it opens one, so this records every pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda **kw: calls.append(kw))
    return calls


PRESETS = ["collapse", "convergence", "elbo", "growth-bound", "robustness-probe"]


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert main(["reward", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]) == 2

    def test_malformed_record(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"prompt_id": "p"}\n')
        assert main(["reward", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_json_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["segment", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_cache_miss_is_scorer_error(self, planted_setup, tmp_path):
        cfg_path, base = planted_setup
        cfg = yaml.safe_load(cfg_path.read_text())
        empty_cache = base / "empty_cache.jsonl"
        empty_cache.write_text("")
        cfg["scorer"] = {"source": "file", "cache_path": str(empty_cache)}
        cfg_file = base / "file_cfg.yaml"
        cfg_file.write_text(yaml.safe_dump(cfg))
        out = base / "o"
        assert main(["reward", "--config", str(cfg_file), "--out", str(out)]) == 3
        errors = read_lines(out / "errors.jsonl")
        assert errors and errors[0]["error"] == "CacheMiss"
        # an empty cache misses on the plan's first request
        assert errors[0]["request_index"] == 0

    def test_partial_failure_keeps_good_batches(self, planted_setup, tmp_path):
        cfg_path, base = planted_setup
        cfg = yaml.safe_load(cfg_path.read_text())
        # second prompt's scores are missing from the cache built for the first
        assert main(["score", "--config", str(cfg_path), "--out", str(base / "cache")]) == 0
        records = read_lines(cfg["input"])
        # the cache is content-addressed, so p1 needs text the cache has not seen:
        # its steps are new, while its bare-prompt cells are p0's
        extra = [
            dict(
                rec,
                prompt_id="p1",
                traj_id=f"x{i}",
                response_text=rec["response_text"].replace("x", "y"),
            )
            for i, rec in enumerate(records[:3])
        ]
        two_prompts = base / "two_prompts.jsonl"
        write_jsonl(two_prompts, records + extra)
        cfg["input"] = str(two_prompts)
        cfg["scorer"] = {"source": "file", "cache_path": str(base / "cache" / "cache.jsonl")}
        cfg_file = base / "partial.yaml"
        cfg_file.write_text(yaml.safe_dump(cfg))
        out = base / "partial_out"
        assert main(["reward", "--config", str(cfg_file), "--out", str(out)]) == 3
        rewarded = read_lines(out / "rewards.jsonl")
        assert {r["prompt_id"] for r in rewarded} == {"p0"}
        failures = read_lines(out / "errors.jsonl")
        assert [f["prompt_id"] for f in failures] == ["p1"]
        # the first request of p1's plan that the cache lacks, past the cached prompt cells
        cache = FileCacheScorer.load(base / "cache" / "cache.jsonl")
        p1 = load_prompt_batches(two_prompts, SegmentationRules())[1]
        miss = first_miss(cache, plan_requests(p1, steps=True))
        assert failures[0]["request_index"] == miss > 0

    def test_identical_content_served_from_cache(self, planted_setup, tmp_path):
        cfg_path, base = planted_setup
        cfg = yaml.safe_load(cfg_path.read_text())
        assert main(["score", "--config", str(cfg_path), "--out", str(base / "cache")]) == 0
        records = read_lines(cfg["input"])
        # same prompt and responses under new ids: every request is already cached
        extra = [
            dict(rec, prompt_id="p1", traj_id=f"x{i}") for i, rec in enumerate(records[:3])
        ]
        two_prompts = base / "two_prompts.jsonl"
        write_jsonl(two_prompts, records + extra)
        cfg["input"] = str(two_prompts)
        cfg["scorer"] = {"source": "file", "cache_path": str(base / "cache" / "cache.jsonl")}
        cfg_file = base / "same_content.yaml"
        cfg_file.write_text(yaml.safe_dump(cfg))
        out = base / "same_content_out"
        assert main(["reward", "--config", str(cfg_file), "--out", str(out)]) == 0
        rewarded = read_lines(out / "rewards.jsonl")
        assert [r["prompt_id"] for r in rewarded] == ["p0"] * len(records) + ["p1"] * 3

    @pytest.mark.parametrize("line", ["[1]", '{"key": "k"}'])
    def test_malformed_cache_line_is_input_error(self, planted_setup, capsys, line):
        cfg_path, base = planted_setup
        cfg = yaml.safe_load(cfg_path.read_text())
        cache = base / "bad_cache.jsonl"
        cache.write_text(line + "\n")
        cfg["scorer"] = {"source": "file", "cache_path": str(cache)}
        cfg_file = base / "bad_cache.yaml"
        cfg_file.write_text(yaml.safe_dump(cfg))
        capsys.readouterr()
        assert main(["reward", "--config", str(cfg_file), "--out", str(base / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{cache}:1:" in err

    def test_bound_violation_exit(self, tmp_path):
        # a horizon too short for the collapse target is a failed assertion
        cfg = {
            "simulate": {
                "preset": "collapse",
                "pi0": [0.6, 0.4],
                "max_time": 0.5,
                "step_size": 0.01,
                "integrator": "euler",
            }
        }
        cfg_path = tmp_path / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 5

    @pytest.mark.parametrize(
        "sim, field",
        [
            ({"pi0": [float("nan"), 0.5]}, "simulate.pi0"),
            ({"pi0": [float("inf"), 0.5]}, "simulate.pi0"),
            ({"pi0": [0.5, 0.7]}, "simulate.pi0"),  # no silent renormalization
            ({"preset": "growth-bound", "max_time": -1.0}, "simulate.max_time"),
            ({"preset": "growth-bound", "max_time": 0.001}, "simulate.max_time"),  # zero steps
            ({"preset": "convergence", "max_time": float("inf")}, "simulate.max_time"),
            ({"mode": "sampled", "sample_count": 0}, "simulate.sample_count"),
            ({"mode": "sampled", "sample_count": -3}, "simulate.sample_count"),
            ({"preset": "robustness-probe", "n_groups": 0}, "simulate.n_groups"),
            ({"kl_coefficient": float("nan")}, "simulate.kl_coefficient"),
            ({"step_size": float("nan")}, "simulate.step_size"),
            # a softmax policy never reaches 1 and always exceeds 0
            ({"target": float("nan")}, "simulate.target"),
            ({"target": 0.0}, "simulate.target"),
            ({"target": 1.5}, "simulate.target"),
            ({"preset": "elbo", "n_latent": 0}, "simulate.n_latent"),
            ({"preset": "elbo", "n_outputs": 0}, "simulate.n_outputs"),
            # a KL term stiff enough to push a probability to exactly 0
            (
                {"kl_coefficient": 1.0e10, "step_size": 1.0, "max_time": 10.0},
                "simulate.kl_coefficient",
            ),
        ],
    )
    def test_vacuous_simulate_setting_is_one_line_input_error(self, tmp_path, capsys, sim, field):
        cfg_path = tmp_path / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump({"simulate": sim}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and err.count("\n") == 1

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump({"simulate": {"preset": "mystery"}}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        from_file = capsys.readouterr().err
        assert main(["simulate", "--preset", "mystery", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == from_file
        assert from_file.startswith("error: bad config: simulate.preset 'mystery' ")
        assert not (tmp_path / "o").exists()  # rejected at load

    @pytest.mark.parametrize(
        "command, field, value, flags",
        [
            ("reward", "seed", -1, ["--seed", "-1"]),
            ("reward", "workers", 0, ["--workers", "0"]),
            ("reward", "workers", 257, ["--workers", "257"]),
            ("reward", "reward.variant", "foo", ["--variant", "foo"]),
            ("reward", "reward.curiosity_mode", "foo", ["--curiosity-mode", "foo"]),
            ("reward", "reward.curiosity_denominator", "foo", None),
            ("reward", "scorer.source", "tyo", ["--scorer", "tyo"]),
            *((f"simulate {preset}", "seed", -1, ["--seed", "-1"]) for preset in PRESETS),
        ],
    )
    def test_bad_setting_fails_alike_from_flag_and_file(
        self, fixtures_dir, tmp_path, capsys, scorer_calls, command, field, value, flags
    ):
        command, *preset = command.split()

        def run(cfg, argv):
            cfg_path = tmp_path / "c.yaml"
            cfg_path.write_text(yaml.safe_dump(cfg))
            code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), *argv])
            return code, capsys.readouterr().err

        def base():
            if preset:
                return {"simulate": {"preset": preset[0]}}
            cfg = yaml.safe_load((fixtures_dir / "planted_config.yaml").read_text())
            return dict(cfg, input=str(fixtures_dir / "planted_batch.jsonl"))

        in_file = base()
        section, _, key = field.rpartition(".")
        (in_file[section] if section else in_file)[key] = value
        results = [run(in_file, [])] + ([run(base(), flags)] if flags else [])
        for code, err in results:
            assert code == 2
            assert err.startswith(f"error: bad config: {field} {value!r} ")
            assert err.count("\n") == 1
        assert len({err for _, err in results}) == 1
        # rejected at load: nothing scored, no thread pool, no output directory
        assert scorer_calls == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "scorer: {source: toy\n",  # malformed YAML
            "- reward\n- simulate\n",  # a document that is not a mapping
            "segmentation:\n  min_chars: 3\n",  # unknown segmentation key
            "seed: [1]\n",  # a top-level value of the wrong kind
            "worker: 4\n",  # unknown top-level key
            "input: [a]\n",  # a None default does not accept any kind
            "simulate: []\n",  # a falsy section of the wrong kind
            "scorer: 0\n",
            'reward: ""\n',
            "segmentation:\n  delimiter: '('\n",  # not a regex
            "reward: {curiosity_weight: .nan}\n",  # r_total would not be JSON
            "reward: {curiosity_weight: .inf}\n",
        ],
    )
    def test_bad_config_is_one_line_input_error(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(text)
        assert main(["segment", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("simulate", "simulate: {record_every: 0}\n", "simulate.record_every 0 must be >= 1"),
            (
                "simulate",
                "simulate: {truth_index: 5}\n",
                "simulate.truth_index 5 is not one of the 2",
            ),
            (
                "reward",
                "scorer: {toy: {}}\n",
                "bad config: scorer.toy: missing fields ['vocabulary']",
            ),
            (
                "reward",
                "scorer: {toy: {vocabulary: [a], order: 0}}\n",
                "bad config: scorer.toy: order must be >= 1",
            ),
            (
                "reward",
                "scorer: {toy: {vocabulary: [a], boosts: [{context: [a], delta: 1}]}}\n",
                "bad config: scorer.toy: missing fields ['token']",
            ),
            ("reward", "scorer: {source: tyo}\n", "bad config: scorer.source 'tyo' "),
            (
                "reward",
                "scorer: {toy: {vocabulary: [a], boost: [{context: [a], token: a, delta: 1}]}}\n",
                "bad config: scorer.toy: unknown field 'boost'",
            ),
            (
                "reward",
                "scorer: {toy: {vocabulary: [a], boosts: [{context: [a], tok: a, delta: 1}]}}\n",
                "bad config: scorer.toy: unknown field 'tok'",
            ),
            # HttpScorer settings are checked as the config loads
            ("reward", "scorer: {source: http, attempts: 0}\n", "bad config: scorer.attempts 0 "),
            ("reward", "scorer: {source: http, backoff: -1}\n", "bad config: scorer.backoff -1 "),
            ("reward", "scorer: {source: http, timeout: -1}\n", "bad config: scorer.timeout -1 "),
            (
                "reward",
                "scorer: {source: http, timeout: .nan}\n",
                "bad config: scorer.timeout nan ",
            ),
            # finite, but the total reward overflows to inf
            (
                "reward",
                "reward: {curiosity_weight: 1.7e+308}\n",
                "reward.curiosity_weight 1.7e+308 ",
            ),
        ],
    )
    def test_bad_config_value_is_one_line_input_error(
        self, tmp_path, capsys, command, text, message
    ):
        # values of the right kind that the code owning them rejects
        trajectories = tmp_path / "in.jsonl"
        write_jsonl(trajectories, [GOOD_TRAJECTORY])
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(text)
        argv = [command, "--config", str(cfg_path), "--input", str(trajectories)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        if message.startswith("bad config: "):  # rejected before the output directory is made
            assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("segment", "[1, 2]", "not a JSON object but list"),
            ("reward", '"text"', "not a JSON object but str"),
            ("analyze-input", '{"traj_id": "t9"}', "missing fields ['response_text']"),
            ("analyze-rewards", '{"traj_id": "t1", "vol": 0.5, "r_cur": 0.0}', "['con']"),
            ("analyze-rewards", "[1]", "not a JSON object but list"),
            (
                "segment",
                '{"prompt_id": "p", "traj_id": "t1", "prompt_text": "q", "response_text": 5}',
                "field 'response_text' must be str, not int",
            ),
            (
                "reward",
                '{"prompt_id": "p", "traj_id": "t1", "prompt_text": "q", "response_text": " "}',
                "empty response for traj 't1'",
            ),
            (
                "analyze-rewards",
                '{"traj_id": "t1", "con": "x", "vol": 0.5, "r_cur": 0.0}',
                "field 'con' must be float, not str",
            ),
            (
                "analyze-rewards",
                '{"traj_id": "t1", "con": 0.5, "vol": NaN, "r_cur": 0.0}',
                "vol nan is outside [0, 1]",
            ),
            (
                "analyze-rewards",
                '{"traj_id": "t1", "con": 0.5, "vol": 0.5, "r_cur": NaN}',
                "r_cur nan is not finite",
            ),
            (
                "analyze-rewards",
                '{"traj_id": "t1", "con": 0.5, "vol": 0.5, "r_cur": -Infinity}',
                "r_cur -inf is not finite",
            ),
            (
                "analyze-rewards",
                '{"traj_id": "t1", "con": 0.5, "vol": 0.5, "r_cur": 0.0, "advantage": NaN}',
                "advantage nan is not finite",
            ),
            (
                "analyze-rewards",
                '{"traj_id": "t1", "con": 0.5, "vol": 0.5, "r_cur": 0.0, "group": "x"}',
                "field 'group' must be int, not str",
            ),
            ("analyze-matrices", '{"traj_id": "t1", "answer_order": []}', "missing fields ['rows']"),
            (
                "analyze-rewards",
                '{"traj_id": "t1", "con": 0.5, "vol": 0.5, "r_cur": 0.0, "rank": 1}',
                "unknown field 'rank'",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["7", "8"], "rows": [[1.0, 2.0]], "T": 1, '
                '"K": 2, "steps": []}',
                "unknown field 'steps'",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["x"], "rows": [[1.0, 2.0]], "T": 5, "K": 9}',
                "must match the 1 x 2 rows",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["7", "8"], "rows": [[1.0, 2.0]], "T": 2}',
                "must match the 1 x 2 rows",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["7", "8"], "rows": [[1.0, 2.0]], "K": 3}',
                "must match the 1 x 2 rows",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["7", "8", "9"], "rows": [[1.0, 2.0]]}',
                "must match the 1 x 2 rows",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["7", "8"], "rows": [[1.0, 2.0], [3.0]]}',
                "rows must be a non-empty rectangular table",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["7", "8", "9"], "rows": [[1.0, 2.0, NaN]]}',
                "every distance must be finite and >= 0",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["7", "8"], "rows": [[-0.5, 1.0]]}',
                "every distance must be finite and >= 0",
            ),
            (
                "segment",
                '{"prompt_id": "p", "traj_id": "t1", "prompt_text": "q\\n\\n", '
                '"response_text": "a\\n\\nAnswer: 7", "correct": "no"}',
                "field 'correct' must be true, false or null, not str",
            ),
            (
                "reward",
                '{"prompt_id": "p", "traj_id": "t1", "prompt_text": "q\\n\\n", '
                '"response_text": "a\\n\\nAnswer: 7", "correct": 0}',
                "field 'correct' must be true, false or null, not int",
            ),
            (
                "analyze-rewards",
                '{"traj_id": "t1", "con": 0.5, "vol": 0.5, "r_cur": 0.0, "correct": "no"}',
                "field 'correct' must be true, false or null, not str",
            ),
            (
                "analyze-rewards",
                '{"traj_id": "t1", "con": 0.5, "vol": 0.5, "r_cur": 0.0, "correct": 0}',
                "field 'correct' must be true, false or null, not int",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["7", "8"], "rows": [[1.0, 2.0]], "T": 1, '
                '"K": 2, "correct": "no"}',
                "field 'correct' must be true, false or null, not str",
            ),
            (
                "analyze-matrices",
                '{"traj_id": "t1", "answer_order": ["7", "8"], "rows": [[1.0, 2.0]], "T": 1, '
                '"K": 2, "correct": [true]}',
                "field 'correct' must be true, false or null, not list",
            ),
            (
                "cache",
                '{"key": "k", "token_logprobs": ["x"]}',
                "field 'token_logprobs' must be list[float], not list",
            ),
            (
                "cache",
                '{"key": "k", "token_logprobs": [-1.0, NaN]}',
                "token_logprobs [-1.0, nan] holds a non-finite value",
            ),
            (
                "cache",
                '{"key": "k", "token_logprobs": [-1.0, 0.5]}',
                "token_logprobs [-1.0, 0.5] holds a positive value",
            ),
            ("cache", '{"key": "k", "token_logprobs": []}', "token_logprobs is empty"),
            (
                "http-cache",
                '{"key": "k", "token_logprobs": [0.5]}',
                "token_logprobs [0.5] holds a positive value",
            ),
            ("http-cache", '{"key": "k", "token_logprobs": []}', "token_logprobs is empty"),
        ],
    )
    def test_malformed_jsonl_line_is_input_error(self, tmp_path, capsys, command, line, message):
        # line 1 is one that the command's reader accepts, so line 2 is the first bad one
        reader = {
            "analyze-rewards": "rewards", "analyze-matrices": "matrices",
            "cache": "cache", "http-cache": "cache",
        }.get(command, "trajectory")
        good_path, path = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        good_path.write_text(json.dumps(GOOD_TRAJECTORY) + "\n")
        path.write_text(json.dumps(GOOD_LINES[reader]) + "\n" + line + "\n")
        out = str(tmp_path / "o")
        if command == "analyze-input":
            rewards_path = tmp_path / "rewards.jsonl"
            rewards_path.write_text(json.dumps(GOOD_LINES["rewards"]) + "\n")
            argv = ["analyze", "--input", str(path), "--rewards", str(rewards_path), "--out", out]
        elif command == "analyze-rewards":
            argv = ["analyze", "--rewards", str(path), "--out", out]
        elif command == "analyze-matrices":
            argv = ["analyze", "--matrices", str(path), "--out", out]
        elif command in ("cache", "http-cache"):
            cfg_path = tmp_path / "file.yaml"
            cfg = {"scorer": {"source": "file", "cache_path": str(path)}}
            if command == "http-cache":
                # the cache is read before any request, so the service is never contacted
                cfg["scorer"].update(source="http", base_url="http://127.0.0.1:9")
            cfg_path.write_text(yaml.safe_dump(cfg))
            argv = ["reward", "--config", str(cfg_path), "--input", str(good_path), "--out", out]
        else:
            argv = [command, "--input", str(path), "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: ")
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad_line", [1, 3])
    @pytest.mark.parametrize("reader", ["trajectory", "cache"])
    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path, capsys, reader, bad_line):
        good_path, path = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        good_path.write_text(json.dumps(GOOD_TRAJECTORY) + "\n")
        good = {"key": "k", "token_logprobs": [-1.0]} if reader == "cache" else GOOD_TRAJECTORY
        lines = [json.dumps(good).encode()] * 3
        lines[bad_line - 1] = b"\xff\xfe" + lines[bad_line - 1]
        path.write_bytes(b"\n".join(lines) + b"\n")
        out = str(tmp_path / "o")
        if reader == "cache":
            cfg_path = tmp_path / "file.yaml"
            cfg = {"scorer": {"source": "file", "cache_path": str(path)}}
            cfg_path.write_text(yaml.safe_dump(cfg))
            argv = ["reward", "--config", str(cfg_path), "--input", str(good_path), "--out", out]
        else:
            argv = ["segment", "--input", str(path), "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:{bad_line}: not UTF-8 text: invalid start byte 0xff\n"

    def test_fractions_outside_unit_interval_rejected(self, tmp_path, capsys):
        path = tmp_path / "rewards.jsonl"
        write_jsonl(
            path,
            [
                {"traj_id": "a", "con": 1e308, "vol": 1e308, "r_cur": 0.0},
                {"traj_id": "b", "con": -1e308, "vol": -1e308, "r_cur": 0.0},
            ],
        )
        assert main(["analyze", "--rewards", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:1: con 1e+308 is outside [0, 1]\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
FLOATS = st.floats() | st.integers()


def jsonl_lines(fields):
    """Either records whose ``fields`` follow their strategies, or lines of
    arbitrary text, arbitrary JSON and records with arbitrary field values."""
    optional = {"correct": JSON_VALUES}
    typed = st.fixed_dictionaries(fields, optional=optional).map(json.dumps)
    loose = st.fixed_dictionaries(
        {name: values | JSON_VALUES for name, values in fields.items()}, optional=optional
    ).map(json.dumps)
    chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")
    text = st.text(chars, max_size=20)
    any_line = st.one_of(typed, loose, text, JSON_VALUES.map(json.dumps))
    return st.lists(typed, min_size=1, max_size=4) | st.lists(any_line, min_size=1, max_size=4)


class TestArbitraryJsonlLines:
    """Whatever a JSONL input holds, a command exits 0, 2 or 3 with at most
    one line on stderr, and no exception escapes ``main``."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("arbitrary")
        write_jsonl(base / "good.jsonl", [GOOD_TRAJECTORY])
        good = str(base / "good.jsonl")
        assert main(["score", "--input", good, "--out", str(base / "scored")]) == 0
        cfg = {"scorer": {"source": "file", "cache_path": str(base / "cache.jsonl")}}
        (base / "file.yaml").write_text(yaml.safe_dump(cfg))
        return base

    @staticmethod
    def run(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("\n") <= 1

    @staticmethod
    def write(path, lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["segment", "reward"]),
        lines=jsonl_lines(
            {
                "prompt_id": st.text(max_size=2) | st.integers(),
                "traj_id": st.text(max_size=2) | st.integers(),
                "prompt_text": st.text(max_size=8),
                "response_text": st.text("ab7 \n:Answer{}\\", max_size=30),
            }
        ),
    )
    def test_trajectory_input(self, workdir, command, lines):
        self.write(workdir / "in.jsonl", lines)
        self.run([command, "--input", str(workdir / "in.jsonl"), "--out", str(workdir / "o")])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lines=jsonl_lines(
            {"traj_id": st.text(max_size=2), "con": FLOATS, "vol": FLOATS, "r_cur": FLOATS}
        )
    )
    def test_rewards_export(self, workdir, lines):
        path = workdir / "rewards.jsonl"
        self.write(path, lines)
        # any warning fails, e.g. numpy's overflow on fractions far outside [0, 1];
        # recorded, not raised, so that a failure shrinks and reports normally
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.run(["analyze", "--rewards", str(path), "--out", str(workdir / "o")])
        assert [str(w.message) for w in caught] == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matrices_export(self, workdir, data):
        # one T x K shape per example, which typed lines mostly follow, so
        # that some inputs pass the reader and reach the curve analysis
        T, K = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        distances = st.floats(0.0, 1e9) | FLOATS
        fields = {
            "traj_id": st.text(max_size=2),
            "T": st.just(T) | st.integers(0, 4),
            "K": st.just(K) | st.integers(0, 4),
            "rows": st.lists(st.lists(distances, min_size=K, max_size=K), min_size=T, max_size=T)
            | st.lists(st.lists(FLOATS, max_size=3), max_size=3),
            "answer_order": st.lists(st.text(max_size=2), min_size=K, max_size=K),
        }
        path = workdir / "matrices.jsonl"
        self.write(path, data.draw(jsonl_lines(fields)))
        self.run(["analyze", "--matrices", str(path), "--out", str(workdir / "o")])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_score_cache(self, workdir, data):
        keys = [rec["key"] for rec in read_lines(workdir / "scored" / "cache.jsonl")]
        fields = {
            "key": st.sampled_from(keys) | st.text(max_size=4),
            "token_logprobs": st.lists(FLOATS, max_size=3),
        }
        self.write(workdir / "cache.jsonl", data.draw(jsonl_lines(fields)))
        cfg, good = str(workdir / "file.yaml"), str(workdir / "good.jsonl")
        self.run(["reward", "--config", cfg, "--input", good, "--out", str(workdir / "o")])


class TestRepeatedIds:
    """A ``traj_id`` names one record of a file, and an id is either a number
    or a string: breaking either rule is exit 2, with one line on stderr
    naming both lines."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("repeated_ids")

    @staticmethod
    def run(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue()

    @staticmethod
    def write(path, records):
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")

    def assert_names_lines(self, argv, path, first, second):
        code, err = self.run(argv)
        assert code == 2
        assert err.count("\n") == 1
        assert f"{path}:{first}:" not in err and f"{path}:{second}: " in err
        assert err.rstrip().endswith(f" at {path}:{first}")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["segment", "reward"]),
        ids=st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True),
        numbers=st.lists(st.booleans(), min_size=4, max_size=4),
        case=st.sampled_from(["same prompt", "other prompt", "number against string"]),
        data=st.data(),
    )
    def test_a_repeated_traj_id_is_exit_2(self, workdir, command, ids, numbers, case, data):
        records = [
            {**GOOD_TRAJECTORY, "traj_id": i if number else str(i)}
            for i, number in zip(ids, numbers)
        ]
        original = data.draw(st.integers(0, len(records) - 1))
        repeat = dict(records[original])
        if case == "other prompt":
            repeat.update(prompt_id="other", prompt_text="another question")
        elif case == "number against string":
            tid = repeat["traj_id"]
            repeat["traj_id"] = str(tid) if isinstance(tid, int) else int(tid)
        at = data.draw(st.integers(0, len(records)))
        records.insert(at, repeat)
        first, second = sorted([at, original + (at <= original)])
        path = workdir / "in.jsonl"
        self.write(path, records)
        argv = [command, "--input", str(path), "--out", str(workdir / "o")]
        self.assert_names_lines(argv, path, first + 1, second + 1)

    def test_a_prompt_id_given_as_number_and_string_is_exit_2(self, workdir):
        path = workdir / "prompts.jsonl"
        records = [{**GOOD_TRAJECTORY, "prompt_id": 1}, {**GOOD_TRAJECTORY, "traj_id": "t1"}]
        records[1]["prompt_id"] = "1"
        self.write(path, records)
        self.assert_names_lines(["segment", "--input", str(path), "--out", str(workdir / "o")], path, 1, 2)

    def test_a_prompt_id_with_a_second_prompt_text_names_its_line(self, workdir):
        path = workdir / "texts.jsonl"
        records = [GOOD_TRAJECTORY, {**GOOD_TRAJECTORY, "traj_id": "t1", "prompt_text": "r"}]
        self.write(path, records)
        code, err = self.run(["segment", "--input", str(path), "--out", str(workdir / "o")])
        assert code == 2
        assert err == f"error: {path}:2: prompt_id 'p' maps to two different prompt texts\n"

    @pytest.mark.parametrize("kind, flag", [("rewards", "--rewards"), ("matrices", "--matrices")])
    def test_analyze_rejects_a_repeated_traj_id(self, workdir, kind, flag):
        line = GOOD_LINES[kind]
        path = workdir / f"{kind}.jsonl"
        self.write(path, [line, {**line, "traj_id": "t1"}, line])
        self.assert_names_lines(["analyze", flag, str(path), "--out", str(workdir / "a")], path, 1, 3)


NOT_NUMBERS = JSON_VALUES.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))


class TestScoreCacheLines:
    """One field of one line of a ``score``-written cache, changed to a value
    outside its rules, is exit 2 naming that line; the same line written
    again with its keys in another order gives the same rewards."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory, fixtures_dir):
        base = tmp_path_factory.mktemp("cache_lines")
        config, batch = fixtures_dir / "planted_config.yaml", fixtures_dir / "planted_batch.jsonl"
        argv = ["score", "--config", str(config), "--input", str(batch), "--out", str(base / "s")]
        assert main(argv) == 0
        cfg = {"input": str(batch), "scorer": {"source": "file", "cache_path": str(base / "cache.jsonl")}}
        (base / "file.yaml").write_text(yaml.safe_dump(cfg))
        (base / "cache.jsonl").write_text((base / "s" / "cache.jsonl").read_text())
        assert self.run(base) == (0, "")
        return base, read_lines(base / "s" / "cache.jsonl"), (base / "o" / "rewards.jsonl").read_bytes()

    @staticmethod
    def run(base):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["reward", "--config", str(base / "file.yaml"), "--out", str(base / "o")])
        return code, err.getvalue()

    @staticmethod
    def write(base, records, index, line):
        lines = [json.dumps(rec) for rec in records]
        lines[index] = line
        (base / "cache.jsonl").write_text("".join(line + "\n" for line in lines))

    @staticmethod
    def broken(data, rec):
        """``rec`` with one field outside its rules."""
        rec = dict(rec)
        kind = data.draw(
            st.sampled_from(
                ["missing", "extra", "key type", "list type", "item type", "non-finite",
                 "positive", "empty"]
            )
        )
        if kind == "missing":
            del rec[data.draw(st.sampled_from(sorted(rec)))]
        elif kind == "extra":
            rec[data.draw(st.text(max_size=6).filter(lambda k: k not in rec))] = data.draw(JSON_VALUES)
        elif kind == "key type":
            rec["key"] = data.draw(JSON_VALUES.filter(lambda v: not isinstance(v, str)))
        elif kind == "list type":
            rec["token_logprobs"] = data.draw(JSON_VALUES.filter(lambda v: not isinstance(v, list)))
        elif kind == "empty":
            rec["token_logprobs"] = []
        else:
            values = {
                "item type": NOT_NUMBERS,
                "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
                "positive": st.floats(0.0, exclude_min=True, allow_infinity=False)
                | st.integers(1, 10**6),
            }
            logprobs = list(rec["token_logprobs"])
            logprobs[data.draw(st.integers(0, len(logprobs) - 1))] = data.draw(values[kind])
            rec["token_logprobs"] = logprobs
        return kind, rec

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_line_outside_the_rules_is_input_error_naming_it(self, workdir, data):
        base, records, _ = workdir
        index = data.draw(st.integers(0, len(records) - 1))
        kind, rec = self.broken(data, records[index])
        self.write(base, records, index, json.dumps(rec))
        code, err = self.run(base)
        assert code == 2, kind
        assert err.startswith(f"error: {base / 'cache.jsonl'}:{index + 1}: ")
        assert err.count("\n") == 1

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_line_written_in_another_key_order_gives_the_same_rewards(self, workdir, data):
        base, records, rewards = workdir
        index = data.draw(st.integers(0, len(records) - 1))
        separators = data.draw(st.sampled_from([(",", ":"), (", ", ": "), (" , ", " : ")]))
        reordered = dict(reversed(list(records[index].items())))
        self.write(base, records, index, json.dumps(reordered, separators=separators))
        assert self.run(base) == (0, "")
        assert (base / "o" / "rewards.jsonl").read_bytes() == rewards


class TestRewardExportLines:
    """One field of one line of a ``reward``-written ``rewards.jsonl`` or
    ``matrices.jsonl``, changed to a value outside the writer's, is read by
    ``analyze`` to the same outputs or is exit 2 naming that line."""

    KINDS = {
        "rewards.jsonl": {
            "prompt_id": str, "traj_id": str, "group": int, "skip": bool, "correct": bool | None,
            **dict.fromkeys(
                ["con", "vol", "r_int_linear", "r_int_vector", "r_cur", "r_total", "advantage"], float
            ),
        },
        "matrices.jsonl": {
            "traj_id": str, "T": int, "K": int, "answer_order": list[str],
            "rows": list[list[float]], "correct": bool | None,
        },
    }
    OUTPUTS = ("feature_stats.csv", "curves.csv")

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory, fixtures_dir):
        base = tmp_path_factory.mktemp("export_lines")
        config, batch = fixtures_dir / "planted_config.yaml", fixtures_dir / "planted_batch.jsonl"
        argv = ["reward", "--config", str(config), "--input", str(batch), "--out", str(base / "r")]
        assert main(argv) == 0
        exports = {name: read_lines(base / "r" / name) for name in self.KINDS}
        assert self.run(base, exports) == (0, "")
        assert set(self.KINDS["rewards.jsonl"]) == set(exports["rewards.jsonl"][0])
        assert set(self.KINDS["matrices.jsonl"]) == set(exports["matrices.jsonl"][0])
        return base, exports, self.outputs(base)

    @classmethod
    def outputs(cls, base):
        return {name: (base / "o" / name).read_bytes() for name in cls.OUTPUTS}

    @staticmethod
    def run(base, exports, changed=None):
        """``analyze`` on ``exports``; ``changed`` is (file name, line index, line text)."""
        for name, records in exports.items():
            lines = [json.dumps(rec) for rec in records]
            if changed and changed[0] == name:
                lines[changed[1]] = changed[2]
            (base / name).write_text("".join(line + "\n" for line in lines))
        argv = ["analyze", "--rewards", str(base / "rewards.jsonl"),
                "--matrices", str(base / "matrices.jsonl"), "--out", str(base / "o")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue()

    @classmethod
    def broken(cls, data, name, rec):
        """``rec`` with one field outside the writer's values. A line without
        ``correct`` is an unlabeled one, not a broken one: see
        ``test_a_line_without_correct_reads_as_unlabeled``."""
        kinds = cls.KINDS[name]
        rec = dict(rec)
        kind = data.draw(st.sampled_from(["missing", "extra", "type", "non-finite", "range"]))
        if kind == "missing":
            del rec[data.draw(st.sampled_from(sorted(rec.keys() - {"correct"})))]
        elif kind == "extra":
            rec[data.draw(st.text(max_size=6).filter(lambda k: k not in rec))] = data.draw(JSON_VALUES)
        elif kind == "type":
            key = data.draw(st.sampled_from(sorted(kinds)))
            rec[key] = data.draw(JSON_VALUES.filter(lambda v: not is_kind(v, kinds[key])))
        elif name == "matrices.jsonl":
            rows = [list(row) for row in rec["rows"]]
            i = data.draw(st.integers(0, len(rows) - 1))
            j = data.draw(st.integers(0, len(rows[i]) - 1))
            if kind == "non-finite":
                rows[i][j] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            else:
                shape = data.draw(st.sampled_from(["cell", "T", "K"]))
                if shape == "cell":
                    rows[i][j] = data.draw(st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))
                else:
                    rec[shape] = data.draw(st.integers(-3, 64).filter(lambda v: v != rec[shape]))
            rec["rows"] = rows
        elif kind == "non-finite":
            key = data.draw(st.sampled_from(sorted(k for k, v in kinds.items() if v is float)))
            rec[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        else:
            rec[data.draw(st.sampled_from(["con", "vol"]))] = data.draw(
                st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
                | st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
            )
        return kind, rec

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_changed_line_reads_the_same_or_is_input_error_naming_it(self, workdir, data):
        base, exports, outputs = workdir
        name = data.draw(st.sampled_from(sorted(exports)))
        index = data.draw(st.integers(0, len(exports[name]) - 1))
        kind, rec = self.broken(data, name, exports[name][index])
        code, err = self.run(base, exports, (name, index, json.dumps(rec)))
        # a key the writer never writes, a value of another kind and a non-finite
        # number are always rejected; a value out of range may be read to the same outputs
        if code == 0 and kind not in ("extra", "type", "non-finite"):
            assert self.outputs(base) == outputs, kind
        else:
            assert code == 2, kind
            assert err.startswith(f"error: {base / name}:{index + 1}: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_a_line_without_correct_reads_as_unlabeled(self, workdir, name):
        base, exports, _ = workdir
        unlabeled = dict(exports[name][0], correct=None)
        assert self.run(base, exports, (name, 0, json.dumps(unlabeled))) == (0, "")
        expected = self.outputs(base)
        del unlabeled["correct"]
        assert self.run(base, exports, (name, 0, json.dumps(unlabeled))) == (0, "")
        assert self.outputs(base) == expected


class _CountingScoreHandler(BaseHTTPRequestHandler):
    """Deterministic scores per (prefix, continuation); prompts starting
    with REJECT get HTTP 400. Requests are recorded in arrival order."""

    received = []

    def do_POST(self):
        req = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).received.append((req["prefix"], req["continuation"]))
        if req["prefix"].startswith("REJECT"):
            status, body = 400, {"error": "rejected"}
        else:
            text = json.dumps([req["prefix"], req["continuation"]]).encode()
            digest = hashlib.blake2b(text, digest_size=8).digest()
            n = len(req["continuation"].split())
            status, body = 200, {"token_logprobs": [-(0.1 + digest[i % 8] / 64.0) for i in range(n)]}
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def scoring_service():
    handler = type("Handler", (_CountingScoreHandler,), {"received": []})
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class _CappedServer(ThreadingHTTPServer):
    """Serves at most ``cap`` connections at a time. Later ones wait in the
    listen backlog unanswered, as behind a service's connection limit."""

    daemon_threads = True

    def __init__(self, handler, cap):
        super().__init__(("127.0.0.1", 0), handler)
        self.slots = threading.Semaphore(cap)

    def process_request(self, request, client_address):
        self.slots.acquire()
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


def test_more_workers_than_the_service_takes_connections(planted_setup):
    # keep-alive replies, sent without Nagle's delay; an idle connection is
    # dropped after 10 s, so a client that never closes its sockets cannot hang the test
    attrs = {"received": [], "protocol_version": "HTTP/1.1", "timeout": 10}
    attrs["disable_nagle_algorithm"] = True
    server = _CappedServer(type("Handler", (_CountingScoreHandler,), attrs), cap=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    cfg_path, base = planted_setup
    cfg = yaml.safe_load(cfg_path.read_text())
    # each prompt batch starts four threads on an idle pool of at most two sockets
    records = read_lines(base / "batch.jsonl")
    cfg["input"] = str(base / "three_prompts.jsonl")
    write_jsonl(cfg["input"], [
        dict(rec, prompt_id=f"p{i}", traj_id=f"{rec['traj_id']}.{i}", prompt_text=f"q{i}\n\n")
        for i in range(3) for rec in records
    ])
    elapsed = {}
    try:
        for command, workers in (("reward", 1), ("reward", 4), ("score", 2)):
            cfg["workers"] = workers
            cfg["scorer"] = {
                "source": "http",
                "base_url": f"http://127.0.0.1:{server.server_address[1]}",
                "cache_path": str(base / f"cache-{command}{workers}.jsonl"),
                "timeout": 2.0,
                "backoff": 0.0,
            }
            cfg_file = base / f"http{workers}.yaml"
            cfg_file.write_text(yaml.safe_dump(cfg))
            start = time.perf_counter()
            assert main([command, "--config", str(cfg_file), "--out", str(base / str(workers))]) == 0
            elapsed[workers] = time.perf_counter() - start
            # the run closed its sockets, so the service has both slots free again
            held = [server.slots.acquire(timeout=5) for _ in range(2)]
            for taken in held:
                if taken:
                    server.slots.release()
            assert held == [True, True]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    # the sockets the service left unanswered cost one timeout, not one per batch
    assert elapsed[4] < 4.0, elapsed
    for name in ("rewards.jsonl", "matrices.jsonl", "summary.json"):
        assert (base / "1" / name).read_bytes() == (base / "4" / name).read_bytes()
    cache = (base / "cache-reward1.jsonl").read_bytes()
    assert (base / "cache-reward4.jsonl").read_bytes() == cache
    assert (base / "2" / "cache.jsonl").read_bytes() == cache


class TestHttpCachePersistence:
    def http_config(self, planted_setup, url, records=None):
        cfg_path, base = planted_setup
        cfg = yaml.safe_load(cfg_path.read_text())
        if records is not None:
            cfg["input"] = str(base / "http_batch.jsonl")
            write_jsonl(cfg["input"], records)
        cfg["workers"] = 2
        cfg["scorer"] = {
            "source": "http",
            "base_url": url,
            "cache_path": str(base / "http_cache.jsonl"),
            "backoff": 0.0,
        }
        cfg_file = base / "http.yaml"
        cfg_file.write_text(yaml.safe_dump(cfg))
        return cfg_file, base

    def test_rerun_on_written_cache_sends_nothing(self, planted_setup, scoring_service):
        url, handler = scoring_service
        cfg_file, base = self.http_config(planted_setup, url)
        assert main(["reward", "--config", str(cfg_file), "--out", str(base / "first")]) == 0
        assert handler.received
        assert len(handler.received) == len(set(handler.received))  # each content once
        cache = base / "http_cache.jsonl"
        written, before = cache.read_bytes(), cache.stat()
        sent = len(handler.received)
        assert main(["reward", "--config", str(cfg_file), "--out", str(base / "replay")]) == 0
        assert len(handler.received) == sent
        # nothing new was recorded, so the complete cache is not rewritten
        after = cache.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert cache.read_bytes() == written
        for name in ("rewards.jsonl", "matrices.jsonl", "summary.json"):
            assert (base / "first" / name).read_bytes() == (base / "replay" / name).read_bytes()

    def test_cache_written_when_a_batch_fails(self, planted_setup, scoring_service):
        url, handler = scoring_service
        records = read_lines(planted_setup[0].parent / "batch.jsonl")
        extra = [
            dict(rec, prompt_id="p1", traj_id=f"x{i}", prompt_text="REJECT q\n\n")
            for i, rec in enumerate(records[:3])
        ]
        cfg_file, base = self.http_config(planted_setup, url, records + extra)
        assert main(["reward", "--config", str(cfg_file), "--out", str(base / "first")]) == 3
        assert [f["prompt_id"] for f in read_lines(base / "first" / "errors.jsonl")] == ["p1"]
        sent = len(handler.received)
        assert main(["reward", "--config", str(cfg_file), "--out", str(base / "replay")]) == 3
        # only the failed prompt goes back to the service
        assert handler.received[sent:]
        assert all(prefix.startswith("REJECT") for prefix, _ in handler.received[sent:])
        first = (base / "first" / "rewards.jsonl").read_bytes()
        assert first == (base / "replay" / "rewards.jsonl").read_bytes()


    def test_cache_written_when_reward_stops_on_a_bad_value(self, planted_setup, scoring_service):
        url, handler = scoring_service
        cfg_file, base = self.http_config(planted_setup, url)
        cfg = yaml.safe_load(cfg_file.read_text())
        cfg["reward"]["curiosity_weight"] = 1.7e308  # r_total overflows after scoring
        overflow = base / "overflow.yaml"
        overflow.write_text(yaml.safe_dump(cfg))
        assert main(["reward", "--config", str(overflow), "--out", str(base / "first")]) == 2
        sent = len(handler.received)
        assert sent
        # the file scorer finds every request of the batch that stopped the run
        replay = ["--scorer", "file", "--out", str(base / "replay")]
        assert main(["reward", "--config", str(cfg_file), *replay]) == 0
        assert len(handler.received) == sent

    @pytest.mark.parametrize("weight, message", [(1.0, "cache.jsonl"), (1.7e308, "non-finite")])
    def test_unwritable_cache_reported_after_outputs(
        self, planted_setup, scoring_service, capsys, weight, message
    ):
        url, _ = scoring_service
        cfg_file, base = self.http_config(planted_setup, url)
        cfg = yaml.safe_load(cfg_file.read_text())
        cfg["scorer"]["cache_path"] = str(base / "no_such_dir" / "cache.jsonl")
        cfg["reward"]["curiosity_weight"] = weight
        cfg_file.write_text(yaml.safe_dump(cfg))
        out = base / "first"
        assert main(["reward", "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        # a finished run writes its outputs before the cache; a stopped run
        # reports the error that stopped it, not the cache's
        finished = weight == 1.0
        assert (out / "summary.json").exists() == finished
    def test_writes_segments(self, planted_setup):
        cfg_path, base = planted_setup
        out = base / "seg"
        assert main(["segment", "--config", str(cfg_path), "--out", str(out)]) == 0
        records = read_lines(out / "segments.jsonl")
        assert len(records) == 8
        assert all(r["T"] == 6 for r in records)
        assert {r["final_answer"] for r in records} == {"7", "9"}


class TestScoreAndRewardPipeline:
    def test_cache_then_file_scorer_matches_toy_run(self, planted_setup):
        cfg_path, base = planted_setup
        assert main(["score", "--config", str(cfg_path), "--out", str(base / "cache")]) == 0

        assert main(["reward", "--config", str(cfg_path), "--out", str(base / "toy_run")]) == 0

        cfg = yaml.safe_load(cfg_path.read_text())
        cfg["scorer"] = {"source": "file", "cache_path": str(base / "cache" / "cache.jsonl")}
        file_cfg = base / "file_cfg.yaml"
        file_cfg.write_text(yaml.safe_dump(cfg))
        assert main(["reward", "--config", str(file_cfg), "--out", str(base / "file_run")]) == 0

        toy = (base / "toy_run" / "rewards.jsonl").read_bytes()
        file_ = (base / "file_run" / "rewards.jsonl").read_bytes()
        assert toy == file_

    def test_reward_outputs(self, planted_setup):
        cfg_path, base = planted_setup
        out = base / "run"
        assert main(["reward", "--config", str(cfg_path), "--out", str(out)]) == 0
        records = read_lines(out / "rewards.jsonl")
        assert len(records) == 8
        expected_keys = {
            "traj_id", "prompt_id", "group", "con", "vol", "r_int_linear",
            "r_int_vector", "r_cur", "r_total", "advantage", "skip", "correct",
        }
        assert expected_keys <= set(records[0])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_trajectories"] == 8
        assert sum(summary["prompts"][0]["group_sizes"]) == 8
        assert (out / "resolved_config.json").exists()
        assert not (out / "errors.jsonl").exists()

    def test_sixteen_trajectory_group_sizes_sum(self, tmp_path):
        spec = PlantedSpec(n_correct=9, n_incorrect=7)
        batch_path = tmp_path / "batch16.jsonl"
        write_jsonl(batch_path, planted_records(spec))
        cfg = {
            "input": str(batch_path),
            "scorer": {"source": "toy", "toy": toy_config(planted_model(spec))},
            "reward": {"curiosity": False},
        }
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert main(["reward", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sum(summary["prompts"][0]["group_sizes"]) == 16
        assert summary["prompts"][0]["K"] == 2

    def test_all_identical_answers_flagged_skip(self, tmp_path):
        spec = PlantedSpec(n_correct=4, n_incorrect=0)
        batch_path = tmp_path / "same.jsonl"
        write_jsonl(batch_path, planted_records(spec))
        cfg = {
            "input": str(batch_path),
            "scorer": {"source": "toy", "toy": toy_config(planted_model(spec))},
            "reward": {"curiosity": False},
        }
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert main(["reward", "--config", str(cfg_path), "--out", str(out)]) == 0
        records = read_lines(out / "rewards.jsonl")
        assert all(r["skip"] for r in records)
        assert all(r["advantage"] == 0.0 for r in records)

    def test_flag_overrides_variant(self, planted_setup):
        cfg_path, base = planted_setup
        out = base / "lin"
        assert main(
            ["reward", "--config", str(cfg_path), "--out", str(out), "--variant", "linear"]
        ) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["reward"]["variant"] == "linear"
        records = read_lines(out / "rewards.jsonl")
        for r in records:
            assert r["r_total"] == pytest.approx(r["r_int_linear"] + r["r_cur"], abs=1e-12)


class TestAnalyzeCommand:
    def run_reward(self, planted_setup):
        cfg_path, base = planted_setup
        out = base / "run"
        assert main(["reward", "--config", str(cfg_path), "--out", str(out)]) == 0
        return cfg_path, base, out

    def test_feature_stats_ordering(self, planted_setup):
        cfg_path, base, run = self.run_reward(planted_setup)
        out = base / "analysis"
        code = main(
            [
                "analyze",
                "--config", str(cfg_path),
                "--out", str(out),
                "--rewards", str(run / "rewards.jsonl"),
                "--matrices", str(run / "matrices.jsonl"),
            ]
        )
        assert code == 0
        with open(out / "feature_stats.csv") as fh:
            rows = {r["label"]: r for r in csv.DictReader(fh)}
        assert float(rows["correct"]["con_mean"]) > float(rows["incorrect"]["con_mean"])
        assert float(rows["correct"]["vol_mean"]) < float(rows["incorrect"]["vol_mean"])
        assert (out / "curves.csv").exists()
        assert (out / "diversity.csv").exists()

    def test_missing_exports_rejected(self, planted_setup):
        cfg_path, base = planted_setup
        assert main(["analyze", "--config", str(cfg_path), "--out", str(base / "a")]) == 2

    def test_unlabeled_input_single_block(self, tmp_path):
        spec = PlantedSpec()
        records = [dict(rec, correct=None) for rec in planted_records(spec)]
        batch_path = tmp_path / "batch.jsonl"
        write_jsonl(batch_path, records)
        cfg = {
            "input": str(batch_path),
            "scorer": {"source": "toy", "toy": toy_config(planted_model(spec))},
            "reward": {"curiosity": False},
        }
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        run = tmp_path / "run"
        assert main(["reward", "--config", str(cfg_path), "--out", str(run)]) == 0
        out = tmp_path / "analysis"
        assert main(
            ["analyze", "--config", str(cfg_path), "--out", str(out),
             "--rewards", str(run / "rewards.jsonl")]
        ) == 0
        with open(out / "feature_stats.csv") as fh:
            labels = [r["label"] for r in csv.DictReader(fh)]
        assert labels == ["unlabeled"]

    def test_identical_responses_self_bleu_one(self, tmp_path):
        rec = {
            "prompt_id": "p", "prompt_text": "q\n\n",
            "response_text": "alpha beta\n\ngamma delta\n\nAnswer: 7",
        }
        records = [dict(rec, traj_id=f"t{i}") for i in range(3)]
        batch_path = tmp_path / "same.jsonl"
        write_jsonl(batch_path, records)
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({"input": str(batch_path)}))
        out = tmp_path / "analysis"
        code = main(
            ["analyze", "--config", str(cfg_path), "--out", str(out),
             "--rewards", str(self._tiny_rewards(tmp_path))]
        )
        assert code == 0
        with open(out / "diversity.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["self_bleu"]) == 1.0

    @staticmethod
    def _tiny_rewards(tmp_path):
        path = tmp_path / "tiny_rewards.jsonl"
        write_jsonl(
            path,
            [{"traj_id": "t0", "con": 1.0, "vol": 0.0, "r_cur": 0.0, "correct": None}],
        )
        return path


class TestSimulatePresets:
    @pytest.mark.parametrize("preset", ["collapse", "convergence", "elbo", "growth-bound"])
    def test_preset_passes(self, tmp_path, preset):
        cfg = {"simulate": {"preset": preset, "max_time": 90.0}}
        cfg_path = tmp_path / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / preset
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assertions = json.loads((out / "assertions.json").read_text())
        assert assertions

    def test_growth_ratio_is_taken_after_t0(self, tmp_path):
        cfg_path = tmp_path / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump({"simulate": {"preset": "growth-bound", "max_time": 2.0}}))
        out = tmp_path / "growth"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assertions = json.loads((out / "assertions.json").read_text())
        assert assertions["growth_bound"] is True
        # at t = 0 the cap is pi_0 itself, which would pin the ratio to exactly 1
        assert 0.0 < assertions["worst_ratio_to_cap"] < 1.0

    # captured from the per-preset flow loops that the shared loop replaced
    @pytest.mark.parametrize(
        "sim, code, expected",
        [
            (
                {"preset": "collapse", "max_time": 20.0, "mode": "sampled",
                 "pi0": [0.5, 0.3, 0.2], "kl_coefficient": 0.05, "record_every": 5},
                5,
                {"converged": False, "final_modal_prob": 0.9538485079211376,
                 "final_true_accuracy": 0.02500406046710915, "growth_bound": True,
                 "modal_reward_constant_one": True, "monotone": True},
            ),
            (
                {"preset": "convergence", "max_time": 25.0, "integrator": "rk4",
                 "step_size": 0.05, "record_every": 7},
                0,
                {"bound": 142.22222222222223, "growth_bound": True, "hit_time": 10.65,
                 "sweep_within_bound": True, "within_bound": True},
            ),
            (
                {"preset": "growth-bound", "max_time": 3.0, "integrator": "rk4",
                 "kl_coefficient": 0.2},
                0,
                {"growth_bound": True, "worst_ratio_to_cap": 0.8319195725086993},
            ),
        ],
        ids=["collapse", "convergence", "growth-bound"],
    )
    def test_flow_preset_assertions_pinned(self, tmp_path, sim, code, expected):
        cfg_path = tmp_path / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump({"seed": 3, "simulate": sim}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == code
        assert json.loads((out / "assertions.json").read_text()) == expected
        if sim["preset"] == "convergence":
            assert (out / "sweep.txt").read_text() == (
                "  pi0_plus     hit_time        bound   within\n"
                "    0.3000       5.8000     120.9373     True\n"
                "    0.2000       6.5500     104.1667     True\n"
                "    0.1000      10.6500     142.2222     True\n"
                "    0.0500      19.2500     247.4506     True\n"
            )

    def test_probe_preset_small(self, tmp_path):
        cfg = {"simulate": {"preset": "robustness-probe", "n_groups": 500}}
        cfg_path = tmp_path / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "probe"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assertions = json.loads((out / "assertions.json").read_text())
        assert assertions["violations"] == 0
        assert assertions["groups_checked"] == 500

    def test_series_schema(self, tmp_path):
        cfg = {"simulate": {"preset": "collapse"}}
        cfg_path = tmp_path / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "c"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        series = read_lines(out / "series.jsonl")
        assert {"t", "pi", "E_r_true", "E_r_proxy"} <= set(series[0])
        assert series[0]["t"] == 0.0


MAX_FLOW_STEPS = 300


def capped_steps(sim):
    """``sim`` with max_time lowered to MAX_FLOW_STEPS steps of step_size, so
    that an example integrates quickly; other horizons pass unchanged."""
    try:
        steps = sim["max_time"] / sim["step_size"]
    except (ZeroDivisionError, OverflowError):  # the config rejects an int too large for a float
        return sim
    if sim["step_size"] > 0 and MAX_FLOW_STEPS < steps < math.inf:
        sim["max_time"] = sim["step_size"] * MAX_FLOW_STEPS
    return sim


DISTRIBUTIONS = st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=4).map(
    lambda w: [x / sum(w) for x in w]
)
SIMULATE_SECTIONS = st.fixed_dictionaries(
    {"step_size": st.floats(1e-3, 10.0) | FLOATS, "max_time": st.floats(0.0, 100.0) | FLOATS},
    optional={
        "preset": st.sampled_from(
            ["collapse", "convergence", "elbo", "growth-bound", "robustness-probe", "none"]
        ),
        "pi0": DISTRIBUTIONS | st.lists(FLOATS, max_size=3),
        "truth_index": st.integers(-1, 4),
        "mode": st.sampled_from(["exact", "sampled", "none"]),
        "target": st.floats(0.0, 1.0) | FLOATS,
        "integrator": st.sampled_from(["euler", "rk4", "none"]),
        "kl_coefficient": st.floats(0.0, 2.0) | FLOATS,
        "sample_count": st.integers(-3, 32),
        "record_every": st.integers(-1, 50),
        "n_groups": st.integers(-1, 200),
        "n_latent": st.integers(-1, 5),
        "n_outputs": st.integers(-1, 5),
    },
).map(capped_steps)


class TestArbitrarySimulateSections:
    """Whatever a ``simulate`` section holds, the command exits 0, 2 or 5 with
    at most one stderr line and no warning, a rejected setting (exit 2) is
    named as ``simulate.<field>`` or is a config error, and a failed check
    (exit 5) reports only finite numbers."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sim=SIMULATE_SECTIONS, seed=st.integers(-1, 2**64))
    def test_simulate_section(self, tmp_path_factory, sim, seed):
        base = tmp_path_factory.mktemp("simulate")
        cfg_path = base / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump({"seed": seed, "simulate": sim}))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["simulate", "--config", str(cfg_path), "--out", str(base / "o")])
        assert code in (0, 2, 5)
        assert err.getvalue().count("\n") <= 1
        assert [str(w.message) for w in caught] == []
        if code == 2:
            assert err.getvalue().startswith(("error: simulate.", "error: bad config:"))
        if code == 5:
            assertions = json.loads((base / "o" / "assertions.json").read_text())
            numbers = [v for v in assertions.values() if isinstance(v, (int, float))]
            assert all(math.isfinite(v) for v in numbers), assertions


class TestShippedFixture:
    def test_fixture_matches_generator(self, fixtures_dir):
        spec = PlantedSpec()
        expected = planted_records(spec)
        shipped = read_lines(fixtures_dir / "planted_batch.jsonl")
        assert shipped == expected
        cfg = yaml.safe_load((fixtures_dir / "planted_config.yaml").read_text())
        assert cfg["scorer"]["toy"] == toy_config(planted_model(spec))

    @pytest.mark.parametrize("weight", [1e308, 1e200])
    def test_overflowing_curiosity_weight_writes_no_rewards(
        self, fixtures_dir, tmp_path, capsys, weight
    ):
        # 1e308 makes r_total inf; 1e200 keeps it finite but its spread overflows when squared
        cfg = yaml.safe_load((fixtures_dir / "planted_config.yaml").read_text())
        cfg["input"] = str(fixtures_dir / "planted_batch.jsonl")
        cfg["reward"]["curiosity_weight"] = weight
        cfg_path = tmp_path / "weight.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert main(["reward", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: reward.curiosity_weight {weight!r} ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o" / "rewards.jsonl").exists()

    def test_reward_path_never_imports_numpy(self, fixtures_dir, tmp_path):
        config = fixtures_dir / "planted_config.yaml"
        batch = fixtures_dir / "planted_batch.jsonl"
        scored = tmp_path / "scored"
        file_cfg = tmp_path / "file.yaml"
        cache = str(scored / "cache.jsonl")
        file_cfg.write_text(yaml.safe_dump({"input": str(batch), "scorer": {"cache_path": cache}}))
        run, analysis = tmp_path / "run", tmp_path / "analysis"
        commands = [
            ["score", "--config", str(config), "--input", str(batch), "--out", str(scored)],
            ["reward", "--config", str(file_cfg), "--scorer", "file", "--out", str(run)],
            [
                "analyze", "--rewards", str(run / "rewards.jsonl"), "--matrices",
                str(run / "matrices.jsonl"), "--input", str(batch), "--out", str(analysis),
            ],
            ["reward", "--config", str(config), "--input", str(batch), "--out", str(run) + "-toy"],
            # the ELBO check's seeded draws do need numpy, so the check is not vacuous
            ["simulate", "--preset", "elbo", "--out", str(tmp_path / "elbo")],
        ]
        code = (
            "import json, sys\n"
            "from trajreward import cli\n"
            "seen = ['numpy' in sys.modules]\n"
            f"for argv in {commands!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    seen.append('numpy' in sys.modules)\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # after import, toy-scorer score, file-scorer reward, analyze, toy-scorer
        # reward, then the elbo preset
        assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, False, False, True]
        assert (analysis / "curves.csv").exists() and (analysis / "diversity.csv").exists()

    def test_only_a_config_file_loads_yaml(self, fixtures_dir, tmp_path):
        config, batch = fixtures_dir / "planted_config.yaml", fixtures_dir / "planted_batch.jsonl"
        run = tmp_path / "run"
        assert main(["reward", "--config", str(config), "--input", str(batch), "--out", str(run)]) == 0
        commands = [
            ["segment", "--input", str(batch), "--out", str(tmp_path / "segments")],
            [
                "analyze", "--rewards", str(run / "rewards.jsonl"), "--matrices",
                str(run / "matrices.jsonl"), "--input", str(batch), "--out", str(tmp_path / "a"),
            ],
            ["simulate", "--preset", "convergence", "--out", str(tmp_path / "convergence")],
            # reading a config file does need PyYAML, so the guard is not vacuous
            ["segment", "--config", str(config), "--input", str(batch), "--out", str(tmp_path / "s")],
        ]
        code = (
            "import json, sys\n"
            "from trajreward import cli\n"
            "seen = ['yaml' in sys.modules]\n"
            f"for argv in {commands!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    seen.append('yaml' in sys.modules)\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # after import, segment, analyze and simulate, then segment with --config
        assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, False, True]

    def test_only_analyze_loads_analysis_and_csv(self, fixtures_dir, tmp_path):
        config, batch = fixtures_dir / "planted_config.yaml", fixtures_dir / "planted_batch.jsonl"
        scored = tmp_path / "scored"
        argv = ["score", "--config", str(config), "--input", str(batch), "--out", str(scored)]
        assert main(argv) == 0
        file_cfg = tmp_path / "file.yaml"
        cache = str(scored / "cache.jsonl")
        file_cfg.write_text(yaml.safe_dump({"input": str(batch), "scorer": {"cache_path": cache}}))
        run = tmp_path / "run"
        commands = [
            ["reward", "--config", str(config), "--input", str(batch), "--out", str(run)],
            ["reward", "--config", str(file_cfg), "--scorer", "file", "--out", str(tmp_path / "f")],
            # analyze does need them, so the guard is not vacuous
            [
                "analyze", "--rewards", str(run / "rewards.jsonl"), "--matrices",
                str(run / "matrices.jsonl"), "--input", str(batch), "--out", str(tmp_path / "a"),
            ],
        ]
        code = (
            "import json, sys\n"
            "from trajreward import cli\n"
            "names = ['trajreward.analysis', 'csv']\n"
            "seen = [[name in sys.modules for name in names]]\n"
            f"for argv in {commands!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    seen.append([name in sys.modules for name in names])\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # after import, toy-scorer reward, file-scorer reward, then analyze
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == [[False, False], [False, False], [False, False], [True, True]]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
        reason="counts threads in /proc/self/task; OpenBLAS starts no worker on one CPU",
    )
    @pytest.mark.parametrize("caller, threads", [(None, 1), ("2", 2)])
    def test_numpy_starts_no_idle_blas_thread(self, tmp_path, caller, threads):
        argv = ["simulate", "--preset", "elbo", "--out", str(tmp_path / "elbo")]
        code = (
            "import json, os, sys\n"
            "from trajreward import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert 'numpy' in sys.modules  # the elbo preset loads it\n"
            "threads = len(os.listdir('/proc/self/task'))\n"
            "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], threads]))\n"
        )
        # not inherited from this process, where an in-process main() may have set it
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if caller is not None:
            env["OPENBLAS_NUM_THREADS"] = caller
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        # main sets one BLAS thread unless the caller chose a number
        assert json.loads(proc.stdout.splitlines()[-1]) == [caller or "1", threads]

    @pytest.mark.parametrize("last", ["sampled-collapse", "elbo"])
    def test_convergence_path_never_imports_numpy(self, tmp_path, last):
        convergence, collapse = tmp_path / "convergence", tmp_path / "collapse"
        sampled = tmp_path / "sampled.yaml"
        sampled.write_text(yaml.safe_dump({"simulate": {"preset": "collapse", "mode": "sampled"}}))
        commands = [
            ["simulate", "--preset", "convergence", "--out", str(convergence)],
            ["simulate", "--out", str(collapse)],  # the default preset: exact collapse
            # sampled collapse and the ELBO check do need numpy, so the guard is not vacuous
            {
                "sampled-collapse": ["simulate", "--config", str(sampled)],
                "elbo": ["simulate", "--preset", "elbo"],
            }[last] + ["--out", str(tmp_path / last)],
        ]
        code = (
            "import json, sys\n"
            "from trajreward import simulate\n"
            "seen = ['numpy' in sys.modules]\n"
            "flow = simulate.FlowConfig(step_size=0.01, max_time=200.0, record_every=100)\n"
            "report = simulate.simulate_convergence(simulate.preferred_mass_instance(0.1), flow)\n"
            "assert report.within_bound and report.growth_ok\n"
            "seen.append('numpy' in sys.modules)\n"
            "from trajreward import cli\n"
            f"for argv in {commands!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    seen.append('numpy' in sys.modules)\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # after import, simulate_convergence, the convergence and exact collapse
        # presets, then sampled collapse or the elbo preset
        assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, False, True]
        assert json.loads((convergence / "assertions.json").read_text())["within_bound"] is True
        assert (convergence / "series.jsonl").exists() and (convergence / "sweep.txt").exists()
        assert json.loads((collapse / "assertions.json").read_text())["monotone"] is True
        assert (collapse / "series.jsonl").exists()

    def test_only_an_http_miss_loads_socket_and_only_https_loads_ssl(self, fixtures_dir, tmp_path):
        config = fixtures_dir / "planted_config.yaml"
        batch = fixtures_dir / "planted_batch.jsonl"
        scored = tmp_path / "scored"
        argv = ["score", "--config", str(config), "--input", str(batch), "--out", str(scored)]
        assert main(argv) == 0
        file_cfg = tmp_path / "file.yaml"
        cache = str(scored / "cache.jsonl")
        file_cfg.write_text(yaml.safe_dump({"input": str(batch), "scorer": {"cache_path": cache}}))
        run = tmp_path / "run"
        file_reward = ["reward", "--config", str(file_cfg), "--scorer", "file", "--out"]
        commands = [
            ["segment", "--input", str(batch), "--out", str(tmp_path / "segments")],
            [*file_reward, str(run), "--workers", "1"],
            [
                "analyze", "--rewards", str(run / "rewards.jsonl"), "--matrices",
                str(run / "matrices.jsonl"), "--input", str(batch), "--out", str(tmp_path / "a"),
            ],
            ["reward", "--config", str(config), "--input", str(batch), "--workers", "1",
             "--out", str(tmp_path / "toy")],
            ["simulate", "--preset", "convergence", "--out", str(tmp_path / "convergence")],
            # a thread pool does need concurrent.futures, so that part is not vacuous
            [*file_reward, str(tmp_path / "two-workers"), "--workers", "2"],
        ]
        code = (
            "import json, sys\n"
            "from trajreward import cli\n"
            "def loaded():\n"
            "    names = ('http.client', 'email', 'ssl', 'socket', 'concurrent.futures')\n"
            "    return [m in sys.modules for m in names]\n"
            "seen = [loaded()]\n"
            f"for argv in {commands!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    seen.append(loaded())\n"
            "from trajreward.errors import ServiceUnavailable\n"
            "from trajreward.scoring import HttpScorer, ScoreRequest\n"
            "for url in ('http://127.0.0.1:9', 'https://127.0.0.1:9'):\n"
            "    scorer = HttpScorer(base_url=url, timeout=1.0, attempts=1)\n"
            "    seen.append(loaded())\n"
            "    # a cache miss does open a socket, so that part is not vacuous\n"
            "    try:\n"
            "        scorer.score(ScoreRequest('p', 'c'))\n"
            "    except ServiceUnavailable:\n"
            "        pass\n"
            "    seen.append(loaded())\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # import and five one-worker commands, then two workers, then building
        # an http scorer and its first cache miss (against a closed port), then
        # the same for an https scorer
        idle, pooled = [False] * 5, [False] * 4 + [True]
        http_miss, https_miss = [False, False, False, True, True], [False, False, True, True, True]
        expected = [idle] * 6 + [pooled] * 2 + [http_miss] * 2 + [https_miss]
        assert json.loads(proc.stdout.splitlines()[-1]) == expected
