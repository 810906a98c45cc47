import csv
import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import yaml

from trajreward.cli import main
from trajreward.planted import PlantedSpec, planted_model, planted_records


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
        "scorer": {"source": "toy", "toy": planted_model(spec).to_config()},
        "reward": {"variant": "vector", "curiosity": True},
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    return cfg_path, tmp_path


def read_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


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

    def test_partial_failure_keeps_good_batches(self, planted_setup, tmp_path):
        cfg_path, base = planted_setup
        cfg = yaml.safe_load(cfg_path.read_text())
        # second prompt's scores are missing from the cache built for the first
        assert main(["score", "--config", str(cfg_path), "--out", str(base / "cache")]) == 0
        records = read_lines(cfg["input"])
        # the cache is content-addressed, so p1 needs text the cache has not seen
        extra = [
            dict(rec, prompt_id="p1", traj_id=f"x{i}", prompt_text="another question\n\n")
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

    def test_unknown_preset_rejected(self, tmp_path):
        cfg_path = tmp_path / "sim.yaml"
        cfg_path.write_text(yaml.safe_dump({"simulate": {"preset": "mystery"}}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "scorer: {source: toy\n",  # malformed YAML
            "- reward\n- simulate\n",  # a document that is not a mapping
            "segmentation:\n  min_chars: 3\n",  # unknown segmentation key
            "seed: [1]\n",  # a top-level value of the wrong kind
            "worker: 4\n",  # unknown top-level key
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
        "command, line, message",
        [
            ("segment", "[1, 2]", "not a JSON object but list"),
            ("reward", '"text"', "not a JSON object but str"),
            ("analyze-input", '{"traj_id": "t9"}', "missing fields ['response_text']"),
            ("analyze-rewards", '{"traj_id": "t1", "vol": 0.5, "r_cur": 0.0}', "['con']"),
            ("analyze-rewards", "[1]", "not a JSON object but list"),
        ],
    )
    def test_malformed_jsonl_line_is_input_error(self, tmp_path, capsys, command, line, message):
        good = {
            "prompt_id": "p", "traj_id": "t0", "prompt_text": "q\n\n",
            "response_text": "a b\n\nAnswer: 7", "con": 1.0, "vol": 0.0, "r_cur": 0.0,
        }
        good_path, path = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        good_path.write_text(json.dumps(good) + "\n")
        path.write_text(json.dumps(good) + "\n" + line + "\n")
        out = str(tmp_path / "o")
        if command == "analyze-input":
            argv = ["analyze", "--input", str(path), "--rewards", str(good_path), "--out", out]
        elif command == "analyze-rewards":
            argv = ["analyze", "--rewards", str(path), "--out", out]
        else:
            argv = [command, "--input", str(path), "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: ")
        assert message in err
        assert err.count("\n") == 1


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
        assert (base / "http_cache.jsonl").exists()
        sent = len(handler.received)
        assert main(["reward", "--config", str(cfg_file), "--out", str(base / "replay")]) == 0
        assert len(handler.received) == sent
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


class TestSegmentCommand:
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
            "scorer": {"source": "toy", "toy": planted_model(spec).to_config()},
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
            "scorer": {"source": "toy", "toy": planted_model(spec).to_config()},
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
            "scorer": {"source": "toy", "toy": planted_model(spec).to_config()},
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


class TestShippedFixture:
    def test_fixture_matches_generator(self, fixtures_dir):
        spec = PlantedSpec()
        expected = planted_records(spec)
        shipped = read_lines(fixtures_dir / "planted_batch.jsonl")
        assert shipped == expected
        cfg = yaml.safe_load((fixtures_dir / "planted_config.yaml").read_text())
        assert cfg["scorer"]["toy"] == planted_model(spec).to_config()
