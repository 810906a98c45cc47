import contextlib
import json
import math
import random
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, settings, strategies as st
from planted import toy_config

from trajreward import scoring
from trajreward.errors import CacheMiss, MalformedResponse, ServiceUnavailable
from trajreward.scoring import (
    BOS,
    FileCacheScorer,
    HttpScorer,
    PerRequestSource,
    ScoreRequest,
    ScoreResponse,
    ToyModel,
    _stable_digest,
    score_batch,
)

VOCAB = ["a", "b", "c", "d"]


class BoostScanReference:
    """The toy model written out in full: one flat boost map, scanned in full
    for every context, the base weights and the permutation drawn again for
    every table, and nothing cached."""

    def __init__(self, model: ToyModel):
        self.model = model
        self.boosts: dict[tuple[tuple[str, ...], int], float] = {}

    def boost(self, context_tokens, token, delta):
        key = (self.model.context_of(list(context_tokens)), self.model.token_index(token))
        self.boosts[key] = self.boosts.get(key, 0.0) + delta

    def weights(self):
        """The Dirichlet(1) base vector: normalized Exp(1) draws, or uniform."""
        size = len(self.model.vocabulary)
        if self.model.init == "uniform":
            draws = [1.0] * size
        else:
            rng = random.Random(self.model.seed)
            draws = [-math.log(1.0 - rng.random()) for _ in range(size)]
        total = math.fsum(draws)
        return [x / total for x in draws]

    def permutation(self, context):
        """``i -> (a*i + b) mod V``, with ``a`` the digest's pick among the units mod V."""
        size = len(self.model.vocabulary)
        units = [a for a in range(1, size + 1) if math.gcd(a, size) == 1]
        digest = _stable_digest(str(self.model.seed), *context)
        a, b = units[digest % len(units)], digest // len(units) % size
        return [(a * i + b) % size for i in range(size)]

    def deltas(self, context):
        return {tok_idx: delta for (ctx, tok_idx), delta in self.boosts.items() if ctx == context}

    def logits(self, context):
        weights, pi, deltas = self.weights(), self.permutation(context), self.deltas(context)
        return [math.log(weights[pi[i]]) + deltas.get(i, 0.0) for i in range(len(pi))]

    def log_probs(self, context):
        """``logits - log Z``, with ``log Z`` a log-sum-exp over the boosted
        logits and the unboosted mass (0 in a context without boosts)."""
        weights, pi, deltas = self.weights(), self.permutation(context), self.deltas(context)
        logits = self.logits(context)
        log_z = 0.0
        if deltas:
            terms = [logits[i] for i in deltas]
            rest = 1.0 - math.fsum(weights[pi[i]] for i in deltas)
            if rest < 0.5:
                rest = math.fsum(weights[pi[i]] for i in range(len(pi)) if i not in deltas)
            if rest > 0.0:
                terms.append(math.log(rest))
            top = max(terms)
            log_z = top + math.log(math.fsum(math.exp(t - top) for t in terms))
        return [logit - log_z for logit in logits]

    def score(self, request):
        history = request.prefix.split()
        out = []
        for tok in request.continuation.split():
            lp = self.log_probs(self.model.context_of(history))[self.model.token_index(tok)]
            out.append(min(float(lp), 0.0))
            history.append(tok)
        return ScoreResponse(tuple(out))

    def config_boosts(self):
        return [
            {"context": list(ctx), "token": VOCAB[tok_idx], "delta": delta}
            for (ctx, tok_idx), delta in sorted(self.boosts.items())
        ]


def full_vocabulary_log_probs(model: ToyModel, context_tokens) -> list[float]:
    """The model's log-probability of every vocabulary token after ``context_tokens``."""
    responses = model.score_prefix(" ".join(context_tokens), list(model.vocabulary))
    return [response.token_logprobs[0] for response in responses]


class TestToyModel:
    def test_certainty_context_gives_zero_logprobs(self):
        model = ToyModel(VOCAB, order=2, seed=1)
        model.boost(["a"], "b", 1000.0)
        model.boost(["b"], "b", 1000.0)
        resp = model.score(ScoreRequest("a", "b b b"))
        assert resp.token_logprobs == (0.0, 0.0, 0.0)

    def test_uniform_model_gives_log_quarter(self):
        model = ToyModel(VOCAB, order=2, init="uniform")
        resp = model.score(ScoreRequest("a b", "c d a"))
        for lp in resp.token_logprobs:
            assert lp == pytest.approx(math.log(0.25), abs=1e-15)

    def test_scores_match_direct_softmax_of_reference_logits(self):
        model = ToyModel(VOCAB, order=2, seed=42)
        model.boost(["b"], "c", 3.0)
        model.boost(["c"], "a", -2.0)
        reference = BoostScanReference(model)
        reference.boost(["b"], "c", 3.0)
        reference.boost(["c"], "a", -2.0)
        req = ScoreRequest("a b", "c a d b")
        resp = model.score(req)
        history = ["a", "b"]
        for tok, lp in zip(["c", "a", "d", "b"], resp.token_logprobs):
            ctx = (history[-1],)
            logits = reference.logits(ctx)
            probs = [math.exp(x - max(logits)) for x in logits]
            expected = math.log(probs[VOCAB.index(tok)] / sum(probs))
            assert lp == pytest.approx(expected, abs=1e-12)
            history.append(tok)

    def test_full_vocabulary_mass_sums_to_one(self):
        model = ToyModel(VOCAB, order=2, seed=3)
        model.boost(["d"], "a", 1000.0)
        model.boost(["d"], "b", -1000.0)
        model.boost(["zzz"], "c", 2.0)
        for ctx in [(BOS,), ("a",), ("d",), ("zzz",)]:
            total = math.fsum(math.exp(lp) for lp in full_vocabulary_log_probs(model, ctx))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_across_instances(self):
        a = ToyModel(VOCAB, order=3, seed=9)
        b = ToyModel(VOCAB, order=3, seed=9)
        req = ScoreRequest("a b c", "d d a b")
        assert a.score(req) == b.score(req)

    def test_different_seeds_differ(self):
        a = ToyModel(VOCAB, seed=1)
        b = ToyModel(VOCAB, seed=2)
        req = ScoreRequest("a", "b c d")
        assert a.score(req) != b.score(req)

    def test_boost_roundtrip_through_config(self):
        model = ToyModel(VOCAB, order=2, seed=5)
        model.boost(["a"], "c", 4.0)
        clone = ToyModel.from_config(toy_config(model))
        req = ScoreRequest("b a", "c d")
        assert clone.score(req) == model.score(req)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_context_index_matches_boost_scan(self, order):
        model = ToyModel(VOCAB, order=order, seed=11)
        reference = BoostScanReference(model)
        requests = [
            ScoreRequest("a", "b c a b"),
            ScoreRequest("", "a a d"),
            ScoreRequest("c zzz", "b zzz a"),
        ]

        def boost(context, token, delta):
            model.boost(context, token, delta)
            reference.boost(context, token, delta)

        boost(["a"], "b", 2.5)
        boost(["c", "zzz"], "a", -1.25)
        boost(["a"], "b", 0.1)  # same (context, token) again: the deltas add up
        boost(["d", "a"], "oov-token", 0.7)
        assert [model.score(r) for r in requests] == [reference.score(r) for r in requests]

        boost(["a"], "c", 1.5)  # after scoring: the context's cached normalizer must go
        boost(["b"], "b", 3.0)
        assert [model.score(r) for r in requests] == [reference.score(r) for r in requests]

        config = toy_config(model)
        assert config["boosts"] == reference.config_boosts()
        clone = ToyModel.from_config(config)
        assert toy_config(clone) == config
        assert [clone.score(r) for r in requests] == [model.score(r) for r in requests]

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("init", ["dirichlet", "uniform"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_prefix_groups_match_boost_scan(self, order, init, workers):
        model = ToyModel(VOCAB, order=order, seed=13, init=init)
        reference = BoostScanReference(model)
        for context, token, delta in [
            (["a"], "b", 2.5),
            (["c", "zzz"], "a", -1.25),
            (["b", "a"], "d", 0.7),
            (["d"], "c", 1.5),
            (["a", "b"], "c", 1000.0),
        ]:
            model.boost(context, token, delta)
            reference.boost(context, token, delta)
        prefixes = ["", "a", "c zzz", "b a d", "d d c a b"]
        continuations = ["b c a b", "a a d", "b zzz a", "c", "d a", "c d"]
        requests = [ScoreRequest(p, c) for p in prefixes for c in continuations]
        scores = score_batch(requests + requests[::7], model, parallelism=workers)
        assert list(scores) == requests
        for request, response in scores.items():
            expected = reference.score(request).token_logprobs
            assert [lp.hex() for lp in response.token_logprobs] == [lp.hex() for lp in expected]
        # a context keeps its permutation and normalizer, never a table over the vocabulary
        assert model._contexts
        assert all(len(entry) < len(VOCAB) for entry in model._contexts.values())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        size=st.integers(1, 60),
        order=st.integers(1, 3),
        seed=st.integers(),
        boosts=st.lists(
            st.tuples(
                st.lists(st.integers(0, 60), max_size=2),
                st.integers(0, 60),
                st.floats(-1000.0, 1000.0),
            ),
            max_size=12,
        ),
        planted=st.tuples(st.lists(st.integers(0, 60), max_size=2), st.integers(0, 59)),
    )
    @example(size=60, order=2, seed=0, boosts=[([0], 1, -1000.0), ([0], 2, 1000.0)], planted=([0], 1))
    @example(size=59, order=3, seed=7, boosts=[([1, 2], 3, -1000.0)], planted=([], 58))
    # every token boosted: 1 minus the boosted weights is 1 ulp, not 0, at this seed
    @example(size=2, order=1, seed=2, boosts=[([], 0, -1000.0), ([], 1, -1000.0)], planted=([], 1))
    def test_any_model_scores_a_distribution_per_context(self, size, order, seed, boosts, planted):
        vocab = [f"t{k}" for k in range(size)]

        def name(k):  # 60 stands for a token outside the vocabulary
            return "oov" if k == 60 else vocab[k % size]

        model = ToyModel(vocab, order=order, seed=seed)
        contexts = [[], [name(60)]]
        for context, token, delta in boosts:
            contexts.append([name(k) for k in context])
            model.boost(contexts[-1], name(token), delta)
        for context in contexts:
            log_probs = full_vocabulary_log_probs(model, context)
            a, b, _ = model._contexts[model.context_of(context)]
            assert sorted((a * i + b) % size for i in range(size)) == list(range(size))
            assert all(math.isfinite(lp) and lp <= 0.0 for lp in log_probs)
            assert math.fsum(math.exp(lp) for lp in log_probs) == pytest.approx(1.0, abs=1e-12)

        context, top = [name(k) for k in planted[0]], planted[1] % size
        fresh = ToyModel(vocab, order=order, seed=seed)
        fresh.boost(context, vocab[top], 64.0)
        log_probs = full_vocabulary_log_probs(fresh, context)
        assert all(lp < log_probs[top] for i, lp in enumerate(log_probs) if i != top)

    def test_oov_tokens_score_deterministically(self):
        model = ToyModel(VOCAB, seed=0)
        r1 = model.score(ScoreRequest("unknown words", "more unknown"))
        r2 = model.score(ScoreRequest("unknown words", "more unknown"))
        assert r1 == r2


class TestScoreResponse:
    def test_positive_logprob_rejected(self):
        with pytest.raises(MalformedResponse):
            ScoreResponse((0.1,))

    def test_empty_rejected(self):
        with pytest.raises(MalformedResponse):
            ScoreResponse(())

    @pytest.mark.parametrize("value", [math.nan, -math.inf, math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(MalformedResponse):
            ScoreResponse((-1.0, value))

    def test_empty_continuation_rejected(self):
        with pytest.raises(ValueError):
            ScoreRequest("p", "")


class CountingSource(PerRequestSource):
    """A toy model that counts the calls it gets, per request."""

    def __init__(self, model):
        self.model = model
        self.calls: dict[ScoreRequest, int] = {}
        self._lock = threading.Lock()

    def score(self, request):
        with self._lock:
            self.calls[request] = self.calls.get(request, 0) + 1
        return self.model.score(request)


class TestScoreBatch:
    def test_batch_of_one_equals_single(self):
        model = ToyModel(VOCAB, seed=1)
        req = ScoreRequest("a", "b c")
        assert score_batch([req], model) == {req: model.score(req)}

    def test_duplicated_request_identical_positions(self):
        source = CountingSource(ToyModel(VOCAB, seed=1))
        req = ScoreRequest("a", "b c")
        other = ScoreRequest("b", "a")
        out = score_batch([req, other, req], source, parallelism=3)
        assert list(out) == [req, other]
        assert source.calls == {req: 1, other: 1}
        assert out[req] == source.model.score(req)

    def test_request_grid_count(self):
        # 4 trajectories x 3 states x 2 candidate answers = 24 cells; the
        # bare-prompt row is the same text in every trajectory, so the plan
        # holds 24 - 3 * 2 = 18 distinct requests
        from trajreward.distance import plan_requests
        from trajreward.trajectory import PromptBatch, SegmentationRules, segment_trajectory

        rules = SegmentationRules(
            delimiter=r"\n\n", min_step_chars=1, answer_pattern=r"Answer: (.*)"
        )
        batch = PromptBatch("p", "q\n\n")
        cells = []
        for j in range(4):
            traj = segment_trajectory(
                f"s{j}1\n\ns{j}2\n\ns{j}3\n\nAnswer: {7 if j % 2 else 9}",
                rules,
                traj_id=f"t{j}",
                prompt_text="q\n\n",
            )
            assert traj.num_steps == 3
            batch.trajectories.append(traj)
            cells.extend(
                ScoreRequest(traj.state_prefix(i), a) for i in range(3) for a in ("7", "9")
            )
        plan = plan_requests(batch, steps=False)
        assert len(cells) == 24
        assert len(plan) == 18
        assert set(plan) == set(cells)
        with_steps = plan_requests(batch, steps=True)
        assert len(with_steps) == 18 + 12
        step_reqs = {
            ScoreRequest(t.state_prefix(i), t.steps[i].text)
            for t in batch.trajectories
            for i in range(3)
        }
        assert set(with_steps) - set(plan) == step_reqs
        # grouped by prefix: each prefix's requests are contiguous, prefixes
        # come in first-use order, and dropping the steps leaves the cell plan
        for reqs in (plan, with_steps):
            prefixes = [r.prefix for r in reqs]
            runs = [p for i, p in enumerate(prefixes) if i == 0 or p != prefixes[i - 1]]
            assert len(runs) == len(set(runs))
            assert runs == list(dict.fromkeys(r.prefix for r in cells))
        assert [r for r in with_steps if r not in step_reqs] == plan

    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_order_independence(self, workers):
        source = CountingSource(ToyModel(VOCAB, seed=2))
        reqs = [ScoreRequest("a b", f"{t} d") for t in reversed(VOCAB) for _ in range(3)]
        out = score_batch(reqs, source, parallelism=workers)
        first_use = [ScoreRequest("a b", f"{t} d") for t in reversed(VOCAB)]
        assert list(out) == first_use
        assert out == {r: source.model.score(r) for r in first_use}
        assert out == score_batch(reqs, source.model)
        assert source.calls == dict.fromkeys(first_use, 1)

    def test_error_carries_first_failing_index(self):
        cache = FileCacheScorer()
        good = ScoreRequest("x", "7")
        bad = ScoreRequest("x", "9")
        cache.record(good, ScoreResponse((-1.0,)))
        with pytest.raises(CacheMiss) as err:
            score_batch([good, bad, bad], cache, parallelism=2)
        assert err.value.request_index == 1

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_first_failure_stops_the_batch(self, workers):
        reqs = [ScoreRequest("p", f"t{i}") for i in range(200)]
        calls = 0
        lock = threading.Lock()

        class FailsOnRequestOne(PerRequestSource):
            def score(self, request):
                nonlocal calls
                with lock:
                    calls += 1
                time.sleep(0.001)
                if request == reqs[1]:
                    raise ServiceUnavailable(f"down for {request.continuation}")
                return ScoreResponse((-1.0,))

        with pytest.raises(ServiceUnavailable) as err:
            score_batch(reqs, FailsOnRequestOne(), parallelism=workers)
        assert err.value.request_index == 1
        assert str(err.value) == "down for t1"
        assert calls < 50

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failure_inside_a_prefix_group_reports_its_plan_position(self, workers):
        reqs = [ScoreRequest(f"p{g}", f"t{i}") for g in range(40) for i in range(5)]
        calls = 0
        lock = threading.Lock()

        class FailsOnRequestThirteen(PerRequestSource):
            def score(self, request):
                nonlocal calls
                with lock:
                    calls += 1
                time.sleep(0.001)
                if request == reqs[13]:  # the fourth continuation of the third prefix
                    raise ServiceUnavailable("down")
                return ScoreResponse((-1.0,))

        with pytest.raises(ServiceUnavailable) as err:
            score_batch(reqs, FailsOnRequestThirteen(), parallelism=workers)
        assert err.value.request_index == 13
        assert calls < 60

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_score_prefix_failure_reports_its_plan_position(self, workers):
        # a continuation of blanks tokenizes to nothing, which the toy model rejects
        reqs = [ScoreRequest(p, c) for p in ("a", "b", "c") for c in ("b", "d")]
        reqs.insert(3, ScoreRequest("b", " "))  # the second continuation of the second prefix
        with pytest.raises(MalformedResponse) as err:
            score_batch(reqs, ToyModel(VOCAB, seed=1), parallelism=workers)
        assert err.value.request_index == 3

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            score_batch([], ToyModel(VOCAB))


class TestFileCache:
    def test_roundtrip(self, tmp_path):
        cache = FileCacheScorer()
        req = ScoreRequest("state text", "42")
        cache.record(req, ScoreResponse((-0.5, -1.25)))
        path = tmp_path / "cache.jsonl"
        cache.dump(path)
        loaded = FileCacheScorer.load(path)
        assert loaded.score(ScoreRequest("state text", "42")).token_logprobs == (-0.5, -1.25)
        assert list(tmp_path.iterdir()) == [path]  # the temporary file was renamed away

    def test_miss_raises(self):
        cache = FileCacheScorer()
        cache.record(ScoreRequest("p", "c"), ScoreResponse((-1.0,)))
        with pytest.raises(CacheMiss):
            cache.score(ScoreRequest("p", "nope"))
        with pytest.raises(CacheMiss):
            cache.score(ScoreRequest("other prefix", "c"))

    def test_key_separates_prefix_from_continuation(self):
        # joining the two strings with a separator would make these collide
        cache = FileCacheScorer()
        cache.record(ScoreRequest("a\x1fb", "c"), ScoreResponse((-1.0,)))
        with pytest.raises(CacheMiss):
            cache.score(ScoreRequest("a", "b\x1fc"))

    def test_dump_is_sorted_and_stable(self, tmp_path):
        c1, c2 = FileCacheScorer(), FileCacheScorer()
        r1 = ScoreRequest("p", "1")
        r2 = ScoreRequest("p 1", "1")
        c1.record(r1, ScoreResponse((-1.0,)))
        c1.record(r2, ScoreResponse((-2.0,)))
        c2.record(r2, ScoreResponse((-2.0,)))
        c2.record(r1, ScoreResponse((-1.0,)))
        c1.dump(tmp_path / "a.jsonl")
        c2.dump(tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        lines = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
        assert [sorted(rec) for rec in lines] == [["key", "token_logprobs"]] * 2
        assert [rec["key"] for rec in lines] == sorted(rec["key"] for rec in lines)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1]",
            '"text"',
            '{"token_logprobs": [-1.0]}',
            '{"key": "k"}',
            '{"key": 3, "token_logprobs": [-1.0]}',
            '{"key": "k", "token_logprobs": 5}',
            '{"key": "k", "token_logprobs": [-1.0, "x"]}',
            # the per-trajectory format written before the cache was content-addressed
            '{"continuation_id": "7", "kind": "answer", "prompt_id": "p", "state_index": 0, '
            '"token_logprobs": [-1.0], "traj_id": "t"}',
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"key": "k", "token_logprobs": [-1.0]})
        path.write_text(f"{good}\n\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
            FileCacheScorer.load(path)


class _ScriptedHandler(BaseHTTPRequestHandler):
    script = []  # list of (status, body-or-None); last entry repeats
    calls = 0
    connections = 0
    base_path = ""  # the scorer URL's path, before /v1/score

    def setup(self):
        super().setup()
        type(self).connections += 1

    def do_POST(self):
        cls = type(self)
        self.rfile.read(int(self.headers["Content-Length"]))
        idx = min(cls.calls, len(cls.script) - 1)
        status, body = cls.script[idx]
        cls.calls += 1
        if self.path != cls.base_path + "/v1/score":
            status, body = 404, {}
        payload = json.dumps(body or {}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        # with keep-alive, close every second request's connection without
        # telling the client, as a server's idle timeout would
        if self.protocol_version == "HTTP/1.1" and cls.calls % 2 == 0:
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    servers = []

    def start(script, keep_alive=False, base_path=""):
        attrs = {"script": script, "calls": 0, "connections": 0, "base_path": base_path}
        if keep_alive:
            attrs["protocol_version"] = "HTTP/1.1"
        handler = type("Handler", (_ScriptedHandler,), attrs)
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}{base_path}", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestHttpScorer:
    def test_success_and_cache_recording(self, http_server):
        url, handler = http_server([(200, {"token_logprobs": [-0.5, -1.5]})])
        scorer = HttpScorer(base_url=url, backoff=0.0)
        req = ScoreRequest("hello", "world bye")
        first = scorer.score(req)
        second = scorer.score(req)
        assert first.token_logprobs == (-0.5, -1.5)
        assert second == first
        assert handler.calls == 1  # second hit came from the cache

    def test_a_miss_computes_its_content_key_once(self, http_server, monkeypatch, tmp_path):
        url, handler = http_server([(200, {"token_logprobs": [-1.0]})])
        content_key, calls = scoring._content_key, []

        def counting(request):
            calls.append(request)
            return content_key(request)

        monkeypatch.setattr(scoring, "_content_key", counting)
        scorer = HttpScorer(base_url=url, backoff=0.0)
        requests = [ScoreRequest("p", f"c{i}") for i in range(5)]
        for req in requests:
            assert scorer.score(req).token_logprobs == (-1.0,)
        assert handler.calls == len(requests)
        assert calls == requests
        # the cache holds what recording each reply by its request holds
        reference = FileCacheScorer()
        for req in requests:
            reference.record(req, ScoreResponse((-1.0,)))
        scorer.cache.dump(tmp_path / "scorer.jsonl")
        reference.dump(tmp_path / "reference.jsonl")
        assert (tmp_path / "scorer.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()

    def test_retry_then_success(self, http_server):
        url, handler = http_server(
            [(503, None), (503, None), (200, {"token_logprobs": [-1.0]})]
        )
        scorer = HttpScorer(base_url=url, backoff=0.0)
        assert scorer.score(ScoreRequest("p", "c")).token_logprobs == (-1.0,)
        assert handler.calls == 3

    def test_service_unavailable_after_retries(self, http_server):
        url, handler = http_server([(503, None)])
        scorer = HttpScorer(base_url=url, backoff=0.0, attempts=3)
        with pytest.raises(ServiceUnavailable):
            scorer.score(ScoreRequest("p", "c"))
        assert handler.calls == 3

    def test_malformed_payload(self, http_server):
        url, _ = http_server([(200, {"something": 1})])
        with pytest.raises(MalformedResponse):
            HttpScorer(base_url=url, backoff=0.0).score(ScoreRequest("p", "c"))

    def test_token_count_mismatch(self, http_server):
        url, _ = http_server([(200, {"token_logprobs": [-1.0, -2.0], "token_count": 3})])
        with pytest.raises(MalformedResponse):
            HttpScorer(base_url=url, backoff=0.0).score(ScoreRequest("p", "c"))

    @pytest.mark.parametrize("declared", [[2], "two"])
    def test_non_numeric_token_count_rejected(self, http_server, declared):
        url, _ = http_server([(200, {"token_logprobs": [-1.0, -2.0], "token_count": declared})])
        with pytest.raises(MalformedResponse):
            HttpScorer(base_url=url, backoff=0.0).score(ScoreRequest("p", "c"))

    def test_positive_logprob_rejected(self, http_server):
        url, _ = http_server([(200, {"token_logprobs": [0.25]})])
        with pytest.raises(MalformedResponse):
            HttpScorer(base_url=url, backoff=0.0).score(ScoreRequest("p", "c"))

    def test_nan_logprob_rejected(self, http_server):
        url, _ = http_server([(200, {"token_logprobs": [-1.0, math.nan]})])
        with pytest.raises(MalformedResponse):
            HttpScorer(base_url=url, backoff=0.0).score(ScoreRequest("p", "c"))

    def test_non_object_reply_rejected(self, http_server):
        url, _ = http_server([(200, [1])])
        with pytest.raises(MalformedResponse):
            HttpScorer(base_url=url, backoff=0.0).score(ScoreRequest("p", "c"))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_prefix_group_stops_at_its_first_failure(self, http_server, workers):
        url, handler = http_server([(200, {"token_logprobs": [-1.0]}), (400, None)])
        reqs = [ScoreRequest("p", f"c{i}") for i in range(3)]
        with pytest.raises(MalformedResponse) as err:
            score_batch(reqs, HttpScorer(base_url=url, backoff=0.0), parallelism=workers)
        assert err.value.request_index == 1
        assert handler.calls == 2  # the third continuation is never sent

    def test_keep_alive_connection_reused_and_reopened(self, http_server):
        # HTTP/1.1 replies keep the connection open; the server then drops
        # every second connection while it sits idle in the client's pool
        url, handler = http_server([(200, {"token_logprobs": [-1.0]})], keep_alive=True)
        scorer = HttpScorer(base_url=url, backoff=0.0, attempts=1)
        for i in range(4):
            assert scorer.score(ScoreRequest("p", f"c{i}")).token_logprobs == (-1.0,)
            time.sleep(0.05)
        scorer.close()
        assert handler.calls == 4
        assert handler.connections == 2

    def test_url_from_environment(self, http_server, monkeypatch):
        url, _ = http_server([(200, {"token_logprobs": [-1.0]})])
        monkeypatch.setenv("TRAJREWARD_SCORER_URL", url)
        scorer = HttpScorer(backoff=0.0)
        assert scorer.score(ScoreRequest("p", "c")).token_logprobs == (-1.0,)

    @pytest.mark.parametrize("base_path", ["/models/a%2Fb", "/%25d/%s%%"])
    def test_percent_encoded_url_path_sent_unchanged(self, http_server, base_path):
        url, handler = http_server([(200, {"token_logprobs": [-1.0]})], base_path=base_path)
        scorer = HttpScorer(base_url=url + "/", backoff=0.0, attempts=1)
        assert scorer.score(ScoreRequest("p", "c")).token_logprobs == (-1.0,)
        assert handler.calls == 1

    def test_missing_url_rejected(self, monkeypatch):
        monkeypatch.delenv("TRAJREWARD_SCORER_URL", raising=False)
        with pytest.raises(ValueError):
            HttpScorer()

    @pytest.mark.parametrize(
        "url", ["ftp://h:1", "http:///v1", "http://h:99999", "http://h:port", "http://h/a b", "http://h/é"]
    )
    def test_bad_url_rejected_when_built(self, url):
        with pytest.raises(ValueError):
            HttpScorer(base_url=url)


class _RawServer:
    """Answers each request with the next scripted reply's raw bytes, the
    last one repeating. A reply ``(data, True)`` closes its connection after
    the bytes. With ``read_requests`` false, a connection's first read, of
    whatever the client sends, stands for its request. ``delays`` are the
    seconds to wait before each reply, the last one repeating."""

    def __init__(self, replies, read_requests=True, delays=(0.0,)):
        self.replies = [r if isinstance(r, tuple) else (r, False) for r in replies]
        self.read_requests = read_requests
        self.delays = delays
        self.requests = 0
        self.connections = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:  # the listener was shut down
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        # a client that stopped waiting may have closed the socket before the reply
        with conn, conn.makefile("rb") as rfile, contextlib.suppress(OSError):
            while self._read_request(conn, rfile):
                n, self.requests = self.requests, self.requests + 1
                data, close = self.replies[min(n, len(self.replies) - 1)]
                time.sleep(self.delays[min(n, len(self.delays) - 1)])
                conn.sendall(data)
                if close:
                    return

    def _read_request(self, conn, rfile) -> bool:
        if not self.read_requests:
            return bool(conn.recv(65536))
        if not rfile.readline():
            return False
        length = 0
        while (line := rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        return len(rfile.read(length)) == length

    def stop(self):
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()


PAYLOAD = b'{"token_logprobs": [-0.5, -1.5]}'


def _reply(head: bytes, body: bytes = PAYLOAD) -> bytes:
    return head.replace(b"\n", b"\r\n") + b"\r\n" + body


OK = _reply(b"HTTP/1.1 200 OK\nContent-Length: %d\n" % len(PAYLOAD))


@pytest.fixture
def raw_server():
    servers = []

    def start(*replies, read_requests=True, delays=(0.0,)):
        servers.append(_RawServer(replies, read_requests, delays))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


class TestReplyFraming:
    """Replies framed every way HTTP/1.x allows give the same scores; a
    broken reply is retried, then is ServiceUnavailable."""

    def score_twice(self, server):
        scorer = HttpScorer(base_url=server.url, backoff=0.0, attempts=1, timeout=5.0)
        for i in range(2):
            assert scorer.score(ScoreRequest("p", f"c{i}")).token_logprobs == (-0.5, -1.5)
        scorer.close()
        assert server.requests == 2
        return server.connections

    def test_content_length_keeps_the_socket(self, raw_server):
        assert self.score_twice(raw_server(OK)) == 1

    def test_chunked_body_with_trailer(self, raw_server):
        head, tail = PAYLOAD[:9], PAYLOAD[9:]
        body = b"%x;ext=1\r\n%s\r\n%X\r\n%s\r\n0\r\nX-Digest: none\r\n\r\n" % (
            len(head), head, len(tail), tail,
        )
        reply = _reply(b"HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", body)
        assert self.score_twice(raw_server(reply)) == 1

    def test_http_1_0_body_ends_at_eof_and_the_socket_is_not_reused(self, raw_server):
        reply = _reply(b"HTTP/1.0 200 OK\nContent-Type: application/json\n")
        assert self.score_twice(raw_server((reply, True))) == 2

    def test_connection_close_is_not_reused(self, raw_server):
        # the server would take a second request on the socket; the client must not send one
        reply = _reply(b"HTTP/1.1 200 OK\nConnection: close\nContent-Length: %d\n" % len(PAYLOAD))
        assert self.score_twice(raw_server(reply)) == 2

    def test_http_1_0_keep_alive_is_reused(self, raw_server):
        head = b"HTTP/1.0 200 OK\nConnection: keep-alive\nContent-Length: %d\n" % len(PAYLOAD)
        assert self.score_twice(raw_server(_reply(head))) == 1

    def test_100_continue_before_the_reply(self, raw_server):
        assert self.score_twice(raw_server(_reply(b"HTTP/1.1 100 Continue\n", b"") + OK)) == 1

    @pytest.mark.parametrize(
        "reply",
        [
            _reply(b"HTTP/1.1 200 OK\nContent-Length: 100\n"),  # body cut short
            b"garbage\r\n\r\n",
            _reply(b"HTTP/1.1 200 OK\nX-Long: %s\nContent-Length: %d\n" % (b"a" * 65536, len(PAYLOAD))),
            _reply(b"HTTP/1.1 200 OK\n" + b"X-Many: 1\n" * 101 + b"Content-Length: %d\n" % len(PAYLOAD)),
            _reply(b"HTTP/1.1 200 OK\nContent-Length: -1\n"),
            _reply(b"HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"zz\r\n" + PAYLOAD),
        ],
        ids=["cut-short", "garbage-status", "long-header", "101-headers", "bad-length", "bad-chunk"],
    )
    def test_broken_reply_is_retried_then_service_unavailable(self, raw_server, reply):
        server = raw_server((reply, True))
        scorer = HttpScorer(base_url=server.url, backoff=0.0, attempts=3, timeout=5.0)
        with pytest.raises(ServiceUnavailable, match="after 3 attempts"):
            scorer.score(ScoreRequest("p", "c"))
        assert server.requests == 3

    def test_pool_counts_hold_under_many_threads(self, raw_server):
        scorer = HttpScorer(base_url=raw_server(OK).url, backoff=0.0, timeout=5.0)
        reqs = [ScoreRequest(f"p{i % 50}", f"c{i}") for i in range(500)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = score_batch(reqs, scorer, parallelism=8)
        finally:
            sys.setswitchinterval(interval)
        assert {r.token_logprobs for r in out.values()} == {(-0.5, -1.5)}
        assert 1 <= len(scorer._idle) <= 8
        scorer.close()
        assert (scorer._open, scorer._answered, scorer._idle) == (0, 0, [])

    def test_a_slow_first_reply_does_not_cap_the_pool(self, raw_server):
        # the first reply comes after the timeout, while no socket has
        # answered: that is a slow service, not a connection limit
        server = raw_server(OK, delays=(1.5, 0.05))
        scorer = HttpScorer(base_url=server.url, backoff=0.0, attempts=2, timeout=0.5)
        assert scorer.score(ScoreRequest("p", "c")).token_logprobs == (-0.5, -1.5)
        reqs = [ScoreRequest(f"p{i}", "c") for i in range(8)]
        score_batch(reqs, scorer, parallelism=4)
        assert scorer._cap is None
        assert len(scorer._idle) > 1
        scorer.close()

    def test_https_against_plain_http_fails_without_waiting(self, raw_server):
        server = raw_server(
            (_reply(b"HTTP/1.1 400 Bad Request\nContent-Length: 0\n", b""), True),
            read_requests=False,
        )
        url = server.url.replace("http://", "https://")
        scorer = HttpScorer(base_url=url, backoff=0.0, attempts=2, timeout=5.0)
        start = time.perf_counter()
        with pytest.raises(ServiceUnavailable, match="after 2 attempts"):
            scorer.score(ScoreRequest("p", "c"))
        assert time.perf_counter() - start < 2.0
        assert server.connections == 2
