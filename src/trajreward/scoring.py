"""Per-token log-probability sources.

Three interchangeable providers feed the distance and curiosity
computations: a seeded toy n-gram softmax model, a line-delimited
JSON file cache, and an external HTTP scoring service whose replies
are recorded so reruns are deterministic.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import select
import threading
import time
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, Protocol
from urllib.parse import urlsplit

from .errors import CacheMiss, MalformedResponse, ServiceUnavailable
from .trajectory import check_fields, read_jsonl

BOS = "<s>"
SCORER_URL_ENV = "TRAJREWARD_SCORER_URL"


@dataclass(frozen=True)
class ScoreRequest:
    """A (prefix, continuation) pair to score; continuation is non-empty.

    Requests compare and hash by their text, so equal text is scored once
    and shares one cache entry whichever prompt or trajectory asked for it.
    """

    prefix: str
    continuation: str

    def __post_init__(self):
        if not self.continuation:
            raise ValueError("score request continuation must be non-empty")


@dataclass(frozen=True)
class ScoreResponse:
    """One finite log-probability (<= 0) per continuation token, from a scorer or a cache line."""

    token_logprobs: tuple[float, ...]

    def __post_init__(self):
        values = self.token_logprobs
        if not values:
            raise MalformedResponse("token_logprobs is empty")
        if not all(math.isfinite(lp) for lp in values):
            raise MalformedResponse(f"token_logprobs {list(values)} holds a non-finite value")
        if any(lp > 0.0 for lp in values):
            raise MalformedResponse(f"token_logprobs {list(values)} holds a positive value")

    @property
    def token_count(self) -> int:
        return len(self.token_logprobs)


class LogProbSource(Protocol):
    """Scores a prefix's continuations, yielding one response each, in their order."""

    def score_prefix(self, prefix: str, continuations: list[str]) -> Iterable[ScoreResponse]: ...


class PerRequestSource:
    """A source whose ``score`` takes one request; ``score_prefix`` loops over it."""

    def score_prefix(self, prefix: str, continuations: list[str]) -> Iterator[ScoreResponse]:
        for continuation in continuations:
            yield self.score(ScoreRequest(prefix, continuation))


def _stable_digest(*parts: str) -> int:
    h = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "big")


class ToyModel:
    """Seeded n-gram softmax language model over a small symbol vocabulary.

    One Dirichlet(1) base vector ``w`` (normalized ``-log(1 - u)`` draws from
    ``random.Random(seed)``; uniform under ``init: uniform``) serves every
    context of ``order - 1`` tokens, read through that context's permutation
    ``i -> (a*i + b) mod V`` keyed by a digest of (seed, context). Logits can
    be boosted per (context, token) to plant likelihood structure, so
    ``log p(i) = log w[pi(i)] + delta_i - log Z``.
    """

    def __init__(self, vocabulary, order: int = 2, seed: int = 0, init: str = "dirichlet"):
        self.vocabulary = tuple(vocabulary)
        _check_model(self.vocabulary, order, init)
        self.order = order
        self.seed = seed
        self.init = init
        self._index = {tok: i for i, tok in enumerate(self.vocabulary)}
        self._boosts: dict[tuple[str, ...], dict[int, float]] = {}
        size = len(self.vocabulary)
        rng = random.Random(seed)
        draws = [1.0 if init == "uniform" else -math.log(1.0 - rng.random()) for _ in range(size)]
        total = math.fsum(draws)
        self._weights = [x / total for x in draws]
        self._multipliers = [a for a in range(1, size + 1) if math.gcd(a, size) == 1]
        # context -> (a, b, log Z); each value is a pure function of its
        # context, so threads that fill it at once write the same value
        self._contexts: dict[tuple[str, ...], tuple[int, int, float]] = {}

    @staticmethod
    def tokenize(text: str) -> list[str]:
        return text.split()

    def token_index(self, token: str) -> int:
        idx = self._index.get(token)
        if idx is None:
            idx = _stable_digest("oov", token) % len(self.vocabulary)
        return idx

    def context_of(self, tokens) -> tuple[str, ...]:
        n = self.order - 1
        ctx = tuple(tokens[-n:]) if n else ()
        if len(ctx) < n:
            ctx = (BOS,) * (n - len(ctx)) + ctx
        return ctx

    def boost(self, context_tokens, token: str, delta: float) -> None:
        """Add ``delta`` to the logit of ``token`` after ``context_tokens``."""
        ctx = self.context_of(list(context_tokens))
        deltas = self._boosts.setdefault(ctx, {})
        tok_idx = self.token_index(token)
        deltas[tok_idx] = deltas.get(tok_idx, 0.0) + delta
        self._contexts.pop(ctx, None)

    def _context(self, context: tuple[str, ...]) -> tuple[int, int, float]:
        """The context's permutation ``(a, b)`` and its log-normalizer."""
        entry = self._contexts.get(context)
        if entry is None:
            size, units = len(self.vocabulary), len(self._multipliers)
            digest = _stable_digest(str(self.seed), *context)
            a, b = self._multipliers[digest % units], digest // units % size
            deltas, weights = self._boosts.get(context, {}), self._weights
            log_z = 0.0
            if deltas:
                boosted = [(a * i + b) % size for i in deltas]
                terms = [math.log(weights[j]) + d for j, d in zip(boosted, deltas.values())]
                rest = 1.0 - math.fsum(weights[j] for j in boosted)
                if rest < 0.5:  # 1 minus a sum near 1 cancels, even when nothing is left
                    rest = math.fsum(weights[j] for j in set(range(size)).difference(boosted))
                if rest > 0.0:
                    terms.append(math.log(rest))
                top = max(terms)
                log_z = top + math.log(math.fsum(math.exp(t - top) for t in terms))
            entry = self._contexts[context] = (a, b, log_z)
        return entry

    def score_prefix(self, prefix: str, continuations: list[str]) -> Iterator[ScoreResponse]:
        """Score each continuation after one tokenized prefix."""
        n, size, weights = self.order - 1, len(self.vocabulary), self._weights
        head = list(self.context_of(self.tokenize(prefix)))
        for continuation in continuations:
            cont = self.tokenize(continuation)
            if not cont:
                raise MalformedResponse("continuation tokenizes to zero tokens")
            tokens = head + cont
            out = []
            for j, tok in enumerate(cont):
                context = tuple(tokens[j : j + n])
                a, b, log_z = self._context(context)
                i = self.token_index(tok)
                delta = self._boosts.get(context, {}).get(i, 0.0)
                out.append(min(math.log(weights[(a * i + b) % size]) + delta - log_z, 0.0))
            yield ScoreResponse(tuple(out))

    def score(self, request: ScoreRequest) -> ScoreResponse:
        return next(self.score_prefix(request.prefix, [request.continuation]))

    @classmethod
    def from_config(cls, cfg: dict) -> "ToyModel":
        """The model a ``scorer.toy`` mapping describes (see ``check_toy_settings``)."""
        cfg = check_toy_settings(cfg)
        model = cls(cfg["vocabulary"], order=cfg["order"], seed=cfg["seed"], init=cfg["init"])
        for b in cfg["boosts"]:
            model.boost(b["context"], b["token"], b["delta"])
        return model


def _check_model(vocabulary: tuple, order: int, init: str) -> None:
    if order < 1:
        raise ValueError("order must be >= 1")
    if init not in ("dirichlet", "uniform"):
        raise ValueError(f"unknown init {init!r}")
    if not vocabulary:
        raise ValueError("vocabulary must be non-empty")


def check_toy_settings(cfg: dict) -> dict:
    """The rules on ``scorer.toy``, which ``ScorerConfig`` checks at load: a
    missing, unknown or mistyped key, in the mapping or in a boost, or a value
    ``ToyModel`` rejects, is a ValueError. Returns ``cfg`` with its defaults."""
    cfg = {"order": 2, "seed": 0, "init": "dirichlet", "boosts": [], **cfg}
    try:
        kinds = {"vocabulary": list[str], "order": int, "seed": int, "init": str}
        check_fields(cfg, {**kinds, "boosts": list[dict]}, optional={})
        _check_model(cfg["vocabulary"], cfg["order"], cfg["init"])
        for b in cfg["boosts"]:
            check_fields(b, {"context": list[str], "token": str, "delta": float}, optional={})
    except ValueError as exc:
        raise ValueError(f"scorer.toy: {exc}") from exc
    return cfg


class FileCacheScorer(PerRequestSource):
    """Scorer backed by a line-delimited JSON file of precomputed logprobs.

    The cache is content-addressed: each line is ``{"key", "token_logprobs"}``
    with ``key`` a digest of the request's exact (prefix, continuation)
    text. Concurrent readers are safe; writes are serialized by a lock.
    """

    def __init__(self, entries: dict[str, tuple[float, ...]] | None = None):
        self._entries = dict(entries or {})
        self._lock = threading.Lock()

    @classmethod
    def load(cls, path) -> "FileCacheScorer":
        """Read a cache file; a line that is not a cache entry is an InputError."""
        fields = {"key": str, "token_logprobs": list[float]}
        return cls(dict(read_jsonl(path, fields, _cache_entry, optional={})))

    def record(self, request: ScoreRequest, response: ScoreResponse) -> None:
        self.store(_content_key(request), response)

    def store(self, key: str, response: ScoreResponse) -> None:
        """Record ``response`` under a request's content key."""
        with self._lock:
            self._entries[key] = response.token_logprobs

    def lookup(self, key: str) -> ScoreResponse | None:
        """The response recorded under a request's content key, or None."""
        logprobs = self._entries.get(key)
        return None if logprobs is None else ScoreResponse(logprobs)

    def score(self, request: ScoreRequest) -> ScoreResponse:
        key = _content_key(request)
        response = self.lookup(key)
        if response is None:
            raise CacheMiss(f"no cached score (key {key}) for {request.continuation[:40]!r}")
        return response

    def dump(self, path) -> None:
        """Write every entry sorted by key, replacing ``path`` atomically."""
        with self._lock:
            items = sorted(self._entries.items())
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for key, logprobs in items:
                    rec = {"key": key, "token_logprobs": list(logprobs)}
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def __len__(self) -> int:
        return len(self._entries)


def _cache_entry(rec: dict) -> tuple[str, tuple[float, ...]]:
    """A cache line's key and scores; scores that ``ScoreResponse`` rejects are a ValueError."""
    try:
        response = ScoreResponse(tuple(float(x) for x in rec["token_logprobs"]))
    except MalformedResponse as exc:
        raise ValueError(str(exc)) from exc
    return rec["key"], response.token_logprobs


def _content_key(request: ScoreRequest) -> str:
    """Digest of the exact request text; JSON quoting keeps the two parts apart."""
    text = json.dumps([request.prefix, request.continuation])
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def check_http_settings(attempts: int, timeout: float, backoff: float) -> None:
    """The rules on ``HttpScorer``'s settings, which ``ScorerConfig`` checks at load."""
    if attempts < 1:
        raise ValueError(f"scorer.attempts {attempts} must be >= 1")
    if not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"scorer.timeout {timeout} must be finite and > 0")
    if not (math.isfinite(backoff) and backoff >= 0):
        raise ValueError(f"scorer.backoff {backoff} must be finite and >= 0")


class HttpScorer(PerRequestSource):
    """Client for a POST /v1/score service returning {"token_logprobs": [...]}.

    Transient failures are retried with exponential backoff, ``attempts``
    tries in all (``scorer.attempts``, default 3). Every reply is recorded
    into ``cache`` so a rerun against the same cache never re-contacts the
    service. Requests go out as HTTP/1.1 on keep-alive sockets from a
    shared pool; ``close`` closes the idle ones.
    """

    def __init__(
        self,
        base_url: str | None = None,
        timeout: float = 10.0,
        attempts: int = 3,
        backoff: float = 0.1,
        cache: FileCacheScorer | None = None,
    ):
        check_http_settings(attempts, timeout, backoff)
        url = base_url or os.environ.get(SCORER_URL_ENV)
        if not url:
            raise ValueError(f"no scorer URL: pass base_url or set {SCORER_URL_ENV}")
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"scorer URL must look like http://host:port, got {url!r}")
        host = parts.netloc.rpartition("@")[2]
        target = parts.path.rstrip("/") + "/v1/score"
        if any(not " " < c <= "~" for c in host + target):
            raise ValueError(f"scorer URL must be printable ASCII without spaces, got {url!r}")
        self.base_url = url.rstrip("/")
        self.timeout = timeout
        self.attempts = attempts
        self.backoff = backoff
        self.cache = cache if cache is not None else FileCacheScorer()
        https = parts.scheme == "https"
        self._address = (parts.hostname, parts.port or (443 if https else 80))
        self._tls = None  # the TLS context, made at the first https connection
        self._https = https
        self._head = (  # the request up to its Content-Length value
            f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        self._pool = threading.Condition()  # guards the four fields below
        self._idle: list[_Connection] = []
        self._open = 0  # sockets open, idle or in use
        self._answered = 0  # open sockets that have answered a request
        self._cap: int | None = None  # most sockets to open; see _post

    def score(self, request: ScoreRequest) -> ScoreResponse:
        key = _content_key(request)
        cached = self.cache.lookup(key)
        if cached is not None:
            return cached
        payload = {"prefix": request.prefix, "continuation": request.continuation}
        body = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.attempts):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                status, data = self._post(body)
            except OSError as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = ServiceUnavailable(f"HTTP {status}")
                continue
            if status != 200:
                raise MalformedResponse(f"HTTP {status}: {data[:200].decode('utf-8', 'replace')}")
            response = _parse_score_payload(data)
            self.cache.store(key, response)
            return response
        raise ServiceUnavailable(
            f"scoring service failed after {self.attempts} attempts: {last_error}"
        )

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` and return the reply's status and body.

        A fresh socket the service leaves unanswered past ``timeout`` while
        others have answered was never accepted (a service that caps
        connections holds it in its listen backlog): the pool opens no more
        sockets than have answered, and the request goes again on one of
        them. While none has answered, a timeout says only that the service
        is slow, and it is retried as any broken connection is.
        """
        request = b"%b%d\r\n\r\n%b" % (self._head, len(body), body)
        while True:
            conn = self._checkout()
            try:
                if conn is None:
                    conn = self._connect()
                conn.sock.sendall(request)
                status, data, keep = _read_reply(conn.rfile)
            except BaseException as exc:
                with self._pool:
                    self._drop(conn)
                    if isinstance(exc, TimeoutError) and self._answered and not (conn and conn.answered):
                        self._cap = self._answered
                        continue
                raise
            with self._pool:
                if not conn.answered:
                    conn.answered = True
                    self._answered += 1
                if keep:
                    self._idle.append(conn)
                    self._pool.notify()
                else:
                    self._drop(conn)
            return status, data

    def _checkout(self) -> _Connection | None:
        """An idle socket, else None with a place taken for a new one.

        A caller opens a socket only when none is idle, so the pool never
        holds more sockets than there were concurrent callers; past the cap,
        it waits for a socket to come back.
        """
        with self._pool:
            while True:
                while self._idle:
                    conn = self._idle.pop()
                    if not select.select([conn.sock], [], [], 0.0)[0]:
                        return conn
                    self._drop(conn)  # readable while idle: the service closed it
                if self._cap is None or self._open < self._cap:
                    self._open += 1
                    return None
                self._pool.wait()

    def _drop(self, conn: _Connection | None) -> None:
        """Close ``conn`` (None: a place taken by a socket that never opened); holds ``_pool``."""
        if conn is not None:
            conn.close()
            self._answered -= conn.answered
        self._open -= 1
        self._pool.notify()

    def _connect(self) -> _Connection:
        # loaded at the first connection, so a run its cache serves never loads socket or ssl
        import socket

        if self._https and self._tls is None:
            import ssl

            self._tls = ssl.create_default_context()
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def close(self) -> None:
        """Close the idle sockets; a later request opens new ones."""
        with self._pool:
            while self._idle:
                self._drop(self._idle.pop())


class _Connection:
    """A keep-alive socket, a buffered reader on it, and whether it has answered."""

    def __init__(self, sock):
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.answered = False

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


# http.client's limits on a reply's lines and header count
_MAX_LINE = 65536
_MAX_HEADERS = 100
_HEX_DIGITS = b"0123456789abcdefABCDEF"


def _read_reply(rfile) -> tuple[int, bytes, bool]:
    """Read one HTTP/1.x reply: its status, its body, and whether the socket
    may carry the next request.

    The body is framed by ``Transfer-Encoding: chunked``, ``Content-Length``
    or the end of the stream. A reply that breaks the framing is an OSError,
    retried as a broken connection is.
    """
    while True:
        line = _read_line(rfile)
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not (version.startswith(b"HTTP/1.") and code.isdigit() and rest[3:4] in b" \r\n"):
            raise OSError(f"bad status line {line[:80]!r}")
        headers = _read_headers(rfile)
        status = int(code)
        if status >= 200:  # a 1xx reply, such as 100 Continue, comes before the real one
            break
    if status in (204, 304):
        body = b""
    elif headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        body = _read_chunked(rfile)
    elif (length := headers.get(b"content-length")) is not None:
        if not length.isdigit():
            raise OSError(f"bad Content-Length {length[:80]!r}")
        body = _read_exact(rfile, int(length))
    else:
        return status, rfile.read(), False  # the body ends where the service closes the socket
    connection = headers.get(b"connection", b"").lower()
    keep = b"close" not in connection and (version == b"HTTP/1.1" or b"keep-alive" in connection)
    return status, body, keep


def _read_line(rfile) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise OSError(f"reply line longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise OSError("reply cut short")
    return line


def _read_headers(rfile) -> dict[bytes, bytes]:
    """Header (or trailer) lines up to the blank line, by lower-cased name."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n"):
            return headers
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()
    raise OSError(f"reply has more than {_MAX_HEADERS} headers")


def _read_exact(rfile, size: int) -> bytes:
    data = rfile.read(size)
    if len(data) < size:
        raise OSError(f"reply cut short: {len(data)} of {size} body bytes")
    return data


def _read_chunked(rfile) -> bytes:
    chunks = []
    while True:
        digits = _read_line(rfile).split(b";", 1)[0].strip()  # drop chunk extensions
        if not digits or digits.strip(_HEX_DIGITS):
            raise OSError(f"bad chunk size {digits[:80]!r}")
        size = int(digits, 16)
        if not size:
            break
        chunks.append(_read_exact(rfile, size))
        if _read_line(rfile) not in (b"\r\n", b"\n"):
            raise OSError("chunk longer than its size")
    _read_headers(rfile)  # the trailer
    return b"".join(chunks)


def _parse_score_payload(data: bytes) -> ScoreResponse:
    try:
        body = json.loads(data)
    except ValueError as exc:
        raise MalformedResponse(f"non-JSON scorer reply: {exc}") from exc
    if not isinstance(body, dict):
        raise MalformedResponse(f"scorer reply is a JSON {type(body).__name__}, not an object")
    logprobs = body.get("token_logprobs")
    if not isinstance(logprobs, list) or not logprobs:
        raise MalformedResponse("scorer reply missing non-empty token_logprobs")
    try:
        values = tuple(float(x) for x in logprobs)
    except (TypeError, ValueError) as exc:
        raise MalformedResponse(f"non-numeric token_logprobs: {exc}") from exc
    declared = body.get("token_count", len(values))
    if declared != len(values):
        raise MalformedResponse(
            f"token count mismatch: declared {declared}, got {len(values)}"
        )
    return ScoreResponse(values)


def score_batch(
    requests: list[ScoreRequest], source: LogProbSource, parallelism: int = 1
) -> dict[ScoreRequest, ScoreResponse]:
    """Score each distinct request once; the mapping keeps first-use order.

    Each run of distinct requests sharing a prefix (``plan_requests`` puts
    a prefix's requests together) is one ``score_prefix`` call and one unit
    of work for the threads. The first failing request in first-use order
    is raised, with its position among the distinct requests as
    ``request_index``, at any parallelism: a group stops at its first
    failure, and groups not yet started when it fails are never scored.
    """
    unique = list(dict.fromkeys(requests))
    if not unique:
        raise ValueError("score_batch needs at least one request")
    if parallelism < 1:
        raise ValueError("parallelism must be positive")
    units = [list(run) for _, run in groupby(unique, key=attrgetter("prefix"))]

    def score_unit(unit):
        responses = []
        try:
            for response in source.score_prefix(unit[0].prefix, [r.continuation for r in unit]):
                responses.append(response)
        except Exception as exc:
            exc.request_index = len(responses)  # the failing continuation's place in the unit
            raise
        return responses

    with contextlib.ExitStack() as stack:
        if parallelism == 1:
            replies = map(score_unit, units)
        else:
            # loaded here, so a one-worker run never loads concurrent.futures
            from concurrent.futures import ThreadPoolExecutor

            pool = stack.enter_context(ThreadPoolExecutor(max_workers=parallelism))
            replies = pool.map(score_unit, units)
        scores: dict[ScoreRequest, ScoreResponse] = {}
        try:
            for unit, responses in zip(units, replies):
                scores.update(zip(unit, responses))
        except Exception as exc:
            exc.request_index += len(scores)
            raise
    return scores
