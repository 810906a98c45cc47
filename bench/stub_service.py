"""Stub scoring service for the http-service workload, standard library only.

Answers ``POST /v1/score {"prefix", "continuation"}`` with one
log-probability per whitespace token of the continuation. Each value is a
pure function of (seed, prefix, continuation, position), and every value
served is kept so the benchmark can recompute the program's rewards from
exactly what it received.

A seeded share of contents is refused once with 503 on its first attempt,
so the client's retry path runs. The service counts requests received,
distinct contents, retries, requests received during the replay phase and
its own busy time.
"""

from __future__ import annotations

import hashlib
import json
import socketserver
import threading
import time

REFUSE_ONE_IN = 64
REASONS = {200: b"OK", 400: b"Bad Request", 404: b"Not Found", 503: b"Service Unavailable"}


def _unit(*parts: str) -> float:
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def token_logprobs(seed: int, prefix: str, continuation: str) -> list[float]:
    n = len(continuation.split())
    return [-(0.05 + 6.0 * _unit(str(seed), prefix, continuation, str(i)) ** 2) for i in range(n)]


def refused_once(seed: int, prefix: str, continuation: str) -> bool:
    return _unit("refuse", str(seed), prefix, continuation) < 1.0 / REFUSE_ONE_IN


class _Handler(socketserver.StreamRequestHandler):
    """Minimal HTTP/1.1 keep-alive handler.

    http.server's header parsing costs several times the scoring work, and
    the stub shares the two CPUs with the program; a lean parser keeps the
    stub's CPU and reply latency small next to the client's.
    """

    # Without TCP_NODELAY, small replies hit the 40 ms delayed-ACK stall,
    # which would make the stub, not the program, set the pass time.
    disable_nagle_algorithm = True
    timeout = 60

    def handle(self):
        try:
            self._serve_connection()
        except (TimeoutError, ConnectionError):
            pass  # the client went away or idled past the timeout

    def _serve_connection(self):
        while True:
            request_line = self.rfile.readline(65537)
            if not request_line:
                return
            start = time.perf_counter()
            length, close = 0, False
            while True:
                header = self.rfile.readline(65537)
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection" and value.strip().lower() == b"close":
                    close = True
            body = self.rfile.read(length)
            parts = request_line.split()
            if len(parts) == 3 and parts[0] == b"POST":
                status, payload = self.server.answer(parts[1].decode("latin-1"), body)
            else:
                status, payload, close = 400, {"error": "expected POST"}, True
            data = json.dumps(payload).encode("utf-8")
            self.wfile.write(
                b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
                % (status, REASONS[status], len(data), data)
            )
            self.server.add_busy(time.perf_counter() - start)
            if close:
                return


class StubScoringService(socketserver.ThreadingTCPServer):
    """Scoring service on 127.0.0.1 with at most ``max_connections`` open."""

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, seed: int, max_connections: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.seed = seed
        self._slots = threading.BoundedSemaphore(max_connections)
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self.served: dict[tuple[str, str], list[float]] = {}
        self.begin_phase()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, name="stub-service")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        self.server_close()

    def begin_phase(self) -> None:
        """Start counting a new phase (first run, replay); refusals restart with it."""
        with self._lock:
            self._seen: set[tuple[str, str]] = set()
            self._pending_retry: set[tuple[str, str]] = set()
            self.counts = {"requests": 0, "unique_content": 0, "retries": 0, "busy_s": 0.0}

    # connection limit: a slot is held for the life of each connection
    def process_request(self, request, client_address):
        self._slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def add_busy(self, seconds: float) -> None:
        with self._lock:
            self.counts["busy_s"] += seconds

    def answer(self, path: str, body: bytes) -> tuple[int, dict]:
        if path != "/v1/score":
            return 404, {"error": f"no route {path}"}
        try:
            req = json.loads(body)
            key = (req["prefix"], req["continuation"])
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": f"bad request: {exc}"}
        with self._lock:
            self.counts["requests"] += 1
            if key in self._pending_retry:
                self._pending_retry.discard(key)
                self.counts["retries"] += 1
            if key not in self._seen:
                self._seen.add(key)
                self.counts["unique_content"] += 1
                if refused_once(self.seed, *key):
                    self._pending_retry.add(key)
                    return 503, {"error": "busy, retry"}
            logprobs = self.served.get(key)
            if logprobs is None:
                logprobs = self.served[key] = token_logprobs(self.seed, *key)
        return 200, {"token_logprobs": logprobs}
