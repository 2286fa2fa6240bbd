"""The benchmark's own mock backend, injected through ``BackendClient(mock=...)``.

It subclasses the program's deterministic ``MockServer`` and leaves every
reply unchanged. On top it:

* sleeps a seeded per-request latency before each chat reply, without
  touching the run config (a config change would alter the fingerprint);
* counts requests and tokens at the wire boundary, which is what a real
  provider would bill;
* splits the mock's own reply computation (thread CPU time) from the
  scripted sleep, so a faster mock is not mistaken for a faster pipeline.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time

from graphsynth.backends import MockServer


class BenchMock(MockServer):
    def __init__(self, *args, latency_mean_s: float = 0.0, latency_seed: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.latency_mean_s = latency_mean_s
        self.latency_seed = latency_seed
        self._lock = threading.Lock()
        self.chat_requests = 0
        self.embed_requests = 0
        self.tokens = 0
        self.wire_s = 0.0
        self.cpu_s = 0.0

    def latency_for(self, request: dict) -> float:
        """Exponential with mean ``latency_mean_s``, a pure function of the
        request, so the schedule does not depend on thread timing."""
        if self.latency_mean_s <= 0:
            return 0.0
        digest = hashlib.blake2b(
            repr((self.latency_seed, request.get("model"), request.get("messages"))).encode(),
            digest_size=8,
        ).digest()
        u = int.from_bytes(digest, "big") / 2**64
        return -self.latency_mean_s * math.log1p(-u)

    def _account(self, reply: dict, started: float, cpu_started: float, chat: bool) -> None:
        usage = reply.get("usage") or {}
        tokens = int(usage.get("prompt_tokens", 0)) + int(usage.get("completion_tokens", 0))
        wire = time.perf_counter() - started
        cpu = time.thread_time() - cpu_started
        with self._lock:
            if chat:
                self.chat_requests += 1
            else:
                self.embed_requests += 1
            self.tokens += tokens
            self.wire_s += wire
            self.cpu_s += cpu

    def chat_completion(self, request: dict) -> dict:
        started = time.perf_counter()
        delay = self.latency_for(request)
        if delay > 0:
            time.sleep(delay)
        cpu_started = time.thread_time()
        reply = super().chat_completion(request)
        self._account(reply, started, cpu_started, chat=True)
        return reply

    def embeddings(self, request: dict) -> dict:
        started = time.perf_counter()
        cpu_started = time.thread_time()
        reply = super().embeddings(request)
        self._account(reply, started, cpu_started, chat=False)
        return reply

    def counters(self) -> dict:
        with self._lock:
            return {
                "chat_requests": self.chat_requests,
                "embed_requests": self.embed_requests,
                "tokens": self.tokens,
                "wire_s": self.wire_s,
                "cpu_s": self.cpu_s,
            }
