"""Uniform access to text-generation, judging, and embedding backends.

The wire protocol is the de-facto OpenAI-compatible one: POST
``{endpoint}/chat/completions`` for generation/judging and
``{endpoint}/embeddings`` for vectors. ``complete`` returns the reply text
and ``embed`` unit row vectors; token counts go only to the client's
``UsageTracker``. Both build the payload and hand it to one request path,
``BackendClient._post``, the only place that tells the transports apart.
A descriptor whose endpoint is the marker string ``"mock"`` goes to an
in-process :class:`MockServer` that speaks the same request/response
shapes, so the whole pipeline runs offline and reproducibly; any other
endpoint goes over HTTP with retries, over keep-alive ``http.client``
connections that the client keeps idle between calls, per scheme, host and
port, until ``close()``. ``http.client`` and ``ssl`` are imported on the
first HTTP call, so a mock run never loads an HTTP stack.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import random
import re
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence
from urllib.parse import SplitResult, urlsplit

import numpy as np

from ._util import canonicalize, is_int, is_number, reject_unknown_keys, stable_int
from .errors import ConfigurationError, ProtocolError, TransportError

ROLES = (
    "extractor",
    "generator",
    "rater",
    "solver_small",
    "solver_large",
    "judge",
    "embedder",
)

MOCK_ENDPOINT = "mock"

_RETRYABLE_STATUS = {408, 409, 425, 429, 500, 502, 503, 504}


@dataclass
class RequestParams:
    """Per-backend request knobs; all overridable from the run config."""

    temperature: float = 0.0
    max_output_tokens: int = 1024
    max_attempts: int = 4
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.2
    timeout: float = 60.0

    def __post_init__(self) -> None:
        for key, ok, bound in (
            ("temperature", self.temperature >= 0, ">= 0"),
            ("max_output_tokens", self.max_output_tokens >= 1, ">= 1"),
            ("max_attempts", self.max_attempts >= 1, ">= 1"),
            ("timeout", self.timeout > 0, "> 0"),
            ("backoff_base", self.backoff_base >= 0, ">= 0"),
            ("backoff_factor", self.backoff_factor >= 0, ">= 0"),
            ("backoff_jitter", 0 <= self.backoff_jitter <= 1, "within [0, 1]"),
        ):
            if not ok:
                raise ConfigurationError(f"request_params.{key} must be {bound}")

    @classmethod
    def from_record(cls, rec: dict) -> "RequestParams":
        """Parse ``request_params``. An unknown key, a value that is not a
        finite number (an integer where the default is one), or a value out
        of range raises ConfigurationError."""
        if not isinstance(rec, dict):
            raise ConfigurationError("request_params must be an object")
        fields = cls.__dataclass_fields__
        reject_unknown_keys("request_params", rec, fields)
        for key, value in rec.items():
            integral = is_int(fields[key].default)
            if not (is_int(value) if integral else (is_number(value) and math.isfinite(value))):
                expected = "an integer" if integral else "a finite number"
                raise ConfigurationError(f"request_params.{key} must be {expected}")
        return cls(**rec)


@dataclass
class BackendDescriptor:
    """Where and how to reach one model endpoint for one pipeline role."""

    backend_id: str
    role: str
    endpoint: str
    model_name: str
    judge_weight: float | None = None
    request_params: RequestParams = field(default_factory=RequestParams)
    api_key_env: str | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ConfigurationError(
                f"backend {self.backend_id!r}: unknown role {self.role!r}"
            )
        if (self.judge_weight is not None) != (self.role == "judge"):
            raise ConfigurationError(
                f"backend {self.backend_id!r}: judge_weight must be present "
                "exactly for role 'judge'"
            )
        if self.judge_weight is not None:
            if not (is_number(self.judge_weight) and math.isfinite(self.judge_weight)
                    and self.judge_weight >= 0):
                raise ConfigurationError(
                    f"backend {self.backend_id!r}: judge_weight must be a finite "
                    "nonnegative number"
                )
        if not (self.is_mock or _is_http_url(self.endpoint)):
            raise ConfigurationError(
                f"backend {self.backend_id!r}: endpoint {self.endpoint!r} must be "
                f"{MOCK_ENDPOINT!r} or an http:// or https:// URL with a host"
            )

    @property
    def is_mock(self) -> bool:
        return self.endpoint == MOCK_ENDPOINT


def _is_http_url(endpoint: Any) -> bool:
    if not isinstance(endpoint, str):
        return False
    parts = urlsplit(endpoint)
    try:
        parts.port  # raises for a port that is not a number in [0, 65535]
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def sum_usage(records: Iterable[dict]) -> dict[str, int]:
    """Flat ``{input_tokens, output_tokens, calls}`` summed over usage records."""
    total = {"input_tokens": 0, "output_tokens": 0, "calls": 0}
    for usage in records:
        for key in total:
            total[key] += int(usage.get(key, 0))
    return total


class UsageTracker:
    """Thread-safe token/call totals per backend id.

    A tracker with a ``parent`` forwards every call it records to it, so the
    parent's totals always include the child's.
    """

    def __init__(self, parent: "UsageTracker | None" = None) -> None:
        self._lock = threading.Lock()
        self._totals: dict[str, dict[str, int]] = {}
        self._parent = parent

    def add(self, backend_id: str, input_tokens: int, output_tokens: int) -> None:
        with self._lock:
            entry = self._totals.setdefault(
                backend_id, {"input_tokens": 0, "output_tokens": 0, "calls": 0}
            )
            entry["input_tokens"] += input_tokens
            entry["output_tokens"] += output_tokens
            entry["calls"] += 1
        if self._parent is not None:
            self._parent.add(backend_id, input_tokens, output_tokens)

    def totals(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {k: dict(v) for k, v in self._totals.items()}

    def total(self) -> dict[str, int]:
        """Usage summed over all backends."""
        with self._lock:
            return sum_usage(self._totals.values())


def _approx_tokens(text: str) -> int:
    return len(text.split())


def _reported_or(usage: dict, key: str, estimate: Callable[[], int]) -> int:
    """The token count a reply reports under ``key``; ``estimate()`` is
    called only when the reply lacks it."""
    return int(usage[key]) if key in usage else estimate()


def _send(conn, path: str, body: bytes, headers: dict[str, str], timeout: float):
    """POST ``body`` over ``conn``; return the response and its whole body.

    ``timeout`` covers the connect and each read. A kept-alive connection
    that the server closed since its last reply is reopened once; on any
    other error the connection is closed, so the next attempt opens a new one.
    """
    for may_be_stale in (conn.sock is not None, False):
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        try:
            conn.request("POST", path, body, headers)
            resp = conn.getresponse()
            return resp, resp.read()
        except ConnectionError:
            conn.close()
            if not may_be_stale:
                raise
        except BaseException:
            conn.close()
            raise


class BackendClient:
    """Shared, thread-safe client for all configured backends.

    One instance serves every role; per-request state is kept on the stack,
    so concurrent callers are safe. Its idle keep-alive connections, shared
    with ``scoped()`` views, outlive the threads that used them.
    """

    def __init__(self, mock: "MockServer | None" = None):
        self._mock = mock if mock is not None else MockServer()
        self._idle: dict[tuple[str, str, int], list] = {}
        self._idle_lock = threading.Lock()
        self.usage = UsageTracker()

    def scoped(self) -> "BackendClient":
        """A client on the same transport (same mock, same connections) whose
        usage tracker records only its own calls and forwards each to this
        client's tracker.

        Gives one unit of work (a pipeline item) its exact usage, including
        calls it fans out to other threads.
        """
        view = copy.copy(self)
        view.usage = UsageTracker(parent=self.usage)
        return view

    def close(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        with self._idle_lock:
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle.clear()
        for conn in idle:
            conn.close()

    @contextlib.contextmanager
    def _connection(self, parts: SplitResult) -> Iterator[Any]:
        """An idle keep-alive connection to the URL's scheme, host and port,
        or a new one when none is idle; it is put back after use."""
        import http.client

        https = parts.scheme == "https"
        key = (parts.scheme, parts.hostname, parts.port or (443 if https else 80))
        with self._idle_lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        if conn is None:
            if https:
                import ssl

                context = ssl.create_default_context()
                conn = http.client.HTTPSConnection(*key[1:], context=context)
            else:
                conn = http.client.HTTPConnection(*key[1:])
        try:
            yield conn
        finally:
            with self._idle_lock:
                self._idle.setdefault(key, []).append(conn)

    def _headers(self, descriptor: BackendDescriptor) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if descriptor.api_key_env:
            token = os.environ.get(descriptor.api_key_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def _post(self, descriptor: BackendDescriptor, path: str, payload: dict) -> dict:
        """Send one request to ``{endpoint}/{path}`` and return the reply body."""
        if descriptor.is_mock:
            if path == "chat/completions":
                return self._mock.chat_completion(payload)
            return self._mock.embeddings(payload)
        url = descriptor.endpoint.rstrip("/") + "/" + path
        return self._post_with_retries(descriptor, url, payload)

    def _post_with_retries(
        self, descriptor: BackendDescriptor, url: str, payload: dict
    ) -> dict:
        import http.client

        params = descriptor.request_params
        parts = urlsplit(url)
        body = json.dumps(payload, allow_nan=False).encode()
        headers = self._headers(descriptor)
        attempts = 0
        delay = params.backoff_base
        last_error: Exception | None = None
        while attempts < params.max_attempts:
            attempts += 1
            retry_after = 0
            try:
                with self._connection(parts) as conn:
                    resp, data = _send(conn, parts.path, body, headers, params.timeout)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
            else:
                if resp.status in _RETRYABLE_STATUS:
                    last_error = TransportError(
                        f"{url} returned HTTP {resp.status}", attempts=attempts
                    )
                    # Only the delta-seconds form; an HTTP-date is ignored.
                    value = (resp.getheader("Retry-After") or "").strip()
                    if resp.status in (429, 503) and value.isascii() and value.isdigit():
                        retry_after = int(value)
                elif 300 <= resp.status < 400:
                    raise ProtocolError(
                        f"{url} returned HTTP {resp.status} (Location: "
                        f"{resp.getheader('Location')}); redirects are not followed"
                    )
                elif resp.status >= 400:
                    raise ProtocolError(
                        f"{url} returned HTTP {resp.status}: "
                        f"{data.decode(errors='replace')[:200]}"
                    )
                else:
                    try:
                        return json.loads(data)
                    except ValueError as exc:
                        raise ProtocolError(f"{url}: response body is not JSON") from exc
            if attempts < params.max_attempts:
                jitter = 1.0 + random.uniform(-params.backoff_jitter, params.backoff_jitter)
                time.sleep(max(delay * jitter, min(retry_after, params.timeout)))
                delay *= params.backoff_factor
        raise TransportError(
            f"{url} unreachable after {attempts} attempts: {last_error}",
            attempts=attempts,
        )

    def complete(
        self,
        descriptor: BackendDescriptor,
        prompt: str,
        decode_params: dict | None = None,
    ) -> str:
        """Run one chat completion and return the reply text; its token
        counts go to ``self.usage``.

        Transient failures are retried with exponential backoff up to the
        descriptor's attempt limit, then surface as :class:`TransportError`.
        """
        if descriptor.role == "embedder":
            raise ConfigurationError(
                f"backend {descriptor.backend_id!r}: complete() needs a "
                "generation or judging role, not 'embedder'"
            )
        params = descriptor.request_params
        payload = {
            "model": descriptor.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "max_tokens": params.max_output_tokens,
        }
        if decode_params:
            payload.update(decode_params)
        data = self._post(descriptor, "chat/completions", payload)
        try:
            output = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                f"backend {descriptor.backend_id!r}: malformed completion response"
            ) from exc
        usage = data.get("usage") or {}
        input_tokens = _reported_or(usage, "prompt_tokens", lambda: _approx_tokens(prompt))
        output_tokens = _reported_or(usage, "completion_tokens", lambda: _approx_tokens(output))
        if input_tokens < 0 or output_tokens < 0:
            raise ProtocolError(
                f"backend {descriptor.backend_id!r}: token counts must be nonnegative"
            )
        self.usage.add(descriptor.backend_id, input_tokens, output_tokens)
        return output

    def embed(self, descriptor: BackendDescriptor, texts: Sequence[str]) -> np.ndarray:
        """Embed ``texts`` and return an array of unit row vectors."""
        if descriptor.role != "embedder":
            raise ConfigurationError(
                f"backend {descriptor.backend_id!r}: embed() needs role 'embedder'"
            )
        if len(texts) == 0:
            raise ValueError("embed() requires a nonempty list of texts")
        payload = {"model": descriptor.model_name, "input": list(texts)}
        data = self._post(descriptor, "embeddings", payload)
        try:
            rows = sorted(data["data"], key=lambda d: d["index"])
            vectors = np.asarray([row["embedding"] for row in rows], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"backend {descriptor.backend_id!r}: malformed embeddings response"
            ) from exc
        if vectors.ndim != 2 or vectors.shape[0] != len(texts):
            raise ProtocolError(
                f"backend {descriptor.backend_id!r}: expected {len(texts)} vectors, "
                f"got shape {vectors.shape}"
            )
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ProtocolError(
                f"backend {descriptor.backend_id!r}: embedding with zero norm"
            )
        usage = data.get("usage") or {}
        input_tokens = _reported_or(
            usage, "prompt_tokens", lambda: sum(_approx_tokens(t) for t in texts)
        )
        self.usage.add(descriptor.backend_id, input_tokens, 0)
        return vectors / norms


def run_bounded(
    tasks: Iterable[Callable[[], Any]],
    max_in_flight: int,
    on_ready: Callable[[list[Any]], None],
) -> None:
    """Run callables with at most ``max_in_flight`` executing at once.

    One pool serves the whole task stream: a sliding window keeps up to
    ``max_in_flight`` tasks running and pulls the next one from ``tasks`` as
    soon as any finishes, so tasks are made no sooner than they can start. A
    failing task does not abort the run: its outcome is the exception
    instance instead of a value (mirroring ``asyncio.gather`` with
    ``return_exceptions=True``).

    Whenever the completed prefix (in task order) grows, ``on_ready`` is
    called on the calling thread with the newly completed outcomes; the
    calls together cover every task exactly once, in order. Only outcomes
    that have finished but not yet been handed over are kept. An exception
    raised by ``on_ready`` stops the run: no further task is started, the
    tasks in flight are waited for, and the exception propagates.
    """
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    pending = iter(tasks)
    in_flight: dict[Future, int] = {}
    finished: dict[int, Any] = {}  # outcomes not yet handed over, by position
    submitted = 0  # tasks pulled from the stream
    ready = 0  # length of the completed prefix handed to on_ready
    pool = ThreadPoolExecutor(max_workers=max_in_flight)

    def fill_window() -> None:
        nonlocal submitted
        while len(in_flight) < max_in_flight:
            task = next(pending, None)
            if task is None:
                return
            in_flight[pool.submit(task)] = submitted
            submitted += 1

    try:
        fill_window()
        while in_flight:
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for fut in done:
                idx = in_flight.pop(fut)
                try:
                    finished[idx] = fut.result()
                except Exception as exc:  # per-slot failure, batch continues
                    finished[idx] = exc
            # Refill the freed slots before on_ready, so its work overlaps
            # with running tasks.
            fill_window()
            batch = []
            while ready in finished:
                batch.append(finished.pop(ready))
                ready += 1
            if batch:
                on_ready(batch)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# Deterministic in-process mock
# ---------------------------------------------------------------------------

GARBAGE_REPLY = "@@unparseable@@"

_BRACKET_RE = re.compile(r"\[([^\[\]]{2,80})\]")


@dataclass
class MockBehaviors:
    """Optional scripted behaviors for the mock; defaults are all-pass.

    Keys into text-indexed maps are canonicalized (whitespace-collapsed).
    """

    quality_flags: dict[str, str] = field(default_factory=dict)
    synonym_yes: set[frozenset[str]] = field(default_factory=set)
    representative_picks: dict[frozenset[str], str] = field(default_factory=dict)
    problem_score: float | None = None
    problem_score_by_kind: dict[str, float] = field(default_factory=dict)
    problem_score_by_model: dict[str, float] = field(default_factory=dict)
    solution_vote: int | None = None
    solution_vote_by_model: dict[str, int] = field(default_factory=dict)
    difficulty: str | None = None
    embedding_overrides: dict[str, list[float]] = field(default_factory=dict)
    garbage_prompt_substrings: list[str] = field(default_factory=list)

    @classmethod
    def from_record(cls, rec: dict) -> "MockBehaviors":
        """Parse ``mock.behaviors``. An unknown key, or a value whose type
        differs from what the mock reads, raises ConfigurationError."""
        reject_unknown_keys("mock.behaviors", rec, _BEHAVIOR_TYPES)
        for key, value in rec.items():
            valid, expected = _BEHAVIOR_TYPES[key]
            if not valid(value):
                raise ConfigurationError(f"mock.behaviors.{key} must be {expected}")
        keyed_by_text = ("quality_flags", "synonym_yes", "representative_picks")
        return cls(
            quality_flags={canonicalize(k): v for k, v in rec.get("quality_flags", {}).items()},
            synonym_yes={
                frozenset(canonicalize(t) for t in pair)
                for pair in rec.get("synonym_yes", [])
            },
            representative_picks={
                frozenset(canonicalize(t) for t in entry["members"]): entry["pick"]
                for entry in rec.get("representative_picks", [])
            },
            **{k: copy.copy(v) for k, v in rec.items() if k not in keyed_by_text},
        )


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


def _map_of(valid: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, dict) and all(_is_str(k) and valid(x) for k, x in v.items())


def _list_of(valid: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, list) and all(valid(x) for x in v)


def _optional(valid: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: v is None or valid(v)


# mock.behaviors key -> (value check, what the check expects).
_BEHAVIOR_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "quality_flags": (_map_of(_is_str), "an object of strings"),
    "synonym_yes": (
        _list_of(lambda p: _list_of(_is_str)(p) and len(p) == 2), "a list of string pairs"
    ),
    "representative_picks": (
        _list_of(lambda e: isinstance(e, dict) and set(e) == {"members", "pick"}
                 and _list_of(_is_str)(e["members"]) and _is_str(e["pick"])),
        "a list of {members: [string], pick: string} objects",
    ),
    "problem_score": (_optional(is_number), "null or a number"),
    "problem_score_by_kind": (_map_of(is_number), "an object of numbers"),
    "problem_score_by_model": (_map_of(is_number), "an object of numbers"),
    "solution_vote": (_optional(is_int), "null or an integer"),
    "solution_vote_by_model": (_map_of(is_int), "an object of integers"),
    "difficulty": (_optional(_is_str), "null or a string"),
    "embedding_overrides": (_map_of(_list_of(is_number)), "an object of number lists"),
    "garbage_prompt_substrings": (_list_of(_is_str), "a list of strings"),
}


class MockServer:
    """In-process stand-in for an OpenAI-compatible endpoint.

    Every reply is a pure function of (model name, prompt, configured seed),
    so repeated runs produce byte-identical pipelines. Task dispatch keys on
    marker lines that the package's own prompt builders emit.
    """

    def __init__(
        self,
        seed: int = 0,
        behaviors: MockBehaviors | None = None,
        embedding_dim: int = 32,
    ):
        self.seed = seed
        self.behaviors = behaviors or MockBehaviors()
        self.embedding_dim = embedding_dim

    # -- wire surface -------------------------------------------------------

    def chat_completion(self, request: dict) -> dict:
        model = request.get("model", "mock")
        prompt = "\n".join(
            str(m.get("content", "")) for m in request.get("messages", [])
        )
        output = self._reply(model, prompt)
        return {
            "choices": [{"index": 0, "message": {"role": "assistant", "content": output}}],
            "model": model,
            "usage": {
                "prompt_tokens": _approx_tokens(prompt),
                "completion_tokens": _approx_tokens(output),
            },
        }

    def embeddings(self, request: dict) -> dict:
        texts = request.get("input", [])
        model = request.get("model", "mock")
        data = []
        for idx, text in enumerate(texts):
            data.append({"index": idx, "embedding": self._vector(model, text).tolist()})
        return {
            "data": data,
            "model": model,
            "usage": {"prompt_tokens": sum(_approx_tokens(t) for t in texts)},
        }

    # -- helpers ------------------------------------------------------------

    def _rand(self, *parts: str) -> float:
        """Deterministic uniform [0,1) from hashed parts plus the seed."""
        return (stable_int(str(self.seed), *parts) % 10**9) / 10**9

    def _vector(self, model: str, text: str) -> np.ndarray:
        key = canonicalize(text)
        override = self.behaviors.embedding_overrides.get(key)
        if override is not None:
            vec = np.asarray(override, dtype=np.float64)
        else:
            rng = np.random.Generator(
                np.random.PCG64(stable_int(str(self.seed), model, key))
            )
            vec = rng.normal(size=self.embedding_dim)
        norm = np.linalg.norm(vec)
        if norm == 0:
            vec = np.ones_like(vec)
            norm = np.linalg.norm(vec)
        return vec / norm

    def _reply(self, model: str, prompt: str) -> str:
        for marker in self.behaviors.garbage_prompt_substrings:
            if marker and marker in prompt:
                return GARBAGE_REPLY
        first_line = prompt.splitlines()[0] if prompt else ""
        if "TASK: extract-concepts" in first_line:
            return self._extract_reply(model, prompt)
        if "TASK: quality-check" in first_line:
            return self._quality_reply(prompt)
        if "TASK: synonym-check" in first_line:
            return self._synonym_reply(prompt)
        if "TASK: pick-representative" in first_line:
            return self._representative_reply(prompt)
        if "TASK: write-problem" in first_line:
            return self._problem_reply(model, prompt)
        if "TASK: rate-difficulty" in first_line:
            return self._difficulty_reply(model, prompt)
        if "TASK: solve" in first_line:
            return self._solution_reply(model, prompt)
        if "TASK: score-problem" in first_line:
            return self._score_reply(model, prompt)
        if "TASK: vote-solution" in first_line:
            return self._vote_reply(model, prompt)
        # Unknown prompts get a stable echo so ad-hoc use stays deterministic.
        return f"mock:{stable_int(str(self.seed), model, prompt) % 10**8:08d}"

    def _extract_reply(self, model: str, prompt: str) -> str:
        phrases: list[str] = []
        for match in _BRACKET_RE.findall(prompt):
            phrase = canonicalize(match)
            if phrase and phrase not in phrases:
                phrases.append(phrase)
        if not phrases:
            count = 1 + stable_int(str(self.seed), model, prompt, "n") % 3
            phrases = [
                f"notion {stable_int(str(self.seed), model, prompt, str(i)) % 10**6:06d}"
                for i in range(count)
            ]
        return "\n".join(f"{i}. {p}" for i, p in enumerate(phrases, start=1))

    def _quoted(self, prompt: str, label: str) -> str:
        match = re.search(rf'^{label}: "(.*)"$', prompt, flags=re.MULTILINE)
        return canonicalize(match.group(1)) if match else ""

    def _quality_reply(self, prompt: str) -> str:
        concept = self._quoted(prompt, "Concept")
        return self.behaviors.quality_flags.get(concept, "ok")

    def _synonym_reply(self, prompt: str) -> str:
        a = self._quoted(prompt, "A")
        b = self._quoted(prompt, "B")
        if a and a == b:
            return "YES"
        return "YES" if frozenset((a, b)) in self.behaviors.synonym_yes else "NO"

    def _representative_reply(self, prompt: str) -> str:
        members = [canonicalize(m) for m in re.findall(r"^\d+\. (.+)$", prompt, re.MULTILINE)]
        pick = self.behaviors.representative_picks.get(frozenset(members))
        if pick is not None:
            return pick
        if not members:
            return GARBAGE_REPLY
        return min(members, key=lambda m: (len(m), m))

    def _problem_reply(self, model: str, prompt: str) -> str:
        concepts = re.findall(r"^- (.+)$", prompt, flags=re.MULTILINE)
        nonce = stable_int(str(self.seed), model, prompt) % 10**6
        joined = " and ".join(f"[{canonicalize(c)}]" for c in concepts)
        return (
            f"A quantity q{nonce} is defined so that finding it requires {joined}. "
            f"Determine q{nonce}."
        )

    def _difficulty_reply(self, model: str, prompt: str) -> str:
        if self.behaviors.difficulty is not None:
            return self.behaviors.difficulty
        levels = ("low", "medium", "high")
        return levels[stable_int(str(self.seed), model, prompt) % 3]

    def _solution_reply(self, model: str, prompt: str) -> str:
        nonce = stable_int(str(self.seed), model, prompt) % 10**6
        return (
            f"Set up the relation, simplify, and evaluate. "
            f"The final value is {nonce % 997}."
        )

    def _score_reply(self, model: str, prompt: str) -> str:
        match = re.search(r"^Relationship type: (\w+)$", prompt, flags=re.MULTILINE)
        kind = match.group(1) if match else ""
        score: float | None = None
        if kind and kind in self.behaviors.problem_score_by_kind:
            score = self.behaviors.problem_score_by_kind[kind]
        elif model in self.behaviors.problem_score_by_model:
            score = self.behaviors.problem_score_by_model[model]
        elif self.behaviors.problem_score is not None:
            score = self.behaviors.problem_score
        if score is None:
            score = round(self._rand(model, prompt, "score"), 2)
        return f"{score}"

    def _vote_reply(self, model: str, prompt: str) -> str:
        vote: int | None = None
        if model in self.behaviors.solution_vote_by_model:
            vote = self.behaviors.solution_vote_by_model[model]
        elif self.behaviors.solution_vote is not None:
            vote = self.behaviors.solution_vote
        if vote is None:
            vote = 1
        return "YES" if int(vote) == 1 else "NO"
