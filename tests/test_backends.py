from __future__ import annotations

import _thread
import json
import random
import re
import subprocess
import sys
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import src_env, wire_usage
from graphsynth import backends
from graphsynth.backends import (
    BackendClient,
    BackendDescriptor,
    MockBehaviors,
    MockServer,
    RequestParams,
    run_bounded,
)
from graphsynth.errors import ConfigurationError, ProtocolError, TransportError


class ScriptedHandler(BaseHTTPRequestHandler):
    """Replies with a scripted sequence of HTTP statuses, then 200s."""

    script: list[int] = []
    lock = threading.Lock()
    requests_seen: list[dict] = []
    chat_usage: dict = {"prompt_tokens": 4, "completion_tokens": 1}
    error_headers: dict = {}  # sent with every scripted non-200 reply

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        with self.lock:
            type(self).requests_seen.append({"path": self.path, "body": body})
            status = type(self).script.pop(0) if type(self).script else 200
        if status != 200:
            self.send_response(status)
            for name, value in type(self).error_headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.path.endswith("/embeddings"):
            payload = {
                "data": [
                    {"index": i, "embedding": [1.0, 2.0, 2.0]}
                    for i in range(len(body.get("input", [])))
                ],
                "usage": {"prompt_tokens": 3},
            }
        else:
            payload = {
                "choices": [{"index": 0, "message": {"role": "assistant", "content": "pong"}}],
                "usage": type(self).chat_usage,
            }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), ScriptedHandler)
    ScriptedHandler.script = []
    ScriptedHandler.requests_seen = []
    ScriptedHandler.chat_usage = {"prompt_tokens": 4, "completion_tokens": 1}
    ScriptedHandler.error_headers = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


def live_descriptor(endpoint, role="generator", **params):
    request_params = RequestParams(backoff_base=0.01, backoff_jitter=0.0, **params)
    return BackendDescriptor(
        backend_id="live", role=role, endpoint=endpoint,
        model_name="test-model", request_params=request_params,
    )


class TestDescriptor:
    @pytest.mark.parametrize("params", [
        {"max_attempts": 0}, {"max_output_tokens": 0}, {"temperature": -0.5}, {"timeout": 0},
    ])
    def test_out_of_range_request_params_rejected_when_built(self, params):
        with pytest.raises(ConfigurationError, match=next(iter(params))):
            RequestParams(**params)

    def test_judge_weight_required_for_judges(self):
        with pytest.raises(ConfigurationError):
            BackendDescriptor("j", "judge", "mock", "m")

    def test_judge_weight_forbidden_elsewhere(self):
        with pytest.raises(ConfigurationError):
            BackendDescriptor("g", "generator", "mock", "m", judge_weight=1.0)

    def test_unknown_role_rejected(self):
        with pytest.raises(ConfigurationError):
            BackendDescriptor("x", "oracle", "mock", "m")


class TestMockCompletion:
    def test_deterministic_repeat(self):
        client = BackendClient(mock=MockServer(seed=7))
        d = BackendDescriptor("g", "generator", "mock", "mock-gen")
        first = client.complete(d, "ping")
        second = client.complete(d, "ping")
        assert first == second
        assert first  # fixed nonempty string

    def test_pure_function_of_model_prompt_seed(self):
        out = []
        for _ in range(2):
            client = BackendClient(mock=MockServer(seed=11))
            d = BackendDescriptor("g", "generator", "mock", "mock-gen")
            out.append(client.complete(d, "hello world"))
        assert out[0] == out[1]
        other_seed = BackendClient(mock=MockServer(seed=12)).complete(
            BackendDescriptor("g", "generator", "mock", "mock-gen"), "hello world"
        )
        assert other_seed != out[0]

    def test_embedder_role_rejected(self):
        client = BackendClient(mock=MockServer())
        d = BackendDescriptor("e", "embedder", "mock", "mock-emb")
        with pytest.raises(ConfigurationError):
            client.complete(d, "ping")

    def test_token_counts_nonnegative_and_tracked(self):
        # The tracker holds exactly the token counts the mock put on the wire.
        client = BackendClient(mock=MockServer(seed=7))
        d = BackendDescriptor("g", "generator", "mock", "mock-gen")
        prompts = [f"prompt {i} with words" for i in range(5)]
        for prompt in prompts:
            client.complete(d, prompt)
        wire = [wire_usage(MockServer(seed=7), d, prompt) for prompt in prompts]
        totals = client.usage.totals()["g"]
        assert totals["input_tokens"] == sum(u["prompt_tokens"] for u in wire)
        assert totals["output_tokens"] == sum(u["completion_tokens"] for u in wire)
        assert totals["calls"] == 5
        assert all(min(u.values()) >= 0 for u in wire)

    @pytest.mark.parametrize("reported", [True, False], ids=["reported", "missing"])
    def test_word_count_estimate_only_when_the_reply_lacks_counts(self, monkeypatch, reported):
        class CountsMock(MockServer):
            def chat_completion(self, request):
                reply = {"choices": [{"message": {"content": "a four word reply"}}]}
                if reported:
                    reply["usage"] = {"prompt_tokens": 3, "completion_tokens": 2}
                return reply

            def embeddings(self, request):
                reply = {"data": [{"index": i, "embedding": [1.0, 0.0]}
                                  for i in range(len(request["input"]))]}
                if reported:
                    reply["usage"] = {"prompt_tokens": 5}
                return reply

        estimated = []
        real_estimate = backends._approx_tokens
        monkeypatch.setattr(backends, "_approx_tokens",
                            lambda text: estimated.append(text) or real_estimate(text))
        client = BackendClient(mock=CountsMock())
        client.complete(BackendDescriptor("g", "generator", "mock", "m"), "two words")
        client.embed(BackendDescriptor("e", "embedder", "mock", "m"), ["x y", "z"])
        if reported:
            assert estimated == []
            assert client.usage.totals() == {
                "g": {"input_tokens": 3, "output_tokens": 2, "calls": 1},
                "e": {"input_tokens": 5, "output_tokens": 0, "calls": 1},
            }
        else:
            assert estimated == ["two words", "a four word reply", "x y", "z"]
            assert client.usage.totals() == {
                "g": {"input_tokens": 2, "output_tokens": 4, "calls": 1},
                "e": {"input_tokens": 3, "output_tokens": 0, "calls": 1},
            }


class TestMalformedReplies:
    """Replies ``json.loads`` accepts but the client must not: each is a
    ``ProtocolError``, and no usage is counted."""

    GEN = BackendDescriptor("g", "generator", "mock", "m")
    EMB = BackendDescriptor("e", "embedder", "mock", "m")

    @pytest.mark.parametrize("usage", [None, {"prompt_tokens": 1, "completion_tokens": 1}],
                             ids=["no-counts", "counts"])
    def test_null_content(self, usage):
        class NullContentMock(MockServer):
            def chat_completion(self, request):
                reply = {"choices": [{"message": {"content": None}}]}
                if usage is not None:
                    reply["usage"] = usage
                return reply

        client = BackendClient(mock=NullContentMock())
        with pytest.raises(ProtocolError, match="content"):
            client.complete(self.GEN, "ping")
        assert client.usage.totals() == {}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1", True, False])
    def test_embedding_holds_a_non_number(self, value):
        class BadVectorMock(MockServer):
            def embeddings(self, request):
                reply = super().embeddings(request)
                reply["data"][1]["embedding"][0] = value
                return reply

        client = BackendClient(mock=BadVectorMock(seed=7))
        with pytest.raises(ProtocolError, match="finite numbers"):
            client.embed(self.EMB, ["alpha", "beta"])
        assert client.usage.totals() == {}

    @pytest.mark.parametrize("count", [float("nan"), 2.5, "3", True])
    def test_token_count_is_not_an_integer(self, count):
        class BadCountMock(MockServer):
            def chat_completion(self, request):
                reply = super().chat_completion(request)
                reply["usage"]["completion_tokens"] = count
                return reply

            def embeddings(self, request):
                reply = super().embeddings(request)
                reply["usage"]["prompt_tokens"] = count
                return reply

        client = BackendClient(mock=BadCountMock(seed=7))
        with pytest.raises(ProtocolError, match="nonnegative integers"):
            client.complete(self.GEN, "ping")
        with pytest.raises(ProtocolError, match="nonnegative integers"):
            client.embed(self.EMB, ["alpha"])
        assert client.usage.totals() == {}


class TestLiveHttp:
    def test_retry_two_500s_then_success(self, http_endpoint):
        ScriptedHandler.script = [500, 500]
        client = BackendClient()
        assert client.complete(live_descriptor(http_endpoint), "ping") == "pong"
        assert len(ScriptedHandler.requests_seen) == 3
        assert ScriptedHandler.requests_seen[0]["path"].endswith("/chat/completions")
        # Only the answered attempt is counted, with the server's token counts.
        assert client.usage.totals() == {
            "live": {"input_tokens": 4, "output_tokens": 1, "calls": 1}
        }

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": -1, "completion_tokens": 1},
        {"prompt_tokens": 4, "completion_tokens": -1},
    ])
    def test_negative_token_counts_are_protocol_errors(self, http_endpoint, usage):
        ScriptedHandler.chat_usage = usage
        client = BackendClient()
        with pytest.raises(ProtocolError, match="nonnegative"):
            client.complete(live_descriptor(http_endpoint), "ping")
        assert client.usage.totals() == {}

    def test_retries_exhausted_carries_attempts(self, http_endpoint):
        ScriptedHandler.script = [500, 500, 500, 500]
        client = BackendClient()
        with pytest.raises(TransportError) as excinfo:
            client.complete(live_descriptor(http_endpoint, max_attempts=3), "ping")
        assert excinfo.value.attempts == 3

    def test_non_retryable_4xx_is_protocol_error(self, http_endpoint):
        ScriptedHandler.script = [403]
        client = BackendClient()
        with pytest.raises(ProtocolError):
            client.complete(live_descriptor(http_endpoint), "ping")
        assert len(ScriptedHandler.requests_seen) == 1

    def test_embeddings_path_and_normalization(self, http_endpoint):
        client = BackendClient()
        d = live_descriptor(http_endpoint, role="embedder")
        vectors = client.embed(d, ["a", "b"])
        assert ScriptedHandler.requests_seen[0]["path"].endswith("/embeddings")
        # Server returns [1,2,2] (norm 3); client must normalize.
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-6)
        assert np.allclose(vectors[0], [1 / 3, 2 / 3, 2 / 3])

    def test_auth_header_from_named_env(self, http_endpoint, monkeypatch):
        monkeypatch.setenv("TEST_API_TOKEN", "sekret")
        d = live_descriptor(http_endpoint)
        d.api_key_env = "TEST_API_TOKEN"
        captured = {}

        class Recorder(ScriptedHandler):
            def do_POST(self):
                captured["auth"] = self.headers.get("Authorization")
                super().do_POST()

        server = HTTPServer(("127.0.0.1", 0), Recorder)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        d.endpoint = f"http://127.0.0.1:{server.server_port}/v1"
        BackendClient().complete(d, "ping")
        server.shutdown()
        server.server_close()
        assert captured["auth"] == "Bearer sekret"


class KeepAliveHandler(ScriptedHandler):
    """HTTP/1.1 with Content-Length replies, so a connection serves many
    requests; counts the TCP connections it accepts."""

    protocol_version = "HTTP/1.1"
    connections = 0

    def setup(self):
        type(self).connections += 1
        super().setup()


class ClosesIdleHandler(KeepAliveHandler):
    """Answers one request per connection and then closes it, without the
    ``Connection: close`` header that would warn the client."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


def serve(handler):
    """Serve ``handler`` on a localhost port, one daemon thread per
    connection, so ``shutdown`` does not wait for a kept-alive one; returns
    the server and its ``/v1`` endpoint."""
    handler.connections = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_port}/v1"


class TestHttpTransport:
    def test_sequential_calls_share_one_connection(self, http_endpoint):
        server, endpoint = serve(KeepAliveHandler)
        try:
            client = BackendClient()
            for _ in range(5):
                assert client.complete(live_descriptor(endpoint), "ping") == "pong"
            client.scoped().embed(live_descriptor(endpoint, role="embedder"), ["a"])
            client.close()
        finally:
            server.shutdown()
            server.server_close()
        assert KeepAliveHandler.connections == 1

    def test_connections_outlive_the_pool_that_opened_them(self):
        server, endpoint = serve(KeepAliveHandler)
        try:
            client = BackendClient()
            for _ in range(2):
                replies = []
                run_bounded([lambda: client.complete(live_descriptor(endpoint), "ping")], 1,
                            on_ready=replies.extend)
                assert replies == ["pong"]
            client.close()
        finally:
            server.shutdown()
            server.server_close()
        assert KeepAliveHandler.connections == 1

    def test_threads_share_the_idle_connections_without_losing_one(self):
        # More threads than cores and a short switch interval: a connection
        # handed to two threads at once, or lost on its way back, breaks a
        # reply or the count of idle connections.
        server, endpoint = serve(KeepAliveHandler)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            client = BackendClient()
            d = live_descriptor(endpoint)
            replies = []
            run_bounded([lambda: client.scoped().complete(d, "ping")] * 80, 8,
                        on_ready=replies.extend)
            idle = sum(len(conns) for conns in client._idle.values())
            client.close()
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            server.server_close()
        assert replies == ["pong"] * 80
        assert idle == KeepAliveHandler.connections <= 8

    def test_close_drops_idle_connections_and_a_later_call_reopens_one(self):
        server, endpoint = serve(KeepAliveHandler)
        try:
            client = BackendClient()
            for _ in range(2):
                assert client.complete(live_descriptor(endpoint), "ping") == "pong"
                client.close()
        finally:
            server.shutdown()
            server.server_close()
        assert KeepAliveHandler.connections == 2

    def test_connection_closed_by_the_server_is_reopened_free(self, http_endpoint):
        server, endpoint = serve(ClosesIdleHandler)
        try:
            client = BackendClient()
            d = live_descriptor(endpoint, max_attempts=1)
            assert client.complete(d, "ping") == "pong"
            assert client.complete(d, "ping") == "pong"
            client.close()
        finally:
            server.shutdown()
            server.server_close()
        assert ClosesIdleHandler.connections == 2

    def test_redirect_is_a_protocol_error(self, http_endpoint):
        ScriptedHandler.script = [302]
        ScriptedHandler.error_headers = {"Location": "/v2/chat/completions"}
        with pytest.raises(ProtocolError, match="HTTP 302.*/v2/chat/completions"):
            BackendClient().complete(live_descriptor(http_endpoint), "ping")
        assert len(ScriptedHandler.requests_seen) == 1

    def test_https_endpoint_tries_tls(self, http_endpoint):
        d = live_descriptor(http_endpoint.replace("http://", "https://"),
                            max_attempts=2, timeout=5)
        with pytest.raises(TransportError) as excinfo:
            BackendClient().complete(d, "ping")
        assert excinfo.value.attempts == 2
        assert ScriptedHandler.requests_seen == []

    @pytest.mark.parametrize("endpoint", [
        "ftp://127.0.0.1/v1", "http://127.0.0.1:abc/v1", "http://127.0.0.1:70000/v1", "http:///v1",
    ])
    def test_endpoint_that_is_not_an_http_url_is_a_configuration_error(self, endpoint):
        with pytest.raises(ConfigurationError, match=f"'live'.*{re.escape(endpoint)}"):
            live_descriptor(endpoint)

    def test_unencodable_payload_fails_before_sending(self, http_endpoint, monkeypatch):
        monkeypatch.setattr(backends.time, "sleep", pytest.fail)
        with pytest.raises(ValueError, match="JSON compliant"):
            BackendClient().complete(live_descriptor(http_endpoint), "ping",
                                     {"top_p": float("nan")})
        assert ScriptedHandler.requests_seen == []

    @pytest.mark.parametrize("status,retry_after,timeout,delays", [
        (429, "3", 60, [3, 3]),
        (503, "3", 60, [3, 3]),
        (429, "120", 5, [5, 5]),
        (429, "0", 60, [0.01, 0.02]),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 60, [0.01, 0.02]),
        (500, "3", 60, [0.01, 0.02]),
    ], ids=["429", "503", "capped-at-timeout", "zero", "http-date", "not-on-500"])
    def test_retry_after(self, http_endpoint, monkeypatch, status, retry_after, timeout, delays):
        slept = []
        monkeypatch.setattr(backends.time, "sleep", slept.append)
        ScriptedHandler.script = [status, status]
        ScriptedHandler.error_headers = {"Retry-After": retry_after}
        d = live_descriptor(http_endpoint, timeout=timeout)
        assert BackendClient().complete(d, "ping") == "pong"
        assert slept == pytest.approx(delays)

    def test_live_calls_need_no_requests_package(self, http_endpoint):
        script = (
            "import sys\n"
            "sys.modules['requests'] = None\n"
            "from graphsynth.backends import BackendClient, BackendDescriptor\n"
            "client = BackendClient()\n"
            "reply = client.complete(BackendDescriptor('g', 'generator', sys.argv[1], 'm'), 'hi')\n"
            "vectors = client.embed(BackendDescriptor('e', 'embedder', sys.argv[1], 'm'), ['a'])\n"
            "print(reply, vectors.shape)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, http_endpoint],
                              capture_output=True, text=True, env=src_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["pong", "(1,", "3)"]


class TestMockEmbeddings:
    def test_identical_texts_identical_vectors(self):
        client = BackendClient(mock=MockServer(seed=7))
        d = BackendDescriptor("e", "embedder", "mock", "mock-emb")
        vectors = client.embed(d, ["same text", "same text"])
        assert np.allclose(vectors[0], vectors[1])
        assert pytest.approx(1.0, abs=1e-9) == float(vectors[0] @ vectors[1])

    def test_unit_norm_for_distinct_texts(self):
        client = BackendClient(mock=MockServer(seed=7))
        d = BackendDescriptor("e", "embedder", "mock", "mock-emb")
        vectors = client.embed(d, [f"text {i}" for i in range(10)])
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-6)

    def test_empty_list_rejected(self):
        client = BackendClient(mock=MockServer())
        d = BackendDescriptor("e", "embedder", "mock", "mock-emb")
        with pytest.raises(ValueError):
            client.embed(d, [])

    def test_reply_rows_are_placed_by_index(self):
        class ReversedMock(MockServer):
            def embeddings(self, request):
                reply = super().embeddings(request)
                reply["data"].reverse()
                return reply

        d = BackendDescriptor("e", "embedder", "mock", "mock-emb")
        texts = ["alpha", "beta", "gamma"]
        expected = BackendClient(mock=MockServer(seed=7)).embed(d, texts)
        assert np.array_equal(BackendClient(mock=ReversedMock(seed=7)).embed(d, texts), expected)

    @pytest.mark.parametrize("indices", [[2, 1, 2], [1, 2, 3], [0, 1]])
    def test_reply_indices_must_name_each_text_once(self, indices):
        class IndexedMock(MockServer):
            def embeddings(self, request):
                reply = super().embeddings(request)
                reply["data"] = [dict(row, index=i) for row, i in zip(reply["data"], indices)]
                return reply

        client = BackendClient(mock=IndexedMock(seed=7))
        with pytest.raises(ProtocolError, match="indices"):
            client.embed(BackendDescriptor("e", "embedder", "mock", "mock-emb"),
                         ["alpha", "beta", "gamma"])

    def test_override_vectors_are_normalized(self):
        behaviors = MockBehaviors(embedding_overrides={"x": [3.0, 4.0]})
        client = BackendClient(mock=MockServer(seed=1, behaviors=behaviors))
        d = BackendDescriptor("e", "embedder", "mock", "mock-emb")
        vec = client.embed(d, ["x"])[0]
        assert np.allclose(vec, [0.6, 0.8])


class RequestRecordingMock(MockServer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.embed_requests: list[list[str]] = []

    def embeddings(self, request):
        self.embed_requests.append(list(request["input"]))
        return super().embeddings(request)


class TestEmbedBatched:
    EMB = BackendDescriptor("e", "embedder", "mock", "mock-emb")

    @pytest.mark.parametrize("n_texts", [1, 6, 7, 8])
    def test_batches_fill_one_array_in_text_order(self, monkeypatch, n_texts):
        monkeypatch.setattr(backends, "EMBED_BATCH_SIZE", 3)
        texts = [f"text {i}" for i in range(n_texts)]
        mock = RequestRecordingMock(seed=7)
        client = BackendClient(mock=mock)
        vectors = client.embed_batched(self.EMB, texts)
        assert mock.embed_requests == [texts[i:i + 3] for i in range(0, n_texts, 3)]
        # Each row is normalised on its own, so a batch gives the same rows
        # as one request for every text.
        one = BackendClient(mock=MockServer(seed=7)).embed(self.EMB, texts)
        assert vectors.dtype == np.float64 and np.array_equal(vectors, one)
        assert client.usage.totals()["e"]["calls"] == len(mock.embed_requests)

    def test_a_batch_of_another_width_is_a_protocol_error(self, monkeypatch):
        monkeypatch.setattr(backends, "EMBED_BATCH_SIZE", 2)

        class NarrowingMock(MockServer):
            calls = 0

            def embeddings(self, request):
                self.calls += 1
                self.embedding_dim = 32 if self.calls == 1 else 16
                return super().embeddings(request)

        client = BackendClient(mock=NarrowingMock(seed=7))
        with pytest.raises(ProtocolError, match=r"backend 'e'.*16 wide.*32 wide"):
            client.embed_batched(self.EMB, ["alpha", "beta", "gamma"])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            BackendClient(mock=MockServer()).embed_batched(self.EMB, [])


def collect(tasks, max_in_flight):
    """run_bounded's outcomes in task order, gathered through on_ready."""
    outcomes = []
    run_bounded(tasks, max_in_flight, on_ready=outcomes.extend)
    return outcomes


class TestRunBounded:
    def test_cap_respected(self):
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        def task():
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.01)
            with lock:
                state["now"] -= 1
            return True

        results = collect([task] * 10, max_in_flight=3)
        assert results == [True] * 10
        assert state["peak"] <= 3

    def test_cap_one_is_sequential(self):
        order = []

        def make(i):
            def task():
                order.append(i)
                return i
            return task

        results = collect([make(i) for i in range(6)], max_in_flight=1)
        assert results == list(range(6))
        assert order == list(range(6))

    def test_task_exception_stops_the_run_after_the_tasks_in_flight(self):
        failed = threading.Event()
        state = {"running": 0, "drawn": 0}
        lock = threading.Lock()
        handed = []

        def slow(i):
            def task():
                with lock:
                    state["running"] += 1
                # Still running when the third task fails, so it is in flight.
                failed.wait(timeout=5)
                time.sleep(0.02)
                with lock:
                    state["running"] -= 1
                return i
            return task

        def bad():
            failed.set()
            raise RuntimeError("slot failure")

        def tasks():
            for task in (slow(0), slow(1), bad, slow(3), slow(4)):
                state["drawn"] += 1
                yield task

        with pytest.raises(RuntimeError, match="slot failure"):
            run_bounded(tasks(), 3, on_ready=handed.extend)
        assert state["running"] == 0  # tasks in flight were waited for
        assert state["drawn"] == 3  # nothing was drawn after the failure
        assert handed == [0, 1]  # the tasks in flight were handed over

    def test_zero_cap_rejected(self):
        with pytest.raises(ValueError):
            run_bounded([], max_in_flight=0, on_ready=lambda outcomes: None)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=12), st.integers(1, 5))
    def test_order_preserved_under_random_delays(self, values, cap):
        rng = random.Random(42)
        delays = [rng.uniform(0, 0.005) for _ in values]

        def make(value, delay):
            def task():
                time.sleep(delay)
                return value
            return task

        tasks = [make(v, d) for v, d in zip(values, delays)]
        assert collect(tasks, cap) == values

    def test_on_ready_gets_in_order_prefixes_on_calling_thread(self):
        rng = random.Random(7)
        delays = [rng.uniform(0, 0.003) for _ in range(40)]
        calls = []

        def make(i):
            def task():
                time.sleep(delays[i])
                return i
            return task

        def on_ready(prefix):
            calls.append((threading.get_ident(), list(prefix)))

        run_bounded([make(i) for i in range(40)], 4, on_ready=on_ready)
        assert {ident for ident, _ in calls} == {threading.get_ident()}
        assert all(prefix for _, prefix in calls)
        assert [i for _, prefix in calls for i in prefix] == list(range(40))

    def test_one_pool_per_call(self):
        lock = threading.Lock()
        workers = set()

        def task():
            with lock:
                workers.add(threading.get_ident())

        run_bounded([task] * 200, max_in_flight=3, on_ready=lambda prefix: None)
        assert 1 <= len(workers) <= 3
        assert threading.get_ident() not in workers

    def test_on_ready_exception_stops_new_tasks(self):
        lock = threading.Lock()
        state = {"stopped": False, "late_starts": 0, "started": 0, "running": 0}

        def task():
            with lock:
                state["started"] += 1
                state["running"] += 1
                state["late_starts"] += state["stopped"]
            time.sleep(0.002)
            with lock:
                state["running"] -= 1

        def on_ready(prefix):
            with lock:
                state["stopped"] = True
            raise KeyboardInterrupt("stop")

        with pytest.raises(KeyboardInterrupt, match="stop"):
            run_bounded([task] * 50, max_in_flight=2, on_ready=on_ready)
        assert state["late_starts"] == 0
        assert state["running"] == 0  # tasks in flight were waited for
        assert state["started"] < 50

    def test_no_task_is_drawn_while_on_ready_runs(self):
        state = {"committing": False, "drawn_while_committing": 0, "calls": 0}

        def task():
            time.sleep(0.001)

        def tasks():
            for _ in range(40):
                state["drawn_while_committing"] += state["committing"]
                yield task

        def on_ready(outcomes):
            state["committing"] = True
            time.sleep(0.005)  # the workers finish their tasks meanwhile and want more
            state["committing"] = False
            state["calls"] += 1

        run_bounded(tasks(), 2, on_ready=on_ready)
        assert state["calls"] >= 1
        assert state["drawn_while_committing"] == 0

    def test_pulls_a_generator_at_most_max_in_flight_ahead(self):
        lock = threading.Lock()
        state = {"pulled": 0, "finished": 0, "ahead": []}

        def task():
            time.sleep(0.001)
            with lock:
                state["finished"] += 1
            return True

        def tasks():
            for _ in range(60):
                with lock:
                    state["pulled"] += 1
                    state["ahead"].append(state["pulled"] - state["finished"])
                yield task

        assert collect(tasks(), max_in_flight=3) == [True] * 60
        assert max(state["ahead"]) <= 3

    def test_handed_over_outcomes_are_released(self):
        class Outcome:
            pass

        def task():
            time.sleep(0.0005)
            return Outcome()

        handed: list[list[weakref.ref]] = []
        alive_two_calls_back = []

        def on_ready(outcomes):
            if len(handed) >= 2:
                alive_two_calls_back.extend(ref() is not None for ref in handed[-2])
            handed.append([weakref.ref(outcome) for outcome in outcomes])

        run_bounded((task for _ in range(60)), 2, on_ready=on_ready)
        assert len(handed) >= 3
        assert alive_two_calls_back and not any(alive_two_calls_back)

    def test_slow_head_then_one_hand_over_carries_every_finished_follower(self):
        count = 24
        lock = threading.Lock()
        state = {"finished": 0}
        calls = []

        def head():
            deadline = time.monotonic() + 10
            while state["finished"] < count - 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)  # time enough for the last follower's outcome to be queued
            return 0

        def make(i):
            def task():
                with lock:
                    state["finished"] += 1
                return i
            return task

        tasks = (head if i == 0 else make(i) for i in range(count))
        run_bounded(tasks, 2, on_ready=lambda batch: calls.append(list(batch)))
        assert calls == [list(range(count))]

    def test_one_hand_over_takes_every_outcome_queued_meanwhile(self):
        # Tasks 1-3 finish, in that order, while on_ready handles task 0; the
        # next call must carry all three, not one per finished task.
        state = {"drawn": 0, "finished": 0}
        go = threading.Event()
        calls = []

        def make(i):
            def task():
                deadline = time.monotonic() + 10
                if i == 0:
                    while state["drawn"] < 4 and time.monotonic() < deadline:
                        time.sleep(0.001)
                    return i
                assert go.wait(10)
                while state["finished"] < i - 1 and time.monotonic() < deadline:
                    time.sleep(0.001)
                time.sleep(0.01)  # after the outcome before it is queued
                state["finished"] += 1
                return i
            return task

        def tasks():
            for i in range(4):
                state["drawn"] += 1
                yield make(i)

        def on_ready(batch):
            calls.append(list(batch))
            if len(calls) == 1:
                go.set()
                deadline = time.monotonic() + 10
                while state["finished"] < 3 and time.monotonic() < deadline:
                    time.sleep(0.001)
                time.sleep(0.05)  # time enough for their outcomes to be queued

        run_bounded(tasks(), 4, on_ready=on_ready)
        assert calls == [[0], [1, 2, 3]]

    def test_order_holds_and_each_task_runs_once_under_fast_thread_switching(self):
        max_in_flight = 8
        count = 2_000
        rng = random.Random(11)
        delays = [rng.choice((0, 0, 0.0001, 0.0005)) for _ in range(count)]
        lock = threading.Lock()
        runs = [0] * count
        outcomes = []
        calls = []

        def make(i):
            def task():
                with lock:
                    runs[i] += 1
                if delays[i]:
                    time.sleep(delays[i])
                return i
            return task

        def on_ready(batch):
            outcomes.extend(batch)
            calls.append(len(batch))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_bounded((make(i) for i in range(count)), max_in_flight, on_ready=on_ready)
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == list(range(count))
        assert runs == [1] * count
        assert all(calls)

    def test_stream_exception_propagates_after_the_tasks_in_flight(self):
        lock = threading.Lock()
        state = {"started": 0, "running": 0}
        handed = []

        def task():
            with lock:
                state["started"] += 1
                state["running"] += 1
            time.sleep(0.003)
            with lock:
                state["running"] -= 1
            return True

        class Stream:
            """Breaks at its 11th draw; it would go on if drawn again."""

            drawn = 0

            def __iter__(self):
                return self

            def __next__(self):
                self.drawn += 1
                if self.drawn == 11:
                    raise LookupError("stream broke")
                return task

        stream = Stream()
        with pytest.raises(LookupError, match="stream broke"):
            run_bounded(stream, 3, on_ready=handed.extend)
        assert state["running"] == 0  # tasks in flight were waited for
        assert stream.drawn == 11  # nothing was drawn after the failure
        assert state["started"] <= 10
        assert handed == [True] * state["started"]  # the tasks in flight were handed over

    def test_interrupt_while_waiting_propagates_and_ends_the_workers(self):
        before = threading.active_count()
        started = []

        def make(i):
            def task():
                started.append(i)
                if i == 3:
                    _thread.interrupt_main()
                time.sleep(0.002)
                return i
            return task

        with pytest.raises(KeyboardInterrupt):
            run_bounded((make(i) for i in range(500)), 2, on_ready=lambda outcomes: None)
        assert threading.active_count() == before
        assert len(started) < 500


class TestMeter:
    def test_scoped_counts_only_own_task(self):
        client = BackendClient(mock=MockServer(seed=7))
        d = BackendDescriptor("g", "generator", "mock", "mock-gen")

        def task(i):
            def run():
                scoped = client.scoped()
                scoped.complete(d, f"task prompt {i} extra words here")
                return scoped.usage.total()
            return run

        records = collect([task(i) for i in range(8)], max_in_flight=4)
        assert all(r["calls"] == 1 for r in records)
        total = sum(r["input_tokens"] for r in records)
        assert total == client.usage.totals()["g"]["input_tokens"]

    def test_fan_out_inside_a_task_is_metered(self):
        client = BackendClient(mock=MockServer(seed=7))
        d = BackendDescriptor("g", "generator", "mock", "mock-gen")

        def task():
            scoped = client.scoped()
            threads = [
                threading.Thread(target=scoped.complete, args=(d, f"fan-out prompt {i}"))
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return scoped.usage.total()

        (record,) = collect([task], max_in_flight=1)
        assert record["calls"] == 2
        assert client.usage.total() == record
