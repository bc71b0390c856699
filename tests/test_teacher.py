"""Teacher client tests: backends, retry plumbing, judging, embeddings."""

import base64
import contextlib
import gc
import hashlib
import http.client
import http.server
import json
import math
import os
import random
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import warnings

import numpy as np
import pytest

import corgi.teacher as teacher_module
from corgi.concepts import dedup_concepts
from corgi.model import Concept, EducationalStage
from corgi.prompts import build_retrieval_check_prompt
from corgi.teacher import (
    DEFAULT_GENERATION_TEMPERATURE,
    DEFAULT_JUDGE_TEMPERATURE,
    EMBEDDING_DIMENSION,
    REFUSAL_TEXT,
    CallPool,
    CompletionRequest,
    HttpEmbeddingBackend,
    HttpTeacherBackend,
    MockScriptError,
    MockTeacherBackend,
    ReferenceEmbeddingBackend,
    SimulatedTeacherBackend,
    TeacherAuthError,
    TeacherClient,
    TeacherError,
    TeacherRetryError,
    TeacherTruncationError,
    fan_out,
    parse_relevance_reply,
    prompt_digest,
)

BASE_URL = "https://teacher.test/v1"

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

OK_REPLY = "All good."


def completion_body(content, finish_reason="stop"):
    return {
        "choices": [{"message": {"content": content}, "finish_reason": finish_reason}]
    }


class FakeTransport:
    """Scripted POST stand-in that records every call it serves."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, headers, payload, timeout):
        self.calls.append(
            {"url": url, "headers": headers, "payload": payload, "timeout": timeout}
        )
        step = self.responses.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


class RecordingBackend:
    """Completion backend that logs requests and replies with a fixed string."""

    model_name = "recording"

    def __init__(self, reply="ok"):
        self.reply = reply
        self.requests = []
        self._lock = threading.Lock()

    def complete(self, req):
        with self._lock:
            self.requests.append(req)
        return self.reply


class TestParseRelevanceReply:
    def test_option_a_is_yes(self):
        assert parse_relevance_reply("A) Yes") is True

    def test_option_b_is_no(self):
        assert parse_relevance_reply("B) No") is False

    def test_lowercase_a(self):
        assert parse_relevance_reply("a) yes, the passage covers it") is True

    def test_bare_yes_in_first_line(self):
        assert parse_relevance_reply("Yes, the answer appears verbatim.") is True

    def test_hedged_b_is_no(self):
        assert parse_relevance_reply("I think the answer is B") is False

    def test_yes_on_later_line_does_not_count(self):
        assert parse_relevance_reply("B) No\nbut arguably yes") is False

    def test_empty_reply_is_no(self):
        assert parse_relevance_reply("") is False

    def test_whitespace_reply_is_no(self):
        assert parse_relevance_reply(" \n\t\n") is False

    def test_leading_whitespace_before_a(self):
        assert parse_relevance_reply("  A. The passage answers it.") is True


class TestMockBackend:
    def test_scripted_reply(self):
        backend = MockTeacherBackend.from_prompts({"What is torque?": "A moment."})
        req = CompletionRequest(prompt="What is torque?")
        assert backend.complete(req) == "A moment."

    def test_replies_are_stable_across_calls(self):
        backend = MockTeacherBackend.from_prompts({"p": "r"})
        req = CompletionRequest(prompt="p")
        assert backend.complete(req) == backend.complete(req) == "r"

    def test_unknown_prompt_raises_with_digest(self):
        backend = MockTeacherBackend({})
        prompt = "never scripted"
        with pytest.raises(MockScriptError) as err:
            backend.complete(CompletionRequest(prompt=prompt))
        assert prompt_digest(prompt) in str(err.value)

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "scripts.json"
        path.write_text(
            json.dumps({prompt_digest("hello"): "scripted hello"}), encoding="utf-8"
        )
        backend = MockTeacherBackend.from_file(str(path))
        assert backend.complete(CompletionRequest(prompt="hello")) == "scripted hello"

    def test_from_file_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "scripts.json"
        script = json.dumps({prompt_digest("hello"): "scripted hello"}).encode("utf-8")
        path.write_bytes(b"\xef\xbb\xbf" + script)
        assert MockTeacherBackend.from_file(str(path)).scripts == json.loads(script)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "expected a JSON object"),
            ('{"%s": 3}' % ("0" * 64), "must be a string, got int"),
            ("{broken", "invalid JSON"),
        ],
    )
    def test_from_file_rejects_a_bad_script(self, tmp_path, text, message):
        path = tmp_path / "scripts.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TeacherError) as err:
            MockTeacherBackend.from_file(str(path))
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)

    def test_model_name(self):
        assert MockTeacherBackend({}).model_name == "scripted-mock"


class TestHttpTeacherBackend:
    def test_rate_limited_twice_then_succeeds(self):
        fake = FakeTransport(
            [(429, {}), (429, {}), (200, completion_body(OK_REPLY))]
        )
        waits = []
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=waits.append
        )
        reply = backend.complete(CompletionRequest(prompt="hi"))
        assert reply == OK_REPLY
        assert len(fake.calls) == 3
        assert waits == [0.5, 1.0]

    def test_auth_failure_does_not_retry(self):
        fake = FakeTransport([(401, {"error": "bad key"})])
        waits = []
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=waits.append
        )
        with pytest.raises(TeacherAuthError):
            backend.complete(CompletionRequest(prompt="hi"))
        assert len(fake.calls) == 1
        assert waits == []

    def test_forbidden_is_auth_failure(self):
        fake = FakeTransport([(403, {})])
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=lambda _: None
        )
        with pytest.raises(TeacherAuthError):
            backend.complete(CompletionRequest(prompt="hi"))

    def test_permanent_error_is_not_retried(self):
        fake = FakeTransport([(404, {"error": "no such model"})])
        waits = []
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=waits.append
        )
        with pytest.raises(TeacherError) as err:
            backend.complete(CompletionRequest(prompt="hi"))
        assert "404" in str(err.value)
        assert len(fake.calls) == 1
        assert waits == []

    def test_retry_budget_exhausted(self):
        fake = FakeTransport([(500, {})] * 5)
        waits = []
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=waits.append
        )
        with pytest.raises(TeacherRetryError) as err:
            backend.complete(CompletionRequest(prompt="hi"))
        assert "5 attempt(s)" in str(err.value)
        assert len(fake.calls) == 5
        assert waits == [0.5, 1.0, 2.0, 4.0]

    def test_network_error_is_retried(self):
        fake = FakeTransport(
            [urllib.error.URLError("refused"), (200, completion_body(OK_REPLY))]
        )
        waits = []
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=waits.append
        )
        assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
        assert waits == [0.5]

    @pytest.mark.parametrize(
        "error",
        [
            TimeoutError("timed out"),
            http.client.RemoteDisconnected("closed"),
            http.client.IncompleteRead(b"{"),
        ],
        ids=["timeout", "disconnected", "incomplete"],
    )
    def test_other_transport_errors_are_retried(self, error):
        fake = FakeTransport([error, (200, completion_body(OK_REPLY))])
        waits = []
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=waits.append
        )
        assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
        assert waits == [0.5]

    def test_length_stop_raises_truncation(self):
        fake = FakeTransport([(200, completion_body("cut off", "length"))])
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=lambda _: None
        )
        with pytest.raises(TeacherTruncationError):
            backend.complete(CompletionRequest(prompt="hi", max_tokens=32))

    def test_malformed_body_raises(self):
        fake = FakeTransport([(200, {"choices": []})])
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=lambda _: None
        )
        with pytest.raises(TeacherError) as err:
            backend.complete(CompletionRequest(prompt="hi"))
        assert "malformed" in str(err.value)

    @pytest.mark.parametrize("content", [None, 7, ["a"], {"text": "yes"}])
    def test_content_that_is_not_text_raises(self, content):
        """A reply whose content is not a string is a TeacherError, which the
        retrieval filter counts as a failure instead of dying on it."""
        fake = FakeTransport([(200, completion_body(content))])
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=lambda _: None
        )
        with pytest.raises(TeacherError) as err:
            TeacherClient(backend).judge_relevance("Why?", "Title", "Passage.")
        assert "malformed completion response" in str(err.value)

    def test_payload_with_system_message(self):
        fake = FakeTransport([(200, completion_body(OK_REPLY))])
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="secret", post=fake.post, sleep=lambda _: None
        )
        req = CompletionRequest(
            prompt="Explain tides.",
            system_message="You are a physics teacher.",
            temperature=0.7,
            max_tokens=256,
        )
        backend.complete(req)
        call = fake.calls[0]
        assert call["url"] == BASE_URL + "/chat/completions"
        assert call["headers"]["Authorization"] == "Bearer secret"
        assert call["payload"] == {
            "model": "teacher",
            "messages": [
                {"role": "system", "content": "You are a physics teacher."},
                {"role": "user", "content": "Explain tides."},
            ],
            "temperature": 0.7,
            "max_tokens": 256,
        }

    def test_empty_system_message_omits_system_turn(self):
        fake = FakeTransport([(200, completion_body(OK_REPLY))])
        backend = HttpTeacherBackend(
            base_url=BASE_URL, api_key="k", post=fake.post, sleep=lambda _: None
        )
        backend.complete(CompletionRequest(prompt="Explain tides."))
        messages = fake.calls[0]["payload"]["messages"]
        assert messages == [{"role": "user", "content": "Explain tides."}]

    def test_request_model_overrides_default(self):
        fake = FakeTransport([(200, completion_body(OK_REPLY))])
        backend = HttpTeacherBackend(
            base_url=BASE_URL,
            model="teacher-large",
            api_key="k",
            post=fake.post,
            sleep=lambda _: None,
        )
        backend.complete(CompletionRequest(prompt="hi", model="teacher-mini"))
        assert fake.calls[0]["payload"]["model"] == "teacher-mini"

    def test_no_api_key_means_no_auth_header(self, monkeypatch):
        monkeypatch.delenv("TEACHER_API_KEY", raising=False)
        fake = FakeTransport([(200, completion_body(OK_REPLY))])
        backend = HttpTeacherBackend(
            base_url=BASE_URL, post=fake.post, sleep=lambda _: None
        )
        backend.complete(CompletionRequest(prompt="hi"))
        assert "Authorization" not in fake.calls[0]["headers"]

    def test_credentials_come_from_environment(self, monkeypatch):
        monkeypatch.setenv("TEACHER_API_BASE", "https://env.test/api/")
        monkeypatch.setenv("TEACHER_API_KEY", "env-key")
        fake = FakeTransport([(200, completion_body(OK_REPLY))])
        backend = HttpTeacherBackend(post=fake.post, sleep=lambda _: None)
        backend.complete(CompletionRequest(prompt="hi"))
        call = fake.calls[0]
        assert call["url"] == "https://env.test/api/chat/completions"
        assert call["headers"]["Authorization"] == "Bearer env-key"

    def test_missing_endpoint_is_an_error(self, monkeypatch):
        monkeypatch.delenv("TEACHER_API_BASE", raising=False)
        with pytest.raises(TeacherError) as err:
            HttpTeacherBackend()
        assert "TEACHER_API_BASE" in str(err.value)


class LoopbackHandler(http.server.BaseHTTPRequestHandler):
    """Replies by path: ``/<status>`` sends that status with a JSON body,
    ``/<status>/text`` the same status with a plain-text body."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.received.append(
            {
                "path": self.path,
                "content_type": self.headers["Content-Type"],
                "authorization": self.headers["Authorization"],
                "payload": json.loads(self.rfile.read(length)),
            }
        )
        status, _, kind = self.path.strip("/").partition("/")
        reply = completion_body(OK_REPLY) if status == "200" else {"error": status}
        body, content_type = json.dumps(reply).encode(), "application/json"
        if kind == "text":
            body, content_type = b"Service Unavailable", "text/plain"
        self.send_response(int(status))
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback():
    """A local HTTP server on an ephemeral port; yields its base URL and server."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), LoopbackHandler)
    server.received = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture
def connections():
    """Makes a backend's pool of kept connections to a URL; closes each at exit."""
    pools = []

    def make(url):
        pools.append(teacher_module._Connections(url))
        return pools[-1]

    yield make
    for pool in pools:
        pool.close()


class TestDefaultPost:
    """The real transport, a backend's pool of kept connections, against a
    loopback server."""

    def test_ok_returns_status_and_json_body(self, loopback, connections):
        url, server = loopback
        headers = {"Content-Type": "application/json", "Authorization": "Bearer k"}
        payload = {"model": "m", "messages": [{"role": "user", "content": "héllo"}]}
        status, body = connections(url)(url + "/200", headers, payload, 10.0)
        assert (status, body) == (200, completion_body(OK_REPLY))
        assert server.received == [
            {
                "path": "/200",
                "content_type": "application/json",
                "authorization": "Bearer k",
                "payload": payload,
            }
        ]

    @pytest.mark.parametrize("status", [401, 429, 503])
    def test_error_status_is_returned_with_its_json_body(self, loopback, connections, status):
        url, _ = loopback
        assert connections(url)(f"{url}/{status}", {}, {}, 10.0) == (
            status, {"error": str(status)}
        )

    @pytest.mark.parametrize("status", [200, 503])
    def test_non_json_body_reads_as_empty(self, loopback, connections, status):
        url, _ = loopback
        assert connections(url)(f"{url}/{status}/text", {}, {}, 10.0) == (status, {})

    def test_backend_retries_503_then_succeeds(self, loopback, connections):
        url, server = loopback
        paths = iter(["/503/text", "/429", "/200"])
        waits = []
        pool = connections(url)
        backend = HttpTeacherBackend(
            base_url=url, api_key="k", sleep=waits.append,
            post=lambda _url, *rest: pool(url + next(paths), *rest),
        )
        assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
        assert [r["path"] for r in server.received] == ["/503/text", "/429", "/200"]
        assert waits == [0.5, 1.0]

    def test_backend_auth_failure_through_the_wire(self, loopback, connections):
        url, server = loopback
        waits = []
        pool = connections(url)
        backend = HttpTeacherBackend(
            base_url=url, api_key="k", sleep=waits.append,
            post=lambda _url, *rest: pool(url + "/401", *rest),
        )
        with pytest.raises(TeacherAuthError):
            backend.complete(CompletionRequest(prompt="hi"))
        assert len(server.received) == 1 and waits == []

    def test_backend_retries_a_refused_connection(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # The port is closed again, so every attempt is refused.
        waits = []
        backend = HttpTeacherBackend(
            base_url=f"http://127.0.0.1:{port}", api_key="k", sleep=waits.append
        )
        with pytest.raises(TeacherRetryError) as err:
            backend.complete(CompletionRequest(prompt="hi"))
        assert "5 attempt(s)" in str(err.value)
        assert waits == [0.5, 1.0, 2.0, 4.0]

    @pytest.mark.parametrize("url", ["ftp://teacher.test/v1", "teacher.test/v1"])
    def test_an_endpoint_that_is_not_http_is_an_error(self, url):
        with pytest.raises(TeacherError, match="use http or https"):
            HttpTeacherBackend(base_url=url, api_key="k")


class TwoWriteHandler(http.server.BaseHTTPRequestHandler):
    """A completion endpoint that, like ``http.server`` itself, writes a
    reply's headers and its body in two sends, with Nagle's algorithm on.

    The server records the peer of each connection it accepts and each
    request line's target; with ``close_after`` set it closes each connection after
    its reply without saying so, as a server dropping an idle connection
    does."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.peers.append(self.client_address)

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.targets.append(self.path)
        self.server.proxy_auth.append(self.headers["Proxy-Authorization"])
        body = json.dumps(completion_body(OK_REPLY)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = self.server.close_after

    def do_CONNECT(self):
        self.server.targets.append(f"CONNECT {self.path}")
        self.server.proxy_auth.append(self.headers["Proxy-Authorization"])
        self.send_response(403)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def two_write_server(protocol="HTTP/1.1", close_after=False):
    """Serve ``TwoWriteHandler`` on a loopback port; yields the server."""
    handler = type("Handler", (TwoWriteHandler,), {"protocol_version": protocol})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.peers, server.targets, server.proxy_auth = [], [], []
    server.close_after = close_after
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def http_teacher(url, waits=None):
    sleep = [].append if waits is None else waits.append
    return HttpTeacherBackend(base_url=url, api_key="k", sleep=sleep)


@pytest.fixture
def proxy_env(monkeypatch):
    """Clears every proxy variable; yields ``monkeypatch`` to set some."""
    for scheme in ("http", "https", "all", "no"):
        monkeypatch.delenv(f"{scheme}_proxy", raising=False)
        monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)
    return monkeypatch


class TestConnectionPool:
    """Each HTTP backend keeps its connections to its endpoint between calls."""

    def test_sequential_calls_share_one_connection(self):
        with two_write_server() as server:
            backend = http_teacher(server.url)
            try:
                for _ in range(5):
                    assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
            finally:
                backend.close()
        assert len(server.peers) == (1 if hasattr(socket, "TCP_QUICKACK") else 5)
        assert server.targets == ["/chat/completions"] * 5

    def test_an_http_1_0_server_gets_a_connection_per_call(self):
        with two_write_server(protocol="HTTP/1.0") as server:
            backend = http_teacher(server.url)
            try:
                for _ in range(5):
                    assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
            finally:
                backend.close()
        assert len(server.peers) == 5

    def test_without_quickack_each_connection_closes_after_its_reply(self, monkeypatch):
        monkeypatch.delattr(socket, "TCP_QUICKACK", raising=False)
        with two_write_server() as server:
            backend = http_teacher(server.url)
            try:
                for _ in range(3):
                    assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
                assert backend._connections._idle == []
            finally:
                backend.close()
        assert len(server.peers) == 3

    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK")
    def test_a_kept_connection_is_not_held_up_by_delayed_acks(self):
        """Without ``TCP_QUICKACK`` the server's body would wait about 40 ms
        for the client's delayed ACK of the headers on every call."""
        calls = 50
        with two_write_server() as server:
            backend = http_teacher(server.url)
            try:
                start = time.perf_counter()
                for _ in range(calls):
                    backend.complete(CompletionRequest(prompt="hi"))
                elapsed = time.perf_counter() - start
            finally:
                backend.close()
        assert len(server.peers) == 1
        assert elapsed < calls * 0.040 / 2

    def test_a_connection_the_server_dropped_is_replaced_at_once(self):
        waits = []
        with two_write_server(close_after=True) as server:
            backend = http_teacher(server.url, waits)
            try:
                for _ in range(2):
                    assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
            finally:
                backend.close()
        assert waits == []
        assert server.targets == ["/chat/completions"] * 2
        assert len(server.peers) == 2

    def test_a_failure_on_a_new_connection_goes_to_the_retry_policy(self, monkeypatch):
        """Only a kept connection is re-sent at once; a new one that fails
        is an attempt, with its wait."""
        sent = []

        def failing_send(conn, url, headers, body):
            sent.append(conn)
            conn.close()
            raise http.client.RemoteDisconnected("closed")

        waits = []
        backend = http_teacher("http://127.0.0.1:9", waits)
        monkeypatch.setattr(backend._connections, "send", failing_send)
        with pytest.raises(TeacherRetryError):
            backend.complete(CompletionRequest(prompt="hi"))
        assert len(sent) == 5
        assert waits == [0.5, 1.0, 2.0, 4.0]

    def test_threads_take_their_own_connections(self):
        with two_write_server() as server:
            backend = http_teacher(server.url)
            client = TeacherClient(backend=backend, max_concurrency=4)
            try:
                replies = fan_out(lambda i: client.ask(f"q{i}"), range(40), 4)
            finally:
                client.close()
            assert backend._connections._idle == []
        assert replies == [OK_REPLY] * 40
        assert len(server.targets) == 40
        assert len(server.peers) <= (4 if hasattr(socket, "TCP_QUICKACK") else 40)

    def test_close_closes_every_idle_connection(self):
        with two_write_server() as server:
            backend = http_teacher(server.url)
            backend.complete(CompletionRequest(prompt="hi"))
            idle = list(backend._connections._idle)
            backend.close()
            assert all(conn.sock is None for conn in idle)
            # A call after close opens a new connection.
            assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
            backend.close()
        assert len(idle) == (1 if hasattr(socket, "TCP_QUICKACK") else 0)
        assert len(server.peers) == 2


    def test_a_backend_dropped_unclosed_closes_its_connections(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with two_write_server() as server:
            backend = http_teacher(server.url)
            backend.complete(CompletionRequest(prompt="hi"))
            idle = list(backend._connections._idle)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                del backend
                gc.collect()
        assert all(conn.sock is None for conn in idle)
        assert unraisable == []


class TestProxies:
    """Proxies are found as urllib finds them, once per backend."""

    def test_an_http_proxy_gets_the_absolute_uri(self, proxy_env):
        with two_write_server() as proxy:
            proxy_env.setenv("http_proxy", proxy.url.replace("http://", "http://u%40x:p%3Aw@"))
            backend = http_teacher("http://teacher.test/v1")
            try:
                for _ in range(2):
                    assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
            finally:
                backend.close()
        assert proxy.targets == ["http://teacher.test/v1/chat/completions"] * 2
        credentials = base64.b64encode(b"u@x:p:w").decode()
        assert proxy.proxy_auth == [f"Basic {credentials}"] * 2

    def test_no_proxy_bypasses_the_proxy(self, proxy_env):
        with two_write_server() as proxy, two_write_server() as endpoint:
            proxy_env.setenv("http_proxy", proxy.url)
            proxy_env.setenv("no_proxy", "127.0.0.1")
            backend = http_teacher(endpoint.url)
            try:
                assert backend.complete(CompletionRequest(prompt="hi")) == OK_REPLY
            finally:
                backend.close()
        assert proxy.targets == [] and proxy.peers == []
        assert endpoint.targets == ["/chat/completions"]

    def test_an_https_endpoint_is_tunnelled(self, proxy_env):
        waits = []
        with two_write_server() as proxy:
            proxy_env.setenv("https_proxy", proxy.url.replace("http://", "http://u:p@"))
            backend = http_teacher("https://teacher.test/v1", waits)
            with pytest.raises(TeacherRetryError):
                backend.complete(CompletionRequest(prompt="hi"))
        assert proxy.targets == ["CONNECT teacher.test:443"] * 5
        assert proxy.proxy_auth == [f"Basic {base64.b64encode(b'u:p').decode()}"] * 5
        assert waits == [0.5, 1.0, 2.0, 4.0]


IMPORT_GATE = """
import sys
import corgi
assert "numpy" not in sys.modules, "import corgi imported numpy"
import corgi.cli
assert "numpy" not in sys.modules, "import corgi.cli imported numpy"
assert "requests" not in sys.modules, "import corgi.cli imported requests"
"""


def test_importing_corgi_and_the_cli_imports_neither_numpy_nor_requests():
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    subprocess.run([sys.executable, "-c", IMPORT_GATE], env=env, check=True, timeout=60)


class TestTeacherClient:
    def test_ask_uses_generation_temperature(self):
        backend = RecordingBackend()
        client = TeacherClient(backend=backend)
        client.ask("Explain gravity.", system_message="Be brief.")
        req = backend.requests[0]
        assert req.prompt == "Explain gravity."
        assert req.system_message == "Be brief."
        assert req.temperature == DEFAULT_GENERATION_TEMPERATURE
        assert req.temperature == 0.7
        assert req.max_tokens == 1024

    def test_ask_temperature_override(self):
        backend = RecordingBackend()
        client = TeacherClient(backend=backend)
        client.ask("Explain gravity.", temperature=0.2)
        req = backend.requests[0]
        assert req.temperature == 0.2
        assert req.max_tokens == 1024

    def test_judge_uses_zero_temperature_and_no_system(self):
        backend = RecordingBackend(reply="A) Yes")
        client = TeacherClient(backend=backend)
        verdict = client.judge_relevance("Why is the sky blue?", "Optics", "Scattering.")
        assert verdict is True
        req = backend.requests[0]
        assert req.temperature == DEFAULT_JUDGE_TEMPERATURE
        assert req.temperature == 0.0
        assert req.system_message == ""
        expected = build_retrieval_check_prompt(
            "Why is the sky blue?", "Optics", "Scattering."
        )
        assert req.prompt == expected

    def test_judge_no_verdict(self):
        backend = RecordingBackend(reply="B) No")
        client = TeacherClient(backend=backend)
        assert client.judge_relevance("q", "t", "p") is False

    def test_judge_with_scripted_mock(self):
        prompt = build_retrieval_check_prompt("What is a comet?", "Comets", "Ice.")
        backend = MockTeacherBackend.from_prompts({prompt: "I think the answer is B"})
        client = TeacherClient(backend=backend)
        assert client.judge_relevance("What is a comet?", "Comets", "Ice.") is False

    def test_model_name_falls_back(self):
        class Bare:
            def complete(self, req):
                return ""

        assert TeacherClient(backend=Bare()).model_name == "teacher"
        assert TeacherClient(backend=RecordingBackend()).model_name == "recording"


class TestFanOut:
    def test_empty_input(self):
        assert fan_out(lambda item: item, [], 4) == []

    def test_submission_order_under_uneven_latency(self):
        delays = [0.08, 0.04, 0.01, 0.0]

        def slow(i):
            time.sleep(delays[i])
            return f"reply {i}"

        assert fan_out(slow, range(4), 4) == [f"reply {i}" for i in range(4)]

    def test_matches_the_serial_path(self):
        client = TeacherClient(backend=SimulatedTeacherBackend(seed=7))
        prompts = [f"Describe topic {i}." for i in range(12)]
        serial = fan_out(client.ask, prompts, 1)
        assert fan_out(client.ask, prompts, 4) == serial
        assert serial == [client.ask(p) for p in prompts]

    def test_one_worker_starts_no_thread(self):
        threads = fan_out(lambda _: threading.current_thread(), range(3), 1)
        assert threads == [threading.main_thread()] * 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_exception_propagates_and_queued_items_are_cancelled(self, workers):
        calls = []
        lock = threading.Lock()

        def fail_at_three(i):
            with lock:
                calls.append(i)
            time.sleep(0.005)
            if i >= 3:
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError) as err:
            fan_out(fail_at_three, range(200), workers)
        assert str(err.value) == "item 3"
        assert len(calls) < 20


class TestCallPool:
    def test_one_worker_runs_each_call_as_it_is_submitted(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a ThreadPoolExecutor was constructed")

        monkeypatch.setattr(teacher_module, "ThreadPoolExecutor", no_pool)
        ran = []
        with CallPool(1) as pool:
            first = pool.submit(ran.append, 1)
            assert ran == [1]
            second = pool.submit(lambda: threading.current_thread())
        assert first.result() is None
        assert second.result() is threading.main_thread()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_call_may_submit_calls(self, workers):
        with CallPool(workers) as pool:

            def chain(n):
                return [pool.submit(lambda i: i * i, i) for i in range(n)]

            handles = pool.submit(chain, 5).result()
        assert [handle.result() for handle in handles] == [0, 1, 4, 9, 16]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_escaped_exception_aborts_the_pool(self, workers):
        ran = []
        with pytest.raises(ValueError, match="boom") as err:
            with CallPool(workers) as pool:
                failed = pool.submit(self.raise_value_error)
                with pytest.raises(ValueError):
                    failed.result()
                late = pool.submit(ran.append, 1)
        assert pool.error is err.value
        assert ran == []
        with pytest.raises(ValueError, match="boom"):
            late.result()

    @staticmethod
    def raise_value_error():
        raise ValueError("boom")

    def test_queued_calls_are_cancelled_and_raise_the_first_error(self):
        gate, release = threading.Event(), threading.Event()
        ran = []

        def wait_then_fail():
            gate.wait(5)
            raise ValueError("first")

        with pytest.raises(ValueError, match="first"):
            with CallPool(2) as pool:
                failing = pool.submit(wait_then_fail)
                blocker = pool.submit(release.wait, 5)
                queued = [pool.submit(ran.append, i) for i in range(10)]
                gate.set()
                with pytest.raises(ValueError, match="first"):
                    failing.result()
                release.set()
        assert blocker.result() is True
        assert ran == []
        for handle in queued:
            with pytest.raises(ValueError, match="first"):
                handle.result()


class TestSimulatedBackend:
    def test_deterministic_per_seed(self):
        req = CompletionRequest(prompt="Tell me about entropy.")
        first = SimulatedTeacherBackend(seed=3).complete(req)
        second = SimulatedTeacherBackend(seed=3).complete(req)
        assert first == second
        other = SimulatedTeacherBackend(seed=4).complete(req)
        assert first != other

    def test_refinement_mentions_title(self):
        prompt = (
            "Extend the course description below.\n"
            "Course Title: Orbital Mechanics\n"
            "Course Description: Motion of satellites."
        )
        reply = SimulatedTeacherBackend(seed=0).complete(
            CompletionRequest(prompt=prompt)
        )
        assert "Orbital Mechanics" in reply

    def test_concept_list_plants_shared_concept(self):
        prompt = (
            "Course Title: Orbital Mechanics\n"
            "Course Description: Motion of satellites.\n\n"
            "### List ###"
        )
        reply = SimulatedTeacherBackend(seed=0, concepts_per_course=4).complete(
            CompletionRequest(prompt=prompt)
        )
        entries = [block for block in reply.split("\n\n") if block.strip()]
        assert len(entries) == 4
        assert entries[1].startswith("2. Systematic Inquiry: ")
        for position, entry in enumerate(entries, start=1):
            assert entry.startswith(f"{position}. ")

    def test_question_prompt_yields_question(self):
        prompt = "Concept: Tides\n\n### Question ###"
        reply = SimulatedTeacherBackend(seed=0).complete(
            CompletionRequest(prompt=prompt)
        )
        assert reply.startswith("Question: ")

    def test_refusals_obey_rate(self):
        always = SimulatedTeacherBackend(seed=0, refusal_rate=1.0)
        never = SimulatedTeacherBackend(seed=0, refusal_rate=0.0)
        req = CompletionRequest(prompt="Explain buoyancy.")
        assert always.complete(req) == REFUSAL_TEXT
        assert never.complete(req) != REFUSAL_TEXT

    def test_judge_rate_extremes(self):
        prompt = build_retrieval_check_prompt("What is a comet?", "Comets", "Ice.")
        req = CompletionRequest(prompt=prompt)
        assert prompt.startswith("QUESTION:")
        yes = SimulatedTeacherBackend(seed=0, relevance_yes_rate=1.0)
        no = SimulatedTeacherBackend(seed=0, relevance_yes_rate=0.0)
        assert yes.complete(req) == "A) Yes"
        assert no.complete(req) == "B) No"

    def test_judge_rate_is_roughly_honoured(self):
        backend = SimulatedTeacherBackend(seed=11, relevance_yes_rate=0.5)
        yes_count = 0
        rounds = 2000
        for i in range(rounds):
            prompt = build_retrieval_check_prompt(f"Question {i}?", "T", "P.")
            if parse_relevance_reply(backend.complete(CompletionRequest(prompt=prompt))):
                yes_count += 1
        assert abs(yes_count / rounds - 0.5) < 0.05


WORD_BANK = teacher_module._WORD_BANK

# The markers by which the simulated teacher tells the pipeline's other
# prompts apart.
PROMPT_MARKERS = ("Extend the course description", "### List ###", "### Question ###")

# Each (kind, digest size) the simulated teacher hashes with.
HASH_KINDS = (
    ("refine", 4), ("concept", 6), ("question", 5), ("answer", 6), ("judge", 8), ("refuse", 8),
)


def oracle_digest(seed, size, *parts):
    """The one-shot keyed hash: BLAKE2b of the parts joined by U+001F."""
    key = "\x1f".join((str(seed),) + parts).encode("utf-8")
    return hashlib.blake2b(key, digest_size=size).digest()


def oracle_uniform(seed, *parts):
    return int.from_bytes(oracle_digest(seed, 8, *parts), "big") / 2**64


def oracle_words(seed, count, *parts):
    return [WORD_BANK[b % len(WORD_BANK)] for b in oracle_digest(seed, count, *parts)]


def random_text(rng, length):
    alphabet = "abc XYZ\n\t\x1f{}\u00e9\u2028\u4e2d\U0001F52D"
    return "".join(rng.choice(alphabet) for _ in range(length))


class TestSimulatedJudgeFirst:
    """A judge prompt gets a verdict, whatever its passage or question quotes."""

    @pytest.mark.parametrize("marker", PROMPT_MARKERS)
    @pytest.mark.parametrize("where", ["question", "title", "passage"])
    def test_a_quoted_marker_still_gets_a_verdict(self, marker, where):
        backend = SimulatedTeacherBackend(seed=5, relevance_yes_rate=0.5)
        verdicts = []
        for i in range(40):
            text = {
                "question": f"What keeps comet {i} on its orbit?",
                "title": "Solar System",
                "passage": f"Comets orbit the Sun on ellipses ({i}).",
            }
            text[where] += f" {marker} notes follow."
            prompt = build_retrieval_check_prompt(
                text["question"], text["title"], text["passage"]
            )
            reply = backend.complete(CompletionRequest(prompt=prompt))
            expected = "A) Yes" if oracle_uniform(5, "judge", prompt) < 0.5 else "B) No"
            assert reply == expected
            verdicts.append(reply)
        assert set(verdicts) == {"A) Yes", "B) No"}

    def test_verdicts_match_the_oracle_at_the_default_rate(self):
        backend = SimulatedTeacherBackend(seed=9)
        for i in range(200):
            prompt = build_retrieval_check_prompt(f"Question {i}?", "T", "P.")
            expected = "A) Yes" if oracle_uniform(9, "judge", prompt) < 0.9 else "B) No"
            assert backend.complete(CompletionRequest(prompt=prompt)) == expected


class TestKeyedDigests:
    """The keyed prefix states give the one-shot digests, byte for byte."""

    @pytest.mark.parametrize("seed", [0, 3, 12345, -7])
    def test_every_kind_matches_the_one_shot_hash(self, seed):
        rng = random.Random(seed)
        cases = [("",), ("", ""), ("Gravity", "2"), ("\u00e9t\u00e9 \u4e2d\U0001F52D",)]
        cases += [(random_text(rng, rng.randint(0, 3000)),) for _ in range(20)]
        cases += [
            tuple(random_text(rng, rng.randint(0, 40)) for _ in range(rng.randint(1, 4)))
            for _ in range(20)
        ]
        backend = SimulatedTeacherBackend(seed=seed)
        # Twice over, so the second pass runs on states already used.
        for _ in range(2):
            for kind, size in HASH_KINDS:
                for parts in cases:
                    assert backend._words(size, kind, *parts) == oracle_words(
                        seed, size, kind, *parts
                    )
                    assert backend._uniform(kind, *parts) == oracle_uniform(seed, kind, *parts)

    def test_every_digest_size(self):
        backend = SimulatedTeacherBackend(seed=4)
        for size in range(1, 65):
            for text in ("", "harbor", "\U0001F52D" * size):
                assert backend._words(size, "answer", text) == oracle_words(
                    4, size, "answer", text
                )

    def test_threads_sharing_one_backend_get_the_one_shot_hash(self):
        backend = SimulatedTeacherBackend(seed=8)
        prompts = [f"prompt {i} " + "x" * (i % 97) for i in range(300)]
        expected = [oracle_uniform(8, "judge", p) for p in prompts]
        results = {}

        def work(worker):
            results[worker] = [backend._uniform("judge", p) for p in prompts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {w: expected for w in range(8)}


class TestReferenceEmbedder:
    def test_identical_texts_have_cosine_one(self):
        backend = ReferenceEmbeddingBackend()
        a = backend.embed_many(["The moons of Jupiter."])[0]
        b = backend.embed_many(["The moons of Jupiter."])[0]
        assert math.isclose(float(np.dot(a, b)), 1.0, abs_tol=1e-9)

    def test_disjoint_texts_are_dissimilar(self):
        backend = ReferenceEmbeddingBackend()
        a = backend.embed_many(["aaaa"])[0]
        b = backend.embed_many(["zzzz"])[0]
        assert float(np.dot(a, b)) < 0.5

    def test_dimension_and_shape(self):
        backend = ReferenceEmbeddingBackend()
        vector = backend.embed_many(["tides"])[0]
        assert backend.dimension == EMBEDDING_DIMENSION == 256
        assert vector.shape == (256,)

    def test_vectors_are_unit_norm(self):
        backend = ReferenceEmbeddingBackend()
        rng = random.Random(42)
        alphabet = "abcdefghij klmnop"
        for _ in range(100):
            length = rng.randrange(1, 40)
            text = "".join(rng.choice(alphabet) for _ in range(length))
            if not text.strip():
                text = "x"
            vector = backend.embed_many([text])[0]
            assert abs(float(np.linalg.norm(vector)) - 1.0) < 1e-6

    def test_short_text_embeds(self):
        backend = ReferenceEmbeddingBackend()
        vector = backend.embed_many(["ab"])[0]
        assert abs(float(np.linalg.norm(vector)) - 1.0) < 1e-6

    def test_empty_text_is_an_error(self):
        backend = ReferenceEmbeddingBackend()
        with pytest.raises(TeacherError):
            backend.embed_many([""])

    def test_instances_agree(self):
        a = ReferenceEmbeddingBackend().embed_many(["magnetism"])[0]
        b = ReferenceEmbeddingBackend().embed_many(["magnetism"])[0]
        assert np.array_equal(a, b)

    # sha256 of ``embed_many([text])[0].tobytes()``, recorded from the per-trigram
    # BLAKE2 loop this embedder replaced; the bits must never change.
    PINNED_DIGESTS = {
        "a": "524a8b4486c06fc0ea1bcf543673f3efb00fc3546706f4debcebc7f48bf72f9f",
        "ab": "4b334a4009b1e98ca9df378fa63de0f0d9b79c09681804a523a9d179c47af424",
        "abc": "34379ecc83758a1f46246af549d6e67a2c62325dd7c2b7d77da34012370c76db",
        # Its two trigrams share a bucket with opposite signs: the
        # all-cancel fallback.
        "aavy": "dc7b75b06c1546914928e6db8d45b7a157e9177e6515d7f68589e6e5535a198c",
        "Ωmega Σ — café naïve 量子力学: non-ASCII text":
            "bd72557d3f571e5fce8c26d84be565eecb356220434db53a2405edea5086153a",
        "Quantum Mechanics: "
        + " ".join(["The study of wavefunctions, operators and measurement"] * 12):
            "140ae12e4416057051b19f20025b4a56a480118ef1342bea86fecd0dfe08897c",
    }

    @pytest.mark.parametrize("text", sorted(PINNED_DIGESTS), ids=range(6))
    def test_pinned_bits(self, text):
        vector = ReferenceEmbeddingBackend().embed_many([text])[0]
        assert vector.dtype == np.float64
        assert hashlib.sha256(vector.tobytes()).hexdigest() == self.PINNED_DIGESTS[text]

    def test_all_cancel_fallback_is_one_hot(self):
        vector = ReferenceEmbeddingBackend().embed_many(["aavy"])[0]
        assert np.count_nonzero(vector) == 1 and vector.max() == 1.0

    @staticmethod
    def per_trigram(text):
        """The embedder's definition, one text and one trigram at a time."""

        def hash64(gram):
            return int.from_bytes(hashlib.blake2b(gram.encode(), digest_size=8).digest(), "big")

        vector = np.zeros(EMBEDDING_DIMENSION)
        for gram in [text[i : i + 3] for i in range(len(text) - 2)] or [text]:
            vector[hash64(gram) % EMBEDDING_DIMENSION] += -1.0 if hash64(gram) >> 63 else 1.0
        if not vector.any():
            vector[hash64(text) % EMBEDDING_DIMENSION] = 1.0
        return vector / float(np.linalg.norm(vector))

    def test_embed_many_is_the_stacked_embed(self):
        """Bit for bit one text at a time and the per-trigram oracle, over
        several chunks of short texts whose grams mix astral-plane, NUL and
        other non-ASCII code points."""
        rng = random.Random(13)
        alphabet = "ab \x00\x7fé—量\U0001F600\U0010FFFF"
        texts = ["aavy", "a", "\U0001F600", "\x00\x00\x00"] + [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 9)))
            for _ in range(300)
        ]
        backend = ReferenceEmbeddingBackend()
        many = backend.embed_many(texts)
        assert many.shape == (len(texts), EMBEDDING_DIMENSION) and many.dtype == np.float64
        one_by_one = np.stack([backend.embed_many([t])[0] for t in texts])
        assert many.tobytes() == one_by_one.tobytes()
        oracle = np.stack([self.per_trigram(t) for t in texts])
        assert many.tobytes() == oracle.tobytes()

    def test_embed_is_embed_many_of_one_text(self):
        """``embed`` survives only as a tracing hook; it must stay the same
        vector as a one-text ``embed_many``."""
        backend = ReferenceEmbeddingBackend()
        for text in ("a", "aavy", "The moons of Jupiter."):
            assert backend.embed(text).tobytes() == backend.embed_many([text])[0].tobytes()

    def test_embed_many_of_nothing(self):
        many = ReferenceEmbeddingBackend().embed_many([])
        assert many.shape == (0, EMBEDDING_DIMENSION) and many.dtype == np.float64

    @pytest.mark.parametrize("where", [0, 1, 70])
    def test_embed_many_rejects_an_empty_text(self, where):
        texts = ["tides"] * 100
        texts[where] = ""
        with pytest.raises(TeacherError):
            ReferenceEmbeddingBackend().embed_many(texts)


def embedding_body(rows, indices=None):
    """An embeddings reply: one ``data`` entry per row, indexed in order
    unless ``indices`` says otherwise."""
    indices = range(len(rows)) if indices is None else indices
    return {"data": [{"index": i, "embedding": row} for i, row in zip(indices, rows)]}


def planted_values(text):
    """The row a fake endpoint returns for ``text``: a function of the text."""
    return [float(len(text)), float(sum(map(ord, text)) % 97), 1.0]


class EmbeddingEndpoint:
    """Fake embeddings POST that answers every batch with ``planted_values``."""

    def __init__(self):
        self.inputs = []

    def post(self, url, headers, payload, timeout):
        self.inputs.append(payload["input"])
        return 200, embedding_body([planted_values(text) for text in payload["input"]])


def http_embedder(post, **kwargs):
    kwargs.setdefault("sleep", lambda _: None)
    return HttpEmbeddingBackend(base_url="https://embed.test", api_key="k", post=post, **kwargs)


def texts_of(n):
    return [f"text {i}" for i in range(n)]


class TestHttpEmbeddingBackend:
    def test_normalizes_and_caches(self):
        """Dedup asks the endpoint once per distinct text, in one POST, and
        vectors are unit length."""
        fake = FakeTransport([(200, embedding_body([[3.0, 4.0], [4.0, -3.0]]))])
        backend = http_embedder(fake.post)
        stage = EducationalStage("higher")
        concepts = [
            Concept(id=f"s/{course}/{name.lower()}", course_id=f"s/{course}",
                    subject="S", stage=stage, name=name, explanation="Sea levels.")
            for course, name in (("a", "Tides"), ("b", "Tides"), ("b", "Waves"))
        ]
        kept, report = dedup_concepts(concepts, backend)
        assert [call["payload"] for call in fake.calls] == [
            {"model": "embedder", "input": ["Tides: Sea levels.", "Waves: Sea levels."]}
        ]
        assert fake.calls[0]["url"] == "https://embed.test/embeddings"
        assert [c.id for c in kept] == ["s/a/tides", "s/b/waves"]
        assert [d.id for d in report.dropped] == ["s/b/tides"]
        # [3, 4] with itself: 25 unless normalized to [0.6, 0.8].
        assert math.isclose(report.dropped[0].similarity, 1.0, abs_tol=1e-12)

    def test_embed_many_sends_64_texts_per_post(self):
        fake = EmbeddingEndpoint()
        texts = texts_of(130)
        vectors = http_embedder(fake.post).embed_many(texts)
        assert [len(batch) for batch in fake.inputs] == [64, 64, 2]
        assert [text for batch in fake.inputs for text in batch] == texts
        expected = [np.asarray(planted_values(text)) for text in texts]
        assert vectors.tolist() == [(v / np.linalg.norm(v)).tolist() for v in expected]
        assert http_embedder(fake.post).embed_many([]).shape == (0, 0)
        assert http_embedder(fake.post, dimension=3).embed_many([]).shape == (0, 3)
        assert len(fake.inputs) == 3

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1791])
    def test_n_texts_cost_one_post_per_64_with_per_text_vectors(self, n):
        """1,791 distinct texts, the retune-shaped catalog's count, cost 28
        POSTs; each vector is bit for bit that of a one-text reply with the
        same values."""
        fake = EmbeddingEndpoint()
        texts = texts_of(n)
        vectors = http_embedder(fake.post).embed_many(texts)
        assert len(fake.inputs) == math.ceil(n / 64)
        one_by_one = np.stack([http_embedder(fake.post).embed_many([t])[0] for t in texts])
        assert vectors.tobytes() == one_by_one.tobytes()

    def test_rows_are_placed_by_index(self):
        order = list(range(10))
        random.Random(3).shuffle(order)
        rows = [[float(i + 1), 1.0] for i in order]
        fake = FakeTransport([(200, embedding_body(rows, indices=order))])
        vectors = http_embedder(fake.post).embed_many(texts_of(10))
        by_index = [[float(i + 1), 1.0] for i in range(10)]
        assert vectors.tolist() == [(np.asarray(v) / np.linalg.norm(v)).tolist() for v in by_index]

    def test_embed_many_rejects_mixed_dimensions(self):
        fake = FakeTransport([(200, embedding_body([[3.0, 4.0], [1.0, 0.0, 0.0]]))])
        with pytest.raises(TeacherError) as err:
            http_embedder(fake.post).embed_many(["tides", "waves"])
        assert "dimension 3 != 2 for the text at position 1" in str(err.value)

    # Faults planted in the reply to the second POST, which carries the
    # texts at positions 64-69: each error names the absolute position.
    BAD_REPLIES = {
        "one_row_too_few": (lambda rows: embedding_body(rows[:5]), "positions 64-69"),
        "one_row_too_many": (
            lambda rows: embedding_body(rows + [[1.0, 1.0]]), "positions 64-69"
        ),
        "repeated_index": (
            lambda rows: embedding_body(rows, indices=[0, 1, 2, 3, 4, 4]), "position 69"
        ),
        "missing_index": (
            lambda rows: embedding_body(rows, indices=[0, 1, 3, 4, 5, 6]), "position 66"
        ),
        "index_absent": (
            lambda rows: {"data": [{"embedding": row} for row in rows]}, "positions 64-69"
        ),
        "nan_value": (
            lambda rows: embedding_body(rows[:2] + [[float("nan"), 1.0]] + rows[3:]),
            "position 66",
        ),
        "null_value": (
            lambda rows: embedding_body(rows[:2] + [[None, 1.0]] + rows[3:]), "position 66"
        ),
        "zero_vector": (
            lambda rows: embedding_body(rows[:3] + [[0.0, 0.0]] + rows[4:]), "position 67"
        ),
        "other_width": (
            lambda rows: embedding_body(rows[:1] + [[1.0, 2.0, 3.0]] + rows[2:]),
            "position 65",
        ),
        "int_beyond_float": (
            lambda rows: embedding_body(rows[:2] + [[10**400, 1.0]] + rows[3:]), "position 66"
        ),
        "norm_overflow": (
            lambda rows: embedding_body(rows[:4] + [[1e308, 1e308]] + rows[5:]), "position 68"
        ),
    }

    @pytest.mark.parametrize("fault", sorted(BAD_REPLIES))
    def test_a_bad_reply_names_the_text_position(self, fault):
        make_reply, where = self.BAD_REPLIES[fault]
        good = [[1.0, float(i)] for i in range(64)]
        fake = FakeTransport(
            [(200, embedding_body(good)), (200, make_reply([[2.0, float(i)] for i in range(6)]))]
        )
        with pytest.raises(TeacherError) as err:
            http_embedder(fake.post).embed_many(texts_of(70))
        assert where in str(err.value)
        assert len(fake.calls) == 2

    def test_dimension_mismatch(self):
        fake = FakeTransport([(200, embedding_body([[1.0, 0.0], [0.0, 1.0]]))])
        with pytest.raises(TeacherError) as err:
            http_embedder(fake.post, dimension=3).embed_many(["tides", "waves"])
        assert "dimension 2 != 3 for the text at position 0" in str(err.value)

    def test_empty_text_never_hits_the_wire(self):
        for where in (0, 1, 70):
            texts = texts_of(100)
            texts[where] = ""
            fake = FakeTransport([])
            with pytest.raises(TeacherError) as err:
                http_embedder(fake.post).embed_many(texts)
            assert f"empty text at position {where}" in str(err.value)
            assert fake.calls == []

    def test_zero_vector_is_an_error(self):
        fake = FakeTransport([(200, embedding_body([[0.0, 0.0]]))])
        with pytest.raises(TeacherError) as err:
            http_embedder(fake.post).embed_many(["tides"])
        assert "zero embedding vector for the text at position 0" in str(err.value)

    def test_malformed_body(self):
        fake = FakeTransport([(200, {"data": []})])
        with pytest.raises(TeacherError) as err:
            http_embedder(fake.post).embed_many(["tides"])
        assert "holds 0 rows for the texts at positions 0-0" in str(err.value)

    @pytest.mark.parametrize("body", [{}, {"data": None}, {"data": [7]}, {"data": "x"}, []])
    def test_body_without_indexed_rows_is_malformed(self, body):
        fake = FakeTransport([(200, body)])
        with pytest.raises(TeacherError) as err:
            http_embedder(fake.post).embed_many(["tides"])
        assert "malformed embedding response for the texts at positions 0-0" in str(err.value)

    @pytest.mark.parametrize(
        "values",
        [None, [], 7, "0.6", [0.6, None], [True, False], [[0.6, 0.8]], [0.6, float("nan")],
         [float("inf"), 1.0]],
    )
    def test_embedding_that_is_not_finite_numbers_raises(self, values):
        """A null or NaN would give a NaN vector that dedups against nothing."""
        fake = FakeTransport([(200, embedding_body([[1.0, 0.0], values]))])
        with pytest.raises(TeacherError) as err:
            http_embedder(fake.post).embed_many(["tides", "waves"])
        assert "malformed embedding response for the text at position 1" in str(err.value)

    @pytest.mark.parametrize(
        "values, why",
        [([10**400, 1.0], "embedding value beyond float range"),
         ([1e308, 1e308], "embedding vector norm overflows")],
    )
    def test_values_beyond_float_range_raise(self, values, why):
        """An int too large for a float64 would escape as OverflowError, and a
        norm that overflows to inf would turn the row into a zero vector."""
        fake = FakeTransport([(200, embedding_body([[1.0, 0.0], values]))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TeacherError) as err:
                http_embedder(fake.post).embed_many(["tides", "waves"])
        assert f"{why} for the text at position 1" in str(err.value)

    def test_missing_endpoint_is_an_error(self, monkeypatch):
        monkeypatch.delenv("EMBED_API_BASE", raising=False)
        with pytest.raises(TeacherError) as err:
            HttpEmbeddingBackend()
        assert "EMBED_API_BASE" in str(err.value)

    def test_unavailable_then_succeeds(self):
        """A 503 re-sends the identical batch once, after the first wait."""
        fake = FakeTransport([(503, {}), (200, embedding_body([[3.0, 4.0], [0.0, 2.0]]))])
        waits = []
        vectors = http_embedder(fake.post, sleep=waits.append).embed_many(["tides", "waves"])
        assert vectors.tolist() == [[0.6, 0.8], [0.0, 1.0]]
        assert len(fake.calls) == 2
        assert fake.calls[0]["payload"] == fake.calls[1]["payload"] == {
            "model": "embedder", "input": ["tides", "waves"]
        }
        assert waits == [0.5]

    def test_auth_failure_does_not_retry(self):
        fake = FakeTransport([(401, {"error": "bad key"})])
        waits = []
        with pytest.raises(TeacherAuthError):
            http_embedder(fake.post, sleep=waits.append).embed_many(["tides", "waves"])
        assert len(fake.calls) == 1
        assert waits == []

    def test_retry_budget_exhausted(self):
        fake = FakeTransport([(500, {})] * 5)
        waits = []
        with pytest.raises(TeacherRetryError) as err:
            http_embedder(fake.post, sleep=waits.append).embed_many(["tides"])
        assert "5 attempt(s)" in str(err.value)
        assert len(fake.calls) == 5
        assert waits == [0.5, 1.0, 2.0, 4.0]

    def test_credentials_come_from_environment(self, monkeypatch):
        monkeypatch.setenv("EMBED_API_BASE", "https://env.test/api/")
        monkeypatch.setenv("EMBED_API_KEY", "env-key")
        fake = FakeTransport([(200, embedding_body([[1.0, 0.0]]))])
        HttpEmbeddingBackend(post=fake.post).embed_many(["tides"])
        call = fake.calls[0]
        assert call["url"] == "https://env.test/api/embeddings"
        assert call["headers"]["Authorization"] == "Bearer env-key"

    def test_timeout_reaches_the_transport(self):
        fake = FakeTransport([(200, embedding_body([[1.0, 0.0]]))])
        HttpEmbeddingBackend(base_url="https://embed.test", post=fake.post).embed_many(["tides"])
        assert fake.calls[0]["timeout"] == 60
