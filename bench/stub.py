"""Loopback OpenAI-compatible teacher for the benchmark.

A standard-library HTTP server around corgi's own simulated backend, run as
one process bound to 127.0.0.1 on a free port that it prints as its first
stdout line.  ``POST /chat/completions`` sleeps a fixed delay, then answers
with ``SimulatedTeacherBackend.complete`` for the user message, so an HTTP
build writes the same ``training.jsonl`` as an in-process simulated one.

Every completion request is recorded: prompt kind (classified by prompt
shape), a short prompt digest, the reply's HTTP status, and receive/reply
times on the system-wide monotonic clock, so the caller can line calls up
with stage spans from another process and count how many were in flight.
``GET /stats`` returns the records and the stub's own CPU time; ``POST
/reset`` clears the records; ``POST /fail`` with ``{"count": n}`` makes the
next n completion requests fail with 503, to exercise the client's retries.

    python3 bench/stub.py --seed 3 --delay-ms 20
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def prompt_kind(prompt: str) -> str:
    """Classify a teacher prompt the way the simulated backend does."""
    if "Extend the course description" in prompt:
        return "refine"
    if "### List ###" in prompt:
        return "concept"
    if "### Question ###" in prompt:
        return "question"
    if prompt.startswith("QUESTION:") and prompt.rstrip().endswith("B) No"):
        return "judge"
    return "answer"


def short_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


class Recorder:
    """Call records, shared by the handler threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls: list[dict] = []
        self._failures = 0

    def add(self, record: dict) -> None:
        with self._lock:
            self.calls.append(record)

    def snapshot(self) -> dict:
        with self._lock:
            return {"calls": list(self.calls), "cpu_s": time.process_time()}

    def reset(self) -> None:
        with self._lock:
            self.calls = []

    def fail_next(self, count: int) -> None:
        with self._lock:
            self._failures = count

    def take_failure(self) -> bool:
        """True if this call must fail; used to exercise the client's retries."""
        with self._lock:
            if self._failures <= 0:
                return False
            self._failures -= 1
            return True


def make_handler(backend, delay_s: float, recorder: Recorder):
    from corgi.teacher import CompletionRequest

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 - signature is fixed
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, recorder.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length)
            if self.path == "/reset":
                recorder.reset()
                self._send(200, {"ok": True})
                return
            if self.path == "/fail":
                recorder.fail_next(int(json.loads(raw)["count"]))
                self._send(200, {"ok": True})
                return
            if not self.path.endswith("/chat/completions"):
                self._send(404, {"error": "not found"})
                return
            received = time.monotonic()
            status, prompt, reply = 200, "", ""
            try:
                request = json.loads(raw)
                messages = request["messages"]
                prompt = next(m["content"] for m in messages if m["role"] == "user")
                system = next(
                    (m["content"] for m in messages if m["role"] == "system"), ""
                )
                if recorder.take_failure():
                    status = 503
                else:
                    reply = backend.complete(
                        CompletionRequest(
                            prompt=prompt,
                            system_message=system,
                            temperature=float(request.get("temperature", 0.0)),
                            max_tokens=int(request.get("max_tokens", 1024)),
                            model=str(request.get("model", "")),
                        )
                    )
            except (ValueError, KeyError, TypeError, StopIteration) as exc:
                status, reply = 400, f"bad request: {exc}"
            if status == 200:
                time.sleep(delay_s)
                self._send(
                    200,
                    {
                        "object": "chat.completion",
                        "choices": [
                            {
                                "index": 0,
                                "message": {"role": "assistant", "content": reply},
                                "finish_reason": "stop",
                            }
                        ],
                    },
                )
            else:
                self._send(status, {"error": reply or "injected failure"})
            recorder.add({"kind": prompt_kind(prompt) if prompt else "invalid",
                          "digest": short_digest(prompt),
                          "status": status, "t0": received, "t1": time.monotonic()})

    return Handler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="loopback teacher stub")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args(argv)

    from corgi.teacher import SimulatedTeacherBackend

    backend = SimulatedTeacherBackend(seed=args.seed)
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(backend, args.delay_ms / 1000.0, Recorder())
    )
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    sys.exit(main())
