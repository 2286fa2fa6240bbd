"""Measure the client CPU that one HTTP chat request costs.

Usage, from the root of a checkout::

    python3 tools/http_cpu.py --requests 1000

The package is imported from ``./src`` in the current directory, so one copy
of this script measures any checkout whose ``BackendClient.complete`` takes
a descriptor and a prompt: run it from the other checkout's root by path.

A stdlib HTTP/1.1 server runs in a child process and answers every
``/v1/chat/completions`` POST with the same JSON reply and a Content-Length,
so the client can keep its connection alive. This process then makes one
warm-up call and ``--requests`` sequential ``BackendClient.complete`` calls,
each with the same 300-word prompt, on one thread. It prints one JSON line:
the client process CPU time (user plus system) per timed request, in
microseconds, and the wall time of the timed calls. Wall time includes the
server's work; CPU time is the client's alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

REPLY = json.dumps({
    "choices": [{"index": 0, "message": {"role": "assistant", "content": "pong " * 40}}],
    "usage": {"prompt_tokens": 300, "completion_tokens": 40},
}).encode()


class ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, given a Content-Length
    disable_nagle_algorithm = True

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(REPLY)))
        self.end_headers()
        self.wfile.write(REPLY)

    def log_message(self, *args):
        pass


def serve() -> None:
    """Serve until killed; the first line on stdout is the port."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), ChatHandler)
    print(server.server_port, flush=True)
    server.serve_forever()


def measure(requests: int) -> dict:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from graphsynth.backends import BackendClient, BackendDescriptor, RequestParams

    server = subprocess.Popen(
        [sys.executable, __file__, "--serve"], stdout=subprocess.PIPE, text=True
    )
    try:
        port = int(server.stdout.readline())
        descriptor = BackendDescriptor(
            "bench", "generator", f"http://127.0.0.1:{port}/v1", "bench-model",
            request_params=RequestParams(max_attempts=1, timeout=30),
        )
        prompt = " ".join(f"word{i}" for i in range(300))
        client = BackendClient()
        client.complete(descriptor, prompt)  # imports the HTTP stack, connects
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for _ in range(requests):
            client.complete(descriptor, prompt)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    finally:
        server.kill()
        server.wait()
    return {
        "requests": requests,
        "client_cpu_us_per_request": round(cpu / requests * 1e6, 1),
        "wall_s": round(wall, 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.serve:
        serve()
        return
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    print(json.dumps(measure(args.requests)))


if __name__ == "__main__":
    main()
