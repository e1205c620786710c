"""Deterministic stand-in for an OpenAI-style ``/v1/completions`` service.

Run it as its own process::

    python3 perfbench/stub.py --per-request-ms 3 --per-prompt-ms 2

It listens on 127.0.0.1, prints ``PORT <n>`` once ready, and exits when its
standard input closes, so it cannot outlive the benchmark that started it.

Replies depend only on the prompt text:

* a completion returns one CV-syllable signal derived from a hash of the
  last stimulus stem in the prompt, so every stimulus keeps one word and the
  language a run builds is neither collapsed nor degenerate;
* an echo/logprobs request returns the prompt split into tokens, with
  log-probabilities derived from a hash of the whole prompt.

``prompt`` may be a string or a list of strings; a list gets one choice per
prompt. Each request sleeps until ``per_request_ms + per_prompt_ms * prompts``
after it was parsed, so batching saves only the per-request term. How a real
server's cost divides between the two terms is not measured here: the split
the benchmark passes in is an assumption, and so is any gain from batching
that it predicts.

``GET /stats`` returns the connection, request, prompt and prompt-character
counters, the total server time, and the server time of every request since
the previous ``/stats`` call, in order. Stats requests open connections but
are not counted as requests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

CONSONANTS = "ghklmnpw"
VOWELS = "aeiou"
STEM_RE = re.compile(r"\{'shape':(\d),'colour':'(\w+)','amount':(\d),'word':'")
TOKEN_RE = re.compile(r"\w+|\s+|[^\w\s]")


def signal_for(stem: tuple) -> str:
    """Two or three CV syllables chosen by a hash of the stimulus."""
    digest = hashlib.sha256(repr(stem).encode()).digest()
    syllables = 2 + digest[0] % 2
    return "".join(
        CONSONANTS[digest[1 + 2 * i] % len(CONSONANTS)] + VOWELS[digest[2 + 2 * i] % len(VOWELS)]
        for i in range(syllables)
    )


def completion_choice(prompt: str, index: int) -> dict:
    stems = STEM_RE.findall(prompt)
    text = (signal_for(stems[-1]) if stems else "") + "'}"
    return {"index": index, "text": text, "logprobs": None, "finish_reason": "stop"}


def echo_choice(prompt: str, index: int) -> dict:
    base = int.from_bytes(hashlib.sha256(prompt.encode()).digest()[:8], "big")
    tokens, offsets, logprobs = [], [], []
    for i, match in enumerate(TOKEN_RE.finditer(prompt)):
        tokens.append(match.group())
        offsets.append(match.start())
        logprobs.append(None if i == 0 else -(((base + i * 2654435761) % 1000) + 1) / 200.0)
    return {
        "index": index,
        "text": prompt,
        "logprobs": {"tokens": tokens, "token_logprobs": logprobs, "text_offset": offsets},
        "finish_reason": "length",
    }


def encode_reply(status: int, payload: dict) -> bytes:
    """Status line, headers and body as one buffer, sent in a single write:
    a separate body write waits on the client's delayed ACK."""
    body = json.dumps(payload).encode()
    head = (
        f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode()
    return head + body


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.prompts = 0
        self.prompt_chars = 0
        self.busy_s = 0.0
        self.durations_ms: list[float] = []

    def connected(self) -> None:
        with self.lock:
            self.connections += 1

    def record(self, prompts: list[str], seconds: float) -> None:
        with self.lock:
            self.requests += 1
            self.prompts += len(prompts)
            self.prompt_chars += sum(len(p) for p in prompts)
            self.busy_s += seconds
            self.durations_ms.append(seconds * 1000.0)

    def snapshot(self) -> dict:
        with self.lock:
            durations, self.durations_ms = self.durations_ms, []
            return {
                "connections": self.connections,
                "requests": self.requests,
                "prompts": self.prompts,
                "prompt_chars": self.prompt_chars,
                "busy_s": self.busy_s,
                "durations_ms": durations,
            }


def make_handler(counters: Counters, per_request_s: float, per_prompt_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            counters.connected()

        def log_message(self, *args):
            pass

        def _reply(self, status: int, payload: dict) -> None:
            self.wfile.write(encode_reply(status, payload))

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, counters.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            started = time.perf_counter()
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            prompt = body.get("prompt")
            prompts = prompt if isinstance(prompt, list) else [prompt]
            if self.path != "/v1/completions" or not all(isinstance(p, str) for p in prompts):
                self._reply(400, {"error": "expected /v1/completions with string prompts"})
                return
            make_choice = echo_choice if body.get("echo") else completion_choice
            payload = {
                "object": "text_completion",
                "model": body.get("model", ""),
                "choices": [make_choice(p, i) for i, p in enumerate(prompts)],
            }
            deadline = started + per_request_s + per_prompt_s * len(prompts)
            delay = deadline - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            reply = encode_reply(200, payload)
            # counted before the write, so a /stats call made after the reply
            # arrives always includes this request
            counters.record(prompts, time.perf_counter() - started)
            self.wfile.write(reply)

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-request-ms", type=float, required=True)
    parser.add_argument("--per-prompt-ms", type=float, required=True)
    args = parser.parse_args()
    counters = Counters()
    handler = make_handler(counters, args.per_request_ms / 1000.0, args.per_prompt_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_port}", flush=True)
    try:
        sys.stdin.read()  # returns at EOF: the parent closed the pipe or exited
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
