import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import hypothesis
import pytest

from refgame.backend import EventLog
from refgame.domain import Vocabulary
from tests_paths import GOLDEN_TEST_PATH, GOLDEN_TRAIN_PATH

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def golden_train() -> Vocabulary:
    return Vocabulary.load(GOLDEN_TRAIN_PATH)


@pytest.fixture(scope="session")
def golden_test() -> Vocabulary:
    return Vocabulary.load(GOLDEN_TEST_PATH)


class _StubHandler(BaseHTTPRequestHandler):
    """A local ``/v1/completions`` service for HttpBackend tests. Each
    server gets its own subclass, which records every request body in
    ``seen`` and its path in ``paths`` as it arrives, and once answered the
    body (None if unread) with its server-side (start, end) monotonic times
    in ``spans``, counts accepted connections in
    ``connections``, and answers with 503 the first ``failures_left``
    requests and, once each, a request whose first prompt is in
    ``fail_once``. With a ``rendezvous`` barrier, the first
    ``rendezvous.parties`` requests each wait at it (until its timeout)
    before they are answered. Every reply has a Content-Length, so an
    HTTP/1.1 server keeps the connection open; ``behaviour`` "close" drops
    it after each reply without saying so, as a server does with an idle
    keep-alive connection. ``echo_logprobs``, when set, is the ``logprobs``
    of every echoed choice. Handler threads run at once, so the counters
    change under ``lock``."""

    behaviour = "complete"
    echo_logprobs = None
    failures_left = 0
    rendezvous = None
    timeout = 2  # a connection idle this long is closed

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        # headers and body go out in two writes; Nagle would hold the second
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with type(self).lock:
            type(self).connections += 1

    def _reply(self, status: int, body: bytes = b"") -> None:
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        if type(self).behaviour == "close":
            self.close_connection = True

    def do_POST(self):
        started, self.body = time.monotonic(), None
        try:
            self._answer()
        finally:
            type(self).spans.append((self.body, (started, time.monotonic())))

    def _fails(self, body) -> bool:
        handler = type(self)
        prompts = body["prompt"] if isinstance(body["prompt"], list) else [body["prompt"]]
        with handler.lock:
            if handler.failures_left > 0:
                handler.failures_left -= 1
                return True
            if prompts[0] in handler.fail_once:
                handler.fail_once.remove(prompts[0])
                return True
        return False

    def _answer(self):
        body = self.body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with type(self).lock:
            type(self).seen.append(body)
            type(self).paths.append(self.path)
            arrived = len(type(self).seen)
        rendezvous = type(self).rendezvous
        if rendezvous is not None and arrived <= rendezvous.parties:
            try:
                rendezvous.wait()
            except threading.BrokenBarrierError:
                pass  # no company within the timeout
        if self._fails(body):
            self._reply(503)
            return
        behaviour = type(self).behaviour
        if behaviour == "slow":
            time.sleep(0.5)
        if behaviour == "bad_json":
            self._reply(200, b"not json")
            return
        if behaviour == "not_found":
            self._reply(404, b"no such model")
            return
        prompts = body["prompt"] if isinstance(body["prompt"], list) else [body["prompt"]]
        if behaviour == "no_logprobs":
            choices = [{"index": i, "text": ""} for i in range(len(prompts))]
        elif body.get("echo"):
            # three synthetic continuation tokens at the tail, each -0.5 times
            # the prompt's position plus one, so every choice scores apart
            choices = []
            for i, prompt in enumerate(prompts):
                offsets = [0, max(0, len(prompt) - 3), len(prompt) - 2, len(prompt) - 1]
                lp = -0.5 * (i + 1)
                logprobs = {"token_logprobs": [None, lp, lp, lp], "text_offset": offsets}
                choices.append({"index": i, "text": prompt, "logprobs": type(self).echo_logprobs or logprobs})
        else:
            choices = [{"index": i, "text": " hanosa'}"} for i in range(len(prompts))]
        if behaviour == "reversed":
            choices.reverse()
        elif behaviour == "drop_choice":
            choices.pop()
        elif behaviour == "no_index":
            del choices[0]["index"]
        elif behaviour == "null_text" and not body.get("echo"):
            for choice in choices:
                choice["text"] = None
        self._reply(200, json.dumps({"choices": choices}).encode())


class _StubServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a client that timed out has gone before the reply


def _serve(protocol_version: str):
    """Run a stub server speaking ``protocol_version``; yields its URL and
    its handler class."""
    handler = type("StubHandler", (_StubHandler,), {
        "protocol_version": protocol_version, "seen": [], "paths": [], "spans": [],
        "connections": 0, "fail_once": set(), "lock": threading.Lock(),
    })
    server = _StubServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


@pytest.fixture()
def stub_server():
    """An HTTP/1.0 stub: it closes the connection after every reply."""
    yield from _serve("HTTP/1.0")


@pytest.fixture()
def keepalive_stub_server():
    """An HTTP/1.1 stub: a connection stays open between requests."""
    yield from _serve("HTTP/1.1")


@pytest.fixture()
def event_log(tmp_path):
    """An event log at ``tmp_path/events.jsonl``, closed after the test."""
    with EventLog(tmp_path / "events.jsonl") as log:
        yield log


@pytest.fixture()
def waits(monkeypatch) -> list[float]:
    """The backoff waits HttpBackend asks for, recorded instead of slept."""
    recorded: list[float] = []
    monkeypatch.setattr("refgame.backend.time.sleep", recorded.append)
    return recorded
