import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import hypothesis
import pytest

import helpers
from refgame.domain import Vocabulary

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.load_profile("ci")

GOLDEN_TRAIN = "golden_train.vocab"
GOLDEN_TEST = "golden_test.vocab"


def data_path(name: str) -> str:
    from importlib import resources

    return str(resources.files("refgame").joinpath(f"data/{name}"))


@pytest.fixture(scope="session")
def golden_train() -> Vocabulary:
    return Vocabulary.load(data_path(GOLDEN_TRAIN))


@pytest.fixture(scope="session")
def golden_test() -> Vocabulary:
    return Vocabulary.load(data_path(GOLDEN_TEST))


class _StubHandler(BaseHTTPRequestHandler):
    """A local ``/v1/completions`` service for HttpBackend tests. Each
    server gets its own subclass, which records every request body in
    ``seen`` and its path in ``paths``, counts accepted connections in
    ``connections``, and answers the first ``failures_left`` requests with
    503. Every reply has a Content-Length, so an HTTP/1.1 server keeps the
    connection open; ``behaviour`` "close" drops it after each reply
    without saying so, as a server does with an idle keep-alive
    connection."""

    behaviour = "complete"
    failures_left = 0
    timeout = 2  # a connection idle this long is closed

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        # headers and body go out in two writes; Nagle would hold the second
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        type(self).connections += 1

    def _reply(self, status: int, body: bytes = b"") -> None:
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        if type(self).behaviour == "close":
            self.close_connection = True

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(body)
        type(self).paths.append(self.path)
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
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
                choices.append({
                    "index": i,
                    "text": prompt,
                    "logprobs": {"token_logprobs": [None, lp, lp, lp], "text_offset": offsets},
                })
        else:
            choices = [{"index": i, "text": " hanosa'}"} for i in range(len(prompts))]
        if behaviour == "reversed":
            choices.reverse()
        elif behaviour == "drop_choice":
            choices.pop()
        elif behaviour == "no_index":
            del choices[0]["index"]
        self._reply(200, json.dumps({"choices": choices}).encode())


class _StubServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a client that timed out has gone before the reply


def _serve(protocol_version: str):
    """Run a stub server speaking ``protocol_version``; yields its URL and
    its handler class."""
    handler = type("StubHandler", (_StubHandler,), {
        "protocol_version": protocol_version, "seen": [], "paths": [], "connections": 0,
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


@pytest.fixture(autouse=True)
def _close_helper_event_logs():
    """Close the event logs that ``helpers.http_backend`` opened for a test."""
    yield
    while helpers.OPEN_EVENT_LOGS:
        helpers.OPEN_EVENT_LOGS.pop().close()


@pytest.fixture()
def waits(monkeypatch) -> list[float]:
    """The backoff waits HttpBackend asks for, recorded instead of slept."""
    recorded: list[float] = []
    monkeypatch.setattr("refgame.backend.time.sleep", recorded.append)
    return recorded
