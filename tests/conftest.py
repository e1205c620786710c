import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import hypothesis
import pytest

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
    """A local ``/v1/completions`` service for HttpBackend tests. It records
    every request body in ``seen`` and answers the first ``failures_left``
    requests with 503."""

    behaviour = "complete"
    seen: list[dict] = []
    failures_left = 0

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(body)
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(503)
            self.end_headers()
            return
        behaviour = type(self).behaviour
        if behaviour == "slow":
            time.sleep(0.5)
        if behaviour == "bad_json":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"not json")
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
        payload = {"choices": choices}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture()
def stub_server():
    _StubHandler.behaviour = "complete"
    _StubHandler.seen = []
    _StubHandler.failures_left = 0
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()
    thread.join(timeout=2)


@pytest.fixture()
def waits(monkeypatch) -> list[float]:
    """The backoff waits HttpBackend asks for, recorded instead of slept."""
    recorded: list[float] = []
    monkeypatch.setattr("refgame.backend.time.sleep", recorded.append)
    return recorded
