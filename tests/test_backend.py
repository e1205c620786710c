import socket
import sys
import threading
from dataclasses import replace

import pytest

from helpers import ScriptedBackend, http_backend, logged
from refgame.backend import (
    BackendTimeout,
    CapabilityUnsupported,
    ContextOverflow,
    EventLog,
    MalformedServiceReply,
    TransportFailure,
    apply_chat_template,
    estimate_tokens,
    load_chat_template,
    prompt_digest,
)
from refgame.prompts import Prompt

PROMPT = Prompt(
    system_instruction="be terse",
    vocabulary_lines=("{'shape':1,'colour':'blue','amount':1,'word':'gali'}",),
    stem="{'shape':1,'colour':'blue','amount':2,'word':'",
)
# the four candidates of one choice: one shared context, four continuations
CANDIDATES = [replace(PROMPT, continuation=f"{word}'}}") for word in ("gali", "nemo", "tupa", "sira")]
SCORED = CANDIDATES[0]
OTHER = replace(PROMPT, stem="{'shape':2,'colour':'blue','amount':2,'word':'")


class TestScriptedBackend:
    def test_score_determinism(self):
        backend = ScriptedBackend(scores=lambda p: -float(len(p.continuation)))
        assert backend.score(CANDIDATES) == backend.score(CANDIDATES) == [-6.0] * 4

    def test_positive_logprob_rejected(self):
        backend = ScriptedBackend(scores=lambda p: 0.5)
        with pytest.raises(MalformedServiceReply):
            backend.score([SCORED])

    def test_missing_entry(self):
        backend = ScriptedBackend()
        with pytest.raises(MalformedServiceReply):
            backend.complete([PROMPT])

    def test_no_score_capability(self):
        backend = ScriptedBackend(completions=lambda p: "ok")
        with pytest.raises(CapabilityUnsupported):
            backend.score([SCORED])

    def test_request_count_from_threads(self):
        # both agents of a dyad may call one backend at once; a lost update
        # would undercount
        backend = ScriptedBackend(completions=lambda p: "ok")
        threads = [
            threading.Thread(target=lambda: [backend.complete([PROMPT]) for _ in range(500)])
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert backend.requests == 8 * 500


class TestEventLog:
    def test_append_and_context(self, tmp_path):
        with EventLog(tmp_path / "events.jsonl") as log:
            log.set_context(block="labelling", agent="A")
            log.append("backend_call", result="x")
            log.set_context(block="testing")
            log.append("backend_call", result="y")
        records = EventLog.read(tmp_path / "events.jsonl")
        assert len(records) == 2
        assert records[0]["block"] == "labelling"
        assert records[1]["block"] == "testing"
        assert records[1]["agent"] == "A"

    def test_held_records_follow_the_calling_threads(self, tmp_path):
        # workers append to held records while this thread writes; released
        # in turn, each worker's records follow everything written before,
        # tagged with its own context, and the shared context ends as the
        # last released worker left its copy
        with EventLog(tmp_path / "events.jsonl") as log:
            log.set_context(simulation="sim-1", agent="main")
            helds = [log.hold() for _ in range(4)]

            def work(worker, held):
                with log.holding(held):
                    log.set_context(agent=f"w{worker}")
                    for n in range(300):
                        log.append("backend_call", n=n)

            threads = [threading.Thread(target=work, args=pair) for pair in enumerate(helds)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for n in range(300):
                    log.append("backend_call", n=n)
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert EventLog.read(log.path)[-1] == {
                "kind": "backend_call", "simulation": "sim-1", "agent": "main", "n": 299
            }
            for held in helds:
                log.release(held)
            assert log.context == {"simulation": "sim-1", "agent": "w3"}
        records = EventLog.read(tmp_path / "events.jsonl")
        assert [(r["simulation"], r["agent"], r["n"]) for r in records] == [
            ("sim-1", agent, n) for agent in ("main", "w0", "w1", "w2", "w3") for n in range(300)
        ]

    def test_backend_logs_before_returning(self, tmp_path):
        with EventLog(tmp_path / "events.jsonl") as log:
            backend = ScriptedBackend(completions=lambda p: "ok", event_log=log)
            backend.complete([PROMPT])
            calls = logged(backend.event_log, "backend_call")
        assert len(calls) == 1
        assert calls[0]["call"] == "complete"
        assert calls[0]["result"] == "ok"
        assert calls[0]["prompt"] == PROMPT.user_text()
        assert "latency" in calls[0] and "prompt_sha" in calls[0]


class TestRetrying:
    def test_transient_failure_then_success(self, stub_server, tmp_path, waits):
        endpoint, handler = stub_server
        handler.failures_left = 1
        backend = http_backend(endpoint, tmp_path)
        assert backend.complete([PROMPT]) == [" hanosa'}"]
        records = EventLog.read(backend.event_log.path)
        assert [r["kind"] for r in records] == ["backend_retry", "backend_call"]
        assert (records[0]["attempt"], records[0]["error"]) == (1, "service error 503")
        assert len(handler.seen) == 2

    def test_exhaustion_raises(self, stub_server, tmp_path, waits):
        endpoint, handler = stub_server
        handler.failures_left = 10
        backend = http_backend(endpoint, tmp_path, max_retries=2)
        with pytest.raises(TransportFailure):
            backend.complete([PROMPT])
        assert len(handler.seen) == 2 + 1  # the first attempt and max_retries retries
        assert [r["attempt"] for r in logged(backend.event_log, "backend_retry")] == [1, 2]
        assert logged(backend.event_log, "backend_call") == []

    def test_backoff_schedule(self, stub_server, tmp_path, waits):
        endpoint, handler = stub_server
        handler.failures_left = 3
        backend = http_backend(endpoint, tmp_path, max_retries=3, backoff_base=0.5)
        backend.complete([PROMPT])
        assert waits == [0.5, 1.0, 2.0]


class TestTemplates:
    def test_llama3_framing(self):
        template = load_chat_template("llama3")
        text = apply_chat_template(template, PROMPT)
        assert text.startswith("<|begin_of_text|><|start_header_id|>system<|end_header_id|> be terse<|eot_id|>")
        assert "<|start_header_id|>user<|end_header_id|>" in text
        assert text.rstrip("\n").endswith("<|start_header_id|>assistant<|end_header_id|>")
        assert PROMPT.stem in text

    def test_plain_template(self):
        template = load_chat_template("plain")
        text = apply_chat_template(template, PROMPT)
        assert text.startswith("be terse\n\n")

    def test_template_from_file(self, tmp_path):
        path = tmp_path / "custom.txt"
        path.write_text("S={system} U={user}")
        assert load_chat_template(str(path)) == "S={system} U={user}"

    def test_estimate_tokens(self):
        assert estimate_tokens("abcd" * 10) == 10
        assert estimate_tokens("abcde") == 2


class TestHttpBackend:
    def test_complete(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        backend = http_backend(endpoint, tmp_path)
        assert backend.complete([PROMPT]) == [" hanosa'}"]
        request = handler.seen[-1]
        assert request["temperature"] == 0.0
        assert request["stop"] == ["\n", "'}"]
        assert len(logged(backend.event_log, "backend_call")) == 1

    def test_complete_list_in_one_request(self, stub_server, tmp_path):
        # one record per prompt, in order, each with its own task over the context's
        endpoint, handler = stub_server
        backend = http_backend(endpoint, tmp_path)
        backend.event_log.set_context(block="testing", task=None, agent="A")
        assert backend.complete([PROMPT, OTHER], tasks=[3, 4]) == [" hanosa'}"] * 2
        assert len(handler.seen) == 1
        template = load_chat_template("plain")
        assert handler.seen[0]["prompt"] == [apply_chat_template(template, p) for p in (PROMPT, OTHER)]
        calls = logged(backend.event_log, "backend_call")
        assert [(c["block"], c["task"], c["agent"]) for c in calls] == [("testing", 3, "A"), ("testing", 4, "A")]
        assert [c["prompt"] for c in calls] == handler.seen[0]["prompt"]
        assert list(calls[0])[:5] == ["kind", "block", "task", "agent", "call"]

    @pytest.mark.parametrize("behaviour", ["drop_choice", "no_index", "null_text"])
    def test_complete_list_reply_without_a_choice_per_prompt(self, keepalive_stub_server, tmp_path, behaviour):
        endpoint, handler = keepalive_stub_server
        handler.behaviour = behaviour
        backend = http_backend(endpoint, tmp_path)
        with pytest.raises(MalformedServiceReply):
            backend.complete([PROMPT, OTHER])
        assert len(handler.seen) == 1  # not retried
        assert logged(backend.event_log, "backend_call") == []

    def test_complete_preflight_covers_every_prompt(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        long_one = replace(PROMPT, stem=PROMPT.stem + "x" * 200)
        backend = http_backend(endpoint, tmp_path, context_budget_tokens=64)
        assert len(backend.complete([PROMPT, OTHER])) == 2
        handler.seen.clear()
        with pytest.raises(ContextOverflow):
            backend.complete([PROMPT, long_one])
        assert handler.seen == []  # no request was sent

    def test_score_echo_path(self, stub_server, tmp_path):
        endpoint, _ = stub_server
        backend = http_backend(endpoint, tmp_path)
        assert backend.score([SCORED]) == [pytest.approx(-1.5)]

    def test_score_one_request_per_call(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        backend = http_backend(endpoint, tmp_path)
        scores = backend.score(CANDIDATES)
        assert scores == pytest.approx([-1.5, -3.0, -4.5, -6.0])
        assert len(handler.seen) == 1
        request = handler.seen[0]
        assert request["echo"] is True and request["max_tokens"] == 0
        assert len(request["prompt"]) == 4
        assert [text.endswith(p.continuation) for text, p in zip(request["prompt"], CANDIDATES)] == [True] * 4
        calls = logged(backend.event_log, "backend_call")
        assert [c["continuation"] for c in calls] == [p.continuation for p in CANDIDATES]
        assert [c["result"] for c in calls] == scores

    def test_score_records_write_each_prompt_once(self, stub_server, tmp_path):
        # every record keeps its prompt_sha; the text goes only where it
        # differs from the previous record's
        endpoint, _ = stub_server
        backend = http_backend(endpoint, tmp_path)
        other = replace(OTHER, continuation="gali'}")
        prompts = CANDIDATES[:2] + [other, CANDIDATES[2]]
        backend.score(prompts)
        texts = [apply_chat_template(load_chat_template("plain"), p) for p in prompts]
        calls = logged(backend.event_log, "backend_call")
        assert [c["prompt_sha"] for c in calls] == [prompt_digest(t) for t in texts]
        assert [c.get("prompt") for c in calls] == [texts[0], None, texts[2], texts[3]]

    def test_score_matches_choices_by_index(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        handler.behaviour = "reversed"
        backend = http_backend(endpoint, tmp_path)
        assert backend.score(CANDIDATES) == pytest.approx([-1.5, -3.0, -4.5, -6.0])

    def test_score_wrong_choice_count(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        handler.behaviour = "drop_choice"
        backend = http_backend(endpoint, tmp_path)
        with pytest.raises(MalformedServiceReply):
            backend.score(CANDIDATES)
        assert logged(backend.event_log, "backend_call") == []

    def test_score_preflight_covers_every_candidate(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        plain = apply_chat_template(load_chat_template("plain"), PROMPT)
        budget = estimate_tokens(plain + CANDIDATES[0].continuation) + 2
        long_one = replace(PROMPT, continuation="x" * 40 + "'}")
        backend = http_backend(endpoint, tmp_path, context_budget_tokens=budget)
        assert len(backend.score(CANDIDATES)) == 4
        handler.seen.clear()
        with pytest.raises(ContextOverflow):
            backend.score(CANDIDATES[:3] + [long_one])
        assert handler.seen == []  # no request was sent

    def test_score_capability_unsupported(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        handler.behaviour = "no_logprobs"
        backend = http_backend(endpoint, tmp_path)
        with pytest.raises(CapabilityUnsupported):
            backend.score(CANDIDATES)

    def test_score_batch_retried_as_a_whole(self, stub_server, tmp_path, waits):
        endpoint, handler = stub_server
        handler.failures_left = 1
        backend = http_backend(endpoint, tmp_path)
        assert backend.score(CANDIDATES) == pytest.approx([-1.5, -3.0, -4.5, -6.0])
        assert len(handler.seen) == 2
        records = EventLog.read(backend.event_log.path)
        assert [r["kind"] for r in records] == ["backend_retry"] + ["backend_call"] * 4
        assert [r["continuation"] for r in records[1:]] == [p.continuation for p in CANDIDATES]

    def test_context_overflow_preflight(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        backend = http_backend(endpoint, tmp_path, context_budget_tokens=8)
        with pytest.raises(ContextOverflow):
            backend.complete([PROMPT])
        assert handler.seen == []  # no network call was made

    def test_server_error_is_transport_failure(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        handler.failures_left = 1
        backend = http_backend(endpoint, tmp_path, max_retries=0)
        with pytest.raises(TransportFailure):
            backend.complete([PROMPT])

    def test_retry_recovers_from_5xx(self, stub_server, tmp_path, waits):
        endpoint, handler = stub_server
        handler.failures_left = 1
        backend = http_backend(endpoint, tmp_path)
        assert backend.complete([PROMPT]) == [" hanosa'}"]

    def test_bad_json_reply(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        handler.behaviour = "bad_json"
        backend = http_backend(endpoint, tmp_path)
        with pytest.raises(MalformedServiceReply):
            backend.complete([PROMPT])

    def test_timeout(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        handler.behaviour = "slow"
        backend = http_backend(endpoint, tmp_path, timeout=0.1, max_retries=0)
        with pytest.raises(BackendTimeout):
            backend.complete([PROMPT])

    def test_credential_header(self, stub_server, tmp_path, monkeypatch):
        endpoint, handler = stub_server
        monkeypatch.setenv("REFGAME_API_KEY", "sekrit")
        backend = http_backend(endpoint, tmp_path)
        backend.complete([PROMPT])
        # the handler does not expose headers; check via the backend's own builder
        assert backend._headers()["Authorization"] == "Bearer sekrit"


def _refused_endpoint() -> str:
    """An http:// endpoint on a local port with nothing listening."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{probe.getsockname()[1]}"


class TestWireConnection:
    """The one keep-alive connection, against an HTTP/1.1 stub."""

    def test_requests_share_one_connection(self, keepalive_stub_server, tmp_path):
        endpoint, handler = keepalive_stub_server
        backend = http_backend(endpoint, tmp_path)
        for _ in range(3):
            assert backend.complete([PROMPT]) == [" hanosa'}"]
        backend.score(CANDIDATES)
        assert len(handler.seen) == 4
        assert handler.connections == 1

    def test_dropped_idle_connection_reconnects_without_retry(self, keepalive_stub_server, tmp_path, waits):
        endpoint, handler = keepalive_stub_server
        handler.behaviour = "close"
        backend = http_backend(endpoint, tmp_path)
        assert [backend.complete([PROMPT]) for _ in range(3)] == [[" hanosa'}"]] * 3
        assert len(handler.seen) == 3 and handler.connections == 3
        assert logged(backend.event_log, "backend_retry") == []
        assert waits == []

    def test_refused_connection_fails_after_retries(self, tmp_path, waits):
        backend = http_backend(_refused_endpoint(), tmp_path, max_retries=2)
        with pytest.raises(TransportFailure, match="ConnectionRefusedError"):
            backend.complete([PROMPT])
        assert [r["attempt"] for r in logged(backend.event_log, "backend_retry")] == [1, 2]
        assert waits == [0.5, 1.0]
        assert logged(backend.event_log, "backend_call") == []

    @pytest.mark.parametrize("prefix", ["/api", "/api/"])
    def test_path_prefix_kept(self, keepalive_stub_server, tmp_path, prefix):
        endpoint, handler = keepalive_stub_server
        backend = http_backend(endpoint + prefix, tmp_path)
        backend.complete([PROMPT])
        assert handler.paths == ["/api/v1/completions"]

    def test_https_against_plain_service_is_transport_failure(self, keepalive_stub_server, tmp_path):
        endpoint, _ = keepalive_stub_server
        backend = http_backend(endpoint.replace("http://", "https://"), tmp_path, max_retries=0)
        with pytest.raises(TransportFailure):
            backend.complete([PROMPT])

    def test_timed_out_connection_is_replaced(self, keepalive_stub_server, tmp_path):
        # the late reply must not be read as the answer to the next request
        endpoint, handler = keepalive_stub_server
        handler.behaviour = "slow"
        backend = http_backend(endpoint, tmp_path, timeout=0.1, max_retries=0)
        with pytest.raises(BackendTimeout):
            backend.complete([PROMPT])
        handler.behaviour = "complete"
        backend.descriptor.timeout = 5.0
        assert backend.score([SCORED]) == [pytest.approx(-1.5)]
        assert handler.connections == 2

    @pytest.mark.parametrize(
        "behaviour, message",
        [("bad_json", "response body is not JSON"), ("not_found", "service returned 404: no such model")],
    )
    def test_unusable_reply_is_malformed(self, keepalive_stub_server, tmp_path, behaviour, message):
        endpoint, handler = keepalive_stub_server
        handler.behaviour = behaviour
        backend = http_backend(endpoint, tmp_path)
        with pytest.raises(MalformedServiceReply) as info:
            backend.complete([PROMPT])
        assert str(info.value) == message
        assert len(handler.seen) == 1  # not retried
