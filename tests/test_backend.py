import socket
import sys
import threading
import time
from dataclasses import replace

import pytest

from helpers import ScriptedBackend, http_backend, logged, service_stats, wire_service
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


@pytest.mark.parametrize("kind", ["http", "scripted"])
def test_one_request_form(kind, tmp_path):
    # HttpBackend and the tests' ScriptedBackend keep one contract: a request
    # is sent when asked, and its handle is peeked, read, discarded or closed
    with wire_service() as endpoint:
        if kind == "http":
            backend = http_backend(endpoint)
        else:
            backend = ScriptedBackend(completions=lambda p: f"{p.stem[-8:]}'}}", scores=lambda p: -1.0)
        with EventLog(tmp_path / "events.jsonl") as event_log:
            completion = backend.complete([PROMPT, OTHER], [1, 2])
            scoring = backend.score(CANDIDATES, [3] * 4)  # both in flight, neither read
            peeked = completion.peek()
            assert peeked is not None and len(peeked) == 2
            assert completion.read(event_log, kept=1) == peeked
            scoring.discard(event_log)
            backend.complete([PROMPT], [4]).close()
            assert backend.complete([OTHER], [5]).read(event_log) == peeked[1:]
    kinds = {}
    for record in EventLog.read(tmp_path / "events.jsonl"):
        kinds.setdefault(record["task"], []).append(record["kind"])
    # a closed request (task 4) logs nothing
    assert kinds == {
        1: ["backend_discarded"], 2: ["backend_call"], 3: ["backend_discarded"] * 4, 5: ["backend_call"]
    }


@pytest.mark.parametrize("kind", ["http", "scripted"])
def test_a_request_fails_at_its_read(kind, keepalive_stub_server, tmp_path, waits):
    # under the same contract a request fails at its read, which logs why: a
    # failed attempt peeks as None and logs nothing, and the read retries it;
    # a request over the budget is not sent, its read logs the refusal and its
    # discard logs nothing
    endpoint, handler = keepalive_stub_server
    long_one = replace(PROMPT, stem=PROMPT.stem + "x" * 40_000)  # over the default budget
    if kind == "http":
        backend = http_backend(endpoint, max_retries=1)

        def fail_once():
            handler.failures_left = 1
    else:
        failures = []  # each a 503 the next completion or score request gets

        def reply(answer):
            def scripted(prompt):
                if failures:
                    raise TransportFailure(failures.pop())
                if prompt.stem == long_one.stem:
                    raise ContextOverflow("estimated 10013 tokens exceeds budget 8192")
                return answer(prompt)
            return scripted

        backend = ScriptedBackend(
            completions=reply(lambda p: f"{p.stem[-8:]}'}}"), scores=reply(lambda p: -1.0), max_retries=1
        )

        def fail_once():
            failures.append("service error 503")
    path = tmp_path / "events.jsonl"
    with EventLog(path) as event_log:
        fail_once()
        retried = backend.score(CANDIDATES, [6] * 4)
        assert retried.peek() is None
        assert EventLog.read(path) == []
        assert len(retried.read(event_log)) == 4
        with pytest.raises(ContextOverflow):
            backend.complete([long_one, PROMPT], [7, 8]).read(event_log)
        backend.complete([long_one], [9]).discard(event_log)
    if kind == "http":
        assert len(handler.seen) == 2  # the score request's two attempts
    records = EventLog.read(path)
    assert [r["kind"] for r in records] == ["backend_retry"] + ["backend_call"] * 4 + ["backend_failed"]
    assert records[0] == {"kind": "backend_retry", "attempt": 1, "error": "service error 503"}
    assert [r["task"] for r in records[1:5]] == [6] * 4
    failed = records[-1]
    assert failed == {"kind": "backend_failed", "call": "complete", "error": failed["error"], "tasks": [7, 8]}
    assert failed["error"].startswith("ContextOverflow: estimated ")


class TestScriptedBackend:
    def test_score_determinism(self):
        backend = ScriptedBackend(scores=lambda p: -float(len(p.continuation)))
        first = backend.score(CANDIDATES, [0] * 4).read(EventLog())
        assert first == backend.score(CANDIDATES, [0] * 4).read(EventLog()) == [-6.0] * 4

    def test_positive_logprob_rejected(self):
        backend = ScriptedBackend(scores=lambda p: 0.5)
        with pytest.raises(MalformedServiceReply):
            backend.score([SCORED], [0]).read(EventLog())

    def test_missing_entry(self):
        backend = ScriptedBackend()
        with pytest.raises(MalformedServiceReply):
            backend.complete([PROMPT], [0]).read(EventLog())

    def test_no_score_capability(self):
        backend = ScriptedBackend(completions=lambda p: "ok")
        with pytest.raises(CapabilityUnsupported):
            backend.score([SCORED], [0]).read(EventLog())

    def test_request_count_from_threads(self):
        # both agents of a dyad may call one backend at once; a lost update
        # would undercount
        backend = ScriptedBackend(completions=lambda p: "ok")
        threads = [
            threading.Thread(
                target=lambda: [backend.complete([PROMPT], [0]).read(EventLog()) for _ in range(500)]
            )
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

    def test_forks_join_after_the_calling_thread(self, tmp_path):
        # workers append to forks while this thread writes; joined in turn,
        # each fork's records follow everything written before, tagged with
        # its own context, and the log's context ends as the last joined
        # fork left it
        with EventLog(tmp_path / "events.jsonl") as log:
            log.set_context(simulation="sim-1", agent="main")
            forks = [log.fork() for _ in range(4)]

            def work(worker, fork):
                fork.set_context(agent=f"w{worker}")
                for n in range(300):
                    fork.append("backend_call", n=n)

            threads = [threading.Thread(target=work, args=pair) for pair in enumerate(forks)]
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
            for fork in forks:
                log.join(fork)
            assert log.context == {"simulation": "sim-1", "agent": "w3"}
        records = EventLog.read(tmp_path / "events.jsonl")
        assert [(r["simulation"], r["agent"], r["n"]) for r in records] == [
            ("sim-1", agent, n) for agent in ("main", "w0", "w1", "w2", "w3") for n in range(300)
        ]

    def test_backend_logs_before_returning(self, event_log):
        backend = ScriptedBackend(completions=lambda p: "ok")
        backend.complete([PROMPT], [0]).read(event_log)
        calls = logged(event_log, "backend_call")
        assert len(calls) == 1
        assert calls[0]["call"] == "complete"
        assert calls[0]["result"] == "ok"
        assert calls[0]["prompt"] == PROMPT.user_text()
        assert "latency" in calls[0] and "prompt_sha" in calls[0]


class TestRetrying:
    def test_transient_failure_then_success(self, stub_server, event_log, waits):
        endpoint, handler = stub_server
        handler.failures_left = 1
        backend = http_backend(endpoint)
        assert backend.complete([PROMPT], [0]).read(event_log) == [" hanosa'}"]
        records = EventLog.read(event_log.path)
        assert [r["kind"] for r in records] == ["backend_retry", "backend_call"]
        assert (records[0]["attempt"], records[0]["error"]) == (1, "service error 503")
        assert len(handler.seen) == 2
        assert handler.seen[1] == handler.seen[0]  # the retry re-sends the same body

    def test_exhaustion_raises(self, stub_server, event_log, waits):
        endpoint, handler = stub_server
        handler.failures_left = 10
        backend = http_backend(endpoint, max_retries=2)
        with pytest.raises(TransportFailure):
            backend.complete([PROMPT], [0]).read(event_log)
        assert len(handler.seen) == 2 + 1  # the first attempt and max_retries retries
        assert [r["attempt"] for r in logged(event_log, "backend_retry")] == [1, 2]
        assert logged(event_log, "backend_call") == []

    def test_backoff_schedule(self, stub_server, waits):
        endpoint, handler = stub_server
        handler.failures_left = 3
        backend = http_backend(endpoint, max_retries=3, backoff_base=0.5)
        backend.complete([PROMPT], [0]).read(EventLog())
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
    def test_complete(self, stub_server, event_log):
        endpoint, handler = stub_server
        backend = http_backend(endpoint)
        assert backend.complete([PROMPT], [0]).read(event_log) == [" hanosa'}"]
        request = handler.seen[-1]
        assert request["temperature"] == 0.0
        assert request["stop"] == ["\n", "'}"]
        assert len(logged(event_log, "backend_call")) == 1

    def test_complete_list_in_one_request(self, stub_server, event_log):
        # one record per prompt, in order, each with its own task over the context's
        endpoint, handler = stub_server
        backend = http_backend(endpoint)
        event_log.set_context(block="testing", task=None, agent="A")
        assert backend.complete([PROMPT, OTHER], [3, 4]).read(event_log) == [" hanosa'}"] * 2
        assert len(handler.seen) == 1
        template = load_chat_template("plain")
        assert handler.seen[0]["prompt"] == [apply_chat_template(template, p) for p in (PROMPT, OTHER)]
        calls = logged(event_log, "backend_call")
        assert [(c["block"], c["task"], c["agent"]) for c in calls] == [("testing", 3, "A"), ("testing", 4, "A")]
        assert [c["prompt"] for c in calls] == handler.seen[0]["prompt"]
        assert list(calls[0])[:5] == ["kind", "block", "task", "agent", "call"]

    @pytest.mark.parametrize("behaviour", ["drop_choice", "no_index", "null_text"])
    def test_complete_list_reply_without_a_choice_per_prompt(self, keepalive_stub_server, event_log, behaviour):
        endpoint, handler = keepalive_stub_server
        handler.behaviour = behaviour
        backend = http_backend(endpoint)
        with pytest.raises(MalformedServiceReply):
            backend.complete([PROMPT, OTHER], [0, 1]).read(event_log)
        assert len(handler.seen) == 1  # not retried
        assert logged(event_log, "backend_call") == []

    def test_complete_preflight_covers_every_prompt(self, stub_server):
        endpoint, handler = stub_server
        long_one = replace(PROMPT, stem=PROMPT.stem + "x" * 200)
        backend = http_backend(endpoint, context_budget_tokens=64)
        assert len(backend.complete([PROMPT, OTHER], [0, 1]).read(EventLog())) == 2
        handler.seen.clear()
        with pytest.raises(ContextOverflow):
            backend.complete([PROMPT, long_one], [0, 1]).read(EventLog())
        assert handler.seen == []  # no request was sent

    def test_score_echo_path(self, stub_server):
        endpoint, _ = stub_server
        backend = http_backend(endpoint)
        assert backend.score([SCORED], [0]).read(EventLog()) == [pytest.approx(-1.5)]

    def test_score_one_request_per_call(self, stub_server, event_log):
        endpoint, handler = stub_server
        backend = http_backend(endpoint)
        scores = backend.score(CANDIDATES, [0] * 4).read(event_log)
        assert scores == pytest.approx([-1.5, -3.0, -4.5, -6.0])
        assert len(handler.seen) == 1
        request = handler.seen[0]
        assert request["echo"] is True and request["max_tokens"] == 0
        assert len(request["prompt"]) == 4
        assert [text.endswith(p.continuation) for text, p in zip(request["prompt"], CANDIDATES)] == [True] * 4
        calls = logged(event_log, "backend_call")
        assert [c["continuation"] for c in calls] == [p.continuation for p in CANDIDATES]
        assert [c["result"] for c in calls] == scores

    def test_score_records_write_each_prompt_once(self, stub_server, event_log):
        # every record keeps its prompt_sha; the text goes only where it
        # differs from the previous record's
        endpoint, _ = stub_server
        backend = http_backend(endpoint)
        other = replace(OTHER, continuation="gali'}")
        prompts = CANDIDATES[:2] + [other, CANDIDATES[2]]
        backend.score(prompts, [0] * 4).read(event_log)
        texts = [apply_chat_template(load_chat_template("plain"), p) for p in prompts]
        calls = logged(event_log, "backend_call")
        assert [c["prompt_sha"] for c in calls] == [prompt_digest(t) for t in texts]
        assert [c.get("prompt") for c in calls] == [texts[0], None, texts[2], texts[3]]

    def test_score_matches_choices_by_index(self, stub_server):
        endpoint, handler = stub_server
        handler.behaviour = "reversed"
        backend = http_backend(endpoint)
        assert backend.score(CANDIDATES, [0] * 4).read(EventLog()) == pytest.approx([-1.5, -3.0, -4.5, -6.0])

    def test_score_wrong_choice_count(self, stub_server, event_log):
        endpoint, handler = stub_server
        handler.behaviour = "drop_choice"
        backend = http_backend(endpoint)
        with pytest.raises(MalformedServiceReply):
            backend.score(CANDIDATES, [0] * 4).read(event_log)
        assert logged(event_log, "backend_call") == []

    def test_score_preflight_covers_every_candidate(self, stub_server):
        endpoint, handler = stub_server
        plain = apply_chat_template(load_chat_template("plain"), PROMPT)
        budget = estimate_tokens(plain + CANDIDATES[0].continuation) + 2
        long_one = replace(PROMPT, continuation="x" * 40 + "'}")
        backend = http_backend(endpoint, context_budget_tokens=budget)
        assert len(backend.score(CANDIDATES, [0] * 4).read(EventLog())) == 4
        handler.seen.clear()
        with pytest.raises(ContextOverflow):
            backend.score(CANDIDATES[:3] + [long_one], [0] * 4).read(EventLog())
        assert handler.seen == []  # no request was sent

    def test_score_capability_unsupported(self, stub_server):
        endpoint, handler = stub_server
        handler.behaviour = "no_logprobs"
        backend = http_backend(endpoint)
        with pytest.raises(CapabilityUnsupported):
            backend.score(CANDIDATES, [0] * 4).read(EventLog())

    @pytest.mark.parametrize(
        "logprobs",
        [
            {"token_logprobs": [None, "x"], "text_offset": [0, 10**6]},
            {"token_logprobs": [None, True], "text_offset": [0, 10**6]},
            {"token_logprobs": [None, -1.0], "text_offset": [0, "1000000"]},
            {"token_logprobs": "x", "text_offset": [10**6]},
            {"token_logprobs": [None, -1.0], "text_offset": 0},
        ],
        ids=["string-logprob", "true-logprob", "string-offset", "logprobs-not-a-list", "offsets-not-a-list"],
    )
    def test_malformed_echo_reply(self, stub_server, logprobs):
        # each of these used to raise TypeError or be summed as a number
        endpoint, handler = stub_server
        handler.echo_logprobs = logprobs
        with pytest.raises(MalformedServiceReply):
            http_backend(endpoint).score(CANDIDATES, [0] * 4).read(EventLog())

    def test_score_batch_retried_as_a_whole(self, stub_server, event_log, waits):
        endpoint, handler = stub_server
        handler.failures_left = 1
        backend = http_backend(endpoint)
        assert backend.score(CANDIDATES, [0] * 4).read(event_log) == pytest.approx([-1.5, -3.0, -4.5, -6.0])
        assert len(handler.seen) == 2
        assert handler.seen[1] == handler.seen[0]  # the retry re-sends the same body
        records = EventLog.read(event_log.path)
        assert [r["kind"] for r in records] == ["backend_retry"] + ["backend_call"] * 4
        assert [r["continuation"] for r in records[1:]] == [p.continuation for p in CANDIDATES]

    def test_context_overflow_preflight(self, stub_server):
        endpoint, handler = stub_server
        backend = http_backend(endpoint, context_budget_tokens=8)
        with pytest.raises(ContextOverflow):
            backend.complete([PROMPT], [0]).read(EventLog())
        assert handler.seen == []  # no network call was made

    def test_server_error_is_transport_failure(self, stub_server):
        endpoint, handler = stub_server
        handler.failures_left = 1
        backend = http_backend(endpoint, max_retries=0)
        with pytest.raises(TransportFailure):
            backend.complete([PROMPT], [0]).read(EventLog())

    def test_retry_recovers_from_5xx(self, stub_server, waits):
        endpoint, handler = stub_server
        handler.failures_left = 1
        backend = http_backend(endpoint)
        assert backend.complete([PROMPT], [0]).read(EventLog()) == [" hanosa'}"]

    def test_bad_json_reply(self, stub_server):
        endpoint, handler = stub_server
        handler.behaviour = "bad_json"
        backend = http_backend(endpoint)
        with pytest.raises(MalformedServiceReply):
            backend.complete([PROMPT], [0]).read(EventLog())

    def test_timeout(self, stub_server):
        endpoint, handler = stub_server
        handler.behaviour = "slow"
        backend = http_backend(endpoint, timeout=0.1, max_retries=0)
        with pytest.raises(BackendTimeout):
            backend.complete([PROMPT], [0]).read(EventLog())

    def test_credential_header(self, stub_server, monkeypatch):
        endpoint, handler = stub_server
        monkeypatch.setenv("REFGAME_API_KEY", "sekrit")
        backend = http_backend(endpoint)
        backend.complete([PROMPT], [0]).read(EventLog())
        # the handler does not expose headers; check via the backend's own builder
        assert backend._headers()["Authorization"] == "Bearer sekrit"


def _refused_endpoint() -> str:
    """An http:// endpoint on a local port with nothing listening."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{probe.getsockname()[1]}"


class TestWireConnection:
    """The pooled keep-alive connections, against an HTTP/1.1 stub."""

    def test_requests_share_one_connection(self, keepalive_stub_server):
        endpoint, handler = keepalive_stub_server
        backend = http_backend(endpoint)
        for _ in range(3):
            assert backend.complete([PROMPT], [0]).read(EventLog()) == [" hanosa'}"]
        backend.score(CANDIDATES, [0] * 4).read(EventLog())
        assert len(handler.seen) == 4
        assert handler.connections == 1

    def test_dropped_idle_connection_reconnects_without_retry(self, keepalive_stub_server, event_log, waits):
        endpoint, handler = keepalive_stub_server
        handler.behaviour = "close"
        backend = http_backend(endpoint)
        assert [backend.complete([PROMPT], [0]).read(event_log) for _ in range(3)] == [[" hanosa'}"]] * 3
        assert len(handler.seen) == 3 and handler.connections == 3
        assert logged(event_log, "backend_retry") == []
        assert waits == []

    def test_refused_connection_fails_after_retries(self, event_log, waits):
        backend = http_backend(_refused_endpoint(), max_retries=2)
        with pytest.raises(TransportFailure, match="ConnectionRefusedError"):
            backend.complete([PROMPT], [0]).read(event_log)
        assert [r["attempt"] for r in logged(event_log, "backend_retry")] == [1, 2]
        assert waits == [0.5, 1.0]
        assert logged(event_log, "backend_call") == []

    @pytest.mark.parametrize("prefix", ["/api", "/api/"])
    def test_path_prefix_kept(self, keepalive_stub_server, prefix):
        endpoint, handler = keepalive_stub_server
        backend = http_backend(endpoint + prefix)
        backend.complete([PROMPT], [0]).read(EventLog())
        assert handler.paths == ["/api/v1/completions"]

    def test_https_against_plain_service_is_transport_failure(self, keepalive_stub_server):
        endpoint, _ = keepalive_stub_server
        backend = http_backend(endpoint.replace("http://", "https://"), max_retries=0)
        with pytest.raises(TransportFailure):
            backend.complete([PROMPT], [0]).read(EventLog())

    def test_timed_out_connection_is_replaced(self, keepalive_stub_server):
        # the late reply must not be read as the answer to the next request
        endpoint, handler = keepalive_stub_server
        handler.behaviour = "slow"
        backend = http_backend(endpoint, timeout=0.1, max_retries=0)
        with pytest.raises(BackendTimeout):
            backend.complete([PROMPT], [0]).read(EventLog())
        handler.behaviour = "complete"
        backend.descriptor.timeout = 5.0
        assert backend.score([SCORED], [0]).read(EventLog()) == [pytest.approx(-1.5)]
        assert handler.connections == 2

    @pytest.mark.parametrize(
        "behaviour, message",
        [("bad_json", "response body is not JSON"), ("not_found", "service returned 404: no such model")],
    )
    def test_unusable_reply_is_malformed(self, keepalive_stub_server, behaviour, message):
        endpoint, handler = keepalive_stub_server
        handler.behaviour = behaviour
        backend = http_backend(endpoint)
        with pytest.raises(MalformedServiceReply) as info:
            backend.complete([PROMPT], [0]).read(EventLog())
        assert str(info.value) == message
        assert len(handler.seen) == 1  # not retried


class TestConnectionPool:
    """complete() keeps a request in flight while the backend carries
    another, as an llm agent does when it speaks ahead while it listens."""

    def test_two_calls_in_flight_open_two_connections(self):
        with wire_service() as endpoint:
            backend = http_backend(endpoint)
            for _ in range(10):
                pending = backend.complete([PROMPT, OTHER], [0, 0])
                backend.score(CANDIDATES, [0] * 4).read(EventLog())
                pending.read(EventLog())
            stats = service_stats(endpoint)
        assert (stats["requests"], stats["connections"]) == (20, 2)

    def test_kept_prompt_is_a_call_and_the_other_discarded(self, keepalive_stub_server, event_log):
        endpoint, _ = keepalive_stub_server
        backend = http_backend(endpoint)
        assert backend.complete([PROMPT, OTHER], [5, 5]).read(event_log, kept=1) == [" hanosa'}"] * 2
        template = load_chat_template("plain")
        (call,) = logged(event_log, "backend_call")
        assert (call["task"], call["prompt"]) == (5, apply_chat_template(template, OTHER))
        (discarded,) = logged(event_log, "backend_discarded")
        assert "prompt" not in discarded
        assert discarded["prompt_sha"] == prompt_digest(apply_chat_template(template, PROMPT))
        assert (discarded["task"], discarded["result"]) == (5, " hanosa'}")

    def test_latency_is_the_round_trip_not_the_wait_to_be_read(self, keepalive_stub_server, event_log):
        endpoint, _ = keepalive_stub_server
        pending = http_backend(endpoint).complete([PROMPT], [0])
        assert pending.peek() == [" hanosa'}"]
        time.sleep(0.2)  # the reply waits, received, until it is read
        pending.read(event_log)
        (call,) = logged(event_log, "backend_call")
        assert 0 < call["latency"] < 0.2

    def test_discarded_reply_is_read_before_its_connection_is_reused(self, event_log):
        with wire_service() as endpoint:
            backend = http_backend(endpoint)
            first, other = backend.complete([PROMPT, OTHER], [0, 0]).read(EventLog())
            assert first != other
            backend.complete([PROMPT], [3]).discard(event_log)
            # the one pooled connection answers the next request, not the discarded one
            assert backend.complete([OTHER], [0]).read(EventLog()) == [other]
            assert service_stats(endpoint)["connections"] == 1
        assert [(r["task"], r["result"]) for r in logged(event_log, "backend_discarded")] == [(3, first)]
        assert logged(event_log, "backend_call") == []

    def test_discarded_reply_that_fails_closes_its_connection(self, keepalive_stub_server, event_log, waits):
        endpoint, handler = keepalive_stub_server
        handler.failures_left = 1
        backend = http_backend(endpoint)
        backend.complete([PROMPT], [0]).discard(event_log)
        assert [r["result"] for r in logged(event_log, "backend_discarded")] == [None]
        assert logged(event_log, "backend_retry") == [] and waits == []  # never retried
        assert backend.complete([PROMPT], [0]).read(EventLog()) == [" hanosa'}"]
        assert (len(handler.seen), handler.connections) == (2, 2)

    def test_connections_the_service_closed_reopen_without_retry(self, keepalive_stub_server, event_log, waits):
        endpoint, handler = keepalive_stub_server
        handler.behaviour = "close"
        backend = http_backend(endpoint)
        for _ in range(3):
            pending = backend.complete([PROMPT], [0])
            backend.score([SCORED], [0]).read(event_log)
            assert pending.read(event_log) == [" hanosa'}"]
        assert (len(handler.seen), handler.connections) == (6, 6)
        assert logged(event_log, "backend_retry") == []
        assert waits == []
