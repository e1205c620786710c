"""Language-model service clients: greedy completion and continuation scoring.

``CompletionBackend`` is the contract and ``HttpBackend``, a client for an
external completion-style service, implements it. Completion and scoring
both take a list of prompts and answer them in one call, so the client sends
one request per call, and it retries its own transport failures and
timeouts. Every prompt's result is appended to the run's event log, one
record per prompt in the order given, before the results are returned.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import os
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence
from urllib.parse import urlsplit

from .prompts import Prompt


class BackendError(Exception):
    pass


class BackendTimeout(BackendError):
    pass


class TransportFailure(BackendError):
    pass


class ContextOverflow(BackendError):
    """Pre-flight estimate exceeds the model context budget; no call is made."""


class MalformedServiceReply(BackendError):
    pass


class CapabilityUnsupported(BackendError):
    """The service cannot return continuation token log-probabilities."""


# Stop generation at a newline or the closing of the current entry.
COMPLETION_STOP_SEQUENCES = ("\n", "'}")

TOKEN_CHARS_ESTIMATE = 4  # conservative chars-per-token heuristic


@dataclass
class BackendDescriptor:
    """Connection and decoding parameters for an external model service."""

    endpoint: str = ""
    model: str = ""
    timeout: float = 60.0
    max_retries: int = 3
    temperature: float = 0.0  # greedy in replication mode
    max_output_tokens: int = 16
    context_budget_tokens: int = 8192
    api_key_env: str = "REFGAME_API_KEY"
    template: str = "llama3"  # template name under data/templates or a file path
    backoff_base: float = 0.5

    def validate(self) -> None:
        if self.timeout <= 0:
            raise BackendError("timeout must be > 0")
        if self.max_retries < 0:
            raise BackendError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise BackendError("backoff_base must be >= 0")
        if self.endpoint:  # an llm run without one fails its pre-flight
            url = urlsplit(self.endpoint)
            try:
                url.port  # raises on a port that is not a number below 65536
            except ValueError as err:
                raise BackendError(f"endpoint {self.endpoint!r}: {err}") from err
            if url.scheme not in ("http", "https") or not url.hostname:
                raise BackendError(
                    f"endpoint {self.endpoint!r} is not an http:// or https:// URL with a host"
                )


def load_chat_template(name_or_path: str) -> str:
    """A format string with {system} and {user} placeholders."""
    path = Path(name_or_path)
    if path.suffix == ".txt" and path.exists():
        return path.read_text()
    resource = importlib.resources.files("refgame").joinpath(
        f"data/templates/{name_or_path}.txt"
    )
    if not resource.is_file():
        raise BackendError(f"unknown chat template {name_or_path!r}")
    return resource.read_text()


def apply_chat_template(template: str, prompt: Prompt) -> str:
    return template.format(system=prompt.system_instruction, user=prompt.user_text())


def estimate_tokens(text: str) -> int:
    return (len(text) + TOKEN_CHARS_ESTIMATE - 1) // TOKEN_CHARS_ESTIMATE


def prompt_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class HeldRecords:
    """Records an ``EventLog`` holds for one worker thread: its own context
    and the lines it appended, in order."""

    context: dict
    lines: list[str] = field(default_factory=list)


class EventLog:
    """Append-only structured run log, one JSON record per line.

    The engine sets contextual fields (simulation id, block, round, task);
    backends and blocks append records tagged with the current context.
    The file is opened (and emptied) once and flushed after every record,
    so it can be read or digested while the log is open. Use it in a
    ``with`` block, which closes it.

    A block that runs on a worker thread while the calling thread runs
    another can have its records held: ``hold()``, called on the calling
    thread before either block starts, returns a ``HeldRecords`` with a copy
    of the current context. Inside ``with log.holding(held):`` the worker
    thread's ``set_context`` updates that copy and its ``append`` adds the
    record, tagged with the copy, to ``held`` instead of the file.
    ``release(held)`` writes the held records after everything the calling
    thread wrote and updates the shared context with the copy, so the file
    and the context end as if the worker's block had run after the calling
    thread's. Held records that are never released are dropped.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.context: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("w")

    def __enter__(self) -> EventLog:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._file.close()

    def _held(self) -> HeldRecords | None:
        return getattr(self._local, "held", None)

    def set_context(self, **fields) -> None:
        held = self._held()
        (self.context if held is None else held.context).update(fields)

    def append(self, kind: str, **fields) -> None:
        held = self._held()
        context = self.context if held is None else held.context
        line = json.dumps({"kind": kind, **context, **fields}) + "\n"
        if held is not None:
            held.lines.append(line)
            return
        with self._lock:
            self._file.write(line)
            self._file.flush()

    def hold(self) -> HeldRecords:
        return HeldRecords(dict(self.context))

    @contextmanager
    def holding(self, held: HeldRecords) -> Iterator[None]:
        self._local.held = held
        try:
            yield
        finally:
            self._local.held = None

    def release(self, held: HeldRecords) -> None:
        with self._lock:
            self._file.writelines(held.lines)
            self._file.flush()
        self.context.update(held.context)

    @staticmethod
    def read(path: str | Path) -> list[dict]:
        return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


class CompletionBackend:
    """What an agent asks of a language-model service; ``HttpBackend``
    implements it.

    complete() returns, in the order given, the greedy continuation text of
    each prompt; score() takes prompts that each carry a ``continuation`` and
    returns, in the same order, the total log-probability of each
    continuation under the model. A call succeeds or fails as a whole. Only
    (text, log-probability, error) ever crosses this boundary.

    ``tasks``, when given, holds one task index per prompt; each prompt's
    ``backend_call`` record carries its own in place of the event log's
    context ``task``, so a call that answers several tasks of a block still
    says which record belongs to which task.
    """

    event_log: EventLog | None = None

    def complete(self, prompts: Sequence[Prompt], tasks: Sequence[int] | None = None) -> list[str]:
        raise NotImplementedError

    def score(self, prompts: Sequence[Prompt], tasks: Sequence[int] | None = None) -> list[float]:
        raise NotImplementedError

    @staticmethod
    def _tasks(prompts: Sequence[Prompt], tasks: Sequence[int] | None) -> Sequence[int | None]:
        return [None] * len(prompts) if tasks is None else tasks

    def _log(
        self,
        call: str,
        prompt_text: str,
        result,
        started: float,
        task: int | None = None,
        repeat: bool = False,
        **extra,
    ) -> None:
        """Append a ``backend_call`` record, with ``task`` over the context's
        when given; with ``repeat`` it keeps the prompt's ``prompt_sha`` but
        leaves its text out."""
        if self.event_log is None:
            return
        text = {} if repeat else {"prompt": prompt_text}
        if task is not None:
            extra["task"] = task
        self.event_log.append(
            "backend_call",
            call=call,
            prompt_sha=prompt_digest(prompt_text),
            **text,
            result=result,
            latency=time.monotonic() - started,
            timestamp=time.time(),
            **extra,
        )


class HttpBackend(CompletionBackend):
    """Client for an OpenAI-style completion service.

    Both calls check every templated prompt against the context budget,
    then post them all as one list ``prompt`` and match the returned choices
    by ``index``: complete() asks for greedy continuations, score() for
    direct scoring (echo + logprobs with no new tokens), summing each
    choice's continuation log-probabilities while the reply is parsed, so
    its token lists are never all held at once. Services that
    reject echo-scoring surface CapabilityUnsupported; a reply without one
    indexed choice per prompt, as from a service that rejects list prompts,
    is a MalformedServiceReply.

    Requests go out on one keep-alive ``http.client`` connection, HTTPS
    when the endpoint's scheme says so, to the endpoint's path followed by
    ``/v1/completions``. When the service has closed that connection while
    it was idle, the request is sent once more on a new one; that is not a
    retry. A request that fails in transport or times out is sent again, up
    to ``descriptor.max_retries`` times; a call is retried as a whole, and
    ``descriptor.timeout`` bounds each attempt at the whole list.
    Each retry appends a ``backend_retry`` record before the call's
    ``backend_call`` records, whose ``latency`` is the answering attempt's.
    ContextOverflow, capability and malformed-reply errors are not retried.
    The records of a score call carry the templated prompt text only where
    it differs from the previous record's; each keeps its ``prompt_sha``.
    """

    def __init__(self, descriptor: BackendDescriptor, event_log: EventLog | None = None):
        self.descriptor = descriptor
        self.event_log = event_log
        self.template = load_chat_template(descriptor.template)
        # loaded here, not with the module: oracle commands never connect
        from http.client import HTTPConnection, HTTPSConnection

        url = urlsplit(descriptor.endpoint)
        self._path = url.path.rstrip("/") + "/v1/completions"
        connection_class = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self._connection = connection_class(url.hostname, url.port, timeout=descriptor.timeout)
        # closes the socket when the backend goes away, as a pool would
        weakref.finalize(self, self._connection.close)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.descriptor.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        self._connection.request("POST", self._path, body, self._headers())
        response = self._connection.getresponse()
        return response.status, response.read()

    def _post(self, payload: dict, object_hook: Callable[[dict], dict] | None = None) -> dict:
        try:
            return self._reply(json.dumps(payload).encode(), object_hook)
        except BackendError:
            self._connection.close()
            raise

    def _reply(self, body: bytes, object_hook: Callable[[dict], dict] | None = None) -> dict:
        from http.client import HTTPException  # loaded by __init__, not with this module

        reused = self._connection.sock is not None
        try:
            try:
                status, data = self._exchange(body)
            except ConnectionError:
                if not reused:
                    raise
                # the service closed the idle keep-alive connection
                self._connection.close()
                status, data = self._exchange(body)
        except TimeoutError as err:
            raise BackendTimeout(f"no reply within {self.descriptor.timeout} s") from err
        except (OSError, HTTPException) as err:
            raise TransportFailure(f"{type(err).__name__}: {err}") from err
        if status >= 500:
            raise TransportFailure(f"service error {status}")
        if status != 200:
            raise MalformedServiceReply(
                f"service returned {status}: {data[:200].decode(errors='replace')}"
            )
        try:
            return json.loads(data, object_hook=object_hook)
        except ValueError as err:
            raise MalformedServiceReply("response body is not JSON") from err

    def _post_with_retries(
        self, payload: dict, object_hook: Callable[[dict], dict] | None = None
    ) -> tuple[dict, float]:
        """The reply to ``payload``, each of its JSON objects passed through
        ``object_hook`` as it is parsed, and the monotonic start time of the
        attempt that got it; retry k waits ``backoff_base * 2**(k-1)``."""
        attempt = 0
        while True:
            started = time.monotonic()
            try:
                return self._post(payload, object_hook), started
            except (TransportFailure, BackendTimeout) as err:
                attempt += 1
                if attempt > self.descriptor.max_retries:
                    raise
                if self.event_log is not None:
                    self.event_log.append("backend_retry", attempt=attempt, error=str(err))
                time.sleep(self.descriptor.backoff_base * 2 ** (attempt - 1))

    def _check_budget(self, text: str, extra_tokens: int) -> None:
        needed = estimate_tokens(text) + extra_tokens
        if needed > self.descriptor.context_budget_tokens:
            raise ContextOverflow(
                f"estimated {needed} tokens exceeds budget {self.descriptor.context_budget_tokens}"
            )

    @staticmethod
    def _choices(reply: dict, count: int) -> list[dict]:
        """The reply's ``count`` choices in prompt order, matched by ``index``."""
        try:
            choices = reply["choices"]
            by_index = {choice["index"]: choice for choice in choices}
        except (KeyError, TypeError) as err:
            raise MalformedServiceReply(f"missing indexed choices: {reply!r}") from err
        if len(choices) != count or set(by_index) != set(range(count)):
            raise MalformedServiceReply(
                f"expected {count} choices indexed from 0, got {len(choices)}"
            )
        return [by_index[i] for i in range(count)]

    def complete(self, prompts: Sequence[Prompt], tasks: Sequence[int] | None = None) -> list[str]:
        full_texts = [apply_chat_template(self.template, p) for p in prompts]
        for text in full_texts:
            self._check_budget(text, self.descriptor.max_output_tokens)
        payload = {
            "model": self.descriptor.model,
            "prompt": full_texts,
            "max_tokens": self.descriptor.max_output_tokens,
            "temperature": self.descriptor.temperature,
            "stop": list(COMPLETION_STOP_SEQUENCES),
        }
        reply, started = self._post_with_retries(payload)
        try:
            texts = [choice["text"] for choice in self._choices(reply, len(prompts))]
        except (KeyError, TypeError) as err:
            raise MalformedServiceReply(f"missing completion text: {reply!r}") from err
        if not all(isinstance(text, str) for text in texts):
            raise MalformedServiceReply(f"completion text is not a string: {reply!r}")
        for full_text, text, task in zip(full_texts, texts, self._tasks(prompts, tasks)):
            self._log("complete", full_text, text, started, task)
        return texts

    def score(self, prompts: Sequence[Prompt], tasks: Sequence[int] | None = None) -> list[float]:
        full_texts = []
        for prompt in prompts:
            if not prompt.continuation:
                raise ValueError("continuation must be non-empty")
            full_text = apply_chat_template(self.template, prompt)
            self._check_budget(full_text + prompt.continuation, 0)
            full_texts.append(full_text)
        payload = {
            "model": self.descriptor.model,
            "prompt": [text + p.continuation for text, p in zip(full_texts, prompts)],
            "max_tokens": 0,
            "temperature": self.descriptor.temperature,
            "echo": True,
            "logprobs": 0,
        }
        boundaries = [len(text) for text in full_texts]
        summed: dict[int, float] = {}

        def sum_choice(obj: dict) -> dict:
            # the token lists go as soon as a choice is parsed: the two
            # agents' guessing replies, each several MB decoded, arrive together
            index = obj.get("index")
            if "logprobs" in obj and type(index) is int and 0 <= index < len(boundaries):
                summed[index] = self._continuation_logprob(obj.pop("logprobs"), boundaries[index])
            return obj

        reply, started = self._post_with_retries(payload, sum_choice)
        self._choices(reply, len(prompts))
        if len(summed) < len(prompts):  # a choice without log-probabilities
            raise CapabilityUnsupported("service does not return echoed token log-probabilities")
        totals = [summed[i] for i in range(len(prompts))]
        previous = None
        for text, prompt, total, task in zip(full_texts, prompts, totals, self._tasks(prompts, tasks)):
            self._log("score", text, total, started, task, repeat=text == previous,
                      continuation=prompt.continuation)
            previous = text
        return totals

    @staticmethod
    def _continuation_logprob(logprobs: dict | None, boundary: int) -> float:
        """Sum of a choice's echoed token log-probabilities at or past
        ``boundary``, the length of the templated prompt before the
        continuation."""
        try:
            token_logprobs = logprobs["token_logprobs"]
            offsets = logprobs["text_offset"]
        except (KeyError, TypeError) as err:
            raise CapabilityUnsupported(
                "service does not return echoed token log-probabilities"
            ) from err
        total = 0.0
        counted = 0
        for offset, lp in zip(offsets, token_logprobs):
            if offset >= boundary and lp is not None:
                total += lp
                counted += 1
        if counted == 0:
            raise MalformedServiceReply("no continuation tokens in echo response")
        return total
