"""Language-model service clients: greedy completion and continuation scoring.

``CompletionBackend`` is the contract and ``HttpBackend``, a client for an
external completion-style service, implements it. Completion and scoring
both take a list of prompts and answer them in one call, so the client sends
one request per call, and it retries its own transport failures and
timeouts. Every call appends one record per prompt to the event log it is
given, in the order given, before the results are returned.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import io
import json
import os
import threading
import time
import weakref
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Collection, Sequence
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
        # no signal fits a completion of no tokens, and no prompt a budget of none
        if self.max_output_tokens < 1:
            raise BackendError("max_output_tokens must be >= 1")
        if self.context_budget_tokens < 1:
            raise BackendError("context_budget_tokens must be >= 1")
        if self.endpoint:  # an llm run without one fails its pre-flight
            try:
                url = urlsplit(self.endpoint)  # raises on a malformed IPv6 host
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


# how ``EventLog.append`` starts every line
_KIND_PREFIX = '{"kind": "'


class EventLog:
    """Append-only structured run log, one JSON record per line.

    The engine sets contextual fields (simulation id, block, round, task);
    backends and blocks append records tagged with the current context.
    The file is opened (and emptied) once and flushed after every record,
    so it can be read or digested while the log is open. Use it in a
    ``with`` block, which closes it. ``EventLog()``, with no path, is held
    in memory and needs no closing: a caller that wants no file passes one.

    ``fork()`` is a log held in memory, starting from a copy of this one's
    context, for a block whose records belong after those this log gets
    meanwhile, beside them or after them. ``join(fork)`` writes the fork's
    lines after everything this log holds and takes the fork's context, so
    the file and the context end as if the forked block had run after the
    other. A fork never joined is dropped.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = None if path is None else Path(path)  # None: held in memory
        self.context: dict = {}
        self._lock = threading.Lock()
        if self.path is None:
            self._file = io.StringIO()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w")

    def __enter__(self) -> EventLog:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._file.close()

    def set_context(self, **fields) -> None:
        self.context.update(fields)

    def append(self, kind: str, **fields) -> None:
        line = json.dumps({"kind": kind, **self.context, **fields}) + "\n"
        with self._lock:
            self._file.write(line)
            self._file.flush()

    def fork(self) -> EventLog:
        fork = EventLog()
        fork.context = dict(self.context)
        return fork

    def join(self, fork: EventLog) -> None:
        with self._lock:
            self._file.write(fork._file.getvalue())
            self._file.flush()
        self.context = fork.context

    @staticmethod
    def read(path: str | Path, kinds: Collection[str] | None = None) -> list[dict]:
        """Every record of the log at ``path``, or with ``kinds`` only those
        of these kinds. ``append`` writes a record's kind first, so a line of
        another kind is skipped without being parsed; a line that does not
        start ``{"kind": "`` (a log not written by ``append``) is parsed to
        learn its kind. A parsed line that is not a JSON object with a string
        kind raises ``ValueError``."""
        records = []
        for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
            if not line:
                continue
            if kinds is not None and line.startswith(_KIND_PREFIX):
                end = line.find('"', len(_KIND_PREFIX))
                kind = line[len(_KIND_PREFIX):end]
                # an escape in the kind (or no closing quote) is left to json
                if end > 0 and "\\" not in kind and kind not in kinds:
                    continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not (isinstance(record, dict) and isinstance(record.get("kind"), str)):
                raise ValueError(f"line {number} is not a JSON object with a string kind")
            if kinds is None or record["kind"] in kinds:
                records.append(record)
        return records


class CompletionBackend:
    """What an agent asks of a language-model service; ``HttpBackend``
    implements it.

    complete() returns, in the order given, the greedy continuation text of
    each prompt; score() takes prompts that each carry a ``continuation`` and
    returns, in the same order, the total log-probability of each
    continuation under the model. A call succeeds or fails as a whole. Only
    (text, log-probability, error) ever crosses this boundary.

    A call appends a ``backend_call`` record per prompt to ``event_log``.
    ``tasks`` holds one task index per prompt; each record carries its own
    in place of the log's context ``task``, so a call that answers several
    tasks says which record is whose.

    Two calls may be in flight at once, from two threads: the two agents of
    an in-process dyad may share one backend. A backend may also offer
    ``complete_later(prompts, tasks)`` and ``score_later(prompts, tasks)``,
    which send a request, its task indices fixed with it, and return a
    handle to read it with later, as ``HttpBackend`` does: its handle is the
    ``PendingCompletion`` that each of its requests is, a score or a
    completion. An ``LLMAgent`` speaks and listens ahead only over a backend
    with both, and then has up to four requests in flight.
    """

    def complete(self, prompts: Sequence[Prompt], tasks: Sequence[int],
                 event_log: EventLog) -> list[str]:
        raise NotImplementedError

    def score(self, prompts: Sequence[Prompt], tasks: Sequence[int],
              event_log: EventLog) -> list[float]:
        raise NotImplementedError

    @staticmethod
    def _log(
        event_log: EventLog,
        call: str,
        prompt_text: str,
        result,
        latency: float,
        task: int,
        repeat: bool = False,
        kind: str = "backend_call",
        **extra,
    ) -> None:
        """Append a ``kind`` record to ``event_log``, with ``task`` over the
        context's and ``latency`` the request's round trip in seconds; with
        ``repeat`` it keeps the prompt's ``prompt_sha`` but leaves its text
        out."""
        text = {} if repeat else {"prompt": prompt_text}
        event_log.append(
            kind,
            call=call,
            prompt_sha=prompt_digest(prompt_text),
            **text,
            result=result,
            latency=latency,
            timestamp=time.time(),
            **extra,
            task=task,
        )


def _close_all(connections: list) -> None:
    for connection in connections:
        connection.close()


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
    is a MalformedServiceReply. complete_later() and score_later() send a
    request at once and read its reply when asked, so the same backend can
    carry other requests meanwhile.

    Requests go out on keep-alive ``http.client`` connections, HTTPS when
    the endpoint's scheme says so, to the endpoint's path followed by
    ``/v1/completions``. Each request takes an idle connection from a pool,
    or opens one when none is idle, and gives it back once its reply is
    read; the pool keeps at most ``POOL_SIZE`` idle connections, so a
    backend with at most four requests in flight at once, as an llm
    agent's (its listening and speaking requests, and the two of a wrong
    prediction it discards), never opens more than four. Calls may come
    from several threads at once. When the service has closed a connection
    while it was idle, the request is sent once more on a new one; that is
    not a retry. Every request, a completion, a score or one made ahead, is
    one ``PendingCompletion``, sent with ``_send`` and read through one
    retrying read, which sends the same body again after a transport
    failure or timeout, up to ``descriptor.max_retries`` times; a call is
    retried as a whole, and ``descriptor.timeout`` bounds each attempt at
    the whole list.
    Each retry appends a ``backend_retry`` record before the call's
    ``backend_call`` records, whose ``latency`` is the answering attempt's
    round trip: from its send to its reply's arrival, however much later
    the reply is read.
    ContextOverflow, capability and malformed-reply errors are not retried.
    The records of a score call carry the templated prompt text only where
    it differs from the previous record's; each keeps its ``prompt_sha``.
    """

    POOL_SIZE = 4

    def __init__(self, descriptor: BackendDescriptor):
        self.descriptor = descriptor
        self.template = load_chat_template(descriptor.template)
        # loaded here, not with the module: oracle commands never connect
        from http.client import HTTPConnection, HTTPSConnection

        url = urlsplit(descriptor.endpoint)
        self._path = url.path.rstrip("/") + "/v1/completions"
        connection_class = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self._connect = partial(connection_class, url.hostname, url.port, timeout=descriptor.timeout)
        self._idle: list = []  # most recently used last
        self._pool_lock = threading.Lock()
        # closes the idle sockets when the backend goes away
        weakref.finalize(self, _close_all, self._idle)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.descriptor.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _send(self, request: PendingCompletion) -> PendingCompletion:
        """``request`` with its body posted on a pooled connection and its
        reply left unread; a send that fails raises when the reply is read."""
        with self._pool_lock:
            connection = self._idle.pop() if self._idle else self._connect()
        request.connection, request.reused = connection, connection.sock is not None
        request.error, request.outcome, request.started = None, None, time.monotonic()
        try:
            connection.request("POST", self._path, request.body, self._headers())
        except OSError as err:
            request.error = err
        return request

    def _receive(self, request: PendingCompletion,
                 object_hook: Callable[[dict], dict] | None = None) -> dict:
        """The parsed reply to a ``_send``; the connection goes back to the
        pool, closed when the exchange failed."""
        from http.client import HTTPException  # loaded by __init__, not with this module

        connection = request.connection
        try:
            try:
                if request.error is not None:
                    raise request.error
                response = connection.getresponse()
            except ConnectionError:
                if not request.reused:
                    raise
                # the service closed the idle keep-alive connection
                connection.close()
                connection.request("POST", self._path, request.body, self._headers())
                response = connection.getresponse()
            status, data = response.status, response.read()
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
        except TimeoutError as err:
            connection.close()
            raise BackendTimeout(f"no reply within {self.descriptor.timeout} s") from err
        except (OSError, HTTPException) as err:
            connection.close()
            raise TransportFailure(f"{type(err).__name__}: {err}") from err
        except BackendError:
            connection.close()
            raise
        finally:
            self._give_back(connection)

    def _give_back(self, connection) -> None:
        with self._pool_lock:
            if len(self._idle) < self.POOL_SIZE:
                self._idle.append(connection)
                return
        connection.close()

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

    def complete(self, prompts: Sequence[Prompt], tasks: Sequence[int],
                 event_log: EventLog) -> list[str]:
        return self.complete_later(prompts, tasks).read(event_log)

    def complete_later(self, prompts: Sequence[Prompt], tasks: Sequence[int]) -> PendingCompletion:
        """complete(), with the request sent now and its reply read by the
        returned ``PendingCompletion``."""
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
        return self._send(PendingCompletion(self, json.dumps(payload).encode(), full_texts, tasks))

    def score(self, prompts: Sequence[Prompt], tasks: Sequence[int],
              event_log: EventLog) -> list[float]:
        return self.score_later(prompts, tasks).read(event_log)

    def score_later(self, prompts: Sequence[Prompt], tasks: Sequence[int]) -> PendingCompletion:
        """score(), with the request sent now and its reply read by the
        returned ``PendingCompletion``."""
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
        body, continuations = json.dumps(payload).encode(), [p.continuation for p in prompts]
        return self._send(PendingCompletion(self, body, full_texts, tasks, continuations))

    @staticmethod
    def _continuation_logprob(logprobs: dict | None, boundary: int) -> float:
        """Sum of a choice's echoed token log-probabilities at or past
        ``boundary``, the length of the templated prompt before the
        continuation. Lists that do not hold numbers (or None for a token
        without one) are a MalformedServiceReply."""
        try:
            token_logprobs = logprobs["token_logprobs"]
            offsets = logprobs["text_offset"]
        except (KeyError, TypeError) as err:
            raise CapabilityUnsupported(
                "service does not return echoed token log-probabilities"
            ) from err
        if type(token_logprobs) is not list or type(offsets) is not list:
            raise MalformedServiceReply("echoed token_logprobs or text_offset is not a list")
        total = 0.0
        counted = 0
        try:
            for offset, lp in zip(offsets, token_logprobs):
                if offset >= boundary and lp is not None:
                    if type(lp) is not float and type(lp) is not int:
                        raise MalformedServiceReply(f"echoed log-probability {lp!r} is not a number")
                    total += lp
                    counted += 1
        except TypeError as err:  # an offset that is not a number
            raise MalformedServiceReply(f"echoed text offset is not a number: {err}") from None
        if counted == 0:
            raise MalformedServiceReply("no continuation tokens in echo response")
        return total


class PendingCompletion:
    """One request of an ``HttpBackend``, a completion or (with
    ``continuations``) a score: its body, the templated texts of its prompts
    and their task indices, and, once ``_send`` has posted it, the
    connection it went out on, whether that connection had carried an
    earlier request, the send's error (raised again by the read), the
    attempt's start time and, once received, its outcome and arrival time.
    ``complete_later`` and ``score_later`` return it unread: read it once,
    with read() or discard(), after peek() if wanted; until then it holds
    one of the backend's connections."""

    def __init__(self, backend: HttpBackend, body: bytes, full_texts: list[str], tasks: Sequence[int],
                 continuations: list[str] | None = None):
        self._backend = backend
        self.body = body
        self.full_texts = full_texts
        self.tasks = tasks
        self.continuations = continuations
        self._summed: dict[int, float] = {}

    def _sum_choice(self, obj: dict) -> dict:
        # the token lists go as soon as a choice is parsed: the two agents'
        # guessing replies, each several MB decoded, arrive together
        index = obj.get("index")
        if "logprobs" in obj and type(index) is int and 0 <= index < len(self.full_texts):
            boundary = len(self.full_texts[index])
            self._summed[index] = self._backend._continuation_logprob(obj.pop("logprobs"), boundary)
        return obj

    def _receive(self) -> dict:
        """The reply to the attempt in flight, received at the first call
        only: a later one returns it, or raises its error, again."""
        if self.outcome is None:
            try:
                hook = None if self.continuations is None else self._sum_choice
                self.outcome = self._backend._receive(self, hook)
            except BackendError as err:
                self.outcome = err
            self.arrived = time.monotonic()
        if isinstance(self.outcome, BackendError):
            raise self.outcome
        return self.outcome

    def _reply(self, event_log: EventLog) -> dict:
        """The reply; ``started`` and ``arrived`` are then the monotonic send
        and arrival times of the attempt that got it. After a transport
        failure or timeout the same body is sent again: retry k waits
        ``backoff_base * 2**(k-1)`` and is logged to ``event_log``."""
        descriptor = self._backend.descriptor
        attempt = 0
        while True:
            try:
                return self._receive()
            except (TransportFailure, BackendTimeout) as err:
                attempt += 1
                if attempt > descriptor.max_retries:
                    raise
                event_log.append("backend_retry", attempt=attempt, error=str(err))
                time.sleep(descriptor.backoff_base * 2 ** (attempt - 1))
                self._backend._send(self)

    def _results(self, reply: dict) -> list:
        """A completion's texts or a score's totals, in prompt order."""
        choices = self._backend._choices(reply, len(self.full_texts))
        if self.continuations is not None:
            if len(self._summed) < len(choices):  # a choice without log-probabilities
                raise CapabilityUnsupported("service does not return echoed token log-probabilities")
            return [self._summed[i] for i in range(len(choices))]
        try:
            texts = [choice["text"] for choice in choices]
        except (KeyError, TypeError) as err:
            raise MalformedServiceReply(f"missing completion text: {reply!r}") from err
        if not all(isinstance(text, str) for text in texts):
            raise MalformedServiceReply(f"completion text is not a string: {reply!r}")
        return texts

    def _log(self, event_log: EventLog, results: list, kept: int | None = None,
             discarded: bool = False) -> None:
        """A ``backend_call`` record per prompt, or with ``kept`` for that
        prompt only, every other (and with ``discarded`` every one) getting
        a ``backend_discarded`` record without its text. A score's records
        carry the text only where it differs from the previous record's."""
        scoring = self.continuations is not None
        call, previous = "score" if scoring else "complete", None
        for position, (full_text, result, task) in enumerate(zip(self.full_texts, results, self.tasks)):
            dropped = discarded or (kept is not None and position != kept)
            extra = {"continuation": self.continuations[position]} if scoring else {}
            self._backend._log(
                event_log, call, full_text, result, self.arrived - self.started, task,
                repeat=dropped or (scoring and full_text == previous),
                kind="backend_discarded" if dropped else "backend_call", **extra,
            )
            previous = full_text

    def read(self, event_log: EventLog, kept: int | None = None) -> list:
        """What complete() or score() returns and logs, retried as they are,
        with ``kept`` logged as ``_log`` says."""
        results = self._results(self._reply(event_log))
        self._log(event_log, results, kept)
        return results

    def peek(self) -> list | None:
        """What read() would return, received now from the attempt in flight
        and logged by nothing; None when that attempt failed. A later read()
        or discard() starts from this attempt, as it would have."""
        try:
            return self._results(self._receive())
        except BackendError:
            return None

    def discard(self, event_log: EventLog) -> None:
        """Reads the reply, once and without a retry, and logs every prompt
        as ``backend_discarded``, with a ``result`` of None when no usable
        reply came."""
        try:
            results = self._results(self._receive())
        except BackendError:
            results = [None] * len(self.full_texts)
        self._log(event_log, results, discarded=True)
