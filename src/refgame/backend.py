"""Language-model service clients: greedy completion and continuation scoring.

``CompletionBackend`` is the contract and ``HttpBackend``, a client for an
external completion-style service, implements it. Completion and scoring
both take a list of prompts and send it at once as one request, whose
handle reads the answer later; the client retries its own transport
failures and timeouts. Reading a request appends one record per prompt to
the event log it is given, in the order given, before the results are
returned, or one ``backend_failed`` record before its error is raised.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import io
import json
import math
import os
import threading
import time
import weakref
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import sleep  # the backoff's own name, replaceable without touching time.sleep
from typing import Callable, Collection, Sequence
from urllib.parse import urlsplit, urlunsplit

from .prompts import Prompt


class BackendError(Exception):
    pass


class BackendTimeout(BackendError):
    pass


class TransportFailure(BackendError):
    pass


class ContextOverflow(BackendError):
    """Pre-flight estimate exceeds the model context budget; no request is sent."""


class MalformedServiceReply(BackendError):
    pass


class ServiceRefused(BackendError):
    """The service refused the request (a 4xx other than 408 and 429):
    asked again, it would refuse again."""


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
        if not 0 < self.timeout < math.inf:  # false for nan too
            raise BackendError("timeout must be > 0 and finite")
        if self.timeout > threading.TIMEOUT_MAX:  # a socket timeout beyond it overflows
            raise BackendError(f"timeout must be <= {threading.TIMEOUT_MAX}")
        if self.max_retries < 0:
            raise BackendError("max_retries must be >= 0")
        if not 0 <= self.backoff_base < math.inf:
            raise BackendError("backoff_base must be >= 0 and finite")
        if not math.isfinite(self.temperature):  # a request body carries no nan or infinity
            raise BackendError("temperature must be finite")
        # no signal fits a completion of no tokens, and no prompt a budget of none
        if self.max_output_tokens < 1:
            raise BackendError("max_output_tokens must be >= 1")
        if self.context_budget_tokens < 1:
            raise BackendError("context_budget_tokens must be >= 1")
        if self.endpoint:  # an llm run without one fails its pre-flight
            if any(c <= " " or c == "\x7f" for c in self.endpoint):  # http.client sends none of them
                raise BackendError(f"endpoint {self.endpoint!r} holds a space or a control character")
            try:
                url = urlsplit(self.endpoint)  # raises on a malformed IPv6 host
                url.port  # raises on a port that is not a number below 65536
            except ValueError as err:
                raise BackendError(f"endpoint {self.endpoint!r}: {err}") from err
            if url.scheme not in ("http", "https") or not url.hostname:
                raise BackendError(
                    f"endpoint {self.endpoint!r} is not an http:// or https:// URL with a host"
                )

    def service(self) -> dict:
        """The settings that shape the service's replies, as a run's manifest
        records them. The endpoint loses what may hold a credential, its
        user info and query; neither ``api_key_env`` nor its value is kept."""
        url = urlsplit(self.endpoint)
        endpoint = urlunsplit((url.scheme, url.netloc.rpartition("@")[2], url.path, "", ""))
        return {
            "model": self.model,
            "endpoint": endpoint,
            "template": self.template,
            "temperature": self.temperature,
            "max_output_tokens": self.max_output_tokens,
            "context_budget_tokens": self.context_budget_tokens,
        }


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
    The file is opened (and emptied) once and flushed after every record
    appended or joined; a simulation's labelling, communication and testing
    write into a fork joined once they end, so until guessing is read its
    file holds ``run_start`` only. Use it in a ``with`` block, which closes
    it. ``EventLog()``, with no path, is held in memory and needs no
    closing: a caller that wants no file passes one.

    ``fork()`` is a log held in memory, starting from a copy of this one's
    context, for a block whose records belong after those this log gets
    meanwhile. ``join(fork)``, once the forked block has finished, writes
    the fork's lines after everything this log holds and takes the fork's
    context, so the file and the context end as if the forked block had
    run after the other. A fork never joined is dropped. A log and its
    forks share one lock.
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
        fork._lock = self._lock
        return fork

    def join(self, fork: EventLog) -> None:
        with self._lock:
            self._file.write(fork._file.getvalue())
            self._file.flush()
            fork._file.close()  # frees the lines copied
            self.context = fork.context

    @staticmethod
    def read(source: str | Path | bytes, kinds: Collection[str] | None = None) -> list[dict]:
        """Every record of a log, read from the path ``source`` or given as
        its bytes, or with ``kinds`` only those of these kinds. The bytes are
        decoded as UTF-8 in one strict step (an undecodable byte anywhere
        raises ``UnicodeDecodeError``, a ``ValueError``) and cut into lines
        by ``str.splitlines``, so any line ending serves. ``append`` writes
        a record's kind first, so a line of another kind is skipped without
        being parsed; a line that does not start ``{"kind": "`` (a log not
        written by ``append``) is parsed to learn its kind. A parsed line
        that is not a JSON object with a string kind raises ``ValueError``."""
        records = []
        data = source if isinstance(source, bytes) else Path(source).read_bytes()
        for number, line in enumerate(data.decode().splitlines(), start=1):
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

    complete() asks, in the order given, the greedy continuation text of
    each prompt; score() takes prompts that each carry a ``continuation``
    and asks, in the same order, the total log-probability of each
    continuation under the model. Each sends its prompts at once as one
    request, with ``tasks``, one task index per prompt, and returns the
    request's ``PendingCompletion``, so the backend can carry other
    requests meanwhile. That one handle reads, retries and logs a request
    for every backend; a backend supplies only its transport and the
    ``descriptor`` whose ``max_retries`` and ``backoff_base`` rule the
    retries: ``_send(request)`` posts the request's body,
    ``_receive(request)`` returns its results in prompt order (completion
    texts or score totals) or raises a ``BackendError``, and
    ``_close(request)`` drops a request that will not be read. Only (text,
    log-probability, error) ever crosses this boundary. The two agents of
    an in-process dyad may share one backend.
    """

    descriptor: BackendDescriptor

    def complete(self, prompts: Sequence[Prompt], tasks: Sequence[int]) -> PendingCompletion:
        raise NotImplementedError

    def score(self, prompts: Sequence[Prompt], tasks: Sequence[int]) -> PendingCompletion:
        raise NotImplementedError


def _close_all(connections: list) -> None:
    for connection in connections:
        connection.close()


class HttpBackend(CompletionBackend):
    """Client for an OpenAI-style completion service, the transport under
    ``PendingCompletion``.

    Both request methods check every templated prompt against the context
    budget, then post them all at once as one list ``prompt``; a request
    with a prompt over the budget is not sent, and its read raises
    ContextOverflow. complete() asks for greedy continuations, score() for
    direct scoring (echo + logprobs with no new tokens). ``_send`` posts a
    request's body and ``_receive`` reads its reply, matching choices by
    ``index`` and summing each choice's continuation log-probabilities
    while the reply is parsed, so its token lists are never all held at
    once. Services that reject echo-scoring surface CapabilityUnsupported;
    a reply without one indexed choice per prompt, as from a service that
    rejects list prompts, is a MalformedServiceReply. A 5xx, 408 or 429
    reply is a TransportFailure, which the handle retries; any other 4xx is
    ServiceRefused: the same request would be refused again.

    Requests go out on keep-alive ``http.client`` connections, HTTPS when
    the endpoint's scheme says so, to the endpoint's path followed by
    ``/v1/completions``. Each request takes an idle connection from a pool,
    or opens one when none is idle, and gives it back once its reply is
    read; the pool keeps at most ``POOL_SIZE`` idle connections. An llm
    agent has at most five requests in flight at once: its guessing
    request, beside its listening and speaking requests and the two of a
    wrong prediction it discards. Its backend then opens at most five
    connections, the fifth only while guessing is still in flight, and
    closes one when five are given back. Calls may come from several
    threads at once. When the service has closed a connection
    while it was idle, the request is sent once more on a new one; that is
    not a retry. ``descriptor.timeout`` bounds each attempt at the whole
    list. A record carries the templated prompt text.
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

    def _send(self, request: PendingCompletion) -> None:
        """Posts ``request``'s body on a pooled connection, noted on the
        request with whether it had carried an earlier request and the
        send's error, which ``_receive`` raises again."""
        with self._pool_lock:
            connection = self._idle.pop() if self._idle else self._connect()
        request.connection = connection
        request.reused = connection.sock is not None
        request.error = None
        try:
            connection.request("POST", self._path, request.body, self._headers())
        except OSError as err:
            request.error = err

    def _close(self, request: PendingCompletion) -> None:
        request.connection.close()

    def _reply(self, request: PendingCompletion, object_hook: Callable[[dict], dict] | None) -> dict:
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
            if status >= 500 or status in (408, 429):
                raise TransportFailure(f"service error {status}")
            if status != 200:
                refused = ServiceRefused if status >= 400 else MalformedServiceReply
                raise refused(f"service returned {status}: {data[:200].decode(errors='replace')}")
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

    def _receive(self, request: PendingCompletion) -> list:
        """A completion's texts or a score's totals, in prompt order, parsed
        from the reply once its connection is back in the pool."""
        count = len(request.texts)
        summed: dict[int, float] = {}

        def sum_choice(obj: dict) -> dict:
            # the token lists go as soon as a choice is parsed: the two agents'
            # guessing replies, each several MB decoded, arrive together
            index = obj.get("index")
            if "logprobs" in obj and type(index) is int and 0 <= index < count:
                boundary = len(request.texts[index])
                summed[index] = self._continuation_logprob(obj.pop("logprobs"), boundary)
            return obj

        reply = self._reply(request, None if request.continuations is None else sum_choice)
        choices = self._choices(reply, count)
        if request.continuations is not None:
            if len(summed) < count:  # a choice without log-probabilities
                raise CapabilityUnsupported("service does not return echoed token log-probabilities")
            return [summed[i] for i in range(count)]
        try:
            texts = [choice["text"] for choice in choices]
        except (KeyError, TypeError) as err:
            raise MalformedServiceReply(f"missing completion text: {reply!r}") from err
        if not all(isinstance(text, str) for text in texts):
            raise MalformedServiceReply(f"completion text is not a string: {reply!r}")
        return texts

    def _give_back(self, connection) -> None:
        with self._pool_lock:
            if len(self._idle) < self.POOL_SIZE:
                self._idle.append(connection)
                return
        connection.close()

    def _sent(self, request: PendingCompletion, texts: Sequence[str],
              extra_tokens: int = 0) -> PendingCompletion:
        """``request`` sent, or left unsent when one of ``texts`` with
        ``extra_tokens`` is estimated over the context budget: its read
        then raises ContextOverflow."""
        budget = self.descriptor.context_budget_tokens
        for text in texts:
            needed = estimate_tokens(text) + extra_tokens
            if needed > budget:
                request.outcome = ContextOverflow(f"estimated {needed} tokens exceeds budget {budget}")
                return request
        return request.send()

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

    def complete(self, prompts: Sequence[Prompt], tasks: Sequence[int]) -> PendingCompletion:
        full_texts = [apply_chat_template(self.template, p) for p in prompts]
        payload = {
            "model": self.descriptor.model,
            "prompt": full_texts,
            "max_tokens": self.descriptor.max_output_tokens,
            "temperature": self.descriptor.temperature,
            "stop": list(COMPLETION_STOP_SEQUENCES),
        }
        request = PendingCompletion(self, json.dumps(payload).encode(), full_texts, tasks)
        return self._sent(request, full_texts, self.descriptor.max_output_tokens)

    def score(self, prompts: Sequence[Prompt], tasks: Sequence[int]) -> PendingCompletion:
        full_texts = []
        for prompt in prompts:
            if not prompt.continuation:
                raise ValueError("continuation must be non-empty")
            full_texts.append(apply_chat_template(self.template, prompt))
        payload = {
            "model": self.descriptor.model,
            "prompt": [text + p.continuation for text, p in zip(full_texts, prompts)],
            "max_tokens": 0,
            "temperature": self.descriptor.temperature,
            "echo": True,
            "logprobs": 0,
        }
        body, continuations = json.dumps(payload).encode(), [p.continuation for p in prompts]
        request = PendingCompletion(self, body, full_texts, tasks, continuations)
        return self._sent(request, payload["prompt"])

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
    """One request of a ``CompletionBackend``, a completion or (with
    ``continuations``) a score, as its ``call`` says: the body its
    backend's transport sends, the texts its records show, one per prompt,
    and their task indices; once sent, the attempt's monotonic start time
    and, once received, its ``outcome`` (the results or the
    ``BackendError`` its read raises) and arrival time. complete() and
    score() return it sent and unread, or unsent with a refusal for its
    outcome. Read it once, with read(event_log, kept=None) or
    discard(event_log), after peek() if wanted, or close() it unread. A
    request succeeds or fails as a whole, and fails at its read.

    read() appends a ``backend_call`` record per prompt to ``event_log``
    (with ``kept`` only for that prompt, the others' being
    ``backend_discarded``) and returns the results, or, when the request
    failed, appends one ``backend_failed`` record and raises its error. A
    transport failure or timeout is retried as a whole, the same body sent
    again up to ``descriptor.max_retries`` times: retry k waits
    ``backoff_base * 2**(k-1)`` and appends a ``backend_retry`` record
    first. Other errors are not retried. Each record carries its prompt's
    task index in place of the log's context ``task``, so a request that
    answers several tasks says which record is whose; its ``latency`` is
    the answering attempt's round trip, from its send to its reply's
    arrival, however much later the reply is read. The records of a score
    carry the text only where it differs from the previous record's; each
    keeps its ``prompt_sha``."""

    def __init__(self, backend: CompletionBackend, body, texts: list[str], tasks: Sequence[int],
                 continuations: list[str] | None = None):
        self._backend = backend
        self.body = body
        self.texts = texts
        self.tasks = tasks
        self.continuations = continuations
        self.call = "complete" if continuations is None else "score"
        self.outcome = None

    def send(self) -> PendingCompletion:
        """Sends the body through the backend's transport, forgetting the
        outcome of an earlier attempt."""
        self.outcome = None
        self.started = time.monotonic()
        self._backend._send(self)
        return self

    def _received(self) -> list:
        """The results of the attempt in flight, received at the first call
        only: a later one returns them, or raises their error, again."""
        if self.outcome is None:
            try:
                self.outcome = self._backend._receive(self)
            except BackendError as err:
                self.outcome = err
            self.arrived = time.monotonic()
        if isinstance(self.outcome, BackendError):
            raise self.outcome
        return self.outcome

    def _retried(self, event_log: EventLog) -> list:
        """The results, the body sent again after each transport failure or
        timeout the descriptor allows, each retry logged to ``event_log``."""
        descriptor = self._backend.descriptor
        attempt = 0
        while True:
            try:
                return self._received()
            except (TransportFailure, BackendTimeout) as err:
                attempt += 1
                if attempt > descriptor.max_retries:
                    raise
                event_log.append("backend_retry", attempt=attempt, error=str(err))
                sleep(descriptor.backoff_base * 2 ** (attempt - 1))
                self.send()

    def _log(self, event_log: EventLog, results: list, kept: int | None = None,
             discarded: bool = False) -> None:
        """A ``backend_call`` record per prompt, or with ``kept`` for that
        prompt only, every other (and with ``discarded`` every one) getting
        a ``backend_discarded`` record without its text."""
        scoring = self.continuations is not None
        previous = None
        for position, (text, result, task) in enumerate(zip(self.texts, results, self.tasks)):
            dropped = discarded or (kept is not None and position != kept)
            shown = {} if dropped or (scoring and text == previous) else {"prompt": text}
            event_log.append(
                "backend_discarded" if dropped else "backend_call",
                call=self.call,
                prompt_sha=prompt_digest(text),
                **shown,
                result=result,
                latency=self.arrived - self.started,
                timestamp=time.time(),
                **({"continuation": self.continuations[position]} if scoring else {}),
                task=task,
            )
            previous = text

    def read(self, event_log: EventLog, kept: int | None = None) -> list:
        """The results, retried and logged as the class says."""
        try:
            results = self._retried(event_log)
        except BackendError as err:
            event_log.append(
                "backend_failed", call=self.call, error=f"{type(err).__name__}: {err}", tasks=list(self.tasks)
            )
            raise
        self._log(event_log, results, kept)
        return results

    def peek(self) -> list | None:
        """What read() would return, received now from the attempt in flight
        and logged by nothing; None when that attempt failed. A later read()
        or discard() starts from this attempt, as it would have."""
        try:
            return self._received()
        except BackendError:
            return None

    def close(self) -> None:
        """Drops a request that will not be read, through the transport."""
        if self.outcome is None:
            self._backend._close(self)
            self.outcome = TransportFailure("closed unread")

    def discard(self, event_log: EventLog) -> None:
        """Reads the reply as peek() does, once and without a retry, and
        logs every prompt as ``backend_discarded``, with a ``result`` of
        None when no usable reply came; a request left unsent over the
        budget logs nothing, as nothing went out."""
        results = self.peek()
        if not isinstance(self.outcome, ContextOverflow):
            self._log(event_log, results or [None] * len(self.texts), discarded=True)
