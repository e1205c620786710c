"""Test doubles: a scripted backend, test-only agents, and independent oracles."""

import hashlib
import importlib.util
import itertools
import json
import math
import re
import threading
import urllib.request
from contextlib import contextmanager
from dataclasses import make_dataclass
from functools import lru_cache
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Sequence

import yaml

from refgame.agents import CompositionalOracle, LLMAgent, LookupOracle, _argmin, _Oracle
from refgame.backend import (
    BackendDescriptor,
    CapabilityUnsupported,
    CompletionBackend,
    ContextOverflow,
    EventLog,
    HttpBackend,
    MalformedServiceReply,
    PendingCompletion,
    TransportFailure,
)
from refgame.domain import (
    AMOUNTS,
    COLOURS,
    PER_VALUE_TRAIN_COUNT,
    SHAPES,
    SPLIT_ATTEMPT_CAP,
    TRAIN_SIZE,
    DomainError,
    Stimulus,
    TrainTestSplit,
    VocabularyEntry,
    VocabularyFormatError,
    enumerate_stimuli,
    parse_vocab_line,
)
from refgame.metrics import normalized_levenshtein, semantic_distance, semantic_similarity
from refgame.prompts import (
    LISTENING_INSTRUCTION,
    SPEAKING_INSTRUCTION,
    Prompt,
    PromptError,
    PromptTask,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the keys of an llm run's records that hold wall-clock time, left out wherever records are compared
WALL_CLOCK_KEYS = ("latency", "timestamp")
# the pure-Python YAML loader, and libyaml's when it is installed, which
# refgame.config then uses: tests that read config files run under each
YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

_LISTENER_LINE_RE = re.compile(
    r"^\{'word':'(?P<word>[^']*)','shape':(?P<shape>[123]),"
    r"'colour':'(?P<colour>blue|green|orange)','amount':(?P<amount>[123]),"
    r"'communicativeSuccess':(?P<success>[01])\}$"
)


def parse_vocabulary_line(line: str) -> VocabularyEntry:
    """Invert render_entry / render_listener_entry for round-trip checks."""
    match = _LISTENER_LINE_RE.match(line)
    if match:
        stimulus = Stimulus(int(match["shape"]), match["colour"], int(match["amount"]))
        return VocabularyEntry(stimulus, match["word"], int(match["success"]))
    try:
        return parse_vocab_line(line)[0]
    except VocabularyFormatError as err:
        raise PromptError(f"unparseable vocabulary line: {line!r}") from err


# Stimulus as it was before it became a tuple, a frozen and ordered
# dataclass: the reference for its equality, hash, order and repr
DataclassStimulus = make_dataclass(
    "Stimulus", [("shape", int), ("colour", str), ("amount", int)], frozen=True, order=True
)


def dp_levenshtein(a: str, b: str) -> int:
    """The O(m·n) dynamic-programming edit distance that ``metrics.levenshtein``
    computed before it became bit-parallel: the reference it must equal."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


def recursive_levenshtein(a: str, b: str) -> int:
    """Plain-recursion edit distance, an oracle independent of both kernels."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def exhaustive_mantel_oracle(pairs):
    """Brute-force Mantel enumeration independent of the library path."""
    stimuli = [s for s, _ in pairs]
    signals = [w for _, w in pairs]
    n = len(pairs)
    sem = [[semantic_distance(a, b) for b in stimuli] for a in stimuli]
    sig = [[normalized_levenshtein(a, b) for b in signals] for a in signals]

    def upper(matrix, perm):
        return [matrix[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n)]

    def plain_pearson(x, y):
        mx, my = sum(x) / len(x), sum(y) / len(y)
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
        vx = sum((a - mx) ** 2 for a in x)
        vy = sum((b - my) ** 2 for b in y)
        return cov / math.sqrt(vx * vy)

    base = upper(sem, list(range(n)))
    observed = plain_pearson(base, upper(sig, list(range(n))))
    rs = [plain_pearson(base, upper(sig, list(p))) for p in itertools.permutations(range(n))]
    mean = sum(rs) / len(rs)
    std = math.sqrt(sum((r - mean) ** 2 for r in rs) / len(rs))
    z = (observed - mean) / std
    p = sum(1 for r in rs if r >= observed - 1e-12) / len(rs)
    return observed, z, p, mean, std


def stimulus_sampling_training_set(rng) -> TrainTestSplit:
    """The balanced split as first written: rejection sampling over
    rng.sample of the stimuli themselves, each subset's balance counted
    value by value."""
    def is_balanced(train):
        for values, key in (
            (SHAPES, lambda s: s.shape),
            (COLOURS, lambda s: s.colour),
            (AMOUNTS, lambda s: s.amount),
        ):
            for value in values:
                if sum(1 for s in train if key(s) == value) != PER_VALUE_TRAIN_COUNT:
                    return False
        return True

    space = enumerate_stimuli()
    for _ in range(SPLIT_ATTEMPT_CAP):
        train = rng.sample(space, TRAIN_SIZE)
        if is_balanced(train):
            chosen = set(train)
            test = tuple(s for s in space if s not in chosen)
            return TrainTestSplit(train=tuple(train), test=test)
    raise DomainError(f"no balanced split found in {SPLIT_ATTEMPT_CAP} attempts")


def http_backend(endpoint: str, **settings) -> HttpBackend:
    """An HttpBackend for the test stub service; ``settings`` override
    descriptor fields."""
    return HttpBackend(BackendDescriptor(
        **{"endpoint": endpoint, "model": "test-model", "timeout": 5.0, "template": "plain", **settings}
    ))


def logged(log: EventLog, kind: str) -> list[dict]:
    """The records of ``kind`` in the log's ``events.jsonl``."""
    return [r for r in EventLog.read(log.path) if r["kind"] == kind]


class ScriptedBackend(CompletionBackend):
    """Deterministic in-process backend driven by callables: a transport
    under the client's own ``PendingCompletion``, which reads, retries and
    logs its requests as it does ``HttpBackend``'s, at no backoff; a
    record's text is its prompt's ``user_text()``.

    ``completions`` maps a Prompt to its continuation text; ``scores`` maps a
    Prompt, which carries its continuation, to its log-probability. Without
    ``completions`` every completion is a MalformedServiceReply; without
    ``scores`` scoring is CapabilityUnsupported. A callable that raises a
    BackendError fails the whole request, as a service would; a
    ContextOverflow stands for a request refused unsent.

    ``requests`` counts the requests the handle received (a closed one never
    is), failed ones included; the two agents of a dyad may share one
    backend, and a test may read from several threads at once, so it counts
    under a lock. ``ahead`` lists each read of a completion request read
    with ``kept`` or discarded (a speaking request sent ahead) as (round,
    task, whether its prompts were all equal, "kept" or "discarded"),
    ``listened`` each read of a score request as (round, task, "kept" or
    "discarded"), and ``timeline``, which a test may share with an event
    log, each send (a retry's too) as ("sent", call, task), each read or
    discard as ("read", call, task, block, agent), the last two from the
    log's context, and each request closed unread as ("closed", call,
    task)."""

    def __init__(self, completions: Callable[[Prompt], str] | None = None,
                 scores: Callable[[Prompt], float] | None = None, max_retries: int = 0):
        self.completions = completions
        self.scores = scores
        self.descriptor = BackendDescriptor(max_retries=max_retries, backoff_base=0.0)
        self.requests = 0
        self._lock = threading.Lock()
        self.ahead: list[tuple] = []
        self.listened: list[tuple] = []
        self.timeline: list[tuple] = []

    def complete(self, prompts: Sequence[Prompt], tasks: Sequence[int]) -> PendingCompletion:
        return _NotedRequest(self, list(prompts), [p.user_text() for p in prompts], list(tasks)).send()

    def score(self, prompts: Sequence[Prompt], tasks: Sequence[int]) -> PendingCompletion:
        texts = [p.user_text() for p in prompts]
        return _NotedRequest(self, list(prompts), texts, list(tasks), [p.continuation for p in prompts]).send()

    def _send(self, request: PendingCompletion) -> None:
        self.timeline.append(("sent", request.call, request.tasks[0]))

    def _receive(self, request: PendingCompletion) -> list:
        with self._lock:
            self.requests += 1
        if request.call == "complete":
            if self.completions is None:
                raise MalformedServiceReply("scripted backend has no completions")
            return [self.completions(p) for p in request.body]
        if self.scores is None:
            raise CapabilityUnsupported("scripted backend has no scores")
        values = []
        for prompt in request.body:
            value = self.scores(prompt)
            if value > 0:
                raise MalformedServiceReply(f"log-probability must be <= 0, got {value}")
            values.append(float(value))
        return values

    def _close(self, request: PendingCompletion) -> None:
        self.timeline.append(("closed", request.call, request.tasks[0]))


class _NotedRequest(PendingCompletion):
    """The client's handle, noting each read and discard in its
    ``ScriptedBackend``'s ``timeline``, ``ahead`` and ``listened``."""

    def _note(self, event_log: EventLog, how: str, ahead: bool) -> None:
        backend = self._backend
        context, task = event_log.context, self.tasks[0]
        backend.timeline.append(("read", self.call, task, context.get("block"), context.get("agent")))
        if self.call == "score":
            backend.listened.append((context.get("round"), task, how))
        elif ahead:
            equal = all(prompt == self.body[0] for prompt in self.body)
            backend.ahead.append((context.get("round"), task, equal, how))

    def read(self, event_log: EventLog, kept: int | None = None) -> list:
        self._note(event_log, "kept", ahead=kept is not None)
        return super().read(event_log, kept)

    def discard(self, event_log: EventLog) -> None:
        self._note(event_log, "discarded", ahead=True)
        super().discard(event_log)


class InTurnAgent(LLMAgent):
    """An ``LLMAgent`` that does not speak ahead: the engine runs its
    communication tasks in turn, the schedule that speaking ahead must
    reproduce record for record."""

    speaks_ahead = False


def _context_entries(prompt: Prompt) -> list[VocabularyEntry]:
    return [parse_vocabulary_line(line) for line in prompt.vocabulary_lines]


def _retrieve(prompt: Prompt) -> str:
    """The word of the context entry closest in meaning to the stem's stimulus."""
    match = re.match(r"\{'shape':(\d),'colour':'(\w+)','amount':(\d),'word':'", prompt.stem)
    assert match, prompt.stem
    target = Stimulus(int(match[1]), match[2], int(match[3]))
    best = max(_context_entries(prompt), key=lambda e: semantic_similarity(e.stimulus, target))
    return best.signal + "'}"


def _similarity(prompt: Prompt) -> float:
    """Minus the edit distance between the prompt's continuation and the
    answer retrieval gives."""
    if prompt.stem.endswith("'word':'"):
        # word prefilled: prefer the stored word for the stem's stimulus
        expected = _retrieve(prompt)
    else:
        # meaning prefilled: prefer the meaning whose stored word matches
        match = re.match(r"\{'word':'([^']*)','shape':$", prompt.stem)
        assert match, prompt.stem
        heard = match[1]
        s = min(_context_entries(prompt), key=lambda e: normalized_levenshtein(e.signal, heard)).stimulus
        expected = f"{s.shape},'colour':'{s.colour}','amount':{s.amount}}}"
    return -normalized_levenshtein(prompt.continuation, expected)


def in_context_learner() -> ScriptedBackend:
    """A backend that answers purely from the rendered prompt text.

    Behaves like an ideal in-context learner: completions retrieve the word
    of the context entry closest in meaning to the stem's attributes, and
    continuation scores reward similarity to the retrieved answer. Exercises
    the whole prompt/agent/engine stack without a model.
    """
    return ScriptedBackend(completions=_retrieve, scores=_similarity)


SERVICE_WORDS = ("gali", "nemo", "tupa", "sira", "hoke", "mupi")


def service(seed: int, placement: str, doomed_stem: str = "") -> ScriptedBackend:
    """A scripted service whose replies and failures depend only on the text
    of the prompt (and on ``seed``, which varies the service per example).

    ``placement`` says where it fails: ``none``; ``unparseable``, an
    unusable reply for about one prompt in 7 (a completion that does not
    parse, or a positive score, which fails the call); ``call-error``, a
    ``TransportFailure`` of the whole call for about one prompt in 17; and
    ``always-overflow``/``always-unparseable``, every prompt whose stem is
    ``doomed_stem``, so that stimulus's task exhausts its attempts."""

    def digest(prompt) -> int:
        text = f"{seed}|{prompt.user_text()}|{prompt.continuation}"
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")

    def fail(prompt) -> bool:
        """True when this prompt's reply is unusable; raises when it fails the call."""
        h = digest(prompt)
        if placement == "call-error" and h % 17 == 0:
            raise TransportFailure("service error 503")
        if prompt.stem == doomed_stem:
            if placement == "always-overflow":
                raise ContextOverflow("estimated 9000 tokens exceeds budget 8192")
            return placement == "always-unparseable"
        return placement == "unparseable" and h % 7 == 0

    def complete(prompt) -> str:
        return "```" if fail(prompt) else SERVICE_WORDS[digest(prompt) % len(SERVICE_WORDS)] + "'}"

    def score(prompt) -> float:
        # a positive log-probability is a malformed reply, which fails the call
        return 0.5 if fail(prompt) else -float(digest(prompt) % 1000) / 100.0

    return ScriptedBackend(completions=complete, scores=score)


class BreakingOracle(LookupOracle):
    """A lookup oracle that answers its first ``breaks_at - 1`` tasks of
    ``task``, batched or asked alone, and ends a list before the next one;
    asked a list after those, it raises ``RuntimeError("agent <id> broke")``
    before it draws a task: an agent fault that aborts the run."""

    def __init__(self, agent_id: str, task: PromptTask, breaks_at: int = 3):
        super().__init__(agent_id)
        self.task = task
        self.breaks_at = breaks_at
        self.answered = 0

    def _break(self, items, task: PromptTask):
        if task is not self.task:
            return items
        if self.answered == self.breaks_at - 1:
            raise RuntimeError(f"agent {self.agent_id} broke")
        return self._counted(itertools.islice(items, self.breaks_at - 1 - self.answered))

    def _counted(self, items):
        for item in items:
            self.answered += 1
            yield item

    def produce_signals(self, items, task, rng):
        return super().produce_signals(self._break(items, task), task, rng)

    def choose_many(self, items, task, rng):
        return super().choose_many(self._break(items, task), task, rng)


class TruncatingOracle(_Oracle):
    """Lookup-style learner whose every production is clipped to 4 characters.

    A transmitted language therefore converges to short signals, which this
    agent then reproduces exactly: generation 1 onward is easier to learn
    than generation 0.
    """

    MAX_LEN = 4

    def produce_signal(self, stimulus, task, rng):
        assert self.vocabulary is not None
        if stimulus in self.vocabulary:
            stored = self.vocabulary.signal_for(stimulus)
        else:
            ordered = [e for e in self.vocabulary]
            stored = min(
                ordered,
                key=lambda e: 3 - sum(x == y for x, y in zip(e.stimulus, stimulus)),
            ).signal
        return stored[: self.MAX_LEN]


class RepairOracle(_Oracle):
    """Regularises a growing prefix of the stimulus space round by round.

    Speaking productions start from the stored (holistic) vocabulary and
    switch to compositional rule signals for the first ``repair_step`` more
    stimuli each communication round; the rounds are inferred from the
    production count (each agent speaks all 15 training stimuli once per
    round). Labelling reproduces the stored signal exactly.
    """

    def __init__(self, agent_id: str, repair_step: int = 3, rules: CompositionalOracle | None = None):
        super().__init__(agent_id)
        self.repair_step = repair_step
        self.rules = rules or CompositionalOracle(agent_id + "-rules")
        self.speak_count = 0

    def _repaired(self) -> set[Stimulus]:
        train = set(self.vocabulary.stimuli())
        ordered = [s for s in enumerate_stimuli() if s in train]
        current_round = self.speak_count // len(ordered)  # 0-based
        return set(ordered[: self.repair_step * (current_round + 1)])

    def produce_signal(self, stimulus, task, rng):
        assert self.vocabulary is not None
        if task is PromptTask.LABELLING:
            return self.vocabulary.signal_for(stimulus)
        if stimulus in self.vocabulary and stimulus not in self._repaired():
            signal = self.vocabulary.signal_for(stimulus)
        else:
            signal = self.rules.rule_signal(stimulus)
        self.speak_count += 1
        return signal

    def _expected(self, stimulus, rng):
        if stimulus in self.vocabulary and stimulus not in self._repaired():
            return self.vocabulary.signal_for(stimulus)
        return self.rules.rule_signal(stimulus)

    def choose(self, probe, candidates, task, rng, exclude=None):
        if isinstance(probe, Stimulus):
            expected = self._expected(probe, rng)
            return _argmin([normalized_levenshtein(expected, c) for c in candidates])
        expected = [self._expected(c, rng) for c in candidates]
        return _argmin([normalized_levenshtein(probe, e) for e in expected])


def _load_perfbench_stub():
    """``perfbench/stub.py`` as a module, under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_stub", PERFBENCH / "stub.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perfbench_stub = _load_perfbench_stub()


def _sha(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _faulty_handler(base: type, counters) -> type:
    """``base``, the benchmark stub's handler, with faults chosen by the text
    of the templated prompt, as ``service`` chooses them:

    * a score request holding a listener prompt whose digest is 0 modulo
      240 is answered with 503, however often it is sent, so that listening
      attempt fails once the backend's retries run out;
    * a speaking completion is answered with an unparseable ```` ``` ````
      when the digest of its text is 0 modulo 60 (the next attempt, shuffled
      anew, parses), and on every attempt when the digest of its sorted
      lines, the same for every shuffle, is 0 modulo 97.

    Every other prompt gets the stub's own reply."""

    def fails(prompt: str) -> bool:
        return LISTENING_INSTRUCTION in prompt and _sha(prompt) % 240 == 0

    def unparseable(prompt: str) -> bool:
        if SPEAKING_INSTRUCTION not in prompt:
            return False
        return _sha(prompt) % 60 == 0 or _sha("\n".join(sorted(prompt.splitlines()))) % 97 == 0

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompts = body["prompt"]
        counters.record(prompts, 0.0)
        if body.get("echo"):
            if any(fails(p) for p in prompts):
                self._reply(503, {"error": "scripted failure"})
                return
            choices = [perfbench_stub.echo_choice(p, i) for i, p in enumerate(prompts)]
        else:
            choices = [perfbench_stub.completion_choice(p, i) for i, p in enumerate(prompts)]
            for choice, prompt in zip(choices, prompts):
                if unparseable(prompt):
                    choice["text"] = "```"
        self._reply(200, {"object": "text_completion", "choices": choices})

    return type("FaultyHandler", (base,), {"do_POST": do_POST})


@contextmanager
def wire_service(faults: bool = False, latency: tuple[float, float] = (0.0, 0.0)):
    """``perfbench/stub.py``'s service in this process, with ``latency``
    (seconds per request and per prompt) injected into each reply, and with
    ``faults`` those of ``_faulty_handler``, which answers at once; yields
    its endpoint, whose ``/stats`` counts its connections and requests."""
    counters = perfbench_stub.Counters()
    handler = perfbench_stub.make_handler(counters, *latency)
    if faults:
        handler = _faulty_handler(handler, counters)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def service_stats(endpoint: str) -> dict:
    """The ``/stats`` counters of a ``wire_service``; ``connections`` leaves
    out the one this request opens."""
    with urllib.request.urlopen(f"{endpoint}/stats", timeout=5) as reply:
        stats = json.loads(reply.read())
    stats["connections"] -= 1
    return stats
