"""Test doubles: scripted backends, test-only agents, and independent oracles."""

import hashlib
import itertools
import math
import re
import threading
import time
from functools import lru_cache
from typing import Callable, Sequence

from refgame.agents import CompositionalOracle, LookupOracle, _argmin, _Oracle
from refgame.backend import (
    BackendDescriptor,
    CapabilityUnsupported,
    CompletionBackend,
    ContextOverflow,
    EventLog,
    HttpBackend,
    MalformedServiceReply,
    TransportFailure,
)
from refgame.domain import (
    Stimulus,
    VocabularyEntry,
    VocabularyFormatError,
    enumerate_stimuli,
    parse_vocab_line,
)
from refgame.metrics import normalized_levenshtein, semantic_distance, semantic_similarity
from refgame.prompts import Prompt, PromptError, PromptTask

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


def recursive_levenshtein(a: str, b: str) -> int:
    """Plain-recursion edit distance, the independent oracle for the DP path."""

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


# closed after each test by conftest's _close_helper_event_logs
OPEN_EVENT_LOGS: list[EventLog] = []


def http_backend(endpoint: str, log_dir, **settings) -> HttpBackend:
    """An HttpBackend for the test stub service, logging to
    ``log_dir/events.jsonl``; ``settings`` override descriptor fields."""
    descriptor = BackendDescriptor(
        **{"endpoint": endpoint, "model": "test-model", "timeout": 5.0, "template": "plain", **settings}
    )
    event_log = EventLog(log_dir / "events.jsonl")
    OPEN_EVENT_LOGS.append(event_log)
    return HttpBackend(descriptor, event_log=event_log)


def logged(log: EventLog, kind: str) -> list[dict]:
    """The records of ``kind`` in the log's ``events.jsonl``."""
    return [r for r in EventLog.read(log.path) if r["kind"] == kind]


class ScriptedBackend(CompletionBackend):
    """Deterministic in-process backend driven by callables.

    ``completions`` maps a Prompt to its continuation text; ``scores`` maps a
    Prompt, which carries its continuation, to its log-probability. Without
    ``completions`` every completion is a MalformedServiceReply; without
    ``scores`` scoring is CapabilityUnsupported. A callable that raises a
    BackendError fails the whole call, as a service would. ``requests``
    counts the calls, failed ones included; the two agents of a dyad may
    share one backend and call it from two threads at once, so it counts
    under a lock.
    """

    def __init__(
        self,
        completions: Callable[[Prompt], str] | None = None,
        scores: Callable[[Prompt], float] | None = None,
        event_log: EventLog | None = None,
    ):
        self.completions = completions
        self.scores = scores
        self.event_log = event_log
        self.requests = 0
        self._lock = threading.Lock()

    def _count(self) -> None:
        with self._lock:
            self.requests += 1

    def complete(self, prompts: Sequence[Prompt], tasks: Sequence[int] | None = None) -> list[str]:
        started = time.monotonic()
        self._count()
        if self.completions is None:
            raise MalformedServiceReply("scripted backend has no completions")
        texts = [self.completions(p) for p in prompts]
        for prompt, text, task in zip(prompts, texts, self._tasks(prompts, tasks)):
            self._log("complete", prompt.user_text(), text, started, task)
        return texts

    def _scripted_score(self, prompt: Prompt) -> float:
        if self.scores is None:
            raise CapabilityUnsupported("scripted backend has no scores")
        value = self.scores(prompt)
        if value > 0:
            raise MalformedServiceReply(f"log-probability must be <= 0, got {value}")
        return float(value)

    def score(self, prompts: Sequence[Prompt], tasks: Sequence[int] | None = None) -> list[float]:
        started = time.monotonic()
        self._count()
        values = [self._scripted_score(p) for p in prompts]
        for prompt, value, task in zip(prompts, values, self._tasks(prompts, tasks)):
            self._log("score", prompt.user_text(), value, started, task,
                      continuation=prompt.continuation)
        return values


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
    """A lookup oracle whose ``breaks_at``-th list of ``task`` tasks,
    batched or asked alone, raises ``RuntimeError("agent <id> broke")``
    before it draws a task: an agent fault that aborts the run."""

    def __init__(self, agent_id: str, task: PromptTask, breaks_at: int = 3):
        super().__init__(agent_id)
        self.task = task
        self.breaks_at = breaks_at
        self.calls = 0

    def _break(self, task: PromptTask) -> None:
        if task is self.task:
            self.calls += 1
            if self.calls == self.breaks_at:
                raise RuntimeError(f"agent {self.agent_id} broke")

    def produce_signals(self, items, task, rng):
        self._break(task)
        return super().produce_signals(items, task, rng)

    def choose_many(self, items, task, rng):
        self._break(task)
        return super().choose_many(items, task, rng)


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
                key=lambda e: 3 - sum(x == y for x, y in zip(e.stimulus.attributes(), stimulus.attributes())),
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
