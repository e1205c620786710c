"""Test-only agents, backends, and independent oracles."""

import re
from functools import lru_cache

from refgame.agents import Agent, CompositionalOracle, _argmin
from refgame.backend import BackendDescriptor, EventLog, HttpBackend
from refgame.domain import (
    Stimulus,
    VocabularyEntry,
    VocabularyFormatError,
    enumerate_stimuli,
    parse_vocab_line,
)
from refgame.metrics import normalized_levenshtein, semantic_similarity
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


class InContextLearnerBackend:
    """Scripted backend that answers purely from the rendered prompt text.

    Behaves like an ideal in-context learner: completions retrieve the word
    of the context entry closest in meaning to the stem's attributes, and
    continuation scores reward similarity to the retrieved answer. Exercises
    the whole prompt/agent/engine stack without a model.
    """

    event_log = None

    @staticmethod
    def _entries(prompt: Prompt):
        return [parse_vocabulary_line(line) for line in prompt.vocabulary_lines]

    @staticmethod
    def _stem_stimulus(prompt: Prompt) -> Stimulus:
        match = re.match(
            r"\{'shape':(\d),'colour':'(\w+)','amount':(\d),'word':'", prompt.stem
        )
        assert match, prompt.stem
        return Stimulus(int(match[1]), match[2], int(match[3]))

    @staticmethod
    def _stem_word(prompt: Prompt) -> str:
        import re

        match = re.match(r"\{'word':'([^']*)','shape':$", prompt.stem)
        assert match, prompt.stem
        return match[1]

    def complete(self, prompts: list[Prompt], tasks=None) -> list[str]:
        return [self._complete(p) for p in prompts]

    def _complete(self, prompt: Prompt) -> str:
        entries = self._entries(prompt)
        target = self._stem_stimulus(prompt)
        best = max(entries, key=lambda e: semantic_similarity(e.stimulus, target))
        return best.signal + "'}"

    def score(self, prompts: list[Prompt], tasks=None) -> list[float]:
        return [self._score(p) for p in prompts]

    def _score(self, prompt: Prompt) -> float:
        entries = self._entries(prompt)
        if prompt.stem.endswith("'word':'"):
            # word prefilled: prefer the stored word for the stem's stimulus
            expected = self._complete(prompt)
        else:
            # meaning prefilled: prefer the meaning whose stored word matches
            heard = self._stem_word(prompt)
            best = min(
                entries, key=lambda e: normalized_levenshtein(e.signal, heard)
            )
            s = best.stimulus
            expected = f"{s.shape},'colour':'{s.colour}','amount':{s.amount}}}"
        return -normalized_levenshtein(prompt.continuation, expected)


class TruncatingOracle(Agent):
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

    def choose(self, probe, candidates, task, rng, exclude=None):
        assert self.vocabulary is not None
        if isinstance(probe, Stimulus):
            expected = self.produce_signal(probe, task, rng)
            return _argmin([normalized_levenshtein(expected, c) for c in candidates])
        expected = [self.produce_signal(c, task, rng) for c in candidates]
        return _argmin([normalized_levenshtein(probe, e) for e in expected])


class RepairOracle(Agent):
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
