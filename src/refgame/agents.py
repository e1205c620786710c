"""Agents: the task contract, deterministic oracles, and the model-backed agent.

An agent owns exactly one vocabulary at a time and is stateless between
tasks otherwise. Oracles bypass prompt construction and apply their rule
directly; the model-backed agent renders prompts and talks to a backend.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Sequence

from . import prompts
from .backend import BackendError, CompletionBackend, EventLog, ServiceRefused
from .domain import Signal, Stimulus, Vocabulary, enumerate_stimuli
from .metrics import normalized_levenshtein, semantic_distance
from .prompts import PromptTask, UnparseableResponseError


class Agent:
    """Base contract: answer a list of tasks of one kind.

    ``produce_signals`` takes ``(task index, stimulus)`` items, whose answers
    are signals; ``choose_many`` takes ``(task index, probe, candidates,
    exclude)`` items, whose answers are candidate positions. The probe is a
    stimulus with signal candidates (guessing block) or a signal with
    stimulus candidates (listening); ``exclude`` names the entry the prompt
    context must omit, which only the engine knows for listening tasks.
    Both read the whole list, making its draws, and return an unsent
    ``Reply``, which gives the answers of the leading tasks answered (the
    engine asks every later task alone) and logs the requests when read.

    An agent whose ``speaks_ahead`` is true also offers ``speak_ahead`` (see
    ``LLMAgent``), with which the engine overlaps listening with the next
    speaking task, and with the next interaction's listening on a prediction.
    """

    speaks_ahead = False

    def __init__(self, agent_id: str):
        self.agent_id = agent_id
        self.vocabulary: Vocabulary | None = None

    def set_vocabulary(self, vocab: Vocabulary) -> None:
        self.vocabulary = vocab

    def produce_signals(self, items, task: PromptTask, rng: Random) -> Reply:
        raise NotImplementedError

    def choose_many(self, items, task: PromptTask, rng: Random) -> Reply:
        raise NotImplementedError

    def extrapolated(self, stimulus: Stimulus) -> bool:
        """True when the last production for this stimulus fell outside the
        agent's stored mappings (oracle nearest-neighbour fallback)."""
        return False


# min and max keep the first least or greatest value; a NaN is kept only when first
def _argmin(values: Sequence[float]) -> int:
    return min(range(len(values)), key=values.__getitem__)


def _argmax(values: Sequence[float]) -> int:
    return max(range(len(values)), key=values.__getitem__)


def _nearest_vocab_signal(vocab: Vocabulary, stimulus: Stimulus) -> Signal:
    """Signal of the semantically closest stored stimulus; ties resolve to the
    first in canonical stimulus order."""
    ordered = [s for s in enumerate_stimuli() if s in vocab]
    return vocab.signal_for(min(ordered, key=lambda s: semantic_distance(stimulus, s)))


class _Oracle(Agent):
    """An agent that applies its production rule directly, through
    ``produce_signal`` and ``choose``, to every task of a list as it reads
    it: the engine draws a task only when the oracle reads it, so the task
    draws and the oracle's own take turns as they do task by task. A choice
    takes the candidate closest, by edit distance, to the oracle's own
    production."""

    def produce_signals(self, items, task, rng) -> Reply:
        return Reply.held([self.produce_signal(stimulus, task, rng) for _, stimulus in items])

    def choose_many(self, items, task, rng) -> Reply:
        return Reply.held([
            self.choose(probe, candidates, task, rng, exclude)
            for _, probe, candidates, exclude in items
        ])

    def choose(self, probe, candidates, task, rng, exclude=None) -> int:
        if isinstance(probe, Stimulus):  # guessing: candidates are signals
            return _closest(self.produce_signal(probe, task, rng), candidates)
        # listening: candidates are stimuli; compare the heard signal with the
        # signals this agent would produce for each candidate
        return _closest(probe, [self.produce_signal(c, task, rng) for c in candidates])


def _closest(signal: Signal, others: Sequence[Signal]) -> int:
    """Position of the first of ``others`` at the least normalized edit
    distance from ``signal``. An equal signal is at distance 0, the least
    there is, so the first equal one is that position."""
    if signal in others:
        return others.index(signal)
    return _argmin([normalized_levenshtein(signal, o) for o in others])


class LookupOracle(_Oracle):
    """Reproduces its stored vocabulary exactly.

    Unseen stimuli fall back to the nearest semantic neighbour (ties broken
    by canonical stimulus order); such productions are flagged as
    extrapolation. Choices pick the candidate matching the stored mapping,
    falling back to minimal signal edit distance.
    """

    def produce_signal(self, stimulus: Stimulus, task: PromptTask, rng: Random) -> Signal:
        assert self.vocabulary is not None, "agent has no vocabulary"
        if stimulus in self.vocabulary:
            return self.vocabulary.signal_for(stimulus)
        return _nearest_vocab_signal(self.vocabulary, stimulus)

    def extrapolated(self, stimulus: Stimulus) -> bool:
        return self.vocabulary is not None and stimulus not in self.vocabulary


class CompositionalOracle(_Oracle):
    """Builds signals by concatenating per-attribute syllables, ignoring its
    vocabulary entirely; the fully rule-governed reference agent. The
    syllables are the class's SHAPE, COLOUR and AMOUNT tables."""

    SHAPE = {1: "ga", 2: "he", 3: "ki"}
    COLOUR = {"blue": "lo", "green": "mu", "orange": "na"}
    AMOUNT = {1: "pa", 2: "pe", 3: "pi"}

    def rule_signal(self, stimulus: Stimulus) -> Signal:
        return (
            self.SHAPE[stimulus.shape]
            + self.COLOUR[stimulus.colour]
            + self.AMOUNT[stimulus.amount]
        )

    def produce_signal(self, stimulus, task, rng) -> Signal:
        return self.rule_signal(stimulus)


class RandomChooser(LookupOracle):
    """Produces signals like the lookup oracle but chooses uniformly at
    random; the chance baseline for candidate discrimination."""

    def choose(self, probe, candidates, task, rng, exclude=None) -> int:
        return rng.randrange(len(candidates))


class LLMAgent(Agent):
    """Prompt-driven agent over a completion backend.

    Both list methods build every task's prompts in task order as one
    request, which their ``Reply`` sends. A production renders the task's
    prompt and parses the greedy completion; a choice scores all candidate
    continuations and takes the argmax of total log-probability, ties broken
    by lowest position in the shuffled candidate order. The answers stop at
    the first reply that does not parse, and are none when the request fails.

    The agent speaks ahead: speak_ahead() builds one speaking task's prompt
    over each of several vocabularies, as one request. The engine keeps at
    most five of an agent's requests in flight: its guessing request, beside
    its listening and next speaking requests and the two it is discarding.
    """

    speaks_ahead = True

    def __init__(self, agent_id: str, backend: CompletionBackend):
        super().__init__(agent_id)
        self.backend = backend

    def _build_production_prompt(self, stimulus: Stimulus, task: PromptTask, rng: Random):
        assert self.vocabulary is not None
        if task is PromptTask.LABELLING:
            return prompts.build_labelling_prompt(self.vocabulary, stimulus, rng)
        return prompts.build_speaker_prompt(self.vocabulary, stimulus, rng)

    def _candidate_prompts(self, probe, candidates, task, rng, exclude):
        assert self.vocabulary is not None
        # one shared shuffle per task, from its own rng seeded by one draw:
        # the candidate prompts differ only in the prefilled continuation
        fork = Random(rng.getrandbits(64))
        if task is PromptTask.GUESSING:
            return prompts.build_guessing_prompt(self.vocabulary, probe, candidates, fork)
        return prompts.build_listener_prompt(self.vocabulary, probe, candidates, fork, exclude=exclude)

    def produce_signals(self, items, task, rng) -> Reply:
        tasks, built = [], []
        for task_index, stimulus in items:
            tasks.append(task_index)
            built.append(self._build_production_prompt(stimulus, task, rng))
        return Reply(lambda: self.backend.complete(built, tasks), lambda replies, kept: _parsed(replies), [])

    def choose_many(self, items, task, rng) -> Reply:
        tasks, built, sizes = [], [], []
        for task_index, probe, candidates, exclude in items:
            candidate_prompts = self._candidate_prompts(probe, candidates, task, rng, exclude)
            tasks += [task_index] * len(candidate_prompts)
            built += candidate_prompts
            sizes.append(len(candidate_prompts))

        def chosen(scores: list[float], kept=None) -> list[int]:
            positions, start = [], 0
            for size in sizes:
                positions.append(_argmax(scores[start:start + size]))
                start += size
            return positions

        return Reply(lambda: self.backend.score(built, tasks), chosen, [])

    def speak_ahead(self, task_index: int, stimulus: Stimulus, vocabularies: Sequence[Vocabulary],
                    rng: Random) -> Reply:
        """Builds the speaking prompt for ``stimulus`` over each of
        ``vocabularies`` from one state of ``rng``, which ends where one
        build leaves it, as one completion request. Read with ``kept`` the
        position of one vocabulary, the returned ``Reply`` gives the signal
        of the reply to the prompt over it, whose record is a
        ``backend_call`` (the others' are discarded), or None when the
        request failed or that reply does not parse."""
        state = rng.getstate()
        built = []
        for vocabulary in vocabularies:
            rng.setstate(state)
            built.append(prompts.build_speaker_prompt(vocabulary, stimulus, rng))

        def signal(replies: list[str], kept: int) -> Signal | None:
            signals = _parsed([replies[kept]])
            return signals[0] if signals else None

        return Reply(lambda: self.backend.complete(built, [task_index] * len(built)), signal, None)


class Reply:
    """A list an agent asked, and its reading of the answer: what
    ``answer(results, kept)`` makes of the results of the request that
    ``send`` sends, or ``failed`` when reading the request fails. Nothing
    goes out until send(); then read it once, with read() or discard(),
    after peek() if wanted, or close() it unread."""

    def __init__(self, send: Callable | None, answer: Callable | None, failed):
        self._send, self._pending = send, None
        self._answer, self._failed = answer, failed

    @classmethod
    def held(cls, answers: list) -> Reply:
        """The Reply of a list answered without a request (an oracle's)."""
        return cls(None, None, answers)

    def send(self) -> Reply:
        """Sends the request, once, and returns this reply."""
        if self._send is not None:
            self._pending, self._send = self._send(), None
        return self

    def _sent(self):
        assert self._send is None, "a reply is read only after its request is sent"
        return self._pending

    def peek(self, kept: int | None = None):
        """The answer, from a reply received now and logged by nothing."""
        results = None if self._sent() is None else self._pending.peek()
        return self._failed if results is None else self._answer(results, kept)

    def read(self, event_log: EventLog, kept: int | None = None):
        """The answer, its request's records logged (with ``kept`` only that
        prompt's as a ``backend_call``). A request the service refused raises
        its ``ServiceRefused``: no answer of the model is to be had."""
        if self._sent() is None:
            return self._failed
        try:
            results = self._pending.read(event_log, kept)
        except ServiceRefused:
            raise
        except BackendError:
            return self._failed
        return self._answer(results, kept)

    def discard(self, event_log: EventLog) -> None:
        """Reads the reply and logs every prompt as ``backend_discarded``."""
        if self._sent() is not None:
            self._pending.discard(event_log)

    def close(self) -> None:
        """Drops the request unread, its connection closed, and logs nothing."""
        if self._pending is not None:
            self._pending.close()


def _parsed(replies: Sequence[str]) -> list[Signal]:
    """The signals of the leading replies that parse."""
    signals = []
    for raw in replies:
        try:
            signals.append(prompts.parse_signal_response(raw))
        except UnparseableResponseError:
            break
    return signals


# every agent spec a config may name, in the order validate_config lists them
AGENT_SPECS = {
    "llm": LLMAgent,
    "oracle:lookup": LookupOracle,
    "oracle:compositional": CompositionalOracle,
    "oracle:random": RandomChooser,
}


def make_agent(spec: str, agent_id: str, backend: CompletionBackend | None = None) -> Agent:
    """The agent of a spec in ``AGENT_SPECS``; an ``llm`` agent talks to ``backend``."""
    if spec == "llm":
        return LLMAgent(agent_id, backend)
    return AGENT_SPECS[spec](agent_id)
