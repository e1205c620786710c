"""Agents: the task contract, deterministic oracles, and the model-backed agent.

An agent owns exactly one vocabulary at a time and is stateless between
tasks otherwise. Oracles bypass prompt construction and apply their rule
directly; the model-backed agent renders prompts and talks to a backend.
"""

from __future__ import annotations

from itertools import islice
from random import Random
from typing import Callable, Sequence

from . import prompts
from .backend import BackendError, CompletionBackend, EventLog
from .domain import Signal, Stimulus, Vocabulary, enumerate_stimuli
from .metrics import normalized_levenshtein, semantic_distance
from .prompts import PromptTask, UnparseableResponseError


class AgentError(Exception):
    pass


class Agent:
    """Base contract: answer a list of tasks of one kind.

    ``produce_signals`` takes ``(task index, stimulus)`` items, whose answers
    are signals; ``choose_many`` takes ``(task index, probe, candidates,
    exclude)`` items, whose answers are candidate positions. The probe is a
    stimulus with signal candidates (guessing block) or a signal with
    stimulus candidates (listening); ``exclude`` names the entry the prompt
    context must omit, which only the engine knows for listening tasks.
    Both make the list's draws when called and return a ``Reply``, which
    gives the answers of the leading tasks answered (the engine asks every
    later task alone, as a list of one) and logs the requests when read.

    An agent whose ``speaks_ahead`` is true also offers ``listen_ahead`` and
    ``speak_ahead`` (see ``LLMAgent``), with which the engine overlaps a
    listening task with the next speaking one, and with the next
    interaction's listening on a predicted outcome.
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


def _nearest_vocab_entry(vocab: Vocabulary, stimulus: Stimulus):
    """Entry of the semantically closest stored stimulus; ties resolve to the
    first in canonical stimulus order."""
    ordered = [s for s in enumerate_stimuli() if s in vocab]
    return vocab.entry_for(min(ordered, key=lambda s: semantic_distance(stimulus, s)))


class _Oracle(Agent):
    """An agent that applies its production rule directly, through
    ``produce_signal`` and ``choose``. It answers the first task of a list
    only, so every task's draws and the oracle's own take turns as they do
    task by task. A choice takes the candidate closest, by edit distance,
    to the oracle's own production."""

    def produce_signals(self, items, task, rng) -> Reply:
        return Reply.held([self.produce_signal(stimulus, task, rng) for _, stimulus in islice(items, 1)])

    def choose_many(self, items, task, rng) -> Reply:
        return Reply.held([
            self.choose(probe, candidates, task, rng, exclude)
            for _, probe, candidates, exclude in islice(items, 1)
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
        return _nearest_vocab_entry(self.vocabulary, stimulus).signal

    def extrapolated(self, stimulus: Stimulus) -> bool:
        return self.vocabulary is not None and stimulus not in self.vocabulary


class CompositionalOracle(_Oracle):
    """Builds signals by concatenating per-attribute syllables, ignoring its
    vocabulary entirely; the fully rule-governed reference agent."""

    DEFAULT_SHAPE = {1: "ga", 2: "he", 3: "ki"}
    DEFAULT_COLOUR = {"blue": "lo", "green": "mu", "orange": "na"}
    DEFAULT_AMOUNT = {1: "pa", 2: "pe", 3: "pi"}

    def __init__(
        self,
        agent_id: str,
        shape_table: dict[int, str] | None = None,
        colour_table: dict[str, str] | None = None,
        amount_table: dict[int, str] | None = None,
    ):
        super().__init__(agent_id)
        self.shape_table = dict(shape_table or self.DEFAULT_SHAPE)
        self.colour_table = dict(colour_table or self.DEFAULT_COLOUR)
        self.amount_table = dict(amount_table or self.DEFAULT_AMOUNT)

    def rule_signal(self, stimulus: Stimulus) -> Signal:
        return (
            self.shape_table[stimulus.shape]
            + self.colour_table[stimulus.colour]
            + self.amount_table[stimulus.amount]
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

    Both list methods build every task's prompts in task order and send
    them as one request when the list is asked; its ``Reply`` reads it
    later. A production renders the task's prompt and parses the greedy
    completion; a choice scores all candidate continuations and takes the
    argmax of total log-probability, ties broken by lowest position in the
    shuffled candidate order. The answers stop at the first reply that
    does not parse, and there are none when the request fails.

    The agent speaks ahead: listen_ahead() builds a choice list's prompts
    and returns the function that sends them, and speak_ahead() builds one
    speaking task's prompt over each of several vocabularies and sends
    them as one request. The engine keeps at most five of an agent's
    requests in flight: its guessing request, beside its listening and
    next speaking requests and the two it is discarding.
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
        return self.listen_ahead(items, task, rng)()

    def listen_ahead(self, items, task, rng) -> Callable[[], Reply]:
        """choose_many(), with the prompts built (and their draws made) now
        and the request sent by the returned function, which gives the
        ``Reply``. The engine sends the speaking request built after it
        first: speaking replies are the communication block's critical chain."""
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

        return lambda: Reply(lambda: self.backend.score(built, tasks), chosen, [])

    def speak_ahead(self, task_index: int, stimulus: Stimulus, vocabularies: Sequence[Vocabulary],
                    rng: Random) -> Reply:
        """Builds the speaking prompt for ``stimulus`` over each of
        ``vocabularies`` from one state of ``rng``, which ends where one
        build leaves it, and sends them as one completion request. Read with
        ``kept`` the position of one vocabulary, the returned ``Reply`` gives
        the signal of the reply to the prompt over it, whose record is a
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
    ``send()`` sends, or ``failed`` when reading the request fails. Read it
    once, with read() or discard(), after peek() if wanted, or close() it
    unread."""

    def __init__(self, send: Callable, answer: Callable, failed):
        self._pending = send()
        self._answer, self._failed = answer, failed

    @classmethod
    def held(cls, answers: list) -> Reply:
        """The Reply of a list answered without a request (an oracle's)."""
        return cls(lambda: None, None, answers)

    def peek(self, kept: int | None = None):
        """The answer, from a reply received now and logged by nothing."""
        results = None if self._pending is None else self._pending.peek()
        return self._failed if results is None else self._answer(results, kept)

    def read(self, event_log: EventLog, kept: int | None = None):
        """The answer, its request's records logged (with ``kept`` only that
        prompt's as a ``backend_call``)."""
        if self._pending is None:
            return self._failed
        try:
            results = self._pending.read(event_log, kept)
        except BackendError:
            return self._failed
        return self._answer(results, kept)

    def discard(self, event_log: EventLog) -> None:
        """Reads the reply and logs every prompt as ``backend_discarded``."""
        if self._pending is not None:
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


ORACLE_KINDS = {
    "lookup": LookupOracle,
    "compositional": CompositionalOracle,
    "random": RandomChooser,
}


def make_agent(spec: str, agent_id: str, backend: CompletionBackend | None = None) -> Agent:
    """Build an agent from a config string: ``oracle:lookup``,
    ``oracle:compositional``, ``oracle:random``, or ``llm``."""
    if spec == "llm":
        if backend is None:
            raise AgentError("llm agent requires a backend")
        return LLMAgent(agent_id, backend)
    if spec.startswith("oracle:"):
        kind = spec.split(":", 1)[1]
        if kind not in ORACLE_KINDS:
            raise AgentError(f"unknown oracle kind {kind!r}")
        return ORACLE_KINDS[kind](agent_id)
    raise AgentError(f"unknown agent spec {spec!r}")
