"""Agents: the task contract, deterministic oracles, and the model-backed agent.

An agent owns exactly one vocabulary at a time and is stateless between
tasks otherwise. Oracles bypass prompt construction and apply their rule
directly; the model-backed agent renders prompts and talks to a backend.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, Sequence

from . import prompts
from .backend import BackendError, CompletionBackend
from .domain import Signal, Stimulus, Vocabulary, enumerate_stimuli
from .metrics import normalized_levenshtein, semantic_distance
from .prompts import PromptTask, UnparseableResponseError


class AgentError(Exception):
    pass


class ProductionFailure(AgentError):
    """Signal production failed after all retries; failure_mode failed-production."""


class ChoiceFailure(AgentError):
    """Candidate scoring failed after all retries; failure_mode failed-choice."""


class Agent:
    """Base contract: produce a signal for a stimulus, or choose among candidates.

    For production tasks the probe is a stimulus. For choice tasks the probe
    is a stimulus with signal candidates (guessing block) or a signal with
    stimulus candidates (listening); ``exclude`` names the entry the prompt
    context must omit, which only the engine knows for listening tasks.
    """

    def __init__(self, agent_id: str):
        self.agent_id = agent_id
        self.vocabulary: Vocabulary | None = None

    def set_vocabulary(self, vocab: Vocabulary) -> None:
        self.vocabulary = vocab

    def produce_signal(self, stimulus: Stimulus, task: PromptTask, rng: Random) -> Signal:
        raise NotImplementedError

    def choose(
        self,
        probe,
        candidates: Sequence,
        task: PromptTask,
        rng: Random,
        exclude: Stimulus | None = None,
    ) -> int:
        raise NotImplementedError

    def produce_signals(
        self, items: Iterable[tuple[int, Stimulus]], task: PromptTask, rng: Random
    ) -> list[Signal]:
        """Batch form of ``produce_signal`` over ``(task index, stimulus)``
        items: the signals of the leading tasks answered in one go. The
        engine runs every task after them through ``produce_signal``; this
        default answers none."""
        return []

    def choose_many(
        self, items: Iterable[tuple[int, object, Sequence]], task: PromptTask, rng: Random
    ) -> list[int]:
        """Batch form of ``choose`` over ``(task index, probe, candidates)``
        items, answered like ``produce_signals``."""
        return []

    def extrapolated(self, stimulus: Stimulus) -> bool:
        """True when the last production for this stimulus fell outside the
        agent's stored mappings (oracle nearest-neighbour fallback)."""
        return False


def _argmin(values: Sequence[float]) -> int:
    best = 0
    for i, v in enumerate(values):
        if v < values[best]:
            best = i
    return best


def _argmax(values: Sequence[float]) -> int:
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def _nearest_vocab_entry(vocab: Vocabulary, stimulus: Stimulus):
    """Entry of the semantically closest stored stimulus; ties resolve to the
    first in canonical stimulus order."""
    by_stimulus = {e.stimulus: e for e in vocab}
    ordered = [s for s in enumerate_stimuli() if s in by_stimulus]
    return by_stimulus[min(ordered, key=lambda s: semantic_distance(stimulus, s))]


class _Oracle(Agent):
    """An agent that applies its production rule directly. A choice takes
    the candidate closest, by edit distance, to the oracle's own production."""

    def choose(self, probe, candidates, task, rng, exclude=None) -> int:
        if isinstance(probe, Stimulus):  # guessing: candidates are signals
            expected = self.produce_signal(probe, task, rng)
            return _argmin([normalized_levenshtein(expected, c) for c in candidates])
        # listening: candidates are stimuli; compare the heard signal with the
        # signals this agent would produce for each candidate
        expected = [self.produce_signal(c, task, rng) for c in candidates]
        return _argmin([normalized_levenshtein(probe, e) for e in expected])


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

    Production renders the task's prompt, requests one greedy completion and
    parses it; choice scores all candidate continuations in one backend call
    and takes the argmax of total log-probability, ties broken by lowest
    position in the shuffled candidate order. After ``max_retries`` failed
    attempts the failure is reported for the engine to record.

    The batch methods build every task's prompts as the per-task methods'
    first attempt would, in task order, and send them in one backend call.
    They answer tasks up to the first reply that does not parse, and none
    when the call fails; the engine retries from there task by task.
    """

    def __init__(self, agent_id: str, backend: CompletionBackend, max_retries: int = 3):
        super().__init__(agent_id)
        self.backend = backend
        self.max_retries = max_retries

    def _build_production_prompt(self, stimulus: Stimulus, task: PromptTask, rng: Random):
        assert self.vocabulary is not None
        if task is PromptTask.LABELLING:
            return prompts.build_labelling_prompt(self.vocabulary, stimulus, rng)
        return prompts.build_speaker_prompt(self.vocabulary, stimulus, rng)

    def produce_signal(self, stimulus, task, rng) -> Signal:
        last_error: Exception | None = None
        for _ in range(self.max_retries):
            prompt = self._build_production_prompt(stimulus, task, rng)
            try:
                raw = self.backend.complete([prompt])[0]
                return prompts.parse_signal_response(raw)
            except (BackendError, UnparseableResponseError) as err:
                last_error = err
        raise ProductionFailure(str(last_error)) from last_error

    def _candidate_prompts(self, probe, candidates, task, rng, exclude):
        assert self.vocabulary is not None
        # one shared shuffle per task: every candidate prompt is built from an
        # identically seeded rng so only the prefilled continuation differs
        shared_seed = rng.getrandbits(64)
        built = []
        for candidate in candidates:
            fork = Random(shared_seed)
            if task is PromptTask.GUESSING:
                built.append(prompts.build_guessing_prompt(self.vocabulary, probe, candidate, fork))
            else:
                built.append(
                    prompts.build_listener_prompt(
                        self.vocabulary, probe, candidate, fork, exclude=exclude
                    )
                )
        return built

    def choose(self, probe, candidates, task, rng, exclude=None) -> int:
        last_error: Exception | None = None
        for _ in range(self.max_retries):
            built = self._candidate_prompts(probe, candidates, task, rng, exclude)
            try:
                return _argmax(self.backend.score(built))
            except BackendError as err:
                last_error = err
        raise ChoiceFailure(str(last_error)) from last_error

    def produce_signals(self, items, task, rng) -> list[Signal]:
        tasks, built = [], []
        for task_index, stimulus in items:
            tasks.append(task_index)
            built.append(self._build_production_prompt(stimulus, task, rng))
        try:
            replies = self.backend.complete(built, tasks)
        except BackendError:
            return []
        signals = []
        for raw in replies:
            try:
                signals.append(prompts.parse_signal_response(raw))
            except UnparseableResponseError:
                break
        return signals

    def choose_many(self, items, task, rng) -> list[int]:
        tasks, built, sizes = [], [], []
        for task_index, probe, candidates in items:
            candidate_prompts = self._candidate_prompts(probe, candidates, task, rng, None)
            tasks += [task_index] * len(candidate_prompts)
            built += candidate_prompts
            sizes.append(len(candidate_prompts))
        try:
            scores = self.backend.score(built, tasks)
        except BackendError:
            return []
        chosen, start = [], 0
        for size in sizes:
            chosen.append(_argmax(scores[start:start + size]))
            start += size
        return chosen


ORACLE_KINDS = {
    "lookup": LookupOracle,
    "compositional": CompositionalOracle,
    "random": RandomChooser,
}


def make_agent(spec: str, agent_id: str, backend: CompletionBackend | None = None,
               max_retries: int = 3) -> Agent:
    """Build an agent from a config string: ``oracle:lookup``,
    ``oracle:compositional``, ``oracle:random``, or ``llm``."""
    if spec == "llm":
        if backend is None:
            raise AgentError("llm agent requires a backend")
        return LLMAgent(agent_id, backend, max_retries=max_retries)
    if spec.startswith("oracle:"):
        kind = spec.split(":", 1)[1]
        if kind not in ORACLE_KINDS:
            raise AgentError(f"unknown oracle kind {kind!r}")
        return ORACLE_KINDS[kind](agent_id)
    raise AgentError(f"unknown agent spec {spec!r}")
