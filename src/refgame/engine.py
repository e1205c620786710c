"""The four-block dyad protocol: guessing, labelling, communication, testing.

A simulation runs both agents through a guessing block (candidate
discrimination over the training language), a labelling block (whose
productions become each agent's learned vocabulary), four communication
rounds of thirty referential-game interactions with vocabulary updates, and
a testing block producing signals for the full 27-stimulus space.

A ``SimulationResult`` is the one record of a run: ``run_simulation`` fills
it block by block, persistence saves it (complete, or as the ``partial`` of
``SimulationAborted``) and replay rebuilds it from a run directory.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from random import Random
from types import UnionType
from typing import Callable, Generator, Iterator, NamedTuple, Sequence, get_args, get_origin, get_type_hints

from .agents import Agent, Reply
from .backend import EventLog
from .domain import (
    DomainError,
    Signal,
    Stimulus,
    Vocabulary,
    enumerate_stimuli,
    sample_training_set,
    generate_language,
)
from .metrics import (
    MetricError,
    SignalMemo,
    communicative_success_rate,
    normalized_levenshtein,
    generalization_score,
    vocabulary_report,
)
from .prompts import PromptTask


class EngineError(Exception):
    pass


class SimulationAborted(EngineError):
    """A block failed fatally; ``partial`` is the run's result holding every
    block both agents completed, so the caller can persist an incomplete run."""

    def __init__(self, message: str, partial: SimulationResult):
        super().__init__(message)
        self.partial = partial


def derive_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for a named component of a run."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class RunConfig:
    master_seed: int = 0
    rounds: int = 4
    candidate_count: int = 4  # target + 3 distractors; chance level 25%
    guessing_distractors: int = 3
    mantel_permutations: int = 10_000
    max_agent_retries: int = 3

    def validate(self) -> None:
        if self.rounds < 1:
            raise EngineError("rounds must be >= 1")
        if not 2 <= self.candidate_count <= 15:
            raise EngineError("candidate_count must be between 2 and 15")
        if not 1 <= self.guessing_distractors <= 14:
            raise EngineError("guessing_distractors must be between 1 and 14")
        if self.mantel_permutations < 1:
            raise EngineError("mantel_permutations must be >= 1")
        if self.max_agent_retries < 1:
            raise EngineError("max_agent_retries must be >= 1")


class _BlockEvent:
    """A block record is its own ``events.jsonl`` event of kind ``KIND``: the
    field names are the event keys, in declaration order, and a stimulus is
    written as its ``[shape, colour, amount]`` list."""

    # what EventLog.set_context adds to every event, which decoding sets aside
    CONTEXT_KEYS = frozenset({"kind", "simulation", "generation", "block", "round", "task", "agent"})

    def event(self) -> dict:
        return dict(vars(self))  # a dataclass's fields, in declaration order

    @classmethod
    def from_event(cls, event: dict):
        return decode_fields(cls, event, f"a {cls.KIND!r} record")


def decode_fields(cls: type, data, where: str):
    """The dataclass ``cls`` from a mapping read from outside, which a
    refusal (``DomainError``) names as ``where``: a missing key takes its
    field's default or is refused, a key that is no field (nor one of the
    ``CONTEXT_KEYS``) is refused, and each value must fit ``_codec``'s rule."""
    if type(data) is not dict:
        raise DomainError(f"{where} is a {type(data).__name__}, not a mapping")
    required, known, codecs = _field_codecs(cls)
    if missing := required - data.keys():
        raise DomainError(f"{where} lacks key(s) {sorted(missing)}")
    if not known.issuperset(data):
        raise DomainError(f"{where} has unknown key(s) {sorted(data.keys() - known, key=str)}")
    values = {}
    for name, annotation, test, decode in codecs:
        if name in data:
            if not test(value := data[name]):
                shown = json.dumps(value, default=repr)  # repr: a YAML date, say, has no JSON form
                raise DomainError(f"{where} has {name!r}: {shown}, not of type {annotation}")
            values[name] = value if decode is None else decode(value)
    return cls(**values)


_STIMULI = frozenset(enumerate_stimuli())


def _codec(hint, name: str) -> tuple[Callable, Callable | None]:
    """Field ``name``'s type test and decoder (None: the value as read). A
    bool fits only ``bool``, an int also ``float``; a list, a tuple (a JSON
    list) or a dict fits when each element does, a union (kept as read) when
    one arm does; a stimulus is a ``[shape, colour, amount]`` list, and a
    dataclass is decoded from its section, None meaning its defaults."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is Stimulus:
        types = (int, str, int)
        return (lambda v: type(v) is list and tuple(map(type, v)) == types and tuple(v) in _STIMULI), (
            Stimulus._make
        )
    if origin is tuple or origin is list:
        test, decode = _codec(args[0], name)
        return (lambda v: type(v) is list and all(map(test, v))), (
            origin if decode is None else lambda v: origin(map(decode, v))
        )
    if origin is dict:
        test = _codec(args[1], name)[0]
        return (lambda v: type(v) is dict and all(map(test, v.values()))), None
    if origin is UnionType:
        tests = [_codec(arg, name)[0] for arg in args]
        return (lambda v: any(test(v) for test in tests)), None
    if is_dataclass(hint):
        section = f"section {name!r}"
        return (lambda v: v is None or type(v) is dict), lambda v: decode_fields(hint, v or {}, section)
    types = (int, float) if hint is float else (hint,)
    return (lambda v: type(v) in types), None


@functools.cache
def _field_codecs(cls: type) -> tuple[frozenset[str], frozenset[str], tuple]:
    """The keys a mapping must and may carry, and each field's name, annotation,
    test and decoder, resolved once per type: per record it would dominate replay."""
    hints = get_type_hints(cls)
    required = frozenset(f.name for f in fields(cls) if f.default is f.default_factory is MISSING)
    known = frozenset(f.name for f in fields(cls)) | getattr(cls, "CONTEXT_KEYS", frozenset())
    return required, known, tuple((f.name, f.type, *_codec(hints[f.name], f.name)) for f in fields(cls))


@dataclass
class InteractionRecord(_BlockEvent):
    KIND = "interaction"

    round: int  # 1-based
    task: int
    speaker: str
    listener: str
    stimulus: Stimulus
    signal: Signal
    candidates: tuple[Stimulus, ...]
    chosen: int
    success: bool
    failure_mode: str = "none"  # none | failed-production | failed-choice


@dataclass
class GuessingRecord(_BlockEvent):
    KIND = "guess"

    stimulus: Stimulus
    candidates: tuple[Signal, ...]
    chosen: int
    correct: bool
    failure_mode: str = "none"


@dataclass
class LabellingRecord(_BlockEvent):
    KIND = "label"

    stimulus: Stimulus
    truth: Signal
    produced: Signal
    failed: bool = False

    @property
    def distance(self) -> float:
        return normalized_levenshtein(self.truth, self.produced)


@dataclass
class TestingRecord(_BlockEvent):
    KIND = "testing"

    stimulus: Stimulus
    signal: Signal
    failed: bool = False
    extrapolated: bool = False


@dataclass
class GuessingResult:
    records: list[GuessingRecord]

    @property
    def accuracy(self) -> float:
        return sum(r.correct for r in self.records) / len(self.records)


@dataclass
class LabellingResult:
    records: list[LabellingRecord]
    learned: Vocabulary

    @property
    def mean_distance(self) -> float:
        return sum(r.distance for r in self.records) / len(self.records)


@dataclass
class CommunicationResult:
    records: list[InteractionRecord]
    round_vocabs: dict[str, list[Vocabulary]]  # agent id -> post-round snapshots

    @property
    def perc_com(self) -> list[float]:
        """Communicative success, one value per logged round."""
        rounds = sorted({r.round for r in self.records})
        return [communicative_success_rate(self.records, round=n) for n in rounds]


@dataclass
class TestingResult:
    records: list[TestingRecord]

    def pairs(self) -> list[tuple[Stimulus, Signal]]:
        return [(r.stimulus, r.signal) for r in self.records if not r.failed]


@dataclass
class MetricRow:
    """One ``metrics.csv`` row: the field names are the columns after
    ``schema_version``, in column order. A column the row does not measure
    stays empty, e.g. TopSim of a degenerate snapshot or accuracy outside
    the guessing block."""

    block: str
    round: int | None = None
    agent: str = ""
    topsim_z: float | None = None
    topsim_p: float | None = None
    topsim_r: float | None = None
    permutations: int | None = None
    mantel_method: str = ""
    ngram_diversity: float | None = None
    mean_signal_length: float | None = None
    unique_signal_ratio: float | None = None
    perc_com: float | None = None
    gen_score: float | None = None
    gen_score_pairs: str = ""  # "cross" whenever gen_score is set, see README
    accuracy: float | None = None
    mean_levenshtein: float | None = None
    degenerate: bool = False


@dataclass
class SimulationResult:
    """A run's record; per-agent block results are keyed by agent id. A block
    field stays empty until both agents have finished that block."""

    config: RunConfig
    agent_ids: tuple[str, str]
    initial_language: Vocabulary
    guessing: dict[str, GuessingResult] = field(default_factory=dict)
    labelling: dict[str, LabellingResult] = field(default_factory=dict)
    communication: CommunicationResult | None = None
    testing: dict[str, TestingResult] = field(default_factory=dict)
    metric_rows: list[MetricRow] = field(default_factory=list)


_SENT = object()  # what ``_step`` gives for a block that yielded


def _step(block: Generator):
    """``block`` run on to its next yield (``_SENT``) or its end (its result)."""
    try:
        next(block)
    except StopIteration as stop:
        return stop.value
    return _SENT


def _run(block: Generator):
    """What ``block`` returns, run on to its end. A block is a generator that
    makes its draws and sends its requests, yields before each read, and
    returns its result once all are read and its records written. Closed
    at a yield, or raising, it closes each request sent and not read."""
    while (result := _step(block)) is _SENT:
        pass
    return result


def _beside(event_log: EventLog, first: Callable, second: Callable) -> Generator:
    """The block of ``(first(event_log), second(fork))``, ``fork`` a fork of
    ``event_log`` joined after ``first``'s records, so the log reads as if
    ``second`` ran after ``first``. The two take turns, a step each, then
    the block yields, until both have returned: a step reads what the
    block sent at its last yield and sends what it asks next, so both
    first lists go out before either is read, and so do the two blocks'
    tasks asked again alone. When ``first`` raises, ``second`` is closed,
    its requests unread and its records dropped; when only ``second``
    raises, ``first`` is run on to its end, then ``second``'s records are
    written and its exception raised."""
    fork = event_log.fork()
    first_block, second_block = first(event_log), second(fork)
    mine = theirs = _SENT
    try:
        while True:
            if mine is _SENT:
                mine = _step(first_block)
            if theirs is _SENT:
                try:
                    theirs = _step(second_block)
                except BaseException:  # first's records, then second's, then its error
                    _run(first_block)
                    event_log.join(fork)
                    raise
            if mine is not _SENT and theirs is not _SENT:
                break
            yield
    finally:  # a block left waiting closes its requests unread
        first_block.close()
        second_block.close()
    event_log.join(fork)
    return mine, theirs


def _read(reply: Reply, event_log: EventLog, kept: int | None = None) -> Generator:
    """``reply``'s answer, read after one yield (see ``_run``) with ``kept``
    as ``Reply.read`` takes it, and closed if the read does not complete."""
    try:
        yield
        return reply.read(event_log, kept)
    finally:  # closing a request already read does nothing
        reply.close()


def _alone(ask: Callable, item: tuple, prompt_task: PromptTask, rng: Random, attempts: int,
           event_log: EventLog) -> Generator:
    """The answer to one task, asked as a list of one (``ask`` is an agent's
    list method) up to ``attempts`` times; ``None`` when no attempt answers.
    A block (see ``_run``) that yields once per attempt."""
    for _ in range(attempts):
        answers = yield from _read(ask([item], prompt_task, rng).send(), event_log)
        if answers:
            return answers[0]
    return None


def _batched(
    ask: Callable[[Iterator, PromptTask, Random], Reply],
    prompt_task: PromptTask,
    draw: Callable,
    count: int,
    rng: Random,
    attempts: int,
    event_log: EventLog,
    make_record: Callable,
) -> Generator:
    """A block (see ``_run``) that returns ``make_record(task, answer)`` for
    each of ``count`` tasks, appended to the log as it is made; ``answer``
    is ``None`` for a failed task.

    ``ask`` is handed one list of every task, drawn as the agent reads it,
    so the task draws interleave with the agent's own as they do task by
    task; every agent reads the whole list, and a draw that raises ends the
    block before any answer. From the first task the list left unanswered
    on, the rng goes back to where that task began, and each task is drawn
    anew and asked ``_alone``."""
    states, drawn = [], []

    def tasks():
        for task_index in range(count):
            event_log.set_context(task=task_index)
            states.append(rng.getstate())
            drawn.append(draw(task_index))
            yield drawn[-1]
        event_log.set_context(task=None)

    answers = yield from _read(ask(tasks(), prompt_task, rng).send(), event_log)
    if len(answers) < len(states):
        rng.setstate(states[len(answers)])
    records = []
    for task_index in range(count):
        event_log.set_context(task=task_index)
        if task_index < len(answers):
            item = drawn[task_index]
            answer = answers[task_index]
        else:
            item = draw(task_index)
            answer = yield from _alone(ask, item, prompt_task, rng, attempts, event_log)
        record = make_record(item, answer)
        records.append(record)
        event_log.append(record.KIND, **record.event())
    return records


def run_guessing_block(
    agent: Agent,
    vocab: Vocabulary,
    rng: Random,
    config: RunConfig,
    event_log: EventLog,
) -> Generator[None, None, GuessingResult]:
    """A block (see ``_run``): each training stimulus once, in random order,
    pick the true signal out of ``config.guessing_distractors`` + 1
    candidates drawn from other entries, the current stimulus in context."""
    order = list(vocab.stimuli())
    rng.shuffle(order)

    def draw(task_index):
        stimulus = order[task_index]
        truth = vocab.signal_for(stimulus)
        others = [e.signal for e in vocab if e.stimulus != stimulus and e.signal != truth]
        candidates = [truth] + rng.sample(others, config.guessing_distractors)
        rng.shuffle(candidates)
        return task_index, stimulus, candidates, None

    def record(task, chosen):
        _, stimulus, candidates, _ = task
        truth = vocab.signal_for(stimulus)
        failure_mode = "none"
        if chosen is None:
            chosen, failure_mode = -1, "failed-choice"
        return GuessingRecord(
            stimulus=stimulus,
            candidates=tuple(candidates),
            chosen=chosen,
            correct=failure_mode == "none" and candidates[chosen] == truth,
            failure_mode=failure_mode,
        )

    event_log.set_context(block="guessing", round=None, task=None, agent=agent.agent_id)
    records = yield from _batched(
        agent.choose_many, PromptTask.GUESSING, draw, len(order), rng, config.max_agent_retries,
        event_log, record,
    )
    return GuessingResult(records=records)


def run_labelling_block(
    agent: Agent,
    vocab: Vocabulary,
    rng: Random,
    config: RunConfig,
    event_log: EventLog,
) -> Generator[None, None, LabellingResult]:
    """A block (see ``_run``): produce a signal for every training stimulus
    with the full vocabulary (current stimulus included) in context. The
    productions replace the agent's entries and become its learned
    vocabulary; failed productions retain the ground-truth signal."""
    order = list(vocab.stimuli())
    rng.shuffle(order)
    learned = vocab.copy()

    def record(task, produced):
        _, stimulus = task
        truth = vocab.signal_for(stimulus)
        failed = produced is None
        if failed:
            produced = truth
        learned.update(stimulus, produced, 0)
        return LabellingRecord(
            stimulus=stimulus,
            truth=truth,
            produced=produced,
            failed=failed,
        )

    event_log.set_context(block="labelling", round=None, task=None, agent=agent.agent_id)
    records = yield from _batched(
        agent.produce_signals, PromptTask.LABELLING, lambda i: (i, order[i]), len(order), rng,
        config.max_agent_retries, event_log, record,
    )
    # a copy: communication updates the agent's vocabulary, not the learned snapshot
    agent.set_vocabulary(learned.copy())
    return LabellingResult(records=records, learned=learned)


def schedule_round(
    train: Sequence[Stimulus],
    rng: Random,
    agent_ids: tuple[str, str] = ("A", "B"),
) -> list[tuple[str, Stimulus]]:
    """Thirty (speaker, stimulus) tasks: roles strictly alternate and each
    agent speaks every training stimulus exactly once, in an independent
    random order."""
    first_order = list(train)
    rng.shuffle(first_order)
    second_order = list(train)
    rng.shuffle(second_order)
    tasks = []
    for a_stim, b_stim in zip(first_order, second_order):
        tasks.append((agent_ids[0], a_stim))
        tasks.append((agent_ids[1], b_stim))
    return tasks


class _Overlap(NamedTuple):
    """Listener t's first listening request and its speaking request for
    t+1, both sent, with t+1's candidates and the rng state before they
    were drawn."""

    listening: Reply
    before: tuple
    next_candidates: list[Stimulus]
    speaking: Reply


def run_communication_block(
    agent_a: Agent,
    agent_b: Agent,
    rng: Random,
    config: RunConfig,
    event_log: EventLog,
) -> Generator[None, None, CommunicationResult]:
    """The referential game: per task the speaker produces a signal for the
    target from its own vocabulary (target excluded from context); the
    listener picks the target out of ``candidate_count`` stimuli by scoring
    each candidate. Afterwards both agents map the target to the produced
    signal and set its success flag to the outcome.

    Tasks run in turn, with two overlaps that change no output, both taken
    when the listener ``speaks_ahead``. First, the listener of task t speaks
    task t+1, and its prompt there differs from its vocabulary now only in
    the line of t's stimulus, by t's signal and success flag. So once its
    listening prompts are built, t+1's candidates are drawn, its speaking
    prompt is built under both flags from one rng state (``_shuffled``
    draws by line count only), and the engine sends that speaking request,
    then the listening one: speaking replies are the block's critical
    chain, as t+1's listening request and t+2's speaking prompt both wait
    on them (README gives the round trips measured). The reply for the flag
    that came true is t+1's first speaking attempt, the other's record a
    ``backend_discarded`` one. Second, while t's listening request
    is in flight, the engine predicts that t fails and reads t+1's
    speaking reply under that flag; when it parses, the speaker of t takes
    t's update as a failure and makes t+1's overlap at once: its listening
    request and its speaking request for t+2, with the draws t+1 would
    make. When t fails they are t+1's first attempts, byte for byte; when
    t succeeds the rng goes back to before those draws, t+1's overlap is
    made again, and then the two replies are read and logged as
    discarded, under the speaker of t that sent them. Records are written
    where the run in turn writes them, after these sends.

    A request sent ahead is its task's first attempt. When t's listener
    needs a second attempt, whatever was sent ahead is discarded at once,
    under the agent that sent it, the rng goes back to before t+1's draws,
    and t+1 runs in turn; no prediction is made on a speaking reply read
    ahead that fails or does not parse. Nothing is asked ahead across a
    round boundary or after a failed production. As a block (see ``_run``)
    it yields before each read, and each request it sends ahead is in
    ``in_flight`` until read."""
    assert agent_a.vocabulary is not None and agent_b.vocabulary is not None
    agents = {agent_a.agent_id: agent_a, agent_b.agent_id: agent_b}
    train = list(agent_a.vocabulary.stimuli())
    attempts = config.max_agent_retries
    records: list[InteractionRecord] = []
    round_vocabs: dict[str, list[Vocabulary]] = {agent_a.agent_id: [], agent_b.agent_id: []}
    in_flight: list[Reply] = []  # sent ahead and not yet read
    # t's outcome while its listening request is in flight is predicted to be a
    # failure: most interactions fail on the only traffic measured (README)
    predicted_flag = 0

    def draw_candidates(stimulus: Stimulus) -> list[Stimulus]:
        distractors = rng.sample([s for s in train if s != stimulus], config.candidate_count - 1)
        candidates = [stimulus] + distractors
        rng.shuffle(candidates)
        return candidates

    def overlap(listener: Agent, heard: tuple, next_index: int) -> _Overlap:
        listening = listener.choose_many([heard], PromptTask.LISTENING, rng)
        before = rng.getstate()
        next_stimulus = tasks[next_index][1]
        next_candidates = draw_candidates(next_stimulus)
        _, signal, _, stimulus = heard
        variants = [listener.vocabulary.copy() for _ in (0, 1)]
        for flag, variant in enumerate(variants):
            variant.update(stimulus, signal, flag)
        speaking = listener.speak_ahead(next_index, next_stimulus, variants, rng)
        in_flight.extend((speaking.send(), listening.send()))
        return _Overlap(listening, before, next_candidates, speaking)

    def read(reply: Reply, kept: int | None = None) -> Generator:
        """``_read``'s answer, its request then out of ``in_flight``."""
        answer = yield from _read(reply, event_log, kept)
        in_flight.remove(reply)
        return answer

    def discard(owner: str, replies: list[Reply]) -> Generator:
        """Reads ``replies`` after one yield, logged as discarded under ``owner``, who sent them."""
        yield
        agent = event_log.context["agent"]
        event_log.set_context(agent=owner)
        for reply in replies:
            reply.discard(event_log)
            in_flight.remove(reply)
        event_log.set_context(agent=agent)

    try:
        for round_number in range(1, config.rounds + 1):
            tasks = schedule_round(train, rng, (agent_a.agent_id, agent_b.agent_id))
            # this task's candidates, speaking reply and the flag to read it
            # under, and its overlap when that was made on a right prediction
            ahead = None
            # a wrong prediction's requests and their sender, discarded once the right ones are sent
            stale: tuple[str, list[Reply]] | None = None
            for task_index, (speaker_id, stimulus) in enumerate(tasks):
                speaker = agents[speaker_id]
                listener = agents[[i for i in agents if i != speaker_id][0]]
                event_log.set_context(block="communication", round=round_number, task=task_index,
                                      agent=speaker_id)
                said = (task_index, stimulus)
                sent = signal = None
                if ahead is None:
                    candidates = draw_candidates(stimulus)
                else:  # the speaking reply read ahead is t's first attempt
                    candidates, speaking, flag, sent = ahead
                    signal = yield from read(speaking, flag)
                if signal is None:
                    signal = yield from _alone(speaker.produce_signals, said, PromptTask.SPEAKING, rng,
                                               attempts - (ahead is not None), event_log)
                ahead = None
                chosen = None
                if signal is not None:
                    event_log.set_context(agent=listener.agent_id)
                    heard = (task_index, signal, candidates, stimulus)
                    if sent is None and listener.speaks_ahead and task_index + 1 < len(tasks):
                        sent = overlap(listener, heard, task_index + 1)
                if stale is not None:
                    yield from discard(*stale)
                    stale = None
                if sent is not None:
                    next_sent = None
                    if speaker.speaks_ahead and task_index + 2 < len(tasks):
                        yield
                        next_signal = sent.speaking.peek(predicted_flag)
                        if next_signal is not None:
                            mark = rng.getstate()
                            speaker.vocabulary.update(stimulus, signal, predicted_flag)  # t's record updates it again
                            next_task = (task_index + 1, next_signal, sent.next_candidates,
                                         tasks[task_index + 1][1])
                            next_sent = overlap(speaker, next_task, task_index + 2)
                    answers = yield from read(sent.listening)
                    if answers:
                        chosen = answers[0]
                        flag = int(candidates[chosen] == stimulus)
                        if next_sent is not None and flag != predicted_flag:  # t+1's overlap is made anew
                            rng.setstate(mark)
                            stale, next_sent = (speaker_id, [next_sent.listening, next_sent.speaking]), None
                        ahead = (sent.next_candidates, sent.speaking, flag, next_sent)
                    else:  # the listener needs another attempt: t+1 runs in turn
                        yield from discard(listener.agent_id, [sent.speaking])
                        if next_sent is not None:
                            yield from discard(speaker_id, [next_sent.listening, next_sent.speaking])
                        rng.setstate(sent.before)
                if signal is not None and chosen is None:  # a listening request sent is t's first attempt
                    chosen = yield from _alone(listener.choose_many, heard, PromptTask.LISTENING, rng,
                                               attempts - (sent is not None), event_log)
                success = chosen is not None and candidates[chosen] == stimulus

                record = InteractionRecord(
                    round=round_number,
                    task=task_index,
                    speaker=speaker_id,
                    listener=listener.agent_id,
                    stimulus=stimulus,
                    signal="" if signal is None else signal,
                    candidates=tuple(candidates),
                    chosen=-1 if chosen is None else chosen,
                    success=success,
                    failure_mode=(
                        "failed-production" if signal is None
                        else "failed-choice" if chosen is None else "none"
                    ),
                )
                records.append(record)
                event_log.append(record.KIND, **record.event())

                if signal is not None:  # both vocabularies adopt the produced signal, flag = outcome
                    for agent in (agent_a, agent_b):
                        agent.vocabulary.update(stimulus, signal, int(success))

            round_vocabs[agent_a.agent_id].append(agent_a.vocabulary.copy())
            round_vocabs[agent_b.agent_id].append(agent_b.vocabulary.copy())
    finally:  # the one close path: closing a request already read does nothing
        for reply in in_flight:
            reply.close()

    return CommunicationResult(records=records, round_vocabs=round_vocabs)


def run_testing_block(
    agent: Agent,
    rng: Random,
    config: RunConfig,
    event_log: EventLog,
) -> Generator[None, None, TestingResult]:
    """A block (see ``_run``): produce a signal for all 27 stimuli, the
    context being the agent's train vocabulary minus the current stimulus;
    test stimuli never appear in context. Failed productions are flagged
    for exclusion from metrics."""
    assert agent.vocabulary is not None
    stimuli = enumerate_stimuli()

    def record(task, signal):
        _, stimulus = task
        if signal is None:
            return TestingRecord(stimulus=stimulus, signal="", failed=True)
        return TestingRecord(
            stimulus=stimulus,
            signal=signal,
            extrapolated=agent.extrapolated(stimulus),
        )

    event_log.set_context(block="testing", round=None, task=None, agent=agent.agent_id)
    records = yield from _batched(
        agent.produce_signals, PromptTask.SPEAKING, lambda i: (i, stimuli[i]), len(stimuli), rng,
        config.max_agent_retries, event_log, record,
    )
    return TestingResult(records=records)


def block_record_keys(
    config: RunConfig, agent_ids: tuple[str, str], initial_language: Vocabulary
) -> list[tuple]:
    """``(kind, block, round, task, agent)`` of each block record a complete
    run writes, in the order a run in turn writes them; an interaction's
    agent is its speaker. The counts are the blocks': guessing and
    labelling ask each stimulus of the initial language once per agent,
    each communication round asks ``schedule_round``'s tasks, and testing
    asks each stimulus of the space once per agent."""
    train = initial_language.stimuli()
    keys = [
        (kind, block, None, task, agent)
        for kind, block in ((GuessingRecord.KIND, "guessing"), (LabellingRecord.KIND, "labelling"))
        for agent in agent_ids
        for task in range(len(train))
    ]
    for round_number in range(1, config.rounds + 1):
        tasks = schedule_round(train, Random(0), agent_ids)  # speakers do not depend on the rng
        keys += [
            (InteractionRecord.KIND, "communication", round_number, task, speaker)
            for task, (speaker, _) in enumerate(tasks)
        ]
    keys += [
        (TestingRecord.KIND, "testing", None, task, agent)
        for agent in agent_ids
        for task in range(len(enumerate_stimuli()))
    ]
    return keys


def compute_metric_rows(result: SimulationResult, exact: bool = False) -> list[MetricRow]:
    """All metric rows of a run. TopSim seeds derive from the master seed and
    the row context, so recomputation (replay) is reproducible; ``exact``
    is ``vocabulary_report``'s. Each signal pair and each distinct signal
    list is measured once, for this call only."""
    config = result.config
    memo = SignalMemo()

    def row(block, pairs, round=None, agent="", **measured) -> MetricRow:
        label = block if block == "initial" else f"{block}:{round or ''}:{agent}"
        report = vocabulary_report(
            pairs,
            permutations=config.mantel_permutations,
            rng=derive_seed(config.master_seed, f"metrics:{label}"),
            memo=memo,
            exact=exact,
        )
        topsim = report.topsim
        if topsim is not None:
            measured.update(
                topsim_z=topsim.z_score,
                topsim_p=topsim.p_value,
                topsim_r=topsim.observed_r,
                permutations=topsim.permutations,
                mantel_method=topsim.method,
            )
        return MetricRow(
            block,
            round,
            agent,
            ngram_diversity=report.ngram_diversity,
            mean_signal_length=report.mean_signal_length,
            unique_signal_ratio=report.unique_signal_ratio,
            degenerate=report.degenerate,
            **measured,
        )

    initial = result.initial_language.pairs()
    rows = [row("initial", initial)]
    rows += [
        row("guessing", initial, agent=a, accuracy=result.guessing[a].accuracy)
        for a in result.agent_ids
    ]
    rows += [
        row("labelling", lab.learned.pairs(), agent=a, mean_levenshtein=lab.mean_distance)
        for a, lab in result.labelling.items()
    ]
    communication = result.communication
    rows += [
        row("communication", vocabs[n - 1].pairs(), n, a, perc_com=communication.perc_com[n - 1])
        for n in range(1, config.rounds + 1)
        for a, vocabs in communication.round_vocabs.items()
    ]
    train_set = set(result.initial_language.stimuli())
    for agent_id in result.agent_ids:
        pairs = result.testing[agent_id].pairs()
        # measured after the row, so its signal pairs are in the memo
        testing = row("testing", pairs, agent=agent_id)
        train_pairs = [(s, w) for s, w in pairs if s in train_set]
        test_pairs = [(s, w) for s, w in pairs if s not in train_set]
        if len(pairs) >= 3 and train_pairs and test_pairs:
            try:
                testing.gen_score = generalization_score(
                    train_pairs, test_pairs, pairs="cross", memo=memo.distances
                )
                testing.gen_score_pairs = "cross"
            except MetricError:
                pass
        rows.append(testing)
    return rows


def run_simulation(
    config: RunConfig,
    agents: tuple[Agent, Agent],
    event_log: EventLog,
    initial_language: Vocabulary | None = None,
) -> SimulationResult:
    """Guessing, labelling, communication, and testing for one dyad, each
    block's records appended to ``event_log``.

    Without an explicit initial language a fresh balanced split and random
    holistic language are generated from the master seed. An exception in a
    block raises ``SimulationAborted`` carrying the result filled so far.

    The two agents' lists of a block are ``_beside`` each other, both sent
    before either is read, and then the tasks each asks again alone, in
    turns; so are guessing and the rest of the run (labelling,
    communication, testing), since nothing after guessing reads its
    result. Guessing's lists go out first and are read once the rest has
    sent testing's, as the rest runs labelling and communication each to
    its end (``_run``). The records keep protocol order, so the rest's
    reach the log once guessing is read. Guessing asks copies of the agents
    that hold the initial language, which labelling and communication
    replace and update in the agents themselves. When guessing raises (a
    draw before the rest sends anything), the rest's records are dropped
    and the partial result holds no block; when the rest raises, the log
    holds guessing's records, then the rest's, then ``run_aborted``.
    """
    config.validate()
    agent_a, agent_b = agents
    seed = config.master_seed

    if initial_language is None:
        split = sample_training_set(Random(derive_seed(seed, "split")))
        initial_language = generate_language(Random(derive_seed(seed, "language")), split.train)

    event_log.set_context(simulation=f"sim-{seed:x}")
    event_log.append("run_start", master_seed=seed, agents=[agent_a.agent_id, agent_b.agent_id])

    result = SimulationResult(
        config=config,
        agent_ids=(agent_a.agent_id, agent_b.agent_id),
        initial_language=initial_language,
    )
    guessers = tuple(copy.copy(agent) for agent in agents)
    for agent in agents + guessers:
        agent.set_vocabulary(initial_language.copy())

    def side_by_side(log: EventLog, dyad: tuple, label: str, block: Callable, *inputs) -> Generator:
        # in these blocks an agent reads only its own rng and vocabulary
        def run(agent: Agent, fork: EventLog) -> Generator:
            rng = Random(derive_seed(seed, f"{label}:{agent.agent_id}"))
            return block(agent, *inputs, rng, config, fork)

        first, second = (functools.partial(run, agent) for agent in dyad)
        mine, theirs = yield from _beside(log, first, second)
        return {dyad[0].agent_id: mine, dyad[1].agent_id: theirs}

    def guessing(log: EventLog) -> Generator:
        blocks = side_by_side(log, guessers, "guessing", run_guessing_block, initial_language)
        result.guessing = yield from blocks

    def rest(log: EventLog) -> Generator:
        result.labelling = _run(side_by_side(log, agents, "labelling", run_labelling_block, initial_language))
        rng = Random(derive_seed(seed, "communication"))
        result.communication = _run(run_communication_block(agent_a, agent_b, rng, config, log))
        result.testing = yield from side_by_side(log, agents, "testing", run_testing_block)

    # each block field is assigned once both agents have finished the block
    try:
        _run(_beside(event_log, guessing, rest))
    except Exception as err:
        # a failed task is a record, not an exception: what lands here is a
        # guessing draw from a collapsed language (too few distinct signals,
        # a ValueError), a request the service refused (ServiceRefused) or a
        # programming error; each keeps the partial result
        if not result.guessing:  # the rest's blocks go with its records
            result.labelling, result.communication, result.testing = {}, None, {}
        event_log.append("run_aborted", error=str(err))
        raise SimulationAborted(str(err), result) from err

    result.metric_rows = compute_metric_rows(result)
    event_log.append("run_end", complete=True)
    return result
