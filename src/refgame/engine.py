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

import hashlib
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from random import Random
from typing import Callable, Iterator, Sequence

from .agents import Agent
from .backend import EventLog
from .domain import (
    Signal,
    Stimulus,
    Vocabulary,
    enumerate_stimuli,
    sample_training_set,
    generate_language,
)
from .metrics import (
    MetricError,
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
    tasks_per_round: int = 30
    candidate_count: int = 4  # target + 3 distractors; chance level 25%
    guessing_distractors: int = 3
    mantel_permutations: int = 10_000
    max_agent_retries: int = 3

    def validate(self) -> None:
        if self.rounds < 1:
            raise EngineError("rounds must be >= 1")
        if self.tasks_per_round != 30:
            raise EngineError("the paper schedule fixes tasks_per_round at 30 (2 x 15 stimuli)")
        if not 2 <= self.candidate_count <= 15:
            raise EngineError("candidate_count must be between 2 and 15")
        if not 1 <= self.guessing_distractors <= 14:
            raise EngineError("guessing_distractors must be between 1 and 14")
        if self.mantel_permutations < 1:
            raise EngineError("mantel_permutations must be >= 1")
        if self.max_agent_retries < 1:
            raise EngineError("max_agent_retries must be >= 1")


def _encode(value):
    if isinstance(value, Stimulus):
        return value.attributes()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(name: str, value):
    # fixed by field name: resolving annotations per event would dominate replay
    if name == "stimulus":
        return Stimulus(*value)
    if name == "candidates":
        # guessing candidates are signals, interaction candidates stimuli
        return tuple(Stimulus(*c) if isinstance(c, list) else c for c in value)
    return value


class _BlockEvent:
    """A block record is its own ``events.jsonl`` event of kind ``KIND``: the
    field names are the event keys, in declaration order, and stimuli are
    written as ``[shape, colour, amount]``. A key missing from an older log
    decodes to the field's default."""

    def event(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_event(cls, event: dict):
        return cls(
            **{f.name: _decode(f.name, event[f.name]) for f in fields(cls) if f.name in event}
        )


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


def _context(event_log: EventLog | None, **fields) -> None:
    if event_log is not None:
        event_log.set_context(**fields)


def _emit(event_log: EventLog | None, kind: str, **fields) -> None:
    if event_log is not None:
        event_log.append(kind, **fields)


def _side_by_side(event_log: EventLog | None, agents: tuple[Agent, Agent], block: Callable) -> dict:
    """``block(agent)`` for both agents at once, keyed by agent id: the first
    agent's on this thread, the second's on a worker thread, whose event-log
    records are held and written after the first's (``EventLog.release``).
    When the first raises, its exception propagates and the second's records
    are dropped, as if the second had never run; when only the second
    raises, its records are written and then its exception is raised here."""
    first, second = agents
    held = event_log.hold() if event_log is not None else None
    outcome: dict = {}

    def run_second() -> None:
        try:
            with nullcontext() if held is None else event_log.holding(held):
                outcome["answer"] = block(second)
        except BaseException as err:  # raised again on the calling thread
            outcome["error"] = err

    worker = threading.Thread(target=run_second)
    worker.start()
    try:
        mine = block(first)
    finally:
        worker.join()
    if held is not None:
        event_log.release(held)
    if "error" in outcome:
        raise outcome["error"]
    return {first.agent_id: mine, second.agent_id: outcome["answer"]}


def _alone(ask: Callable, item: tuple, prompt_task: PromptTask, rng: Random, attempts: int):
    """The answer to one task, asked as a list of one (``ask`` is an agent's
    list method) up to ``attempts`` times; ``None`` when no attempt answers."""
    for _ in range(attempts):
        answers = ask([item], prompt_task, rng)
        if answers:
            return answers[0]
    return None


def _batched(
    ask: Callable[[Iterator, PromptTask, Random], list],
    prompt_task: PromptTask,
    draw: Callable,
    count: int,
    rng: Random,
    attempts: int,
    event_log: EventLog | None,
) -> Iterator:
    """``(task, answer)`` for each of ``count`` tasks, in order, with the
    event log's context ``task`` set to the task's index; ``answer`` is
    ``None`` for a failed task.

    ``ask`` (an agent's list method) is first handed a generator of the
    tasks ``draw(task_index)`` makes, which sets the context ``task`` and keeps
    the rng state before each draw, so the draws interleave with the
    agent's own as they do task by task, and sets ``task`` back to ``None``
    once exhausted. From the first task the list left unanswered on, the
    rng goes back to where that task began, and each task is drawn anew
    and asked ``_alone``."""
    states, drawn = [], []

    def tasks():
        for task_index in range(count):
            _context(event_log, task=task_index)
            states.append(rng.getstate())
            drawn.append(draw(task_index))
            yield drawn[-1]
        _context(event_log, task=None)

    answers = ask(tasks(), prompt_task, rng)
    if len(answers) < len(states):
        rng.setstate(states[len(answers)])
    for task_index in range(count):
        _context(event_log, task=task_index)
        if task_index < len(answers):
            yield drawn[task_index], answers[task_index]
        else:
            item = draw(task_index)
            yield item, _alone(ask, item, prompt_task, rng, attempts)


def run_guessing_block(
    agent: Agent,
    vocab: Vocabulary,
    rng: Random,
    distractors: int = 3,
    event_log: EventLog | None = None,
    attempts: int = RunConfig.max_agent_retries,
) -> GuessingResult:
    """Each training stimulus once, in random order: pick the true signal out
    of ``distractors`` + 1 candidates drawn from other entries. The context
    vocabulary includes the current stimulus."""
    order = list(vocab.stimuli())
    rng.shuffle(order)

    def draw(task_index):
        stimulus = order[task_index]
        truth = vocab.signal_for(stimulus)
        others = [e.signal for e in vocab if e.stimulus != stimulus and e.signal != truth]
        candidates = [truth] + rng.sample(others, distractors)
        rng.shuffle(candidates)
        return task_index, stimulus, candidates, None

    records = []
    _context(event_log, block="guessing", round=None, task=None, agent=agent.agent_id)
    tasks = _batched(
        agent.choose_many, PromptTask.GUESSING, draw, len(order), rng, attempts, event_log
    )
    for (_, stimulus, candidates, _), chosen in tasks:
        truth = vocab.signal_for(stimulus)
        failure_mode = "none"
        if chosen is None:
            chosen, failure_mode = -1, "failed-choice"
        record = GuessingRecord(
            stimulus=stimulus,
            candidates=tuple(candidates),
            chosen=chosen,
            correct=failure_mode == "none" and candidates[chosen] == truth,
            failure_mode=failure_mode,
        )
        records.append(record)
        _emit(event_log, record.KIND, **record.event())
    return GuessingResult(records=records)


def run_labelling_block(
    agent: Agent,
    vocab: Vocabulary,
    rng: Random,
    event_log: EventLog | None = None,
    attempts: int = RunConfig.max_agent_retries,
) -> LabellingResult:
    """Produce a signal for every training stimulus with the full vocabulary
    (current stimulus included) in context. The productions replace the
    agent's entries and become its learned vocabulary; failed productions
    retain the ground-truth signal."""
    order = list(vocab.stimuli())
    rng.shuffle(order)
    learned = vocab.copy()
    records = []
    _context(event_log, block="labelling", round=None, task=None, agent=agent.agent_id)
    tasks = _batched(
        agent.produce_signals, PromptTask.LABELLING, lambda i: (i, order[i]), len(order), rng,
        attempts, event_log,
    )
    for (_, stimulus), produced in tasks:
        truth = vocab.signal_for(stimulus)
        failed = produced is None
        if failed:
            produced = truth
        learned.update(stimulus, produced, 0)
        record = LabellingRecord(
            stimulus=stimulus,
            truth=truth,
            produced=produced,
            failed=failed,
        )
        records.append(record)
        _emit(event_log, record.KIND, **record.event())
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


def run_communication_block(
    agent_a: Agent,
    agent_b: Agent,
    rng: Random,
    config: RunConfig,
    event_log: EventLog | None = None,
) -> CommunicationResult:
    """The referential game: per task the speaker produces a signal for the
    target from its own vocabulary (target excluded from context); the
    listener picks the target out of ``candidate_count`` stimuli by scoring
    each candidate. Afterwards both agents map the target to the produced
    signal and set its success flag to the outcome."""
    assert agent_a.vocabulary is not None and agent_b.vocabulary is not None
    agent_a.vocabulary.track_success = True
    agent_b.vocabulary.track_success = True
    agents = {agent_a.agent_id: agent_a, agent_b.agent_id: agent_b}
    train = list(agent_a.vocabulary.stimuli())
    attempts = config.max_agent_retries
    records: list[InteractionRecord] = []
    round_vocabs: dict[str, list[Vocabulary]] = {agent_a.agent_id: [], agent_b.agent_id: []}

    for round_number in range(1, config.rounds + 1):
        tasks = schedule_round(train, rng, (agent_a.agent_id, agent_b.agent_id))
        for task_index, (speaker_id, stimulus) in enumerate(tasks):
            speaker = agents[speaker_id]
            listener = agents[[i for i in agents if i != speaker_id][0]]
            _context(
                event_log,
                block="communication",
                round=round_number,
                task=task_index,
                agent=speaker_id,
            )
            distractors = rng.sample([s for s in train if s != stimulus], config.candidate_count - 1)
            candidates = [stimulus] + distractors
            rng.shuffle(candidates)

            said = (task_index, stimulus)
            signal = _alone(speaker.produce_signals, said, PromptTask.SPEAKING, rng, attempts)
            chosen = None
            if signal is not None:
                _context(event_log, agent=listener.agent_id)
                heard = (task_index, signal, candidates, stimulus)
                chosen = _alone(listener.choose_many, heard, PromptTask.LISTENING, rng, attempts)
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
            _emit(event_log, record.KIND, **record.event())

            # both vocabularies adopt the produced signal, flag = outcome
            if signal is not None:
                flag = 1 if success else 0
                agent_a.vocabulary.update(stimulus, signal, flag)
                agent_b.vocabulary.update(stimulus, signal, flag)

        round_vocabs[agent_a.agent_id].append(agent_a.vocabulary.copy())
        round_vocabs[agent_b.agent_id].append(agent_b.vocabulary.copy())

    return CommunicationResult(records=records, round_vocabs=round_vocabs)


def run_testing_block(
    agent: Agent,
    rng: Random,
    event_log: EventLog | None = None,
    attempts: int = RunConfig.max_agent_retries,
) -> TestingResult:
    """Produce a signal for all 27 stimuli, the context being the agent's
    train vocabulary minus the current stimulus; test stimuli never appear
    in context. Failed productions are flagged for exclusion from metrics."""
    assert agent.vocabulary is not None
    stimuli = enumerate_stimuli()
    records = []
    _context(event_log, block="testing", round=None, task=None, agent=agent.agent_id)
    tasks = _batched(
        agent.produce_signals, PromptTask.SPEAKING, lambda i: (i, stimuli[i]), len(stimuli), rng,
        attempts, event_log,
    )
    for (_, stimulus), signal in tasks:
        if signal is None:
            record = TestingRecord(stimulus=stimulus, signal="", failed=True)
        else:
            record = TestingRecord(
                stimulus=stimulus,
                signal=signal,
                extrapolated=agent.extrapolated(stimulus),
            )
        records.append(record)
        _emit(event_log, record.KIND, **record.event())
    return TestingResult(records=records)


def compute_metric_rows(result: SimulationResult) -> list[MetricRow]:
    """All metric rows of a run. TopSim seeds derive from the master seed and
    the row context, so recomputation (replay) is reproducible. Signal
    distances are memoised for this call only."""
    config = result.config
    distances: dict[tuple[str, str], float] = {}

    def row(block, pairs, round=None, agent="", **measured) -> MetricRow:
        label = block if block == "initial" else f"{block}:{round or ''}:{agent}"
        report = vocabulary_report(
            pairs,
            permutations=config.mantel_permutations,
            rng=derive_seed(config.master_seed, f"metrics:{label}"),
            memo=distances,
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
        train_pairs = [(s, w) for s, w in pairs if s in train_set]
        test_pairs = [(s, w) for s, w in pairs if s not in train_set]
        generalization = {}
        if len(pairs) >= 3 and train_pairs and test_pairs:
            try:
                generalization = {
                    "gen_score": generalization_score(train_pairs, test_pairs, pairs="cross"),
                    "gen_score_pairs": "cross",
                }
            except MetricError:
                pass
        rows.append(row("testing", pairs, agent=agent_id, **generalization))
    return rows


def run_simulation(
    config: RunConfig,
    agents: tuple[Agent, Agent],
    initial_language: Vocabulary | None = None,
    event_log: EventLog | None = None,
) -> SimulationResult:
    """Guessing, labelling, communication, and testing for one dyad.

    Without an explicit initial language a fresh balanced split and random
    holistic language are generated from the master seed. An exception in a
    block raises ``SimulationAborted`` carrying the result filled so far.
    """
    config.validate()
    agent_a, agent_b = agents
    seed = config.master_seed

    if initial_language is None:
        split = sample_training_set(Random(derive_seed(seed, "split")))
        initial_language = generate_language(Random(derive_seed(seed, "language")), split.train)

    _context(event_log, simulation=f"sim-{seed:x}")
    _emit(event_log, "run_start", master_seed=seed, agents=[agent_a.agent_id, agent_b.agent_id])

    result = SimulationResult(
        config=config,
        agent_ids=(agent_a.agent_id, agent_b.agent_id),
        initial_language=initial_language,
    )
    for agent in agents:
        agent.set_vocabulary(initial_language.copy())

    # each block field is assigned once both agents have finished the block;
    # in guessing, labelling and testing an agent reads only its own rng and
    # vocabulary, so the two agents run those blocks side by side
    try:
        result.guessing = _side_by_side(event_log, agents, lambda agent: run_guessing_block(
            agent,
            initial_language,
            Random(derive_seed(seed, f"guessing:{agent.agent_id}")),
            distractors=config.guessing_distractors,
            event_log=event_log,
            attempts=config.max_agent_retries,
        ))
        result.labelling = _side_by_side(event_log, agents, lambda agent: run_labelling_block(
            agent,
            initial_language,
            Random(derive_seed(seed, f"labelling:{agent.agent_id}")),
            event_log=event_log,
            attempts=config.max_agent_retries,
        ))
        result.communication = run_communication_block(
            agent_a,
            agent_b,
            Random(derive_seed(seed, "communication")),
            config,
            event_log=event_log,
        )
        result.testing = _side_by_side(event_log, agents, lambda agent: run_testing_block(
            agent,
            Random(derive_seed(seed, f"testing:{agent.agent_id}")),
            event_log=event_log,
            attempts=config.max_agent_retries,
        ))
    except Exception as err:
        # a failed task is a record, not an exception: what lands here is a
        # guessing draw from a collapsed language (too few distinct signals,
        # a ValueError) or a programming error; both keep the partial result
        _emit(event_log, "run_aborted", error=str(err))
        raise SimulationAborted(str(err), result) from err

    result.metric_rows = compute_metric_rows(result)
    _emit(event_log, "run_end", complete=True)
    return result
