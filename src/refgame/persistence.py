"""Run directories, manifests with content digests, CSV export, and replay.

A simulation persists as a self-contained directory: manifest (config,
seeds, versions, file digests), an events log (one structured record per
interaction and backend call), per-block vocabulary snapshots, and a
metrics CSV whose rows all carry a schema version. ``save_simulation``
writes one, complete or aborted; an aborted run keeps the snapshots of the
blocks it finished and an ``incomplete`` manifest. ``load_run_for_replay``
reads a completed one back, stored metric rows included: ``replay_run``
compares them with rows recomputed from the logged interactions and
snapshots, and a chain resume builds its ``chain.csv`` rows from them.
Block records are decoded by their ``engine`` type's ``from_event``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path, PurePosixPath

from . import __version__
from .backend import EventLog
from .domain import DomainError, Vocabulary, VocabularyEntry
from .engine import (
    CommunicationResult,
    EngineError,
    GuessingRecord,
    GuessingResult,
    InteractionRecord,
    LabellingRecord,
    LabellingResult,
    MetricRow,
    RunConfig,
    SimulationResult,
    TestingRecord,
    TestingResult,
    block_record_keys,
    compute_metric_rows,
    decode_fields,
)

SCHEMA_VERSION = 1


class PersistenceError(Exception):
    pass


class DigestMismatch(PersistenceError):
    pass


class SchemaVersionError(PersistenceError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_PARSERS = {"str": str, "int": int, "float": float, "bool": {"0": False, "1": True}.__getitem__}


def _cell_parser(annotation: str):
    """The reader of one row field's cells, from its annotation:
    ``float | None`` reads an empty cell as None, ``bool`` reads 0 or 1."""
    parse = _PARSERS[annotation.split(" | ")[0]]
    if annotation.endswith("| None"):
        return lambda cell: parse(cell) if cell else None
    return parse


# fixed per row type once: resolving annotations per row would dominate replay
@functools.cache
def _cell_parsers(row_type: type) -> dict:
    return {f.name: _cell_parser(f.type) for f in fields(row_type)}


def write_rows(path: str | Path, rows: list) -> None:
    """Write rows of one dataclass as a CSV: ``schema_version``, then one
    column per field, in field order."""
    columns = [f.name for f in fields(rows[0])]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["schema_version"] + columns)
        for row in rows:
            writer.writerow([SCHEMA_VERSION] + [_fmt(getattr(row, c)) for c in columns])


def read_rows(path: str | Path, row_type: type, data: bytes | None = None) -> list:
    """The rows of a CSV written by ``write_rows``, decoded as ``row_type``,
    from the file at ``path`` or, given its bytes as ``data``, from those; a
    file that is missing or cannot be decoded as UTF-8 or parsed raises
    ``PersistenceError``."""
    parsers = _cell_parsers(row_type)
    try:
        text = (Path(path).read_bytes() if data is None else data).decode()
        cell_rows = list(csv.DictReader(io.StringIO(text, newline="")))
    except (FileNotFoundError, UnicodeDecodeError, csv.Error) as err:
        raise PersistenceError(f"{path} cannot be read: {err}") from None
    rows = []
    for number, cells in enumerate(cell_rows, start=1):
        version = cells.get("schema_version") or ""
        if version.split(".")[0] != str(SCHEMA_VERSION):
            raise SchemaVersionError(f"unsupported schema version {version!r} in {path}")
        values = {}
        for column, parse in parsers.items():
            cell = cells.get(column) or ""
            try:
                values[column] = parse(cell)
            except (KeyError, ValueError):
                raise PersistenceError(
                    f"{path}: row {number}, column {column}: unreadable value {cell!r}"
                ) from None
        rows.append(row_type(**values))
    return rows


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    config: dict
    master_seed: int
    artifact_version: str = __version__
    schema_version: int = SCHEMA_VERSION
    status: str = "complete"
    started: float = 0.0
    finished: float = 0.0
    files: dict[str, str] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def save(self, run_dir: str | Path) -> None:
        path = Path(run_dir) / "manifest.json"
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunManifest":
        """The manifest of ``run_dir``; one that ``decode_fields`` refuses, or
        that names a file outside ``run_dir``, raises ``PersistenceError``."""
        path = Path(run_dir) / "manifest.json"
        if not path.exists():
            raise PersistenceError(f"no manifest in {run_dir}")
        try:
            data = json.loads(path.read_text())
        except ValueError as err:
            raise PersistenceError(f"{path} is not JSON: {err}") from None
        try:
            manifest = decode_fields(cls, data, "the manifest")
        except DomainError as err:
            raise PersistenceError(f"{path}: {err}") from None
        for name in manifest.files:
            relative = PurePosixPath(name)
            if relative.is_absolute() or ".." in relative.parts or not relative.parts:
                raise PersistenceError(
                    f"{path}: the manifest has 'files' entry {json.dumps(name)}, outside the run directory"
                )
        return manifest

    def verify_digests(self, run_dir: str | Path) -> dict[str, bytes]:
        """The bytes of each file the manifest digests, by its name, each
        file read once and checked against its digest: a caller that parses
        these parses what was checked. A missing file or another digest
        raises ``DigestMismatch``."""
        base = Path(run_dir)
        contents = {}
        for name, digest in self.files.items():
            target = base / name
            if not target.exists():
                raise DigestMismatch(f"missing file {name}")
            data = target.read_bytes()
            actual = hashlib.sha256(data).hexdigest()
            if actual != digest:
                raise DigestMismatch(f"digest mismatch for {name}: {actual} != {digest}")
            contents[name] = data
        return contents


def _vocab_path(run_dir: Path, snapshot: str, agent_id: str = "") -> Path:
    """The snapshot layout: vocab/initial.vocab, vocab/learned_A.vocab,
    vocab/round1_A.vocab, vocab/testing_A.vocab."""
    name = f"{snapshot}_{agent_id}" if agent_id else snapshot
    return run_dir / "vocab" / f"{name}.vocab"


def save_simulation(
    result: SimulationResult,
    run_dir: str | Path,
    started: float | None = None,
    extra: dict | None = None,
    error: str | None = None,
) -> RunManifest:
    """Persist a simulation: every vocab snapshot the result holds, the
    metrics CSV when it has metric rows, then the manifest with a digest of
    each file this save wrote and of the events file; ``extra`` adds
    manifest fields. A file an earlier run left in ``run_dir`` is neither
    removed nor digested.

    With ``error`` set the result is an aborted run's partial one: the
    manifest is marked ``incomplete`` and records the ``error`` and the
    ``completed_blocks``. The events file must already live at
    run_dir/events.jsonl (the engine writes it live through the EventLog);
    when it does, it is digested like every other artifact.
    """
    base = Path(run_dir)
    (base / "vocab").mkdir(parents=True, exist_ok=True)
    snapshots = {_vocab_path(base, "initial"): result.initial_language}
    for agent_id, labelling in result.labelling.items():
        snapshots[_vocab_path(base, "learned", agent_id)] = labelling.learned
    if result.communication is not None:
        for agent_id, vocabs in result.communication.round_vocabs.items():
            for round_number, vocab in enumerate(vocabs, start=1):
                snapshots[_vocab_path(base, f"round{round_number}", agent_id)] = vocab
    for agent_id, testing in result.testing.items():
        produced = Vocabulary(VocabularyEntry(s, w) for s, w in testing.pairs())
        snapshots[_vocab_path(base, "testing", agent_id)] = produced
    for path, vocab in snapshots.items():
        vocab.save(path)
    written = list(snapshots)
    if result.metric_rows:
        write_rows(base / "metrics.csv", result.metric_rows)
        written.append(base / "metrics.csv")
    if (base / "events.jsonl").is_file():
        written.append(base / "events.jsonl")
    files = {path.relative_to(base).as_posix(): file_digest(path) for path in sorted(written)}
    extra = {"agent_ids": list(result.agent_ids), **(extra or {})}
    if error is not None:
        blocks = ("guessing", "labelling", "communication", "testing")
        extra.update(error=error, completed_blocks=sorted(b for b in blocks if getattr(result, b)))
    manifest = RunManifest(
        config=asdict(result.config),
        master_seed=result.config.master_seed,
        status="complete" if error is None else "incomplete",
        started=started or time.time(),
        finished=time.time(),
        files=files,
        extra=extra,
    )
    manifest.save(base)
    return manifest


def load_run_for_replay(run_dir: str | Path) -> tuple[RunManifest, SimulationResult]:
    """Rebuild the result of a completed run from its directory alone,
    after checking every file digest, from the bytes checked (each file is
    read once): the blocks from the event log, each block record decoded
    once by its type's ``from_event``, the snapshots, and ``metric_rows``
    as stored in ``metrics.csv``. A directory that
    cannot be read back raises ``PersistenceError``, and so does a file
    read here that the manifest does not digest, a block record of another
    agent than the manifest's, an interaction outside the run's rounds or
    of another dyad, a record whose fields contradict each other (see
    ``_record_problem``), and the first block record that is missing,
    repeated or not one a complete run of the manifest's configuration
    writes (``block_record_keys``)."""
    base = Path(run_dir)
    manifest = RunManifest.load(base)
    if manifest.status != "complete":
        raise PersistenceError(
            f"run is marked {manifest.status!r}; only completed runs replay"
        )
    contents = manifest.verify_digests(base)
    # older manifests name the fixed tasks_per_round, which is no longer a setting
    config = {key: value for key, value in manifest.config.items() if key != "tasks_per_round"}
    try:
        run_config = decode_fields(RunConfig, config, "the manifest's config")
    except DomainError as err:
        raise PersistenceError(f"{base / 'manifest.json'}: {err}") from None
    try:
        run_config.validate()
    except EngineError as err:
        raise PersistenceError(f"the manifest of {run_dir} has an invalid run setting: {err}") from err
    agent_ids = manifest.extra.get("agent_ids")
    if not (type(agent_ids) is list and len(agent_ids) == 2 and all(type(a) is str for a in agent_ids)):
        raise PersistenceError(f"the manifest of {run_dir} names no two agent ids")
    if agent_ids[0] == agent_ids[1]:
        raise PersistenceError(f"the manifest of {run_dir} names agent {agent_ids[0]!r} twice")
    for agent_id in agent_ids:
        if not _vocab_path(base, "learned", agent_id).is_file():
            raise PersistenceError(
                f"the manifest of {run_dir} names agent {agent_id!r}, which has no snapshots in the run"
            )
    rounds = run_config.rounds
    read = [Path("events.jsonl"), Path("metrics.csv"), _vocab_path(Path(), "initial")] + [
        _vocab_path(Path(), snapshot, agent_id)
        for agent_id in agent_ids for snapshot in ["learned", *(f"round{n}" for n in range(1, rounds + 1))]
    ]
    for path in read:  # every file parsed below is one whose digest was checked above
        if path.as_posix() not in contents:
            raise PersistenceError(f"the manifest of {run_dir} has no digest of {path.as_posix()}")

    def snapshot(name: str, agent_id: str = "") -> Vocabulary:
        path = _vocab_path(base, name, agent_id)
        return Vocabulary.load(path, contents[path.relative_to(base).as_posix()])

    initial = snapshot("initial")
    events_path = base / "events.jsonl"
    # the digests above cover every line; only block records are decoded
    record_types = {t.KIND: t for t in (GuessingRecord, LabellingRecord, InteractionRecord, TestingRecord)}
    try:
        events = EventLog.read(contents["events.jsonl"], kinds=record_types.keys())
    except ValueError as err:  # a line that is no record, bytes that are not UTF-8
        raise PersistenceError(f"{events_path} cannot be read: {err}") from None
    # each block record decoded once and filed under its kind and agent; the
    # interactions of both agents stay one list, in log order
    dyad, ids = {tuple(agent_ids), tuple(reversed(agent_ids))}, json.dumps(agent_ids)
    # each record a complete run writes, once: the keys not yet seen, in log order
    expected = block_record_keys(run_config, tuple(agent_ids), initial)
    unseen = dict.fromkeys(expected)
    records: dict[tuple[str, str | None], list] = {}
    for event in events:
        kind, agent = event["kind"], event.get("agent")
        try:
            record = record_types[kind].from_event(event)
        except DomainError as err:
            raise PersistenceError(f"{events_path}: {err}") from None
        interaction = kind == InteractionRecord.KIND
        if agent not in agent_ids:
            problem = f"'agent': {json.dumps(agent)}, not one of the run's agents {ids}"
        elif interaction and not 1 <= record.round <= rounds:
            problem = f"'round': {record.round}, not in 1..{rounds}"
        elif interaction and (record.speaker, record.listener) not in dyad:
            speaker, listener = json.dumps(record.speaker), json.dumps(record.listener)
            problem = f"'speaker': {speaker} and 'listener': {listener}, not the run's agents {ids}"
        elif not (problem := _record_problem(record, initial, run_config)):
            key = (kind, event.get("block"), event.get("round"), event.get("task"),
                   record.speaker if interaction else agent)
            # a bool, a float or a list read from the log is no key's value, though it may equal one
            keyed = set(map(type, key)) <= _KEY_TYPES
            if not (keyed and key in unseen):
                which = "a second" if keyed and key in expected else "an unexpected"
                raise PersistenceError(f"{events_path}: {which} {_described(key)}")
            del unseen[key]
            records.setdefault((kind, None if interaction else agent), []).append(record)
            continue
        raise PersistenceError(f"{events_path}: a {kind!r} record has {problem}")
    result = SimulationResult(
        config=run_config,
        agent_ids=tuple(agent_ids),
        initial_language=initial,
        metric_rows=read_rows(base / "metrics.csv", MetricRow, contents["metrics.csv"]),
    )

    for agent_id in result.agent_ids:
        result.guessing[agent_id] = GuessingResult(records=records.get((GuessingRecord.KIND, agent_id), []))
        result.labelling[agent_id] = LabellingResult(
            records=records.get((LabellingRecord.KIND, agent_id), []),
            learned=snapshot("learned", agent_id),
        )
        result.testing[agent_id] = TestingResult(records=records.get((TestingRecord.KIND, agent_id), []))

    interactions = records.get((InteractionRecord.KIND, None), [])
    if unseen:
        raise PersistenceError(f"{events_path}: no {_described(next(iter(unseen)))}")
    round_vocabs = {
        agent_id: [snapshot(f"round{n}", agent_id) for n in range(1, rounds + 1)]
        for agent_id in result.agent_ids
    }
    result.communication = CommunicationResult(records=interactions, round_vocabs=round_vocabs)
    return manifest, result


# the types of the values of a block record's key
_KEY_TYPES = {str, int, type(None)}


def _described(key: tuple) -> str:
    kind, block, round_number, task, agent = key
    who = "speaker" if kind == InteractionRecord.KIND else "agent"
    return (f"{kind!r} record of 'block': {json.dumps(block)}, 'round': {json.dumps(round_number)}, "
            f"'task': {json.dumps(task)} and {who} {json.dumps(agent)}")


# the failure modes a record of each kind can have
_FAILURE_MODES = {
    GuessingRecord.KIND: ["none", "failed-choice"],
    InteractionRecord.KIND: ["none", "failed-production", "failed-choice"],
}


def _record_problem(record, initial: Vocabulary, config: RunConfig) -> str:
    """What a block record's fields contradict, or "". A failed label keeps
    its ``truth`` as ``produced``; a failed testing record has no signal and
    is not ``extrapolated``, and an extrapolated one is of a stimulus
    outside the initial language, whose every stimulus the agent stores. A
    guess or interaction has a ``failure_mode`` of its kind; an
    interaction's signal is empty exactly on a failed production;
    ``chosen`` is -1 or a position among the candidates, -1 exactly when
    ``failure_mode`` is not "none", and ``success`` (``correct``) says
    whether the chosen candidate is the stimulus (the initial language's
    signal for it, which a guess's stimulus must have). An interaction's
    candidates are ``candidate_count`` distinct training stimuli (the
    initial language's) among them its stimulus; a guess's are
    ``guessing_distractors`` + 1 signals among them its stimulus's (a
    collapsed language repeats signals, so they need not be distinct)."""
    if isinstance(record, LabellingRecord):
        if record.failed and record.produced != record.truth:
            produced, truth = json.dumps(record.produced), json.dumps(record.truth)
            return f"'failed': true and 'produced': {produced}, not its 'truth' {truth}"
        return ""
    if isinstance(record, TestingRecord):
        if record.failed and (record.signal or record.extrapolated):
            signal, extrapolated = json.dumps(record.signal), json.dumps(record.extrapolated)
            return (f"'failed': true with 'signal': {signal} and 'extrapolated': {extrapolated}, "
                    'not "" and false')
        if record.extrapolated and record.stimulus in initial:
            stimulus = json.dumps(record.stimulus)
            return f"'extrapolated': true for 'stimulus': {stimulus}, in the initial language"
        return ""
    failure_mode, modes = record.failure_mode, _FAILURE_MODES[record.KIND]
    if failure_mode not in modes:
        return f"'failure_mode': {json.dumps(failure_mode)}, not one of {json.dumps(modes)}"
    failed_production = failure_mode == "failed-production"
    if isinstance(record, InteractionRecord) and (record.signal == "") != failed_production:
        signal = json.dumps(record.signal)
        return (f"'signal': {signal} and 'failure_mode': {json.dumps(failure_mode)}, "
                "not empty exactly on a failed production")
    chosen, candidates = record.chosen, record.candidates
    if not -1 <= chosen < len(candidates):
        return f"'chosen': {chosen}, not -1 or one of {len(candidates)} positions"
    if (chosen == -1) != (failure_mode != "none"):
        failure_mode = json.dumps(failure_mode)
        return f"'chosen': {chosen} and 'failure_mode': {failure_mode}, not -1 exactly on a failure"
    if isinstance(record, InteractionRecord):
        name, target = "success", record.stimulus
    elif record.stimulus in initial:
        name, target = "correct", initial.signal_for(record.stimulus)
    else:
        return f"'stimulus': {json.dumps(record.stimulus)}, not in the initial language"
    given = getattr(record, name)
    if given != (chosen != -1 and candidates[chosen] == target):
        return f"{name!r}: {json.dumps(given)}, not {json.dumps(not given)} for 'chosen': {chosen}"
    if isinstance(record, InteractionRecord):
        count = config.candidate_count
        if not (len(set(candidates)) == len(candidates) == count and target in candidates
                and all(candidate in initial for candidate in candidates)):
            return (f"'candidates': {json.dumps(candidates)}, not {count} distinct training stimuli "
                    f"among them its 'stimulus' {json.dumps(target)}")
        return ""
    count = config.guessing_distractors + 1
    if not (len(candidates) == count and target in candidates):
        return (f"'candidates': {json.dumps(candidates)}, not {count} signals among them "
                f"{json.dumps(target)}, the initial language's for its 'stimulus'")
    return ""


@dataclass
class ReplayMismatch:
    block: str
    round: str
    agent: str
    column: str
    stored: str
    recomputed: str


@dataclass
class ReplayReport:
    ok: bool
    mismatches: list[ReplayMismatch]
    rows_checked: int


def replay_run(run_dir: str | Path, tolerance: float = 1e-9) -> ReplayReport:
    """Offline verification: digests, then metric recomputation from the
    event log and vocabulary snapshots, compared against the stored CSV."""
    _, result = load_run_for_replay(run_dir)
    stored, recomputed = result.metric_rows, compute_metric_rows(result)
    mismatches: list[ReplayMismatch] = []
    if len(stored) != len(recomputed):
        mismatches.append(
            ReplayMismatch("*", "", "", "row_count", str(len(stored)), str(len(recomputed)))
        )
        return ReplayReport(ok=False, mismatches=mismatches, rows_checked=0)
    columns = [f.name for f in fields(MetricRow)]
    for old, new in zip(stored, recomputed):
        for column in columns:
            a, b = getattr(old, column), getattr(new, column)
            if isinstance(a, float) and isinstance(b, float):
                if abs(a - b) <= tolerance:
                    continue
            elif a == b:
                continue
            mismatches.append(
                ReplayMismatch(
                    block=old.block,
                    round=_fmt(old.round),
                    agent=old.agent,
                    column=column,
                    stored=_fmt(a),
                    recomputed=_fmt(b),
                )
            )
    return ReplayReport(ok=not mismatches, mismatches=mismatches, rows_checked=len(stored))


@dataclass
class ChainRow:
    """One ``chain.csv`` row, one per generation: the field names are the
    columns after ``schema_version``, in column order."""

    chain: int
    generation: int
    donor: str
    learnability: float
    perc_com: float
    topsim_z: float | None
    topsim_p: float | None
    ngram_diversity: float | None
    unique_signal_ratio: float | None


def chain_row(
    chain_index: int, generation: int, donor_id: str, metric_rows: list[MetricRow]
) -> ChainRow:
    """One chain-level CSV row per generation, from the generation's metric
    rows (in memory or loaded by ``load_run_for_replay``).

    Learnability is the mean labelling Levenshtein distance. perc_com is the
    mean over rounds with each round counted once: every agent's row repeats
    its round's value, and averaging the repeats rounds differently in the
    last digit. The structure columns are copied from the donor's testing row.
    Rows without a labelling row, a communication row or the donor's testing
    row raise ``PersistenceError``.
    """
    labelling = [row.mean_levenshtein for row in metric_rows if row.block == "labelling"]
    per_round = {row.round: row.perc_com for row in metric_rows if row.block == "communication"}
    donor_row = next(
        (row for row in metric_rows if row.block == "testing" and row.agent == donor_id), None
    )
    if not labelling or not per_round or donor_row is None:
        raise PersistenceError(
            f"the metric rows lack a labelling row, a communication row "
            f"or donor {donor_id}'s testing row"
        )
    return ChainRow(
        chain=chain_index,
        generation=generation,
        donor=donor_id,
        learnability=sum(labelling) / len(labelling),
        perc_com=sum(per_round.values()) / len(per_round),
        topsim_z=donor_row.topsim_z,
        topsim_p=donor_row.topsim_p,
        ngram_diversity=donor_row.ngram_diversity,
        unique_signal_ratio=donor_row.unique_signal_ratio,
    )
