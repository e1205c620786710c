"""Iterated-learning transmission chains.

Each generation's dyad learns a 15-item portion of the previous
generation's testing-block output; the donor is the agent whose 27-item
testing vocabulary scores the higher TopSim Z. Success flags reset at every
hand-off.

``run_chain`` is the one chain runner: the directory layout, every seed
label of a chain, resume, the ``seed_from`` import and the saves live here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random
from typing import Callable, Sequence

from .agents import Agent
from .backend import EventLog
from .domain import (
    Signal,
    Stimulus,
    Vocabulary,
    VocabularyEntry,
    enumerate_stimuli,
    sample_training_set,
)
from .engine import RunConfig, SimulationAborted, SimulationResult, derive_seed, run_simulation
from .metrics import DegenerateMatrixError, topsim_mantel
from .persistence import (
    ChainRow,
    PersistenceError,
    chain_row,
    load_run_for_replay,
    save_simulation,
    write_rows,
)


class ChainError(Exception):
    pass


@dataclass
class ChainConfig:
    chains: int = 6
    generations: int = 8
    donor_permutations: int = 1000
    # a simulation directory imported as generation 0 of every chain
    seed_from: str | None = None

    def validate(self) -> None:
        if self.chains < 1:
            raise ChainError("chains must be >= 1")
        if self.generations < 1:
            raise ChainError("generations must be >= 1")
        if self.donor_permutations < 1:
            raise ChainError("donor_permutations must be >= 1")


@dataclass
class DonorSelection:
    donor_id: str
    pairs: list[tuple[Stimulus, Signal]]
    degenerate: bool


@dataclass
class GenerationRecord:
    """One generation this call ran. It trained on ``result.initial_language``
    and transmitted ``result.testing[donor_id].pairs()``."""

    generation: int
    result: SimulationResult
    donor_id: str


def select_donor(
    test_a: Sequence[tuple[Stimulus, Signal]],
    test_b: Sequence[tuple[Stimulus, Signal]],
    agent_ids: tuple[str, str],
    permutations: int,
    rng,
) -> DonorSelection:
    """The testing vocabulary with the higher TopSim Z wins. A degenerate
    vocabulary ranks below every real Z, ties go to the first agent, and
    ``degenerate`` flags a degenerate vocabulary on either side."""
    outputs = {agent_ids[0]: list(test_a), agent_ids[1]: list(test_b)}
    for agent_id, pairs in outputs.items():
        if len(pairs) != len(enumerate_stimuli()):
            raise ChainError(f"incomplete testing output for agent {agent_id}")
    z_scores: dict[str, float] = {}
    for agent_id, pairs in outputs.items():
        try:
            z_scores[agent_id] = topsim_mantel(pairs, permutations=permutations, rng=rng).z_score
        except DegenerateMatrixError:
            z_scores[agent_id] = -math.inf
    donor = max(agent_ids, key=z_scores.__getitem__)
    return DonorSelection(donor, outputs[donor], degenerate=-math.inf in z_scores.values())


def derive_training_language(
    transmitted: Sequence[tuple[Stimulus, Signal]],
    rng: Random,
) -> Vocabulary:
    """A fresh balanced 15-stimulus split over the transmitted 27-item
    vocabulary; each train stimulus keeps its transmitted signal, success
    flags reset to 0."""
    signal_for = {s: w for s, w in transmitted}
    if set(signal_for) != set(enumerate_stimuli()):
        raise ChainError("transmitted vocabulary must cover all 27 stimuli")
    split = sample_training_set(rng)
    return Vocabulary(VocabularyEntry(s, signal_for[s], 0) for s in split.train)


def chain_dir(out_dir: str | Path, chain_index: int) -> Path:
    """The directory of chain ``chain_index`` under ``out_dir``."""
    return Path(out_dir) / f"chain-{chain_index:02d}"


def _generation_run_config(run: RunConfig, chain_seed: int, generation: int) -> RunConfig:
    return replace(run, master_seed=derive_seed(chain_seed, f"generation:{generation}"))


def _select_generation_donor(
    config: ChainConfig, chain_seed: int, generation: int, result: SimulationResult
) -> DonorSelection:
    a_id, b_id = result.agent_ids
    return select_donor(
        result.testing[a_id].pairs(),
        result.testing[b_id].pairs(),
        result.agent_ids,
        permutations=config.donor_permutations,
        rng=derive_seed(chain_seed, f"donor:{generation}"),
    )


def _finished_generations(
    config: ChainConfig, run: RunConfig, chain_seed: int, chain_index: int, directory: Path,
    agent_specs: list[str] | None,
) -> tuple[list[ChainRow], list[tuple[Stimulus, Signal]] | None]:
    """chain.csv rows of the finished generations and the last donor's
    testing output (None when nothing is finished): the ``seed_from`` import
    as generation 0, then the longest prefix of complete, digest-valid
    generation directories whose manifest names one of their agents as
    donor, each row rebuilt from that generation's digest-checked metric
    rows (rows ``chain_row`` refuses end the prefix); a stored
    ``chain.csv`` is never read.
    A finished generation run with another RunConfig than this chain's,
    or whose manifest records other ``agent_specs``, raises
    ``PersistenceError``: a resume never splices in another
    configuration's trace. A manifest that records no specs is not
    checked for them."""
    rows: list[ChainRow] = []
    transmitted = None
    if config.seed_from:
        seed_dir = Path(config.seed_from)
        _, seed_result = load_run_for_replay(seed_dir)
        try:
            selection = _select_generation_donor(config, chain_seed, 0, seed_result)
            rows.append(chain_row(chain_index, 0, selection.donor_id, seed_result.metric_rows))
        except (ChainError, PersistenceError) as err:
            raise PersistenceError(f"{seed_dir} cannot seed a chain: {err}") from err
        transmitted = selection.pairs
    for generation in range(len(rows), config.generations):
        gen_dir = directory / f"gen{generation:02d}"
        try:
            manifest, result = load_run_for_replay(gen_dir)
        except PersistenceError:
            break
        donor_id = manifest.extra.get("donor_id")
        if donor_id not in result.agent_ids:
            break
        if result.config != _generation_run_config(run, chain_seed, generation):
            raise PersistenceError(f"{gen_dir} was run with another configuration")
        recorded = manifest.extra.get("agent_specs", agent_specs)
        if agent_specs is not None and recorded != agent_specs:
            raise PersistenceError(
                f"{gen_dir} was run with another configuration: "
                f"agent_specs {recorded}, not {agent_specs}"
            )
        try:
            rows.append(chain_row(chain_index, generation, donor_id, result.metric_rows))
        except PersistenceError:
            break
        transmitted = result.testing[donor_id].pairs()
    return rows, transmitted


def run_chain(
    config: ChainConfig,
    run: RunConfig,
    master_seed: int,
    chain_index: int,
    out_dir: str | Path,
    agent_factory: Callable[[], tuple[Agent, Agent]],
    agent_specs: list[str] | None = None,
    service: dict | None = None,
) -> list[GenerationRecord]:
    """Run chain ``chain_index`` into ``chain_dir(out_dir, chain_index)``,
    resuming after the generations already finished there; returns the
    records of the generations this call ran.

    ``agent_factory()`` builds a fresh dyad for each generation; when
    ``agent_specs`` names the specs it builds from (``make_agent``'s), each
    generation's manifest, finished or aborted, records them and a resume
    checks them; ``service``, the settings of an llm agent's service
    (``BackendDescriptor.service``), is recorded beside them.
    Each generation is saved, and ``chain.csv`` rewritten, as soon as it
    finishes; one that aborts, or whose dyad has no complete testing output
    to transmit, is saved as incomplete before its ``SimulationAborted``
    propagates. Seeds derive from the chain seed and the generation index,
    so a resumed chain equals an uninterrupted one.
    """
    config.validate()
    chain_seed = derive_seed(master_seed, f"chain:{chain_index}")
    directory = chain_dir(out_dir, chain_index)
    rows, transmitted = _finished_generations(
        config, run, chain_seed, chain_index, directory, agent_specs
    )
    # made after the seed loads, so a refused seed leaves no directory behind
    directory.mkdir(parents=True, exist_ok=True)
    records: list[GenerationRecord] = []
    for generation in range(len(rows), config.generations):
        training_language = None  # a fresh generation 0 generates its own
        if transmitted is not None:
            training_language = derive_training_language(
                transmitted, Random(derive_seed(chain_seed, f"portion:{generation}"))
            )
        gen_dir = directory / f"gen{generation:02d}"
        specs = {} if agent_specs is None else {"agent_specs": agent_specs}
        if service is not None:
            specs["service"] = service
        agents = agent_factory()
        with EventLog(gen_dir / "events.jsonl") as event_log:
            event_log.set_context(generation=generation)
            started = time.time()
            try:
                result = run_simulation(
                    _generation_run_config(run, chain_seed, generation),
                    agents,
                    initial_language=training_language,
                    event_log=event_log,
                )
                try:
                    selection = _select_generation_donor(config, chain_seed, generation, result)
                except ChainError as err:  # nothing complete to transmit
                    raise SimulationAborted(str(err), result) from err
            except SimulationAborted as err:
                save_simulation(err.partial, gen_dir, started=started, error=str(err), extra=specs)
                raise
        save_simulation(
            result,
            gen_dir,
            started=started,
            extra={
                "donor_id": selection.donor_id,
                "donor_degenerate": selection.degenerate,
                "generation": generation,
                **specs,
            },
        )
        rows.append(chain_row(chain_index, generation, selection.donor_id, result.metric_rows))
        write_rows(directory / "chain.csv", rows)
        records.append(GenerationRecord(generation, result, selection.donor_id))
        transmitted = selection.pairs
    write_rows(directory / "chain.csv", rows)
    return records
