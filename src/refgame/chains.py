"""Iterated-learning transmission chains.

Each generation's dyad learns a 15-item portion of the previous
generation's testing-block output; the donor is the agent whose 27-item
testing vocabulary scores the higher TopSim Z. Success flags reset at every
hand-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from .engine import RunConfig, SimulationResult, derive_seed, run_simulation
from .metrics import DegenerateMatrixError, topsim_mantel


class ChainError(Exception):
    pass


@dataclass
class ChainConfig:
    generations: int = 8
    master_seed: int = 0
    run: RunConfig = field(default_factory=RunConfig)
    donor_permutations: int = 1000
    # sparse per-generation RunConfig field overrides, e.g. {3: {"rounds": 2}}
    generation_overrides: dict[int, dict] = field(default_factory=dict)

    def validate(self) -> None:
        if self.generations < 1:
            raise ChainError("generations must be >= 1")
        if self.donor_permutations < 1:
            raise ChainError("donor_permutations must be >= 1")
        # master_seed is derived per generation, never overridden
        valid_fields = set(RunConfig.__dataclass_fields__) - {"master_seed"}
        for generation, overrides in self.generation_overrides.items():
            if not isinstance(overrides, dict):
                raise ChainError(f"overrides for generation {generation} must be a mapping")
            unknown = set(overrides) - valid_fields
            if unknown:
                raise ChainError(
                    f"unknown RunConfig override(s) {sorted(unknown)} for generation {generation}"
                )


@dataclass
class DonorSelection:
    donor_id: str
    pairs: list[tuple[Stimulus, Signal]]
    z_scores: dict[str, float | None]
    degenerate: bool = False


@dataclass
class GenerationRecord:
    generation: int
    training_language: Vocabulary
    result: SimulationResult
    donor_id: str
    transmitted: list[tuple[Stimulus, Signal]]
    donor_degenerate: bool = False


def select_donor(
    test_a: Sequence[tuple[Stimulus, Signal]],
    test_b: Sequence[tuple[Stimulus, Signal]],
    agent_ids: tuple[str, str],
    permutations: int = 1000,
    rng=None,
) -> DonorSelection:
    """The testing vocabulary with the higher TopSim Z wins; ties and the
    both-degenerate case resolve to the first agent, degeneracy flagged."""
    outputs = {agent_ids[0]: list(test_a), agent_ids[1]: list(test_b)}
    for agent_id, pairs in outputs.items():
        if len(pairs) != len(enumerate_stimuli()):
            raise ChainError(f"incomplete testing output for agent {agent_id}")
    z_scores: dict[str, float | None] = {}
    for agent_id, pairs in outputs.items():
        try:
            z_scores[agent_id] = topsim_mantel(pairs, permutations=permutations, rng=rng).z_score
        except DegenerateMatrixError:
            z_scores[agent_id] = None
    a_id, b_id = agent_ids
    za, zb = z_scores[a_id], z_scores[b_id]
    if za is None and zb is None:
        return DonorSelection(a_id, outputs[a_id], z_scores, degenerate=True)
    if za is None:
        return DonorSelection(b_id, outputs[b_id], z_scores, degenerate=True)
    if zb is None:
        return DonorSelection(a_id, outputs[a_id], z_scores, degenerate=True)
    donor = a_id if za >= zb else b_id
    return DonorSelection(donor, outputs[donor], z_scores)


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


def run_chain(
    config: ChainConfig,
    agent_factory: Callable[[int], tuple[Agent, Agent]],
    event_log_factory: Callable[[int], EventLog | None] | None = None,
    on_generation: Callable[[GenerationRecord], None] | None = None,
    start_generation: int = 0,
    training_language: Vocabulary | None = None,
) -> list[GenerationRecord]:
    """One transmission chain of ``generations`` dyad simulations.

    ``agent_factory(generation)`` supplies a fresh dyad per generation.
    Generation 0 starts from ``training_language`` when given, else from a
    fresh random language; later generations learn a derived portion of the
    previous donor's testing output. A failed generation aborts the chain;
    earlier records (already passed to ``on_generation``) survive.

    ``start_generation`` > 0 resumes an interrupted chain: seeds are derived
    from global generation indices, so a resumed chain reproduces the exact
    trace of an uninterrupted one given the same ``training_language`` for
    the first executed generation.
    """
    config.validate()
    if start_generation > 0 and training_language is None:
        raise ChainError("resuming a chain requires the derived training language")
    records: list[GenerationRecord] = []
    for generation in range(start_generation, config.generations):
        event_log = event_log_factory(generation) if event_log_factory else None
        if event_log is not None:
            event_log.set_context(generation=generation)
        agents = agent_factory(generation)
        run_config = replace(
            config.run,
            **config.generation_overrides.get(generation, {}),
            master_seed=derive_seed(config.master_seed, f"generation:{generation}"),
        )
        result = run_simulation(
            run_config,
            agents,
            initial_language=training_language,
            event_log=event_log,
        )
        selection = select_donor(
            result.testing[result.agent_ids[0]].pairs(),
            result.testing[result.agent_ids[1]].pairs(),
            result.agent_ids,
            permutations=config.donor_permutations,
            rng=derive_seed(config.master_seed, f"donor:{generation}"),
        )
        record = GenerationRecord(
            generation=generation,
            training_language=result.initial_language,
            result=result,
            donor_id=selection.donor_id,
            transmitted=selection.pairs,
            donor_degenerate=selection.degenerate,
        )
        records.append(record)
        if on_generation is not None:
            on_generation(record)
        training_language = derive_training_language(
            selection.pairs,
            Random(derive_seed(config.master_seed, f"portion:{generation + 1}")),
        )
    return records
