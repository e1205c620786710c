import time
from random import Random

import pytest

import refgame.chains
from helpers import TruncatingOracle
from refgame.agents import CompositionalOracle, LookupOracle, RandomChooser
from refgame.chains import (
    ChainConfig,
    ChainError,
    chain_dir,
    derive_training_language,
    run_chain,
    select_donor,
)
from refgame.domain import SHAPES, COLOURS, AMOUNTS, enumerate_stimuli, generate_language
from refgame.engine import RunConfig, SimulationAborted
from refgame.metrics import topsim_mantel
from refgame.persistence import ChainRow, RunManifest, chain_row, read_rows
from refgame.prompts import PromptTask


def compositional_pairs():
    oracle = CompositionalOracle("X")
    return [(s, oracle.rule_signal(s)) for s in enumerate_stimuli()]


def random_pairs(seed=0):
    return generate_language(Random(seed), enumerate_stimuli()).pairs()


def lookup_factory():
    return LookupOracle("A"), LookupOracle("B")


def transmitted(record):
    return record.result.testing[record.donor_id].pairs()


FAST_RUN = RunConfig(mantel_permutations=60)


def fast_chain_config(**overrides):
    settings = dict(generations=3, donor_permutations=60)
    settings.update(overrides)
    return ChainConfig(**settings)


class TestSelectDonor:
    def test_argmax(self):
        selection = select_donor(compositional_pairs(), random_pairs(), ("A", "B"), permutations=200, rng=0)
        assert selection.donor_id == "A"
        assert not selection.degenerate
        selection = select_donor(random_pairs(), compositional_pairs(), ("A", "B"), permutations=200, rng=0)
        assert selection.donor_id == "B"

    def test_tie_breaks_to_first(self):
        pairs = compositional_pairs()
        selection = select_donor(pairs, list(pairs), ("A", "B"), permutations=100, rng=1)
        assert selection.donor_id == "A"
        assert not selection.degenerate

    def test_degenerate_side_loses(self):
        flat = [(s, "gigi") for s in enumerate_stimuli()]
        selection = select_donor(flat, random_pairs(), ("A", "B"), permutations=100, rng=0)
        assert selection.donor_id == "B"
        assert selection.degenerate

    def test_degenerate_second_side_loses(self):
        flat = [(s, "gigi") for s in enumerate_stimuli()]
        selection = select_donor(random_pairs(), flat, ("A", "B"), permutations=100, rng=0)
        assert selection.donor_id == "A"
        assert selection.degenerate

    def test_both_degenerate(self):
        flat = [(s, "gigi") for s in enumerate_stimuli()]
        selection = select_donor(flat, list(flat), ("A", "B"), permutations=100, rng=0)
        assert selection.donor_id == "A"
        assert selection.degenerate

    def test_incomplete_output_rejected(self):
        with pytest.raises(ChainError):
            select_donor(compositional_pairs()[:20], random_pairs(), ("A", "B"), permutations=100, rng=0)


class TestDeriveTrainingLanguage:
    def test_balanced_projection(self):
        transmitted = compositional_pairs()
        vocab = derive_training_language(transmitted, Random(3))
        assert len(vocab) == 15
        signal_for = dict(transmitted)
        for entry in vocab:
            assert entry.signal == signal_for[entry.stimulus]
            assert entry.communicative_success == 0
        for value in SHAPES:
            assert sum(1 for s in vocab.stimuli() if s.shape == value) == 5
        for value in COLOURS:
            assert sum(1 for s in vocab.stimuli() if s.colour == value) == 5
        for value in AMOUNTS:
            assert sum(1 for s in vocab.stimuli() if s.amount == value) == 5

    def test_deterministic(self):
        transmitted = compositional_pairs()
        assert derive_training_language(transmitted, Random(9)) == derive_training_language(
            transmitted, Random(9)
        )

    def test_requires_full_coverage(self):
        with pytest.raises(ChainError):
            derive_training_language(compositional_pairs()[:15], Random(0))


class TestRunChain:
    def test_structure_and_indices(self, tmp_path):
        records = run_chain(fast_chain_config(generations=4), FAST_RUN, 5, 0, tmp_path, lookup_factory)
        assert [r.generation for r in records] == [0, 1, 2, 3]
        for record in records:
            assert len(transmitted(record)) == 27
            assert len(record.result.initial_language) == 15

    def test_lookup_learnability_zero(self, tmp_path):
        records = run_chain(fast_chain_config(), FAST_RUN, 5, 0, tmp_path, lookup_factory)
        for record in records[1:]:
            for agent_id in record.result.agent_ids:
                assert record.result.labelling[agent_id].mean_distance == 0.0

    def test_transmission_integrity(self, tmp_path):
        records = run_chain(fast_chain_config(generations=4), FAST_RUN, 5, 0, tmp_path, lookup_factory)
        for previous, current in zip(records, records[1:]):
            donor_map = dict(transmitted(previous))
            for entry in current.result.initial_language:
                assert donor_map[entry.stimulus] == entry.signal

    def test_flags_reset_each_generation(self, tmp_path):
        records = run_chain(fast_chain_config(), FAST_RUN, 5, 0, tmp_path, lookup_factory)
        for record in records:
            assert all(e.communicative_success == 0 for e in record.result.initial_language)

    def test_chain_determinism(self, tmp_path):
        a = run_chain(fast_chain_config(), FAST_RUN, 5, 0, tmp_path / "a", lookup_factory)
        b = run_chain(fast_chain_config(), FAST_RUN, 5, 0, tmp_path / "b", lookup_factory)
        for ra, rb in zip(a, b):
            assert ra.donor_id == rb.donor_id
            assert transmitted(ra) == transmitted(rb)
            assert ra.result.communication.perc_com == rb.result.communication.perc_com

    def test_compositional_donor_keeps_structure(self, tmp_path):
        # a dyad applying shared composition rules transmits high-TopSim output;
        # every later generation's donor stays above generation 0's random language
        def factory():
            return CompositionalOracle("A"), CompositionalOracle("B")

        config = fast_chain_config(generations=3, donor_permutations=300)
        records = run_chain(config, RunConfig(mantel_permutations=300), 5, 0, tmp_path, factory)
        gen0_language_z = topsim_mantel(
            records[0].result.initial_language, permutations=300, rng=0
        ).z_score
        for record in records[1:]:
            donor_z = topsim_mantel(transmitted(record), permutations=300, rng=0).z_score
            assert donor_z >= gen0_language_z

    def test_truncating_learner_improves_learnability(self, tmp_path):
        # generation 0 struggles with long holistic signals; once the language
        # has been filtered through the 4-character bottleneck it reproduces
        # exactly
        def factory():
            return TruncatingOracle("A"), TruncatingOracle("B")

        records = run_chain(fast_chain_config(generations=2), FAST_RUN, 3, 0, tmp_path, factory)

        def learnability(record):
            return sum(
                record.result.labelling[a].mean_distance for a in record.result.agent_ids
            ) / 2

        assert learnability(records[0]) > 0
        assert learnability(records[1]) < learnability(records[0])
        assert learnability(records[1]) == 0.0

    def test_resumed_chain_matches_uninterrupted(self, tmp_path):
        config = fast_chain_config(generations=3)
        full = run_chain(config, FAST_RUN, 5, 0, tmp_path / "full", lookup_factory)
        run_chain(fast_chain_config(generations=2), FAST_RUN, 5, 0, tmp_path / "resumed", lookup_factory)
        resumed = run_chain(config, FAST_RUN, 5, 0, tmp_path / "resumed", lookup_factory)
        assert len(resumed) == 1
        assert resumed[0].generation == 2
        assert transmitted(resumed[0]) == transmitted(full[2])
        assert resumed[0].donor_id == full[2].donor_id

    def test_fresh_chain_derives_each_training_language_once(self, tmp_path, monkeypatch):
        # generation 0 generates its own language; no split is drawn after the last
        derived = count_derivations(monkeypatch)
        run_chain(fast_chain_config(generations=3), FAST_RUN, 5, 0, tmp_path, lookup_factory)
        assert len(derived) == 2

    def test_resumed_chain_derives_one_language_per_generation_run(self, tmp_path, monkeypatch):
        run_chain(fast_chain_config(generations=2), FAST_RUN, 5, 0, tmp_path, lookup_factory)
        derived = count_derivations(monkeypatch)
        records = run_chain(fast_chain_config(generations=4), FAST_RUN, 5, 0, tmp_path, lookup_factory)
        assert [r.generation for r in records] == [2, 3]
        assert len(derived) == 2

    def test_chain_csv_reads_back_the_built_rows(self, tmp_path):
        # random choosers fail some tasks, so perc_com is not 1.0
        def factory():
            return RandomChooser("A"), RandomChooser("B")

        records = run_chain(fast_chain_config(), FAST_RUN, 2, 0, tmp_path, factory)
        built = [chain_row(0, r.generation, r.donor_id, r.result.metric_rows) for r in records]
        assert read_rows(chain_dir(tmp_path, 0) / "chain.csv", ChainRow) == built

    def test_generation_manifests_record_the_simulation_start(self, tmp_path, monkeypatch):
        class Exploding(LookupOracle):
            def produce_signal(self, stimulus, task, rng):
                if task is PromptTask.SPEAKING:
                    raise RuntimeError("service gone")
                return super().produce_signal(stimulus, task, rng)

        built = []

        def factory():
            built.append(1)
            return (Exploding("A") if len(built) == 2 else LookupOracle("A")), LookupOracle("B")

        entered = []
        simulate = refgame.chains.run_simulation

        def timed(*args, **kwargs):
            entered.append(time.time())
            return simulate(*args, **kwargs)

        monkeypatch.setattr(refgame.chains, "run_simulation", timed)
        with pytest.raises(SimulationAborted):
            run_chain(fast_chain_config(), FAST_RUN, 5, 0, tmp_path, factory)
        statuses = []
        for generation, entry in enumerate(entered):
            manifest = RunManifest.load(chain_dir(tmp_path, 0) / f"gen{generation:02d}")
            assert manifest.started <= entry <= manifest.finished
            statuses.append(manifest.status)
        assert statuses == ["complete", "incomplete"]


def count_derivations(monkeypatch):
    """Wrap ``refgame.chains.derive_training_language``; returns the list
    each call appends to."""
    calls = []
    original = refgame.chains.derive_training_language

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(refgame.chains, "derive_training_language", counting)
    return calls
