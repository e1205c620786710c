import gc
import hashlib
import json
import re
import sys
import threading
import time
import traceback
import warnings
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refgame.engine as engine
import refgame.metrics as metrics
from helpers import (
    BreakingOracle,
    InTurnAgent,
    SERVICE_WORDS,
    RepairOracle,
    ScriptedBackend,
    http_backend,
    in_context_learner,
    logged,
    service,
    wire_service,
)
from refgame.agents import (
    CompositionalOracle,
    LLMAgent,
    LookupOracle,
    RandomChooser,
    Reply,
)
from refgame.backend import BackendDescriptor, BackendError, EventLog, TransportFailure
from refgame.chains import ChainConfig
from refgame.config import ExperimentConfig
from refgame.domain import DomainError, Stimulus, enumerate_stimuli, generate_language, sample_training_set
from refgame.engine import (
    EngineError,
    RunConfig,
    SimulationAborted,
    derive_seed,
    run_communication_block,
    run_guessing_block,
    run_labelling_block,
    run_simulation,
    run_testing_block,
    schedule_round,
)
from refgame.metrics import generalization_score, normalized_levenshtein
from refgame.persistence import (
    RunManifest,
    file_digest,
    load_run_for_replay,
    save_simulation,
)
from refgame.prompts import (
    LABELLING_INSTRUCTION,
    SPEAKING_INSTRUCTION,
    PromptTask,
    completion_stem,
    listener_stem,
    render_entry,
)

FULL_STACK_METRICS_SHA256 = "4259787a5e92f8441850d98c716becd0f5b946d0360c667a4232cae3b2b870ec"
FLAKY_ORACLE_EVENTS_SHA256 = "9df8aaaf8095707e23ad34f95c61cac4c4e3d9299c1f5573c2ca63ab6f9a00fb"


def training_vocab(seed=0):
    split = sample_training_set(Random(seed))
    return generate_language(Random(seed), split.train), split


def lookup_pair(vocab):
    a, b = LookupOracle("A"), LookupOracle("B")
    a.set_vocabulary(vocab.copy())
    b.set_vocabulary(vocab.copy())
    return a, b


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "split") == derive_seed(1, "split")
        assert derive_seed(1, "split") != derive_seed(1, "language")
        assert derive_seed(1, "split") != derive_seed(2, "split")


class TestRunConfig:
    def test_paper_defaults(self):
        config = RunConfig()
        assert config.rounds == 4
        assert config.candidate_count == 4
        assert config.mantel_permutations == 10_000

    def test_validation(self):
        with pytest.raises(EngineError):
            RunConfig(rounds=0).validate()


class TestSchedule:
    def test_thirty_tasks_alternating(self):
        vocab, split = training_vocab()
        tasks = schedule_round(split.train, Random(0))
        assert len(tasks) == 30
        assert [speaker for speaker, _ in tasks] == ["A", "B"] * 15

    def test_each_agent_speaks_each_stimulus_once(self):
        vocab, split = training_vocab()
        tasks = schedule_round(split.train, Random(1))
        for agent_id in ("A", "B"):
            spoken = [s for speaker, s in tasks if speaker == agent_id]
            assert sorted(spoken) == sorted(split.train)

    def test_deterministic(self):
        vocab, split = training_vocab()
        assert schedule_round(split.train, Random(5)) == schedule_round(split.train, Random(5))

    def test_orders_independent(self):
        vocab, split = training_vocab()
        tasks = schedule_round(split.train, Random(2))
        order_a = [s for speaker, s in tasks if speaker == "A"]
        order_b = [s for speaker, s in tasks if speaker == "B"]
        assert order_a != order_b  # overwhelmingly likely under independent shuffles


class TestGuessingBlock:
    def test_lookup_oracle_perfect(self):
        vocab, _ = training_vocab()
        agent = LookupOracle("A")
        agent.set_vocabulary(vocab.copy())
        result = engine._run(run_guessing_block(agent, vocab, Random(0), RunConfig(), EventLog()))
        assert result.accuracy == 1.0
        assert len(result.records) == 15

    def test_candidate_sets(self):
        vocab, _ = training_vocab()
        agent = LookupOracle("A")
        agent.set_vocabulary(vocab.copy())
        result = engine._run(run_guessing_block(agent, vocab, Random(3), RunConfig(guessing_distractors=3), EventLog()))
        signals = set(vocab.signals())
        for record in result.records:
            truth = vocab.signal_for(record.stimulus)
            assert len(record.candidates) == 4
            assert record.candidates.count(truth) == 1
            assert set(record.candidates) <= signals

    def test_random_chooser_near_chance(self):
        vocab, _ = training_vocab()
        agent = RandomChooser("A")
        agent.set_vocabulary(vocab.copy())
        correct = total = 0
        for seed in range(40):
            result = engine._run(run_guessing_block(agent, vocab, Random(seed), RunConfig(), EventLog()))
            correct += sum(r.correct for r in result.records)
            total += len(result.records)
        assert abs(correct / total - 0.25) < 0.06


class TestLabellingBlock:
    def test_lookup_oracle_learns_exactly(self):
        vocab, _ = training_vocab()
        agent = LookupOracle("A")
        agent.set_vocabulary(vocab.copy())
        result = engine._run(run_labelling_block(agent, vocab, Random(0), RunConfig(), EventLog()))
        assert result.mean_distance == 0.0
        assert result.learned == vocab
        assert agent.vocabulary == result.learned

    def test_constant_backend_collapses_vocab(self):
        vocab, _ = training_vocab()
        backend = ScriptedBackend(completions=lambda p: "gigi")
        agent = LLMAgent("A", backend)
        agent.set_vocabulary(vocab.copy())
        result = engine._run(run_labelling_block(agent, vocab, Random(0), RunConfig(), EventLog()))
        assert all(e.signal == "gigi" for e in result.learned)
        assert len(set(result.learned.signals())) == 1
        assert result.mean_distance > 0

    def test_failed_production_retains_truth(self):
        vocab, _ = training_vocab()
        target = vocab.stimuli()[0]

        def flaky(prompt):
            # unparseable exactly when the stem names the failing stimulus
            if prompt.stem.startswith(
                f"{{'shape':{target.shape},'colour':'{target.colour}','amount':{target.amount},"
            ):
                return "```"
            return "gigi"

        agent = LLMAgent("A", ScriptedBackend(completions=flaky))
        agent.set_vocabulary(vocab.copy())
        result = engine._run(run_labelling_block(agent, vocab, Random(0), RunConfig(max_agent_retries=2), EventLog()))
        failed = [r for r in result.records if r.failed]
        assert len(failed) == 1
        assert failed[0].stimulus == target
        assert result.learned.signal_for(target) == vocab.signal_for(target)


class TestCommunicationBlock:
    def test_lookup_dyad_fully_successful(self):
        vocab, _ = training_vocab()
        a, b = lookup_pair(vocab)
        result = run_communication_block(a, b, Random(0), RunConfig(), EventLog())
        assert result.perc_com == [1.0, 1.0, 1.0, 1.0]
        assert len(result.records) == 120

    def test_candidate_invariants(self):
        vocab, split = training_vocab()
        a, b = lookup_pair(vocab)
        result = run_communication_block(a, b, Random(1), RunConfig(rounds=1), EventLog())
        train = set(split.train)
        for record in result.records:
            assert record.candidates.count(record.stimulus) == 1
            assert set(record.candidates) <= train
            assert len(set(record.candidates)) == len(record.candidates) == 4

    def test_candidate_count_switch(self):
        # the four-distractor reading of the protocol stays available
        vocab, _ = training_vocab()
        a, b = lookup_pair(vocab)
        config = RunConfig(rounds=1, candidate_count=5)
        result = run_communication_block(a, b, Random(1), config, EventLog())
        assert all(len(r.candidates) == 5 for r in result.records)

    def test_vocabulary_sync_and_flags(self):
        vocab, _ = training_vocab()
        a, b = lookup_pair(vocab)
        result = run_communication_block(a, b, Random(2), RunConfig(rounds=1), EventLog())
        for record in result.records:
            if record.failure_mode == "none":
                assert a.vocabulary.signal_for(record.stimulus) == b.vocabulary.signal_for(
                    record.stimulus
                )
        last_by_stimulus = {}
        for record in result.records:
            last_by_stimulus[record.stimulus] = record
        for stimulus, record in last_by_stimulus.items():
            entry = a.vocabulary.entry_for(stimulus)
            assert entry.signal == record.signal
            assert entry.communicative_success == (1 if record.success else 0)

    def test_success_definition(self):
        vocab, _ = training_vocab()
        a, b = lookup_pair(vocab)
        result = run_communication_block(a, b, Random(3), RunConfig(rounds=1), EventLog())
        for record in result.records:
            if record.failure_mode == "none":
                assert record.success == (record.candidates[record.chosen] == record.stimulus)

    def test_differing_tables_match_bruteforce_replay(self):
        # speaker and listener share shape/colour syllables but not amounts;
        # replay every interaction independently and compare outcomes
        amount_b = {1: "pi", 2: "pa", 3: "pu"}
        a = CompositionalOracle("A")
        b = CompositionalOracle("B", amount_table=amount_b)
        vocab, _ = training_vocab()
        a.set_vocabulary(vocab.copy())
        b.set_vocabulary(vocab.copy())
        result = run_communication_block(a, b, Random(4), RunConfig(rounds=2), EventLog())
        oracles = {"A": a, "B": b}
        successes = 0
        for record in result.records:
            listener = oracles[record.listener]
            distances = [
                normalized_levenshtein(record.signal, listener.rule_signal(c))
                for c in record.candidates
            ]
            expected_choice = distances.index(min(distances))
            assert record.chosen == expected_choice
            expected_success = record.candidates[expected_choice] == record.stimulus
            assert record.success == expected_success
            successes += expected_success
        assert 0 < successes < len(result.records)  # partially discriminable


def noting_failed_scores(backend: ScriptedBackend) -> ScriptedBackend:
    """``backend``, noting in its ``failed_scores`` each score request that
    fails when read, as (round, task)."""
    backend.failed_scores = []
    score = backend.score

    def noted(prompts, tasks):
        pending = score(prompts, tasks)
        read = pending.read

        def failing(event_log, kept=None):
            try:
                return read(event_log, kept)
            except BackendError:
                backend.failed_scores.append((event_log.context["round"], tasks[0]))
                raise

        pending.read = failing
        return pending

    backend.score = noted
    return backend


class TimelineLog(EventLog):
    """An event log that notes each record in ``timeline`` as (kind, round,
    task), beside the sends a ``ScriptedBackend`` notes there."""

    def __init__(self, path, timeline: list):
        super().__init__(path)
        self.timeline = timeline

    def append(self, kind, **fields):
        super().append(kind, **fields)
        self.timeline.append((kind, self.context["round"], fields.get("task", self.context["task"])))


def speculative_sends(timeline) -> list[tuple]:
    """(round, task) of each listening request sent before the interaction
    record of the task before it, that is, on a predicted outcome."""
    sends, round_, written = [], None, set()
    for entry in timeline:
        if entry[0] == "sent":
            if entry[1] == "score" and entry[2] > 0 and (round_, entry[2] - 1) not in written:
                sends.append((round_, entry[2]))
        elif entry[0] != "read":
            round_ = entry[1]
            if entry[0] == "interaction":
                written.add((entry[1], entry[2]))
    return sends


class TestSpeakingAhead:
    """The listener of task t sends its speaking request for t+1 while it
    listens, and on the prediction that t fails the speaker of t sends
    t+1's listening request and its speaking request for t+2; every block
    record and ``backend_call`` record stays that of the run in turn, whose
    agents are ``InTurnAgent``s."""

    BACKENDS = {
        "in-context": lambda seed: in_context_learner(),
        # unparseable replies, and listener calls that fail, which discard the request
        "unparseable": lambda seed: service(seed, "unparseable"),
        # every listening request of a heard word fails: failed choices
        "doomed-listening": lambda seed: service(
            seed, "always-unparseable", listener_stem(SERVICE_WORDS[seed % 6])
        ),
        # every speaking request for one stimulus fails: failed productions
        "doomed-speaking": lambda seed: service(
            seed, "always-unparseable", completion_stem(training_vocab(seed)[0].stimuli()[seed % 15]),
        ),
    }

    def communicate(self, path, name, seed, agent_class, rounds=1):
        backend = noting_failed_scores(self.BACKENDS[name](seed))
        vocab, _ = training_vocab(seed)
        a, b = agent_class("A", backend), agent_class("B", backend)
        a.set_vocabulary(vocab.copy())
        b.set_vocabulary(vocab.copy())
        path = path / f"{agent_class.__name__}.jsonl"
        config = RunConfig(rounds=rounds, max_agent_retries=2)
        rng = Random(seed)
        with TimelineLog(path, backend.timeline) as log:
            result = run_communication_block(a, b, rng, config, log)
        records = [
            {key: value for key, value in r.items() if key not in ("latency", "timestamp")}
            for r in EventLog.read(path)
        ]
        return backend, result, (a.vocabulary, b.vocabulary, rng.getstate()), records

    @staticmethod
    def discarded_prompts(backend) -> int:
        """One discarded record per prompt of a request read as discarded, and
        per unkept prompt (of two) of a speaking request read ahead."""
        return (
            sum(2 if how == "discarded" else 1 for *_, how in backend.ahead)
            + sum(4 for *_, how in backend.listened if how == "discarded")
        )

    @pytest.mark.parametrize("name, seed", [("in-context", 0), ("unparseable", 0), ("unparseable", 2)])
    def test_same_records_as_in_turn(self, tmp_path, name, seed):
        _, in_turn, state, records = self.communicate(tmp_path, name, seed, InTurnAgent)
        backend, ahead, ahead_state, ahead_records = self.communicate(tmp_path, name, seed, LLMAgent)
        assert ahead.records == in_turn.records
        assert ahead.round_vocabs == in_turn.round_vocabs and ahead_state == state
        assert [r for r in ahead_records if r["kind"] != "backend_discarded"] == records
        # one prompt-free record per discarded prompt
        discarded = [r for r in ahead_records if r["kind"] == "backend_discarded"]
        assert all("prompt" not in r and r["block"] == "communication" for r in discarded)
        assert len(discarded) == self.discarded_prompts(backend)
        if name == "unparseable":
            reads = {how for *_, how in backend.ahead}
            assert reads == {"kept", "discarded"}  # some listener needed a second attempt
            kept_unparseable = [
                r for r in ahead_records
                if r["kind"] == "backend_call" and r["result"] == "```" and (r["round"], r["task"]) in {
                    (round_, task) for round_, task, _, how in backend.ahead if how == "kept"
                }
            ]
            assert kept_unparseable  # a reply read ahead was a first attempt that failed

    @pytest.mark.parametrize("speaking_ahead", ["A", "B"])
    def test_dyad_with_an_oracle_runs_in_turn_beside_it(self, tmp_path, speaking_ahead):
        # only the llm agent asks ahead, and only when it listens
        def communicate(agent_class):
            llm = agent_class(speaking_ahead, service(3, "unparseable"))
            oracle = LookupOracle("B" if speaking_ahead == "A" else "A")
            vocab, _ = training_vocab(3)
            for agent in (llm, oracle):
                agent.set_vocabulary(vocab.copy())
            path = tmp_path / f"{agent_class.__name__}.jsonl"
            dyad = (llm, oracle) if speaking_ahead == "A" else (oracle, llm)
            with EventLog(path) as log:
                config = RunConfig(rounds=2, max_agent_retries=2)
                result = run_communication_block(*dyad, Random(3), config, log)
            kept = [r for r in EventLog.read(path) if r["kind"] != "backend_discarded"]
            return result, [{k: v for k, v in r.items() if k not in ("latency", "timestamp")} for r in kept]

        in_turn, records = communicate(InTurnAgent)
        ahead, ahead_records = communicate(LLMAgent)
        assert ahead.records == in_turn.records and ahead_records == records

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        name=st.sampled_from(["unparseable", "doomed-listening", "doomed-speaking"]),
    )
    # a stale pair discarded after a failed production, under its sender
    @example(seed=0, name="unparseable")
    def test_same_run_as_in_turn(self, tmp_path_factory, seed, name):
        path = tmp_path_factory.mktemp("ahead")
        in_turn_backend, in_turn, state, records = self.communicate(path, name, seed, InTurnAgent, rounds=2)
        backend, ahead, ahead_state, ahead_records = self.communicate(path, name, seed, LLMAgent, rounds=2)
        # the block records, backend_call records, rng and vocabularies of the run in turn
        assert ahead.records == in_turn.records
        assert ahead.round_vocabs == in_turn.round_vocabs and ahead_state == state
        assert [r for r in ahead_records if r["kind"] != "backend_discarded"] == records
        assert sum(r["kind"] == "backend_discarded" for r in ahead_records) == self.discarded_prompts(backend)
        # each discarded record is logged under the agent that sent its
        # request: the speaker of its task for a completion, the listener for a score
        by_task = {(r.round, r.task): r for r in in_turn.records}
        for r in ahead_records:
            if r["kind"] == "backend_discarded":
                interaction = by_task[(r["round"], r["task"])]
                assert r["agent"] == (interaction.speaker if r["call"] == "complete" else interaction.listener)
        # a listening request sent on a prediction is discarded exactly when
        # the interaction before succeeded or its listener needed another attempt
        speculated = speculative_sends(backend.timeline)
        retried = {
            (r.round, r.task) for r in in_turn.records
            if r.signal and r.task + 1 < 30 and (r.round, r.task) in in_turn_backend.failed_scores
        }
        dropped = {
            (round_, task) for round_, task in speculated
            if by_task[(round_, task - 1)].success or (round_, task - 1) in retried
        }
        assert {(round_, task) for round_, task, how in backend.listened if how == "discarded"} == dropped
        assert all(task + 1 < 30 for _, task in speculated)  # t+2 is in the round
        # each drop costs the two requests sent on it, each retry the speaking request sent ahead
        assert backend.requests - in_turn_backend.requests == 2 * len(dropped) + len(retried)

    @pytest.mark.parametrize("name, seed", [("in-context", 0), ("unparseable", 2)])
    def test_speaking_request_sent_just_before_its_listening_request(self, tmp_path, name, seed):
        # speaking replies are the block's critical chain, so each overlap
        # sends its speaking request for t+1 first, then listening request t
        backend, *_ = self.communicate(tmp_path, name, seed, LLMAgent, rounds=2)
        timeline = backend.timeline
        # in turn go the round's last listening request and each second
        # attempt, sent once the first attempt's reply was read
        listening, read, round_ = [], set(), None
        for i, entry in enumerate(timeline):
            if entry[0] == "read":
                read.add((round_, entry[1], entry[2]))
            elif entry[0] != "sent":
                round_ = entry[1]
            elif entry[1] == "score" and entry[2] < 29 and (round_, "score", entry[2]) not in read:
                listening.append(i)
        assert listening
        for i in listening:
            assert timeline[i - 1] == ("sent", "complete", timeline[i][2] + 1)

    def test_listening_sent_before_the_record_it_predicts(self, tmp_path):
        backend, result, _, _ = self.communicate(tmp_path, "in-context", 0, LLMAgent)
        timeline = backend.timeline
        right = [task for _, task in speculative_sends(timeline) if not result.records[task - 1].success]
        assert right
        for task in right:
            # sent, then task-1's record, then the records of its speaker and its listener
            sent = timeline.index(("sent", "score", task))
            written = timeline.index(("interaction", 1, task - 1))
            assert sent < written < timeline.index(("backend_call", 1, task))
            assert {how for _, t, how in backend.listened if t == task} == {"kept"}

    def test_which_tasks_are_asked_ahead(self, tmp_path):
        backend, result, _, _ = self.communicate(tmp_path, "in-context", 0, LLMAgent, rounds=2)
        # with no failures every listener asks the next task ahead, except
        # across the round boundary: task 0 of each round runs in turn
        kept = [(round_, task) for round_, task, _, how in backend.ahead if how == "kept"]
        assert kept == [(round_, task) for round_ in (1, 2) for task in range(1, 30)]
        # the speaking requests discarded are those sent on a wrong
        # prediction, when the interaction two tasks before succeeded
        records = result.records
        wrong = {(r.round, r.task + 2) for r in records if r.task + 2 < 30 and r.success}
        assert wrong  # the seed has a wrong prediction
        assert {(round_, task) for round_, task, _, how in backend.ahead if how == "discarded"} == wrong
        # when task t+1's target is task t's stimulus, the line that differs
        # is left out of both prompts, which are then equal
        by_task = {(r.round, r.task): r.stimulus for r in records}
        repeats = {(round_, task) for round_, task, equal, how in backend.ahead if equal and how == "kept"}
        assert repeats  # the seed has such a pair
        assert repeats == {
            (round_, task) for round_, task in kept if by_task[(round_, task)] == by_task[(round_, task - 1)]
        }


class TestTestingBlock:
    def test_compositional_covers_space(self):
        vocab, split = training_vocab()
        agent = CompositionalOracle("A")
        agent.set_vocabulary(vocab.copy())
        result = engine._run(run_testing_block(agent, Random(0), RunConfig(), EventLog()))
        assert len(result.records) == 27
        assert [r.stimulus for r in result.records] == enumerate_stimuli()
        train = set(split.train)
        train_pairs = [(s, w) for s, w in result.pairs() if s in train]
        test_pairs = [(s, w) for s, w in result.pairs() if s not in train]
        assert generalization_score(train_pairs, test_pairs) > 0.7

    @pytest.mark.parametrize(
        "agent_cls", [LookupOracle, RandomChooser], ids=["LookupOracle", "RandomChooser"]
    )
    def test_lookup_extrapolation_flagged(self, agent_cls):
        vocab, split = training_vocab()
        agent = agent_cls("A")
        agent.set_vocabulary(vocab.copy())
        result = engine._run(run_testing_block(agent, Random(0), RunConfig(), EventLog()))
        flagged = {r.stimulus for r in result.records if r.extrapolated}
        assert flagged == set(split.test)

    def test_context_sizes_from_prompts(self, tmp_path):
        # train stimulus: 14 lines; test stimulus: 15 lines
        vocab, split = training_vocab()
        with EventLog(tmp_path / "events.jsonl") as log:
            backend = ScriptedBackend(completions=lambda p: "gigi")
            agent = LLMAgent("A", backend)
            agent.set_vocabulary(vocab.copy())
            engine._run(run_testing_block(agent, Random(0), RunConfig(), log))
        train = set(split.train)
        calls = logged(log, "backend_call")
        assert len(calls) == 27
        ordered = enumerate_stimuli()
        for call in calls:
            stimulus = ordered[call["task"]]
            lines = call["prompt"].split("\n")[:-1]
            assert len(lines) == (14 if stimulus in train else 15)


class TestRunSimulation:
    def test_structural_contract(self):
        vocab_pair = lookup_pair(training_vocab()[0])
        config = RunConfig(master_seed=5, mantel_permutations=200)
        result = run_simulation(config, vocab_pair, EventLog())
        blocks = [(row.block, row.round, row.agent) for row in result.metric_rows]
        assert blocks.count(("initial", None, "")) == 1
        assert sum(1 for b in blocks if b[0] == "guessing") == 2
        assert sum(1 for b in blocks if b[0] == "labelling") == 2
        assert sum(1 for b in blocks if b[0] == "communication") == 8
        assert sum(1 for b in blocks if b[0] == "testing") == 2
        assert len(result.testing["A"].records) == 27
        assert len(result.testing["B"].records) == 27
        assert len(result.communication.perc_com) == 4

    def test_deterministic_trace(self):
        config = RunConfig(master_seed=11, mantel_permutations=100)
        r1 = run_simulation(config, lookup_pair(training_vocab(1)[0]), EventLog())
        r2 = run_simulation(config, lookup_pair(training_vocab(1)[0]), EventLog())
        assert r1.communication.perc_com == r2.communication.perc_com
        assert [r.signal for r in r1.testing["A"].records] == [
            r.signal for r in r2.testing["A"].records
        ]
        z1 = [row.topsim_z for row in r1.metric_rows if row.topsim_z is not None]
        z2 = [row.topsim_z for row in r2.metric_rows if row.topsim_z is not None]
        assert z1 == z2

    def test_labelling_row_measures_the_learned_vocabulary(self):
        # during communication the lookup agent B adopts its compositional
        # partner's signals; its labelling row must still measure the
        # vocabulary it labelled, which reproduces the initial language
        config = RunConfig(master_seed=1, mantel_permutations=50)
        result = run_simulation(config, (CompositionalOracle("A"), LookupOracle("B")), EventLog())
        rows = {(row.block, row.round, row.agent): row for row in result.metric_rows}
        initial_r = rows["initial", None, ""].topsim_r
        assert result.labelling["B"].learned.pairs() == result.initial_language.pairs()
        assert rows["labelling", None, "B"].topsim_r == initial_r
        assert rows["communication", 4, "B"].topsim_r != initial_r

    def test_generated_language_when_not_given(self):
        config = RunConfig(master_seed=3, mantel_permutations=50)
        result = run_simulation(config, (LookupOracle("A"), LookupOracle("B")), EventLog())
        assert len(result.initial_language) == 15

    def test_guessing_distractors_reach_the_guessing_block(self, event_log):
        config = RunConfig(master_seed=4, mantel_permutations=10, guessing_distractors=2)
        result = run_simulation(config, (LookupOracle("A"), LookupOracle("B")), event_log=event_log)
        guesses = logged(event_log, "guess")
        assert len(guesses) == 2 * 15
        assert all(len(guess["candidates"]) == 3 for guess in guesses)
        assert all(len(r.candidates) == 3 for g in result.guessing.values() for r in g.records)

    def test_abort_carries_partial(self):
        from refgame.prompts import PromptTask

        class Exploding(LookupOracle):
            def produce_signal(self, stimulus, task, rng):
                if task is PromptTask.SPEAKING:
                    raise RuntimeError("backend exhausted")
                return super().produce_signal(stimulus, task, rng)

        a = Exploding("A")
        b = LookupOracle("B")
        config = RunConfig(master_seed=0, mantel_permutations=10)
        with pytest.raises(SimulationAborted) as info:
            run_simulation(config, (a, b), EventLog())
        partial = info.value.partial
        assert set(partial.guessing) == {"A", "B"}
        assert set(partial.labelling) == {"A", "B"}
        assert partial.communication is None
        assert partial.testing == {}
        assert partial.metric_rows == []

    def test_abort_in_second_agents_guessing_completes_no_block(self, tmp_path):
        from refgame.prompts import PromptTask

        class ExplodingGuesser(LookupOracle):
            def choose(self, probe, candidates, task, rng, exclude=None):
                if task is PromptTask.GUESSING:
                    raise RuntimeError("backend exhausted")
                return super().choose(probe, candidates, task, rng, exclude)

        config = RunConfig(master_seed=0, mantel_permutations=10)
        with pytest.raises(SimulationAborted) as info:
            run_simulation(config, (LookupOracle("A"), ExplodingGuesser("B")), EventLog())
        partial = info.value.partial
        assert partial.guessing == {}
        assert partial.labelling == {}
        save_simulation(partial, tmp_path, error=str(info.value))
        manifest = RunManifest.load(tmp_path)
        assert manifest.status == "incomplete"
        assert manifest.extra["completed_blocks"] == []
        assert sorted(path.name for path in (tmp_path / "vocab").iterdir()) == ["initial.vocab"]

    @pytest.mark.parametrize("breaking", ["A", "B", "AB"])
    def test_abort_in_shared_block_keeps_cause_and_partial(self, breaking, tmp_path):
        # the two agents label side by side, both lists asked before either is read;
        # the agent error that wins (A's when both break) is the cause, with
        # the traceback of the block that raised it
        agents = tuple(
            BreakingOracle(i, PromptTask.LABELLING) if i in breaking else LookupOracle(i) for i in "AB"
        )
        path = tmp_path / "events.jsonl"
        with EventLog(path) as event_log, pytest.raises(SimulationAborted) as info:
            run_simulation(RunConfig(master_seed=2, mantel_permutations=10), agents, event_log)
        # an agent that breaks at its third list has logged two labels; B's
        # follow all 15 of A's, and when A raises none of B's are written
        records = EventLog.read(path)
        labels = [r["agent"] for r in records if r["kind"] == "label"]
        assert labels == (["A"] * 2 if "A" in breaking else ["A"] * 15 + ["B"] * 2)
        assert [r["kind"] for r in records[-len(labels) - 1:]] == ["label"] * len(labels) + ["run_aborted"]
        cause = info.value.__cause__
        assert isinstance(cause, RuntimeError) and str(cause) == f"agent {breaking[0]} broke"
        frames = [frame.name for frame in traceback.extract_tb(cause.__traceback__)]
        assert frames[-1] == "_break" and "run_labelling_block" in frames
        partial = info.value.partial
        assert set(partial.guessing) == {"A", "B"}
        assert (partial.labelling, partial.communication, partial.testing) == ({}, None, {})

    def test_full_stack_with_prompt_driven_agents(self, tmp_path):
        # the entire protocol driven through prompts and a scripted
        # in-context-learner backend. Retrieval is perfect where the target
        # sits in context (guessing, labelling); during communication the
        # target is excluded, so a pure retrieval learner lands above chance
        # but below ceiling, which is the generalisation pressure the
        # exclusion is meant to create.
        backend = in_context_learner()
        a, b = LLMAgent("A", backend), LLMAgent("B", backend)
        config = RunConfig(master_seed=77, mantel_permutations=100)
        result = run_simulation(config, (a, b), EventLog())
        assert result.guessing["A"].accuracy == 1.0
        assert result.guessing["B"].accuracy == 1.0
        assert result.labelling["A"].mean_distance == 0.0
        assert result.labelling["B"].mean_distance == 0.0
        assert all(rate > 0.25 for rate in result.communication.perc_com)
        assert all(rate < 1.0 for rate in result.communication.perc_com)
        assert len(result.testing["A"].records) == 27
        assert not any(r.failed for r in result.testing["A"].records)
        assert not any(r.failure_mode != "none" for r in result.communication.records)
        # pinned when each candidate was scored in a call of its own: scoring
        # a choice's candidates in one call must not change any output byte
        save_simulation(result, tmp_path)
        assert file_digest(tmp_path / "metrics.csv") == FULL_STACK_METRICS_SHA256

    def test_programming_error_in_gen_score_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a metric failure")

        monkeypatch.setattr(engine, "generalization_score", broken)
        config = RunConfig(master_seed=0, mantel_permutations=10)
        with pytest.raises(TypeError, match="not a metric failure"):
            run_simulation(config, (LookupOracle("A"), LookupOracle("B")), EventLog())

    def test_metric_rows_measure_each_signal_pair_once_per_call(self, monkeypatch):
        config = RunConfig(master_seed=2, mantel_permutations=10)
        result = run_simulation(config, (CompositionalOracle("A"), LookupOracle("B")), EventLog())
        matrices, calls, matrix_calls = [], [], []
        real_matrix, real_levenshtein = metrics.signal_distance_matrix, metrics.levenshtein

        def recording_matrix(signals, memo=None):
            matrices.append(list(signals))
            before = len(calls)
            matrix = real_matrix(signals, memo)
            matrix_calls.extend(calls[before:])
            return matrix

        def counting_levenshtein(a, b):
            calls.append((a, b))
            return real_levenshtein(a, b)

        monkeypatch.setattr(metrics, "signal_distance_matrix", recording_matrix)
        monkeypatch.setattr(metrics, "levenshtein", counting_levenshtein)
        engine.compute_metric_rows(result)
        pairs = {(s[i], s[j]) for s in matrices for i in range(len(s)) for j in range(i + 1, len(s))}
        assert len(matrices) == len(result.metric_rows)
        assert sorted(matrix_calls) == sorted(pairs)
        # nothing is remembered from one call to the next
        first = len(calls)
        calls.clear()
        engine.compute_metric_rows(result)
        assert len(calls) == first

    def test_constant_testing_signals_leave_gen_score_empty(self):
        from refgame.prompts import PromptTask

        class ConstantSpeaker(LookupOracle):
            def produce_signal(self, stimulus, task, rng):
                if task is PromptTask.SPEAKING:
                    return "gigi"
                return super().produce_signal(stimulus, task, rng)

        config = RunConfig(master_seed=0, mantel_permutations=10)
        result = run_simulation(config, (ConstantSpeaker("A"), LookupOracle("B")), EventLog())
        testing = {row.agent: row for row in result.metric_rows if row.block == "testing"}
        assert testing["A"].gen_score is None
        assert testing["A"].degenerate

    def test_repair_oracle_topsim_strictly_increases(self):
        config = RunConfig(master_seed=8, mantel_permutations=2000)
        agents = (RepairOracle("A", repair_step=3), RepairOracle("B", repair_step=3))
        result = run_simulation(config, agents, EventLog())
        z_by_round = [
            row.topsim_z
            for row in result.metric_rows
            if row.block == "communication" and row.agent == "A"
        ]
        assert len(z_by_round) == 4
        assert all(earlier < later for earlier, later in zip(z_by_round, z_by_round[1:]))


STIMULUS = Stimulus(1, "blue", 2)
OTHER = Stimulus(3, "orange", 1)

STIMULI = st.sampled_from(enumerate_stimuli())
SIGNALS = st.text(max_size=8)  # a model's signal may be any text
FAILURE_MODES = st.sampled_from(["none", "failed-production", "failed-choice"])
BLOCK_RECORDS = st.one_of(
    st.builds(
        engine.GuessingRecord, STIMULI, st.lists(SIGNALS, max_size=4).map(tuple),
        st.integers(-1, 3), st.booleans(), FAILURE_MODES,
    ),
    st.builds(engine.LabellingRecord, STIMULI, SIGNALS, SIGNALS, st.booleans()),
    st.builds(
        engine.InteractionRecord, st.integers(1, 4), st.integers(0, 29), st.sampled_from("AB"),
        st.sampled_from("AB"), STIMULI, SIGNALS, st.lists(STIMULI, max_size=4).map(tuple),
        st.integers(-1, 3), st.booleans(), FAILURE_MODES,
    ),
    st.builds(engine.TestingRecord, STIMULI, SIGNALS, st.booleans(), st.booleans()),
)
_JSON_SCALARS = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=4),
}
# a value of each JSON type, keyed by the type json.loads gives it
JSON_VALUES = {
    **_JSON_SCALARS,
    list: st.lists(st.one_of(*_JSON_SCALARS.values()), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.one_of(*_JSON_SCALARS.values()), max_size=2),
}


def every_field(cls, **given):
    """``cls`` with every field drawn: from ``given``, or by its annotation."""
    return st.builds(cls, **{f.name: given.get(f.name, ...) for f in fields(cls)})


SECTIONS = {"RunConfig": RunConfig, "ChainConfig": ChainConfig, "BackendDescriptor": BackendDescriptor}
# every type decode_fields reads from a config file, a manifest or an event log
DECODED = st.one_of(
    BLOCK_RECORDS,
    *(every_field(section) for section in SECTIONS.values()),
    every_field(
        ExperimentConfig, run=every_field(RunConfig), chain=every_field(ChainConfig),
        backend=every_field(BackendDescriptor),
    ),
    every_field(RunManifest, config=JSON_VALUES[dict], extra=JSON_VALUES[dict]),
)
# the JSON types that fit each annotation: an int also fits a float, and None
# an optional value or a section, whose defaults it means
FITTING = {
    "bool": {bool}, "int": {int}, "float": {int, float}, "str": {str}, "Signal": {str},
    "str | None": {str, type(None)}, "dict": {dict}, "dict[str, str]": {dict}, "list[str]": {list},
    "Stimulus": {list}, "tuple[Signal, ...]": {list}, "tuple[Stimulus, ...]": {list},
    **{name: {dict, type(None)} for name in SECTIONS},
}
# a value of the right JSON type with an element of the wrong one
WRONG_ELEMENTS = {
    "list[str]": [["oracle:lookup", 5]],
    "tuple[Signal, ...]": [["gaga", None]],
    "tuple[Stimulus, ...]": [[[1, "blue", 2], "gaga"], [[1, "blue", 2.0]]],
    "Stimulus": [[1, "blue"], [True, "blue", 2], [1.0, "blue", 2], [1, "blue", "2"], [9, "blue", 2]],
    "dict[str, str]": [{"events.jsonl": 5}],
}


def field_slots(cls: type, where: str):
    """(section, field, annotation, where) of each field of ``cls`` and of
    its sections; ``section`` is None for a field of ``cls`` itself."""
    for f in fields(cls):
        yield None, f.name, f.type, where
        if f.type in SECTIONS:
            for g in fields(SECTIONS[f.type]):
                yield f.name, g.name, g.type, f"section {f.name!r}"


def no_threads(monkeypatch, every: bool = False):
    """Refuses to start a thread whose target (or ``run``) is defined under
    ``src/refgame``, or with ``every`` any thread; without it the in-process
    service keeps its own threads."""
    package = Path(engine.__file__).resolve().parent
    start = threading.Thread.start

    def checked(thread):
        target = thread._target or thread.run
        target = getattr(target, "func", target)  # a partial's function
        code = getattr(getattr(target, "__func__", target), "__code__", None)
        if every or code is not None and Path(code.co_filename).resolve().is_relative_to(package):
            raise AssertionError(f"a thread was started on {getattr(target, '__qualname__', target)}")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", checked)


class TestSideBySide:
    """``_beside`` starts the first block, then the second against a fork,
    and reads them in that order; its answer, log and context are those of
    the two blocks run whole, one after the other, and no dyad starts a
    thread."""

    RAISING_STEP = {"when sent": 0, "when read": 1}

    def beside(self, failing="", raises="when read", in_turn=False):
        """Two blocks, A's and B's, each appending steps 0-2 and yielding
        after step 0, run ``_beside`` (or with ``in_turn`` whole, one after
        the other); an agent in ``failing`` raises after step
        ``RAISING_STEP[raises]``. Returns the answer or the error's message,
        the records, the log's context and the order of sends and reads."""
        log = EventLog()
        log.set_context(simulation="s", block=None)
        order = []

        def block(agent_id, event_log):
            # a context key only this agent sets: the other's block must not see it
            event_log.set_context(block=f"block-{agent_id}", **{agent_id: True})
            for step in range(3):
                if step == 1:
                    order.append((agent_id, "sent"))
                    yield
                event_log.append("step", agent=agent_id, step=step)
                if step == self.RAISING_STEP[raises] and agent_id in failing:
                    raise RuntimeError(f"agent {agent_id} broke")
            order.append((agent_id, "read"))
            return agent_id.lower()

        first, second = partial(block, "A"), partial(block, "B")
        try:
            if in_turn:
                fork = log.fork()
                mine = engine._run(first(log))
                try:
                    answer = mine, engine._run(second(fork))
                finally:
                    log.join(fork)
            else:
                blocks = engine._beside(log, first, second)
                next(blocks)
                order.append("both sent")
                answer = engine._run(blocks)
        except RuntimeError as err:
            answer = str(err)
        return answer, [json.loads(line) for line in log._file.getvalue().splitlines()], log.context, order

    @pytest.mark.parametrize("dyad", ["oracle", "llm", "wire"])
    def test_no_dyad_starts_a_thread(self, monkeypatch, dyad):
        # an oracle dyad starts no service, so it may start no thread at all
        no_threads(monkeypatch, every=dyad == "oracle")
        config = RunConfig(master_seed=3, rounds=1, mantel_permutations=10)
        if dyad == "oracle":
            run_simulation(config, (LookupOracle("A"), CompositionalOracle("B")), EventLog())
        elif dyad == "llm":
            backend = in_context_learner()
            run_simulation(config, (LLMAgent("A", backend), LLMAgent("B", backend)), EventLog())
        else:
            with wire_service() as endpoint:
                agents = (LLMAgent("A", http_backend(endpoint)), LLMAgent("B", http_backend(endpoint)))
                run_simulation(config, agents, EventLog())
        with pytest.raises(AssertionError, match="a thread was started on _run"):
            threading.Thread(target=engine._run, args=(iter(()),)).start()
        if dyad == "oracle":
            with pytest.raises(AssertionError, match="a thread was started on sleep"):
                threading.Thread(target=time.sleep, args=(0,)).start()

    @pytest.mark.parametrize("failing", ["", "A", "B", "AB"])
    def test_paths_agree(self, failing):
        for raises in self.RAISING_STEP:
            assert self.beside(failing, raises)[:3] == self.beside(failing, raises, in_turn=True)[:3]

    @pytest.mark.parametrize("sends", [(3, 1), (1, 3)])
    def test_blocks_take_turns_until_both_return(self, sends):
        # a block that sends again once it has read (a task asked again
        # alone) sends while the other's requests are still in flight
        log, order = EventLog(), []

        def block(agent_id, count, event_log):
            for step in range(count):
                order.append((agent_id, "sent", step))
                yield
                order.append((agent_id, "read", step))
                event_log.append("step", agent=agent_id, step=step)
            return agent_id.lower()

        blocks = engine._beside(log, partial(block, "A", sends[0]), partial(block, "B", sends[1]))
        yields = 0
        while (answer := engine._step(blocks)) is engine._SENT:
            yields += 1
        assert (answer, yields) == (("a", "b"), max(sends))
        if sends == (3, 1):
            assert order == [("A", "sent", 0), ("B", "sent", 0)] + [
                ("A", "read", 0), ("A", "sent", 1), ("B", "read", 0),
                ("A", "read", 1), ("A", "sent", 2), ("A", "read", 2),
            ]
        else:
            assert order == [("A", "sent", 0), ("B", "sent", 0)] + [
                ("A", "read", 0), ("B", "read", 0), ("B", "sent", 1),
                ("B", "read", 1), ("B", "sent", 2), ("B", "read", 2),
            ]
        records = [json.loads(line) for line in log._file.getvalue().splitlines()]
        assert [(r["agent"], r["step"]) for r in records] == (
            [("A", step) for step in range(sends[0])] + [("B", step) for step in range(sends[1])]
        )

    @pytest.mark.parametrize("raises", sorted(RAISING_STEP))
    def test_error_contract(self, raises):
        def outcome(failing=""):
            answer, records, _, order = self.beside(failing, raises)
            return answer, [(r["agent"], r["step"], r["block"], "A" in r, "B" in r) for r in records], order

        a = [("A", step, "block-A", True, False) for step in range(3)]
        b = [("B", step, "block-B", False, True) for step in range(3)]
        sent, read = [("A", "sent"), ("B", "sent"), "both sent"], [("A", "read"), ("B", "read")]
        assert outcome() == (("a", "b"), a + b, sent + read)
        kept = self.RAISING_STEP[raises] + 1
        # the first raises: the second's records are dropped
        assert outcome("A")[:2] == outcome("AB")[:2] == ("agent A broke", a[:kept])
        # only the second raises: its records are written after the first's, then it raises
        answer, records, order = outcome("B")
        assert (answer, records) == ("agent B broke", a + b[:kept])
        if raises == "when sent":  # before its sends: the first is read at once, with no yield
            assert order == [("A", "sent"), ("A", "read")]
        else:
            assert order == sent + [("A", "read")]


def guessing_prompt(prompt) -> bool:
    """Whether a scored prompt is a guessing task's: labelling-shaped, prefilled."""
    return prompt.system_instruction == LABELLING_INSTRUCTION and prompt.continuation is not None


class TestGuessingBesideTheRest:
    """Guessing's two lists go out first and are read once the rest of the
    run (labelling, communication and testing) has sent testing's lists;
    the log, the result and an aborted run's partial result are those of
    the run in turn, and guessing is prompted over the initial language
    however late it asks."""

    SEED = 5
    # sha256 of ``run``'s records as the run with every block in turn wrote
    # them, before guessing overlapped the rest
    IN_TURN_SHA256 = {
        "": "06b5f6a41e9527f35062b853035dc63111ede59bcbd787179cb9644d968131aa",
        "guessing": "9b8c51ee6045cc55e4cd2561dddd936c78a73c22ff0988fdd14200dafbb8ef60",
        "communication": "a6190139dee03584504cb2e7d6848160d8a9735f77d072cb0abb119674ffea5c",
    }

    def run(self, breaks: str = "", initial=None) -> tuple:
        """Two llm agents over in-context learners that speak ahead, one
        backend each, both noting in one timeline; with ``breaks``
        "guessing", B's guessing reply raises when read, with
        "communication", B's first speaking request for a training stimulus.
        Returns the log's records without their wall-clock keys, the abort's
        message, the blocks the result holds, and the timeline."""
        initial = initial or training_vocab(self.SEED)[0]
        doomed = completion_stem(initial.stimuli()[3])
        timeline = []

        def backend(agent_id):
            learner = in_context_learner()

            def completions(prompt):
                if (agent_id, breaks) == ("B", "communication") and prompt.stem == doomed \
                        and prompt.system_instruction == SPEAKING_INSTRUCTION:
                    raise RuntimeError("B broke in communication")
                return learner.completions(prompt)

            def scores(prompt):
                if guessing_prompt(prompt) and (agent_id, breaks) == ("B", "guessing"):
                    raise RuntimeError("B broke in guessing")
                return learner.scores(prompt)

            noted = ScriptedBackend(completions=completions, scores=scores)
            noted.timeline = timeline
            return noted

        agents = (LLMAgent("A", backend("A")), LLMAgent("B", backend("B")))
        config = RunConfig(master_seed=self.SEED, rounds=2, mantel_permutations=10)
        log = EventLog()
        try:
            result, error = run_simulation(config, agents, log, initial), ""
        except SimulationAborted as err:
            result, error = err.partial, str(err)
        records = [
            {key: value for key, value in json.loads(line).items() if key not in ("latency", "timestamp")}
            for line in log._file.getvalue().splitlines()
        ]
        blocks = (result.guessing, result.labelling, result.communication, result.testing)
        return records, error, blocks, timeline

    @pytest.mark.parametrize("breaks", ["", "guessing", "communication"])
    def test_same_log_and_result_as_in_turn(self, breaks):
        records, error, blocks, timeline = self.run(breaks)
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == self.IN_TURN_SHA256[breaks]
        kinds = [record["kind"] for record in records]
        if breaks == "guessing":
            # A's guesses, and no record of B's nor of the rest's
            assert error == "B broke in guessing"
            assert {r.get("agent") for r in records[1:-1]} == {"A"} and "label" not in kinds
            assert blocks == ({}, {}, None, {})
            # testing's two lists, sent before guessing was read, are closed unread
            assert timeline[-2:] == [("closed", "complete", 0)] * 2
        elif breaks == "communication":
            assert error == "B broke in communication"
            assert records[-1]["block"] == "communication" and "interaction" in kinds
            assert (set(blocks[0]), set(blocks[1]), blocks[2:]) == ({"A", "B"}, {"A", "B"}, (None, {}))
        else:
            assert kinds[-1] == "run_end" and kinds.count("guess") == 30
        assert kinds[-1] == ("run_end" if not breaks else "run_aborted")

    def test_lists_sent_before_they_are_read(self):
        *_, timeline = self.run()
        # both guessing lists, then both labelling lists, before any read
        first_read = next(i for i, entry in enumerate(timeline) if entry[0] == "read")
        assert [entry[:2] for entry in timeline[:first_read]] == (
            [("sent", "score")] * 2 + [("sent", "complete")] * 2
        )
        reads = [entry[3:] for entry in timeline if entry[0] == "read"]
        assert reads[:2] == [("labelling", "A"), ("labelling", "B")]
        # once communication is read, testing's two lists are sent, then
        # guessing is read, then testing
        communicated = max(i for i, entry in enumerate(timeline) if entry[3:4] == ("communication",))
        after = timeline[communicated + 1:]
        assert [entry[:2] for entry in after[:2]] == [("sent", "complete")] * 2
        assert [entry[3:] for entry in after[2:]] == [
            ("guessing", "A"), ("guessing", "B"), ("testing", "A"), ("testing", "B")
        ]

    def test_tasks_asked_again_overlap(self):
        # every labelling prompt for one stimulus does not parse, and each
        # agent's guessing list fails: the tasks each agent asks again alone
        # go out while the other agent's, or testing's, are in flight
        initial = training_vocab(self.SEED)[0]
        doomed = completion_stem(initial.stimuli()[3])
        timeline = []

        def backend():
            learner, failed = in_context_learner(), []

            def completions(prompt):
                if prompt.system_instruction == LABELLING_INSTRUCTION and prompt.stem == doomed:
                    return "???"
                return learner.completions(prompt)

            def scores(prompt):
                if guessing_prompt(prompt) and not failed:
                    failed.append(prompt)
                    raise TransportFailure("service error 503")
                return learner.scores(prompt)

            noted = ScriptedBackend(completions=completions, scores=scores)
            noted.timeline = timeline
            return noted

        agents = (LLMAgent("A", backend()), LLMAgent("B", backend()))
        config = RunConfig(master_seed=self.SEED, rounds=1, mantel_permutations=10)
        result = run_simulation(config, agents, EventLog(), initial)
        reads = [entry[3:] for entry in timeline if entry[0] == "read"]
        # the two labelling lists, then the tasks each asks again, in turns
        labelling = [agent for block, agent in reads if block == "labelling"]
        assert labelling[:6] == ["A", "B"] * 3 and len(labelling) > 2 + 2 * 3
        # guessing's failed lists, testing's lists, then guessing's tasks
        # asked alone, in turns
        communicated = max(i for i, entry in enumerate(reads) if entry[0] == "communication")
        assert reads[communicated + 1:communicated + 7] == [
            ("guessing", "A"), ("guessing", "B"), ("testing", "A"), ("testing", "B"),
            ("guessing", "A"), ("guessing", "B"),
        ]
        assert len(reads) == communicated + 1 + 4 + 2 * 15
        for agent in ("A", "B"):
            assert [r.failure_mode for r in result.guessing[agent].records] == ["none"] * 15
            assert sum(r.failed for r in result.labelling[agent].records) == 1

    def test_requests_in_flight_closed_when_guessing_raises(self, monkeypatch):
        # over the wire, B's guessing reply raises when read, once the rest
        # has sent testing's lists: those are closed unread, so the only
        # connections still open are those idle in the backends' pools
        unraisable = []  # a ResourceWarning raised in a finalizer lands here
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        connections = []

        class Breaking(LLMAgent):
            def choose_many(self, items, task, rng):
                reply = super().choose_many(items, task, rng)
                if (self.agent_id, task) != ("B", PromptTask.GUESSING):
                    return reply

                def read(event_log, kept=None):
                    reply.read(event_log)
                    raise RuntimeError("B broke in guessing")

                return SimpleNamespace(read=read, close=reply.close)

        def recorded(endpoint):
            backend = http_backend(endpoint)
            connect = backend._connect

            def connected():
                connections.append(connect())
                return connections[-1]

            backend._connect = connected
            return backend

        config = RunConfig(master_seed=3, rounds=1, mantel_permutations=10)
        with wire_service() as endpoint, warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            backends = [recorded(endpoint), recorded(endpoint)]
            agents = (Breaking("A", backends[0]), Breaking("B", backends[1]))
            with pytest.raises(SimulationAborted, match="B broke in guessing") as aborted:
                run_simulation(config, agents, EventLog())
            # closed when the run raises, not once its traceback is collected
            idle = [connection for backend in backends for connection in backend._idle]
            assert all(connection.sock is None or connection in idle for connection in connections)
            del aborted, agents, backends, idle
            gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []
        assert connections and all(connection.sock is None for connection in connections)

    def test_collapsed_language_aborts_before_any_request(self):
        # two distinct signals, one of them on a single stimulus: a guessing
        # task for any other stimulus has one distractor to draw three from
        initial = training_vocab(self.SEED)[0].copy()
        for stimulus in initial.stimuli():
            initial.update(stimulus, "gaga" if stimulus != initial.stimuli()[0] else "lolo", 0)
        records, error, blocks, timeline = self.run(initial=initial)
        assert error.startswith("Sample larger than population")
        assert [record["kind"] for record in records] == ["run_start", "run_aborted"]
        assert blocks == ({}, {}, None, {})
        assert timeline == []  # no guessing, labelling or speaking request was sent

    def test_guessing_asked_again_after_labelling_is_prompted_over_the_initial_language(self):
        # each agent's batched guessing request fails when it is read, after
        # communication, so every guessing task is asked again alone after
        # labelling replaced the agents' vocabularies with "zuzu"s
        initial = training_vocab(self.SEED)[0]
        communicating = []
        waited, late_lines = [], []

        def backend():
            learner, failed = in_context_learner(), []

            def completions(prompt):
                if prompt.system_instruction == SPEAKING_INSTRUCTION:
                    communicating.append(prompt)
                if prompt.system_instruction == LABELLING_INSTRUCTION:
                    return "zuzu'}"
                return learner.completions(prompt)

            def scores(prompt):
                if guessing_prompt(prompt):
                    if not failed:
                        failed.append(prompt)
                        waited.append(bool(communicating))
                        raise TransportFailure("service error 503")
                    late_lines.append(prompt.vocabulary_lines)
                return learner.scores(prompt)

            return ScriptedBackend(completions=completions, scores=scores)

        agents = (LLMAgent("A", backend()), LLMAgent("B", backend()))
        config = RunConfig(master_seed=self.SEED, rounds=1, mantel_permutations=10)
        result = run_simulation(config, agents, EventLog(), initial)
        assert waited == [True, True]
        assert all(r.learned.signals() == ["zuzu"] * 15 for r in result.labelling.values())
        assert len(late_lines) == 2 * 15 * 4
        assert {frozenset(lines) for lines in late_lines} == {frozenset(render_entry(e) for e in initial)}


class FlakyOracle(CompositionalOracle):
    """Answers no production for shape 1 at amount 3, no guess for a green
    stimulus, and no listening choice for a signal ending in 'a'."""

    def produce_signals(self, items, task, rng):
        item = next(iter(items))
        if item[1].shape == 1 and item[1].amount == 3:
            return Reply.held([])
        return super().produce_signals([item], task, rng)

    def choose_many(self, items, task, rng):
        item = next(iter(items))
        probe = item[1]
        if task is PromptTask.GUESSING and probe.colour == "green":
            return Reply.held([])
        if task is PromptTask.LISTENING and probe.endswith("a"):
            return Reply.held([])
        return super().choose_many([item], task, rng)


class TestBlockEvents:
    @pytest.mark.parametrize(
        "record",
        [
            engine.GuessingRecord(STIMULUS, ("gaga", "pipo"), 1, False),
            engine.GuessingRecord(STIMULUS, ("gaga", "pipo"), -1, False, "failed-choice"),
            engine.LabellingRecord(STIMULUS, "gaga", "gapo"),
            engine.LabellingRecord(STIMULUS, "gaga", "gaga", failed=True),
            engine.InteractionRecord(2, 5, "A", "B", STIMULUS, "gaga", (OTHER, STIMULUS), 1, True),
            engine.InteractionRecord(
                2, 6, "B", "A", STIMULUS, "", (STIMULUS, OTHER), -1, False, "failed-production"
            ),
            engine.TestingRecord(STIMULUS, "gaga", extrapolated=True),
            engine.TestingRecord(STIMULUS, "", failed=True),
        ],
        ids=[
            "guess", "guess-failed-choice", "label", "label-failed",
            "interaction", "interaction-failed-production", "testing", "testing-failed",
        ],
    )
    def test_record_round_trips_through_json(self, record):
        event = json.loads(json.dumps(record.event()))
        assert type(record).from_event(event) == record

    @given(st.data())
    def test_codec_of_every_record_type(self, data):
        # every decoded type: the block records, the config and its
        # sections, and the run manifest
        value = data.draw(DECODED)
        cls = type(value)
        if isinstance(value, engine._BlockEvent):
            decoded = json.loads(json.dumps({"kind": value.KIND, "agent": "A", **asdict(value)}))
            decode, where = cls.from_event, f"a {value.KIND!r} record"
        else:
            decoded, where = json.loads(json.dumps(asdict(value))), "the mapping"
            decode = partial(engine.decode_fields, cls, where=where)
        # the reprs tell a Stimulus from a plain tuple and a tuple from a list
        assert repr(decode(decoded)) == repr(value)
        for section, name, annotation, named in field_slots(cls, where):
            wrong = [
                json.loads(json.dumps(data.draw(JSON_VALUES[json_type])))
                for json_type in JSON_VALUES if json_type not in FITTING[annotation]
            ]
            # a value of each other JSON type, and an element of the wrong type
            for bad in wrong + WRONG_ELEMENTS.get(annotation, []):
                changed = {**decoded}
                if section is None:
                    changed[name] = bad
                else:
                    changed[section] = {**decoded[section], name: bad}
                expected = f"{named} has {name!r}: {json.dumps(bad)}, not of type {annotation}"
                with pytest.raises(DomainError, match="^" + re.escape(expected) + "$"):
                    decode(changed)

    def test_keys_missing_from_older_logs_decode_to_defaults(self):
        context = {"block": "x", "round": None, "task": 0, "agent": "A"}
        guess = engine.GuessingRecord.from_event(
            {"kind": "guess", **context, "stimulus": [1, "blue", 2],
             "candidates": ["gaga", "pipo"], "chosen": 0, "correct": True}
        )
        assert guess.failure_mode == "none"
        testing = engine.TestingRecord.from_event(
            {"kind": "testing", **context, "stimulus": [1, "blue", 2], "signal": "gaga"}
        )
        assert (testing.failed, testing.extrapolated) == (False, False)
        interaction = engine.InteractionRecord.from_event(
            {"kind": "interaction", **context, "round": 1, "speaker": "A", "listener": "B",
             "stimulus": [1, "blue", 2], "signal": "gaga", "candidates": [[1, "blue", 2]],
             "chosen": 0, "success": True}
        )
        assert interaction.failure_mode == "none"

    def test_oracle_events_pinned_and_replayed(self, tmp_path):
        # pinned when every event was spelled out by hand in the engine: the
        # record codec must not change a byte of events.jsonl
        config = RunConfig(master_seed=21, mantel_permutations=10)
        with EventLog(tmp_path / "events.jsonl") as log:
            result = run_simulation(config, (FlakyOracle("A"), LookupOracle("B")), event_log=log)
        modes = {r.failure_mode for r in result.communication.records}
        assert modes == {"none", "failed-production", "failed-choice"}
        assert any(r.failure_mode == "failed-choice" for r in result.guessing["A"].records)
        assert any(r.failed for r in result.labelling["A"].records)
        assert any(r.failed for r in result.testing["A"].records)
        assert file_digest(tmp_path / "events.jsonl") == FLAKY_ORACLE_EVENTS_SHA256

        save_simulation(result, tmp_path)
        _, loaded = load_run_for_replay(tmp_path)
        for block in ("guessing", "labelling", "testing"):
            for agent_id in result.agent_ids:
                rebuilt = getattr(loaded, block)[agent_id].records
                assert rebuilt == getattr(result, block)[agent_id].records
        assert loaded.communication.records == result.communication.records
        assert loaded.communication.perc_com == result.communication.perc_com


class TestExclusionInvariant:
    def test_no_communication_or_testing_prompt_contains_target(self, tmp_path):
        vocab, split = training_vocab(7)
        config = RunConfig(master_seed=1, rounds=1)
        with EventLog(tmp_path / "events.jsonl") as log:
            backend = ScriptedBackend(completions=lambda p: "gigi", scores=lambda p: -1.0)
            a, b = LLMAgent("A", backend), LLMAgent("B", backend)
            a.set_vocabulary(vocab.copy())
            b.set_vocabulary(vocab.copy())
            run_communication_block(a, b, Random(derive_seed(1, "communication")), config, log)
            engine._run(run_testing_block(a, Random(0), config, log))

        interactions = {
            (e["round"], e["task"]): Stimulus(*e["stimulus"])
            for e in logged(log, "interaction")
        }
        checked_speak = checked_listen = checked_test = 0
        for call in logged(log, "backend_call"):
            lines = call["prompt"].split("\n")
            body, stem = lines[:-1], lines[-1]
            if call["block"] == "communication" and call["call"] == "complete":
                # speaker prompt: stem's attribute prefix absent from context
                prefix = stem[: stem.index("'word':'")]
                assert not any(line.startswith(prefix) for line in body)
                checked_speak += 1
            elif call["block"] == "communication" and call["call"] == "score":
                target = interactions[(call["round"], call["task"])]
                fragment = (
                    f"'shape':{target.shape},'colour':'{target.colour}','amount':{target.amount}"
                )
                assert not any(fragment in line for line in body)
                checked_listen += 1
            elif call["block"] == "testing":
                prefix = stem[: stem.index("'word':'")]
                assert not any(line.startswith(prefix) for line in body)
                checked_test += 1
        assert checked_speak == 30
        assert checked_listen == 30 * 4
        assert checked_test == 27

    def test_labelling_and_guessing_prompts_contain_target(self, tmp_path):
        vocab, _ = training_vocab(7)
        with EventLog(tmp_path / "events.jsonl") as log:
            backend = ScriptedBackend(completions=lambda p: "gigi", scores=lambda p: -1.0)
            agent = LLMAgent("A", backend)
            agent.set_vocabulary(vocab.copy())
            engine._run(run_labelling_block(agent, vocab, Random(0), RunConfig(), log))
            agent.set_vocabulary(vocab.copy())
            engine._run(run_guessing_block(agent, vocab, Random(0), RunConfig(), log))
        for call in logged(log, "backend_call"):
            lines = call["prompt"].split("\n")
            body, stem = lines[:-1], lines[-1]
            prefix = stem[: stem.index("'word':'")]
            assert sum(1 for line in body if line.startswith(prefix)) == 1
