import json
import traceback
from random import Random

import pytest

import refgame.engine as engine
import refgame.metrics as metrics
from helpers import BreakingOracle, RepairOracle, ScriptedBackend, in_context_learner, logged
from refgame.agents import (
    CompositionalOracle,
    LLMAgent,
    LookupOracle,
    RandomChooser,
)
from refgame.backend import EventLog
from refgame.domain import Stimulus, enumerate_stimuli, generate_language, sample_training_set
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
    save_partial,
    save_simulation,
)
from refgame.prompts import PromptTask

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
        assert config.tasks_per_round == 30
        assert config.candidate_count == 4
        assert config.mantel_permutations == 10_000

    def test_validation(self):
        with pytest.raises(EngineError):
            RunConfig(tasks_per_round=28).validate()
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
        result = run_guessing_block(agent, vocab, Random(0))
        assert result.accuracy == 1.0
        assert len(result.records) == 15

    def test_candidate_sets(self):
        vocab, _ = training_vocab()
        agent = LookupOracle("A")
        agent.set_vocabulary(vocab.copy())
        result = run_guessing_block(agent, vocab, Random(3), distractors=3)
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
            result = run_guessing_block(agent, vocab, Random(seed))
            correct += sum(r.correct for r in result.records)
            total += len(result.records)
        assert abs(correct / total - 0.25) < 0.06


class TestLabellingBlock:
    def test_lookup_oracle_learns_exactly(self):
        vocab, _ = training_vocab()
        agent = LookupOracle("A")
        agent.set_vocabulary(vocab.copy())
        result = run_labelling_block(agent, vocab, Random(0))
        assert result.mean_distance == 0.0
        assert result.learned == vocab
        assert agent.vocabulary == result.learned

    def test_constant_backend_collapses_vocab(self):
        vocab, _ = training_vocab()
        backend = ScriptedBackend(completions=lambda p: "gigi")
        agent = LLMAgent("A", backend)
        agent.set_vocabulary(vocab.copy())
        result = run_labelling_block(agent, vocab, Random(0))
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
        result = run_labelling_block(agent, vocab, Random(0), attempts=2)
        failed = [r for r in result.records if r.failed]
        assert len(failed) == 1
        assert failed[0].stimulus == target
        assert result.learned.signal_for(target) == vocab.signal_for(target)


class TestCommunicationBlock:
    def test_lookup_dyad_fully_successful(self):
        vocab, _ = training_vocab()
        a, b = lookup_pair(vocab)
        result = run_communication_block(a, b, Random(0), RunConfig())
        assert result.perc_com == [1.0, 1.0, 1.0, 1.0]
        assert len(result.records) == 120

    def test_candidate_invariants(self):
        vocab, split = training_vocab()
        a, b = lookup_pair(vocab)
        result = run_communication_block(a, b, Random(1), RunConfig(rounds=1))
        train = set(split.train)
        for record in result.records:
            assert record.candidates.count(record.stimulus) == 1
            assert set(record.candidates) <= train
            assert len(set(record.candidates)) == len(record.candidates) == 4

    def test_candidate_count_switch(self):
        # the four-distractor reading of the protocol stays available
        vocab, _ = training_vocab()
        a, b = lookup_pair(vocab)
        result = run_communication_block(a, b, Random(1), RunConfig(rounds=1, candidate_count=5))
        assert all(len(r.candidates) == 5 for r in result.records)

    def test_vocabulary_sync_and_flags(self):
        vocab, _ = training_vocab()
        a, b = lookup_pair(vocab)
        result = run_communication_block(a, b, Random(2), RunConfig(rounds=1))
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
        result = run_communication_block(a, b, Random(3), RunConfig(rounds=1))
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
        result = run_communication_block(a, b, Random(4), RunConfig(rounds=2))
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


class TestTestingBlock:
    def test_compositional_covers_space(self):
        vocab, split = training_vocab()
        agent = CompositionalOracle("A")
        agent.set_vocabulary(vocab.copy())
        result = run_testing_block(agent, Random(0))
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
        result = run_testing_block(agent, Random(0))
        flagged = {r.stimulus for r in result.records if r.extrapolated}
        assert flagged == set(split.test)

    def test_context_sizes_from_prompts(self, tmp_path):
        # train stimulus: 14 lines; test stimulus: 15 lines
        vocab, split = training_vocab()
        with EventLog(tmp_path / "events.jsonl") as log:
            backend = ScriptedBackend(completions=lambda p: "gigi", event_log=log)
            agent = LLMAgent("A", backend)
            agent.set_vocabulary(vocab.copy())
            run_testing_block(agent, Random(0), event_log=log)
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
        result = run_simulation(config, vocab_pair)
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
        r1 = run_simulation(config, lookup_pair(training_vocab(1)[0]))
        r2 = run_simulation(config, lookup_pair(training_vocab(1)[0]))
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
        result = run_simulation(config, (CompositionalOracle("A"), LookupOracle("B")))
        rows = {(row.block, row.round, row.agent): row for row in result.metric_rows}
        initial_r = rows["initial", None, ""].topsim_r
        assert result.labelling["B"].learned.pairs() == result.initial_language.pairs()
        assert rows["labelling", None, "B"].topsim_r == initial_r
        assert rows["communication", 4, "B"].topsim_r != initial_r

    def test_generated_language_when_not_given(self):
        config = RunConfig(master_seed=3, mantel_permutations=50)
        result = run_simulation(config, (LookupOracle("A"), LookupOracle("B")))
        assert len(result.initial_language) == 15

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
            run_simulation(config, (a, b))
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
            run_simulation(config, (LookupOracle("A"), ExplodingGuesser("B")))
        partial = info.value.partial
        assert partial.guessing == {}
        assert partial.labelling == {}
        save_partial(partial, tmp_path, error=str(info.value))
        manifest = RunManifest.load(tmp_path)
        assert manifest.status == "incomplete"
        assert manifest.extra["completed_blocks"] == []
        assert sorted(path.name for path in (tmp_path / "vocab").iterdir()) == ["initial.vocab"]

    @pytest.mark.parametrize("breaking", ["A", "B", "AB"])
    def test_abort_in_shared_block_keeps_cause_and_partial(self, breaking):
        # the two agents label at once, agent B on a worker thread; the
        # agent error that wins (A's when both break) is the cause, with
        # the traceback of the thread that raised it
        agents = tuple(
            BreakingOracle(i, PromptTask.LABELLING) if i in breaking else LookupOracle(i) for i in "AB"
        )
        with pytest.raises(SimulationAborted) as info:
            run_simulation(RunConfig(master_seed=2, mantel_permutations=10), agents)
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
        result = run_simulation(config, (a, b))
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
            run_simulation(config, (LookupOracle("A"), LookupOracle("B")))

    def test_metric_rows_measure_each_signal_pair_once_per_call(self, monkeypatch):
        config = RunConfig(master_seed=2, mantel_permutations=10)
        result = run_simulation(config, (CompositionalOracle("A"), LookupOracle("B")))
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
        result = run_simulation(config, (ConstantSpeaker("A"), LookupOracle("B")))
        testing = {row.agent: row for row in result.metric_rows if row.block == "testing"}
        assert testing["A"].gen_score is None
        assert testing["A"].degenerate

    def test_repair_oracle_topsim_strictly_increases(self):
        config = RunConfig(master_seed=8, mantel_permutations=2000)
        agents = (RepairOracle("A", repair_step=3), RepairOracle("B", repair_step=3))
        result = run_simulation(config, agents)
        z_by_round = [
            row.topsim_z
            for row in result.metric_rows
            if row.block == "communication" and row.agent == "A"
        ]
        assert len(z_by_round) == 4
        assert all(earlier < later for earlier, later in zip(z_by_round, z_by_round[1:]))


STIMULUS = Stimulus(1, "blue", 2)
OTHER = Stimulus(3, "orange", 1)


class FlakyOracle(CompositionalOracle):
    """Answers no production for shape 1 at amount 3, no guess for a green
    stimulus, and no listening choice for a signal ending in 'a'."""

    def produce_signals(self, items, task, rng):
        item = next(iter(items))
        if item[1].shape == 1 and item[1].amount == 3:
            return []
        return super().produce_signals([item], task, rng)

    def choose_many(self, items, task, rng):
        item = next(iter(items))
        probe = item[1]
        if task is PromptTask.GUESSING and probe.colour == "green":
            return []
        if task is PromptTask.LISTENING and probe.endswith("a"):
            return []
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
            backend = ScriptedBackend(
                completions=lambda p: "gigi", scores=lambda p: -1.0, event_log=log
            )
            a, b = LLMAgent("A", backend), LLMAgent("B", backend)
            a.set_vocabulary(vocab.copy())
            b.set_vocabulary(vocab.copy())
            run_communication_block(a, b, Random(derive_seed(1, "communication")), config, event_log=log)
            run_testing_block(a, Random(0), event_log=log)

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
            backend = ScriptedBackend(
                completions=lambda p: "gigi", scores=lambda p: -1.0, event_log=log
            )
            agent = LLMAgent("A", backend)
            agent.set_vocabulary(vocab.copy())
            run_labelling_block(agent, vocab, Random(0), event_log=log)
            agent.set_vocabulary(vocab.copy())
            run_guessing_block(agent, vocab, Random(0), event_log=log)
        for call in logged(log, "backend_call"):
            lines = call["prompt"].split("\n")
            body, stem = lines[:-1], lines[-1]
            prefix = stem[: stem.index("'word':'")]
            assert sum(1 for line in body if line.startswith(prefix)) == 1
