from random import Random

import pytest

from refgame.agents import (
    AgentError,
    ChoiceFailure,
    CompositionalOracle,
    LLMAgent,
    LookupOracle,
    ProductionFailure,
    RandomChooser,
    make_agent,
)
from refgame.backend import ScriptedBackend, TransportFailure
from refgame.domain import Stimulus, Vocabulary, VocabularyEntry, generate_language, sample_training_set
from refgame.prompts import PromptTask


def training_vocab(seed=0):
    split = sample_training_set(Random(seed))
    return generate_language(Random(seed), split.train)


class TestLookupOracle:
    def test_produces_stored_signal(self):
        vocab = training_vocab()
        oracle = LookupOracle("A")
        oracle.set_vocabulary(vocab.copy())
        target = vocab.stimuli()[3]
        assert oracle.produce_signal(target, PromptTask.LABELLING, Random(0)) == vocab.signal_for(target)
        assert not oracle.extrapolated(target)

    def test_nearest_neighbour_extrapolation(self):
        entries = [
            VocabularyEntry(Stimulus(1, "blue", 1), "gali"),
            VocabularyEntry(Stimulus(3, "orange", 3), "nuwa"),
        ]
        oracle = LookupOracle("A")
        oracle.set_vocabulary(Vocabulary(entries))
        # (1, blue, 2) is distance 1 from (1, blue, 1), distance 3 from the other
        produced = oracle.produce_signal(Stimulus(1, "blue", 2), PromptTask.SPEAKING, Random(0))
        assert produced == "gali"
        assert oracle.extrapolated(Stimulus(1, "blue", 2))

    def test_extrapolation_tie_breaks_canonically(self):
        entries = [
            VocabularyEntry(Stimulus(1, "blue", 1), "gali"),
            VocabularyEntry(Stimulus(1, "blue", 3), "nuwa"),
        ]
        oracle = LookupOracle("A")
        oracle.set_vocabulary(Vocabulary(entries))
        # (1, blue, 2) is distance 1 from both entries; canonical order wins
        assert oracle.produce_signal(Stimulus(1, "blue", 2), PromptTask.SPEAKING, Random(0)) == "gali"

    def test_guessing_choice(self):
        vocab = training_vocab()
        oracle = LookupOracle("A")
        oracle.set_vocabulary(vocab.copy())
        target = vocab.stimuli()[0]
        truth = vocab.signal_for(target)
        candidates = [vocab.signals()[5], truth, vocab.signals()[9]]
        assert oracle.choose(target, candidates, PromptTask.GUESSING, Random(0)) == 1

    def test_listening_choice(self):
        vocab = training_vocab()
        oracle = LookupOracle("B")
        oracle.set_vocabulary(vocab.copy())
        target = vocab.stimuli()[2]
        candidates = [vocab.stimuli()[7], vocab.stimuli()[2], vocab.stimuli()[11]]
        chosen = oracle.choose(vocab.signal_for(target), candidates, PromptTask.LISTENING, Random(0))
        assert candidates[chosen] == target


class TestCompositionalOracle:
    def test_spec_concatenation_example(self):
        oracle = CompositionalOracle(
            "A",
            shape_table={1: "su", 2: "gi", 3: "wi"},
            colour_table={"blue": "nu", "green": "ne", "orange": "na"},
            amount_table={1: "su", 2: "pepi", 3: "pitite"},
        )
        assert oracle.rule_signal(Stimulus(1, "green", 3)) == "sunepitite"
        assert (
            oracle.produce_signal(Stimulus(1, "green", 3), PromptTask.SPEAKING, Random(0))
            == "sunepitite"
        )

    def test_choice_matches_rule(self):
        oracle = CompositionalOracle("A")
        stimuli = [Stimulus(1, "blue", 1), Stimulus(2, "green", 2), Stimulus(3, "orange", 3)]
        probe = oracle.rule_signal(stimuli[1])
        assert oracle.choose(probe, stimuli, PromptTask.LISTENING, Random(0)) == 1
        signals = [oracle.rule_signal(s) for s in stimuli]
        assert oracle.choose(stimuli[2], signals, PromptTask.GUESSING, Random(0)) == 2


class TestRandomChooser:
    def test_uniform_choice(self):
        chooser = RandomChooser("C")
        chooser.set_vocabulary(training_vocab())
        rng = Random(0)
        picks = [chooser.choose("x", ["a", "b", "c", "d"], PromptTask.LISTENING, rng) for _ in range(4000)]
        for idx in range(4):
            assert abs(picks.count(idx) / 4000 - 0.25) < 0.03


class TestLLMAgent:
    def test_scripted_echo_word(self):
        backend = ScriptedBackend(completions=lambda prompt: "hanosa'}")
        agent = LLMAgent("A", backend)
        agent.set_vocabulary(training_vocab())
        target = agent.vocabulary.stimuli()[0]
        assert agent.produce_signal(target, PromptTask.LABELLING, Random(0)) == "hanosa"

    def test_argmax_scoring(self):
        values = iter([-1.0, -0.5, -2.0, -3.0])
        backend = ScriptedBackend(scores=lambda prompt: next(values))
        agent = LLMAgent("A", backend)
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        candidates = vocab.stimuli()[:4]
        chosen = agent.choose("hanosa", candidates, PromptTask.LISTENING, Random(0), exclude=vocab.stimuli()[5])
        assert chosen == 1

    def test_tie_breaks_to_first(self):
        backend = ScriptedBackend(scores=lambda prompt: -1.0)
        agent = LLMAgent("A", backend)
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        chosen = agent.choose("hanosa", vocab.stimuli()[:4], PromptTask.LISTENING, Random(0))
        assert chosen == 0

    @pytest.mark.parametrize("failures", [0, 1, 2])
    def test_one_score_call_per_attempt(self, failures):
        batches = []

        class CountingBackend(ScriptedBackend):
            def score(self, prompts):
                batches.append([p.continuation for p in prompts])
                return super().score(prompts)

        def scores(prompt):
            if len(batches) <= failures:
                raise TransportFailure(f"transient failure in batch {len(batches)}")
            return -1.0

        backend = CountingBackend(scores=scores)
        agent = LLMAgent("A", backend, max_retries=3)
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        candidates = vocab.stimuli()[:4]
        rng = Random(0)
        assert agent.choose("hanosa", candidates, PromptTask.LISTENING, rng) == 0
        assert len(batches) == failures + 1
        assert all(len(batch) == 4 and len(set(batch)) == 4 for batch in batches)
        # one shared-shuffle seed is drawn per attempt
        expected = Random(0)
        for _ in range(failures + 1):
            expected.getrandbits(64)
        assert rng.getstate() == expected.getstate()

    def test_production_failure_after_retries(self):
        prompts = []
        backend = ScriptedBackend(completions=lambda prompt: prompts.append(prompt) or "```")
        agent = LLMAgent("A", backend, max_retries=3)
        agent.set_vocabulary(training_vocab())
        with pytest.raises(ProductionFailure):
            agent.produce_signal(agent.vocabulary.stimuli()[0], PromptTask.LABELLING, Random(0))
        assert len(prompts) == 3

    def test_transient_parse_failure_recovers(self):
        replies = iter(["{}", "sutupepi"])
        backend = ScriptedBackend(completions=lambda prompt: next(replies))
        agent = LLMAgent("A", backend, max_retries=3)
        agent.set_vocabulary(training_vocab())
        assert agent.produce_signal(agent.vocabulary.stimuli()[0], PromptTask.LABELLING, Random(0)) == "sutupepi"

    def test_choice_failure_after_retries(self):
        def broken(prompt):
            raise TransportFailure("down")

        backend = ScriptedBackend(scores=broken)
        agent = LLMAgent("A", backend, max_retries=2)
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        with pytest.raises(ChoiceFailure):
            agent.choose("hanosa", vocab.stimuli()[:4], PromptTask.LISTENING, Random(0))

    def test_candidate_prompts_share_context(self):
        seen = []

        def score(prompt):
            seen.append(prompt.vocabulary_lines)
            return -1.0

        backend = ScriptedBackend(scores=score)
        agent = LLMAgent("A", backend)
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        agent.choose("hanosa", vocab.stimuli()[:4], PromptTask.LISTENING, Random(3))
        assert len(seen) == 4
        assert len(set(seen)) == 1


class TestBatches:
    def test_productions_stop_at_first_unparseable_reply(self):
        replies = iter(["gali'}", "nemo'}", "```", "tupa'}"])
        batches = []

        class CountingBackend(ScriptedBackend):
            def complete(self, prompts, tasks=None):
                batches.append(list(tasks))
                return super().complete(prompts, tasks)

        agent = LLMAgent("A", CountingBackend(completions=lambda prompt: next(replies)))
        agent.set_vocabulary(training_vocab())
        items = list(enumerate(agent.vocabulary.stimuli()[:4]))
        assert agent.produce_signals(iter(items), PromptTask.LABELLING, Random(0)) == ["gali", "nemo"]
        assert batches == [[0, 1, 2, 3]]

    def test_choices_in_one_call_shared_shuffle_per_task(self):
        batches = []

        def score(prompt):
            batches.append(prompt.vocabulary_lines)
            return -1.0 if prompt.continuation.startswith("nemo") else -2.0

        agent = LLMAgent("A", ScriptedBackend(scores=score))
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        stimuli = vocab.stimuli()
        items = [(0, stimuli[0], ["gali", "nemo", "tupa"]), (1, stimuli[1], ["nemo", "sira"])]
        rng = Random(0)
        assert agent.choose_many(iter(items), PromptTask.GUESSING, rng) == [1, 0]
        assert len(batches) == 5 and len(set(batches[:3])) == 1 and len(set(batches[3:])) == 1
        expected = Random(0)
        expected.getrandbits(64)
        expected.getrandbits(64)
        assert rng.getstate() == expected.getstate()  # one shared-shuffle seed per task

    def test_failed_call_answers_nothing(self):
        def broken(prompt):
            raise TransportFailure("down")

        agent = LLMAgent("A", ScriptedBackend(completions=broken, scores=broken))
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        stimuli = vocab.stimuli()
        assert agent.produce_signals(enumerate(stimuli), PromptTask.LABELLING, Random(0)) == []
        items = [(0, stimuli[0], ["gali", "nemo"])]
        assert agent.choose_many(iter(items), PromptTask.GUESSING, Random(0)) == []

    @pytest.mark.parametrize("agent_cls", [LookupOracle, CompositionalOracle, RandomChooser])
    def test_oracles_answer_task_by_task(self, agent_cls):
        # an oracle's batch methods answer nothing and pull no task
        agent = agent_cls("A")
        agent.set_vocabulary(training_vocab())
        tasks = iter([(0, agent.vocabulary.stimuli()[0])])
        assert agent.produce_signals(tasks, PromptTask.LABELLING, Random(0)) == []
        assert agent.choose_many(tasks, PromptTask.GUESSING, Random(0)) == []
        assert next(tasks)[0] == 0


class TestFactory:
    def test_oracle_specs(self):
        assert isinstance(make_agent("oracle:lookup", "A"), LookupOracle)
        assert isinstance(make_agent("oracle:compositional", "A"), CompositionalOracle)
        assert isinstance(make_agent("oracle:random", "A"), RandomChooser)

    def test_llm_requires_backend(self):
        with pytest.raises(AgentError):
            make_agent("llm", "A")
        agent = make_agent("llm", "A", backend=ScriptedBackend())
        assert isinstance(agent, LLMAgent)

    def test_unknown_specs(self):
        with pytest.raises(AgentError):
            make_agent("oracle:psychic", "A")
        with pytest.raises(AgentError):
            make_agent("human", "A")
