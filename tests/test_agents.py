from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import InTurnAgent, ScriptedBackend
from refgame.agents import (
    AgentError,
    _argmin,
    _closest,
    CompositionalOracle,
    LLMAgent,
    LookupOracle,
    RandomChooser,
    make_agent,
)
from refgame.backend import EventLog, TransportFailure
from refgame.domain import Stimulus, Vocabulary, VocabularyEntry, generate_language, sample_training_set
from refgame.engine import RunConfig, _alone, _run, run_communication_block
from refgame.metrics import normalized_levenshtein
from refgame.prompts import PromptTask


def training_vocab(seed=0):
    split = sample_training_set(Random(seed))
    return generate_language(Random(seed), split.train)


def communication_round(backend, max_agent_retries, agent=LLMAgent):
    """One communication round of a dyad of ``agent``s over ``backend``."""
    agents = agent("A", backend), agent("B", backend)
    for agent in agents:
        agent.set_vocabulary(training_vocab())
    config = RunConfig(rounds=1, max_agent_retries=max_agent_retries)
    return run_communication_block(*agents, Random(0), config, EventLog())


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


# short strings over few letters, so equal and near signals are common
signals = st.text(alphabet="gaku", max_size=4)


@given(signals, st.lists(signals, min_size=1, max_size=6))
def test_closest_is_the_argmin_of_edit_distances(signal, others):
    assert _closest(signal, others) == _argmin([normalized_levenshtein(signal, o) for o in others])


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
        produced = agent.produce_signals([(0, target)], PromptTask.LABELLING, Random(0)).read(EventLog())
        assert produced == ["hanosa"]

    def test_argmax_scoring(self):
        values = iter([-1.0, -0.5, -2.0, -3.0])
        backend = ScriptedBackend(scores=lambda prompt: next(values))
        agent = LLMAgent("A", backend)
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        candidates = vocab.stimuli()[:4]
        items = [(0, "hanosa", candidates, vocab.stimuli()[5])]
        assert agent.choose_many(items, PromptTask.LISTENING, Random(0)).read(EventLog()) == [1]

    def test_tie_breaks_to_first(self):
        backend = ScriptedBackend(scores=lambda prompt: -1.0)
        agent = LLMAgent("A", backend)
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        items = [(0, "hanosa", vocab.stimuli()[:4], None)]
        assert agent.choose_many(items, PromptTask.LISTENING, Random(0)).read(EventLog()) == [0]

    @pytest.mark.parametrize("failures", [0, 1, 2])
    def test_one_score_call_per_attempt(self, failures):
        # the engine asks a task alone, a list of one per attempt
        batches = []

        class CountingBackend(ScriptedBackend):
            def score(self, prompts, tasks):
                batches.append([p.continuation for p in prompts])
                return super().score(prompts, tasks)

        def scores(prompt):
            if len(batches) <= failures:
                raise TransportFailure(f"transient failure in batch {len(batches)}")
            return -1.0

        backend = CountingBackend(scores=scores)
        agent = LLMAgent("A", backend)
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        candidates = vocab.stimuli()[:4]
        rng = Random(0)
        item = (0, "hanosa", candidates, None)
        assert _run(_alone(agent.choose_many, item, PromptTask.LISTENING, rng, 3, EventLog())) == 0
        assert len(batches) == failures + 1
        assert all(len(batch) == 4 and len(set(batch)) == 4 for batch in batches)
        # one shared-shuffle seed is drawn per attempt
        expected = Random(0)
        for _ in range(failures + 1):
            expected.getrandbits(64)
        assert rng.getstate() == expected.getstate()

    def test_production_failure_after_retries(self):
        # every attempt of every speaker fails: each interaction costs
        # max_agent_retries requests and is a failed production
        prompts = []
        backend = ScriptedBackend(completions=lambda prompt: prompts.append(prompt) or "```")
        result = communication_round(backend, max_agent_retries=3)
        assert all(r.failure_mode == "failed-production" for r in result.records)
        assert len(prompts) == 3 * len(result.records)

    def test_transient_parse_failure_recovers(self):
        replies = iter(["{}", "sutupepi"])
        backend = ScriptedBackend(
            completions=lambda prompt: next(replies, "gali"), scores=lambda prompt: -1.0
        )
        result = communication_round(backend, max_agent_retries=3)
        assert result.records[0].signal == "sutupepi"
        assert all(r.failure_mode == "none" for r in result.records)

    def test_choice_failure_after_retries(self):
        scored = []

        def broken(prompt):
            scored.append(prompt)
            raise TransportFailure("down")

        backend = ScriptedBackend(completions=lambda prompt: "hanosa'}", scores=broken)
        # in turn: an agent that speaks ahead also sends listening requests
        # on a predicted outcome, which are discarded
        result = communication_round(backend, max_agent_retries=2, agent=InTurnAgent)
        assert all(r.failure_mode == "failed-choice" and r.chosen == -1 for r in result.records)
        assert len(scored) == 2 * len(result.records)  # the first prompt of each attempt

    def test_candidate_prompts_share_context(self):
        seen = []

        def score(prompt):
            seen.append(prompt.vocabulary_lines)
            return -1.0

        backend = ScriptedBackend(scores=score)
        agent = LLMAgent("A", backend)
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        items = [(0, "hanosa", vocab.stimuli()[:4], None)]
        agent.choose_many(items, PromptTask.LISTENING, Random(3)).read(EventLog())
        assert len(seen) == 4
        assert len(set(seen)) == 1


class TestBatches:
    def test_productions_stop_at_first_unparseable_reply(self):
        replies = iter(["gali'}", "nemo'}", "```", "tupa'}"])
        batches = []

        class CountingBackend(ScriptedBackend):
            def complete(self, prompts, tasks):
                batches.append(list(tasks))
                return super().complete(prompts, tasks)

        agent = LLMAgent("A", CountingBackend(completions=lambda prompt: next(replies)))
        agent.set_vocabulary(training_vocab())
        items = list(enumerate(agent.vocabulary.stimuli()[:4]))
        produced = agent.produce_signals(iter(items), PromptTask.LABELLING, Random(0)).read(EventLog())
        assert produced == ["gali", "nemo"]
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
        items = [(0, stimuli[0], ["gali", "nemo", "tupa"], None), (1, stimuli[1], ["nemo", "sira"], None)]
        rng = Random(0)
        assert agent.choose_many(iter(items), PromptTask.GUESSING, rng).read(EventLog()) == [1, 0]
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
        assert agent.produce_signals(enumerate(stimuli), PromptTask.LABELLING, Random(0)).read(EventLog()) == []
        items = [(0, stimuli[0], ["gali", "nemo"], None)]
        assert agent.choose_many(iter(items), PromptTask.GUESSING, Random(0)).read(EventLog()) == []

    @pytest.mark.parametrize("agent_cls", [LookupOracle, CompositionalOracle, RandomChooser])
    def test_oracles_answer_task_by_task(self, agent_cls):
        # an oracle's list methods answer the first task and pull no other
        agent = agent_cls("A")
        vocab = training_vocab()
        agent.set_vocabulary(vocab)
        stimuli = vocab.stimuli()
        tasks = iter([(0, stimuli[0]), (1, stimuli[1])])
        produced = agent.produce_signals(tasks, PromptTask.LABELLING, Random(0)).read(EventLog())
        assert produced == [agent.produce_signal(stimuli[0], PromptTask.LABELLING, Random(0))]
        assert next(tasks)[0] == 1
        signals = [vocab.signal_for(s) for s in stimuli[:3]]
        choices = iter([(0, stimuli[2], signals, None), (1, stimuli[0], signals, None)])
        chosen = agent.choose_many(choices, PromptTask.GUESSING, Random(0)).read(EventLog())
        assert chosen == [agent.choose(stimuli[2], signals, PromptTask.GUESSING, Random(0))]
        assert next(choices)[0] == 1
        assert agent.produce_signals(iter([]), PromptTask.LABELLING, Random(0)).read(EventLog()) == []


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
