"""A block's tasks answered in one backend call give the records of the
per-task path, for at most one request more.

``PerTaskAgent`` is an ``LLMAgent`` that answers one task per list, so the
engine asks every task alone, one request per attempt. Both agents face the
same deterministic service: every reply and every failure is a function of
the prompt text alone, whether the prompt is sent in a list or alone. A
failure keyed on a call counter would not be a deterministic service, since
the two paths make different calls.
"""

import tempfile
from functools import lru_cache
from itertools import islice
from pathlib import Path
from random import Random

import pytest

from helpers import service
from refgame.agents import LLMAgent
from refgame.backend import EventLog
from refgame.domain import generate_language, sample_training_set
from refgame.engine import RunConfig, _run, run_guessing_block, run_labelling_block, run_testing_block
from refgame.prompts import completion_stem

SEEDS = range(30)
# where the service fails; "always" placements fail every prompt for one
# stimulus, so its task exhausts its attempts
PLACEMENTS = ("none", "unparseable", "call-error", "always-overflow", "always-unparseable")


class PerTaskAgent(LLMAgent):
    def produce_signals(self, items, task, rng):
        return super().produce_signals(islice(items, 1), task, rng)

    def choose_many(self, items, task, rng):
        return super().choose_many(islice(items, 1), task, rng)


class CountingAgent(LLMAgent):
    """The batched agent; records how many tasks each batch answered."""

    def __init__(self, *args, answered, **kwargs):
        super().__init__(*args, **kwargs)
        self.answered = answered

    def _counted(self, reply):
        read = reply.read

        def counted(event_log, kept=None):
            answers = read(event_log, kept)
            self.answered.append(len(answers))
            return answers

        reply.read = counted
        return reply

    def produce_signals(self, items, task, rng):
        return self._counted(super().produce_signals(items, task, rng))

    def choose_many(self, items, task, rng):
        return self._counted(super().choose_many(items, task, rng))


@lru_cache(maxsize=None)
def language(seed: int):
    train = sample_training_set(Random(seed)).train
    return train, generate_language(Random(seed), train)


def run_block(block: str, agent_cls, seed: int, placement: str, **agent_kwargs):
    """The block's result, its block events, the rng state after it, the
    agent's vocabulary and the number of requests sent."""
    train, vocab = language(seed)
    doomed = Random(seed).choice(train if block != "testing" else sorted(vocab.stimuli()))
    backend = service(seed, placement, completion_stem(doomed))
    agent = agent_cls("A", backend, **agent_kwargs)
    agent.set_vocabulary(vocab.copy())
    rng = Random(seed + 1)
    config = RunConfig(max_agent_retries=2)
    with tempfile.TemporaryDirectory() as tmp:
        with EventLog(Path(tmp) / "events.jsonl") as log:
            if block == "guessing":
                result = _run(run_guessing_block(agent, vocab, rng, config, log))
            elif block == "labelling":
                result = _run(run_labelling_block(agent, vocab, rng, config, log))
            else:
                result = _run(run_testing_block(agent, rng, config, log))
        # backend_call and backend_failed records differ by batch: one request per list or per task
        events = [e for e in EventLog.read(log.path) if e["kind"] not in ("backend_call", "backend_failed")]
    return result, events, rng.getstate(), agent.vocabulary, backend.requests


@pytest.mark.parametrize("block", ["guessing", "labelling", "testing"])
def test_batched_block_equals_per_task_block(block):
    answered = []
    failed = 0
    for seed in SEEDS:
        for placement in PLACEMENTS:
            expected = run_block(block, PerTaskAgent, seed, placement)
            batched = run_block(block, CountingAgent, seed, placement, answered=answered)
            result, events, state, vocab, requests = batched
            assert result == expected[0], (seed, placement)
            assert events == expected[1], (seed, placement)
            assert state == expected[2], (seed, placement)
            assert vocab == expected[3], (seed, placement)
            # the one extra request is the list that failed
            assert requests <= expected[4] + 1, (seed, placement)
            if placement == "none":
                assert requests == 1, seed
            failed += sum(
                getattr(r, "failed", False) or getattr(r, "failure_mode", "none") != "none"
                for r in result.records
            )
    tasks = 27 if block == "testing" else 15
    # every failure placement was reached: whole batches, none, and (for
    # productions, whose replies parse one by one) a leading part
    assert failed > 0
    assert 0 in answered and tasks in answered
    if block != "guessing":
        assert any(0 < k < tasks for k in answered)
