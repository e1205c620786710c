"""A block's tasks answered in one backend call give the records of the
per-task path.

``PerTaskAgent`` is an ``LLMAgent`` whose batch methods answer nothing, so
the engine runs every task through ``produce_signal``/``choose``, one
request at a time. Both agents face the same deterministic service: every
reply and every failure is a function of the prompt text alone, whether the
prompt is sent in a list or alone. A failure keyed on a call counter would
not be a deterministic service, since the two paths make different calls.
"""

import hashlib
import tempfile
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest

from refgame.agents import LLMAgent
from refgame.backend import ContextOverflow, EventLog, ScriptedBackend, TransportFailure
from refgame.domain import generate_language, sample_training_set
from refgame.engine import run_guessing_block, run_labelling_block, run_testing_block
from refgame.prompts import completion_stem

SEEDS = range(30)
# where the service fails; "always" placements fail every prompt for one
# stimulus, so its task exhausts the agent's retries
PLACEMENTS = ("none", "unparseable", "call-error", "always-overflow", "always-unparseable")
WORDS = ("gali", "nemo", "tupa", "sira", "hoke", "mupi")


class PerTaskAgent(LLMAgent):
    def produce_signals(self, items, task, rng):
        return []

    def choose_many(self, items, task, rng):
        return []


class CountingAgent(LLMAgent):
    """The batched agent; records how many tasks each batch answered."""

    def __init__(self, *args, answered, **kwargs):
        super().__init__(*args, **kwargs)
        self.answered = answered

    def produce_signals(self, items, task, rng):
        signals = super().produce_signals(items, task, rng)
        self.answered.append(len(signals))
        return signals

    def choose_many(self, items, task, rng):
        chosen = super().choose_many(items, task, rng)
        self.answered.append(len(chosen))
        return chosen


def service(seed: int, placement: str, doomed_stem: str) -> ScriptedBackend:
    """A scripted service whose replies and failures depend only on the text
    of the prompt (and on ``seed``, which varies the service per example)."""

    def digest(prompt) -> int:
        text = f"{seed}|{prompt.user_text()}|{prompt.continuation}"
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")

    def fail(prompt) -> bool:
        """True when this prompt's reply is unusable; raises when it fails the call."""
        h = digest(prompt)
        if placement == "call-error" and h % 17 == 0:
            raise TransportFailure("service error 503")
        if prompt.stem == doomed_stem:
            if placement == "always-overflow":
                raise ContextOverflow("estimated 9000 tokens exceeds budget 8192")
            return placement == "always-unparseable"
        return placement == "unparseable" and h % 7 == 0

    def complete(prompt) -> str:
        return "```" if fail(prompt) else WORDS[digest(prompt) % len(WORDS)] + "'}"

    def score(prompt) -> float:
        # a positive log-probability is a malformed reply, which fails the call
        return 0.5 if fail(prompt) else -float(digest(prompt) % 1000) / 100.0

    return ScriptedBackend(completions=complete, scores=score)


@lru_cache(maxsize=None)
def language(seed: int):
    train = sample_training_set(Random(seed)).train
    return train, generate_language(Random(seed), train)


def run_block(block: str, agent_cls, seed: int, placement: str, **agent_kwargs):
    """The block's result, its block events, the rng state after it and the
    agent's vocabulary."""
    train, vocab = language(seed)
    doomed = Random(seed).choice(train if block != "testing" else sorted(vocab.stimuli()))
    backend = service(seed, placement, completion_stem(doomed))
    agent = agent_cls("A", backend, max_retries=2, **agent_kwargs)
    agent.set_vocabulary(vocab.copy())
    rng = Random(seed + 1)
    with tempfile.TemporaryDirectory() as tmp:
        with EventLog(Path(tmp) / "events.jsonl") as log:
            if block == "guessing":
                result = run_guessing_block(agent, vocab, rng, event_log=log)
            elif block == "labelling":
                result = run_labelling_block(agent, vocab, rng, event_log=log)
            else:
                result = run_testing_block(agent, rng, event_log=log)
        events = EventLog.read(log.path)
    return result, events, rng.getstate(), agent.vocabulary


@pytest.mark.parametrize("block", ["guessing", "labelling", "testing"])
def test_batched_block_equals_per_task_block(block):
    answered = []
    failed = 0
    for seed in SEEDS:
        for placement in PLACEMENTS:
            expected = run_block(block, PerTaskAgent, seed, placement)
            batched = run_block(block, CountingAgent, seed, placement, answered=answered)
            result, events, state, vocab = batched
            assert result == expected[0], (seed, placement)
            assert events == expected[1], (seed, placement)
            assert state == expected[2], (seed, placement)
            assert vocab == expected[3], (seed, placement)
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
