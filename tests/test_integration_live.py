"""Optional integration checks against a live completion service.

These exercise the guessing and labelling blocks with a real model and
report the observed statistics without pass/fail thresholds; the published
reference points (guessing accuracy around .973, labelling distance around
.453) need a 70B-class instruction-tuned model and are deliberately not
asserted.

Enable by exporting:
    REFGAME_LIVE_ENDPOINT=https://your-service
    REFGAME_LIVE_MODEL=your-model-id
    REFGAME_API_KEY=...            # or point REFGAME_LIVE_KEY_ENV elsewhere
"""

import os
from random import Random

import pytest

from refgame.agents import LLMAgent
from refgame.backend import BackendDescriptor, EventLog, HttpBackend
from refgame.domain import generate_language, sample_training_set
from refgame.engine import RunConfig, _run, run_guessing_block, run_labelling_block

ENDPOINT = os.environ.get("REFGAME_LIVE_ENDPOINT")

pytestmark = pytest.mark.skipif(
    not ENDPOINT, reason="set REFGAME_LIVE_ENDPOINT to run live-backend checks"
)


@pytest.fixture(scope="module")
def live_agent():
    descriptor = BackendDescriptor(
        endpoint=ENDPOINT,
        model=os.environ.get("REFGAME_LIVE_MODEL", ""),
        api_key_env=os.environ.get("REFGAME_LIVE_KEY_ENV", "REFGAME_API_KEY"),
    )
    backend = HttpBackend(descriptor)
    agent = LLMAgent("live", backend)
    split = sample_training_set(Random(0))
    agent.set_vocabulary(generate_language(Random(0), split.train))
    return agent


def test_live_guessing_block(live_agent):
    vocab = live_agent.vocabulary.copy()
    result = _run(run_guessing_block(live_agent, vocab, Random(1), RunConfig(), EventLog()))
    print(f"\nlive guessing accuracy: {result.accuracy:.3f} (published reference ~0.973)")


def test_live_labelling_block(live_agent):
    vocab = live_agent.vocabulary.copy()
    result = _run(run_labelling_block(live_agent, vocab, Random(2), RunConfig(), EventLog()))
    exact = sum(1 for r in result.records if r.distance == 0) / len(result.records)
    print(
        f"\nlive labelling: exact-reproduction rate {exact:.3f} "
        f"(published reference ~0.453), mean normalized distance {result.mean_distance:.3f}"
    )
