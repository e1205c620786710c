"""The benchmark's trace hooks must still find every function they wrap.

``perfbench/spans.py`` wraps refgame functions by name and lists a name it
cannot find in ``Tracer.missing`` instead of failing, so a rename would
silently zero the per-layer metrics. This test reads the benchmark's code
and changes nothing in it.
"""

import pickle
from functools import partial
from pathlib import Path

import refgame.chains
import refgame.cli  # noqa: F401  (loads every module the tracer wraps)
import refgame.engine
import refgame.metrics
from helpers import http_backend
from refgame.backend import EventLog
from refgame.config import ExperimentConfig
from refgame.domain import enumerate_stimuli
from refgame.prompts import Prompt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_chains_runs_the_engine_simulation():
    # the benchmark wraps refgame.chains.run_simulation to time generations
    assert refgame.chains.run_simulation is refgame.engine.run_simulation


def test_chain_calls_run_simulation_through_the_module(monkeypatch, tmp_path):
    # the benchmark marks each generation by replacing the module global; a
    # local binding would collapse oracle_chain's per-generation samples
    calls = []
    original = refgame.chains.run_simulation

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(refgame.chains, "run_simulation", counting)
    config = ExperimentConfig()
    config.run.mantel_permutations = 20
    config.chain.generations = 2
    config.chain.donor_permutations = 20
    refgame.chains.run_chain(
        config.chain, config.run, 0, 0, tmp_path, partial(refgame.cli._build_agents, config)
    )
    assert len(calls) == 2


def test_chain_call_pickles():
    # a chain is one picklable top-level call, so it can run in a worker process
    config = ExperimentConfig()
    call = (refgame.chains.run_chain, config.chain, config.run, partial(refgame.cli._build_agents, config))
    restored = pickle.loads(pickle.dumps(call))
    assert restored[0] is refgame.chains.run_chain
    assert restored[1] == config.chain and restored[2] == config.run
    assert restored[3].func is refgame.cli._build_agents and restored[3].args == (config,)


def test_result_hooks_find_the_attributes_they_read():
    # spans.py reads these through getattr(..., False), so a rename would
    # silently zero metrics.degenerate and chains.donor_degenerate
    constant = [(stimulus, "gigi") for stimulus in enumerate_stimuli()]
    assert refgame.metrics.vocabulary_report(constant[:2]).degenerate is True
    selection = refgame.chains.select_donor(constant, constant, ("A", "B"), permutations=10, rng=0)
    assert selection.degenerate is True
    assert selection.pairs == constant


def test_wire_events_the_benchmark_counts(stub_server, event_log, waits):
    # run.py counts failed backend operations from backend_retry records and
    # reads latency from backend_call records; a renamed kind or field would
    # silently zero wire_sim's failed share or its call latencies
    endpoint, handler = stub_server
    handler.failures_left = 1
    backend = http_backend(endpoint)
    prompts = [Prompt("be terse", ("gali",), "word:'", continuation=f"{w}'}}") for w in ("ka", "po")]
    backend.score(prompts, [0, 0]).read(event_log)
    records = EventLog.read(event_log.path)
    assert [r["kind"] for r in records] == ["backend_retry", "backend_call", "backend_call"]
    assert all(isinstance(r["latency"], float) for r in records[1:])
