"""The benchmark's trace hooks must still find every function they wrap.

``perfbench/spans.py`` wraps refgame functions by name and lists a name it
cannot find in ``Tracer.missing`` instead of failing, so a rename would
silently zero the per-layer metrics. This test reads the benchmark's code
and changes nothing in it.
"""

from pathlib import Path

import refgame.chains
import refgame.cli  # noqa: F401  (loads every module the tracer wraps)
import refgame.engine

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
