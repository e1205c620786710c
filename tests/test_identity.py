"""Byte identity of fixed-seed run outputs.

Runs a matrix of ``simulate`` and ``chain`` commands in process, and llm
dyads over the tests' scripted services, and compares the sha256 of every
``metrics.csv``, ``chain.csv``, ``events.jsonl`` and vocab file with
``tests/data/identity.json``. An llm run's ``events.jsonl`` is digested
without its wall-clock ``latency`` and ``timestamp`` keys.

The ``wire-`` entries of that file pin llm dyads that go through
``HttpBackend`` to ``perfbench/stub.py``'s replies at no latency, one of
them against faults chosen by prompt text (``helpers.wire_service``). Their
``events.jsonl`` is pinned as two digests, its block records and its
``backend_call``/``backend_retry`` records, so a record of another kind
moves neither; beside them stand the requests each command sent.

A refactor that moves any output byte fails here; a change that moves bytes
on purpose regenerates the file with

    PYTHONPATH=src python tests/test_identity.py

and says which digests moved and why. Manifests are not compared: they hold
wall-clock timestamps.
"""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import yaml

from helpers import InTurnAgent, in_context_learner, service, service_stats, wire_service
from refgame.backend import EventLog
from refgame.cli import EXIT_OK, EXIT_RUNTIME, main
from refgame.engine import RunConfig, run_simulation
from refgame.persistence import file_digest, save_simulation

IDENTITY_PATH = Path(__file__).resolve().parent / "data" / "identity.json"

DYADS = {
    "lookup": "oracle:lookup,oracle:lookup",
    "random": "oracle:random,oracle:random",
    "compositional": "oracle:compositional,oracle:lookup",
}
SIMULATE_SEEDS = (0, 1, 2)
# two chain seeds keep the matrix near 6 s on a 2-vCPU host; a chain costs
# about seven simulations
CHAIN_SEEDS = (0, 1)
FAST = ("--permutations", "60")
# llm dyads reach communication's failed productions and choices, and
# guessing's failed choices, through the engine's per-task attempts. Their
# agents are InTurnAgents: speaking ahead writes the same records and the
# discarded ones beside them (test_engine.py's TestSpeakingAhead checks it)
LLM_BACKENDS = {
    "in-context": lambda seed: in_context_learner(),
    "unparseable": lambda seed: service(seed, "unparseable"),
    "call-error": lambda seed: service(seed, "call-error"),
}
LLM_SEEDS = (0, 1)
WALL_CLOCK_KEYS = ("latency", "timestamp")
# name -> (command, whether the service injects faults). Scoring replies
# echo every token, so a round costs about 0.4 s even at no latency: the
# runs keep to one round. Seed 33's faults exhaust the retries of task 12's
# listener, fail the first speaking attempt of task 7 and every attempt of
# task 18.
WIRE_RUNS = {
    "wire-simulate-3": (("simulate", "--seed", "3"), False),
    "wire-simulate-4": (("simulate", "--seed", "4"), False),
    "wire-chain-5": (("chain", "--seed", "5", "--chains", "1", "--generations", "2"), False),
    "wire-faults-33": (("simulate", "--seed", "33"), True),
}
BLOCK_KINDS = ("run_start", "guess", "label", "interaction", "testing", "run_end", "run_aborted")
BACKEND_KINDS = ("backend_call", "backend_retry")


def _run(*argv) -> int:
    return main([*argv, *FAST])


def run_matrix(root: Path) -> dict[str, int]:
    """Write every run of the matrix under ``root``; returns each command's
    exit code by the directory it wrote."""
    codes = {}
    for name, agents in DYADS.items():
        for seed in SIMULATE_SEEDS:
            out = root / f"simulate-{name}-{seed}"
            codes[out.name] = _run("simulate", "--seed", str(seed), "--agents", agents, "--out", str(out))
        for seed in CHAIN_SEEDS:
            out = root / f"chain-{name}-{seed}"
            codes[out.name] = _run(
                "chain", "--seed", str(seed), "--chains", "2", "--generations", "3",
                "--agents", agents, "--out", str(out),
            )
    out = root / "seeded-chain"
    codes[out.name] = _run(
        "chain", "--seed", "7", "--chains", "1", "--generations", "3", "--agents", DYADS["lookup"],
        "--seed-from", str(root / "simulate-compositional-0" / "sim-00"), "--out", str(out),
    )
    # a resumed chain must write what an uninterrupted one writes
    out = root / "resumed-chain"
    resume = ("chain", "--seed", "5", "--chains", "1", "--generations", "3", "--out", str(out))
    assert _run(*resume) == EXIT_OK
    shutil.rmtree(out / "chain-00" / "gen02")
    (out / "chain-00" / "chain.csv").unlink()
    codes[out.name] = _run(*resume)
    # lookup oracles collapse the language by gen06, which aborts; this pins
    # the bytes of an incomplete generation's save
    out = root / "collapsing-chain"
    codes[out.name] = _run(
        "chain", "--seed", "4", "--chains", "1", "--generations", "7",
        "--agents", DYADS["lookup"], "--out", str(out),
    )
    for name, make_backend in LLM_BACKENDS.items():
        for seed in LLM_SEEDS:
            out = root / f"llm-{name}-{seed}"
            backend = make_backend(seed)
            config = RunConfig(master_seed=seed, mantel_permutations=60, max_agent_retries=2)
            with EventLog(out / "events.jsonl") as event_log:
                agents = (InTurnAgent("A", backend), InTurnAgent("B", backend))
                result = run_simulation(config, agents, event_log=event_log)
            save_simulation(result, out)
    return codes


def events_digest(path: Path, kinds: tuple[str, ...] | None = None) -> str:
    """sha256 of an ``events.jsonl`` whose records drop their wall-clock
    keys; with ``kinds``, of its records of those kinds only."""
    records = [
        {key: value for key, value in record.items() if key not in WALL_CLOCK_KEYS}
        for record in EventLog.read(path)
        if kinds is None or record["kind"] in kinds
    ]
    return hashlib.sha256("".join(json.dumps(r) + "\n" for r in records).encode()).hexdigest()


def output_digests(root: Path) -> dict[str, str]:
    """sha256 of every compared file under ``root``, by relative path."""
    digests = {}
    for path in sorted(root.rglob("*")):
        name = path.relative_to(root).as_posix()
        if name.startswith("llm-") and path.name == "events.jsonl":
            digests[name] = events_digest(path)
        elif path.name in ("metrics.csv", "chain.csv", "events.jsonl") or path.suffix == ".vocab":
            digests[name] = file_digest(path)
    return digests


def run_wire(root: Path, stats: dict | None = None) -> dict:
    """Write every wire run under ``root``; returns the digests of their
    outputs, and the requests each command sent, by relative path. With
    ``stats``, each run's service counters are put there by its name."""
    root.mkdir(parents=True, exist_ok=True)
    stats = {} if stats is None else stats
    pinned = {}
    for name, (argv, faults) in WIRE_RUNS.items():
        pinned.update(run_wire_one(root, name, argv, faults, stats))
    return pinned


def run_wire_one(root: Path, name: str, argv: tuple, faults: bool, stats: dict,
                 latency: tuple[float, float] = (0.0, 0.0)) -> dict:
    """``run_wire`` for the run ``name`` alone, against a service that
    injects ``latency`` (``wire_service``'s)."""
    out = root / name
    with wire_service(faults, latency) as endpoint:
        config = root / f"{name}.yaml"
        config.write_text(yaml.safe_dump({
            "agents": ["llm", "llm"],
            "backend": {"endpoint": endpoint, "api_key_env": "", "max_retries": 1, "backoff_base": 0.0},
            "run": {"rounds": 1},
        }))
        assert _run(*argv, "--config", str(config), "--out", str(out)) == EXIT_OK
        stats[name] = service_stats(endpoint)
    pinned = {f"{name}/requests": stats[name]["requests"]}
    for path in sorted(out.rglob("*")):
        key = path.relative_to(root).as_posix()
        if path.name == "events.jsonl":
            pinned[f"{key}#blocks"] = events_digest(path, BLOCK_KINDS)
            pinned[f"{key}#backend"] = events_digest(path, BACKEND_KINDS)
        elif path.name in ("metrics.csv", "chain.csv") or path.suffix == ".vocab":
            pinned[key] = file_digest(path)
    return pinned


def expected_codes() -> dict[str, int]:
    codes = {f"simulate-{name}-{seed}": EXIT_OK for name in DYADS for seed in SIMULATE_SEEDS}
    codes.update({f"chain-{name}-{seed}": EXIT_OK for name in DYADS for seed in CHAIN_SEEDS})
    codes.update({"seeded-chain": EXIT_OK, "resumed-chain": EXIT_OK, "collapsing-chain": EXIT_RUNTIME})
    return codes


def pinned(prefix: str = "") -> dict:
    """The entries of ``identity.json`` whose key starts with ``wire-``
    (``prefix`` "wire-") or not (``prefix`` "")."""
    entries = json.loads(IDENTITY_PATH.read_text())
    return {key: value for key, value in entries.items() if key.startswith("wire-") == bool(prefix)}


def test_fixed_seed_outputs_are_byte_identical(tmp_path):
    assert run_matrix(tmp_path) == expected_codes()
    actual = output_digests(tmp_path)
    expected = pinned()
    assert sorted(actual) == sorted(expected)
    moved = [path for path in expected if actual[path] != expected[path]]
    assert moved == []


def test_wire_outputs_are_byte_identical(tmp_path):
    stats = {}
    actual = run_wire(tmp_path, stats)
    expected = pinned("wire-")
    assert sorted(actual) == sorted(expected)
    moved = [path for path in expected if actual[path] != expected[path]]
    assert moved == []
    # an llm agent has at most five requests in flight, its guessing request
    # beside the four of communication (its listening and speaking requests
    # and the two of a wrong prediction it discards): five keep-alive
    # connections each, however many interactions it runs (the faults close
    # some, so their run opens more)
    agents = {name: 2 * len(list((tmp_path / name).rglob("manifest.json"))) for name in WIRE_RUNS}
    for name, count in agents.items():
        if name != "wire-faults-33":
            assert stats[name]["connections"] == 5 * count, name


def test_wire_run_at_benchmark_latency_writes_the_same_records(tmp_path):
    # at the benchmark's 3 ms per request and 2 ms per prompt, guessing's
    # 60-prompt requests are still in flight while communication runs: the
    # log and the requests must be those of the run at no latency
    name = "wire-simulate-3"
    stats = {}
    actual = run_wire_one(tmp_path, name, *WIRE_RUNS[name], stats, latency=(0.003, 0.002))
    expected = {key: value for key, value in pinned("wire-").items() if key.startswith(f"{name}/")}
    assert actual == expected
    assert stats[name]["connections"] == 5 * 2

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        codes = run_matrix(root / "matrix")
        if codes != expected_codes():
            sys.exit(f"unexpected exit codes: {codes}")
        digests = {**output_digests(root / "matrix"), **run_wire(root / "wire")}
    IDENTITY_PATH.parent.mkdir(exist_ok=True)
    IDENTITY_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {IDENTITY_PATH}")
