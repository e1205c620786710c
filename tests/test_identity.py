"""Byte identity of fixed-seed run outputs.

Runs a matrix of ``simulate`` and ``chain`` commands in process, and llm
dyads over the tests' scripted services, and compares the sha256 of every
``metrics.csv``, ``chain.csv``, ``events.jsonl`` and vocab file with
``tests/data/identity.json``. An llm run's ``events.jsonl`` is digested
without its wall-clock ``latency`` and ``timestamp`` keys. A refactor that
moves any output byte fails here; a change that moves bytes on purpose
regenerates the file with

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

from helpers import in_context_learner, service
from refgame.agents import LLMAgent
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
# guessing's failed choices, through the engine's per-task attempts
LLM_BACKENDS = {
    "in-context": lambda seed: in_context_learner(),
    "unparseable": lambda seed: service(seed, "unparseable"),
    "call-error": lambda seed: service(seed, "call-error"),
}
LLM_SEEDS = (0, 1)
WALL_CLOCK_KEYS = ("latency", "timestamp")


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
                agents = (LLMAgent("A", backend), LLMAgent("B", backend))
                result = run_simulation(config, agents, event_log=event_log)
            save_simulation(result, out)
    return codes


def events_digest(path: Path) -> str:
    """sha256 of an ``events.jsonl`` whose records drop their wall-clock keys."""
    records = [
        {key: value for key, value in record.items() if key not in WALL_CLOCK_KEYS}
        for record in EventLog.read(path)
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


def expected_codes() -> dict[str, int]:
    codes = {f"simulate-{name}-{seed}": EXIT_OK for name in DYADS for seed in SIMULATE_SEEDS}
    codes.update({f"chain-{name}-{seed}": EXIT_OK for name in DYADS for seed in CHAIN_SEEDS})
    codes.update({"seeded-chain": EXIT_OK, "resumed-chain": EXIT_OK, "collapsing-chain": EXIT_RUNTIME})
    return codes


def test_fixed_seed_outputs_are_byte_identical(tmp_path):
    assert run_matrix(tmp_path) == expected_codes()
    actual = output_digests(tmp_path)
    expected = json.loads(IDENTITY_PATH.read_text())
    assert sorted(actual) == sorted(expected)
    moved = [path for path in expected if actual[path] != expected[path]]
    assert moved == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        codes = run_matrix(root)
        if codes != expected_codes():
            sys.exit(f"unexpected exit codes: {codes}")
        digests = output_digests(root)
    IDENTITY_PATH.parent.mkdir(exist_ok=True)
    IDENTITY_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {IDENTITY_PATH}")
