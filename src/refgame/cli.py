"""Command-line surface: simulate, chain, metrics, replay.

Each command parses its options, runs and prints. A chain's directory
layout, resume and per-generation saves live in ``refgame.chains.run_chain``.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime failure,
3 verification mismatch (replay).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

from .agents import make_agent
from .backend import BackendError, EventLog, HttpBackend
from .chains import chain_dir, run_chain
from .config import (
    ConfigError,
    ExperimentConfig,
    check_backend_credentials,
    load_config,
    validate_config,
)
from .domain import DomainError, Vocabulary
from .engine import SimulationAborted, derive_seed, run_simulation
from .metrics import (
    DEFAULT_PERMUTATIONS,
    MetricError,
    generalization_score,
    vocabulary_report,
)
from .persistence import (
    DigestMismatch,
    PersistenceError,
    replay_run,
    save_simulation,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_MISMATCH = 3


# flag -> (config section, None for the root, and field) that the flag overrides when given
_OVERRIDES = {
    "seed": (None, "master_seed"), "count": (None, "count"), "out": (None, "output_dir"),
    "permutations": ("run", "mantel_permutations"), "rounds": ("run", "rounds"),
    "chains": ("chain", "chains"), "generations": ("chain", "generations"), "seed_from": ("chain", "seed_from"),
}


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    for flag, (section, name) in _OVERRIDES.items():
        if getattr(args, flag, None) not in (None, ""):
            setattr(getattr(config, section) if section else config, name, getattr(args, flag))
    if getattr(args, "agents", None):
        config.agents = [s.strip() for s in args.agents.split(",")]
    return config


def _load_or_default(args: argparse.Namespace) -> ExperimentConfig:
    config = _apply_overrides(load_config(args.config) if args.config else ExperimentConfig(), args)
    validate_config(config)  # the file and the flags together, before any directory is made
    check_backend_credentials(config)
    return config


def _build_agents(config: ExperimentConfig):
    # one backend, with its own connection pool, per llm agent: the two
    # agents' requests of a block are in flight at once
    return tuple(
        make_agent(spec, agent_id, HttpBackend(config.backend) if spec == "llm" else None)
        for spec, agent_id in zip(config.agents, ("A", "B"))
    )


def _provenance(config: ExperimentConfig) -> dict:
    """What a run's manifest records of how its agents were made: their
    specs and, when an agent is an llm, its service settings."""
    service = {"service": config.backend.service()} if "llm" in config.agents else {}
    return {"agent_specs": config.agents, **service}


def _run_one_simulation(config: ExperimentConfig, run_seed: int, run_dir: Path):
    agents = _build_agents(config)
    with EventLog(run_dir / "events.jsonl") as event_log:  # creates run_dir
        run_config = replace(config.run, master_seed=run_seed)
        started = time.time()
        try:
            result = run_simulation(run_config, agents, event_log=event_log)
        except SimulationAborted as err:
            save_simulation(err.partial, run_dir, started=started, extra=_provenance(config), error=str(err))
            raise
    save_simulation(result, run_dir, started=started, extra=_provenance(config))
    return result


def _summary_line(name: str, result) -> str:
    rounds = " ".join(f"{v:.2f}" for v in result.communication.perc_com)
    testing_rows = [r for r in result.metric_rows if r.block == "testing"]
    topsim = " ".join(
        f"{row.agent}={row.topsim_z:.2f}" if row.topsim_z is not None else f"{row.agent}=degenerate"
        for row in testing_rows
    )
    return f"{name}  perc_com[{rounds}]  testing_topsim_z[{topsim}]"


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_or_default(args)
    out_base = Path(config.output_dir)
    print(f"running {config.count} simulation(s), master seed {config.master_seed}")
    for index in range(config.count):
        run_seed = config.master_seed if config.count == 1 else derive_seed(config.master_seed, f"sim:{index}")
        run_dir = out_base / f"sim-{index:02d}"
        result = _run_one_simulation(config, run_seed, run_dir)
        print(_summary_line(run_dir.as_posix(), result))
    return EXIT_OK


def cmd_chain(args: argparse.Namespace) -> int:
    config = _load_or_default(args)
    settings = config.chain
    print(
        f"running {settings.chains} chain(s) x {settings.generations} generation(s), "
        f"master seed {config.master_seed}"
    )
    agent_factory = partial(_build_agents, config)
    for chain_index in range(settings.chains):
        records = run_chain(
            settings, config.run, config.master_seed, chain_index, config.output_dir, agent_factory,
            provenance=_provenance(config),
        )
        # an imported generation 0 is not a resume
        finished = settings.generations - len(records)
        if finished > (1 if settings.seed_from else 0):
            print(f"chain {chain_index}: resuming after generation {finished - 1}")
        csv_path = chain_dir(config.output_dir, chain_index) / "chain.csv"
        print(f"chain {chain_index}: {settings.generations} generation rows -> {csv_path}")
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.permutations < 1:
        raise ConfigError(f"permutations must be >= 1, got {args.permutations}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    train = Vocabulary.load(args.train)
    report = vocabulary_report(train.pairs(), permutations=args.permutations, rng=args.seed)
    if (result := report.topsim) is None:  # under 3 entries, or constant distances or permutations
        raise MetricError(f"{args.train} is degenerate: no TopSim over its {len(train)} entries")
    if args.test:  # refused before anything is printed
        test = Vocabulary.load(args.test)
        try:
            score = generalization_score(train.pairs(), test.pairs(), pairs=args.gen_pairs)
        except MetricError as err:
            raise MetricError(f"{args.test}: no gen_score: {err}") from None
    print(f"entries: {len(train)}")
    print(f"topsim_z: {result.z_score:.4f}")
    print(f"topsim_p: {result.p_value:.6f}")
    print(f"observed_r: {result.observed_r:.4f}")
    print(f"permutations: {result.permutations} ({result.method})")
    print(f"ngram_diversity: {report.ngram_diversity:.4f}")
    print(f"unique_signal_ratio: {report.unique_signal_ratio:.4f}")
    if args.test:
        print(f"gen_score[{args.gen_pairs}]: {score:.4f}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    if not args.tolerance >= 0:  # also refuses nan, which no difference is within
        raise ConfigError(f"tolerance must be >= 0, got {args.tolerance}")
    report = replay_run(args.run_dir, tolerance=args.tolerance)
    if report.ok:
        print(f"replay OK ({report.rows_checked} metric rows verified)")
        return EXIT_OK
    for mismatch in report.mismatches:
        where = f"block={mismatch.block} round={mismatch.round or '-'} agent={mismatch.agent or '-'}"
        print(
            f"mismatch {where} {mismatch.column}: stored={mismatch.stored} "
            f"recomputed={mismatch.recomputed}",
            file=sys.stderr,
        )
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refgame",
        description="Referential-game and iterated-learning simulations over artificial languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that simulate and chain share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="YAML config file")
    run.add_argument("--seed", type=int, help="master seed override")
    run.add_argument("--agents", help="comma-separated agent specs, e.g. oracle:lookup,oracle:lookup")
    run.add_argument("--out", help="output directory")
    run.add_argument("--permutations", type=int, help="Mantel permutation count")

    simulate = sub.add_parser("simulate", parents=[run], help="run dyad simulations")
    simulate.add_argument("--count", type=int, help="number of independent simulations")
    simulate.add_argument("--rounds", type=int, help="communication rounds")
    simulate.set_defaults(func=cmd_simulate)

    chain = sub.add_parser("chain", parents=[run], help="run transmission chains")
    chain.add_argument("--chains", type=int, help="number of chains")
    chain.add_argument("--generations", type=int, help="generations per chain")
    chain.add_argument("--seed-from", dest="seed_from", help="simulation directory to import as generation 0")
    chain.set_defaults(func=cmd_chain)

    metrics = sub.add_parser("metrics", help="compute metrics for vocabulary files")
    metrics.add_argument("train", help="vocabulary file")
    metrics.add_argument("test", nargs="?", help="optional second vocabulary for the generalisation score")
    metrics.add_argument("--permutations", type=int, default=DEFAULT_PERMUTATIONS)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--gen-pairs", choices=("cross", "all"), default="cross")
    metrics.set_defaults(func=cmd_metrics)

    replay = sub.add_parser("replay", help="verify a run directory offline")
    replay.add_argument("run_dir", help="run directory with manifest and events")
    replay.add_argument("--tolerance", type=float, default=1e-9)
    replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DigestMismatch as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    except (
        ConfigError, FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
        DomainError, MetricError, PersistenceError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationAborted as err:
        print(f"run aborted: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except BackendError as err:
        print(f"backend failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
