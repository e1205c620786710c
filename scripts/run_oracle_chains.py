#!/usr/bin/env python3
"""Run offline transmission chains and test for cross-generation change.

Reproduces the six-chains-of-eight-generations design with oracle agents
and reports a paired t-test (first vs last generation) on Ngram diversity
and on the unique-signal ratio, the same comparison shape as the published
generation-0 vs generation-7 tests. Example:

    python scripts/run_oracle_chains.py --chains 6 --generations 8 --agents oracle:lookup
"""

import argparse
import sys
from pathlib import Path

from refgame.cli import main as cli_main
from refgame.metrics import MetricError, paired_t_test
from refgame.persistence import ChainRow, read_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chains", type=int, default=6)
    parser.add_argument("--generations", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--agents", default="oracle:lookup")
    parser.add_argument("--permutations", type=int, default=500)
    parser.add_argument("--out", default="runs/oracle-chains")
    args = parser.parse_args()

    code = cli_main(
        [
            "chain",
            "--chains", str(args.chains),
            "--generations", str(args.generations),
            "--seed", str(args.seed),
            "--agents", f"{args.agents},{args.agents}",
            "--out", args.out,
            "--permutations", str(args.permutations),
        ]
    )
    if code != 0:
        return code

    first, last = {}, {}
    for chain_index in range(args.chains):
        rows = read_rows(Path(args.out) / f"chain-{chain_index:02d}" / "chain.csv", ChainRow)
        for column in ("ngram_diversity", "unique_signal_ratio", "topsim_z"):
            first.setdefault(column, []).append(getattr(rows[0], column))
            last.setdefault(column, []).append(getattr(rows[-1], column))

    print(f"\nfirst vs last generation across {args.chains} chains:")
    for column in ("ngram_diversity", "unique_signal_ratio", "topsim_z"):
        try:
            result = paired_t_test(first[column], last[column])
            print(
                f"  {column:20s} t({result.df})={result.statistic:.2f} p={result.p_value:.3f} "
                f"(gen0 mean {sum(first[column]) / len(first[column]):.3f}, "
                f"last mean {sum(last[column]) / len(last[column]):.3f})"
            )
        except (ValueError, MetricError) as err:
            print(f"  {column:20s} not testable: {err}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
