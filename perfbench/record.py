"""Record the output digests the benchmark's gate compares against.

    python3 perfbench/record.py --workload oracle_sim --seeds 0-10 --units 12

For every benchmark seed in the range and unit index below ``--units``, runs
the workload's CLI call at master seed ``seed * 1000 + index`` (the argv the
benchmark itself uses) and stores the sha256 of each metrics.csv/chain.csv
in ``perfbench/record.json`` under ``digests``. The stub server runs without
injected latency here, since replies do not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

import run
from spread import parse_seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-10")
    parser.add_argument("--units", type=int, required=True)
    args = parser.parse_args()
    cli = run.import_cli()
    workload = run.WORKLOADS[args.workload]
    work = run.WORK / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    stub = None
    digests = {}
    try:
        if isinstance(workload, run.WireSim):
            stub = run.Stub(0.0, 0.0)
            workload.write_config(stub.url, work)
        for seed in parse_seeds(args.seeds):
            for index in range(args.units):
                master_seed = seed * run.SEED_STRIDE + index
                out = work / str(master_seed)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(workload.argv(master_seed, out))
                digests[str(master_seed)] = run.output_digests(out)
                print(f"{args.workload} {master_seed}: exit {code}, {len(digests[str(master_seed)])} files",
                      flush=True)
                shutil.rmtree(out)
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)

    path = run.HERE / "record.json"
    record = run.load_json(path)
    record.setdefault("digests", {}).setdefault(args.workload, {}).update(digests)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
