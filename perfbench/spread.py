"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload oracle_sim --seeds 0-9 [--seeds-b 10-19] [--trace 0]

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
each end-to-end metric's ``bound`` in BENCHMARK.json is compared with.
Runs are sequential, from the root of the checkout, with ``run_seconds``
from BENCHMARK.json unless ``--seconds`` is given. With ``--seeds-b`` the
runs alternate between the two seed ranges (set A, set B), so a slow spell
of the host falls on both sets, and the change of each median from set A to
set B is printed beside the bound. ``--record`` stores the figures, with
nproc and the Python, numpy and scipy versions, as the workload's baseline
in ``perfbench/record.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(series: dict[str, list[float]]) -> dict[str, dict]:
    figures = {}
    for name, values in series.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        figures[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seeds-b", help="a second range, run alternately with --seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--record", action="store_true", help="store the result as the baseline")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    sets = {"A": parse_seeds(args.seeds)}
    if args.seeds_b:
        sets["B"] = parse_seeds(args.seeds_b)
    order = [(name, seed) for pair in zip(*sets.values()) for name, seed in zip(sets, pair)]
    values: dict[str, dict[str, list[float]]] = {name: {} for name in sets}
    for set_name, seed in order:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{set_name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values[set_name].setdefault(name, []).append(metric["value"])

    figures = {name: summarise(series) for name, series in values.items()}
    for set_name, set_figures in figures.items():
        print(f"set {set_name} ({len(sets[set_name])} seeds)")
        print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'B/A-1':>8s} {'bound':>6s}")
        for name, figure in set_figures.items():
            bound = bounds.get(name)
            change = ""
            if set_name == "B" and figures["A"][name]["median"]:
                change = f"{figure['median'] / figures['A'][name]['median'] - 1:+.4f}"
            print(f"{name:42s} {figure['median']:12.6g} {figure['q1']:12.6g} {figure['q3']:12.6g} "
                  f"{figure['spread']:8.4f} {change:>8s} {'' if bound is None else bound:>6}")
    if args.record:
        path = ROOT / "perfbench" / "record.json"
        record = json.loads(path.read_text())
        record.setdefault("baseline", {})[f"{args.workload}/trace{args.trace}"] = {
            "seeds": {name: args.seeds if name == "A" else args.seeds_b for name in sets},
            "seconds": seconds,
            "environment": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": importlib.metadata.version("numpy"),
                "scipy": importlib.metadata.version("scipy"),
            },
            "sets": figures,
        }
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
