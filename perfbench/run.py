"""refgame benchmark: one command, three workloads, end to end or traced.

    python3 perfbench/run.py --workload oracle_sim --seed 0 --seconds 20 --trace 0

Run it from the root of a refgame checkout; it imports refgame from ``src/``.
Every workload is a closed loop with one client (the engine is sequential)
and drives ``refgame.cli.main`` in-process:

* ``oracle_sim``: ``simulate`` with lookup oracles at paper settings (10,000
  Mantel permutations, 4 x 30 interactions), then ``replay`` of the run.
* ``oracle_chain``: ``chain`` of 8 generations at 1,000 donor permutations,
  then ``replay`` of every generation.
* ``wire_sim``: ``simulate --agents llm,llm`` (llama3 template) through
  ``HttpBackend`` against ``perfbench/stub.py`` in a child process, with 5 ms
  of injected latency per single-prompt request and 100 permutations, then
  ``replay``. The 5 ms are split into 3 ms per request plus 2 ms per prompt;
  the split is an assumption, not a measurement of a real server, so what
  batching gains on this workload depends on it.

Unit ``i`` of a run uses the refgame master seed ``seed * 1000 + i``. A run
holds a fixed number of units, ``--seconds`` over the workload's nominal unit
time, so the same seed always measures the same inputs however fast the host
is. Set-up is imports, stub start and one warm-up simulation (at master seed
``seed * 1000 + 999``).

Replays and the oracle workloads are CPU-bound and, with BLAS held to one
thread, single-threaded, so ``replay_s`` everywhere and ``setup_s`` and
``sim_s`` on the oracle workloads are process CPU seconds
(``time.process_time``; ``setup_s`` counts from process start), which leave
out the time the host gives to other tenants. On a shared host the same code
still runs at two or more speeds, up to 2x apart, in spells that can start or
end in the middle of a run. So the run times a fixed reference kernel
(benchmark code a refgame change cannot move) before and after every
simulate, chain and replay call and before every chain generation, and
reports each of these CPU samples normalised: multiplied by ``REFERENCE_S``
over the mean of the two kernel times that bracket it, that is, in seconds on
a host that runs the kernel in ``REFERENCE_S``. The raw figures are printed beside them. ``wire_sim`` waits
on its server, so its ``setup_s`` and ``sim_s`` are wall seconds (``setup_s``
from the first line of this script) in which only this process's CPU seconds
are normalised; the waiting is left as it is. ``sim_s`` and ``replay_s``
are the medians of the run's per-simulation (per-generation on
``oracle_chain``) and per-replay seconds.

Every complete run directory must replay with exit 0, and the sha256 of each
``metrics.csv``/``chain.csv`` must equal the digest recorded for that master
seed in ``perfbench/record.json``; seeds with no record print their digests.
Aborted simulations and generations (exit 2), failed agent productions and
choices, failed replays and backend retries count as failed operations.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` alternates traced and untraced units and reports the
``per_layer`` metrics, computed from the traced units. Per-simulation
figures count only spans inside the simulate/chain call and are normalised
per simulation (per generation on ``oracle_chain``); replay figures count
spans inside the replay calls, per replay. Spans are written to
``.bench_work/``. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import urllib.request  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SEED_STRIDE = 1000
PAPER_PERMUTATIONS = 10_000
CHAIN_GENERATIONS = 8
WIRE_PERMUTATIONS = 100
# 5 ms per single-prompt request, as the benchmark specifies. The split
# between the per-request and the per-prompt term is assumed, not measured.
STUB_PER_REQUEST_MS = 3.0
STUB_PER_PROMPT_MS = 2.0
# Nominal CPU seconds of the reference kernel (about its time on a quiet 2 vCPU host).
REFERENCE_S = 0.045


def import_cli():
    """refgame.cli from this checkout's ``src/``, never from elsewhere, with
    BLAS held to one thread."""
    package = ROOT / "src" / "refgame"
    if not (package / "cli.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of a refgame checkout")
    # The engine is sequential; a second OpenBLAS thread leaves wall time
    # unchanged and doubles process CPU time with spinning. The variables
    # act only if numpy is not loaded yet.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from refgame import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: refgame was imported from {cli.__file__}, not {package}")
    return cli


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every metrics.csv and chain.csv under a unit directory."""
    return {
        path.relative_to(out).as_posix(): sha256(path)
        for path in sorted(out.rglob("*.csv"))
        if path.name in ("metrics.csv", "chain.csv")
    }


def run_dirs(out: Path) -> list[tuple[Path, str]]:
    """(run directory, manifest status) for every run a unit wrote."""
    found = []
    for manifest in sorted(out.rglob("manifest.json")):
        status = json.loads(manifest.read_text()).get("status", "")
        found.append((manifest.parent, status))
    return found


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Reference:
    """A fixed piece of CPU work shaped like the oracle path: a Mantel test
    on 27 x 27 matrices (a Python loop that draws 3,000 permutations, numpy
    gathers, centring and correlation) and repeated gathers of 500 permuted
    matrices. Its time tracks how fast the host runs this process at the
    moment. When the host slows this process down, kinds of work slow down by
    different factors (a pure interpreter loop over a dict ~1.8x, these two
    parts ~1.5-1.6x, simulations and replays ~1.4-1.6x), so the kernel keeps
    to the kinds that match the workloads."""

    PERMUTATIONS = 3_000
    CHUNK = 500  # permutations per gather: ~3 MB of arrays, far under the program's peak RSS

    def __init__(self):
        import numpy as np

        self.np = np
        gen = np.random.default_rng(0)
        self.perms = np.array([gen.permutation(27) for _ in range(self.CHUNK)])
        matrix = gen.random((27, 27))
        self.matrix = matrix + matrix.T
        self.upper = np.triu_indices(27, k=1)
        upper = self.matrix[self.upper]
        self.centred = upper - upper.mean()
        self.seconds: list[float] = []
        self._kernel()  # the first pass is slower (allocator, caches): leave it out

    def _gather(self, perms):
        values = self.matrix[perms[:, :, None], perms[:, None, :]][:, self.upper[0], self.upper[1]]
        return values - values.mean(axis=1, keepdims=True)

    def _kernel(self) -> None:
        np = self.np
        gen = np.random.default_rng(1)
        perms = np.array([gen.permutation(27) for _ in range(self.PERMUTATIONS)])
        r = np.concatenate([
            (c @ self.centred) / np.sqrt((c * c).sum(axis=1))
            for c in map(self._gather, np.split(perms, self.PERMUTATIONS // self.CHUNK))
        ])
        float(r.std())
        for _ in range(8):
            centred = self._gather(self.perms)
            (centred * centred).sum(axis=1)

    def measure(self) -> float:
        """Run the kernel once; its process CPU seconds."""
        started = time.process_time()
        self._kernel()
        self.seconds.append(time.process_time() - started)
        return self.seconds[-1]


def normalise(seconds: float, before: float, after: float) -> float:
    """CPU ``seconds`` on a host that runs the reference kernel in
    ``REFERENCE_S``, judged by the kernel times ``before`` and ``after``."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


class Stub:
    """perfbench/stub.py in a child process; it exits when its stdin closes."""

    def __init__(self, per_request_ms: float, per_prompt_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"),
             "--per-request-ms", str(per_request_ms), "--per-prompt-ms", str(per_prompt_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError("stub server did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self) -> dict:
        with self._opener.open(self.url + "/stats", timeout=30) as reply:
            return json.load(reply)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Workload:
    """Command lines for one workload; ``command`` is the timed CLI call,
    ``sims`` the simulations one call attempts and ``unit_s`` the nominal
    seconds of one unit (the call and its replays) on a 2 vCPU host."""

    command = "simulate"
    sims = 1
    replays = 1  # replays of each complete run directory in an untraced unit
    unit_s = 1.0
    cpu_clock = True

    def clock(self) -> float:
        return time.process_time() if self.cpu_clock else time.perf_counter()

    def since_start(self) -> float:
        return time.process_time() if self.cpu_clock else time.perf_counter() - T0

    def argv(self, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def warmup_argv(self, seed: int, out: Path) -> list[str]:
        return self.argv(seed, out)

    def generation_marks(self, reference: Reference | None):
        return contextlib.nullcontext([])

    def sim_samples(self, elapsed: float, marks: list, complete: list[Path],
                    ref_before: float, ref_after: float) -> list[tuple[float, float, float]]:
        """(seconds, reference time before, reference time after) per
        completed simulation of one call."""
        return [(elapsed, ref_before, ref_after)] if complete else []


class OracleSim(Workload):
    unit_s = 2.0

    def argv(self, seed, out):
        return ["simulate", "--config", str(ROOT / "configs" / "oracle.yaml"), "--seed", str(seed),
                "--count", "1", "--permutations", str(PAPER_PERMUTATIONS), "--out", str(out)]


class OracleChain(Workload):
    command = "chain"
    sims = CHAIN_GENERATIONS
    unit_s = 20.0

    def argv(self, seed, out, generations=CHAIN_GENERATIONS):
        return ["chain", "--config", str(ROOT / "configs" / "oracle.yaml"), "--seed", str(seed),
                "--chains", "1", "--generations", str(generations),
                "--permutations", str(PAPER_PERMUTATIONS), "--out", str(out)]

    def warmup_argv(self, seed, out):
        return self.argv(seed, out, generations=1)

    @contextlib.contextmanager
    def generation_marks(self, reference):
        """(clock on entry, clock on leaving, reference time) at the start of
        every generation's simulation, and the clock at the end of the call:
        ``refgame.chains.run_simulation`` is wrapped while the call runs. With
        a ``reference`` the kernel is timed at every mark, and that time is
        left out of the intervals."""
        import refgame.chains

        marks: list[tuple] = []
        original = getattr(refgame.chains, "run_simulation", None)
        if original is not None:
            @functools.wraps(original)
            def probe(*args, **kwargs):
                entry = self.clock()
                ref = reference.measure() if reference is not None else None
                marks.append((entry, self.clock(), ref))
                return original(*args, **kwargs)

            refgame.chains.run_simulation = probe
        try:
            yield marks
        finally:
            if original is not None:
                refgame.chains.run_simulation = original
            end = self.clock()
            marks.append((end, end, None))

    def sim_samples(self, elapsed, marks, complete, ref_before, ref_after):
        # One interval per generation: its simulation, donor selection and
        # persistence, bracketed by the reference times at its own mark and
        # the next one (the one after the call for the last generation). An
        # aborted generation's interval is left out. Without marks (the
        # probed name is gone) every generation gets an equal share.
        intervals = [
            (end[0] - start[1], start[2], ref_after if end[2] is None else end[2])
            for start, end in zip(marks, marks[1:])
        ]
        if len(intervals) < len(complete):
            return [(elapsed / len(complete), ref_before, ref_after)] * len(complete)
        return intervals[:len(complete)]


class WireSim(Workload):
    config: Path | None = None
    # A replay at 100 permutations takes ~0.06 s against ~6 s for the
    # simulation: repeat it so a run holds enough replay samples.
    replays = 10
    unit_s = 7.0
    cpu_clock = False

    def write_config(self, endpoint: str, directory: Path) -> None:
        import yaml

        data = yaml.safe_load((ROOT / "configs" / "live.yaml").read_text())
        data["backend"]["endpoint"] = endpoint
        data["backend"]["api_key_env"] = ""  # the stub needs no credential
        self.config = directory / "wire.yaml"
        self.config.write_text(yaml.safe_dump(data))

    def argv(self, seed, out):
        return ["simulate", "--config", str(self.config), "--seed", str(seed), "--count", "1",
                "--agents", "llm,llm", "--permutations", str(WIRE_PERMUTATIONS), "--out", str(out)]

    def warmup_argv(self, seed, out):
        return self.argv(seed, out) + ["--rounds", "1"]


WORKLOADS = {"oracle_sim": OracleSim(), "oracle_chain": OracleChain(), "wire_sim": WireSim()}


def load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


class Bench:
    def __init__(self, workload_name: str, trace: bool, work: Path):
        self.name = workload_name
        self.workload = WORKLOADS[workload_name]
        self.trace = trace
        self.work = work
        self.cli = None
        self.reference: Reference | None = None
        self.stub: Stub | None = None
        self.tracer = Tracer()
        self.recorded = load_json(HERE / "record.json").get("digests", {}).get(workload_name, {})
        self.problems: list[str] = []
        self.attempted = {"sims": 0, "replays": 0, "agent_ops": 0, "backend_calls": 0}
        self.failed = {"sims": 0, "replays": 0, "agent_ops": 0, "backend_calls": 0}
        self.sim_s = {True: [], False: []}  # traced -> raw seconds per simulation
        self.replay_s: list[float] = []  # raw
        self.setup_s = 0.0  # normalised like sim_s and replay_s below
        self.sim_norm: list[float] = []  # untraced units
        self.replay_norm: list[float] = []
        self.round_trips: list[int] = []
        self.call_latency_ms: list[float] = []
        # traced units only
        self.traced_sims = 0
        self.traced_replays = 0
        self.sim_counts: dict[str, int] = {}
        self.distinct_signals: list[int] = []
        self.stub_totals = {"requests": 0, "prompts": 0, "prompt_chars": 0, "busy_s": 0.0}
        self.client_overhead_ms: list[float] = []
        self.levenshtein = [0, []]  # calls, per-unit distinct pair ratios
        self.retries = 0
        self.events_bytes = 0
        self.bytes_written = 0

    # -- set-up --------------------------------------------------------------
    def setup(self, seed: int) -> float:
        """Set up; returns the raw set-up seconds and keeps them normalised
        in ``setup_s``."""
        self.cli = import_cli()
        self.reference = Reference()
        ref_before = self.reference.measure()
        if isinstance(self.workload, WireSim):
            for var in ("NO_PROXY", "no_proxy"):
                os.environ[var] = ",".join(filter(None, (os.environ.get(var), "127.0.0.1")))
            self.stub = Stub(STUB_PER_REQUEST_MS, STUB_PER_PROMPT_MS)
            self.workload.write_config(self.stub.url, self.work)
        out = self.work / "warmup"
        code, _, err = self.call_cli(self.workload.warmup_argv(seed * SEED_STRIDE + SEED_STRIDE - 1, out))
        if code != 0:
            raise RuntimeError(f"warm-up exited {code}: {err.strip()}")
        shutil.rmtree(out)
        if self.stub is not None:
            self.stub.stats()  # clear the warm-up's per-request log
        raw, cpu = self.workload.since_start(), time.process_time()
        ref_after = self.reference.measure()
        self.setup_s = self.normalised(raw, cpu, ref_before, ref_after)
        return raw

    def normalised(self, seconds: float, cpu: float, before: float, after: float) -> float:
        """``seconds`` on the workload's clock with its CPU part normalised:
        all of it on the CPU clock, else the ``cpu`` seconds this process
        spent in it (the rest is waiting on the stub)."""
        if self.workload.cpu_clock:
            return normalise(seconds, before, after)
        return seconds - cpu + normalise(cpu, before, after)

    def call_cli(self, argv: list[str], traced: bool = False, clock=time.process_time) -> tuple[int, float, str]:
        """Exit code, seconds on ``clock`` and stderr of one in-process CLI
        call."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open(f"cli.{argv[0]}") if traced else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                started = clock()
                code = self.cli.main(argv)
                elapsed = clock() - started
        finally:
            if span is not None:
                self.tracer.close(span)
        return code, elapsed, err.getvalue()

    # -- one unit ------------------------------------------------------------
    def unit(self, master_seed: int, traced: bool) -> None:
        out = self.work / f"unit-{master_seed}"
        first_span = len(self.tracer.spans)
        if traced:
            self.tracer.install()
        try:
            self._unit(master_seed, out, traced, first_span)
        finally:
            if traced:
                self.tracer.uninstall()
            shutil.rmtree(out, ignore_errors=True)

    def _unit(self, master_seed: int, out: Path, traced: bool, first_span: int) -> None:
        before = self.stub.stats() if self.stub else None
        if traced:  # count only what the simulate/chain call itself does
            self.tracer.take_counts()
            self.tracer.take_levenshtein()
        ref_before = self.reference.measure()
        cpu = time.process_time()
        # The probe's kernel would run inside the traced span: leave it out there.
        with self.workload.generation_marks(None if traced else self.reference) as marks:
            code, elapsed, err = self.call_cli(self.workload.argv(master_seed, out), traced, self.workload.clock)
        cpu = time.process_time() - cpu
        ref_after = self.reference.measure()
        after = self.stub.stats() if self.stub else None
        if traced:
            counts, distinct_signals = self.tracer.take_counts()
            for key, value in counts.items():
                self.sim_counts[key] = self.sim_counts.get(key, 0) + value
            self.distinct_signals.extend(distinct_signals)
            calls, distinct = self.tracer.take_levenshtein()
            self.levenshtein[0] += calls
            if calls:
                self.levenshtein[1].append(distinct / calls)
        if code not in (0, 2):
            self.problems.append(f"seed {master_seed}: {self.workload.command} exited {code}: {err.strip()}")
        dirs = run_dirs(out)
        attempted = self.workload.sims
        complete = [d for d, status in dirs if status == "complete"]
        self.attempted["sims"] += attempted
        self.failed["sims"] += attempted - len(complete)
        for seconds, ref_start, ref_end in self.workload.sim_samples(elapsed, marks, complete, ref_before, ref_after):
            self.sim_s[traced].append(seconds)
            if not traced:
                self.sim_norm.append(self.normalised(seconds, cpu, ref_start, ref_end))

        if after is not None:
            self.round_trips.append(after["requests"] - before["requests"])
            if traced:
                for key in self.stub_totals:
                    self.stub_totals[key] += after[key] - before[key]
                client = [s[3] * 1000.0 for s in self.tracer.spans[first_span:] if s[0] == "backend.call"]
                server = after["durations_ms"]
                if len(client) == len(server):
                    self.client_overhead_ms.extend(c - s for c, s in zip(client, server))

        last_ref = ref_after
        for run_dir in complete:
            for _ in range(1 if traced else self.workload.replays):
                replay_code, replay_elapsed, replay_err = self.call_cli(["replay", str(run_dir)], traced)
                ref = self.reference.measure()
                self.attempted["replays"] += 1
                self.traced_replays += traced
                self.replay_s.append(replay_elapsed)
                if not traced:
                    self.replay_norm.append(normalise(replay_elapsed, last_ref, ref))
                last_ref = ref
                if replay_code != 0:
                    self.failed["replays"] += 1
                    self.problems.append(f"seed {master_seed}: replay {run_dir.name} exited {replay_code}: "
                                         f"{replay_err.strip()}")

        for events in sorted(out.rglob("events.jsonl")):
            self.scan_events(events, traced)
        if traced:
            self.traced_sims += attempted
            self.bytes_written += sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file() and p.name != "events.jsonl"
            )
        self.check_digests(master_seed, out)

    def scan_events(self, path: Path, traced: bool) -> None:
        if traced:
            self.events_bytes += path.stat().st_size
        with path.open() as fh:
            for line in fh:
                record = json.loads(line)
                kind = record["kind"]
                if kind in ("guess", "interaction"):
                    self.attempted["agent_ops"] += 1
                    self.failed["agent_ops"] += record.get("failure_mode", "none") != "none"
                elif kind in ("label", "testing"):
                    self.attempted["agent_ops"] += 1
                    self.failed["agent_ops"] += bool(record.get("failed"))
                elif kind == "backend_call":
                    self.attempted["backend_calls"] += 1
                    self.call_latency_ms.append(record["latency"] * 1000.0)
                elif kind == "backend_retry":
                    self.attempted["backend_calls"] += 1
                    self.failed["backend_calls"] += 1
                    if traced:
                        self.retries += 1

    def check_digests(self, master_seed: int, out: Path) -> None:
        digests = output_digests(out)
        expected = self.recorded.get(str(master_seed))
        if expected is None:
            for rel_path, digest in digests.items():
                print(f"digest {self.name} {master_seed} {rel_path} {digest} (unrecorded)")
        elif expected != digests:
            for rel_path in sorted(set(expected) | set(digests)):
                if expected.get(rel_path) != digests.get(rel_path):
                    self.problems.append(
                        f"seed {master_seed}: {rel_path} sha256 {digests.get(rel_path)} "
                        f"!= recorded {expected.get(rel_path)}"
                    )

    # -- results -------------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "sim_s": statistics.median(self.sim_norm or [0.0]),
            "replay_s": statistics.median(self.replay_norm or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        root = "cli." + self.workload.command
        sim = self.tracer.summary(root)
        replay = self.tracer.summary("cli.replay")
        both = self.tracer.summary()
        sims = max(1, self.traced_sims)
        replays = max(1, self.traced_replays)
        counts = self.sim_counts

        def per_sim(value):
            return value / sims

        def p50_ms(durations):
            return statistics.median(durations) * 1000.0 if durations else 0.0

        def share(key):
            return sim[key]["busy_s"] / sim[root]["busy_s"] if sim[root]["busy_s"] else 0.0

        mantel = sim["metrics.mantel_test"]["by_tag"]
        backend_calls = [d * 1000.0 for d in sim["backend.call"]["durations"]]
        choose_calls = sim["agents.choose"]["calls"]
        stub = self.stub_totals
        traced_sim_s, untraced_sim_s = self.sim_s[True], self.sim_s[False]
        return {
            "metrics.mantel_test.calls": per_sim(sim["metrics.mantel_test"]["calls"]),
            "metrics.mantel_test.busy_s": per_sim(sim["metrics.mantel_test"]["busy_s"]),
            "metrics.mantel_test.n15_p50_ms": p50_ms(mantel.get("n15", [])),
            "metrics.mantel_test.n27_p50_ms": p50_ms(mantel.get("n27", [])),
            "metrics.mantel_test.sim_share": share("metrics.mantel_test"),
            "metrics.signal_distance_matrix.busy_s": per_sim(sim["metrics.signal_distance_matrix"]["busy_s"]),
            "metrics.levenshtein.calls": per_sim(self.levenshtein[0]),
            "metrics.levenshtein.distinct_pair_ratio": (
                statistics.median(self.levenshtein[1]) if self.levenshtein[1] else 0.0),
            "metrics.vocabulary_report.self_s": per_sim(sim["metrics.vocabulary_report"]["self_s"]),
            "metrics.generalization_score.busy_s": per_sim(sim["metrics.generalization_score"]["busy_s"]),
            "metrics.degenerate": per_sim(counts.get("metrics.degenerate", 0)),
            "engine.guessing.busy_s": per_sim(sim["engine.guessing"]["busy_s"]),
            "engine.labelling.busy_s": per_sim(sim["engine.labelling"]["busy_s"]),
            "engine.communication.busy_s": per_sim(sim["engine.communication"]["busy_s"]),
            "engine.testing.busy_s": per_sim(sim["engine.testing"]["busy_s"]),
            "engine.compute_metric_rows.busy_s": per_sim(sim["engine.compute_metric_rows"]["busy_s"]),
            "engine.aborted": per_sim(counts.get("engine.run_simulation.errors", 0)),
            "agents.produce_signal.calls": per_sim(sim["agents.produce_signal"]["calls"]),
            "agents.choose.calls": per_sim(choose_calls),
            "agents.choose.self_ms": sim["agents.choose"]["self_s"] * 1000.0 / choose_calls if choose_calls else 0.0,
            "agents.failures": per_sim(counts.get("agents.produce_signal.errors", 0)
                                       + counts.get("agents.choose.errors", 0)),
            "prompts.build.calls": per_sim(sim["prompts.build"]["calls"]),
            "prompts.build.busy_s": per_sim(sim["prompts.build"]["busy_s"]),
            "prompts.chars_sent": per_sim(stub["prompt_chars"]),
            "backend.requests": per_sim(stub["requests"]),
            "backend.prompts_per_request": stub["prompts"] / stub["requests"] if stub["requests"] else 0.0,
            "backend.call_p50_ms": percentile(backend_calls, 50),
            "backend.call_p99_ms": percentile(backend_calls, 99),
            "backend.server_wait_s": per_sim(stub["busy_s"]),
            "backend.client_overhead_ms": statistics.median(self.client_overhead_ms) if self.client_overhead_ms else 0.0,
            "backend.sim_share": share("backend.call"),
            "backend.retries": per_sim(self.retries),
            "backend.errors": per_sim(counts.get("backend.call.errors", 0)),
            "backend.event_log.append_calls": per_sim(sim["backend.event_log.append"]["calls"]),
            "backend.event_log.append_busy_s": per_sim(sim["backend.event_log.append"]["busy_s"]),
            "backend.events_bytes": per_sim(self.events_bytes),
            "persistence.save_simulation.p50_ms": p50_ms(sim["persistence.save_simulation"]["durations"]),
            "persistence.load_run_for_replay.busy_s": replay["persistence.load_run_for_replay"]["busy_s"] / replays,
            "persistence.verify_digests.busy_s": replay["persistence.verify_digests"]["busy_s"] / replays,
            "persistence.bytes_written": per_sim(self.bytes_written),
            "chains.select_donor.calls": per_sim(sim["chains.select_donor"]["calls"]),
            "chains.select_donor.busy_s": per_sim(sim["chains.select_donor"]["busy_s"]),
            "chains.derive_training_language.busy_s": per_sim(sim["chains.derive_training_language"]["busy_s"]),
            "chains.distinct_signals_min": min(self.distinct_signals, default=0),
            "chains.donor_degenerate": per_sim(counts.get("chains.donor_degenerate", 0)),
            "domain.vocabulary_io.busy_s": per_sim(both["domain.vocabulary_io"]["busy_s"]),
            "trace.overhead_ratio": (statistics.median(traced_sim_s) / statistics.median(untraced_sim_s)
                                     if traced_sim_s and untraced_sim_s else 0.0),
            "trace.missing": len(self.tracer.missing),
        }

    def report_lines(self, metrics: dict[str, float], units: dict[str, str], setup_s: float) -> list[str]:
        attempted, failed = sum(self.attempted.values()), sum(self.failed.values())
        lines = [f"{name:42s} {value:14.6g} {units[name]}" for name, value in metrics.items()]
        if not self.trace:
            sim_clock = "process CPU" if self.workload.cpu_clock else "wall"
            reference = self.reference.seconds
            lines.append(f"{'reference kernel median / p90':42s} {statistics.median(reference):14.6g} "
                         f"{percentile(reference, 90):.6g} process CPU s ({len(reference)} samples)")
            lines.append(f"{'setup_s raw':42s} {setup_s:14.6g} {sim_clock} s")
            for name, samples, clock in (("sim_s", self.sim_s[False], sim_clock),
                                         ("replay_s", self.replay_s, "process CPU")):
                lines.append(f"{name + ' raw median / p10 / p90':42s} {statistics.median(samples or [0.0]):14.6g} "
                             f"{percentile(samples, 10):.6g} {percentile(samples, 90):.6g} {clock} s "
                             f"({len(samples)} samples)")
            if self.name == "oracle_chain":
                lines.append(f"{'generation_s (= sim_s)':42s} {metrics['sim_s']:14.6g} s")
            if self.round_trips:
                lines.append(f"{'round_trips_per_sim':42s} {statistics.median(self.round_trips):14.6g} count")
                lines.append(f"{'call_p50_ms':42s} {percentile(self.call_latency_ms, 50):14.6g} ms")
                lines.append(f"{'call_p99_ms':42s} {percentile(self.call_latency_ms, 99):14.6g} ms "
                             f"({len(self.call_latency_ms)} calls)")
        else:
            summary = self.tracer.summary()
            sims = max(1, self.traced_sims)
            lines.append(f"{'span (per sim, replays included)':42s} {'calls':>10s} {'busy_s':>12s} {'self_s':>12s}")
            for key in sorted(summary):
                entry = summary[key]
                lines.append(f"{key:42s} {entry['calls'] / sims:10.4g} {entry['busy_s'] / sims:12.6f} "
                             f"{entry['self_s'] / sims:12.6f}")
            for name in self.tracer.missing:
                lines.append(f"missing: {name}")
        lines.append(f"{'failed_ratio':42s} {failed / attempted if attempted else 0.0:14.6g} "
                     f"({failed}/{attempted}; " + ", ".join(
                         f"{k} {self.failed[k]}/{self.attempted[k]}" for k in self.attempted) + ")")
        return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="refgame benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, bool(args.trace), work)
    try:
        setup_s = bench.setup(args.seed)
        minimum = 2 if args.trace else 1  # a traced run needs one untraced unit
        unit_count = max(minimum, round(args.seconds / bench.workload.unit_s))
        for index in range(unit_count):
            traced = bool(args.trace) and index % 2 == 0
            try:
                bench.unit(args.seed * SEED_STRIDE + index, traced)
            except Exception:  # report the unit as failed, keep measuring
                bench.problems.append(traceback.format_exc())
                bench.attempted["sims"] += 1
                bench.failed["sims"] += 1
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        if args.trace:
            bench.tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        if bench.stub is not None:
            bench.stub.stop()
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {unit_count} units")
    for line in bench.report_lines(metrics, units, setup_s):
        print(line)
    for problem in bench.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": sum(bench.attempted.values()),
        "failed": sum(bench.failed.values()),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
