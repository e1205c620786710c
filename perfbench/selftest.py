"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

They check that the stub's single- and list-prompt replies parse through
``HttpBackend``, that the output gate trips on a corrupted metrics.csv, that
every metric name and unit in BENCHMARK.json is well formed and matches what
run.py reports, that per-simulation span figures leave out spans outside the
simulate call, and that tracing a function that no longer exists reports it
as missing instead of failing.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run
import spans

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CLI = run.import_cli()


def _workdir() -> Path:
    run.WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.WORK))


def _http_backend(url):
    from refgame.backend import BackendDescriptor, HttpBackend

    return HttpBackend(BackendDescriptor(endpoint=url, model="stub", api_key_env="", template="llama3"))


def test_stub_replies_parse_through_http_backend():
    from refgame.domain import Stimulus, Vocabulary, VocabularyEntry
    from refgame.prompts import build_labelling_prompt, parse_signal_response, word_continuation
    from random import Random

    vocab = Vocabulary([VocabularyEntry(Stimulus(1, "blue", 1), "gali", 0),
                        VocabularyEntry(Stimulus(2, "green", 3), "nemo", 0)])
    first = build_labelling_prompt(vocab, Stimulus(1, "blue", 1), Random(0))
    second = build_labelling_prompt(vocab, Stimulus(2, "green", 3), Random(1))
    stub = run.Stub(0.0, 0.0)
    try:
        single = _http_backend(stub.url)
        signal = parse_signal_response(single.complete(first))
        assert signal and signal == parse_signal_response(single.complete(first))
        score = single.score(first, word_continuation("gali"))
        assert score < 0

        # The same client parsing applied to a list-prompt reply: choice 0
        # must equal the single-prompt reply, choice 1 the other prompt's.
        replies = []
        listing = _http_backend(stub.url)
        plain_post = listing._post

        def post_as_list(payload):
            other = dict(payload, prompt=second.user_text())
            reply = plain_post(dict(payload, prompt=[payload["prompt"], other["prompt"]]))
            replies.append((reply, plain_post(other)))
            return reply

        listing._post = post_as_list
        assert parse_signal_response(listing.complete(first)) == signal
        assert listing.score(first, word_continuation("gali")) == score
        for batch, alone in replies:
            assert len(batch["choices"]) == 2
            assert {**batch["choices"][1], "index": 0} == alone["choices"][0]
        stats = stub.stats()
        assert (stats["requests"], stats["prompts"]) == (7, 9)
        # one keep-alive connection per client, plus this stats request's own
        assert stats["connections"] == 3
    finally:
        stub.stop()


def test_gate_trips_on_corrupted_metrics_csv():
    work = _workdir()
    try:
        bench = run.Bench("oracle_sim", trace=False, work=work)
        bench.cli = CLI
        out = work / "unit"
        argv = run.WORKLOADS["oracle_sim"].argv(7, out)
        argv[argv.index("--permutations") + 1] = "100"
        with contextlib.redirect_stdout(io.StringIO()):
            assert CLI.main(argv) == 0
        bench.recorded = {"7": run.output_digests(out)}
        bench.check_digests(7, out)
        assert bench.problems == []

        metrics_csv = out / "sim-00" / "metrics.csv"
        text = metrics_csv.read_text()
        metrics_csv.write_text(text.replace("0.", "1.", 1))
        bench.check_digests(7, out)
        assert len(bench.problems) == 1 and "metrics.csv" in bench.problems[0]
        code, _, _ = bench.call_cli(["replay", str(out / "sim-00")])
        assert code != 0
    finally:
        shutil.rmtree(work)


def test_metric_names_and_units():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME_RE.match(metric["name"]), metric
        assert UNIT_RE.match(metric["unit"]), metric
    work = _workdir()
    try:
        bench = run.Bench("oracle_sim", trace=True, work=work)
        bench.sim_s[False].append(1.0)
        bench.sim_norm.append(1.0)
        assert set(bench.end_to_end()) == {m["name"] for m in spec["end_to_end"]}
        assert set(bench.per_layer()) == {m["name"] for m in spec["per_layer"]}
    finally:
        shutil.rmtree(work)


def test_summary_counts_only_inside_root():
    tracer = spans.Tracer()
    for root in ("cli.simulate", "cli.replay"):
        outer = tracer.open(root)
        inner = tracer.open("metrics.mantel_test")
        nested = tracer.open("metrics.mantel_test")
        tracer.close(nested)
        tracer.close(inner)
        tracer.close(outer)
    simulate = tracer.summary("cli.simulate")
    assert simulate["metrics.mantel_test"]["calls"] == 1
    assert simulate["metrics.mantel_test"]["busy_s"] == tracer.spans[1][3]
    assert simulate["cli.replay"]["calls"] == 0
    assert tracer.summary()["metrics.mantel_test"]["calls"] == 2


def test_missing_function_is_reported_not_fatal():
    import refgame.metrics

    original = refgame.metrics.mantel_test
    saved = spans.WRAPS
    spans.WRAPS = saved + (("metrics.gone", "refgame.metrics", "no_such_function", None, None),
                           ("metrics.gone", "refgame.metrics", "NoSuchClass.method", None, None))
    try:
        tracer = spans.Tracer()
        tracer.install()
        assert refgame.metrics.mantel_test is not original
        tracer.uninstall()
    finally:
        spans.WRAPS = saved
    assert tracer.missing == ["refgame.metrics:no_such_function", "refgame.metrics:NoSuchClass.method"]
    assert refgame.metrics.mantel_test is original


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
