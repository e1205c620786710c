import gc
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
import yaml

import refgame
from helpers import YAML_LOADERS, BreakingOracle, wire_service
from refgame import cli
from refgame.agents import LookupOracle, Reply
from refgame.backend import EventLog
from refgame.cli import EXIT_MISMATCH, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from refgame.domain import Vocabulary, VocabularyEntry, enumerate_stimuli
from refgame.engine import MetricRow
from refgame.persistence import ChainRow, RunManifest, file_digest, read_rows
from refgame.prompts import LISTENING_INSTRUCTION, SPEAKING_INSTRUCTION, PromptTask
from tests_paths import GOLDEN_TRAIN_PATH, GOLDEN_TEST_PATH


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_count_produces_distinct_languages(self, tmp_path):
        out = tmp_path / "runs"
        code = run_cli(
            "simulate",
            "--count", "2",
            "--seed", "5",
            "--agents", "oracle:lookup,oracle:lookup",
            "--out", str(out),
            "--permutations", "60",
        )
        assert code == EXIT_OK
        first = Vocabulary.load(out / "sim-00" / "vocab" / "initial.vocab")
        second = Vocabulary.load(out / "sim-01" / "vocab" / "initial.vocab")
        assert first != second

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                "simulate", "--seed", "9", "--agents", "oracle:lookup,oracle:lookup",
                "--out", str(out), "--permutations", "60",
            ) == EXIT_OK
            outs.append((out / "sim-00" / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_records_agent_specs(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run_cli(
            "simulate", "--seed", "6", "--agents", "oracle:lookup,oracle:random",
            "--out", str(out), "--permutations", "60",
        ) == EXIT_OK
        manifest = RunManifest.load(out / "sim-00")
        assert manifest.extra == {"agent_ids": ["A", "B"], "agent_specs": ["oracle:lookup", "oracle:random"]}
        assert run_cli("replay", str(out / "sim-00")) == EXIT_OK

    def test_aborted_run_manifest_records_error_and_blocks(self, tmp_path, monkeypatch):
        def build(config):
            return BreakingOracle("A", PromptTask.LABELLING), LookupOracle("B")

        monkeypatch.setattr(cli, "_build_agents", build)
        out = tmp_path / "runs"
        assert run_cli("simulate", "--seed", "6", "--permutations", "60", "--out", str(out)) == EXIT_RUNTIME
        manifest = RunManifest.load(out / "sim-00")
        assert manifest.status == "incomplete"
        assert manifest.extra == {
            "agent_ids": ["A", "B"], "agent_specs": ["oracle:lookup", "oracle:lookup"],
            "error": "agent A broke", "completed_blocks": ["guessing"],
        }
        manifest.verify_digests(out / "sim-00")

    def test_llm_without_credentials_fails_preflight(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REFGAME_API_KEY", raising=False)
        config = {
            "agents": ["llm", "llm"],
            "backend": {"endpoint": "http://localhost:9", "api_key_env": "REFGAME_API_KEY"},
            "output_dir": str(tmp_path / "x"),
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(config))
        code = run_cli("simulate", "--config", str(path))
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("key, secret", [("secret\n", "secret"), ("sk-秘密", "秘密")], ids=["newline", "non-ascii"])
    def test_unsendable_credential_refused_and_never_stored(self, tmp_path, capsys, monkeypatch, key, secret):
        # a key an HTTP header cannot carry is refused by the name of its
        # variable, before anything is written
        monkeypatch.setenv("REFGAME_API_KEY", key)
        config = {"agents": ["llm", "llm"], "backend": {"endpoint": "http://127.0.0.1:9", "max_retries": 0}}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "runs")) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: credential environment variable REFGAME_API_KEY holds a character that is not printable ASCII\n"
        )
        assert [p.name for p in tmp_path.rglob("*")] == ["config.yaml"]
        assert secret not in path.read_text()

    @pytest.mark.parametrize("command, run_dir", [("simulate", "sim-00"), ("chain", "chain-00")])
    def test_llm_without_endpoint_writes_nothing(self, tmp_path, capsys, command, run_dir):
        out = tmp_path / "runs"
        assert run_cli(command, "--agents", "llm,llm", "--out", str(out)) == EXIT_VALIDATION
        assert "llm agents need backend.endpoint" in capsys.readouterr().err
        assert not (out / run_dir).exists()

    @pytest.mark.parametrize("command, run_dir", [("simulate", "sim-00"), ("chain", "chain-00/gen00")])
    def test_run_directory_that_is_a_file_refused(self, tmp_path, capsys, command, run_dir):
        path = tmp_path / "runs" / run_dir
        path.parent.mkdir(parents=True)
        path.write_text("not a directory\n")
        assert run_cli(command, "--out", str(tmp_path / "runs"), "--permutations", "60") == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(path)!r}\n"
        assert path.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "backend, message",
        [
            ({"backoff_base": -1.0}, "backoff_base must be >= 0"),
            ({"max_retries": -1}, "max_retries must be >= 0"),
            ({"timeout": 0}, "timeout must be > 0"),
            ({"timeout": -5.0}, "timeout must be > 0"),
            ({"template": "llama3x"}, "unknown chat template 'llama3x'"),
            ({"endpoint": "localhost:8000"}, "endpoint 'localhost:8000' is not an http:// or https:// URL"),
            ({"endpoint": "https://"}, "endpoint 'https://' is not an http:// or https:// URL with a host"),
            ({"endpoint": "http://localhost:80a"}, "endpoint 'http://localhost:80a': Port could not be cast"),
            ({"max_output_tokens": 0}, "max_output_tokens must be >= 1"),
            ({"context_budget_tokens": 0}, "context_budget_tokens must be >= 1"),
            ({"context_budget_tokens": -8}, "context_budget_tokens must be >= 1"),
            ({"endpoint": "http://[::1"}, "endpoint 'http://[::1': Invalid IPv6 URL"),
            ({"timeout": float("nan")}, "timeout must be > 0 and finite"),
            ({"timeout": float("inf")}, "timeout must be > 0 and finite"),
            ({"temperature": float("nan")}, "temperature must be finite"),
            ({"backoff_base": float("nan")}, "backoff_base must be >= 0 and finite"),
            ({"timeout": threading.TIMEOUT_MAX * 2}, f"timeout must be <= {threading.TIMEOUT_MAX}"),
            ({"endpoint": "http://127.0.0.1:9/a b"}, "endpoint 'http://127.0.0.1:9/a b' holds a space or a control"),
            ({"endpoint": "http://127.0.0.1:9/a\x7f"}, "endpoint 'http://127.0.0.1:9/a\\x7f' holds a space or a control"),
        ],
    )
    def test_bad_backend_setting_rejected_before_writing(self, tmp_path, capsys, backend, message):
        # an endpoint with nothing listening: a setting that got past
        # validation would fail only at the first request, which is not
        # retried, so the run ends at once
        config = {
            "agents": ["llm", "llm"],
            "backend": {"endpoint": "http://127.0.0.1:9", "api_key_env": "", "max_retries": 0, "backoff_base": 0,
                        **backend},
        }
        path = tmp_path / "backend.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "runs"
        code = run_cli("simulate", "--config", str(path), "--out", str(out))
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"backend: {message}" in err
        assert not (out / "sim-00").exists()

    def test_invalid_yaml_reports_line(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.yaml"
        path.write_text("mode: simulate\nagents: [oracle:lookup\n")
        for loader in YAML_LOADERS:
            monkeypatch.setattr("refgame.config._SAFE_LOADER", loader)
            code = run_cli("simulate", "--config", str(path))
            assert code == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith(f"error: {path}: YAML error at line 3: ")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "typo.yaml"
        path.write_text(yaml.safe_dump({"run": {"roundz": 4}}))
        assert run_cli("simulate", "--config", str(path)) == EXIT_VALIDATION
        assert "roundz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "rounds", "4"),
            ("run", "mantel_permutations", 10.0),
            ("backend", "timeout", "60"),
            ("backend", "max_retries", True),
            ("chain", "donor_permutations", "1000"),
        ],
    )
    def test_wrongly_typed_value_rejected_before_writing(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "typed.yaml"
        path.write_text(yaml.safe_dump({section: {key: value}}))
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", str(path), "--out", str(out)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err and section in err
        assert not out.exists()

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "timeout.yaml"
        path.write_text(yaml.safe_dump({"backend": {"timeout": 60}, "run": {"mantel_permutations": 10}}))
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "runs")) == EXIT_OK

    def test_run_master_seed_rejected_before_writing(self, tmp_path, capsys):
        # every run derives its seed from the root master_seed or --seed
        path = tmp_path / "seeded.yaml"
        path.write_text(yaml.safe_dump({"run": {"master_seed": 7}}))
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", str(path), "--out", str(out)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "unknown key" in err and "master_seed" in err
        assert not out.exists()

    def test_tasks_per_round_rejected_before_writing(self, tmp_path, capsys):
        # a round is always 30 tasks; the key that could only say so is gone
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump({"run": {"tasks_per_round": 30}}))
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", str(path), "--out", str(out)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {path}: section 'run' has unknown key(s) ['tasks_per_round']" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [("--rounds", "rounds must be >= 1"), ("--permutations", "mantel_permutations must be >= 1")],
    )
    def test_invalid_flag_value_rejected_before_writing(self, tmp_path, capsys, flag, message):
        out = tmp_path / "runs"
        assert run_cli("simulate", flag, "0", "--out", str(out)) == EXIT_VALIDATION
        assert f"error: run: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("simulate", "--count", "0"), "count must be >= 1"),
            (("simulate", "--agents", "oracle:lookup"), "exactly two agents are required"),
            (("chain", "--chains", "0"), "chain: chains must be >= 1"),
            (("chain", "--generations", "0"), "chain: generations must be >= 1"),
            (("simulate", "--config", "distractors.yaml"), "run: guessing_distractors must be between 1 and 14"),
        ],
        ids=["count", "one-agent", "chains", "generations", "guessing-distractors"],
    )
    def test_out_of_range_setting_rejected_before_writing(self, tmp_path, capsys, argv, message):
        (tmp_path / "distractors.yaml").write_text(yaml.safe_dump({"run": {"guessing_distractors": 15}}))
        argv = [str(tmp_path / arg) if arg.endswith(".yaml") else arg for arg in argv]
        out = tmp_path / "runs"
        assert run_cli(*argv, "--out", str(out)) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("retries", [0, -1])
    def test_agent_retries_below_one_rejected_before_writing(self, tmp_path, capsys, retries):
        # with no attempt a task could only fail
        path = tmp_path / "retries.yaml"
        path.write_text(yaml.safe_dump({"run": {"max_agent_retries": retries}}))
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", str(path), "--out", str(out)) == EXIT_VALIDATION
        assert "error: run: max_agent_retries must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "chain"])
    def test_unknown_oracle_kind_rejected_before_writing(self, tmp_path, capsys, command):
        out = tmp_path / "runs"
        code = run_cli(command, "--agents", "oracle:bogus,oracle:lookup", "--out", str(out))
        assert code == EXIT_VALIDATION
        assert ("error: unknown agent spec 'oracle:bogus'; known: llm, oracle:lookup, oracle:compositional, "
                "oracle:random\n") in capsys.readouterr().err
        assert not out.exists()


class TestMetricsCommand:
    def test_golden_topsim(self, capsys):
        code = run_cli(
            "metrics", GOLDEN_TRAIN_PATH, "--permutations", "2000", "--seed", "0"
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        z_line = next(line for line in out.splitlines() if line.startswith("topsim_z:"))
        assert abs(float(z_line.split(":")[1]) - 7.13) < 0.5

    def test_golden_stdout_pinned(self, capsys):
        assert run_cli("metrics", GOLDEN_TRAIN_PATH, "--permutations", "2000", "--seed", "0") == EXIT_OK
        assert capsys.readouterr().out == (
            "entries: 15\n"
            "topsim_z: 6.9709\n"
            "topsim_p: 0.000500\n"
            "observed_r: 0.7288\n"
            "permutations: 2000 (sampled)\n"
            "ngram_diversity: 0.2931\n"
            "unique_signal_ratio: 0.7333\n"
        )

    def test_degenerate_vocabulary_rejected(self, tmp_path, capsys):
        # one signal throughout, or signals that are all empty (no N-gram)
        for word in ("gali", ""):
            path = tmp_path / f"same-{word}.vocab"
            Vocabulary(VocabularyEntry(s, word, 0) for s in enumerate_stimuli()[:5]).save(path)
            assert run_cli("metrics", str(path)) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.err == f"error: {path} is degenerate: no TopSim over its 5 entries\n"
            assert captured.out == ""

    def test_train_and_test_gives_gen_score(self, tmp_path, capsys):
        code = run_cli(
            "metrics", GOLDEN_TRAIN_PATH, GOLDEN_TEST_PATH, "--permutations", "500"
        )
        assert code == EXIT_OK
        assert "gen_score[cross]:" in capsys.readouterr().out
        # an empty test file is refused, by name, before train's figures are printed
        empty = tmp_path / "empty.vocab"
        empty.write_text("")
        assert run_cli("metrics", GOLDEN_TRAIN_PATH, str(empty), "--permutations", "500") == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", f"error: {empty}: no gen_score: train and test must be non-empty\n"
        )

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_permutations_rejected(self, capsys, count):
        assert run_cli("metrics", GOLDEN_TRAIN_PATH, "--permutations", count) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"error: permutations must be >= 1, got {count}" in captured.err
        assert captured.out == ""

    def test_negative_seed_rejected(self, capsys):
        assert run_cli("metrics", GOLDEN_TRAIN_PATH, "--seed", "-1") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "error: seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_single_entry_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "one.vocab"
        path.write_text("{'shape':1,'colour':'blue','amount':1,'word':'gali'}\n")
        assert run_cli("metrics", str(path)) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {path} is degenerate: no TopSim over its 1 entries\n")

    def test_parse_error_identifies_line(self, tmp_path, capsys):
        path = tmp_path / "bad.vocab"
        path.write_text(
            "{'shape':1,'colour':'blue','amount':1,'word':'gali'}\nnot an entry\n"
        )
        refusal = f"error: {path}: line 2: unparseable vocabulary entry: 'not an entry'\n"
        assert run_cli("metrics", str(path)) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", refusal)
        # of two files, the one refused is named
        assert run_cli("metrics", str(GOLDEN_TRAIN_PATH), str(path)) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", refusal)
        # a stimulus given twice parses line by line; the file is named
        path.write_text("{'shape':1,'colour':'blue','amount':1,'word':'gali'}\n" * 2)
        assert run_cli("metrics", str(path)) == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", f"error: {path}: duplicate stimulus Stimulus(shape=1, colour='blue', amount=1)\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["metrics", str(tmp)],
        lambda tmp: ["simulate", "--config", str(tmp), "--out", str(tmp / "out")],
        lambda tmp: ["metrics", str(tmp / "train.vocab" / "x")],
    ],
    ids=["metrics-directory", "config-directory", "metrics-under-a-file"],
)
def test_input_path_of_the_wrong_kind_rejected(tmp_path, capsys, argv):
    (tmp_path / "train.vocab").write_text("")
    assert run_cli(*argv(tmp_path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        lambda path: ["metrics", str(path)],
        lambda path: ["simulate", "--config", str(path), "--out", str(path.parent / "out")],
    ],
    ids=["metrics", "config"],
)
def test_input_file_that_does_not_decode_rejected(tmp_path, capsys, argv):
    path = tmp_path / "latin-1.txt"
    path.write_bytes("agents: [caf\xe9]\n".encode("latin-1"))
    assert run_cli(*argv(path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path} cannot be decoded: ") and captured.out == ""
    assert list(tmp_path.iterdir()) == [path]


class TestReplayCommand:
    def _simulate(self, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(
            "simulate", "--seed", "4", "--agents", "oracle:lookup,oracle:lookup",
            "--out", str(out), "--permutations", "60",
        ) == EXIT_OK
        return out / "sim-00"

    def test_replay_ok(self, tmp_path, capsys):
        run_dir = self._simulate(tmp_path)
        assert run_cli("replay", str(run_dir)) == EXIT_OK
        assert "replay OK" in capsys.readouterr().out

    def test_edited_log_fails(self, tmp_path):
        run_dir = self._simulate(tmp_path)
        events = run_dir / "events.jsonl"
        events.write_text(events.read_text().replace('"success": true', '"success": false', 1))
        assert run_cli("replay", str(run_dir)) == EXIT_MISMATCH

    def test_missing_manifest(self, tmp_path):
        assert run_cli("replay", str(tmp_path)) == EXIT_VALIDATION

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_tolerance_below_zero_rejected(self, tmp_path, capsys, tolerance):
        # no difference is within it, so every float column would read as a mismatch
        run_dir = self._simulate(tmp_path)
        capsys.readouterr()
        assert run_cli("replay", str(run_dir), "--tolerance", tolerance) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: tolerance must be >= 0, got {float(tolerance)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda manifest: "{bad", "manifest.json is not JSON: "),
            (lambda manifest: [manifest], "manifest.json: the manifest is a list, not a mapping"),
            (lambda manifest: {**manifest, "oops": 1}, "manifest.json: the manifest has unknown key(s) ['oops']"),
            (
                lambda manifest: {**manifest, "config": {**manifest["config"], "oops": 1}},
                "manifest.json: the manifest's config has unknown key(s) ['oops']",
            ),
            (
                lambda manifest: {**manifest, "config": {**manifest["config"], "rounds": "4"}},
                "manifest.json: the manifest's config has 'rounds': \"4\", not of type int",
            ),
            (
                lambda manifest: {
                    **manifest,
                    "extra": {k: v for k, v in manifest["extra"].items() if k != "agent_ids"},
                },
                "names no two agent ids",
            ),
            (
                lambda manifest: {**manifest, "extra": {**manifest["extra"], "agent_ids": ["A", "C"]}},
                "names agent 'C', which has no snapshots in the run",
            ),
            (
                lambda manifest: {**manifest, "config": {**manifest["config"], "mantel_permutations": 0}},
                "has an invalid run setting: mantel_permutations must be >= 1",
            ),
            (
                lambda manifest: {**manifest, "config": {**manifest["config"], "max_agent_retries": 0}},
                "has an invalid run setting: max_agent_retries must be >= 1",
            ),
            (
                lambda manifest: {**manifest, "config": {**manifest["config"], "candidate_count": 99}},
                "has an invalid run setting: candidate_count must be between 2 and 15",
            ),
            (
                lambda manifest: {**manifest, "extra": {**manifest["extra"], "agent_ids": ["A", "A"]}},
                "names agent 'A' twice",
            ),
            (
                lambda manifest: {**manifest, "master_seed": "x"},
                "manifest.json: the manifest has 'master_seed': \"x\", not of type int",
            ),
            (
                lambda manifest: {**manifest, "started": "yesterday"},
                "manifest.json: the manifest has 'started': \"yesterday\", not of type float",
            ),
            (
                lambda manifest: {k: v for k, v in manifest.items() if k != "master_seed"},
                "manifest.json: the manifest lacks key(s) ['master_seed']",
            ),
            (
                lambda manifest: {**manifest, "files": {**manifest["files"], "metrics.csv": 5}},
                "manifest.json: the manifest has 'files': ",
            ),
            (
                lambda manifest: {**manifest, "files": {
                    name: digest for name, digest in manifest["files"].items()
                    if name not in ("events.jsonl", "metrics.csv", "vocab/learned_A.vocab")
                }},
                "has no digest of events.jsonl",
            ),
            (
                lambda manifest: {**manifest, "files": {
                    name: digest for name, digest in manifest["files"].items() if name != "vocab/round4_B.vocab"
                }},
                "has no digest of vocab/round4_B.vocab",
            ),
        ],
        ids=[
            "not-json", "not-an-object", "extra-key", "unknown-run-setting", "mistyped-run-setting",
            "no-agent-ids", "unknown-agent-id", "no-permutations", "no-agent-retries",
            "too-many-candidates", "repeated-agent-id", "master-seed-not-an-int",
            "started-not-a-number", "no-master-seed", "digest-not-a-string",
            "events-log-not-digested", "round-snapshot-not-digested",
        ],
    )
    def test_unreadable_manifest_rejected(self, tmp_path, capsys, corrupt, message):
        run_dir = self._simulate(tmp_path)
        path = run_dir / "manifest.json"
        manifest = corrupt(json.loads(path.read_text()))
        path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("replay", str(run_dir)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", " cannot be read: line 237 is not a JSON object with a string kind"),
            ('{"kind": 5}', " cannot be read: line 237 is not a JSON object with a string kind"),
            (
                '{"kind": "guess", "agent": "A"}',
                ": a 'guess' record lacks key(s) ['candidates', 'chosen', 'correct', 'stimulus']",
            ),
            (
                '{"kind": "testing", "stimulus": [1, "blue", 1], "signal": "gapa"}',
                ": a 'testing' record has 'agent': null, not one of the run's agents [\"A\", \"B\"]",
            ),
            (
                '{"kind": "label", "agent": "A", "stimulus": [1, "blue", 1], "truth": "gapa", "produced": 5}',
                ": a 'label' record has 'produced': 5, not of type Signal",
            ),
            (
                '{"kind": "testing", "agent": "A", "stimulus": [1, "blue"], "signal": "gapa"}',
                ": a 'testing' record has 'stimulus': [1, \"blue\"], not of type Stimulus",
            ),
            (
                '{"kind": "testing", "agent": "A", "stimulus": [9, "blue", 1], "signal": "gapa"}',
                ": a 'testing' record has 'stimulus': [9, \"blue\", 1], not of type Stimulus",
            ),
            (
                '{"kind": "guess", "agent": "A", "stimulus": [1, "blue", 1], "candidates": ["gapa", 5],'
                ' "chosen": 0, "correct": true}',
                ": a 'guess' record has 'candidates': [\"gapa\", 5], not of type tuple[Signal, ...]",
            ),
            (
                '{"kind": "guess", "agent": "A", "stimulus": [1, "blue", 1], "candidates": ["gapa"],'
                ' "chosen": true, "correct": true}',
                ": a 'guess' record has 'chosen': true, not of type int",
            ),
            (
                '{"kind": "testing", "agent": "A", "stimulus": [1, "blue", 1], "signal": "gapa",'
                ' "failed": "no"}',
                ": a 'testing' record has 'failed': \"no\", not of type bool",
            ),
            (
                '{"kind": "guess", "agent": 5, "stimulus": [1, "blue", 1], "candidates": ["gapa"],'
                ' "chosen": 0, "correct": true}',
                ": a 'guess' record has 'agent': 5, not one of the run's agents [\"A\", \"B\"]",
            ),
        ],
        ids=[
            "not-json", "kind-not-a-string", "guess-without-fields", "testing-without-agent",
            "label-produced-not-a-string", "testing-stimulus-too-short", "testing-stimulus-unknown",
            "guess-candidate-not-a-string", "guess-chosen-not-an-int", "testing-failed-not-a-bool",
            "guess-agent-not-a-string",
        ],
    )
    def test_malformed_event_line_names_file(self, tmp_path, capsys, line, message):
        run_dir = self._simulate(tmp_path)
        events = run_dir / "events.jsonl"
        assert len(events.read_text().splitlines()) == 236
        with events.open("a") as fh:
            fh.write(line + "\n")
        manifest = RunManifest.load(run_dir)
        manifest.files["events.jsonl"] = file_digest(events)
        manifest.save(run_dir)
        capsys.readouterr()
        assert run_cli("replay", str(run_dir)) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {events}{message}\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                '{"kind": "testing", "agent": "Z", "stimulus": [1, "blue", 1], "signal": "gapa"}',
                "a 'testing' record has 'agent': \"Z\", not one of the run's agents [\"A\", \"B\"]",
            ),
            (
                '{"kind": "interaction", "agent": "A", "round": 9, "task": 0, "speaker": "Q", "listener": "A",'
                ' "stimulus": [1, "blue", 1], "signal": "gapa", "candidates": [[1, "blue", 1]], "chosen": 3,'
                ' "success": false}',
                "a 'interaction' record has 'round': 9, not in 1..4",
            ),
            (
                '{"kind": "interaction", "agent": "A", "round": 1, "task": 0, "speaker": "Q", "listener": "A",'
                ' "stimulus": [1, "blue", 1], "signal": "gapa", "candidates": [[1, "blue", 1]], "chosen": 0,'
                ' "success": true}',
                "a 'interaction' record has 'speaker': \"Q\" and 'listener': \"A\", "
                "not the run's agents [\"A\", \"B\"]",
            ),
            (
                '{"kind": "interaction", "agent": "A", "round": 1, "task": 0, "speaker": "A", "listener": "A",'
                ' "stimulus": [1, "blue", 1], "signal": "gapa", "candidates": [[1, "blue", 1]], "chosen": 0,'
                ' "success": true}',
                "a 'interaction' record has 'speaker': \"A\" and 'listener': \"A\", "
                "not the run's agents [\"A\", \"B\"]",
            ),
            (
                '{"kind": "interaction", "agent": "A", "round": 1, "task": 0, "speaker": "B", "listener": "A",'
                ' "stimulus": [1, "blue", 1], "signal": "gapa", "candidates": [[1, "blue", 1]], "chosen": 3,'
                ' "success": false}',
                "a 'interaction' record has 'chosen': 3, not -1 or one of 1 positions",
            ),
            (
                '{"kind": "guess", "agent": "B", "stimulus": [1, "blue", 1], "candidates": ["gapa", "pipo"],'
                ' "chosen": -2, "correct": false}',
                "a 'guess' record has 'chosen': -2, not -1 or one of 2 positions",
            ),
            (
                '{"kind": "label", "agent": "A", "stimulus": [1, "blue", 1], "truth": "gapa", "produced": "gapa",'
                ' "score": 1}',
                "a 'label' record has unknown key(s) ['score']",
            ),
            # seed 4's initial language maps [1, "blue", 1] to "maluli" and has no [1, "green", 2]
            (
                '{"kind": "guess", "agent": "A", "stimulus": [1, "blue", 1], "candidates": ["maluli", "mapi"],'
                ' "chosen": 0, "correct": true, "failure_mode": "failed-choice"}',
                "a 'guess' record has 'chosen': 0 and 'failure_mode': \"failed-choice\", "
                "not -1 exactly on a failure",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "maluli", "candidates": [[1, "blue", 1], [1, "blue", 2]],'
                ' "chosen": -1, "success": false}',
                "a 'interaction' record has 'chosen': -1 and 'failure_mode': \"none\", "
                "not -1 exactly on a failure",
            ),
            (
                '{"kind": "guess", "agent": "B", "stimulus": [1, "green", 2], "candidates": ["maluli", "mapi"],'
                ' "chosen": 0, "correct": false}',
                "a 'guess' record has 'stimulus': [1, \"green\", 2], not in the initial language",
            ),
            (
                '{"kind": "guess", "agent": "A", "stimulus": [1, "blue", 1], "candidates": ["mapi", "maluli"],'
                ' "chosen": 0, "correct": true}',
                "a 'guess' record has 'correct': true, not false for 'chosen': 0",
            ),
            (
                '{"kind": "guess", "agent": "A", "stimulus": [1, "blue", 1], "candidates": ["mapi", "maluli"],'
                ' "chosen": 1, "correct": false}',
                "a 'guess' record has 'correct': false, not true for 'chosen': 1",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "maluli", "candidates": [[1, "blue", 2], [1, "blue", 1]],'
                ' "chosen": 0, "success": true}',
                "a 'interaction' record has 'success': true, not false for 'chosen': 0",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "maluli", "candidates": [[1, "blue", 2], [1, "blue", 1]],'
                ' "chosen": -1, "success": true, "failure_mode": "failed-choice"}',
                "a 'interaction' record has 'success': true, not false for 'chosen': -1",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "maluli", "candidates": [[1, "blue", 2], [1, "blue", 1]],'
                ' "chosen": -1, "success": false, "failure_mode": "bogus"}',
                "a 'interaction' record has 'failure_mode': \"bogus\", "
                "not one of [\"none\", \"failed-production\", \"failed-choice\"]",
            ),
            (
                '{"kind": "guess", "agent": "A", "stimulus": [1, "blue", 1], "candidates": ["maluli", "mapi"],'
                ' "chosen": -1, "correct": false, "failure_mode": "failed-production"}',
                "a 'guess' record has 'failure_mode': \"failed-production\", "
                "not one of [\"none\", \"failed-choice\"]",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "maluli", "candidates": [[1, "blue", 2], [1, "blue", 1]],'
                ' "chosen": -1, "success": false, "failure_mode": "failed-production"}',
                "a 'interaction' record has 'signal': \"maluli\" and 'failure_mode': \"failed-production\", "
                "not empty exactly on a failed production",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "", "candidates": [[1, "blue", 2], [1, "blue", 1]],'
                ' "chosen": 1, "success": true}',
                "a 'interaction' record has 'signal': \"\" and 'failure_mode': \"none\", "
                "not empty exactly on a failed production",
            ),
            (
                '{"kind": "label", "agent": "A", "stimulus": [1, "blue", 1], "truth": "maluli", "produced": "mapi",'
                ' "failed": true}',
                "a 'label' record has 'failed': true and 'produced': \"mapi\", not its 'truth' \"maluli\"",
            ),
            (
                '{"kind": "testing", "agent": "A", "stimulus": [1, "green", 2], "signal": "mapi", "failed": true}',
                "a 'testing' record has 'failed': true with 'signal': \"mapi\" and 'extrapolated': false, "
                "not \"\" and false",
            ),
            (
                '{"kind": "testing", "agent": "A", "stimulus": [1, "green", 2], "signal": "", "failed": true,'
                ' "extrapolated": true}',
                "a 'testing' record has 'failed': true with 'signal': \"\" and 'extrapolated': true, "
                "not \"\" and false",
            ),
            (
                '{"kind": "testing", "agent": "A", "stimulus": [1, "blue", 1], "signal": "maluli",'
                ' "extrapolated": true}',
                "a 'testing' record has 'extrapolated': true for 'stimulus': [1, \"blue\", 1], "
                "in the initial language",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "maluli", "candidates": [[1, "blue", 1], [1, "blue", 2],'
                ' [2, "green", 1]], "chosen": 0, "success": true}',
                "a 'interaction' record has 'candidates': [[1, \"blue\", 1], [1, \"blue\", 2], "
                "[2, \"green\", 1]], not 4 distinct training stimuli among them its 'stimulus' [1, \"blue\", 1]",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "maluli", "candidates": [[1, "blue", 1], [1, "blue", 2],'
                ' [2, "green", 1], [1, "blue", 2]], "chosen": 0, "success": true}',
                "a 'interaction' record has 'candidates': [[1, \"blue\", 1], [1, \"blue\", 2], "
                "[2, \"green\", 1], [1, \"blue\", 2]], not 4 distinct training stimuli among them its "
                "'stimulus' [1, \"blue\", 1]",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "maluli", "candidates": [[1, "blue", 1], [1, "blue", 2],'
                ' [2, "green", 1], [1, "green", 2]], "chosen": 0, "success": true}',
                "a 'interaction' record has 'candidates': [[1, \"blue\", 1], [1, \"blue\", 2], "
                "[2, \"green\", 1], [1, \"green\", 2]], not 4 distinct training stimuli among them its "
                "'stimulus' [1, \"blue\", 1]",
            ),
            (
                '{"kind": "interaction", "agent": "B", "round": 1, "task": 0, "speaker": "A", "listener": "B",'
                ' "stimulus": [1, "blue", 1], "signal": "maluli", "candidates": [[1, "blue", 2], [2, "green", 1],'
                ' [2, "orange", 1], [2, "green", 3]], "chosen": 0, "success": false}',
                "a 'interaction' record has 'candidates': [[1, \"blue\", 2], [2, \"green\", 1], "
                "[2, \"orange\", 1], [2, \"green\", 3]], not 4 distinct training stimuli among them its "
                "'stimulus' [1, \"blue\", 1]",
            ),
            (
                '{"kind": "guess", "agent": "A", "stimulus": [1, "blue", 1], "candidates": ["maluli", "mapi"],'
                ' "chosen": 0, "correct": true}',
                "a 'guess' record has 'candidates': [\"maluli\", \"mapi\"], not 4 signals among them "
                "\"maluli\", the initial language's for its 'stimulus'",
            ),
            (
                '{"kind": "guess", "agent": "A", "stimulus": [1, "blue", 1], "candidates": ["mapi", "kagi", "wopa",'
                ' "kehu"], "chosen": 0, "correct": false}',
                "a 'guess' record has 'candidates': [\"mapi\", \"kagi\", \"wopa\", \"kehu\"], not 4 signals "
                "among them \"maluli\", the initial language's for its 'stimulus'",
            ),
        ],
        ids=[
            "testing-of-another-agent", "interaction-of-round-9", "interaction-of-another-speaker",
            "interaction-with-itself", "interaction-chosen-past-candidates", "guess-chosen-below-minus-one",
            "label-with-unknown-key", "guess-chosen-on-a-failure", "interaction-unchosen-without-failure",
            "guess-of-a-stimulus-outside-the-language", "guess-correct-on-a-wrong-choice",
            "guess-wrong-on-the-right-choice", "interaction-success-on-a-wrong-choice",
            "interaction-success-without-a-choice", "interaction-of-an-unknown-failure-mode",
            "guess-of-a-failed-production", "failed-production-with-a-signal", "production-without-a-signal",
            "failed-label-unlike-its-truth", "failed-testing-with-a-signal", "failed-testing-extrapolated",
            "testing-extrapolated-in-the-language", "interaction-of-too-few-candidates",
            "interaction-of-a-repeated-candidate", "interaction-of-a-candidate-outside-training",
            "interaction-without-its-stimulus", "guess-of-too-few-candidates", "guess-without-its-signal",
        ],
    )
    def test_foreign_block_record_refused(self, tmp_path, capsys, line, message):
        # each line is a well-typed record that is not this run's
        run_dir = self._simulate(tmp_path)
        events = run_dir / "events.jsonl"
        with events.open("a") as fh:
            fh.write(line + "\n")
        manifest = RunManifest.load(run_dir)
        manifest.files["events.jsonl"] = file_digest(events)
        manifest.save(run_dir)
        capsys.readouterr()
        assert run_cli("replay", str(run_dir)) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {events}: {message}\n"

    @pytest.mark.parametrize("kind", ["guess", "label", "interaction", "testing"])
    @pytest.mark.parametrize("edit", ["deleted", "repeated", "re-keyed"])
    def test_missing_or_repeated_block_record_refused(self, tmp_path, capsys, kind, edit):
        # the first record of a kind deleted, written twice, or moved to a
        # task the run does not have: the log is not the one the manifest's
        # configuration writes, however little the metric rows move
        run_dir = self._simulate(tmp_path)
        events = run_dir / "events.jsonl"
        lines = events.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
        record = json.loads(lines[first])
        if edit == "deleted":
            del lines[first]
            which = "no"
        elif edit == "repeated":
            lines.insert(first, lines[first])
            which = "a second"
        else:
            record["task"] = 99
            lines[first] = json.dumps(record) + "\n"
            which = "an unexpected"
        events.write_text("".join(lines))
        manifest = RunManifest.load(run_dir)
        manifest.files["events.jsonl"] = file_digest(events)
        manifest.save(run_dir)
        capsys.readouterr()
        assert run_cli("replay", str(run_dir)) == EXIT_VALIDATION
        who = f"speaker \"{record['speaker']}\"" if kind == "interaction" else f"agent \"{record['agent']}\""
        key = ", ".join(f"'{name}': {json.dumps(record[name])}" for name in ("block", "round", "task"))
        assert capsys.readouterr().err == f"error: {events}: {which} '{kind}' record of {key} and {who}\n"

    @pytest.mark.parametrize(
        "kind, outcome, flippable",
        [
            ("interaction", "success", lambda event: event["round"] == 1),
            ("guess", "correct", lambda event: event["agent"] == "A"),
        ],
        ids=["interactions-of-round-1", "guesses-of-agent-A"],
    )
    def test_outcome_flips_that_cancel_refused(self, tmp_path, capsys, kind, outcome, flippable):
        # one record of each outcome flipped in place: the rate stays, and so do the metric rows
        out = tmp_path / "runs"
        assert run_cli(
            "simulate", "--seed", "0", "--agents", "oracle:random,oracle:random",
            "--out", str(out), "--permutations", "60",
        ) == EXIT_OK
        run_dir = out / "sim-00"
        events = run_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        flipped = set()
        for number, event in enumerate(map(json.loads, lines)):
            if event["kind"] == kind and flippable(event) and event[outcome] not in flipped:
                flipped.add(event[outcome])
                event[outcome] = not event[outcome]
                lines[number] = json.dumps(event)
        assert flipped == {True, False}
        events.write_text("\n".join(lines) + "\n")
        manifest = RunManifest.load(run_dir)
        manifest.files["events.jsonl"] = file_digest(events)
        manifest.save(run_dir)
        capsys.readouterr()
        assert run_cli("replay", str(run_dir)) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {events}: a {kind!r} record has {outcome!r}: ")

    @pytest.mark.parametrize("name", ["/etc/hostname", "../outside.txt", "vocab/../../outside.txt"])
    def test_manifest_file_outside_the_run_refused(self, tmp_path, capsys, name):
        # a file is refused before it is hashed, so a right digest does not
        # help and a wrong one prints no digest of it
        run_dir = self._simulate(tmp_path)
        (run_dir.parent / "outside.txt").write_text("not part of the run\n")
        outside = run_dir / name
        for digest in ([file_digest(outside)] if outside.is_file() else []) + ["0" * 64]:
            manifest = json.loads((run_dir / "manifest.json").read_text())
            manifest["files"][name] = digest
            (run_dir / "manifest.json").write_text(json.dumps(manifest))
            capsys.readouterr()
            assert run_cli("replay", str(run_dir)) == EXIT_VALIDATION
            captured = capsys.readouterr()
            expected = f"the manifest has 'files' entry {json.dumps(name)}, outside the run directory\n"
            assert captured.err == f"error: {run_dir / 'manifest.json'}: {expected}"

    def _edit_metrics(self, run_dir, edit) -> None:
        """``metrics.csv``'s lines edited in place by ``edit``, under a re-digested manifest."""
        csv_path = run_dir / "metrics.csv"
        lines = csv_path.read_text().splitlines()
        edit(lines)
        csv_path.write_text("\n".join(lines) + "\n")
        manifest = RunManifest.load(run_dir)
        manifest.files["metrics.csv"] = file_digest(csv_path)
        manifest.save(run_dir)

    def test_edited_metric_cell_reported(self, tmp_path, capsys):
        run_dir = self._simulate(tmp_path)
        stored = {}

        def edit(lines):
            columns = lines[0].split(",")
            cells = lines[4].split(",")  # labelling, agent A
            stored.update(zip(columns, cells))
            cells[columns.index("mean_levenshtein")] = "0.5"
            lines[4] = ",".join(cells)

        self._edit_metrics(run_dir, edit)
        capsys.readouterr()
        assert run_cli("replay", str(run_dir)) == EXIT_MISMATCH
        assert (stored["block"], stored["agent"]) == ("labelling", "A")
        assert capsys.readouterr().err == (
            f"mismatch block=labelling round=- agent=A mean_levenshtein: stored=0.5 "
            f"recomputed={stored['mean_levenshtein']}\n"
        )

    def test_missing_metric_row_reported(self, tmp_path, capsys):
        run_dir = self._simulate(tmp_path)
        self._edit_metrics(run_dir, lambda lines: lines.pop())
        capsys.readouterr()
        assert run_cli("replay", str(run_dir)) == EXIT_MISMATCH
        assert capsys.readouterr().err == "mismatch block=* round=- agent=- row_count: stored=14 recomputed=15\n"

    def test_malformed_metrics_cell_names_file_row_and_column(self, tmp_path, capsys):
        run_dir = self._simulate(tmp_path)

        def edit(lines):
            cells = lines[3].split(",")
            cells[lines[0].split(",").index("ngram_diversity")] = "n/a"
            lines[3] = ",".join(cells)

        self._edit_metrics(run_dir, edit)
        assert run_cli("replay", str(run_dir)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'metrics.csv'}: row 3, column ngram_diversity:")


class TestChainCommand:
    def test_chain_layout_and_csv(self, tmp_path):
        out = tmp_path / "chains"
        code = run_cli(
            "chain", "--chains", "2", "--generations", "3", "--seed", "6",
            "--agents", "oracle:lookup,oracle:lookup",
            "--out", str(out), "--permutations", "60",
        )
        assert code == EXIT_OK
        for chain_index in range(2):
            chain_dir = out / f"chain-{chain_index:02d}"
            rows = read_rows(chain_dir / "chain.csv", ChainRow)
            assert [row.generation for row in rows] == [0, 1, 2]
            for generation in range(3):
                assert (chain_dir / f"gen{generation:02d}" / "manifest.json").exists()

    def test_generation_dirs_are_replayable(self, tmp_path):
        out = tmp_path / "chains"
        run_cli(
            "chain", "--chains", "1", "--generations", "2", "--seed", "6",
            "--agents", "oracle:lookup,oracle:lookup",
            "--out", str(out), "--permutations", "60",
        )
        assert run_cli("replay", str(out / "chain-00" / "gen01")) == EXIT_OK

    def test_resume_matches_uninterrupted(self, tmp_path):
        shared = ["--seed", "8", "--agents", "oracle:lookup,oracle:lookup", "--permutations", "60"]
        full_out = tmp_path / "full"
        run_cli("chain", "--chains", "1", "--generations", "3", "--out", str(full_out), *shared)
        resumed_out = tmp_path / "resumed"
        run_cli("chain", "--chains", "1", "--generations", "2", "--out", str(resumed_out), *shared)
        code = run_cli("chain", "--chains", "1", "--generations", "3", "--out", str(resumed_out), *shared)
        assert code == EXIT_OK
        full_csv = (full_out / "chain-00" / "chain.csv").read_bytes()
        resumed_csv = (resumed_out / "chain-00" / "chain.csv").read_bytes()
        assert full_csv == resumed_csv

    # random oracles fail communication tasks, so perc_com is not 1.0 and the
    # rebuilt row must average one value per round exactly as in memory
    @pytest.mark.parametrize(
        "agents",
        ["oracle:lookup,oracle:lookup", "oracle:random,oracle:random"],
        ids=["lookup", "random"],
    )
    def test_resume_rebuilds_missing_csv_rows(self, tmp_path, agents):
        shared = ["--seed", "2", "--agents", agents, "--permutations", "60"]
        full_out = tmp_path / "full"
        run_cli("chain", "--chains", "1", "--generations", "3", "--out", str(full_out), *shared)
        resumed_out = tmp_path / "resumed"
        run_cli("chain", "--chains", "1", "--generations", "2", "--out", str(resumed_out), *shared)
        # simulate a crash after the generation dirs were written but before
        # the chain-level CSV landed
        (resumed_out / "chain-00" / "chain.csv").unlink()
        code = run_cli("chain", "--chains", "1", "--generations", "3", "--out", str(resumed_out), *shared)
        assert code == EXIT_OK
        full_csv = (full_out / "chain-00" / "chain.csv").read_bytes()
        resumed_csv = (resumed_out / "chain-00" / "chain.csv").read_bytes()
        assert full_csv == resumed_csv

    def test_resume_reruns_a_generation_whose_manifest_is_unreadable(self, tmp_path, capsys):
        # like an incomplete or digest-invalid generation, it is not finished;
        # neither is one whose manifest holds an out-of-range run setting or
        # names a donor it does not have, nor one whose metrics.csv cannot be
        # read back or holds no rows, or whose events.jsonl holds a record
        # that cannot be rebuilt or a value of the wrong type or range, under
        # a manifest that digests it
        shared = ["chain", "--chains", "1", "--generations", "3", "--seed", "8", "--permutations", "60"]
        full_out, out = tmp_path / "full", tmp_path / "resumed"
        assert run_cli(*shared, "--out", str(full_out)) == EXIT_OK
        assert run_cli(*shared, "--out", str(out)) == EXIT_OK
        def out_of_range(text):
            manifest = json.loads(text)
            manifest["config"]["mantel_permutations"] = 0
            return json.dumps(manifest)

        def unknown_donor(text):
            manifest = json.loads(text)
            manifest["extra"]["donor_id"] = "Z"
            return json.dumps(manifest)

        # a file of gen02 changed under a manifest that digests the change
        def rewritten(name, edit):
            def corrupt(text):
                manifest = json.loads(text)
                path = out / "chain-00" / "gen02" / name
                path.write_bytes(edit(path.read_bytes()))
                manifest["files"][name] = file_digest(path)
                return json.dumps(manifest)

            return corrupt

        def no_metrics(text):
            manifest = json.loads(text)
            (out / "chain-00" / "gen02" / "metrics.csv").unlink()
            del manifest["files"]["metrics.csv"]
            return json.dumps(manifest)

        cases = (
            (1, lambda text: "{bad"), (2, out_of_range), (1, unknown_donor),
            (2, rewritten("metrics.csv", lambda data: b"schema_version,block\n9,testing\n")),
            (2, rewritten("metrics.csv", lambda data: b"schema_version,block\n1,caf\xe9\n")),
            (2, no_metrics),
            (2, rewritten("metrics.csv", lambda data: data.splitlines(keepends=True)[0])),
            (2, rewritten("events.jsonl", lambda data: data + b'{"kind": "guess", "agent": "A"}\n')),
            # the first label record's produced signal made 5, and the first
            # record's shape made 9
            (2, rewritten(
                "events.jsonl", lambda data: data.replace(b'"produced": "', b'"produced": 5, "_": "', 1)
            )),
            (2, rewritten(
                "events.jsonl", lambda data: re.sub(rb'"stimulus": \[\d', b'"stimulus": [9', data, count=1)
            )),
        )
        for generation, corrupt in cases:
            path = out / "chain-00" / f"gen{generation:02d}" / "manifest.json"
            path.write_text(corrupt(path.read_text()))
            capsys.readouterr()
            assert run_cli(*shared, "--out", str(out)) == EXIT_OK
            assert f"resuming after generation {generation - 1}" in capsys.readouterr().out
            for gen in ("gen00", "gen01", "gen02"):
                resumed = RunManifest.load(out / "chain-00" / gen)
                assert resumed.files == RunManifest.load(full_out / "chain-00" / gen).files
                resumed.verify_digests(out / "chain-00" / gen)
            full_csv = (full_out / "chain-00" / "chain.csv").read_bytes()
            assert (out / "chain-00" / "chain.csv").read_bytes() == full_csv

    def test_resume_rebuilds_edited_csv_rows(self, tmp_path):
        # no manifest digests chain.csv: a resume rebuilds every row from the
        # generations' metrics.csv, so a hand edit does not survive it
        shared = [
            "chain", "--chains", "1", "--generations", "3", "--seed", "2",
            "--agents", "oracle:random,oracle:random", "--permutations", "60",
        ]
        full_out = tmp_path / "full"
        assert run_cli(*shared, "--out", str(full_out)) == EXIT_OK
        resumed_out = tmp_path / "resumed"
        shutil.copytree(full_out, resumed_out)
        chain = resumed_out / "chain-00"
        header, *lines = (chain / "chain.csv").read_text().splitlines()
        cells = lines[1].split(",")
        column = header.split(",").index("perc_com")
        assert cells[column] != "0.5"
        cells[column] = "0.5"
        lines[1] = ",".join(cells)
        (chain / "chain.csv").write_text("\n".join([header, *lines]) + "\n")
        shutil.rmtree(chain / "gen02")
        assert run_cli(*shared, "--out", str(resumed_out)) == EXIT_OK
        assert (chain / "chain.csv").read_bytes() == (full_out / "chain-00" / "chain.csv").read_bytes()

    def test_aborted_generation_saved_incomplete_and_resumed(self, tmp_path, monkeypatch, capsys):
        class Exploding(LookupOracle):
            def produce_signal(self, stimulus, task, rng):
                if task is PromptTask.SPEAKING:
                    raise RuntimeError("service gone")
                return super().produce_signal(stimulus, task, rng)

        build_agents = cli._build_agents
        built = []

        def failing_in_generation_one(config):
            built.append(config)
            agents = build_agents(config)
            return (Exploding("A"), agents[1]) if len(built) == 2 else agents

        shared = [
            "chain", "--chains", "1", "--generations", "3", "--seed", "8",
            "--agents", "oracle:lookup,oracle:lookup", "--permutations", "60",
        ]
        out = tmp_path / "chains"
        monkeypatch.setattr(cli, "_build_agents", failing_in_generation_one)
        assert run_cli(*shared, "--out", str(out)) == EXIT_RUNTIME
        assert "run aborted: service gone" in capsys.readouterr().err
        gen_dir = out / "chain-00" / "gen01"
        manifest = RunManifest.load(gen_dir)
        assert manifest.status == "incomplete"
        assert manifest.extra["completed_blocks"] == ["guessing", "labelling"]
        assert "service gone" in manifest.extra["error"]
        manifest.verify_digests(gen_dir)
        assert run_cli("replay", str(gen_dir)) == EXIT_VALIDATION
        assert "incomplete" in capsys.readouterr().err

        monkeypatch.setattr(cli, "_build_agents", build_agents)
        assert run_cli(*shared, "--out", str(out)) == EXIT_OK
        assert "resuming after generation 0" in capsys.readouterr().out
        assert run_cli("replay", str(gen_dir)) == EXIT_OK
        full_out = tmp_path / "full"
        assert run_cli(*shared, "--out", str(full_out)) == EXIT_OK
        full_csv = (full_out / "chain-00" / "chain.csv").read_bytes()
        assert (out / "chain-00" / "chain.csv").read_bytes() == full_csv

    def test_aborted_generation_manifest_has_no_donor_fields(self, tmp_path, monkeypatch):
        build_agents = cli._build_agents
        built = []

        def failing_in_generation_one(config):
            built.append(config)
            if len(built) == 2:
                return BreakingOracle("A", PromptTask.LABELLING), LookupOracle("B")
            return build_agents(config)

        monkeypatch.setattr(cli, "_build_agents", failing_in_generation_one)
        out = tmp_path / "chains"
        argv = ["chain", "--chains", "1", "--generations", "2", "--seed", "8", "--permutations", "60"]
        assert run_cli(*argv, "--out", str(out)) == EXIT_RUNTIME
        assert {"donor_id", "donor_degenerate", "generation"} <= set(
            RunManifest.load(out / "chain-00" / "gen00").extra
        )
        manifest = RunManifest.load(out / "chain-00" / "gen01")
        assert manifest.status == "incomplete"
        assert manifest.extra == {
            "agent_ids": ["A", "B"], "error": "agent A broke", "completed_blocks": ["guessing"],
            "agent_specs": ["oracle:lookup", "oracle:lookup"], "donor_permutations": 1000,
        }

    def test_incomplete_testing_output_aborts_generation_and_resumes(
        self, tmp_path, monkeypatch, capsys
    ):
        # a donor must transmit all 27 testing productions; a dyad that lost
        # one aborts its generation instead of crashing the chain
        last = enumerate_stimuli()[-1]

        class FailingLast(LookupOracle):
            def produce_signals(self, items, task, rng):
                item = next(iter(items))
                if item[1] == last and task is PromptTask.SPEAKING:
                    return Reply.held([])  # no signal
                return super().produce_signals([item], task, rng)

        build_agents = cli._build_agents
        built = []

        def failing_in_generation_one(config):
            built.append(config)
            agents = build_agents(config)
            return (FailingLast("A"), agents[1]) if len(built) == 2 else agents

        shared = [
            "chain", "--chains", "1", "--generations", "3", "--seed", "8",
            "--agents", "oracle:lookup,oracle:lookup", "--permutations", "60",
        ]
        out = tmp_path / "chains"
        monkeypatch.setattr(cli, "_build_agents", failing_in_generation_one)
        assert run_cli(*shared, "--out", str(out)) == EXIT_RUNTIME
        assert "run aborted: incomplete testing output for agent A" in capsys.readouterr().err
        gen_dir = out / "chain-00" / "gen01"
        manifest = RunManifest.load(gen_dir)
        assert manifest.status == "incomplete"
        assert manifest.extra["completed_blocks"] == [
            "communication", "guessing", "labelling", "testing"
        ]
        manifest.verify_digests(gen_dir)
        assert run_cli("replay", str(gen_dir)) == EXIT_VALIDATION
        assert "incomplete" in capsys.readouterr().err

        monkeypatch.setattr(cli, "_build_agents", build_agents)
        assert run_cli(*shared, "--out", str(out)) == EXIT_OK
        assert "resuming after generation 0" in capsys.readouterr().out
        assert run_cli("replay", str(gen_dir)) == EXIT_OK
        full_out = tmp_path / "full"
        assert run_cli(*shared, "--out", str(full_out)) == EXIT_OK
        full_csv = (full_out / "chain-00" / "chain.csv").read_bytes()
        assert (out / "chain-00" / "chain.csv").read_bytes() == full_csv

    def test_rerun_of_complete_chain_is_noop(self, tmp_path):
        shared = ["--seed", "8", "--agents", "oracle:lookup,oracle:lookup", "--permutations", "60"]
        out = tmp_path / "chains"
        run_cli("chain", "--chains", "1", "--generations", "2", "--out", str(out), *shared)
        before = (out / "chain-00" / "chain.csv").read_bytes()
        stamp = (out / "chain-00" / "gen01" / "manifest.json").stat().st_mtime_ns
        assert run_cli("chain", "--chains", "1", "--generations", "2", "--out", str(out), *shared) == EXIT_OK
        assert (out / "chain-00" / "chain.csv").read_bytes() == before
        assert (out / "chain-00" / "gen01" / "manifest.json").stat().st_mtime_ns == stamp

    @pytest.mark.parametrize("chain, message", [({"donor_permutations": 0}, "donor_permutations must be >= 1")])
    def test_bad_chain_setting_rejected_before_writing(self, tmp_path, capsys, chain, message):
        path = tmp_path / "chain.yaml"
        path.write_text(yaml.safe_dump({"chain": chain}))
        out = tmp_path / "chains"
        code = run_cli("chain", "--config", str(path), "--out", str(out), "--permutations", "60")
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (out / "chain-00").exists()

    @pytest.mark.parametrize("section, value", [("run", "5"), ("chain", "abc"), ("backend", "[1]")])
    def test_section_that_is_not_a_mapping_rejected_before_writing(self, tmp_path, capsys, section, value):
        path = tmp_path / "chain.yaml"
        path.write_text(f"{section}: {value}\n")
        out = tmp_path / "chains"
        code = run_cli("chain", "--config", str(path), "--out", str(out), "--permutations", "60")
        assert code == EXIT_VALIDATION
        shown = json.dumps(yaml.safe_load(value))
        section_type = {"run": "RunConfig", "chain": "ChainConfig", "backend": "BackendDescriptor"}[section]
        expected = f"error: {path}: the config root has '{section}': {shown}, not of type {section_type}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_empty_section_means_the_defaults(self, tmp_path):
        path = tmp_path / "chain.yaml"
        path.write_text("run:\nchain:\n")
        out = tmp_path / "chains"
        assert run_cli("chain", "--config", str(path), "--out", str(out), "--generations", "1",
                       "--chains", "1", "--permutations", "60") == EXIT_OK
        assert RunManifest.load(out / "chain-00" / "gen00").config["rounds"] == 4

    def test_generation_overrides_rejected_before_writing(self, tmp_path, capsys):
        # every generation runs the run settings; no section names a generation
        path = tmp_path / "chain.yaml"
        path.write_text(yaml.safe_dump({"chain": {"generation_overrides": {1: {"rounds": 2}}}}))
        out = tmp_path / "chains"
        code = run_cli("chain", "--config", str(path), "--out", str(out), "--permutations", "60")
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {path}: section 'chain' has unknown key(s) ['generation_overrides']\n"
        assert not (out / "chain-00").exists()

    def test_unknown_template_writes_no_chain(self, tmp_path, capsys):
        backend = {"endpoint": "http://127.0.0.1:9", "api_key_env": "", "template": "llama3x"}
        path = tmp_path / "backend.yaml"
        path.write_text(yaml.safe_dump({"agents": ["llm", "llm"], "backend": backend}))
        out = tmp_path / "runs"
        assert run_cli("chain", "--config", str(path), "--out", str(out)) == EXIT_VALIDATION
        assert "error: backend: unknown chat template 'llama3x'" in capsys.readouterr().err
        assert not (out / "chain-00").exists()

    def test_seed_only_chain_writes_its_csv(self, tmp_path):
        sims = tmp_path / "sims"
        run_cli("simulate", "--seed", "3", "--out", str(sims), "--permutations", "60")
        out = tmp_path / "chains"
        code = run_cli(
            "chain", "--chains", "1", "--generations", "1", "--seed-from", str(sims / "sim-00"),
            "--out", str(out), "--permutations", "60",
        )
        assert code == EXIT_OK
        assert [row.generation for row in read_rows(out / "chain-00" / "chain.csv", ChainRow)] == [0]

    def test_seed_from_imports_generation_zero(self, tmp_path):
        sims = tmp_path / "sims"
        run_cli(
            "simulate", "--seed", "3", "--agents", "oracle:lookup,oracle:lookup",
            "--out", str(sims), "--permutations", "60",
        )
        out = tmp_path / "chains"
        code = run_cli(
            "chain", "--chains", "1", "--generations", "3", "--seed", "7",
            "--agents", "oracle:lookup,oracle:lookup",
            "--seed-from", str(sims / "sim-00"),
            "--out", str(out), "--permutations", "60",
        )
        assert code == EXIT_OK
        chain_dir = out / "chain-00"
        rows = read_rows(chain_dir / "chain.csv", ChainRow)
        assert [row.generation for row in rows] == [0, 1, 2]
        # generation 0 was imported, not re-run
        assert not (chain_dir / "gen00").exists()
        assert (chain_dir / "gen01").exists() and (chain_dir / "gen02").exists()
        # imported row reflects the seed run's stored metrics
        seed_rows = read_rows(sims / "sim-00" / "metrics.csv", MetricRow)
        donor = rows[0].donor
        seed_testing = next(r for r in seed_rows if r.block == "testing" and r.agent == donor)
        assert rows[0].topsim_z == seed_testing.topsim_z

    def test_seed_without_complete_testing_output_refused(self, tmp_path, monkeypatch, capsys):
        # a seed run whose agent lost a testing production has no complete
        # output to transmit
        last = enumerate_stimuli()[-1]

        class FailingLast(LookupOracle):
            def produce_signals(self, items, task, rng):
                item = next(iter(items))
                if item[1] == last and task is PromptTask.SPEAKING:
                    return Reply.held([])  # no signal
                return super().produce_signals([item], task, rng)

        build_agents = cli._build_agents
        def failing_a(config):
            return FailingLast("A"), build_agents(config)[1]

        monkeypatch.setattr(cli, "_build_agents", failing_a)
        sims = tmp_path / "sims"
        code = run_cli("simulate", "--seed", "3", "--out", str(sims), "--permutations", "60")
        assert code == EXIT_OK
        monkeypatch.setattr(cli, "_build_agents", build_agents)
        capsys.readouterr()
        out = tmp_path / "chains"
        code = run_cli(
            "chain", "--chains", "1", "--generations", "2", "--seed-from", str(sims / "sim-00"),
            "--out", str(out), "--permutations", "60",
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sims / 'sim-00'} cannot seed a chain: ")
        assert "incomplete testing output for agent A" in err
        assert not (out / "chain-00" / "gen01").exists()

    def test_seed_with_unreadable_manifest_refused(self, tmp_path, capsys):
        sims = tmp_path / "sims"
        run_cli("simulate", "--seed", "3", "--out", str(sims), "--permutations", "60")
        (sims / "sim-00" / "manifest.json").write_text("{bad")
        out = tmp_path / "chains"
        code = run_cli(
            "chain", "--chains", "1", "--generations", "2", "--seed-from", str(sims / "sim-00"),
            "--out", str(out), "--permutations", "60",
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sims / 'sim-00' / 'manifest.json'} is not JSON: ")
        assert not (out / "chain-00").exists()

    def test_missing_seed_leaves_no_chain_directory(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        out = tmp_path / "chains"
        code = run_cli(
            "chain", "--chains", "2", "--generations", "2", "--seed-from", str(missing),
            "--out", str(out), "--permutations", "60",
        )
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: no manifest in {missing}")
        assert not (out / "chain-00").exists()

    def test_seeded_chain_resumes(self, tmp_path, capsys):
        shared = seeded_chain_argv(tmp_path)
        full_out, out = tmp_path / "full", tmp_path / "chains"
        assert run_cli(*shared, "--out", str(full_out)) == EXIT_OK
        assert run_cli(*shared, "--out", str(out)) == EXIT_OK
        chain_dir = out / "chain-00"
        shutil.rmtree(chain_dir / "gen02")
        stamp = (chain_dir / "gen01" / "manifest.json").stat().st_mtime_ns
        capsys.readouterr()
        assert run_cli(*shared, "--out", str(out)) == EXIT_OK
        assert "resuming after generation 1" in capsys.readouterr().out
        assert (chain_dir / "gen01" / "manifest.json").stat().st_mtime_ns == stamp
        full_csv = (full_out / "chain-00" / "chain.csv").read_bytes()
        assert (chain_dir / "chain.csv").read_bytes() == full_csv
        assert run_cli("replay", str(chain_dir / "gen02")) == EXIT_OK

    def test_rerun_of_complete_seeded_chain_is_noop(self, tmp_path):
        shared = [*seeded_chain_argv(tmp_path), "--out", str(tmp_path / "chains")]
        assert run_cli(*shared) == EXIT_OK
        chain_dir = tmp_path / "chains" / "chain-00"
        before = (chain_dir / "chain.csv").read_bytes()
        stamps = [(chain_dir / g / "manifest.json").stat().st_mtime_ns for g in ("gen01", "gen02")]
        assert run_cli(*shared) == EXIT_OK
        assert (chain_dir / "chain.csv").read_bytes() == before
        assert [(chain_dir / g / "manifest.json").stat().st_mtime_ns for g in ("gen01", "gen02")] == stamps

    @pytest.mark.parametrize(
        "changed, field",
        [
            (["--seed", "2"], "master_seed"),
            (["--permutations", "100"], "mantel_permutations"),
            (["--agents", "oracle:random,oracle:random"], "agent_specs"),
            ({"chain": {"donor_permutations": 1000}}, "donor_permutations"),
        ],
        ids=["seed", "permutations", "agents", "donor_permutations"],
    )
    def test_resume_with_another_configuration_refused(self, tmp_path, capsys, changed, field):
        config = tmp_path / "chain.yaml"
        config.write_text(yaml.safe_dump({"chain": {"donor_permutations": 60}}))
        shared = ["chain", "--config", str(config), "--chains", "1", "--seed", "1", "--permutations", "60"]
        out = tmp_path / "chains"
        assert run_cli(*shared, "--generations", "2", "--out", str(out)) == EXIT_OK
        stamps = file_stamps(out)
        if isinstance(changed, dict):  # a setting only a config file gives
            config.write_text(yaml.safe_dump(changed))
            changed = []
        capsys.readouterr()
        code = run_cli(*shared, *changed, "--generations", "3", "--out", str(out))
        assert code == EXIT_VALIDATION
        gen_dir = out / "chain-00" / "gen00"
        assert capsys.readouterr().err.startswith(f"error: {gen_dir} was run with another configuration: {field} ")
        assert file_stamps(out) == stamps
        assert not (out / "chain-00" / "gen02").exists()

    @pytest.mark.parametrize("changed", [{"max_output_tokens": 12}, {"template": "plain"}], ids=["tokens", "template"])
    def test_llm_resume_with_another_service_refused(self, tmp_path, capsys, changed):
        config, out = tmp_path / "wire.yaml", tmp_path / "chains"
        argv = ["chain", "--config", str(config), "--chains", "1", "--seed", "1", "--out", str(out)]
        with wire_service() as endpoint:
            def write_config(**backend):
                backend = {"endpoint": endpoint, "api_key_env": "", "max_output_tokens": 16, **backend}
                run = {"rounds": 1, "mantel_permutations": 60}
                config.write_text(yaml.safe_dump({"agents": ["llm", "llm"], "backend": backend, "run": run}))

            write_config()
            assert run_cli(*argv, "--generations", "1") == EXIT_OK
            stamps = file_stamps(out)
            write_config(**changed)
            capsys.readouterr()
            assert run_cli(*argv, "--generations", "2") == EXIT_VALIDATION
        gen_dir = out / "chain-00" / "gen00"
        assert capsys.readouterr().err.startswith(f"error: {gen_dir} was run with another configuration: service {{")
        assert file_stamps(out) == stamps
        assert not (out / "chain-00" / "gen01").exists()


def file_stamps(root: Path) -> dict:
    """The modification time of each file under ``root``."""
    return {path: path.stat().st_mtime_ns for path in root.rglob("*") if path.is_file()}


class TestEventLogLifecycle:
    """Each events.jsonl a command opens is closed again, whether its run
    completes or aborts, and its manifest digests the file on disk."""

    @staticmethod
    def recorded(monkeypatch) -> tuple[list, list]:
        """The connections every backend the CLI builds opens, and the
        exceptions raised in finalizers (a ResourceWarning lands there)."""
        unraisable, connections = [], []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        class Recorded(cli.HttpBackend):
            def __init__(self, *args):
                super().__init__(*args)
                connect = self._connect

                def recorded():
                    connections.append(connect())
                    return connections[-1]

                self._connect = recorded

        monkeypatch.setattr(cli, "HttpBackend", Recorded)
        return unraisable, connections

    @pytest.mark.parametrize(
        "argv, code, runs",
        [
            (("simulate", "--count", "2"), EXIT_OK, 2),
            (("chain", "--chains", "1", "--generations", "2"), EXIT_OK, 2),
            # lookup oracles collapse the language by gen06, which aborts
            (("chain", "--seed", "4", "--chains", "1", "--generations", "7"), EXIT_RUNTIME, 7),
            # against the keep-alive stub: five connections per llm agent
            (("simulate", "--config", "wire"), EXIT_OK, 1),
        ],
        ids=["simulate", "chain", "aborted-chain", "llm-dyad"],
    )
    def test_every_handle_closed(self, tmp_path, monkeypatch, request, argv, code, runs):
        unraisable, connections = self.recorded(monkeypatch)
        if "wire" in argv:
            endpoint, _ = request.getfixturevalue("keepalive_stub_server")
            argv = [wire_config(tmp_path, endpoint) if arg == "wire" else arg for arg in argv]
        out = tmp_path / "runs"
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert run_cli(*argv, "--permutations", "60", "--out", str(out)) == code
            gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []
        # five keep-alive connections per llm agent: its guessing request
        # beside its listening and speaking requests and the two of a wrong
        # prediction it discards
        assert len(connections) == (10 if "--config" in argv else 0)
        assert all(connection.sock is None for connection in connections)  # closed
        run_dirs = [path.parent for path in sorted(out.rglob("manifest.json"))]
        assert len(run_dirs) == runs
        for run_dir in run_dirs:
            digest = RunManifest.load(run_dir).files["events.jsonl"]
            assert digest == file_digest(run_dir / "events.jsonl")

    @pytest.mark.parametrize("refused", [1, 3])
    def test_refused_listening_request_closes_the_requests_in_flight(
        self, tmp_path, monkeypatch, keepalive_stub_server, refused
    ):
        # the service refuses the communication block's listening requests from
        # the first or the third on: the run aborts at the first refused read,
        # and the requests it had sent ahead (a speaking request, and a
        # prediction's two) are closed unread
        unraisable, connections = self.recorded(monkeypatch)
        endpoint, handler = keepalive_stub_server
        handler.failure_status, listening = 403, []

        def fails(self, body):
            if body.get("echo") and LISTENING_INSTRUCTION in body["prompt"][0]:
                with handler.lock:
                    listening.append(body)
                    return len(listening) >= refused
            return False

        handler._fails = fails
        out = tmp_path / "runs"
        config = wire_config(tmp_path, endpoint)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            code = run_cli("simulate", "--config", config, "--seed", "5", "--out", str(out))
            gc.collect()
        assert code == EXIT_RUNTIME
        records = EventLog.read(out / "sim-00" / "events.jsonl")
        assert records[-1]["kind"] == "run_aborted" and records[-1]["block"] == "communication"
        assert [str(u.exc_value) for u in unraisable] == []
        assert connections and all(connection.sock is None for connection in connections)

    @pytest.mark.parametrize("refused", [1, 3])
    def test_refused_speaking_request_closes_the_requests_in_flight(
        self, tmp_path, monkeypatch, keepalive_stub_server, refused
    ):
        # the service refuses the communication block's speaking requests (the
        # first completions of the speaking instruction; testing's come later)
        # from the first or the third on: the run aborts at the first refused
        # read, and the requests sent ahead and not yet read are closed unread
        unraisable, connections = self.recorded(monkeypatch)
        endpoint, handler = keepalive_stub_server
        handler.failure_status, speaking = 403, []

        def fails(self, body):
            if not body.get("echo") and SPEAKING_INSTRUCTION in body["prompt"][0]:
                with handler.lock:
                    speaking.append(body)
                    return len(speaking) >= refused
            return False

        handler._fails = fails
        out = tmp_path / "runs"
        config = wire_config(tmp_path, endpoint)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            code = run_cli("simulate", "--config", config, "--seed", "5", "--out", str(out))
            gc.collect()
        assert code == EXIT_RUNTIME
        records = EventLog.read(out / "sim-00" / "events.jsonl")
        assert records[-1]["kind"] == "run_aborted" and records[-1]["block"] == "communication"
        assert [str(u.exc_value) for u in unraisable] == []
        assert connections and all(connection.sock is None for connection in connections)


class TestAbortInASharedBlock:
    """Both agents run guessing and labelling at once; a run that aborts in
    one of them leaves what it left when the agents ran one after the other:
    an abort in agent A's block drops B's, and an abort in B's follows A's
    whole block."""

    @pytest.mark.parametrize("block", ["guessing", "labelling"])
    @pytest.mark.parametrize("breaking", ["A", "B", "AB"])
    def test_events_and_manifest_as_run_in_turn(self, tmp_path, monkeypatch, capsys, block, breaking):
        task, kind = {"guessing": (PromptTask.GUESSING, "guess"),
                      "labelling": (PromptTask.LABELLING, "label")}[block]
        argv = ["simulate", "--seed", "6", "--agents", "oracle:lookup,oracle:lookup",
                "--permutations", "60"]
        assert run_cli(*argv, "--out", str(tmp_path / "clean")) == EXIT_OK
        clean = EventLog.read(tmp_path / "clean" / "sim-00" / "events.jsonl")

        def build(config):
            return tuple(BreakingOracle(i, task) if i in breaking else LookupOracle(i) for i in "AB")

        monkeypatch.setattr(cli, "_build_agents", build)
        capsys.readouterr()
        out = tmp_path / "runs"
        assert run_cli(*argv, "--out", str(out)) == EXIT_RUNTIME
        # A breaks first whenever it breaks; its third list asks task 2 alone
        first = breaking[0]
        assert f"run aborted: agent {first} broke" in capsys.readouterr().err
        own = [i for i, r in enumerate(clean) if r["kind"] == kind and r["agent"] == first]
        kept = clean[: own[1] + 1]
        context = {key: kept[-1][key] for key in ("simulation", "block", "round", "agent")}
        aborted = {"kind": "run_aborted", **context, "task": 2, "error": f"agent {first} broke"}
        assert EventLog.read(out / "sim-00" / "events.jsonl") == kept + [aborted]
        manifest = RunManifest.load(out / "sim-00")
        assert manifest.status == "incomplete"
        assert manifest.extra["completed_blocks"] == ([] if block == "guessing" else ["guessing"])


def wire_config(tmp_path, endpoint) -> str:
    """A config file for an llm dyad against ``endpoint``, one round."""
    config = {
        "agents": ["llm", "llm"],
        "backend": {"endpoint": endpoint, "api_key_env": "", "template": "plain"},
        "run": {"rounds": 1, "mantel_permutations": 60},
    }
    path = tmp_path / "wire.yaml"
    path.write_text(yaml.safe_dump(config))
    return str(path)


class TestWireRun:
    """An llm dyad through HttpBackend against the keep-alive test stub,
    which completes every prompt with the same word."""

    def test_one_request_per_agent_per_block(self, keepalive_stub_server, tmp_path, monkeypatch):
        endpoint, handler = keepalive_stub_server
        sent = []  # prompts per request, in the order the client sends them
        send = cli.HttpBackend._send

        def noted(backend, request):
            sent.append(len(json.loads(request.body)["prompt"]))
            return send(backend, request)

        monkeypatch.setattr(cli.HttpBackend, "_send", noted)
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", wire_config(tmp_path, endpoint), "--out", str(out)) == EXIT_OK
        records = EventLog.read(out / "sim-00" / "events.jsonl")
        # 2 guessing + 2 labelling + 30 x (speaker + listener) + 2 testing,
        # and the listening and speaking requests sent on each of 11 wrong
        # predictions, whose 4 listening prompts are discarded
        wrong = sum(r["kind"] == "backend_discarded" and r["call"] == "score" for r in records) / 4
        assert (len(handler.seen), wrong) == (66 + 2 * 11, 11)
        # five keep-alive connections per llm agent: its guessing request
        # beside its listening and speaking requests and the two of a wrong
        # prediction
        assert handler.connections == 10
        # both guessing lists go out first, then both labelling lists; the
        # order is the client's, as the stub's threads may read two bodies
        # sent together in either order
        assert len(sent) == len(handler.seen)
        assert sent[:4] == [60, 60, 15, 15]
        assert sent[-2:] == [27, 27]
        for block, kind, tasks, prompts_per_task in (
            ("guessing", "guess", 15, 4), ("labelling", "label", 15, 1), ("testing", "testing", 27, 1)
        ):
            for agent in ("A", "B"):
                own = [r for r in records if r["kind"] in ("backend_call", kind)
                       and r.get("block") == block and r.get("agent") == agent]
                # the batch's backend_call records come before the block's records
                assert [r["kind"] for r in own] == ["backend_call"] * (tasks * prompts_per_task) + [kind] * tasks
                # each backend_call record carries its own task; a choice's share one
                assert [r["task"] for r in own] == [
                    t for t in range(tasks) for _ in range(prompts_per_task)
                ] + list(range(tasks))
        assert run_cli("replay", str(out / "sim-00")) == EXIT_OK

    def test_agents_lists_in_flight_at_once(self, keepalive_stub_server, tmp_path):
        # the first four requests, the two agents' guessing lists and then
        # their labelling lists, each wait for the others at the stub;
        # sent one after the other, the first would be answered only after
        # the barrier's timeout, alone
        endpoint, handler = keepalive_stub_server
        handler.rendezvous = threading.Barrier(4, timeout=2)
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", wire_config(tmp_path, endpoint), "--out", str(out)) == EXIT_OK
        for size in (60, 15):  # guessing, labelling
            # spans are kept in the order answered, each with its body
            spans = [span for body, span in handler.spans if len(body["prompt"]) == size]
            assert len(spans) == 2
            (a_start, a_end), (b_start, b_end) = spans
            assert max(a_start, b_start) < min(a_end, b_end)

    def test_manifest_names_the_service_and_no_credential(self, keepalive_stub_server, tmp_path, monkeypatch):
        # the settings that shape replies, from the config file; the key, the
        # name of its variable, and a credential in the endpoint stay out
        endpoint, _ = keepalive_stub_server
        monkeypatch.setenv("REFGAME_TEST_KEY", "sk-secret-value")
        config = yaml.safe_load(Path(wire_config(tmp_path, endpoint)).read_text())
        host = endpoint.removeprefix("http://")
        config["backend"].update(
            endpoint=f"http://user:pass-word@{host}/api?key=query-secret", api_key_env="REFGAME_TEST_KEY",
            model="llama-3-70b-instruct", temperature=0.0, max_output_tokens=12,
        )
        path = tmp_path / "named.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", str(path), "--out", str(out)) == EXIT_OK
        assert run_cli("chain", "--config", str(path), "--generations", "1", "--out", str(tmp_path / "chain")) == EXIT_OK
        service = {
            "model": "llama-3-70b-instruct", "endpoint": f"http://{host}/api", "template": "plain",
            "temperature": 0.0, "max_output_tokens": 12, "context_budget_tokens": 8192,
        }
        for run_dir in (out / "sim-00", tmp_path / "chain" / "chain-00" / "gen00"):
            assert RunManifest.load(run_dir).extra["service"] == service
            text = (run_dir / "manifest.json").read_text()
            for secret in ("sk-secret-value", "REFGAME_TEST_KEY", "pass-word", "query-secret"):
                assert secret not in text

    def test_null_completion_text_is_a_failed_production(self, keepalive_stub_server, tmp_path):
        # a service that completes with "text": null answers no production;
        # scoring still works, so guessing and testing run as before
        endpoint, handler = keepalive_stub_server
        handler.behaviour = "null_text"
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", wire_config(tmp_path, endpoint), "--out", str(out)) == EXIT_OK
        records = EventLog.read(out / "sim-00" / "events.jsonl")
        labels = [r for r in records if r["kind"] == "label"]
        interactions = [r for r in records if r["kind"] == "interaction"]
        assert len(labels) == 30 and all(r["failed"] for r in labels)
        assert len(interactions) == 30
        assert {r["failure_mode"] for r in interactions} == {"failed-production"}
        assert run_cli("replay", str(out / "sim-00")) == EXIT_OK

    def test_malformed_echo_reply_is_a_failed_choice(self, keepalive_stub_server, tmp_path):
        # a log-probability that is no number fails every choice; the
        # productions still work, so the run completes and replays
        endpoint, handler = keepalive_stub_server
        handler.echo_logprobs = {"token_logprobs": [None, "x"], "text_offset": [0, 10**6]}
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", wire_config(tmp_path, endpoint), "--out", str(out)) == EXIT_OK
        records = EventLog.read(out / "sim-00" / "events.jsonl")
        guesses = [r for r in records if r["kind"] == "guess"]
        interactions = [r for r in records if r["kind"] == "interaction"]
        assert len(guesses) == 30 and {r["failure_mode"] for r in guesses} == {"failed-choice"}
        assert {r["failure_mode"] for r in interactions} == {"failed-choice"}
        assert run_cli("replay", str(out / "sim-00")) == EXIT_OK

    @pytest.mark.parametrize("refusal", ["not-found", "over-budget"])
    def test_every_failed_read_leaves_a_record(self, keepalive_stub_server, tmp_path, refusal):
        # a service that answers every request with 404 refuses the run: its
        # first read aborts it, and only the requests already in flight went
        # out. A budget that no prompt fits sends nothing: every task fails,
        # the run completes and replays. Each read that failed says why
        endpoint, handler = keepalive_stub_server
        config = yaml.safe_load(Path(wire_config(tmp_path, endpoint)).read_text())
        config["run"]["max_agent_retries"] = 1
        if refusal == "not-found":
            handler.behaviour = "not_found"
        else:
            config["backend"]["context_budget_tokens"] = 100
        path = tmp_path / "refused.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "runs"
        code = run_cli("simulate", "--config", str(path), "--out", str(out))
        records = EventLog.read(out / "sim-00" / "events.jsonl")
        assert not any(r["kind"] in ("backend_call", "backend_discarded") for r in records)
        errors = [r["error"] for r in records if r["kind"] == "backend_failed"]
        if refusal == "not-found":
            assert code == EXIT_RUNTIME and records[-1]["kind"] == "run_aborted"
            # both guessing lists, then both labelling lists, sent before the first read
            assert len(handler.seen) == 4
            assert errors == ["ServiceRefused: service returned 404: no such model"]
            assert RunManifest.load(out / "sim-00").status == "incomplete"
            assert run_cli("replay", str(out / "sim-00")) == EXIT_VALIDATION
            return
        assert code == EXIT_OK
        # per agent, a list and then each task alone in guessing (15),
        # labelling (15) and testing (27), and 15 productions in communication
        assert len(errors) == 2 * (3 + 15 + 15 + 27 + 15)
        assert handler.seen == []
        refused = r"ContextOverflow: estimated \d+ tokens exceeds budget 100"
        assert all(re.fullmatch(refused, error) for error in errors)
        assert run_cli("replay", str(out / "sim-00")) == EXIT_OK

    def test_retried_list_request_has_no_task(self, keepalive_stub_server, tmp_path, waits):
        # agent A's guessing list gets one 503: its backend_retry belongs to
        # no single task of the list. The stub picks that request by its
        # first prompt, read from a clean run of the same seed, since both
        # agents' guessing lists are in flight at once
        endpoint, handler = keepalive_stub_server
        config = wire_config(tmp_path, endpoint)
        assert run_cli("simulate", "--config", config, "--out", str(tmp_path / "clean")) == EXIT_OK
        first = next(
            r for r in EventLog.read(tmp_path / "clean" / "sim-00" / "events.jsonl")
            if r["kind"] == "backend_call" and (r["block"], r["agent"]) == ("guessing", "A")
        )
        handler.fail_once = {first["prompt"] + first["continuation"]}
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", config, "--out", str(out)) == EXIT_OK
        assert handler.fail_once == set()
        records = EventLog.read(out / "sim-00" / "events.jsonl")
        retries = [r for r in records if r["kind"] == "backend_retry"]
        assert [(r["block"], r["agent"], r["task"]) for r in retries] == [("guessing", "A", None)]
        assert waits == [0.5]

    def test_collapsed_language_still_aborts(self, keepalive_stub_server, tmp_path, capsys):
        # every agent learns the stub's one word, so generation 1 trains on a
        # one-word language and its guessing block cannot draw distractors
        # (the collapse crash, ROADMAP item 1); the batch is built before any
        # request is sent, so the abort comes before any guess record
        endpoint, handler = keepalive_stub_server
        out = tmp_path / "chains"
        argv = ["chain", "--config", wire_config(tmp_path, endpoint), "--generations", "2"]
        assert run_cli(*argv, "--out", str(out)) == EXIT_RUNTIME
        message = "Sample larger than population or is negative"
        assert f"run aborted: {message}" in capsys.readouterr().err
        gen01 = out / "chain-00" / "gen01"
        manifest = RunManifest.load(gen01)
        assert manifest.status == "incomplete"
        assert (manifest.extra["error"], manifest.extra["completed_blocks"]) == (message, [])
        records = EventLog.read(gen01 / "events.jsonl")
        assert [r["kind"] for r in records] == ["run_start", "run_aborted"]
        assert records[-1]["error"] == message
        assert (records[-1]["block"], records[-1]["task"]) == ("guessing", 0)  # the failed draw
        assert RunManifest.load(out / "chain-00" / "gen00").status == "complete"


def seeded_chain_argv(tmp_path):
    """A 3-generation chain command seeded from a fresh simulation."""
    sims = tmp_path / "sims"
    run_cli(
        "simulate", "--seed", "3", "--agents", "oracle:lookup,oracle:lookup",
        "--out", str(sims), "--permutations", "60",
    )
    return [
        "chain", "--chains", "1", "--generations", "3", "--seed", "7",
        "--agents", "oracle:lookup,oracle:lookup", "--seed-from", str(sims / "sim-00"),
        "--permutations", "60",
    ]


def fresh_python(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter that imports this refgame."""
    src = str(Path(refgame.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # no scipy module at all: the package depends on numpy and PyYAML only,
    # and the paired t-test's p-value is in closed form
    code = (
        "import sys, refgame.cli, refgame.metrics; refgame.metrics.paired_t_test([1, 2, 4], [0, 1, 2]);"
        " print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    assert fresh_python(code) == "[]"


def test_cli_import_leaves_requests_unloaded():
    # the wire client is http.client; no command loads an HTTP library
    code = "import sys, refgame.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    assert fresh_python(code) == "[]"


def test_cli_import_leaves_http_client_unloaded():
    # only HttpBackend opens a connection, and it imports http.client itself
    code = "import sys, refgame.cli; print(sorted({'http.client', 'ssl'} & set(sys.modules)))"
    assert fresh_python(code) == "[]"


def test_package_import_loads_no_submodule():
    # the package re-exports nothing: importing it imports no module of it
    code = "import sys, refgame; print(sorted(m for m in sys.modules if m.startswith('refgame.')))"
    assert fresh_python(code) == "[]"
