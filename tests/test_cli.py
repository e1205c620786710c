import gc
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
import yaml

import refgame
from helpers import BreakingOracle
from refgame import cli
from refgame.agents import LookupOracle
from refgame.backend import EventLog
from refgame.cli import EXIT_MISMATCH, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from refgame.domain import Vocabulary, enumerate_stimuli
from refgame.engine import MetricRow
from refgame.persistence import ChainRow, RunManifest, file_digest, read_rows
from refgame.prompts import PromptTask
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

    @pytest.mark.parametrize("command, run_dir", [("simulate", "sim-00"), ("chain", "chain-00")])
    def test_llm_without_endpoint_writes_nothing(self, tmp_path, capsys, command, run_dir):
        out = tmp_path / "runs"
        assert run_cli(command, "--agents", "llm,llm", "--out", str(out)) == EXIT_VALIDATION
        assert "llm agents need backend.endpoint" in capsys.readouterr().err
        assert not (out / run_dir).exists()

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
        ],
    )
    def test_bad_backend_setting_rejected_before_writing(self, tmp_path, capsys, backend, message):
        # an endpoint with nothing listening: a setting that got past
        # validation would fail only at the first request
        config = {
            "agents": ["llm", "llm"],
            "backend": {"endpoint": "http://127.0.0.1:9", "api_key_env": "", **backend},
        }
        path = tmp_path / "backend.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "runs"
        code = run_cli("simulate", "--config", str(path), "--out", str(out))
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"backend: {message}" in err
        assert not (out / "sim-00").exists()

    def test_invalid_yaml_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("mode: simulate\nagents: [oracle:lookup\n")
        code = run_cli("simulate", "--config", str(path))
        assert code == EXIT_VALIDATION
        assert "line" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "flag, message",
        [("--rounds", "rounds must be >= 1"), ("--permutations", "mantel_permutations must be >= 1")],
    )
    def test_invalid_flag_value_rejected_before_writing(self, tmp_path, capsys, flag, message):
        out = tmp_path / "runs"
        assert run_cli("simulate", flag, "0", "--out", str(out)) == EXIT_VALIDATION
        assert f"error: run: {message}" in capsys.readouterr().err
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
        assert "error: unknown agent spec 'oracle:bogus'" in capsys.readouterr().err
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

    def test_train_and_test_gives_gen_score(self, capsys):
        code = run_cli(
            "metrics", GOLDEN_TRAIN_PATH, GOLDEN_TEST_PATH, "--permutations", "500"
        )
        assert code == EXIT_OK
        assert "gen_score[cross]:" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_permutations_rejected(self, capsys, count):
        assert run_cli("metrics", GOLDEN_TRAIN_PATH, "--permutations", count) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"error: permutations must be >= 1, got {count}" in captured.err
        assert captured.out == ""

    def test_single_entry_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "one.vocab"
        path.write_text("{'shape':1,'colour':'blue','amount':1,'word':'gali'}\n")
        assert run_cli("metrics", str(path)) == EXIT_VALIDATION

    def test_parse_error_identifies_line(self, tmp_path, capsys):
        path = tmp_path / "bad.vocab"
        path.write_text(
            "{'shape':1,'colour':'blue','amount':1,'word':'gali'}\nnot an entry\n"
        )
        assert run_cli("metrics", str(path)) == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err


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

    def test_malformed_metrics_cell_names_file_row_and_column(self, tmp_path, capsys):
        run_dir = self._simulate(tmp_path)
        csv_path = run_dir / "metrics.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[lines[0].split(",").index("ngram_diversity")] = "n/a"
        lines[3] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        manifest = RunManifest.load(run_dir)
        manifest.files["metrics.csv"] = file_digest(csv_path)
        manifest.save(run_dir)
        assert run_cli("replay", str(run_dir)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path}: row 3, column ngram_diversity:")


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

        def failing_in_generation_one(config, event_log):
            built.append(event_log)
            agents = build_agents(config, event_log)
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
                    return []  # no signal
                return super().produce_signals([item], task, rng)

        build_agents = cli._build_agents
        built = []

        def failing_in_generation_one(config, event_log):
            built.append(event_log)
            agents = build_agents(config, event_log)
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

    @pytest.mark.parametrize(
        "chain, message",
        [
            ({"generation_overrides": {0: {"roundz": 2}}}, "['roundz'] for generation 0"),
            ({"generation_overrides": {0: 5}}, "generation 0 must be a mapping"),
            ({"donor_permutations": 0}, "donor_permutations must be >= 1"),
            ({"generation_overrides": {1: {"rounds": 0}}}, "generation_overrides.1: rounds must be >= 1"),
            ({"generation_overrides": {1: {"rounds": "2"}}}, "'rounds' in section 'chain.generation_overrides.1'"),
            ({"generation_overrides": {"x": {"rounds": 2}}}, "generation 'x' of generation_overrides is not a number"),
            (
                {"generation_overrides": {8: {"rounds": 2}}},
                "generation 8 of generation_overrides is not run: the chain runs generations 0 to 7",
            ),
            ({"generation_overrides": {"3": {"rounds": 2}}}, "generation '3' of generation_overrides is not a number"),
            (
                {"generation_overrides": {1: {"max_agent_retries": 0}}},
                "generation_overrides.1: max_agent_retries must be >= 1",
            ),
        ],
    )
    def test_bad_chain_setting_rejected_before_writing(self, tmp_path, capsys, chain, message):
        path = tmp_path / "chain.yaml"
        path.write_text(yaml.safe_dump({"chain": chain}))
        out = tmp_path / "chains"
        code = run_cli("chain", "--config", str(path), "--out", str(out), "--permutations", "60")
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (out / "chain-00").exists()

    @pytest.mark.parametrize(
        "generations, span", [("2", "generations 1 to 1"), ("1", "no generation")], ids=["two", "one"]
    )
    def test_override_of_imported_generation_rejected(self, tmp_path, capsys, generations, span):
        # generation 0 of a seeded chain is imported, not run
        sims = tmp_path / "sims"
        run_cli("simulate", "--seed", "3", "--out", str(sims), "--permutations", "60")
        path = tmp_path / "chain.yaml"
        path.write_text(yaml.safe_dump({"chain": {"generation_overrides": {0: {"rounds": 2}}}}))
        out = tmp_path / "chains"
        code = run_cli(
            "chain", "--config", str(path), "--generations", generations, "--seed-from", str(sims / "sim-00"),
            "--out", str(out), "--permutations", "60",
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: chain: generation 0 of generation_overrides is not run: ")
        assert f"the chain runs {span}" in err
        assert not (out / "chain-00").exists()

    def test_override_range_checked_after_flags(self, tmp_path):
        # the file alone runs 2 generations; --generations 3 brings its
        # override for generation 2 into range
        chain = {"generations": 2, "generation_overrides": {2: {"rounds": 2}}}
        path = tmp_path / "chain.yaml"
        path.write_text(yaml.safe_dump({"chain": chain}))
        out = tmp_path / "chains"
        code = run_cli(
            "chain", "--config", str(path), "--generations", "3", "--chains", "1",
            "--out", str(out), "--permutations", "60",
        )
        assert code == EXIT_OK
        rounds = [RunManifest.load(out / "chain-00" / f"gen{g:02d}").config["rounds"] for g in range(3)]
        assert rounds == [4, 4, 2]

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
                    return []  # no signal
                return super().produce_signals([item], task, rng)

        build_agents = cli._build_agents
        def failing_a(config, event_log):
            return FailingLast("A"), build_agents(config, event_log)[1]

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
        "changed", [["--seed", "2"], ["--permutations", "100"]], ids=["seed", "permutations"]
    )
    def test_resume_with_another_configuration_refused(self, tmp_path, capsys, changed):
        shared = ["chain", "--chains", "1", "--seed", "1", "--permutations", "60"]
        out = tmp_path / "chains"
        assert run_cli(*shared, "--generations", "2", "--out", str(out)) == EXIT_OK
        stamps = {path: path.stat().st_mtime_ns for path in out.rglob("*") if path.is_file()}
        capsys.readouterr()
        code = run_cli(*shared, *changed, "--generations", "3", "--out", str(out))
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gen00" in err and "another configuration" in err
        assert {path: path.stat().st_mtime_ns for path in out.rglob("*") if path.is_file()} == stamps
        assert not (out / "chain-00" / "gen02").exists()


class TestEventLogLifecycle:
    """Each events.jsonl a command opens is closed again, whether its run
    completes or aborts, and its manifest digests the file on disk."""

    @pytest.mark.parametrize(
        "argv, code, runs",
        [
            (("simulate", "--count", "2"), EXIT_OK, 2),
            (("chain", "--chains", "1", "--generations", "2"), EXIT_OK, 2),
            # lookup oracles collapse the language by gen06, which aborts
            (("chain", "--seed", "4", "--chains", "1", "--generations", "7"), EXIT_RUNTIME, 7),
            # against the keep-alive stub: one connection per llm agent
            (("simulate", "--config", "wire"), EXIT_OK, 1),
        ],
        ids=["simulate", "chain", "aborted-chain", "llm-dyad"],
    )
    def test_every_handle_closed(self, tmp_path, monkeypatch, request, argv, code, runs):
        unraisable = []  # a ResourceWarning raised in a finalizer lands here
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        connections = []

        class Recorded(cli.HttpBackend):
            def __init__(self, *args):
                super().__init__(*args)
                connections.append(self._connection)

        monkeypatch.setattr(cli, "HttpBackend", Recorded)
        if "wire" in argv:
            endpoint, _ = request.getfixturevalue("keepalive_stub_server")
            argv = [wire_config(tmp_path, endpoint) if arg == "wire" else arg for arg in argv]
        out = tmp_path / "runs"
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert run_cli(*argv, "--permutations", "60", "--out", str(out)) == code
            gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []
        assert len(connections) == (2 if "--config" in argv else 0)
        assert all(connection.sock is None for connection in connections)  # closed
        run_dirs = [path.parent for path in sorted(out.rglob("manifest.json"))]
        assert len(run_dirs) == runs
        for run_dir in run_dirs:
            digest = RunManifest.load(run_dir).files["events.jsonl"]
            assert digest == file_digest(run_dir / "events.jsonl")


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

        def build(config, event_log):
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

    def test_one_request_per_agent_per_block(self, keepalive_stub_server, tmp_path):
        endpoint, handler = keepalive_stub_server
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", wire_config(tmp_path, endpoint), "--out", str(out)) == EXIT_OK
        # 2 guessing + 2 labelling + 30 x (speaker + listener) + 2 testing
        assert len(handler.seen) == 66
        assert handler.connections == 2  # one keep-alive connection per llm agent
        assert [len(body["prompt"]) for body in handler.seen[:4]] == [60, 60, 15, 15]
        assert [len(body["prompt"]) for body in handler.seen[-2:]] == [27, 27]
        records = EventLog.read(out / "sim-00" / "events.jsonl")
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
        # the first two requests, the two agents' guessing lists, each wait
        # for the other at the stub; sent one after the other, the first
        # would be answered only after the barrier's timeout, alone
        endpoint, handler = keepalive_stub_server
        handler.rendezvous = threading.Barrier(2, timeout=2)
        out = tmp_path / "runs"
        assert run_cli("simulate", "--config", wire_config(tmp_path, endpoint), "--out", str(out)) == EXIT_OK
        guessing = [span for body, span in zip(handler.seen, handler.spans) if len(body["prompt"]) == 60]
        assert len(guessing) == 2
        (a_start, a_end), (b_start, b_end) = guessing
        assert max(a_start, b_start) < min(a_end, b_end)

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
    # scipy.stats is most of the import time of refgame.cli; only the
    # paired t-test needs it, and it imports it itself
    loaded = fresh_python("import sys, refgame.cli; print('scipy.stats' in sys.modules)")
    assert loaded == "False"


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
