import json
import shutil
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import YAML_LOADERS, wire_service
from refgame import engine
from refgame.agents import CompositionalOracle, LookupOracle, Reply
from refgame.backend import EventLog
from refgame.cli import EXIT_OK, main
from refgame.config import ConfigError, ExperimentConfig, config_from_dict, load_config, validate_config
from refgame.domain import Vocabulary, enumerate_stimuli
from refgame.engine import MetricRow, RunConfig, compute_metric_rows, run_simulation
from refgame.persistence import (
    ChainRow,
    DigestMismatch,
    PersistenceError,
    RunManifest,
    SchemaVersionError,
    file_digest,
    load_run_for_replay,
    read_rows,
    replay_run,
    save_simulation,
    write_rows,
)
from refgame.prompts import PromptTask


def persisted_run(tmp_path, seed=13, agents=None):
    run_dir = tmp_path / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    if agents is None:
        agents = (LookupOracle("A"), LookupOracle("B"))
    config = RunConfig(master_seed=seed, mantel_permutations=150)
    with EventLog(run_dir / "events.jsonl") as event_log:
        result = run_simulation(config, agents, event_log=event_log)
    save_simulation(result, run_dir)
    return run_dir, result


class TestSaveAndManifest:
    def test_layout(self, tmp_path):
        run_dir, result = persisted_run(tmp_path)
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "events.jsonl").exists()
        assert (run_dir / "metrics.csv").exists()
        for name in ("initial", "learned_A", "learned_B", "round1_A", "round4_B", "testing_A"):
            assert (run_dir / "vocab" / f"{name}.vocab").exists()

    def test_digests_verify(self, tmp_path):
        run_dir, _ = persisted_run(tmp_path)
        manifest = RunManifest.load(run_dir)
        manifest.verify_digests(run_dir)  # should not raise
        assert "events.jsonl" in manifest.files
        assert manifest.status == "complete"

    def test_tampered_file_detected(self, tmp_path):
        run_dir, _ = persisted_run(tmp_path)
        events = run_dir / "events.jsonl"
        events.write_text(events.read_text() + '{"kind":"forged"}\n')
        with pytest.raises(DigestMismatch):
            RunManifest.load(run_dir).verify_digests(run_dir)

    def test_missing_file_detected(self, tmp_path):
        run_dir, _ = persisted_run(tmp_path)
        (run_dir / "metrics.csv").unlink()
        with pytest.raises(DigestMismatch, match="missing"):
            RunManifest.load(run_dir).verify_digests(run_dir)

    def test_files_an_earlier_run_left_are_not_digested(self, tmp_path):
        # a run of two rounds saved where one of four was: the manifest
        # lists what this run wrote, and the earlier rounds 3 and 4 stay on disk
        run_dir = tmp_path / "out"
        for rounds in ("4", "2"):
            argv = ["simulate", "--seed", "1", "--rounds", rounds, "--permutations", "20", "--out", str(run_dir)]
            assert main(argv) == EXIT_OK
        sim = run_dir / "sim-00"
        files = RunManifest.load(sim).files
        assert sorted(files) == ["events.jsonl", "metrics.csv"] + [
            f"vocab/{name}.vocab" for name in (
                "initial", "learned_A", "learned_B", "round1_A", "round1_B", "round2_A", "round2_B",
                "testing_A", "testing_B",
            )
        ]
        assert (sim / "vocab" / "round4_B.vocab").exists()
        assert main(["replay", str(sim)]) == EXIT_OK

    def test_round_snapshots_carry_success_flags(self, tmp_path):
        run_dir, _ = persisted_run(tmp_path)
        text = (run_dir / "vocab" / "round1_A.vocab").read_text()
        assert "'communicativeSuccess':" in text
        vocab = Vocabulary.load(run_dir / "vocab" / "round1_A.vocab")
        assert vocab.track_success


class TestMetricsCsv:
    def test_schema_version_heads_every_row(self, tmp_path):
        run_dir, _ = persisted_run(tmp_path)
        header, *lines = (run_dir / "metrics.csv").read_text().splitlines()
        assert header == ",".join(["schema_version"] + [f.name for f in fields(MetricRow)])
        assert lines and all(line.startswith("1,") for line in lines)

    def test_unknown_major_version_rejected(self, tmp_path):
        path = tmp_path / "future.csv"
        columns = ["schema_version"] + [f.name for f in fields(MetricRow)]
        path.write_text(",".join(columns) + "\n2" + "," * (len(columns) - 1) + "\n")
        with pytest.raises(SchemaVersionError):
            read_rows(path, MetricRow)

    def test_read_back_rows_equal_the_run_rows(self, tmp_path):
        # A's constant testing language gives a degenerate row whose empty
        # TopSim and gen_score cells read back as None
        class ConstantSpeaker(LookupOracle):
            def produce_signal(self, stimulus, task, rng):
                if task is PromptTask.SPEAKING:
                    return "gigi"
                return super().produce_signal(stimulus, task, rng)

        run_dir, result = persisted_run(tmp_path, agents=(ConstantSpeaker("A"), LookupOracle("B")))
        rows = read_rows(run_dir / "metrics.csv", MetricRow)
        assert rows == result.metric_rows
        testing_a = next(row for row in rows if row.block == "testing" and row.agent == "A")
        assert testing_a.degenerate and testing_a.topsim_z is None and testing_a.gen_score is None

    def test_gen_score_pairs_recorded(self, tmp_path):
        run_dir, _ = persisted_run(tmp_path)
        rows = read_rows(run_dir / "metrics.csv", MetricRow)
        testing = [r for r in rows if r.block == "testing"]
        assert all(r.gen_score_pairs == "cross" for r in testing if r.gen_score is not None)


class TestReplay:
    def test_loaded_result_recomputes_stored_rows(self, tmp_path):
        run_dir, result = persisted_run(tmp_path)
        manifest, loaded = load_run_for_replay(run_dir)
        assert manifest.status == "complete"
        assert loaded.agent_ids == result.agent_ids
        assert loaded.metric_rows == result.metric_rows
        recomputed = compute_metric_rows(loaded)
        assert recomputed == read_rows(run_dir / "metrics.csv", MetricRow)
        assert recomputed == result.metric_rows

    def test_untouched_run_replays_ok(self, tmp_path):
        run_dir, _ = persisted_run(tmp_path)
        report = replay_run(run_dir)
        assert report.ok
        assert report.rows_checked == 15

    def test_compositional_run_replays_ok(self, tmp_path):
        run_dir, _ = persisted_run(
            tmp_path, agents=(CompositionalOracle("A"), CompositionalOracle("B"))
        )
        assert replay_run(run_dir).ok

    @pytest.mark.parametrize("kept", [0, 2])
    def test_failed_testing_productions_give_degenerate_row(self, tmp_path, kept):
        # fewer than 3 testing productions leave nothing to measure: the run
        # still completes, saves and replays, with an empty degenerate row
        kept_stimuli = set(enumerate_stimuli()[:kept])

        class FailingSpeaker(LookupOracle):
            def produce_signals(self, items, task, rng):
                item = next(iter(items))
                if task is PromptTask.SPEAKING and item[1] not in kept_stimuli:
                    return Reply.held([])  # no signal
                return super().produce_signals([item], task, rng)

        run_dir, _ = persisted_run(tmp_path, agents=(FailingSpeaker("A"), LookupOracle("B")))
        rows = read_rows(run_dir / "metrics.csv", MetricRow)
        testing = {row.agent: row for row in rows if row.block == "testing"}
        assert testing["A"].degenerate
        for column in ("topsim_z", "ngram_diversity", "unique_signal_ratio", "gen_score"):
            assert getattr(testing["A"], column) is None
        assert not testing["B"].degenerate
        assert replay_run(run_dir).ok

    def test_edited_event_log_fails_digest(self, tmp_path):
        run_dir, _ = persisted_run(tmp_path)
        events = run_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        record = json.loads(lines[5])
        record["success"] = True
        lines[5] = json.dumps(record)
        events.write_text("\n".join(lines) + "\n")
        with pytest.raises(DigestMismatch):
            replay_run(run_dir)

    def test_metric_mismatch_names_block_and_round(self, tmp_path):
        run_dir, _ = persisted_run(tmp_path)
        csv_path = run_dir / "metrics.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        z_index = header.index("topsim_z")
        block_index = header.index("block")
        target_row = next(
            i for i, line in enumerate(lines[1:], start=1)
            if line.split(",")[block_index] == "communication" and line.split(",")[z_index]
        )
        cells = lines[target_row].split(",")
        cells[z_index] = "99.0"
        lines[target_row] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        # re-bless the digest so only the metric comparison can fail
        manifest = RunManifest.load(run_dir)
        manifest.files["metrics.csv"] = file_digest(csv_path)
        manifest.save(run_dir)

        report = replay_run(run_dir)
        assert not report.ok
        assert any(
            m.block == "communication" and m.column == "topsim_z" and m.stored == "99.0"
            for m in report.mismatches
        )


CORPUS = Path(__file__).resolve().parent / "data" / "runs"
CORPUS_RUNS = sorted(
    path.parent for path in CORPUS.rglob("manifest.json")
    if RunManifest.load(path.parent).status == "complete"
)


@pytest.fixture(scope="module")
def wire_run(tmp_path_factory) -> Path:
    """A one-round llm dyad through HttpBackend: most of its events.jsonl
    lines are backend records, which replay does not decode."""
    root = tmp_path_factory.mktemp("wire")
    with wire_service() as endpoint:
        config = root / "wire.yaml"
        config.write_text(yaml.safe_dump({
            "agents": ["llm", "llm"],
            "backend": {"endpoint": endpoint, "api_key_env": "", "max_retries": 1, "backoff_base": 0.0},
            "run": {"rounds": 1},
        }))
        argv = ["simulate", "--seed", "3", "--permutations", "60", "--config", str(config), "--out", str(root / "out")]
        assert main(argv) == EXIT_OK
    return root / "out" / "sim-00"


def assert_records_of_full_parse(run_dir: Path) -> None:
    """load_run_for_replay builds the block records that decoding every
    line of events.jsonl gives."""
    _, loaded = load_run_for_replay(run_dir)
    events = EventLog.read(run_dir / "events.jsonl")

    def records(record_type, agent_id=None) -> list:
        return [
            record_type.from_event(e) for e in events
            if e["kind"] == record_type.KIND and (agent_id is None or e["agent"] == agent_id)
        ]

    for agent_id in loaded.agent_ids:
        assert loaded.guessing[agent_id].records == records(engine.GuessingRecord, agent_id) != []
        assert loaded.labelling[agent_id].records == records(engine.LabellingRecord, agent_id) != []
        assert loaded.testing[agent_id].records == records(engine.TestingRecord, agent_id) != []
    assert loaded.communication.records == records(engine.InteractionRecord) != []


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory) -> Path:
    """A finished lookup-oracle simulation of two rounds."""
    run_dir = tmp_path_factory.mktemp("oracle") / "run"
    run_dir.mkdir()
    config = RunConfig(master_seed=8, rounds=2, mantel_permutations=10)
    with EventLog(run_dir / "events.jsonl") as event_log:
        result = run_simulation(config, (LookupOracle("A"), LookupOracle("B")), event_log=event_log)
    save_simulation(result, run_dir)
    return run_dir


BLOCK_KINDS = ("guess", "label", "interaction", "testing")


class TestBlockRecordRead:
    @pytest.mark.parametrize("run_dir", CORPUS_RUNS, ids=[p.relative_to(CORPUS).as_posix() for p in CORPUS_RUNS])
    def test_corpus_runs(self, run_dir):
        assert_records_of_full_parse(run_dir)

    @settings(max_examples=30)
    @given(st.data())
    def test_any_block_record_missing_repeated_or_re_keyed_is_refused(self, oracle_run, data):
        # one block record, of any kind, deleted, written twice or moved to
        # a task, block or round the run does not write, under a re-digested
        # manifest: replay refuses it, naming the record
        lines = (oracle_run / "events.jsonl").read_text().splitlines(keepends=True)
        blocks = [i for i, line in enumerate(lines) if json.loads(line)["kind"] in BLOCK_KINDS]
        index = data.draw(st.sampled_from(blocks))
        record = json.loads(lines[index])
        edit = data.draw(st.sampled_from(["deleted", "repeated", "task", "float task", "block", "round"]))
        if edit == "deleted":
            del lines[index]
        elif edit == "repeated":
            lines.insert(index, lines[index])
        else:
            # a float task equals the int it was, but is not what a run writes
            changed = {"task": 99, "float task": float(record["task"]), "block": "elsewhere", "round": 3}[edit]
            record[edit.split()[-1]] = changed
            lines[index] = json.dumps(record) + "\n"
        with tempfile.TemporaryDirectory() as scratch:
            run_dir = Path(scratch) / "run"
            shutil.copytree(oracle_run, run_dir)
            (run_dir / "events.jsonl").write_text("".join(lines))
            manifest = RunManifest.load(run_dir)
            manifest.files["events.jsonl"] = file_digest(run_dir / "events.jsonl")
            manifest.save(run_dir)
            # an interaction's round and task are its own fields, checked first
            refusal = {"round": "has 'round': 3", "float task": "has 'task': .*, not of type int"}.get(edit)
            if refusal is None or record["kind"] != "interaction":
                refusal = f"(no|a second|an unexpected) '{record['kind']}' record of 'block': "
            with pytest.raises(PersistenceError, match=refusal):
                load_run_for_replay(run_dir)

    def test_wire_run(self, wire_run):
        kinds = {e["kind"] for e in EventLog.read(wire_run / "events.jsonl")}
        assert "backend_call" in kinds
        assert_records_of_full_parse(wire_run)

    def test_kinds_keep_only_those_records(self, wire_run):
        events = EventLog.read(wire_run / "events.jsonl")
        kept = EventLog.read(wire_run / "events.jsonl", kinds={"guess", "run_end"})
        assert kept == [e for e in events if e["kind"] in ("guess", "run_end")]

    def test_lines_in_another_key_order_replay(self, wire_run, tmp_path, capsys):
        # a line that does not start {"kind": "...", as from another writer,
        # is decoded in full and kept only if its kind is asked for
        run_dir = tmp_path / "reordered"
        shutil.copytree(wire_run, run_dir)
        events = run_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        for kind in ("interaction", "backend_call"):
            index = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
            lines[index] = json.dumps(dict(reversed(json.loads(lines[index]).items())))
            assert not lines[index].startswith('{"kind"')
        events.write_text("\n".join(lines) + "\n")
        manifest = RunManifest.load(run_dir)
        manifest.files["events.jsonl"] = file_digest(events)
        manifest.save(run_dir)

        assert {e["kind"] for e in EventLog.read(events, kinds={"interaction"})} == {"interaction"}
        assert_records_of_full_parse(run_dir)
        assert main(["replay", str(run_dir)]) == EXIT_OK
        assert "replay OK" in capsys.readouterr().out


class TestPartialPersist:
    def _abort(self, tmp_path, earlier: bool = False):
        from refgame.engine import SimulationAborted
        from refgame.persistence import save_simulation
        from refgame.prompts import PromptTask

        class Exploding(LookupOracle):
            def produce_signal(self, stimulus, task, rng):
                if task is PromptTask.SPEAKING:
                    raise RuntimeError("service gone")
                return super().produce_signal(stimulus, task, rng)

        run_dir = tmp_path / "aborted"
        config = RunConfig(master_seed=2, mantel_permutations=20)
        if earlier:  # a complete run saved there first
            persisted_run(tmp_path, seed=2)
            (tmp_path / "run").rename(run_dir)
        run_dir.mkdir(exist_ok=True)
        with EventLog(run_dir / "events.jsonl") as event_log, pytest.raises(SimulationAborted) as info:
            run_simulation(config, (Exploding("A"), LookupOracle("B")), event_log=event_log)
        save_simulation(info.value.partial, run_dir, error=str(info.value))
        return run_dir

    def test_incomplete_manifest_and_snapshots(self, tmp_path):
        run_dir = self._abort(tmp_path)
        manifest = RunManifest.load(run_dir)
        assert manifest.status == "incomplete"
        assert manifest.extra["completed_blocks"] == ["guessing", "labelling"]
        assert manifest.extra["agent_ids"] == ["A", "B"]
        assert "service gone" in manifest.extra["error"]
        manifest.verify_digests(run_dir)
        assert (run_dir / "vocab" / "initial.vocab").exists()
        assert (run_dir / "vocab" / "learned_A.vocab").exists()
        assert not (run_dir / "vocab" / "round1_A.vocab").exists()

    def test_incomplete_manifest_lists_no_file_of_an_earlier_run(self, tmp_path):
        run_dir = self._abort(tmp_path, earlier=True)
        manifest = RunManifest.load(run_dir)
        assert manifest.status == "incomplete"
        assert sorted(manifest.files) == [
            "events.jsonl", "vocab/initial.vocab", "vocab/learned_A.vocab", "vocab/learned_B.vocab"
        ]
        assert (run_dir / "metrics.csv").exists() and (run_dir / "vocab" / "round1_A.vocab").exists()
        manifest.verify_digests(run_dir)

    def test_incomplete_run_refuses_replay(self, tmp_path):
        from refgame.persistence import PersistenceError

        run_dir = self._abort(tmp_path)
        with pytest.raises(PersistenceError, match="incomplete"):
            replay_run(run_dir)


class TestConfigRoundTrip:
    def test_defaults_made_explicit(self, tmp_path):
        data = asdict(ExperimentConfig())
        data["run"].pop("master_seed")  # derived per run, not configured
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(data))
        reloaded = config_from_dict(yaml.safe_load(path.read_text()))
        assert reloaded == ExperimentConfig()

    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.run.rounds == 4
        assert config.run.mantel_permutations == 10_000
        assert config.backend.temperature == 0.0
        assert config.chain.chains == 6
        assert config.chain.generations == 8


CONFIG_FILES = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", CONFIG_FILES, ids=[p.name for p in CONFIG_FILES])
def test_shipped_config_loads(path, monkeypatch):
    for loader in YAML_LOADERS:
        monkeypatch.setattr("refgame.config._SAFE_LOADER", loader)
        config = load_config(path)
        validate_config(config)
        assert len(config.agents) == 2


@pytest.mark.parametrize("data", [{"mode": "simulate"}, {"backend": {"max_inflight": 4}}])
def test_removed_config_keys_rejected(data):
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(data)


class TestChainCsvColumns:
    def test_expected_columns(self, tmp_path):
        row = ChainRow(0, 1, "A", 0.25, 0.5, None, None, 0.75, 1.0)
        write_rows(tmp_path / "chain.csv", [row])
        header, line = (tmp_path / "chain.csv").read_text().splitlines()
        columns = header.split(",")
        assert columns[0] == "schema_version"
        for name in ("generation", "learnability", "perc_com", "topsim_z", "ngram_diversity", "unique_signal_ratio"):
            assert name in columns
        assert line == "1,0,1,A,0.25,0.5,,,0.75,1.0"
        assert read_rows(tmp_path / "chain.csv", ChainRow) == [row]
