import importlib.util
import sys
from pathlib import Path

from refgame.persistence import ChainRow, write_rows

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_oracle_chains_prints_summary(tmp_path, monkeypatch, capsys):
    script = load_script("run_oracle_chains")
    monkeypatch.setattr(
        sys,
        "argv",
        [
            "run_oracle_chains.py",
            "--chains", "2",
            "--generations", "2",
            "--permutations", "60",
            "--out", str(tmp_path / "chains"),
        ],
    )
    assert script.main() == 0
    out = capsys.readouterr().out
    assert "first vs last generation across 2 chains:" in out
    for column in ("ngram_diversity", "unique_signal_ratio", "topsim_z"):
        assert f"  {column}" in out


def test_run_oracle_chains_reports_a_column_with_an_empty_cell_not_testable(tmp_path, monkeypatch, capsys):
    # a degenerate donor's topsim_z is an empty cell, read as None; the
    # t-test once spun forever on it
    script = load_script("run_oracle_chains")
    out = tmp_path / "chains"
    for chain, values in enumerate(((0.5, None), (1.0, 2.0))):
        (out / f"chain-{chain:02d}").mkdir(parents=True)
        write_rows(out / f"chain-{chain:02d}" / "chain.csv", [
            ChainRow(chain, generation, "A", 0.1, 0.5, topsim_z, 0.01,
                     ngram_diversity=0.5 + generation * (chain + 1),
                     unique_signal_ratio=0.4 - generation / (chain + 5))
            for generation, topsim_z in enumerate(values)
        ])
    monkeypatch.setattr(script, "cli_main", lambda argv: 0)
    monkeypatch.setattr(
        sys, "argv", ["run_oracle_chains.py", "--chains", "2", "--generations", "2", "--out", str(out)]
    )
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[-3:]] == ["ngram_diversity", "unique_signal_ratio", "topsim_z"]
    assert "not testable" not in lines[-2]
    assert lines[-1].endswith("not testable: paired_t_test needs finite values")
