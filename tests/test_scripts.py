import importlib.util
import sys
from pathlib import Path

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
