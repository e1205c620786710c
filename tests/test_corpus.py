"""Run directories written by older commits still replay and resume.

``tests/data/runs/`` holds directories written by earlier versions of
refgame; its README says how each was made. Every complete one must replay
with exit 0, and re-running a finished chain's command over a copy must
leave every file of it as it was.
"""

import shutil
from pathlib import Path

import pytest

from refgame.cli import EXIT_OK, main
from refgame.persistence import RunManifest

CORPUS = Path(__file__).resolve().parent / "data" / "runs"
COMPLETE = sorted(
    path.parent for path in CORPUS.rglob("manifest.json")
    if RunManifest.load(path.parent).status == "complete"
)
# the command that wrote aa4365e-chain, less its --out
CHAIN = ("chain", "--seed", "0", "--chains", "1", "--generations", "2", "--permutations", "60")


def test_corpus_is_present():
    # one simulation and a chain of two generations
    assert len(COMPLETE) == 3


@pytest.mark.parametrize("run_dir", COMPLETE, ids=[p.relative_to(CORPUS).as_posix() for p in COMPLETE])
def test_complete_run_replays(run_dir, capsys):
    assert main(["replay", str(run_dir)]) == EXIT_OK
    assert "replay OK" in capsys.readouterr().out


def test_finished_chain_resumes_unchanged(tmp_path):
    out = tmp_path / "chain"
    shutil.copytree(CORPUS / "aa4365e-chain", out)
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert main([*CHAIN, "--out", str(out)]) == EXIT_OK
    after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert sorted(after) == sorted(before)
    assert [name for name in before if after[name] != before[name]] == []
