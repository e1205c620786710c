"""Run directories written by older commits still replay and resume.

``tests/data/runs/`` holds directories written by earlier versions of
refgame; its README says how each was made. Every complete one must replay
with exit 0, an aborted one is refused with exit 1, and re-running a
finished chain's command over a copy must leave every file of it as it was.
"""

import shutil
from pathlib import Path

import pytest

from refgame.cli import EXIT_OK, EXIT_VALIDATION, main
from refgame.persistence import RunManifest

CORPUS = Path(__file__).resolve().parent / "data" / "runs"
COMPLETE = sorted(
    path.parent for path in CORPUS.rglob("manifest.json")
    if RunManifest.load(path.parent).status == "complete"
)
# the command that wrote aa4365e-chain, less its --out
CHAIN = ("chain", "--seed", "0", "--chains", "1", "--generations", "2", "--permutations", "60")


def test_corpus_is_present():
    # an oracle simulation, a chain of two generations, two wire simulations,
    # one against a service that fails some requests, and the one generation
    # a seeded chain ran
    assert len(COMPLETE) == 6


@pytest.mark.parametrize("run_dir", COMPLETE, ids=[p.relative_to(CORPUS).as_posix() for p in COMPLETE])
def test_complete_run_replays(run_dir, capsys):
    assert main(["replay", str(run_dir)]) == EXIT_OK
    assert "replay OK" in capsys.readouterr().out


def test_aborted_generation_refused(capsys):
    assert main(["replay", str(CORPUS / "927d36e-aborted-chain" / "chain-00" / "gen06")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: run is marked 'incomplete'; only completed runs replay\n"


def resumes_unchanged(out: Path, *argv: str) -> None:
    """Running ``argv`` over the chain directory ``out`` leaves every file of it as it was."""
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert sorted(after) == sorted(before)
    assert [name for name in before if after[name] != before[name]] == []


def test_finished_chain_resumes_unchanged(tmp_path):
    shutil.copytree(CORPUS / "aa4365e-chain", tmp_path / "chain")
    resumes_unchanged(tmp_path / "chain", *CHAIN)


def test_seeded_chain_resumes_unchanged(tmp_path):
    # the resume selects generation 0's donor again, from the imported
    # simulation, and chain.csv names it
    shutil.copytree(CORPUS / "927d36e-seeded-chain", tmp_path / "chain")
    shutil.copytree(CORPUS / "aa4365e-simulate" / "sim-00", tmp_path / "seed")
    resumes_unchanged(tmp_path / "chain", *CHAIN, "--seed-from", str(tmp_path / "seed"))
