"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
generalisation-score golden test (criterion 2) is a documented defect: the
published target value is not reproducible from the published table under
either sanctioned pair definition. It is implemented faithfully at the
stated tolerance and marked as an expected failure rather than weakened;
see the README for the full calibration analysis.
"""

import math
import time
from pathlib import Path
from random import Random

import numpy as np
import pytest

from helpers import exhaustive_mantel_oracle, logged, recursive_levenshtein
from refgame.agents import CompositionalOracle, RandomChooser
from refgame.backend import EventLog
from refgame.cli import EXIT_OK, main as cli_main
from refgame.domain import Vocabulary, generate_language, sample_training_set
from refgame.engine import RunConfig, run_communication_block, run_simulation
from refgame.metrics import (
    communicative_success_rate,
    generalization_score,
    levenshtein,
    mantel_test,
    paired_t_test,
    semantic_distance_matrix,
    signal_distance_matrix,
)
from refgame.persistence import ChainRow, read_rows
from tests_paths import GOLDEN_TRAIN_PATH, GOLDEN_TEST_PATH


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}  {detail}")


@pytest.fixture(scope="module")
def golden_vocabularies():
    return Vocabulary.load(GOLDEN_TRAIN_PATH), Vocabulary.load(GOLDEN_TEST_PATH)


def test_criterion_01_golden_topsim(golden_vocabularies):
    """The bundled golden train vocabulary reproduces the published TopSim Z."""
    train, _ = golden_vocabularies
    started = time.monotonic()
    sem, sig = semantic_distance_matrix(train.stimuli()), signal_distance_matrix(train.signals())
    result = mantel_test(sem, sig, permutations=10_000, rng=0, method="sampled")
    elapsed = time.monotonic() - started
    ok = abs(result.z_score - 7.13) <= 0.5 and result.p_value < 0.001 and elapsed < 5.0
    report(1, ok, f"z={result.z_score:.3f} (target 7.13±0.5) p={result.p_value:.6f} in {elapsed:.2f}s")
    assert abs(result.z_score - 7.13) <= 0.5
    assert result.p_value < 0.001
    assert elapsed < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="documented defect: the golden data yields 0.583 (cross) / 0.649 (all) "
    "against the published 0.792; neither sanctioned pair definition passes",
)
def test_criterion_02_golden_gen_score(golden_vocabularies):
    """Golden generalisation-score value, at the stated tolerance."""
    train, test = golden_vocabularies
    started = time.monotonic()
    cross = generalization_score(train.pairs(), test.pairs(), pairs="cross")
    all_pairs = generalization_score(train.pairs(), test.pairs(), pairs="all")
    elapsed = time.monotonic() - started
    best = min(abs(cross - 0.792), abs(all_pairs - 0.792))
    ok = best <= 0.005 and elapsed < 1.0
    report(2, ok, f"cross={cross:.4f} all={all_pairs:.4f} (target 0.792±0.005) in {elapsed:.2f}s")
    assert elapsed < 1.0
    assert best <= 0.005


def test_criterion_03_chance_calibration():
    """A uniform-random listener over 4 candidates sits at 25% success."""
    split = sample_training_set(Random(30))
    vocab = generate_language(Random(30), split.train)
    a, b = RandomChooser("A"), RandomChooser("B")
    a.set_vocabulary(vocab.copy())
    b.set_vocabulary(vocab.copy())
    config = RunConfig(master_seed=30, rounds=34, candidate_count=4)  # 1020 interactions
    result = run_communication_block(a, b, Random(30), config, EventLog())
    rate = communicative_success_rate(result.records)
    ok = abs(rate - 0.25) <= 0.03
    report(3, ok, f"success rate {rate:.4f} over {len(result.records)} interactions (target 0.25±0.03)")
    assert len(result.records) >= 1000
    assert abs(rate - 0.25) <= 0.03


def _toy_pairs():
    from refgame.domain import Stimulus

    return [
        (Stimulus(1, "blue", 1), "gali"),
        (Stimulus(1, "blue", 2), "game"),
        (Stimulus(2, "green", 1), "hopu"),
        (Stimulus(3, "orange", 3), "nuwa"),
    ]


def test_criterion_04_mantel_oracle_equivalence():
    """Sampled Mantel statistics agree with exhaustive 4! enumeration."""
    pairs = _toy_pairs()
    sem = semantic_distance_matrix([s for s, _ in pairs])
    sig = signal_distance_matrix([w for _, w in pairs])
    exact = mantel_test(sem, sig, method="exact")

    # independent exhaustive oracle over plain-python permutations
    oracle_r, oracle_z, _, _, _ = exhaustive_mantel_oracle(pairs)
    exact_matches = (
        abs(exact.z_score - oracle_z) < 1e-9
        and abs(exact.observed_r - oracle_r) < 1e-12
    )

    zs, ps = [], []
    for trial in range(50):
        sampled = mantel_test(sem, sig, permutations=2000, rng=trial, method="sampled")
        zs.append(sampled.z_score)
        ps.append(sampled.p_value)
    z_se = float(np.std(zs, ddof=1)) / math.sqrt(50)
    p_se = float(np.std(ps, ddof=1)) / math.sqrt(50)
    z_dev = abs(float(np.mean(zs)) - exact.z_score)
    p_dev = abs(float(np.mean(ps)) - exact.p_value)
    z_ok = z_dev <= 3 * z_se
    p_ok = p_dev <= 3 * p_se + 1 / 2001  # granularity of (1+k)/(B+1)
    ok = exact_matches and z_ok and p_ok
    report(
        4,
        ok,
        f"exact z={exact.z_score:.6f} oracle z={oracle_z:.6f}; "
        f"sampled mean z dev={z_dev:.4f} (3se={3 * z_se:.4f}), p dev={p_dev:.5f}",
    )
    assert exact_matches
    assert z_ok
    assert p_ok


def test_criterion_05_null_calibration():
    """Random holistic languages are not flagged as structured."""
    rng = Random(2024)
    significant = 0
    z_values = []
    for trial in range(400):
        split = sample_training_set(rng)
        vocab = generate_language(rng, split.train)
        sem, sig = semantic_distance_matrix(vocab.stimuli()), signal_distance_matrix(vocab.signals())
        result = mantel_test(sem, sig, permutations=999, rng=5000 + trial, method="sampled")
        z_values.append(result.z_score)
        significant += result.p_value < 0.05
    rate = significant / 400
    mean_z = float(np.mean(z_values))
    ok = abs(rate - 0.05) <= 0.02 and -0.2 <= mean_z <= 0.2
    report(5, ok, f"p<.05 rate {rate:.4f} (target 0.05±0.02), mean z {mean_z:.4f} (target [-0.2, 0.2])")
    assert abs(rate - 0.05) <= 0.02
    assert -0.2 <= mean_z <= 0.2


def test_criterion_06_compositional_end_to_end(tmp_path):
    """Full oracle simulation exercises every block with zero network calls."""
    started = time.monotonic()
    config = RunConfig(master_seed=606, mantel_permutations=10_000)
    agents = (CompositionalOracle("A"), CompositionalOracle("B"))
    with EventLog(tmp_path / "events.jsonl") as log:
        result = run_simulation(config, agents, event_log=log)
    elapsed = time.monotonic() - started

    perc_com_ok = result.communication.perc_com == [1.0, 1.0, 1.0, 1.0]
    testing_rows = [r for r in result.metric_rows if r.block == "testing"]
    gen_scores = [r.gen_score for r in testing_rows]
    topsim_ps = [r.topsim_p for r in testing_rows]
    gen_ok = all(g is not None and g > 0.7 for g in gen_scores)
    topsim_ok = all(p < 0.05 for p in topsim_ps)
    backend_calls = logged(log, "backend_call")
    no_network = not backend_calls
    ok = perc_com_ok and gen_ok and topsim_ok and no_network and elapsed < 10.0
    report(
        6,
        ok,
        f"perc_com={result.communication.perc_com} gen_scores={[f'{g:.3f}' for g in gen_scores]} "
        f"topsim_p={topsim_ps} backend_calls={len(backend_calls)} in {elapsed:.2f}s",
    )
    assert perc_com_ok
    assert gen_ok
    assert topsim_ok
    assert no_network
    assert elapsed < 10.0


def test_criterion_07_levenshtein_oracle():
    """DP edit distance equals the exhaustive recursive oracle exactly."""
    rng = Random(7)
    alphabet = "ghklmnpwaeiou"
    mismatches = 0
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        if levenshtein(a, b) != recursive_levenshtein(a, b):
            mismatches += 1
    report(7, mismatches == 0, f"{mismatches} mismatches over 1000 random pairs (len <= 6)")
    assert mismatches == 0


def test_criterion_08_determinism_and_replay(tmp_path):
    """Identical seeds give byte-identical metrics; replay verifies offline."""
    csvs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            [
                "simulate", "--seed", "808",
                "--agents", "oracle:lookup,oracle:lookup",
                "--out", str(out), "--permutations", "400",
            ]
        )
        assert code == EXIT_OK
        csvs.append((out / "sim-00" / "metrics.csv").read_bytes())
    identical = csvs[0] == csvs[1]
    replay_code = cli_main(["replay", str(tmp_path / "first" / "sim-00")])
    ok = identical and replay_code == EXIT_OK
    report(8, ok, f"byte-identical={identical}, replay exit={replay_code}")
    assert identical
    assert replay_code == EXIT_OK


def test_criterion_09_chain_structure(tmp_path):
    """Six 8-generation lookup chains: learnability, integrity, t-test shape."""
    out = tmp_path / "chains"
    code = cli_main(
        [
            "chain", "--chains", "6", "--generations", "8", "--seed", "909",
            "--agents", "oracle:lookup,oracle:lookup",
            "--out", str(out), "--permutations", "150",
        ]
    )
    assert code == EXIT_OK

    learnability_ok = True
    integrity_ok = True
    gen0_ngram, gen7_ngram = [], []
    for chain_index in range(6):
        chain_dir = out / f"chain-{chain_index:02d}"
        rows = read_rows(chain_dir / "chain.csv", ChainRow)
        assert [r.generation for r in rows] == list(range(8))
        for row in rows[1:]:
            if row.learnability != 0.0:
                learnability_ok = False
        gen0_ngram.append(rows[0].ngram_diversity)
        gen7_ngram.append(rows[7].ngram_diversity)
        # transmission integrity at every hand-off
        for generation in range(7):
            donor = rows[generation].donor
            transmitted = dict(
                Vocabulary.load(
                    chain_dir / f"gen{generation:02d}" / "vocab" / f"testing_{donor}.vocab"
                ).pairs()
            )
            next_training = Vocabulary.load(
                chain_dir / f"gen{generation + 1:02d}" / "vocab" / "initial.vocab"
            )
            for entry in next_training:
                if transmitted[entry.stimulus] != entry.signal:
                    integrity_ok = False

    ttest = paired_t_test(gen0_ngram, gen7_ngram)
    df_ok = ttest.df == 5
    ok = learnability_ok and integrity_ok and df_ok
    report(
        9,
        ok,
        f"learnability-zero(gen>=1)={learnability_ok} integrity={integrity_ok} "
        f"t({ttest.df})={ttest.statistic:.2f} p={ttest.p_value:.3f}",
    )
    assert learnability_ok
    assert integrity_ok
    assert df_ok


def test_criterion_10_live_model_numbers_excluded():
    """LLM-dependent published numbers need a live 70B-class backend; the
    flag-gated integration suite reports them without thresholds."""
    module = Path(__file__).parent / "test_integration_live.py"
    exists = module.exists()
    gated = "REFGAME_LIVE_ENDPOINT" in module.read_text() if exists else False
    ok = exists and gated
    report(
        10,
        ok,
        "guessing~.973, labelling~.453, round-1~70%, length growth: excluded from CI; "
        f"integration suite present={exists}, env-gated={gated}",
    )
    assert exists
    assert gated
