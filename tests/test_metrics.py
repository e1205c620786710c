import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dp_levenshtein, exhaustive_mantel_oracle, recursive_levenshtein
from refgame import metrics
from refgame.agents import CompositionalOracle
from refgame.domain import Stimulus, enumerate_stimuli, generate_language, random_signal, sample_training_set
from refgame.metrics import (
    EXHAUSTIVE_MANTEL_MAX_N,
    MANTEL_BLOCK_ROWS,
    DegenerateMatrixError,
    DegenerateVarianceError,
    EmptyInputError,
    SignalMemo,
    TopSimResult,
    communicative_success_rate,
    exact_mantel_test,
    generalization_score,
    levenshtein,
    mantel_test,
    mean_signal_length,
    ngram_diversity,
    normalized_levenshtein,
    paired_t_test,
    t_two_sided_p,
    pearson,
    semantic_distance,
    semantic_distance_matrix,
    semantic_similarity,
    signal_distance_matrix,
    unique_signal_ratio,
    vocabulary_report,
)

short_strings = st.text(alphabet="ghklmnpwaeiou", max_size=6)
# small alphabets repeat characters, the last one is non-ASCII
kernel_strings = st.one_of(
    st.text(alphabet="ab", max_size=70),
    st.text(alphabet="ghklmnpwaeiou", max_size=70),
    st.text(alphabet="aé中🙂", max_size=70),
    st.text(max_size=70),
)


class TestLevenshtein:
    def test_identity(self):
        assert normalized_levenshtein("wipisu", "wipisu") == 0

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3
        assert normalized_levenshtein("kitten", "sitting") == pytest.approx(3 / 7)

    def test_all_insertions(self):
        assert normalized_levenshtein("", "abc") == 1.0

    def test_both_empty(self):
        assert normalized_levenshtein("", "") == 0.0

    @given(short_strings, short_strings)
    def test_symmetry(self, a, b):
        assert normalized_levenshtein(a, b) == normalized_levenshtein(b, a)

    @given(short_strings, short_strings, short_strings)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_strings, short_strings)
    def test_matches_recursive_oracle(self, a, b):
        assert levenshtein(a, b) == recursive_levenshtein(a, b)

    @given(kernel_strings, kernel_strings)
    def test_matches_dp_reference(self, a, b):
        # above 64 characters the bit vectors are multi-word ints
        assert levenshtein(a, b) == dp_levenshtein(a, b)

    @given(kernel_strings)
    def test_prefix_and_repeat(self, a):
        assert levenshtein(a, a[: len(a) // 2]) == dp_levenshtein(a, a[: len(a) // 2])
        assert levenshtein(a, a + a) == len(a)

    def test_long_strings_use_every_bit(self):
        a, b = "ab" * 35, "ba" * 35
        assert levenshtein(a, b) == dp_levenshtein(a, b) == 2
        assert levenshtein("x" * 70, "x" * 64) == 6


class TestSignalDistanceMatrix:
    SIGNALS = ["wipi", "suka", "wipi", "ka", "sukama"]

    def test_pairwise_normalized_distances(self):
        m = signal_distance_matrix(self.SIGNALS)
        for i, a in enumerate(self.SIGNALS):
            for j, b in enumerate(self.SIGNALS):
                assert m[i, j] == (0.0 if i == j else normalized_levenshtein(a, b))

    def test_memo_gives_the_same_matrix_and_is_filled(self):
        memo = {}
        with_memo = signal_distance_matrix(self.SIGNALS, memo)
        assert np.array_equal(with_memo, signal_distance_matrix(self.SIGNALS))
        # each unordered pair is kept once, in sorted order
        assert memo[("suka", "wipi")] == normalized_levenshtein("wipi", "suka")
        assert all(a <= b for a, b in memo) and len(memo) == 7
        # a memo entry is trusted, not measured again, whichever way round the pair is asked
        memo[("suka", "wipi")] = 0.5
        assert signal_distance_matrix(["wipi", "suka"], memo)[0, 1] == 0.5

    def test_signal_memo_measures_a_list_once_and_shares_it_read_only(self):
        memo = SignalMemo()
        measures = memo.measures(self.SIGNALS)
        assert memo.measures(tuple(self.SIGNALS)) is measures
        assert np.array_equal(measures.matrix, signal_distance_matrix(self.SIGNALS))
        assert not measures.matrix.flags.writeable
        figures = (measures.ngram_diversity, measures.mean_signal_length, measures.unique_signal_ratio)
        assert figures == (
            ngram_diversity(self.SIGNALS), mean_signal_length(self.SIGNALS), unique_signal_ratio(self.SIGNALS)
        )
        assert len(memo.distances) == 7


class TestSemanticSimilarity:
    def test_identity(self):
        s = Stimulus(1, "blue", 1)
        assert semantic_similarity(s, s) == 3

    def test_all_differ(self):
        assert semantic_similarity(Stimulus(1, "blue", 1), Stimulus(2, "green", 2)) == 0

    def test_amount_differs_only(self):
        assert semantic_similarity(Stimulus(1, "blue", 1), Stimulus(1, "blue", 3)) == 2

    def test_symmetric_and_distance_complement(self):
        a, b = Stimulus(1, "green", 2), Stimulus(3, "green", 1)
        assert semantic_similarity(a, b) == semantic_similarity(b, a)
        assert semantic_distance(a, b) == 3 - semantic_similarity(a, b)


class TestSemanticDistanceMatrix:
    @given(st.lists(st.sampled_from(enumerate_stimuli()), max_size=27, unique=True)
           | st.permutations(enumerate_stimuli()))
    def test_matches_pairwise_distances(self, stimuli):
        m = semantic_distance_matrix(stimuli)
        assert m.dtype == np.float64
        assert m.shape == (len(stimuli), len(stimuli))
        for i, a in enumerate(stimuli):
            assert m[i, i] == 0.0
            for j, b in enumerate(stimuli):
                assert m[i, j] == float(semantic_distance(a, b))

    def test_repeated_stimuli(self):
        s, t = Stimulus(1, "blue", 1), Stimulus(2, "blue", 3)
        assert semantic_distance_matrix([s, t, s]).tolist() == [[0, 2, 0], [2, 0, 2], [0, 2, 0]]


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_hand_values(self):
        # closed form: cov=5, var_x=2, var_y=114/9
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(5 / math.sqrt(2 * 114 / 9), abs=1e-12)
        # closed form: cov=3, var_x=2, var_y=42/9
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=1e-4)

    def test_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            pearson([1, 1, 1], [1, 2, 3])


def t_density(x, df: int):
    # hand-written Student-t density (of a float or an array)
    log_norm = (
        math.lgamma((df + 1) / 2)
        - math.lgamma(df / 2)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm) * (1 + x * x / df) ** (-(df + 1) / 2)


def t_tail_by_quadrature(t: float, df: int, nodes: int = 400) -> float:
    """2 x the integral of ``t_density`` from |t| to infinity, by
    Gauss-Legendre quadrature over v = |t| + tan(phi), phi in [0, pi/2)."""
    x, weights = np.polynomial.legendre.leggauss(nodes)
    phi = (x + 1) * math.pi / 4
    integrand = t_density(abs(t) + np.tan(phi), df) / np.cos(phi) ** 2
    return 2 * math.pi / 4 * float(np.sum(weights * integrand))


class TestPairedTTest:
    def test_zero_variance_differences(self):
        with pytest.raises(DegenerateVarianceError):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_df_is_n_minus_1(self):
        result = paired_t_test([1, 2, 3, 4, 5, 7], [0, 1, 2, 3, 4, 5])
        assert result.df == 5

    def test_against_numerical_integration(self):
        # differences (1,1,1,1,1,2): t = 7 exactly, p from quadrature of the density
        x = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0]
        y = [0.0] * 6
        result = paired_t_test(x, y)
        assert result.statistic == pytest.approx(7.0, abs=1e-12)
        assert result.p_value == pytest.approx(t_tail_by_quadrature(result.statistic, result.df), rel=1e-8)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, -2.5, 10.0, 1e3])
    def test_exact_tails_of_one_and_two_degrees_of_freedom(self, t):
        # df = 1 is the Cauchy tail 1 - 2 atan(t)/pi = 2 atan(1/t)/pi, and
        # df = 2 is 1 - t/sqrt(2 + t²) = 2 / (s (s + t)) with s = sqrt(2 + t²),
        # each written in its second form so that a small tail keeps its digits
        a, s = abs(t), math.sqrt(2 + t * t)
        assert t_two_sided_p(t, 1) == pytest.approx(2 * math.atan2(1, a) / math.pi, rel=1e-13)
        assert t_two_sided_p(t, 2) == pytest.approx(2 / (s * (s + a)), rel=1e-13)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 9, 10, 30, 59])
    def test_tail_against_quadrature(self, df):
        for t in (0.0, 0.3, 1.5, 2.4, 7.0, 30.0):
            assert t_two_sided_p(t, df) == pytest.approx(t_tail_by_quadrature(t, df), rel=1e-10), t

    @pytest.mark.parametrize("df", [1, 2, 3, 4])
    def test_infinite_t_has_no_tail_and_nan_raises(self, df):
        # a NaN once spun the tail's loop forever
        assert t_two_sided_p(math.inf, df) == t_two_sided_p(-math.inf, df) == 0.0
        with pytest.raises(ValueError, match="NaN"):
            t_two_sided_p(math.nan, df)

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf])
    def test_missing_or_infinite_value_refused(self, bad):
        # chain.csv reads a degenerate TopSim's empty cell as None
        for x, y in (([1.0, bad, 3.0], [0.0, 1.0, 1.0]), ([1.0, 2.0, 3.0], [bad, 1.0, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                paired_t_test(x, y)


class TestNgramDiversity:
    def test_single_aa(self):
        # grams: N=1 -> a,a (1/2); N=2 -> aa (1/1); N>=3 empty
        assert ngram_diversity(["aa"]) == pytest.approx(0.75)

    def test_repetition_lowers_diversity(self):
        assert ngram_diversity(["na", "na", "na"]) < ngram_diversity(["na", "gi", "wo"])

    def test_identical_vs_golden(self, golden_train):
        identical = ["wipisu"] * 15
        assert ngram_diversity(identical) < ngram_diversity(golden_train.signals())

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            ngram_diversity([""])

    def test_hand_count_two_signals(self):
        # "ab", "ab": N=1 -> a,b,a,b (2/4); N=2 -> ab,ab (1/2); mean = 0.5
        assert ngram_diversity(["ab", "ab"]) == pytest.approx(0.5)


TOY_PAIRS = [
    (Stimulus(1, "blue", 1), "gali"),
    (Stimulus(1, "blue", 2), "game"),
    (Stimulus(2, "green", 1), "hopu"),
    (Stimulus(3, "orange", 3), "nuwa"),
]


TOY_SEMANTIC = semantic_distance_matrix([s for s, _ in TOY_PAIRS])
TOY_SIGNAL = signal_distance_matrix([w for _, w in TOY_PAIRS])


class TestTopSimMantel:
    """TopSim as the program measures it (``vocabulary_report``), and the
    Mantel test on distance matrices where a test forces its method."""

    def test_exhaustive_matches_oracle(self):
        observed, z, p, mean, std = exhaustive_mantel_oracle(TOY_PAIRS)
        result = mantel_test(TOY_SEMANTIC, TOY_SIGNAL, method="exact")
        assert result.method == "exact"
        assert result.permutations == 24
        assert result.observed_r == pytest.approx(observed, abs=1e-12)
        assert result.z_score == pytest.approx(z, abs=1e-9)
        assert result.p_value == pytest.approx(p, abs=1e-12)

    def test_auto_uses_exact_for_small_n(self):
        assert vocabulary_report(TOY_PAIRS).topsim.method == "exact"
        train = sample_training_set(Random(0)).train
        vocab = generate_language(Random(0), train)
        assert vocabulary_report(vocab.pairs(), permutations=100, rng=0).topsim.method == "sampled"

    def test_degenerate_identical_signals(self):
        stimuli = enumerate_stimuli()[:5]
        with pytest.raises(DegenerateMatrixError):
            mantel_test(semantic_distance_matrix(stimuli), signal_distance_matrix(["gigi"] * 5))

    def test_degenerate_semantics(self):
        # three stimuli pairwise differing in exactly two attributes
        stimuli = [Stimulus(1, "blue", 1), Stimulus(2, "green", 1), Stimulus(3, "orange", 1)]
        signals = ["gali", "hopu", "nuwa"]
        with pytest.raises(DegenerateMatrixError):
            mantel_test(semantic_distance_matrix(stimuli), signal_distance_matrix(signals))

    def test_needs_three_entries(self):
        with pytest.raises(ValueError, match="at least 3 items"):
            mantel_test(TOY_SEMANTIC[:2, :2], TOY_SIGNAL[:2, :2])
        report = vocabulary_report(TOY_PAIRS[:2])
        assert report.degenerate and report.topsim is None and report.ngram_diversity is None

    def test_sampled_needs_a_permutation(self):
        train = sample_training_set(Random(0)).train
        pairs = generate_language(Random(0), train).pairs()
        with pytest.raises(ValueError, match="at least 1 permutation"):
            vocabulary_report(pairs, permutations=0, rng=0)

    def test_relabeling_invariance(self):
        # applying one relabeling to both sides leaves observed r unchanged
        rng = Random(11)
        train = sample_training_set(rng).train
        vocab = generate_language(rng, train)
        pairs = vocab.pairs()
        base = vocabulary_report(pairs, permutations=10, rng=0).topsim.observed_r
        perm = list(range(len(pairs)))
        Random(5).shuffle(perm)
        shuffled = [pairs[i] for i in perm]
        assert vocabulary_report(shuffled, permutations=10, rng=0).topsim.observed_r == pytest.approx(
            base, abs=1e-12
        )

    def test_perfect_structure_detected(self):
        oracle = CompositionalOracle("X")
        train = sample_training_set(Random(21)).train
        pairs = [(s, oracle.rule_signal(s)) for s in train]
        assert vocabulary_report(pairs, permutations=1000, rng=7).topsim.p_value < 0.05

    def test_seed_stability(self):
        train = sample_training_set(Random(2)).train
        pairs = generate_language(Random(2), train).pairs()
        a = vocabulary_report(pairs, permutations=500, rng=42)
        b = vocabulary_report(pairs, permutations=500, rng=42)
        assert a == b


def mantel_matrices(n, seed):
    """Semantic and signal distance matrices of a random language over the
    first n stimuli."""
    vocab = generate_language(Random(seed), enumerate_stimuli()[:n])
    sem = semantic_distance_matrix([s for s, _ in vocab.pairs()])
    sig = signal_distance_matrix([w for _, w in vocab.pairs()])
    return sem, sig


def loop_mantel_reference(semantic, signal, permutations, gen):
    """The sampled Mantel test as first written: one gen.permutation(n) call
    per permutation, and a full P x n x n relabelled matrix indexed down to
    its upper triangle afterwards."""
    n = semantic.shape[0]
    perms = np.array([gen.permutation(n) for _ in range(permutations)])
    return full_gather_mantel_reference(semantic, signal, perms, "sampled")


def kernel_slices(count):
    """The permutation slices ``mantel_test`` correlates one gemv at a time:
    ``MANTEL_BLOCK_ROWS`` wide, a tail of 1-3 joined to the slice before it."""
    bounds = list(range(0, count, MANTEL_BLOCK_ROWS)) + [count]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 4:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


def full_gather_mantel_reference(semantic, signal, perms, method):
    """The Mantel test over given permutation rows, all relabelled at once
    as one P x n x n array and correlated in one call, except for the dot
    products. OpenBLAS splits one gemv across its threads and the split
    moves the last bits, so the gemv runs over the kernel's slices, which
    gives the kernel's bits under any thread count."""
    n = semantic.shape[0]
    iu = np.triu_indices(n, k=1)
    sem_vec = semantic[iu]
    sig_vec = signal[iu]
    sem_centered = sem_vec - sem_vec.mean()
    sem_norm = math.sqrt(float(sem_centered @ sem_centered))

    def corr_with_sem(vectors):
        centered = vectors - vectors.mean(axis=1, keepdims=True)
        norms = np.sqrt((centered * centered).sum(axis=1))
        dots = [centered[start:stop] @ sem_centered for start, stop in kernel_slices(len(vectors))]
        return np.concatenate(dots) / (norms * sem_norm)

    observed_r = float(corr_with_sem(sig_vec[None, :])[0])
    permuted = signal[perms[:, :, None], perms[:, None, :]][:, iu[0], iu[1]]
    permuted_r = corr_with_sem(permuted)
    z = (observed_r - float(permuted_r.mean())) / float(permuted_r.std())
    at_least = int((permuted_r >= observed_r - 1e-12).sum())
    if method == "exact":
        p = at_least / len(perms)
    else:
        p = (1 + at_least) / (len(perms) + 1)
    return TopSimResult(
        z_score=float(z),
        p_value=float(p),
        observed_r=observed_r,
        permutations=len(perms),
        method=method,
    )


@st.composite
def tied_distance_matrices(draw):
    """Symmetric semantic (values 0-3) and signal (values k/9) matrices over
    3-27 items, small n as often as large. Each draws its values up to a
    drawn cap, so ties are common and a cap of 0 gives a zero-variance
    matrix."""
    n = draw(st.integers(3, EXHAUSTIVE_MANTEL_MAX_N) | st.integers(EXHAUSTIVE_MANTEL_MAX_N + 1, 27))
    pairs = n * (n - 1) // 2
    iu = np.triu_indices(n, k=1)

    def symmetric(top, scale):
        values = draw(st.lists(st.integers(0, top), min_size=pairs, max_size=pairs))
        m = np.zeros((n, n))
        m[iu] = np.array(values) / scale
        return m + m.T

    semantic = symmetric(draw(st.sampled_from([3, 2, 1, 0])), 1)
    return semantic, symmetric(draw(st.sampled_from(range(9, -1, -1))), 9)


# a tail alone, one and two blocks give or take a tail, and any count up to
# about ten blocks
mantel_counts = st.one_of(
    st.integers(1, 3),
    st.sampled_from([k * MANTEL_BLOCK_ROWS + d for k in (1, 2) for d in (-3, -1, 0, 1, 3)]),
    st.integers(1, 2600),
)


class TestMantelBitIdentity:
    """The batched draw and the upper-triangle gather must reproduce the
    loop-and-full-gather Mantel test exactly: stored metrics.csv files and
    replay of old run directories depend on every bit of Z."""

    # the gather index is uint8 up to n = 15 (n*n = 225) and uint16 from
    # n = 16 (256) to 27
    @pytest.mark.parametrize("n", [8, 15, 16, 27])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sampled_matches_loop_reference(self, n, seed):
        stimuli = enumerate_stimuli()[:n]
        vocab = generate_language(Random(seed), stimuli)
        sem = semantic_distance_matrix([s for s, _ in vocab.pairs()])
        sig = signal_distance_matrix([w for _, w in vocab.pairs()])
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        result = mantel_test(sem, sig, permutations=2000, rng=ours, method="sampled")
        assert result == loop_mantel_reference(sem, sig, 2000, theirs)
        # later draws from a shared generator stay where they were
        assert ours.bit_generator.state == theirs.bit_generator.state

    # below one block, full blocks plus a tail of 1 and of 3 rows, a
    # multiple of the block size, full blocks plus a partial block, the
    # donor-selection count and the paper's count
    @pytest.mark.parametrize(
        "permutations",
        [
            MANTEL_BLOCK_ROWS // 2,
            2 * MANTEL_BLOCK_ROWS + 1,
            2 * MANTEL_BLOCK_ROWS + 3,
            4 * MANTEL_BLOCK_ROWS,
            4 * MANTEL_BLOCK_ROWS + 176,
            1_000,
            10_000,
        ],
    )
    def test_blocks_match_full_gather(self, permutations):
        sem, sig = mantel_matrices(27, seed=4)
        ours = np.random.default_rng(4)
        theirs = np.random.default_rng(4)
        result = mantel_test(sem, sig, permutations=permutations, rng=ours, method="sampled")
        assert result == loop_mantel_reference(sem, sig, permutations, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state

    # one gemv over all 3,002 permutations, split across two OpenBLAS
    # threads, ends Z in ...816 where the kernel's 256-wide gemvs give
    # ...8165. OpenBLAS reads its thread count when it loads, so each count
    # runs in a process of its own.
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_matches_loop_reference_under_blas_threads(self, threads):
        code = (
            "import numpy as np\n"
            "from test_metrics import loop_mantel_reference, mantel_matrices\n"
            "from refgame.metrics import mantel_test\n"
            "sem, sig = mantel_matrices(27, 743845)\n"
            "ours = mantel_test(sem, sig, permutations=3002, rng=np.random.default_rng(743845))\n"
            "theirs = loop_mantel_reference(sem, sig, 3002, np.random.default_rng(743845))\n"
            "assert ours == theirs, (ours, theirs)\n"
        )
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_two_calls_in_a_row_share_the_generator(self):
        # chains.select_donor tests both agents' vocabularies with one rng; a
        # Generator passed there makes the second test draw where the first
        # stopped
        ours = np.random.default_rng(6)
        theirs = np.random.default_rng(6)
        for seed in (6, 7):
            sem, sig = mantel_matrices(27, seed)
            result = mantel_test(sem, sig, permutations=1_000, rng=ours, method="sampled")
            assert result == loop_mantel_reference(sem, sig, 1_000, theirs)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @given(tied_distance_matrices(), mantel_counts, st.sampled_from(["sampled", "auto"]),
           st.integers(0, 2**32 - 1))
    def test_matches_references_on_tied_matrices(self, matrices, permutations, method, seed):
        sem, sig = matrices
        n = sem.shape[0]
        iu = np.triu_indices(n, k=1)
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        if np.ptp(sig[iu]) == 0.0 or np.ptp(sem[iu]) == 0.0:
            which = "signal" if np.ptp(sig[iu]) == 0.0 else "semantic"
            with pytest.raises(DegenerateMatrixError, match=f"^{which} distance matrix"):
                mantel_test(sem, sig, permutations=permutations, rng=ours, method=method)
            assert ours.bit_generator.state == theirs.bit_generator.state
            return
        try:
            if method == "auto" and n <= EXHAUSTIVE_MANTEL_MAX_N:
                perms = np.array(list(itertools.permutations(range(n))))
                expected = full_gather_mantel_reference(sem, sig, perms, "exact")
            else:
                expected = loop_mantel_reference(sem, sig, permutations, theirs)
        except ZeroDivisionError:
            expected = None  # the permuted r all have one value
        if expected is not None:
            result = mantel_test(sem, sig, permutations=permutations, rng=ours, method=method)
            assert result == expected
        else:
            with pytest.raises(DegenerateMatrixError, match="^permutation distribution"):
                mantel_test(sem, sig, permutations=permutations, rng=ours, method=method)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_exact_enumeration_crosses_blocks(self):
        sem, sig = mantel_matrices(EXHAUSTIVE_MANTEL_MAX_N, seed=5)
        perms = np.array(list(itertools.permutations(range(EXHAUSTIVE_MANTEL_MAX_N))))
        assert len(perms) > MANTEL_BLOCK_ROWS
        result = mantel_test(sem, sig, method="exact")
        assert result == full_gather_mantel_reference(sem, sig, perms, "exact")

    def test_golden_topsim_pinned(self, golden_train):
        sem = semantic_distance_matrix(golden_train.stimuli())
        sig = signal_distance_matrix(golden_train.signals())
        result = mantel_test(sem, sig, permutations=10_000, rng=0, method="sampled")
        assert repr(result.z_score) == "7.159796628675282"
        assert repr(result.p_value) == "9.999000099990002e-05"
        assert repr(result.observed_r) == "0.7288486986723643"
        assert (result.permutations, result.method) == (10_000, "sampled")


def test_mantel_peak_memory_flat_in_permutations():
    # peak memory must not grow with the permutation count: the permutation
    # table and one block need ~6 MB here, all 10,000 rows at once ~83 MB
    sem, sig = mantel_matrices(27, seed=0)
    tracemalloc.start()
    try:
        mantel_test(sem, sig, permutations=10_000, rng=0, method="sampled")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def exact_kernel_case(rng: Random, kind: str) -> tuple[list, list[str]]:
    """Stimuli and signals of one exact-kernel case: n of 3-27 items,
    exhaustive (n <= 7) as often as sampled; ``kind`` is "cv" (signals of
    1-4 CV syllables), "random" (strings of length 1-32, some stimuli
    repeated), "collapsed" (2-3 distinct signals) or "odd-one-out" (one
    signal differs from all the others, every stimulus once)."""
    n = rng.randint(3, EXHAUSTIVE_MANTEL_MAX_N) if rng.random() < 0.5 else rng.randint(8, 27)
    stimuli = rng.sample(enumerate_stimuli(), n)
    if kind == "cv":
        signals = ["".join(rng.choice("ghklmnpw") + rng.choice("aeiou") for _ in range(rng.randint(1, 4)))
                   for _ in range(n)]
    elif kind == "random":
        stimuli = [rng.choice(stimuli) if rng.random() < 0.2 else s for s in stimuli]
        signals = ["".join(rng.choice("abkmpt") for _ in range(rng.randint(1, 32))) for _ in range(n)]
    elif kind == "collapsed":
        words = [random_signal(rng) for _ in range(rng.randint(2, 3))]
        signals = [rng.choice(words) for _ in range(n)]
    else:
        word, odd = rng.sample(["kapo", "mimi", "tutuka", "ge", "lonaweki"], 2)
        signals = [word] * n
        signals[rng.randrange(n)] = odd
    return stimuli, signals


def mantel_or_degenerate(kernel, *args, **kwargs) -> TopSimResult | None:
    try:
        return kernel(*args, **kwargs)
    except DegenerateMatrixError:
        return None


def handed_to_the_float_kernel(monkeypatch) -> list:
    """The calls of the float kernel from now on, which it still answers."""
    handed = []
    float_mantel = metrics._float_mantel
    monkeypatch.setattr(metrics, "_float_mantel", lambda *args: handed.append(args) or float_mantel(*args))
    return handed


class TestExactMantel:
    """``exact_mantel_test`` against ``mantel_test``: the same permutations,
    Z and r equal to rounding, the same p and the same degenerate cases."""

    # 4 kinds x 80 seeded cases; every 20th at the paper's 10,000 permutations
    @pytest.mark.parametrize("kind", ["cv", "random", "collapsed", "odd-one-out"])
    def test_agrees_with_the_float_kernel(self, kind):
        rng = Random(f"exact-{kind}")
        bit_equal = set()
        for case in range(80):
            stimuli, signals = exact_kernel_case(rng, kind)
            sem, sig = semantic_distance_matrix(stimuli), signal_distance_matrix(signals)
            permutations = 10_000 if case % 20 == 0 else rng.randint(1, 600)
            theirs = mantel_or_degenerate(mantel_test, sem, sig, permutations=permutations, rng=case)
            ours = mantel_or_degenerate(
                exact_mantel_test, sem, sig, [len(w) for w in signals], permutations=permutations, rng=case
            )
            where = f"case {case}: {signals}"
            assert (ours is None) == (theirs is None), where
            if theirs is None:
                continue
            bit_equal.add(ours == theirs)
            assert abs(ours.z_score - theirs.z_score) <= 1e-12 * max(1.0, abs(theirs.z_score)), where
            assert abs(ours.observed_r - theirs.observed_r) <= 1e-12, where
            assert (ours.p_value, ours.permutations, ours.method) == (
                theirs.p_value, theirs.permutations, theirs.method), where
        # some results differ in their last bits: the integers ran, not only the float kernel
        assert False in bit_equal

    def test_one_odd_signal_in_the_full_space_gives_a_constant_distribution(self, monkeypatch):
        # every stimulus is at the same summed semantic distance from the
        # rest, so wherever a relabelling puts the odd signal the dot is the
        # same; mantel_test's Z there is rounding noise, which only the float
        # kernel reproduces, so the exact kernel hands it the row
        stimuli = enumerate_stimuli()
        sem = semantic_distance_matrix(stimuli)
        assert len(set(sem.sum(axis=1))) == 1
        cases = {}
        for odd in (0, 5, 13, 26):
            pairs = [(s, "mimi" if i == odd else "kapo") for i, s in enumerate(stimuli)]
            theirs = mantel_test(sem, signal_distance_matrix([w for _, w in pairs]), rng=odd)
            assert abs(theirs.observed_r) < 1e-15 and theirs.p_value == 1.0
            cases[odd] = pairs, theirs, vocabulary_report(pairs, rng=odd)
        assert len({theirs.z_score for _, theirs, _ in cases.values()}) == 4  # noise, by position
        handed = handed_to_the_float_kernel(monkeypatch)
        for odd, (pairs, theirs, report) in cases.items():
            signal = signal_distance_matrix([w for _, w in pairs])
            assert exact_mantel_test(sem, signal, [4] * 27, rng=odd) == theirs
            assert vocabulary_report(pairs, rng=odd, exact=True) == report
        assert len(handed) == 2 * len(cases)

    def test_scale_beyond_int64_goes_to_the_float_kernel(self, monkeypatch):
        # lengths 25-32 give L = lcm(25..32), about 1.8e9: the sums of the
        # squared offsets of 500 permutations could pass 2^63
        stimuli = enumerate_stimuli()[:16]
        signals = ["".join(Random(i).choice("abkm") for _ in range(25 + i % 8)) for i in range(16)]
        lengths = [len(w) for w in signals]
        assert math.lcm(*set(lengths)) ** 2 * 500 >= 2**63
        sem, sig = semantic_distance_matrix(stimuli), signal_distance_matrix(signals)
        theirs = mantel_test(sem, sig, permutations=500, rng=3)
        handed = handed_to_the_float_kernel(monkeypatch)
        assert exact_mantel_test(sem, sig, lengths, permutations=500, rng=3) == theirs
        assert len(handed) == 1

    def test_same_errors_as_the_float_kernel(self):
        sem, sig = mantel_matrices(8, seed=2)
        with pytest.raises(ValueError, match="at least 1 permutation"):
            exact_mantel_test(sem, sig, [4] * 8, permutations=0, rng=0)
        with pytest.raises(ValueError, match="unknown method"):
            exact_mantel_test(sem, sig, [4] * 8, method="moments")
        with pytest.raises(ValueError, match="square"):
            exact_mantel_test(sem, sig[:7, :7], [4] * 8)
        with pytest.raises(DegenerateMatrixError, match="^signal"):
            exact_mantel_test(sem, np.ones((8, 8)) - np.eye(8), [4] * 8)

    def test_peak_memory_flat_in_permutations(self):
        # as for mantel_test: the permutation table and one block
        pairs = generate_language(Random(0), enumerate_stimuli()).pairs()
        sem = semantic_distance_matrix([s for s, _ in pairs])
        sig = signal_distance_matrix([w for _, w in pairs])
        tracemalloc.start()
        try:
            exact_mantel_test(sem, sig, [len(w) for _, w in pairs], permutations=10_000, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestGeneralizationScore:
    def _compositional_sets(self, seed=3):
        oracle = CompositionalOracle("X")
        split = sample_training_set(Random(seed))
        train = [(s, oracle.rule_signal(s)) for s in split.train]
        test = [(s, oracle.rule_signal(s)) for s in split.test]
        return train, test

    def test_compositional_scores_high(self):
        train, test = self._compositional_sets()
        assert generalization_score(train, test) > 0.7

    def test_random_test_signals_score_near_zero(self):
        split = sample_training_set(Random(1))
        oracle = CompositionalOracle("X")
        train = [(s, oracle.rule_signal(s)) for s in split.train]
        values = []
        for seed in range(20):
            rng = Random(seed)
            test = [(s, random_signal(rng)) for s in split.test]
            values.append(generalization_score(train, test))
        assert abs(float(np.mean(values))) < 0.15

    def test_order_invariance(self):
        train, test = self._compositional_sets()
        shuffled_train = list(train)
        shuffled_test = list(test)
        Random(9).shuffle(shuffled_train)
        Random(10).shuffle(shuffled_test)
        assert generalization_score(shuffled_train, shuffled_test) == pytest.approx(
            generalization_score(train, test), abs=1e-12
        )

    def test_degenerate_signals(self):
        split = sample_training_set(Random(4))
        train = [(s, "gigi") for s in split.train]
        test = [(s, "gigi") for s in split.test]
        with pytest.raises(DegenerateVarianceError):
            generalization_score(train, test)

    def test_empty_inputs(self):
        train, test = self._compositional_sets()
        with pytest.raises(EmptyInputError):
            generalization_score([], test)

    def test_all_pairs_variant(self, golden_train, golden_test):
        cross = generalization_score(golden_train.pairs(), golden_test.pairs(), pairs="cross")
        allp = generalization_score(golden_train.pairs(), golden_test.pairs(), pairs="all")
        assert cross != allp


class _Rec:
    def __init__(self, success, round=1):
        self.success = success
        self.round = round


class TestSuccessRate:
    def test_21_of_30(self):
        records = [_Rec(i < 21) for i in range(30)]
        assert communicative_success_rate(records) == pytest.approx(0.7)

    def test_all_success(self):
        assert communicative_success_rate([_Rec(True)] * 5) == 1.0

    def test_round_filter(self):
        records = [_Rec(True, round=1), _Rec(False, round=2)]
        assert communicative_success_rate(records, round=1) == 1.0
        assert communicative_success_rate(records, round=2) == 0.0

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            communicative_success_rate([])
        with pytest.raises(EmptyInputError):
            communicative_success_rate([_Rec(True, round=1)], round=3)


class TestReportHelpers:
    def test_unique_ratio_and_length(self):
        assert unique_signal_ratio(["a", "a", "b", "c"]) == pytest.approx(0.75)
        assert mean_signal_length(["ab", "abcd"]) == pytest.approx(3.0)

    def test_vocabulary_report_flags_degenerate(self):
        pairs = [(s, "gigi") for s in enumerate_stimuli()[:5]]
        report = vocabulary_report(pairs, permutations=10, rng=0)
        assert report.degenerate
        assert report.topsim is None
        assert report.unique_signal_ratio == pytest.approx(0.2)

    def test_report_topsim_is_mantel_test_over_fresh_matrices(self):
        # 300 seeded vocabularies: CV languages, 1-4 distinct signals, random
        # strings of 1-32 letters. The report's Z is mantel_test's to the bit,
        # and it has no TopSim exactly where mantel_test finds a degenerate input
        rng = Random(45)
        degenerate = 0
        for case in range(300):
            stimuli = rng.sample(enumerate_stimuli(), rng.choice([3, 5, 7, 8, 15, 27]))
            if case % 3 == 0:
                signals = generate_language(rng, stimuli).signals()
            elif case % 3 == 1:
                words = [random_signal(rng) for _ in range(rng.randint(1, 4))]
                signals = [rng.choice(words) for _ in stimuli]
            else:
                letters = "abcdefghijklmnopqrstuvwxyz"
                signals = ["".join(rng.choices(letters, k=rng.randint(1, 32))) for _ in stimuli]
            permutations, seed = rng.choice([30, 100, 1000]), rng.randrange(2**32)
            report = vocabulary_report(list(zip(stimuli, signals)), permutations, seed)
            sem, sig = semantic_distance_matrix(stimuli), signal_distance_matrix(signals)
            try:
                expected = mantel_test(sem, sig, permutations, seed)
            except DegenerateMatrixError:
                assert report.degenerate and report.topsim is None
                degenerate += 1
                continue
            assert not report.degenerate
            assert repr(report.topsim.z_score) == repr(expected.z_score)
            assert report.topsim == expected
        assert 0 < degenerate < 300

    def test_random_languages_mean_z_near_zero(self):
        zs = []
        for seed in range(20):
            vocab = generate_language(Random(100 + seed), enumerate_stimuli())
            zs.append(vocabulary_report(vocab.pairs(), permutations=300, rng=seed).topsim.z_score)
        assert -1.0 < float(np.mean(zs)) < 1.0
