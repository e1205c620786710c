"""Structure and success metrics for signal-meaning vocabularies.

TopSim is reported as the Z-score of a Mantel permutation test between the
pairwise semantic distances of meanings (3 minus the number of equal
attributes) and the pairwise normalized Levenshtein distances of signals.
Ngram diversity, the generalisation score, and communicative success follow
the same distance conventions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .domain import Signal, Stimulus, enumerate_stimuli

# Exhaustive Mantel enumeration is used at or below this size (7! = 5040).
EXHAUSTIVE_MANTEL_MAX_N = 7
DEFAULT_PERMUTATIONS = 10_000
# Permutations (columns of the permutation array) gathered and correlated at
# a time: keeps the working set in cache and peak memory flat in the
# permutation count. The width must keep OpenBLAS's dgemv row grouping, which
# takes the rows of a call 4 at a time: against one gemv over all
# permutations (one BLAS thread, 40 random cases of n = 8-27 and 300-5000
# permutations), widths 255, 257 and 1170 changed the last bits of 6, 3 and
# 1 results, while 64, 100, 128, 200, 256, 512, 1024 and 4096 changed none.
MANTEL_BLOCK_ROWS = 256
# Permutations gathered at a time by the exact kernel, whose sums are exact in
# any order.
EXACT_MANTEL_BLOCK_COLUMNS = 256
NGRAM_ORDERS = (1, 2, 3, 4, 5)


class MetricError(Exception):
    """Base class for metric computation failures."""


class DegenerateMatrixError(MetricError):
    """A distance matrix has zero variance, e.g. all signals identical."""


class DegenerateVarianceError(MetricError):
    """A correlation input vector is constant."""


class EmptyInputError(MetricError):
    """No data to compute over."""


def levenshtein(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute edit distance.

    Bit-parallel (Myers 1999, in Hyyrö's 2001 formulation): bit i of ``pv``
    and ``mv`` says whether the DP column rises or falls by one at row i of
    the longer string, and each character of the shorter string updates the
    whole column at once. Python ints hold any length, so there is no block
    split; the integers are those of the O(m·n) DP.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    match: dict[str, int] = {}  # character -> the rows of ``a`` holding it
    bit = 1
    for char in a:
        match[char] = match.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, len(a)
    for char in b:
        eq = match.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance divided by max(len(a), len(b)); 0 when both empty."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def semantic_similarity(a: Stimulus, b: Stimulus) -> int:
    """Number of equal attributes among shape, colour, amount."""
    return (a.shape == b.shape) + (a.colour == b.colour) + (a.amount == b.amount)


def semantic_distance(a: Stimulus, b: Stimulus) -> int:
    return 3 - semantic_similarity(a, b)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation; raises DegenerateVarianceError on constant input."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("pearson needs two equal-length vectors")
    if xa.size < 2:
        raise ValueError("pearson needs at least 2 observations")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise DegenerateVarianceError("constant input vector")
    return float(xc @ yc) / denom


@dataclass(frozen=True)
class PairedTTestResult:
    statistic: float
    p_value: float
    df: int


def paired_t_test(x: Sequence[float], y: Sequence[float]) -> PairedTTestResult:
    """Two-sided paired t-test on the differences x - y, df = n - 1; a value
    that is not finite (None reads as NaN) raises ValueError."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("paired_t_test needs two equal-length vectors")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("paired_t_test needs finite values")
    n = xa.size
    if n < 2:
        raise ValueError("paired_t_test needs at least 2 pairs")
    diffs = xa - ya
    sd = diffs.std(ddof=1)
    if sd == 0.0:
        raise DegenerateVarianceError("zero-variance differences")
    t = float(diffs.mean() / (sd / math.sqrt(n)))
    df = n - 1
    return PairedTTestResult(statistic=t, p_value=t_two_sided_p(t, df), df=df)


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with integer ``df`` >= 1. With x =
    df / (df + t²) = cos²θ, Abramowitz & Stegun 26.7.3-4 write P(|T| < |t|)
    as (2θ/π for odd df) + c·H, H the first df // 2 terms of a series in x
    whose full sum makes it 1. The tail, c times the other terms, is summed
    directly while x <= 0.9 (1 - P would cancel a small p's digits) and is
    1 - P beyond, where p is not small. An infinite t gives 0.0, a NaN raises."""
    if math.isnan(t):
        raise ValueError("t is NaN")
    if math.isinf(t):
        return 0.0
    odd, x = df % 2, df / (df + t * t)
    sin = abs(t) / math.sqrt(df + t * t)
    scale = 2 / math.pi * sin * math.sqrt(x) if odd else sin
    head, term = 0.0, 1.0
    for k in range(1, df // 2 + 1):
        head += term
        term *= x * (2 * k - 1 + odd) / (2 * k + odd)
    if x > 0.9:
        return 1.0 - 2 / math.pi * math.atan2(abs(t), math.sqrt(df)) * odd - scale * head
    tail, k = 0.0, df // 2
    while tail + term != tail:
        tail += term
        k += 1
        term *= x * (2 * k - 1 + odd) / (2 * k + odd)
    return scale * tail


@functools.cache
def _semantic_table() -> tuple[dict[Stimulus, int], np.ndarray]:
    """The index of each of the 27 stimuli and their pairwise
    ``semantic_distance`` matrix, built once."""
    stimuli = enumerate_stimuli()
    table = np.array([[semantic_distance(a, b) for b in stimuli] for a in stimuli], dtype=float)
    return {s: i for i, s in enumerate(stimuli)}, table


def semantic_distance_matrix(stimuli: Sequence[Stimulus]) -> np.ndarray:
    # every Stimulus is one of the 27 (Stimulus.__new__), so the
    # matrix is rows and columns of the full table
    index, table = _semantic_table()
    rows = np.array([index[s] for s in stimuli], dtype=np.intp)
    return table[np.ix_(rows, rows)]


def signal_distance_matrix(
    signals: Sequence[Signal], memo: dict[tuple[Signal, Signal], float] | None = None
) -> np.ndarray:
    """Pairwise normalized Levenshtein distances. ``memo`` maps a signal
    pair, in sorted order, to its distance; a pair is measured only when it
    is missing, so one memo shared by several matrices measures each
    unordered pair once."""
    n = len(signals)
    rows, cols = _upper_triangle(n)  # row-major, as the pairs below
    m = np.zeros((n, n))
    m[rows, cols] = m[cols, rows] = _distances(
        [(signals[i], signals[j]) for i in range(n) for j in range(i + 1, n)], memo
    )
    return m


@functools.cache
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, read-only and built once per ``n``: the
    call costs about as much as filling a matrix of 15 signals from a warm
    memo."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _distances(
    pairs: Sequence[tuple[Signal, Signal]], memo: dict[tuple[Signal, Signal], float] | None
) -> list[float]:
    """``normalized_levenshtein`` of each signal pair, measured only when
    the pair in sorted order is missing from ``memo`` and then added there
    under that key: the distance is symmetric, to the last bit."""
    if memo is None:
        memo = {}
    distances = []
    for a, b in pairs:
        key = (a, b) if a <= b else (b, a)
        distance = memo.get(key)
        if distance is None:
            distance = memo[key] = normalized_levenshtein(*key)
        distances.append(distance)
    return distances


@dataclass(frozen=True)
class SignalListMeasures:
    """What a signal list's metrics take from its signals alone: the
    distance matrix (read-only, as it may be shared) and three figures."""

    matrix: np.ndarray
    ngram_diversity: float
    mean_signal_length: float
    unique_signal_ratio: float


class SignalMemo:
    """Signal measurements kept for one caller, so that each is made once:
    ``distances`` maps a signal pair, in sorted order, to its normalized
    Levenshtein distance (a ``signal_distance_matrix`` memo), and
    ``measures`` gives each distinct signal list's ``SignalListMeasures``.
    It keeps everything it measured, so keep it only as long as the same
    signals are measured again, e.g. for one ``compute_metric_rows`` call."""

    def __init__(self):
        self.distances: dict[tuple[Signal, Signal], float] = {}
        self.lists: dict[tuple[Signal, ...], SignalListMeasures] = {}

    def measures(self, signals: Sequence[Signal]) -> SignalListMeasures:
        key = tuple(signals)
        measures = self.lists.get(key)
        if measures is None:
            matrix = signal_distance_matrix(key, self.distances)
            matrix.flags.writeable = False
            measures = self.lists[key] = SignalListMeasures(
                matrix, ngram_diversity(key), mean_signal_length(key), unique_signal_ratio(key)
            )
        return measures


@dataclass(frozen=True)
class TopSimResult:
    z_score: float
    p_value: float
    observed_r: float
    permutations: int
    method: str  # "exact" or "sampled"


def _semantic_triangle(semantic: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """The upper triangle of the semantic matrix, row-major, once both
    matrices are checked: matrices that are not square and equal in size,
    or of fewer than 3 items, raise ``ValueError``, and one whose triangle
    is constant raises ``DegenerateMatrixError``."""
    n = semantic.shape[0]
    if semantic.shape != (n, n) or signal.shape != (n, n):
        raise ValueError("matrices must be square and equally sized")
    if n < 3:
        raise ValueError("mantel test needs at least 3 items")
    iu = _upper_triangle(n)
    sem_vec = semantic[iu]
    sig_vec = signal[iu]
    if np.ptp(sig_vec) == 0.0:
        raise DegenerateMatrixError("signal distance matrix has zero variance")
    if np.ptp(sem_vec) == 0.0:
        raise DegenerateMatrixError("semantic distance matrix has zero variance")
    return sem_vec


def _drawn_permutations(n: int, permutations: int, rng, method: str) -> tuple[np.ndarray, str]:
    """The relabellings a Mantel test of ``n`` items runs over, and its
    method ("auto" resolved: exhaustive up to ``EXHAUSTIVE_MANTEL_MAX_N``
    items, sampled above). Column c of the ``n x count`` array is
    permutation c, in the narrowest unsigned type that holds every gather
    index n*p_i + p_j < n*n (uint8 up to n = 15). Both kernels draw here,
    so they run over the same permutations."""
    if method == "auto":
        method = "exact" if n <= EXHAUSTIVE_MANTEL_MAX_N else "sampled"
    # row c of rows is permutation c
    if method == "exact":
        rows = np.array(list(itertools.permutations(range(n))))
    elif method == "sampled":
        if permutations < 1:
            raise ValueError("sampled mantel test needs at least 1 permutation")
        gen = np.random.default_rng(rng)
        # shuffling the rows in place draws the same permutations, from the
        # same stream, as a loop of gen.permutation(n) calls
        rows = np.tile(np.arange(n), (permutations, 1))
        gen.permuted(rows, axis=1, out=rows)
    else:
        raise ValueError(f"unknown method {method!r}")
    return rows.T.astype(np.min_scalar_type(n * n), order="C"), method


def _topsim_result(z: float, observed_r: float, permuted_r: np.ndarray, method: str) -> TopSimResult:
    """The result of a Mantel test; p counts the permuted r at least the
    observed one, less 1e-12."""
    count = permuted_r.size
    at_least = int((permuted_r >= observed_r - 1e-12).sum())
    if method == "exact":
        # the identity permutation is part of the enumeration
        p = at_least / count
    else:
        p = (1 + at_least) / (count + 1)
    return TopSimResult(
        z_score=float(z),
        p_value=float(p),
        observed_r=observed_r,
        permutations=count,
        method=method,
    )


def mantel_test(
    semantic: np.ndarray,
    signal: np.ndarray,
    permutations: int = DEFAULT_PERMUTATIONS,
    rng=None,
    method: str = "auto",
) -> TopSimResult:
    """Mantel permutation test between two symmetric distance matrices.

    The observed statistic is the Pearson correlation of the upper-triangle
    entries. One matrix is permuted by joint row/column relabelings; the
    Z-score standardizes the observed r against the permutation distribution.
    For "auto", enumeration is exhaustive up to n=7 and sampled above.
    """
    sem_vec = _semantic_triangle(semantic, signal)
    perms, method = _drawn_permutations(semantic.shape[0], permutations, rng, method)
    return _float_mantel(sem_vec, signal, perms, method)


def _float_mantel(sem_vec: np.ndarray, signal: np.ndarray, perms: np.ndarray, method: str) -> TopSimResult:
    """``mantel_test`` over the drawn permutations ``perms``, in float64."""
    n = signal.shape[0]
    iu = _upper_triangle(n)
    sem_centered = sem_vec - sem_vec.mean()
    sem_norm = math.sqrt(float(sem_centered @ sem_centered))
    pairs = len(sem_vec)

    def corr_with_sem(vectors: np.ndarray) -> np.ndarray:
        centered = vectors - np.add.reduce(vectors, axis=1, keepdims=True) / pairs
        norms = np.sqrt((centered * centered).sum(axis=1))
        return (centered @ sem_centered) / (norms * sem_norm)

    observed_r = float(corr_with_sem(signal[iu][None, :])[0])

    # Each permutation's r is computed from its column alone, so blocks give
    # the bits of one gather of all columns, with one exception: BLAS sums a
    # call of 1-3 permutations in another order, so such a tail joins the
    # block before it. The mean, std and count below still run over the whole
    # vector.
    count = perms.shape[1]
    flat = signal.ravel()
    row_repeats = np.arange(n - 1, 0, -1)
    bounds = list(range(0, count, MANTEL_BLOCK_ROWS)) + [count]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 4:
        del bounds[-2]
    buffer = np.empty(pairs * max(b - a for a, b in zip(bounds, bounds[1:])))
    permuted_r = np.empty(count)
    for start, stop in zip(bounds, bounds[1:]):
        block = perms[:, start:stop]
        index = np.repeat(block[:-1] * n, row_repeats, axis=0)
        index += block[iu[1]]
        # gathered is a pairs x block C-array: its column c is permutation
        # c's relabelled upper triangle. Every index is below n*n, so "wrap"
        # never wraps; with "raise", take gathers into a temporary and copies
        # it into out.
        gathered = buffer[: index.size].reshape(index.shape)
        np.take(flat, index, out=gathered, mode="wrap")
        # The float operations of correlating the transpose of one gather of
        # all columns, in the same order and on the same layout: each column's
        # mean and squared norm sum in pair order (a C-ordered block x pairs
        # gather sums otherwise and changes the last bit of r), and the dot
        # is the same gemv.
        means = np.add.reduce(gathered, axis=0)
        means /= pairs
        gathered -= means
        dots = gathered.T @ sem_centered
        np.multiply(gathered, gathered, out=gathered)
        norms = np.sqrt(np.add.reduce(gathered, axis=0))
        permuted_r[start:stop] = dots / (norms * sem_norm)
    spread = float(permuted_r.std())
    if spread == 0.0:
        raise DegenerateMatrixError("permutation distribution has zero variance")
    z = (observed_r - float(permuted_r.mean())) / spread
    return _topsim_result(z, observed_r, permuted_r, method)


def exact_mantel_test(
    semantic: np.ndarray,
    signal: np.ndarray,
    lengths: Sequence[int],
    permutations: int = DEFAULT_PERMUTATIONS,
    rng=None,
    method: str = "auto",
) -> TopSimResult:
    """``mantel_test`` over the same permutations, in integers: Z and the
    observed r agree with it to rounding, p is the same. ``semantic`` holds
    integer distances; ``signal`` holds normalized Levenshtein distances of
    signals of ``lengths``, each an integer over its pair's longer length,
    so scaled by L, the lcm of those lengths, it is an integer matrix X.

    A relabelling only rearranges the upper triangle, so Σx and Σx² are the
    same for every permutation and only the dot Σ y·x_π moves. With m the
    commonest semantic distance, dot_π = m·Σx + Σ_{y≠m} (y − m)·x_π, and
    only the second term is computed: one float64 gemv per block over the
    pairs with y ≠ m, exact because every partial sum is an integer below
    2^53. Z = (N·d_obs − Σd) / √(N·Σd² − (Σd)²) over those N offsets d,
    from exact integer sums (the scale of r cancels), and p applies the
    float kernel's rule to each r_π, computed in float64 from its exact
    dot. Two cases go to the float kernel, over the same permutations: a
    scale at which the integer sums could leave int64, and a permutation
    distribution that is constant, where the float kernel's Z is its
    rounding noise."""
    sem_vec = _semantic_triangle(semantic, signal)
    n = semantic.shape[0]
    perms, method = _drawn_permutations(n, permutations, rng, method)
    count = perms.shape[1]
    rows, cols = _upper_triangle(n)
    lengths = np.asarray(lengths)
    scale = math.lcm(*set(np.maximum(lengths[rows], lengths[cols]).tolist()) - {0})
    scaled = np.rint(signal * scale)  # exact while scale < 2^50
    y = sem_vec.astype(np.intp)
    modal = int(np.bincount(y).argmax())
    offset_pairs = np.flatnonzero(y != modal)
    weights = sem_vec[offset_pairs] - modal
    bound = int(scaled.max()) * int(np.abs(weights).sum())  # of any offset
    if scale >= 2**50 or bound * bound * count >= 2**63:
        return _float_mantel(sem_vec, signal, perms, method)

    # the offset Σ_{y≠m} (y − m)·x_π of each permutation, a block at a time
    flat = scaled.ravel()
    offset_rows, offset_cols = rows[offset_pairs], cols[offset_pairs]
    offsets = np.empty(count)
    for start in range(0, count, EXACT_MANTEL_BLOCK_COLUMNS):
        block = perms[:, start : start + EXACT_MANTEL_BLOCK_COLUMNS]
        index = block[offset_rows] * n
        index += block[offset_cols]
        offsets[start : start + block.shape[1]] = np.take(flat, index).T @ weights
    ints = offsets.astype(np.int64)
    sum_d, sum_dd = int(ints.sum()), int((ints * ints).sum())
    spread = count * sum_dd - sum_d * sum_d
    if spread == 0:
        return _float_mantel(sem_vec, signal, perms, method)

    # observed r from exact sums over every pair, in Python ints
    x = scaled[rows, cols].astype(np.int64)
    offset_obs = int(x[offset_pairs] @ (y[offset_pairs] - modal))  # below 2^61
    x, y = x.tolist(), y.tolist()
    pairs, sum_x, sum_y = len(x), sum(x), sum(y)
    dot_obs = modal * sum_x + offset_obs
    variance_x = pairs * sum(v * v for v in x) - sum_x * sum_x
    variance_y = pairs * sum(v * v for v in y) - sum_y * sum_y
    root = math.sqrt(variance_x * variance_y)
    observed_r = (pairs * dot_obs - sum_x * sum_y) / root
    permuted_r = observed_r + (offsets - offset_obs) * (pairs / root)
    z = (count * offset_obs - sum_d) / math.sqrt(spread)
    return _topsim_result(z, observed_r, permuted_r, method)


def ngram_diversity(signals: Sequence[str]) -> float:
    """Mean over N of distinct/total character N-grams pooled across signals.

    Orders with no grams at all (every signal shorter than N) are excluded
    from the mean.
    """
    fractions = []
    for n in NGRAM_ORDERS:
        grams = [signal[i : i + n] for signal in signals for i in range(len(signal) - n + 1)]
        if grams:
            fractions.append(len(set(grams)) / len(grams))
    if not fractions:
        raise EmptyInputError("no signals long enough for any N-gram order")
    return float(np.mean(fractions))


def generalization_score(
    train: Sequence[tuple[Stimulus, Signal]],
    test: Sequence[tuple[Stimulus, Signal]],
    pairs: str = "cross",
    memo: dict[tuple[Signal, Signal], float] | None = None,
) -> float:
    """Correlation between semantic and signal distances over stimulus pairs.

    pairs="cross" uses all train x test pairs; pairs="all" uses every
    unordered pair within the pooled train+test items. memo is as for
    signal_distance_matrix.
    """
    if not train or not test:
        raise EmptyInputError("train and test must be non-empty")
    if pairs == "cross":
        pair_list = [(a, b) for a in train for b in test]
    elif pairs == "all":
        pair_list = list(itertools.combinations(list(train) + list(test), 2))
    else:
        raise ValueError(f"unknown pair definition {pairs!r}")
    sem = [semantic_distance(a[0], b[0]) for a, b in pair_list]
    sig = _distances([(a[1], b[1]) for a, b in pair_list], memo)
    return pearson(sem, sig)


def communicative_success_rate(records: Iterable, round: int | None = None) -> float:
    """Fraction of interaction records with success; optionally one round only."""
    selected = [r for r in records if round is None or r.round == round]
    if not selected:
        raise EmptyInputError("no interaction records" + (f" for round {round}" if round else ""))
    return sum(1 for r in selected if r.success) / len(selected)


def unique_signal_ratio(signals: Sequence[str]) -> float:
    if not signals:
        raise EmptyInputError("no signals")
    return len(set(signals)) / len(signals)


def mean_signal_length(signals: Sequence[str]) -> float:
    if not signals:
        raise EmptyInputError("no signals")
    return float(np.mean([len(s) for s in signals]))


@dataclass
class MetricReport:
    """Structure measurements of one vocabulary snapshot."""

    topsim: TopSimResult | None
    ngram_diversity: float | None = None
    mean_signal_length: float | None = None
    unique_signal_ratio: float | None = None
    degenerate: bool = False


def vocabulary_report(
    pairs: Sequence[tuple[Stimulus, Signal]],
    permutations: int = DEFAULT_PERMUTATIONS,
    rng=None,
    memo: SignalMemo | None = None,
    exact: bool = False,
) -> MetricReport:
    """MetricReport over (stimulus, signal) pairs, the one measure of a
    vocabulary (metric rows, replay, donor selection, ``refgame metrics``);
    degenerate TopSim is flagged, not raised, so reporting never aborts a
    run. Fewer than 3 pairs (failed testing productions), or signals that
    are all empty, give a degenerate report with no measurements. ``rng``
    is a numpy Generator or an integer seed. The signals' measures come
    from ``memo``, measured there when missing; the Mantel test runs on
    every call, through ``exact_mantel_test`` when ``exact`` is set (its Z
    and r agree with ``mantel_test``'s to rounding, not to the bit) and
    through ``mantel_test`` otherwise."""
    words = [w for _, w in pairs]
    if len(pairs) < 3 or not any(words):  # no N-gram in signals that are all empty
        return MetricReport(topsim=None, degenerate=True)
    signals = (memo or SignalMemo()).measures(words)
    semantic = semantic_distance_matrix([s for s, _ in pairs])
    try:
        if exact:
            lengths = [len(w) for w in words]
            topsim = exact_mantel_test(semantic, signals.matrix, lengths, permutations=permutations, rng=rng)
        else:
            topsim = mantel_test(semantic, signals.matrix, permutations=permutations, rng=rng)
        degenerate = False
    except DegenerateMatrixError:
        topsim = None
        degenerate = True
    return MetricReport(
        topsim=topsim,
        ngram_diversity=signals.ngram_diversity,
        mean_signal_length=signals.mean_signal_length,
        unique_signal_ratio=signals.unique_signal_ratio,
        degenerate=degenerate,
    )
