"""Meaning space, signal alphabet, vocabularies, and seeded generators.

Stimuli are (shape, colour, amount) triples from a 3x3x3 space. Signals are
strings of consonant-vowel syllables over a fixed 8-consonant / 5-vowel
alphabet. A Vocabulary is an ordered signal-meaning mapping, the unit that
gets learned, mutated during communication, and transmitted across
generations.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Iterable, Iterator

CONSONANTS = "ghklmnpw"
VOWELS = "aeiou"
SHAPES = (1, 2, 3)
COLOURS = ("blue", "green", "orange")
AMOUNTS = (1, 2, 3)

STIMULUS_SPACE_SIZE = 27
TRAIN_SIZE = 15
TEST_SIZE = 12
PER_VALUE_TRAIN_COUNT = 5  # each attribute value appears this often in train

MIN_SYLLABLES = 2
MAX_SYLLABLES = 4

# Cap on rejection-sampling attempts for the balanced split; balanced
# 15-subsets are plentiful so this is never hit in practice.
SPLIT_ATTEMPT_CAP = 10_000


class DomainError(Exception):
    """Invalid domain value or malformed vocabulary file."""


class VocabularyFormatError(DomainError):
    """A vocabulary file line does not parse."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class Stimulus(namedtuple("Stimulus", ("shape", "colour", "amount"))):
    """A ``(shape, colour, amount)`` triple from the 3x3x3 space.

    A tuple of its three fields, with their names: equality, hash and
    ordering are those of that tuple (so a Stimulus equals the plain tuple
    of its fields), ``json.dumps`` writes it as ``[shape, colour, amount]``,
    and the repr is ``Stimulus(shape=1, colour='blue', amount=1)``.
    Constructing one outside the space raises ``DomainError``, also through
    ``_make`` and so ``_replace`` and ``copy.replace``. ``_make`` of an
    int, a str and an int gives the space's own Stimulus, not a new one.
    """

    __slots__ = ()

    def __new__(cls, shape: int, colour: str, amount: int):
        if shape not in SHAPES:
            raise DomainError(f"shape must be in {SHAPES}, got {shape!r}")
        if colour not in COLOURS:
            raise DomainError(f"colour must be in {COLOURS}, got {colour!r}")
        if amount not in AMOUNTS:
            raise DomainError(f"amount must be in {AMOUNTS}, got {amount!r}")
        return tuple.__new__(cls, (shape, colour, amount))

    @classmethod
    def _make(cls, iterable) -> Stimulus:
        fields = tuple(iterable)
        canonical = _CANONICAL.get(fields)
        # a field that only equals a canonical one (True for 1) is kept as given
        if canonical is not None and tuple(map(type, fields)) == (int, str, int):
            return canonical
        return cls(*fields)


# Signals are plain strings. Freshly generated ones are 2-4 CV syllables over
# the fixed alphabet; signals produced by a model are kept verbatim and may be
# arbitrary text.
Signal = str


_STIMULUS_SPACE = tuple(
    Stimulus(shape, colour, amount) for shape in SHAPES for colour in COLOURS for amount in AMOUNTS
)
_CANONICAL = {stimulus: stimulus for stimulus in _STIMULUS_SPACE}


def enumerate_stimuli() -> list[Stimulus]:
    """All 27 stimuli in canonical order: shape-major, then colour, then amount."""
    return list(_STIMULUS_SPACE)


def random_signal(rng: Random) -> Signal:
    """A fresh signal of 2, 3, or 4 uniformly drawn CV syllables."""
    n_syllables = rng.randint(MIN_SYLLABLES, MAX_SYLLABLES)
    return "".join(
        rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n_syllables)
    )


@dataclass
class VocabularyEntry:
    stimulus: Stimulus
    signal: Signal
    communicative_success: int = 0

    def __post_init__(self):
        if self.communicative_success not in (0, 1):
            raise DomainError(
                f"communicative_success must be 0 or 1, got {self.communicative_success!r}"
            )


class Vocabulary:
    """Ordered signal-meaning entries, at most one entry per stimulus: one
    mapping from each stimulus to its entry, in entry order.

    The file format is decided by whoever saves: ``save`` writes the
    communicativeSuccess key only when asked (``save_simulation`` asks for
    the round snapshots), and ``load`` reads either form.
    """

    def __init__(self, entries: Iterable[VocabularyEntry] = ()):
        self._entries: dict[Stimulus, VocabularyEntry] = {}
        for entry in entries:
            if entry.stimulus in self._entries:
                raise DomainError(f"duplicate stimulus {entry.stimulus}")
            self._entries[entry.stimulus] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[VocabularyEntry]:
        return iter(self._entries.values())

    def __contains__(self, stimulus: Stimulus) -> bool:
        return stimulus in self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return list(self) == list(other)

    def stimuli(self) -> list[Stimulus]:
        return list(self._entries)

    def pairs(self) -> list[tuple[Stimulus, Signal]]:
        return [(e.stimulus, e.signal) for e in self]

    def signal_for(self, stimulus: Stimulus) -> Signal:
        return self._entries[stimulus].signal

    def update(self, stimulus: Stimulus, signal: Signal, communicative_success: int) -> None:
        """Set the entry for stimulus to (signal, flag), appending if absent."""
        entry = self._entries.get(stimulus)
        if entry is not None:
            entry.signal = signal
            entry.communicative_success = communicative_success
            return
        self._entries[stimulus] = VocabularyEntry(stimulus, signal, communicative_success)

    def copy(self) -> "Vocabulary":
        return Vocabulary(VocabularyEntry(e.stimulus, e.signal, e.communicative_success) for e in self)

    def save(self, path: str | Path, include_success: bool = False) -> bytes:
        """Write the vocabulary to ``path``, one line per entry, each with
        the communicativeSuccess key when ``include_success``, and return
        the bytes written."""
        lines = [format_vocab_line(e, include_success) for e in self]
        data = ("\n".join(lines) + "\n").encode()
        Path(path).write_bytes(data)
        return data

    @classmethod
    def load(cls, path: str | Path, data: bytes | None = None) -> "Vocabulary":
        """The vocabulary of the file at ``path`` or, given its bytes as
        ``data``, of those, with or without the communicativeSuccess key; a
        file that is not UTF-8, has a line that does not parse, mixes lines
        with and without the key or gives a stimulus twice raises
        ``VocabularyFormatError``, whose message starts with ``path``."""
        try:
            text = (Path(path).read_bytes() if data is None else data).decode()
        except UnicodeDecodeError as err:
            raise VocabularyFormatError(f"{path} cannot be decoded: {err}") from None
        try:
            parsed = [
                parse_vocab_line(line, line_number=number)
                for number, line in enumerate(text.splitlines(), start=1)
                if line.strip()
            ]
        except VocabularyFormatError as err:
            raise VocabularyFormatError(f"{path}: {err}") from None
        if len({had_success for _, had_success in parsed}) > 1:
            raise VocabularyFormatError(f"{path}: inconsistent communicativeSuccess keys across lines")
        try:
            return cls(entry for entry, _ in parsed)
        except DomainError as err:  # a stimulus given twice
            raise VocabularyFormatError(f"{path}: {err}") from None


_VOCAB_LINE_RE = re.compile(
    r"^\{'shape':(?P<shape>[123]),'colour':'(?P<colour>blue|green|orange)',"
    r"'amount':(?P<amount>[123]),'word':'(?P<word>[^']*)'"
    r"(?:,'communicativeSuccess':(?P<success>[01]))?\}$"
)


def format_vocab_line(entry: VocabularyEntry, include_success: bool = False) -> str:
    """One brace-delimited key-value line, keys in shape, colour, amount, word order."""
    s = entry.stimulus
    line = f"{{'shape':{s.shape},'colour':'{s.colour}','amount':{s.amount},'word':'{entry.signal}'"
    if include_success:
        line += f",'communicativeSuccess':{entry.communicative_success}"
    return line + "}"


def parse_vocab_line(line: str, line_number: int | None = None) -> tuple[VocabularyEntry, bool]:
    match = _VOCAB_LINE_RE.match(line.strip())
    if not match:
        raise VocabularyFormatError(f"unparseable vocabulary entry: {line!r}", line_number)
    stimulus = Stimulus(
        shape=int(match["shape"]), colour=match["colour"], amount=int(match["amount"])
    )
    success = match["success"]
    entry = VocabularyEntry(stimulus, match["word"], int(success) if success else 0)
    return entry, success is not None


@dataclass(frozen=True)
class TrainTestSplit:
    train: tuple[Stimulus, ...]
    test: tuple[Stimulus, ...]

    def __post_init__(self):
        if len(self.train) != TRAIN_SIZE or len(self.test) != TEST_SIZE:
            raise DomainError(
                f"split must be {TRAIN_SIZE}/{TEST_SIZE}, got {len(self.train)}/{len(self.test)}"
            )
        if set(self.train) | set(self.test) != set(enumerate_stimuli()):
            raise DomainError("train and test must partition the 27-stimulus space")


# Position i of enumerate_stimuli() as 9 packed 4-bit counters, one per
# attribute value (shapes, then colours, then amounts); a value occurs at most
# 9 times in the space, so a sum of positions never carries between fields.
_PACKED_ATTRIBUTE_COUNTS = tuple(
    (1 << 4 * SHAPES.index(s.shape))
    + (1 << 4 * (3 + COLOURS.index(s.colour)))
    + (1 << 4 * (6 + AMOUNTS.index(s.amount)))
    for s in enumerate_stimuli()
)
_BALANCED_COUNTS = sum(PER_VALUE_TRAIN_COUNT << 4 * k for k in range(9))


# (pool size, bits per draw) of each draw of ``Random.sample(range(27), 15)``
_SAMPLE_DRAWS = tuple(
    (size, size.bit_length())
    for size in range(STIMULUS_SPACE_SIZE, STIMULUS_SPACE_SIZE - TRAIN_SIZE, -1)
)


def sample_training_set(rng: Random) -> TrainTestSplit:
    """Uniform balanced split: each attribute value occurs exactly 5 times in train.

    Rejection sampling over uniform 15-subsets; restarts deterministically from
    the rng stream, capped at SPLIT_ATTEMPT_CAP attempts.

    Each attempt is ``rng.sample(enumerate_stimuli(), 15)`` written out:
    CPython's pool algorithm for a population this small, each position
    drawn by ``getrandbits`` with the rejection loop of ``Random._randbelow``.
    So the split, and the state ``rng`` is left in, are those of that call;
    the domain tests check this against ``Random.sample`` on the
    interpreter they run on.
    """
    space = enumerate_stimuli()
    positions = list(range(len(space)))
    getrandbits = rng.getrandbits
    for _ in range(SPLIT_ATTEMPT_CAP):
        pool = positions.copy()
        picks = []
        for size, bits in _SAMPLE_DRAWS:
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            picks.append(pool[j])
            pool[j] = pool[size - 1]
        if sum(map(_PACKED_ATTRIBUTE_COUNTS.__getitem__, picks)) == _BALANCED_COUNTS:
            chosen = set(picks)
            test = tuple(s for i, s in enumerate(space) if i not in chosen)
            return TrainTestSplit(train=tuple(space[i] for i in picks), test=test)
    raise DomainError(f"no balanced split found in {SPLIT_ATTEMPT_CAP} attempts")


def generate_language(rng: Random, stimuli: Iterable[Stimulus]) -> Vocabulary:
    """A fresh holistic language: one random signal per stimulus, pairwise distinct.

    Duplicate draws are regenerated so every stimulus gets a unique signal;
    success flags start at 0.
    """
    entries = []
    used: set[Signal] = set()
    for stimulus in stimuli:
        signal = random_signal(rng)
        while signal in used:
            signal = random_signal(rng)
        used.add(signal)
        entries.append(VocabularyEntry(stimulus, signal, 0))
    return Vocabulary(entries)
