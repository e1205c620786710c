import copy
import itertools
import json
import pickle
import re
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import DataclassStimulus, stimulus_sampling_training_set
from refgame.domain import (
    AMOUNTS,
    COLOURS,
    CONSONANTS,
    MAX_SYLLABLES,
    MIN_SYLLABLES,
    SHAPES,
    VOWELS,
    DomainError,
    Stimulus,
    TrainTestSplit,
    Vocabulary,
    VocabularyEntry,
    VocabularyFormatError,
    enumerate_stimuli,
    format_vocab_line,
    generate_language,
    parse_vocab_line,
    random_signal,
    sample_training_set,
)

CV_SIGNAL_RE = re.compile(rf"^(?:[{CONSONANTS}][{VOWELS}]){{{MIN_SYLLABLES},{MAX_SYLLABLES}}}$")


def is_cv_signal(text: str) -> bool:
    """True when text is 2-4 CV syllables over the fixed alphabet."""
    return bool(CV_SIGNAL_RE.match(text))


class TestStimulus:
    def test_valid_fields(self):
        s = Stimulus(2, "orange", 3)
        assert (s.shape, s.colour, s.amount) == tuple(s) == (2, "orange", 3)

    @pytest.mark.parametrize(
        "shape,colour,amount",
        [(0, "blue", 1), (4, "blue", 1), (1, "red", 1), (1, "blue", 0), (1, "blue", 5)],
    )
    def test_out_of_domain_rejected(self, shape, colour, amount):
        with pytest.raises(DomainError):
            Stimulus(shape, colour, amount)
        with pytest.raises(DomainError):
            Stimulus(shape=shape, colour=colour, amount=amount)

    def test_same_equality_hash_order_and_repr_as_the_dataclass(self):
        space = enumerate_stimuli()
        old = [DataclassStimulus(*s) for s in space]
        for s, o in zip(space, old):
            assert (hash(s), repr(s), str(s)) == (hash(o), repr(o), str(o))
            for t, p in zip(space, old):
                assert (s == t, s != t, s < t, s <= t, s > t, s >= t) == (
                    o == p, o != p, o < p, o <= p, o > p, o >= p
                )
        shuffled = list(space)
        Random(0).shuffle(shuffled)
        assert [DataclassStimulus(*s) for s in sorted(shuffled)] == sorted(old)

    def test_every_constructor_checks_the_space(self):
        s = Stimulus(1, "blue", 1)
        assert s._replace(amount=3) == Stimulus(1, "blue", 3)
        assert type(s._replace(amount=3)) is type(Stimulus._make([2, "green", 2])) is Stimulus
        with pytest.raises(DomainError, match="shape must be"):
            s._replace(shape=9)
        with pytest.raises(DomainError, match="shape must be"):
            Stimulus._make((9, "red", 7))
        with pytest.raises(DomainError, match="colour must be"):
            Stimulus._make((1, "red", 1))
        if hasattr(copy, "replace"):  # Python 3.13 and later
            with pytest.raises(DomainError, match="amount must be"):
                copy.replace(s, amount=0)
        assert copy.copy(s) == copy.deepcopy(s) == s

    def test_make_gives_the_space_s_own_stimulus(self):
        space = enumerate_stimuli()
        assert all(Stimulus._make(list(s)) is s for s in space)
        assert space[0]._replace(amount=2) is space[1]
        # a field that only equals an int is kept, as the constructor keeps it
        odd = Stimulus._make([True, "blue", 1])
        assert odd == space[0] and odd is not space[0]
        assert repr(odd) == "Stimulus(shape=True, colour='blue', amount=1)"

    def test_pickle_round_trip(self):
        for s in enumerate_stimuli():
            back = pickle.loads(pickle.dumps(s))
            assert back == s and type(back) is Stimulus

    def test_is_a_tuple_written_as_a_list(self):
        s = Stimulus(2, "orange", 3)
        assert s == (2, "orange", 3) and hash(s) == hash((2, "orange", 3))
        assert json.dumps({"stimulus": s, "candidates": (s, s)}) == (
            '{"stimulus": [2, "orange", 3], "candidates": [[2, "orange", 3], [2, "orange", 3]]}'
        )


class TestEnumeration:
    def test_27_distinct(self):
        space = enumerate_stimuli()
        assert len(space) == 27
        assert len(set(space)) == 27

    def test_first_element(self):
        assert enumerate_stimuli()[0] == Stimulus(1, "blue", 1)

    def test_exact_cartesian_product(self):
        expected = {
            Stimulus(s, c, a) for s, c, a in itertools.product(SHAPES, COLOURS, AMOUNTS)
        }
        assert set(enumerate_stimuli()) == expected

    def test_shape_major_order(self):
        space = enumerate_stimuli()
        assert [s.shape for s in space] == [1] * 9 + [2] * 9 + [3] * 9
        assert [s.amount for s in space[:3]] == [1, 2, 3]


class TestRandomSignal:
    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_cv_grammar(self, seed):
        signal = random_signal(Random(seed))
        assert is_cv_signal(signal)
        assert len(signal) in (4, 6, 8)

    def test_alphabet_closure(self):
        rng = Random(3)
        alphabet = set(CONSONANTS + VOWELS)
        for _ in range(200):
            assert set(random_signal(rng)) <= alphabet

    def test_syllable_counts_uniform(self):
        rng = Random(12345)
        counts = {2: 0, 3: 0, 4: 0}
        n = 10_000
        for _ in range(n):
            counts[len(random_signal(rng)) // 2] += 1
        for k in (2, 3, 4):
            assert abs(counts[k] / n - 1 / 3) < 0.02

    def test_wellformedness_examples(self):
        for example in ("nama", "nomomeme", "wipi", "hanopagu"):
            assert is_cv_signal(example)
        assert not is_cv_signal("na")  # too short
        assert not is_cv_signal("xela")  # consonant outside alphabet
        assert not is_cv_signal("nam")  # dangling consonant
        assert not is_cv_signal("nafa")  # f outside the 8-consonant alphabet


class TestTrainingSplit:
    def test_sizes(self):
        split = sample_training_set(Random(0))
        assert len(split.train) == 15
        assert len(split.test) == 12

    @given(st.integers(min_value=0, max_value=2**32))
    def test_balance_five_per_value(self, seed):
        split = sample_training_set(Random(seed))
        for value in SHAPES:
            assert sum(1 for s in split.train if s.shape == value) == 5
        for value in COLOURS:
            assert sum(1 for s in split.train if s.colour == value) == 5
        for value in AMOUNTS:
            assert sum(1 for s in split.train if s.amount == value) == 5

    def test_partition(self):
        split = sample_training_set(Random(5))
        assert set(split.train) | set(split.test) == set(enumerate_stimuli())
        assert not set(split.train) & set(split.test)

    def test_deterministic(self):
        assert sample_training_set(Random(7)) == sample_training_set(Random(7))

    def test_same_split_and_stream_as_sampling_stimuli(self):
        for seed in range(300):
            ours, theirs = Random(seed), Random(seed)
            assert sample_training_set(ours) == stimulus_sampling_training_set(theirs)
            assert ours.getstate() == theirs.getstate()

    def test_split_shape_validated(self):
        space = enumerate_stimuli()
        with pytest.raises(DomainError):
            TrainTestSplit(train=tuple(space[:14]), test=tuple(space[14:]))


class TestGenerateLanguage:
    def test_distinct_signals_and_zero_flags(self):
        vocab = generate_language(Random(2), enumerate_stimuli())
        assert len(vocab) == 27
        assert len({e.signal for e in vocab}) == 27
        assert all(e.communicative_success == 0 for e in vocab)

    def test_deterministic(self):
        a = generate_language(Random(9), enumerate_stimuli())
        b = generate_language(Random(9), enumerate_stimuli())
        assert a == b

    def test_signals_wellformed(self):
        vocab = generate_language(Random(4), enumerate_stimuli())
        assert all(is_cv_signal(w) for _, w in vocab.pairs())


class TestVocabulary:
    def test_no_duplicate_stimuli(self):
        s = Stimulus(1, "blue", 1)
        with pytest.raises(DomainError):
            Vocabulary([VocabularyEntry(s, "nafa"), VocabularyEntry(s, "watopo")])

    def test_flag_domain(self):
        with pytest.raises(DomainError):
            VocabularyEntry(Stimulus(1, "blue", 1), "nafa", 2)

    def test_update_existing_and_append(self):
        vocab = Vocabulary([VocabularyEntry(Stimulus(1, "blue", 1), "nafa")])
        vocab.update(Stimulus(1, "blue", 1), "watopo", 1)
        assert vocab.signal_for(Stimulus(1, "blue", 1)) == "watopo"
        assert list(vocab)[0].communicative_success == 1
        vocab.update(Stimulus(2, "green", 2), "gigi", 0)
        assert len(vocab) == 2

    def test_copy_is_independent(self):
        vocab = Vocabulary([VocabularyEntry(Stimulus(1, "blue", 1), "nafa")])
        clone = vocab.copy()
        clone.update(Stimulus(1, "blue", 1), "gigi", 0)
        assert vocab.signal_for(Stimulus(1, "blue", 1)) == "nafa"


# a vocabulary's entries as stimulus positions and signals, then updates
# (position, signal, flag) and copies (None), in order
vocabulary_histories = st.tuples(
    st.dictionaries(st.integers(0, 26), st.sampled_from(["gali", "nemo", "puwa"]), max_size=27),
    st.lists(
        st.none() | st.tuples(st.integers(0, 26), st.sampled_from(["gali", "wete", ""]), st.integers(0, 1)),
        max_size=40,
    ),
)


class TestVocabularyIndex:
    @given(vocabulary_histories)
    def test_lookups_match_a_linear_scan(self, history):
        space = enumerate_stimuli()
        initial, steps = history
        vocab = Vocabulary(VocabularyEntry(space[i], w) for i, w in initial.items())
        seen = [vocab]
        for step in steps:
            if step is None:
                vocab = vocab.copy()
                seen.append(vocab)
            else:
                i, signal, flag = step
                vocab.update(space[i], signal, flag)
        # every copy still answers from its own entries
        for each in seen:
            for stimulus in space:
                scan = [e for e in each if e.stimulus == stimulus]
                assert (stimulus in each) == bool(scan)
                if scan:
                    assert each.signal_for(stimulus) == scan[0].signal
                else:
                    with pytest.raises(KeyError):
                        each.signal_for(stimulus)


class TestVocabularyFile:
    def test_line_format(self):
        entry = VocabularyEntry(Stimulus(2, "orange", 2), "sanu")
        assert (
            format_vocab_line(entry)
            == "{'shape':2,'colour':'orange','amount':2,'word':'sanu'}"
        )
        assert (
            format_vocab_line(entry, include_success=True)
            == "{'shape':2,'colour':'orange','amount':2,'word':'sanu','communicativeSuccess':0}"
        )

    def test_parse_line(self):
        entry, had = parse_vocab_line("{'shape':1,'colour':'green','amount':3,'word':'hanosa'}")
        assert entry.stimulus == Stimulus(1, "green", 3)
        assert entry.signal == "hanosa"
        assert not had
        entry, had = parse_vocab_line(
            "{'shape':3,'colour':'blue','amount':1,'word':'wipisu','communicativeSuccess':1}"
        )
        assert had and entry.communicative_success == 1

    def test_parse_error_carries_line_number(self):
        with pytest.raises(VocabularyFormatError, match="line 4"):
            raise VocabularyFormatError("bad entry", line_number=4)

    def test_roundtrip_bit_exact(self, tmp_path):
        vocab = generate_language(Random(3), enumerate_stimuli()[:15])
        path = tmp_path / "plain.vocab"
        vocab.save(path)
        assert Vocabulary.load(path) == vocab
        first = path.read_text()
        Vocabulary.load(path).save(path)
        assert path.read_text() == first

    @given(st.integers(min_value=0, max_value=2**32), st.booleans())
    def test_roundtrip_any_generated_vocabulary(self, seed, with_flags):
        import tempfile
        from pathlib import Path

        rng = Random(seed)
        vocab = generate_language(rng, rng.sample(enumerate_stimuli(), 9))
        if with_flags:
            vocab.update(vocab.stimuli()[0], vocab.pairs()[0][1], 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "v.vocab"
            vocab.save(path, include_success=with_flags)
            assert Vocabulary.load(path) == vocab

    def test_roundtrip_with_success_flags(self, tmp_path):
        vocab = generate_language(Random(3), enumerate_stimuli()[:5])
        vocab.update(vocab.stimuli()[0], vocab.pairs()[0][1], 1)
        path = tmp_path / "flags.vocab"
        first = vocab.save(path, include_success=True)
        loaded = Vocabulary.load(path)
        assert loaded == vocab
        assert loaded.save(path, include_success=True) == first
        assert Vocabulary.load(path) == vocab

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "broken.vocab"
        path.write_text(
            "{'shape':1,'colour':'green','amount':3,'word':'hanosa'}\n"
            "{'shape':9,'colour':'green','amount':3,'word':'x'}\n"
        )
        with pytest.raises(VocabularyFormatError, match="line 2"):
            Vocabulary.load(path)

    def test_inconsistent_success_keys_rejected(self, tmp_path):
        path = tmp_path / "mixed.vocab"
        path.write_text(
            "{'shape':1,'colour':'green','amount':3,'word':'hanosa'}\n"
            "{'shape':2,'colour':'green','amount':3,'word':'sanu','communicativeSuccess':0}\n"
        )
        with pytest.raises(VocabularyFormatError):
            Vocabulary.load(path)

    def test_golden_files_load(self, golden_train, golden_test):
        assert len(golden_train) == 15
        assert len(golden_test) == 12
        assert set(golden_train.stimuli()) | set(golden_test.stimuli()) == set(
            enumerate_stimuli()
        )
