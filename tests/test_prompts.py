from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import parse_vocabulary_line
from refgame.domain import Stimulus, VocabularyEntry, enumerate_stimuli, generate_language, sample_training_set
from refgame.prompts import (
    LABELLING_INSTRUCTION,
    LISTENING_INSTRUCTION,
    SPEAKING_INSTRUCTION,
    StimulusMissingError,
    UnparseableResponseError,
    build_guessing_prompt,
    build_labelling_prompt,
    build_listener_prompt,
    build_speaker_prompt,
    meaning_continuation,
    parse_signal_response,
    render_entry,
    render_listener_entry,
    word_continuation,
)


def sample_vocab(seed=0):
    split = sample_training_set(Random(seed))
    return generate_language(Random(seed), split.train)


class TestRendering:
    def test_entry_exact(self):
        entry = VocabularyEntry(Stimulus(2, "orange", 2), "sanu")
        assert render_entry(entry) == "{'shape':2,'colour':'orange','amount':2,'word':'sanu'}"

    def test_entry_with_success(self):
        entry = VocabularyEntry(Stimulus(1, "green", 3), "sutupitite", 1)
        assert (
            render_entry(entry, include_success=True)
            == "{'shape':1,'colour':'green','amount':3,'word':'sutupitite','communicativeSuccess':1}"
        )

    def test_listener_entry_word_first(self):
        entry = VocabularyEntry(Stimulus(3, "blue", 3), "wipipitite", 1)
        assert (
            render_listener_entry(entry)
            == "{'word':'wipipitite','shape':3,'colour':'blue','amount':3,'communicativeSuccess':1}"
        )

    def test_roundtrip_both_orders(self):
        entry = VocabularyEntry(Stimulus(2, "green", 1), "ginisu", 1)
        assert parse_vocabulary_line(render_entry(entry, include_success=True)) == entry
        assert parse_vocabulary_line(render_listener_entry(entry)) == entry
        plain = VocabularyEntry(Stimulus(2, "green", 1), "ginisu", 0)
        assert parse_vocabulary_line(render_entry(plain)) == plain


class TestLabellingPrompt:
    def test_stem_open_quote(self):
        vocab = sample_vocab()
        target = vocab.stimuli()[0]
        prompt = build_labelling_prompt(vocab, target, Random(1))
        assert prompt.stem.endswith("'word':'")
        assert not prompt.stem.endswith("'word':''")
        assert prompt.system_instruction == LABELLING_INSTRUCTION

    def test_context_includes_target(self):
        vocab = sample_vocab()
        target = vocab.stimuli()[3]
        prompt = build_labelling_prompt(vocab, target, Random(1))
        assert len(prompt.vocabulary_lines) == 15
        target_line = render_entry(vocab.entry_for(target))
        assert target_line in prompt.vocabulary_lines

    def test_missing_stimulus_rejected(self):
        vocab = sample_vocab()
        missing = next(s for s in enumerate_stimuli() if s not in vocab)
        with pytest.raises(StimulusMissingError):
            build_labelling_prompt(vocab, missing, Random(1))

    def test_deterministic_for_equal_rng_state(self):
        vocab = sample_vocab()
        target = vocab.stimuli()[0]
        a = build_labelling_prompt(vocab, target, Random(99))
        b = build_labelling_prompt(vocab, target, Random(99))
        assert a == b
        assert a.user_text() == b.user_text()

    def test_shuffle_varies_order_not_content(self):
        vocab = sample_vocab()
        target = vocab.stimuli()[0]
        a = build_labelling_prompt(vocab, target, Random(1))
        b = build_labelling_prompt(vocab, target, Random(2))
        assert sorted(a.vocabulary_lines) == sorted(b.vocabulary_lines)
        assert a.vocabulary_lines != b.vocabulary_lines

    def test_guessing_prefills_word(self):
        vocab = sample_vocab()
        target = vocab.stimuli()[0]
        prompt, other = build_guessing_prompt(vocab, target, ["hanosa", "gali"], Random(1))
        assert (prompt.continuation, other.continuation) == ("hanosa'}", "gali'}")
        assert word_continuation("hanosa") == "hanosa'}"
        # one context, shuffled as a labelling prompt from the same rng state
        labelling = build_labelling_prompt(vocab, target, Random(1))
        assert prompt.vocabulary_lines is other.vocabulary_lines
        assert prompt.vocabulary_lines == labelling.vocabulary_lines


class TestSpeakerPrompt:
    def test_success_field_rendered(self):
        vocab = sample_vocab()
        vocab.entries[1].communicative_success = 1
        target = vocab.stimuli()[0]
        prompt = build_speaker_prompt(vocab, target, Random(1))
        flagged = render_entry(vocab.entries[1], include_success=True)
        assert flagged in prompt.vocabulary_lines
        assert "'communicativeSuccess':1" in flagged

    def test_target_excluded(self):
        vocab = sample_vocab()
        target = vocab.stimuli()[5]
        prompt = build_speaker_prompt(vocab, target, Random(1))
        assert len(prompt.vocabulary_lines) == 14
        prefix = f"{{'shape':{target.shape},'colour':'{target.colour}','amount':{target.amount},"
        assert not any(line.startswith(prefix) for line in prompt.vocabulary_lines)
        assert prompt.stem.startswith(prefix)

    def test_out_of_vocab_target_keeps_all_lines(self):
        vocab = sample_vocab()
        unseen = next(s for s in enumerate_stimuli() if s not in vocab)
        prompt = build_speaker_prompt(vocab, unseen, Random(1))
        assert len(prompt.vocabulary_lines) == 15
        assert prompt.system_instruction == SPEAKING_INSTRUCTION


class TestListenerPrompt:
    def test_word_first_lines_and_stem(self):
        vocab = sample_vocab()
        candidate = vocab.stimuli()[2]
        (prompt,) = build_listener_prompt(vocab, "hanosa", [candidate], Random(1))
        assert all(line.startswith("{'word':'") for line in prompt.vocabulary_lines)
        assert prompt.stem == "{'word':'hanosa','shape':"

    def test_continuation_attribute_order(self):
        candidate = Stimulus(2, "blue", 2)
        assert meaning_continuation(candidate) == "2,'colour':'blue','amount':2}"

    def test_exclusion(self):
        vocab = sample_vocab()
        target = vocab.stimuli()[4]
        (prompt,) = build_listener_prompt(vocab, "hanosa", [vocab.stimuli()[0]], Random(1), exclude=target)
        assert len(prompt.vocabulary_lines) == 14
        excluded_fragment = f"'shape':{target.shape},'colour':'{target.colour}','amount':{target.amount}"
        assert not any(excluded_fragment in line for line in prompt.vocabulary_lines)

    def test_one_prompt_per_candidate_shared_context(self):
        vocab = sample_vocab()
        candidates = vocab.stimuli()[:4]
        prompts = build_listener_prompt(vocab, "hanosa", candidates, Random(77), exclude=vocab.stimuli()[5])
        assert len(prompts) == 4
        assert len({p.vocabulary_lines for p in prompts}) == 1
        assert len({p.continuation for p in prompts}) == 4
        assert prompts[0].system_instruction == LISTENING_INSTRUCTION


class TestParseSignalResponse:
    def test_strips_delimiters(self):
        assert parse_signal_response("ninikonu'}") == "ninikonu"

    def test_strips_whitespace(self):
        assert parse_signal_response(" sutupepi\n") == "sutupepi"

    def test_no_letters(self):
        with pytest.raises(UnparseableResponseError):
            parse_signal_response("```\n```")

    def test_empty(self):
        with pytest.raises(UnparseableResponseError):
            parse_signal_response("   ")

    def test_too_long(self):
        with pytest.raises(UnparseableResponseError):
            parse_signal_response("a" * 40)

    def test_arbitrary_lowercase_accepted(self):
        # parsed signals need not match the CV grammar
        assert parse_signal_response("xyzzy") == "xyzzy"

    def test_prefix_up_to_punctuation(self):
        assert parse_signal_response("hanosa', 'shape'") == "hanosa"

    @given(st.text(max_size=60))
    def test_parses_or_raises_never_crashes(self, raw):
        try:
            signal = parse_signal_response(raw)
        except UnparseableResponseError:
            return
        assert signal
        assert len(signal) <= 32
        assert signal.islower() and signal.isalpha()
