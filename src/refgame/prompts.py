"""Prompt construction for the four task shapes, plus response parsing.

Vocabulary context lines use a brace-delimited key-value syntax, e.g.
``{'shape':2,'colour':'orange','amount':2,'word':'sanu'}``, optionally
extended with a communicativeSuccess flag during communication. Listener
prompts render entries word-first. Context lines are freshly shuffled per
task; completion prompts end in a partial line (the stem) for the model to
continue, scoring prompts additionally carry the candidate continuation to
be ranked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from random import Random
from typing import Sequence

from .domain import (
    Signal,
    Stimulus,
    Vocabulary,
    VocabularyEntry,
    format_vocab_line,
)

MAX_PARSED_SIGNAL_LENGTH = 32

LABELLING_INSTRUCTION = (
    "You are a language learner who has to learn an artificial language with "
    "words and their corresponding features. Your task is to complete the "
    "vocabulary by generating a word that describes the last item. Only "
    "respond with the word."
)

SPEAKING_INSTRUCTION = (
    "You are a language learner who has to learn an artificial language with "
    "words and their corresponding features. Your task is to generate a word "
    "such that your communication partner can guess the correct meaning of "
    "the word. Communicative success is important. Only respond with the word."
)

LISTENING_INSTRUCTION = (
    "You are a language learner who has to learn an artificial language with "
    "words and their corresponding features. Your task is to complete the "
    "vocabulary by interpreting the intended meaning of the word generated by "
    "your communication partner. Communicative success is important. Only "
    "respond with the complete last item."
)


class PromptTask(Enum):
    LABELLING = "labelling"
    GUESSING = "guessing"
    SPEAKING = "speaking"
    LISTENING = "listening"


class PromptError(Exception):
    pass


class StimulusMissingError(PromptError):
    """Labelling requires the target stimulus to be present in the vocabulary."""


class UnparseableResponseError(PromptError):
    """No signal could be extracted from a model response."""


@dataclass(frozen=True)
class Prompt:
    """One rendered task: instruction, shuffled context lines, and a stem.

    The stem is the partial final line the model continues. For scoring tasks
    ``continuation`` holds the prefilled candidate text whose probability is
    compared across candidates.
    """

    system_instruction: str
    vocabulary_lines: tuple[str, ...]
    stem: str
    continuation: str | None = None

    def user_text(self) -> str:
        return "\n".join((*self.vocabulary_lines, self.stem))


# the context-line grammar and the vocabulary file format are one and the same
render_entry = format_vocab_line


def render_listener_entry(entry: VocabularyEntry) -> str:
    s = entry.stimulus
    return (
        f"{{'word':'{entry.signal}','shape':{s.shape},'colour':'{s.colour}',"
        f"'amount':{s.amount},'communicativeSuccess':{entry.communicative_success}}}"
    )


def completion_stem(stimulus: Stimulus) -> str:
    return f"{{'shape':{stimulus.shape},'colour':'{stimulus.colour}','amount':{stimulus.amount},'word':'"


def word_continuation(signal: Signal) -> str:
    """Candidate continuation for a word-prefilled completion prompt."""
    return f"{signal}'}}"


def listener_stem(signal: Signal) -> str:
    return f"{{'word':'{signal}','shape':"


def meaning_continuation(candidate: Stimulus) -> str:
    """Candidate continuation for a listener prompt, attribute order shape, colour, amount."""
    return f"{candidate.shape},'colour':'{candidate.colour}','amount':{candidate.amount}}}"


def _shuffled(lines: list[str], rng: Random) -> tuple[str, ...]:
    shuffled = list(lines)
    rng.shuffle(shuffled)
    return tuple(shuffled)


def build_labelling_prompt(
    vocab: Vocabulary,
    stimulus: Stimulus,
    rng: Random,
) -> Prompt:
    """Completion prompt with the full vocabulary, target stimulus included.

    Used for the labelling block and (word-prefilled) for the guessing block.
    """
    if stimulus not in vocab:
        raise StimulusMissingError(f"{stimulus} not in vocabulary")
    lines = [render_entry(e) for e in vocab]
    return Prompt(
        system_instruction=LABELLING_INSTRUCTION,
        vocabulary_lines=_shuffled(lines, rng),
        stem=completion_stem(stimulus),
    )


def build_guessing_prompt(
    vocab: Vocabulary,
    stimulus: Stimulus,
    candidates: Sequence[Signal],
    rng: Random,
) -> list[Prompt]:
    """Labelling-shaped prompts for scoring, one per candidate word and
    prefilled with it; all share one context order, built once."""
    base = build_labelling_prompt(vocab, stimulus, rng)
    return [replace(base, continuation=word_continuation(candidate)) for candidate in candidates]


def build_speaker_prompt(
    vocab: Vocabulary,
    stimulus: Stimulus,
    rng: Random,
) -> Prompt:
    """Speaking prompt: success-flagged entries, current stimulus excluded."""
    lines = [render_entry(e, include_success=True) for e in vocab if e.stimulus != stimulus]
    return Prompt(
        system_instruction=SPEAKING_INSTRUCTION,
        vocabulary_lines=_shuffled(lines, rng),
        stem=completion_stem(stimulus),
    )


def build_listener_prompt(
    vocab: Vocabulary,
    signal: Signal,
    candidates: Sequence[Stimulus],
    rng: Random,
    exclude: Stimulus | None = None,
) -> list[Prompt]:
    """Listening prompts, one per candidate meaning, entries rendered
    word-first; all share one context order, built once.

    ``exclude`` removes the current target's entry from the context; the
    engine passes the target here since the listening agent itself does not
    know it.
    """
    lines = [render_listener_entry(e) for e in vocab if e.stimulus != exclude]
    context = _shuffled(lines, rng)
    return [
        Prompt(LISTENING_INSTRUCTION, context, listener_stem(signal), meaning_continuation(candidate))
        for candidate in candidates
    ]


_STRIP_CHARS = " \t\r\n'\"`{}()[]"
_SIGNAL_PREFIX_RE = re.compile(r"[a-z]+")


def parse_signal_response(raw: str) -> Signal:
    """Extract a signal from a raw model completion.

    Strips whitespace and quote/brace punctuation, then takes the longest
    prefix of lowercase letters. The result is not required to match the CV
    grammar; models may produce arbitrary strings.
    """
    cleaned = raw.strip(_STRIP_CHARS)
    match = _SIGNAL_PREFIX_RE.match(cleaned)
    if not match:
        raise UnparseableResponseError(f"no signal found in response {raw!r}")
    signal = match.group(0)
    if len(signal) > MAX_PARSED_SIGNAL_LENGTH:
        raise UnparseableResponseError(f"parsed signal too long ({len(signal)} chars)")
    return signal

