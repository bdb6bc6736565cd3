"""Marked words and existential projection.

A marked word is a pair (w, i) with 0 <= i < |w|.  Marked words embed
into words over the doubled alphabet whose letters carry a 0/1 tag
(rendered ``a#0`` / ``a#1``): the embedding tags the marked position 1
and every other position 0.  Projection drops the mark; existential
projection of a language over the doubled alphabet collects the words
admitting at least one marking inside the language.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import InputError
from .languages import Alphabet, Dfa, Word, _canonical, _check_alphabet, _check_indices
from .languages import _letter_indices
from .languages import _subset_dfa, intersection


@dataclass(frozen=True)
class ExtendedAlphabet:
    """The doubled alphabet: letters ``x#0``, ``x#1`` for each base ``x``,
    interleaved in base order."""

    base: Alphabet

    def __post_init__(self) -> None:
        _check_alphabet(self.base, "a base alphabet")

    @cached_property
    def ext(self) -> Alphabet:
        names = []
        for name in self.base.letters:
            names.append(f"{name}#0")
            names.append(f"{name}#1")
        return Alphabet(tuple(names))

    @staticmethod
    def match(alph: Alphabet) -> "ExtendedAlphabet | None":
        """Recover the base alphabet if `alph` has the doubled shape: the
        base is every other name without its last two characters."""
        try:
            ext = ExtendedAlphabet(Alphabet(tuple(name[:-2] for name in alph.letters[::2])))
        except InputError:
            return None
        return ext if ext.ext == alph else None


@dataclass(frozen=True)
class MarkedWord:
    """A word together with one marked position."""

    word: Word
    position: int

    def __post_init__(self) -> None:
        _check_indices((self.position,), len(self.word), "mark")

    @classmethod
    def parse(cls, alph: Alphabet, text: str) -> "MarkedWord":
        """Parse the ``w@i`` form, e.g. ``bab@0``."""
        if not isinstance(text, str) or "@" not in text:
            raise InputError(f"marked word needs the w@i form, got {text!r}")
        left, _, right = text.rpartition("@")
        try:
            pos = int(right)
        except ValueError as exc:
            raise InputError(f"bad mark position {right!r}") from exc
        return cls(Word.parse(alph, left), pos)

    def text(self) -> str:
        return f"{self.word.text()}@{self.position}"

    def __repr__(self) -> str:
        try:
            return f"MarkedWord({self.text()})"
        except InputError:  # a name holding both quote characters has no text
            return f"MarkedWord({self.word!r}, {self.position})"


def marked_words(w: Word) -> Iterator[MarkedWord]:
    for i in range(len(w)):
        yield MarkedWord(w, i)


# -- the three structure maps -------------------------------------------


def tag_unmarked(w: Word, ext: ExtendedAlphabet | None = None) -> Word:
    """Embed a plain word, tagging every position 0."""
    ext = ext or ExtendedAlphabet(w.alphabet)
    if ext.base != w.alphabet:
        raise InputError("word is not over the base alphabet")
    return Word(ext.ext, tuple(2 * i for i in w.indices))


def tag_marked(mw: MarkedWord, ext: ExtendedAlphabet | None = None) -> Word:
    """Embed a marked word, tagging the marked position 1, the rest 0."""
    ext = ext or ExtendedAlphabet(mw.word.alphabet)
    if ext.base != mw.word.alphabet:
        raise InputError("marked word is not over the base alphabet")
    return Word(
        ext.ext,
        tuple(
            2 * c + (1 if j == mw.position else 0)
            for j, c in enumerate(mw.word.indices)
        ),
    )


def strip_mark(mw: MarkedWord) -> Word:
    """Projection on the word component."""
    return mw.word


# -- the free-monoid biaction on marked words ----------------------------


def left_act(v: Word, mw: MarkedWord) -> MarkedWord:
    """(w, i) -> (vw, i + |v|)."""
    return MarkedWord(v + mw.word, mw.position + len(v))


def right_act(mw: MarkedWord, v: Word) -> MarkedWord:
    """(w, i) -> (wv, i)."""
    return MarkedWord(mw.word + v, mw.position)


# -- letter replacement and prefix extraction ----------------------------


def replace_at_mark(mw: MarkedWord, letter: "str | int") -> Word:
    """The word with the marked letter replaced by ``letter``."""
    alph = mw.word.alphabet
    (a,) = _letter_indices(alph, (letter,))
    idxs = list(mw.word.indices)
    idxs[mw.position] = a
    return Word(alph, tuple(idxs))


def prefix_to_mark(mw: MarkedWord) -> Word:
    """The strict prefix before the marked position."""
    return mw.word[: mw.position]


def suffix_after_mark(mw: MarkedWord) -> Word:
    """Everything after the marked position."""
    return mw.word[mw.position + 1 :]


# -- existential projection ----------------------------------------------


def one_mark_language(ext: ExtendedAlphabet) -> Dfa:
    """Words over the doubled alphabet carrying exactly one 1-tag."""
    k = len(ext.ext)
    # states: 0 no mark, 1 one mark, 2 too many
    rows = []
    for q, on_mark in ((0, 1), (1, 2), (2, 2)):
        rows.append(tuple(q if c % 2 == 0 else on_mark for c in range(k)))
    return _canonical(ext.ext, rows, {1}, 0)


def exists_projection(l: Dfa) -> Dfa:
    """The words admitting at least one marking that lands in ``l``.

    ``l`` is a language over a doubled alphabet; words with zero or
    several 1-tags are tolerated in ``l`` and ignored: the operation
    first intersects with the exactly-one-mark language, then projects
    the tags away by the subset construction over sets of the
    intersection's states, where a base letter reads both of its tags.
    """
    ext = ExtendedAlphabet.match(l.alphabet)
    if ext is None:
        raise InputError(
            f"alphabet {l.alphabet.letters} is not a doubled alphabet"
        )
    restricted = intersection(l, one_mark_language(ext))
    t, acc = restricted.transitions, restricted.accepting

    def step(s: frozenset[int]) -> Iterator[frozenset[int]]:
        for c in range(0, len(l.alphabet), 2):  # both tags of one base letter
            yield frozenset([t[q][c] for q in s] + [t[q][c + 1] for q in s])

    return _subset_dfa(
        ext.base, frozenset({restricted.initial}), step, lambda s: not acc.isdisjoint(s)
    )
