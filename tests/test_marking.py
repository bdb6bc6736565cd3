import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from langrec import (
    Alphabet,
    ExtendedAlphabet,
    InputError,
    MarkedWord,
    MonoidMorphism,
    Word,
    empty_language,
    enumerate_monoids,
    exists_projection,
    left_act,
    marked_words,
    nonempty_universal,
    one_mark_language,
    prefix_to_mark,
    regex_to_dfa,
    replace_at_mark,
    right_act,
    strip_mark,
    suffix_after_mark,
    tag_marked,
    tag_unmarked,
    universal_language,
)

AB = Alphabet(("a", "b"))
EXT = ExtendedAlphabet(AB)

words = st.builds(
    lambda idx: Word(AB, tuple(idx)), st.lists(st.integers(0, 1), max_size=8)
)
nonempty_words = st.builds(
    lambda idx: Word(AB, tuple(idx)), st.lists(st.integers(0, 1), min_size=1, max_size=8)
)
marked = nonempty_words.flatmap(
    lambda w: st.integers(0, len(w) - 1).map(lambda i: MarkedWord(w, i))
)


class TestTagging:
    def test_unmarked_empty(self):
        assert tag_unmarked(Word(AB, ())).indices == ()

    def test_unmarked_ab(self):
        assert tag_unmarked(AB.word("ab")).text() == "a#0 b#0"

    @given(words)
    def test_unmarked_preserves_length(self, w):
        assert len(tag_unmarked(w)) == len(w)

    def test_marked_examples(self):
        assert tag_marked(MarkedWord(AB.word("ab"), 0)).text() == "a#1 b#0"
        assert tag_marked(MarkedWord(AB.word("a"), 0)).text() == "a#1"

    def test_marked_image_is_exactly_one_mark_set(self):
        one = one_mark_language(EXT)
        images = set()
        for t in AB.tuples_upto(4, 1):
            w = Word(AB, t)
            for mw in marked_words(w):
                img = tag_marked(mw)
                assert one.accepts(img)
                images.add(img.indices)
        for t in EXT.ext.tuples_upto(4):
            if one.accepts(t):
                assert t in images

    @given(marked)
    def test_marked_is_injective_pointwise(self, mw):
        img = tag_marked(mw)
        ones = [j for j, c in enumerate(img.indices) if c % 2 == 1]
        assert ones == [mw.position]
        assert strip_mark(mw).indices == tuple(c // 2 for c in img.indices)


class TestBiactionOnMarkedWords:
    def test_projection_drops_mark(self):
        assert strip_mark(MarkedWord(AB.word("ab"), 1)) == AB.word("ab")

    @given(marked, words)
    def test_left_action_shifts_mark(self, mw, v):
        out = left_act(v, mw)
        assert out.word == v + mw.word
        assert out.position == mw.position + len(v)

    @given(marked, words)
    def test_right_action_keeps_mark(self, mw, v):
        out = right_act(mw, v)
        assert out.word == mw.word + v
        assert out.position == mw.position

    @given(marked, words)
    def test_tagging_preserves_actions(self, mw, v):
        # acting then tagging equals tagging then prepending the untagged image
        assert tag_marked(left_act(v, mw)) == tag_unmarked(v) + tag_marked(mw)
        assert tag_marked(right_act(mw, v)) == tag_marked(mw) + tag_unmarked(v)
        assert strip_mark(left_act(v, mw)) == v + strip_mark(mw)
        assert strip_mark(right_act(mw, v)) == strip_mark(mw) + v

    def test_preimage_count_is_length(self):
        for t in AB.tuples_upto(5):
            w = Word(AB, t)
            assert len(list(marked_words(w))) == len(w)


class TestReplacementMaps:
    def test_replace_example(self):
        assert replace_at_mark(MarkedWord(AB.word("bab"), 0), "a") == AB.word("aab")

    def test_prefix_example(self):
        assert prefix_to_mark(MarkedWord(AB.word("bab"), 2)) == AB.word("ba")

    @given(marked, st.integers(0, 1))
    def test_decomposition_law(self, mw, c):
        # replacement = prefix, the letter, then the untouched suffix
        got = replace_at_mark(mw, c)
        assert got == prefix_to_mark(mw) + Word(AB, (c,)) + suffix_after_mark(mw)

    def test_factorisation_lemma_at_principal_points(self):
        from langrec import marked_concat

        l = regex_to_dfa("ba", AB)
        ext = marked_concat(l, "a", universal_language(AB))
        mw = MarkedWord(AB.word("bab"), 2)
        assert l.accepts(prefix_to_mark(mw))
        assert ext.accepts(replace_at_mark(mw, "a"))


class TestExistsProjection:
    def test_single_marked_letter(self):
        l = regex_to_dfa("('a#0'|'b#0')* 'a#1' ('a#0'|'b#0')*", EXT.ext)
        assert exists_projection(l) == regex_to_dfa("(a|b)*a(a|b)*", AB)

    def test_empty(self):
        assert exists_projection(empty_language(EXT.ext)) == empty_language(AB)

    def test_everything_projects_to_nonempty_words(self):
        assert exists_projection(universal_language(EXT.ext)) == nonempty_universal(AB)

    def test_rejects_plain_alphabets(self):
        with pytest.raises(InputError):
            exists_projection(universal_language(AB))

    def test_brute_force_oracle_on_corpus(self):
        # corpus: marked-word languages recognised by seeded morphisms,
        # plus a few explicit shapes
        rng = random.Random(42)
        corpus = [
            regex_to_dfa("('a#0'|'b#0')* 'a#1' ('a#0'|'b#0')*", EXT.ext),
            regex_to_dfa("'b#0'* 'a#1' ('a#0'|'b#0')*", EXT.ext),
            regex_to_dfa("('a#0'|'a#1')*", EXT.ext),
            empty_language(EXT.ext),
        ]
        monoids = [m for n in (1, 2, 3) for m in enumerate_monoids(n)]
        while len(corpus) < 20:
            m = rng.choice(monoids)
            images = tuple(rng.randrange(m.size) for _ in range(4))
            accept = [x for x in range(m.size) if rng.random() < 0.5]
            corpus.append(MonoidMorphism(EXT.ext, m, images).preimage(accept))
        for l in corpus:
            projected = exists_projection(l)
            for t in AB.tuples_upto(5):
                w = Word(AB, t)
                expected = any(l.accepts(tag_marked(mw)) for mw in marked_words(w))
                assert projected.accepts(w) == expected


class TestMarkedWordParsing:
    def test_parse_and_render(self):
        mw = MarkedWord.parse(AB, "bab@0")
        assert mw.word == AB.word("bab") and mw.position == 0
        assert mw.text() == "bab@0"

    def test_position_bounds(self):
        with pytest.raises(InputError):
            MarkedWord(AB.word("ab"), 2)
        for bad in (-1, 2, True, False, 0.0, 1.0, "0", None):
            with pytest.raises(InputError, match=r" is not an integer in 0\.\.1$"):
                MarkedWord(AB.word("ab"), bad)
        with pytest.raises(InputError):
            MarkedWord.parse(AB, "ε@0")


class TestIteratedDoubling:
    def test_doubling_the_doubled_alphabet(self):
        # a second quantification layer treats the doubled alphabet as base
        ext2 = ExtendedAlphabet(EXT.ext)
        assert len(ext2.ext) == 8
        assert ext2.ext.letters[0] == "a#0#0"
        l = universal_language(ext2.ext)
        once = exists_projection(l)
        assert once.alphabet == EXT.ext
        twice = exists_projection(once)
        assert twice == nonempty_universal(AB)


def parsed_base(alph):
    """The doubled-alphabet parser ``ExtendedAlphabet.match`` once used:
    pairs of names ``x#0``, ``x#1`` with x non-empty, read pair by pair."""
    names = alph.letters
    if len(names) % 2 != 0:
        return None
    base = []
    for i in range(0, len(names), 2):
        a, b = names[i], names[i + 1]
        if not (a.endswith("#0") and b.endswith("#1")):
            return None
        if a[:-2] != b[:-2] or not a[:-2]:
            return None
        base.append(a[:-2])
    try:
        ext = ExtendedAlphabet(Alphabet(tuple(base)))
    except InputError:
        return None
    return ext if ext.ext == alph else None


# names that are, hold or lack the tags, so that every alphabet of up to
# four of them is matched or refused for some reason
PIECES = ("a", "b", "#", "#0", "#1", "a#", "a#0", "a#1", "a#2", "b#0", "b#1",
          "#0#0", "#0#1", "a#0#0", "a#0#1", "a#1#1")


def test_match_agrees_with_the_pairwise_parser():
    matched = 0
    for n in range(1, 5):
        for names in itertools.permutations(PIECES, n):
            alph = Alphabet(names)
            got = ExtendedAlphabet.match(alph)
            assert got == parsed_base(alph), names
            matched += got is not None
    assert matched == 16  # bases a, b, #0, a#0 and the 12 pairs of them
