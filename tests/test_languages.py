import functools
import random
import sys
import time

import pytest

from langrec import (
    Alphabet,
    Biaction,
    Dfa,
    FiniteMonoid,
    InputError,
    MarkedWord,
    MonoidMorphism,
    ResourceLimitError,
    UltrafilterApprox,
    Word,
    complement,
    concat,
    concat_decompose,
    bsum2_quotient,
    empty_language,
    epsilon_language,
    exists_profile,
    factorizations,
    generate_algebra,
    intersection,
    joint_quotient,
    left_quotient,
    marked_concat,
    nonempty_universal,
    parse_regex,
    recognises_exists,
    regex_to_dfa,
    render_regex,
    replace_at_mark,
    right_quotient,
    same_language,
    star,
    syntactic_monoid,
    union,
    universal_language,
)
from langrec.campaigns import (
    CORPUS_REGEXES,
    corpus_dfas,
    equivalent_variant,
    random_regex,
    random_word,
)
from langrec.equations import lemma_witness_check
from langrec.languages import _canonical, _explore
from langrec.marking import ExtendedAlphabet, exists_projection, one_mark_language
from langrec.regexes import (
    MAX_NESTING,
    _children,
    _thompson,
    Complement,
    Concat,
    Empty,
    Epsilon,
    Intersect,
    Letter,
    Star,
    Union,
)

AB = Alphabet(("a", "b"))


def words_upto(n):
    return [Word(AB, t) for t in AB.tuples_upto(n)]


def assert_matches_predicate(dfa, pred, max_len=6):
    for w in words_upto(max_len):
        assert dfa.accepts(w) == pred(w.text() if len(w) else ""), w.text()


class TestRegexToDfa:
    def test_empty_language(self):
        d = regex_to_dfa("∅", AB)
        assert d.states == 1
        assert not d.accepting

    def test_words_starting_with_a(self):
        d = regex_to_dfa("a(a|b)*", AB)
        assert_matches_predicate(d, lambda s: s.startswith("a") and s != "")

    def test_complement_of_empty_is_everything(self):
        assert regex_to_dfa("~∅", AB) == universal_language(AB)

    def test_unknown_letter_rejected(self):
        with pytest.raises(InputError):
            regex_to_dfa("c", AB)

    def test_quoted_names(self):
        ext = Alphabet(("a#0", "a#1"))
        d = regex_to_dfa("'a#0' 'a#1'*", ext)
        assert d.accepts(Word.parse(ext, "a#0"))
        assert d.accepts(Word.parse(ext, "a#0 a#1 a#1"))
        assert not d.accepts(Word.parse(ext, "a#1"))

    def test_intersection_and_difference_syntax(self):
        d = regex_to_dfa("(a|b)*a(a|b)* & (a|b)*b(a|b)*", AB)
        assert_matches_predicate(d, lambda s: "a" in s and "b" in s)


def reference_compile(r, alph):
    """The per-node combinator compile: a canonical DFA at every AST
    node, combined by ``concat``, ``union``, ``star``, ``intersection``
    and ``complement``.  An oracle independent of the one Thompson
    ε-NFA that ``regex_to_dfa`` builds."""
    if isinstance(r, Empty):
        return empty_language(alph)
    if isinstance(r, Epsilon):
        return epsilon_language(alph)
    if isinstance(r, Letter):
        i, k = alph.index(r.name), len(alph)
        row = tuple(1 if c == i else 2 for c in range(k))
        return Dfa(alph, 3, (row, (2,) * k, (2,) * k), {1})
    parts = [reference_compile(p, alph) for p in getattr(r, "parts", ())]
    if isinstance(r, Concat):
        return functools.reduce(concat, parts, epsilon_language(alph))
    if isinstance(r, Union):
        return functools.reduce(union, parts, empty_language(alph))
    if isinstance(r, Intersect):
        return functools.reduce(intersection, parts, universal_language(alph))
    if isinstance(r, Complement):
        return complement(reference_compile(r.inner, alph))
    return star(reference_compile(r.inner, alph))


class TestRegexCompile:
    """The one-ε-NFA compile against the per-node combinator compile."""

    def test_agrees_with_the_per_node_compile(self):
        rng = random.Random(19)
        operators = set()
        for alph in (AB, Alphabet(("a", "b", "c"))):
            for depth in (3, 4):
                for _ in range(250):
                    r = random_regex(rng, alph, depth=depth)
                    operators |= set(render_regex(r)) & set("∅ε|&~*")
                    assert regex_to_dfa(r, alph) == reference_compile(r, alph), r
        assert operators == set("∅ε|&~*")
        for text in CORPUS_REGEXES:
            assert regex_to_dfa(text, AB) == reference_compile(parse_regex(text), AB)

    def test_empty_operand_lists(self):
        assert regex_to_dfa(Concat(()), AB) == epsilon_language(AB)
        assert regex_to_dfa(Union(()), AB) == empty_language(AB)
        assert regex_to_dfa(Intersect(()), AB) == universal_language(AB)
        assert regex_to_dfa(Concat((Letter("a"), Intersect(()))), AB) == regex_to_dfa("a(a|b)*", AB)

    def test_nesting_deeper_than_the_stack_is_refused(self):
        deep = "(" * 250 + "a" + ")" * 250
        with pytest.raises(InputError, match="nested more than"):
            regex_to_dfa(deep, AB)
        r = Letter("a")
        for i in range(1000):
            r = (Star, Complement)[i % 2](r)
        with pytest.raises(InputError, match="nested more than"):
            regex_to_dfa(r, AB)

    def test_nesting_up_to_the_bound_compiles(self):
        n = MAX_NESTING
        assert regex_to_dfa("(" * n + "a" + ")" * n, AB) == regex_to_dfa("a", AB)
        with pytest.raises(InputError, match="nested more than"):
            parse_regex("(" * (n + 1) + "a" + ")" * (n + 1))
        # alternating ~ and * recurse through the most frames per level
        r = Letter("a")
        for i in range(n):
            r = (Star, Complement)[i % 2](r)
        assert regex_to_dfa(r, AB) == reference_compile(r, AB)
        with pytest.raises(InputError, match="nested more than"):
            regex_to_dfa(Star(r), AB)

    def test_the_parser_takes_one_stack_frame_per_parenthesis(self):
        n = MAX_NESTING
        inner = "~" * (n // 4) + "(" * (n // 4) + "a" + ")" * (n // 4)
        text = "(" * (n // 2) + inner + ")" * (n // 2)
        frame, here = sys._getframe(), 0
        while frame is not None:
            frame, here = frame.f_back, here + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(here + n + 30)  # a frame per parenthesis, and a margin
        try:
            r = parse_regex(text)
        finally:
            sys.setrecursionlimit(limit)
        assert r == parse_regex("~" * (n // 4) + "a")

    @pytest.mark.parametrize("prefix, suffix, want", [("~", "", "a"), ("", "*", "a*"), ("(", ")", "a")],
                             ids=["complement", "star", "parenthesis"])
    def test_parser_and_compiler_share_the_bound(self, prefix, suffix, want):
        n = MAX_NESTING
        text = prefix * n + "a" + suffix * n
        r = parse_regex(text)
        assert regex_to_dfa(text, AB) == regex_to_dfa(r, AB) == regex_to_dfa(want, AB)
        deeper = prefix * (n + 1) + "a" + suffix * (n + 1)
        for refuse in (parse_regex, lambda t: regex_to_dfa(t, AB)):
            with pytest.raises(InputError, match="nested more than"):
                refuse(deeper)
        if prefix == "(":
            return  # a parenthesis leaves no AST node
        with pytest.raises(InputError, match="nested more than"):
            regex_to_dfa((Complement if prefix else Star)(r), AB)
        # a union above the levels is one more to the compiler, and the
        # parser refuses what the compiler would
        for refuse in (parse_regex, lambda t: regex_to_dfa(t, AB)):
            with pytest.raises(InputError, match="nested more than"):
                refuse("b|" + text)

    def test_each_postfix_star_is_a_nesting_level(self):
        n = MAX_NESTING
        for prefix, suffix in (("", ""), ("(" * (n // 2), ")" * (n // 2))):
            inner = n - len(prefix)
            r = parse_regex(prefix + "a" + "*" * inner + suffix)
            assert parse_regex(render_regex(r)) == r
            assert hash(r) == hash(parse_regex("a" + "*" * inner))
            with pytest.raises(InputError, match="nested more than .* star is a level"):
                parse_regex(prefix + "a" + "*" * (inner + 1) + suffix)
        # a run of stars deeper than the stack is refused, not overflowed
        with pytest.raises(InputError, match="nested more than"):
            parse_regex("a" + "*" * 1200)

    def test_long_concatenation_within_budget(self):
        # a compile with a canonical DFA per prefix is cubic here: 16 s on
        # a 2-core VM
        started = time.perf_counter()
        assert regex_to_dfa("a" * 400, AB).states == 402
        assert time.perf_counter() - started < 5


class TestBooleanOps:
    def test_union_with_empty_is_identity(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        assert union(l, empty_language(AB)) == l

    def test_complement_involution(self):
        for r in CORPUS_REGEXES:
            l = regex_to_dfa(r, AB)
            assert complement(complement(l)) == l

    def test_intersection_of_letter_occurrences(self):
        both = intersection(
            regex_to_dfa("(a|b)*a(a|b)*", AB), regex_to_dfa("(a|b)*b(a|b)*", AB)
        )
        assert_matches_predicate(both, lambda s: "a" in s and "b" in s)

    def test_alphabet_mismatch_is_input_error(self):
        with pytest.raises(InputError):
            union(universal_language(AB), universal_language(Alphabet(("a",))))


class TestQuotients:
    def test_left_quotient_by_epsilon_is_identity(self):
        for r in CORPUS_REGEXES:
            l = regex_to_dfa(r, AB)
            assert left_quotient(Word(AB, ()), l) == l
            assert right_quotient(l, Word(AB, ())) == l

    def test_left_quotient_of_a_prefixed(self):
        l = regex_to_dfa("a(a|b)*", AB)
        assert left_quotient(AB.word("a"), l) == universal_language(AB)

    def test_right_quotient_strips_suffix(self):
        l = regex_to_dfa("(a|b)*ab", AB)
        got = right_quotient(l, AB.word("b"))
        # oracle: brute-force membership, words up to length 6
        for w in words_upto(6):
            assert got.accepts(w) == l.accepts(w + AB.word("b"))
        assert got == regex_to_dfa("(a|b)*a", AB)

    def test_quotient_action_laws_seeded(self):
        rng = random.Random(11)
        corpus = corpus_dfas()
        for _ in range(300):
            l = corpus[rng.randrange(len(corpus))]
            v = random_word(rng, AB, 3)
            w = random_word(rng, AB, 3)
            assert left_quotient(v + w, l) == left_quotient(w, left_quotient(v, l))
            assert right_quotient(l, v + w) == right_quotient(right_quotient(l, w), v)
            assert left_quotient(v, right_quotient(l, w)) == right_quotient(
                left_quotient(v, l), w
            )


class TestMarkedConcat:
    def test_empty_left_factor(self):
        l2 = regex_to_dfa("(ab)*", AB)
        assert marked_concat(empty_language(AB), "a", l2) == empty_language(AB)

    def test_epsilon_factors(self):
        eps = epsilon_language(AB)
        assert marked_concat(eps, "a", eps) == regex_to_dfa("a", AB)

    def test_a_star_b_b_star(self):
        got = marked_concat(regex_to_dfa("a*", AB), "b", regex_to_dfa("b*", AB))
        # oracle: a's before b's with at least one b
        assert_matches_predicate(got, lambda s: "b" in s and "ba" not in s)
        assert got == regex_to_dfa("a*bb*", AB)


class TestConcatDecompose:
    def test_matches_classical_construction_on_corpus(self):
        corpus = corpus_dfas()
        for l1 in corpus:
            for l2 in corpus:
                assert concat_decompose(l1, l2) == concat(l1, l2)

    def test_unit(self):
        l = regex_to_dfa("(a|b)*ab(a|b)*", AB)
        assert concat_decompose(l, epsilon_language(AB)) == l

    def test_singletons(self):
        got = concat_decompose(regex_to_dfa("a", AB), regex_to_dfa("b", AB))
        assert got == regex_to_dfa("ab", AB)

    def test_verbatim_form_misses_empty_suffix_words(self):
        astar, bstar = regex_to_dfa("a*", AB), regex_to_dfa("b*", AB)
        full = concat_decompose(astar, bstar)
        verbatim = concat_decompose(astar, bstar, verbatim=True)
        assert full == regex_to_dfa("a*b*", AB)
        assert verbatim != full
        assert union(verbatim, astar) == full

    @pytest.mark.parametrize("flag", ["no", 0, 1, None])
    def test_verbatim_flag_must_be_a_bool(self, flag):
        d = regex_to_dfa("a*", AB)
        with pytest.raises(InputError, match="^verbatim must be true or false"):
            concat_decompose(d, d, verbatim=flag)

    def test_verbatim_form_equal_when_no_empty_suffix(self):
        l1 = regex_to_dfa("a*", AB)
        l2 = regex_to_dfa("b(a|b)*", AB)
        assert concat_decompose(l1, l2, verbatim=True) == concat_decompose(l1, l2)


class Nfa:
    """An ε-NFA and its subset construction, the reference for the
    package's step-function subset constructions.  ``determinize`` returns
    the canonical DFA and the number of subsets it built."""

    def __init__(self, alph, trans, eps, initials, finals):
        self.alphabet = alph
        self.trans = trans
        self.eps = eps
        self.initials = initials
        self.finals = finals

    def _eclose(self, states):
        out = set(states)
        stack = list(out)
        while stack:
            q = stack.pop()
            for r in self.eps[q]:
                if r not in out:
                    out.add(r)
                    stack.append(r)
        return frozenset(out)

    def determinize(self):
        letters = range(len(self.alphabet))
        trans = self.trans

        def step(s):
            return [self._eclose(set().union(*(trans[q][c] for q in s))) for c in letters]

        subsets, rows = _explore(self._eclose(self.initials), step)
        acc = {i for i, s in enumerate(subsets) if s & self.finals}
        return _canonical(self.alphabet, rows, acc, 0), len(subsets)


def nfa_marked_concat(l1, a, l2):
    """L1's states, then L2's; reading a from an accepting L1 state also
    enters L2's initial state."""
    k = len(l1.alphabet)
    off = l1.states
    trans = []
    for q in range(l1.states):
        row = [{l1.transitions[q][c]} for c in range(k)]
        if q in l1.accepting:
            row[a] = row[a] | {off + l2.initial}
        trans.append(row)
    for q in range(l2.states):
        trans.append([{off + l2.transitions[q][c]} for c in range(k)])
    eps = [set() for _ in range(l1.states + l2.states)]
    finals = {off + q for q in l2.accepting}
    return Nfa(l1.alphabet, trans, eps, {l1.initial}, finals).determinize()


def nfa_concat(l1, l2):
    """L1's states, then L2's, with an ε-move from each accepting L1 state
    to L2's initial state."""
    k = len(l1.alphabet)
    off = l1.states
    trans = []
    for q in range(l1.states):
        trans.append([{l1.transitions[q][c]} for c in range(k)])
    for q in range(l2.states):
        trans.append([{off + l2.transitions[q][c]} for c in range(k)])
    eps = [set() for _ in range(l1.states + l2.states)]
    for q in l1.accepting:
        eps[q].add(off + l2.initial)
    finals = {off + q for q in l2.accepting}
    return Nfa(l1.alphabet, trans, eps, {l1.initial}, finals).determinize()


def nfa_star(l):
    """A fresh accepting start state 0, then L's states, with ε-moves to
    L's initial state from state 0 and from each accepting state."""
    k = len(l.alphabet)
    trans = [[set() for _ in range(k)]]
    for q in range(l.states):
        trans.append([{1 + l.transitions[q][c]} for c in range(k)])
    eps = [set() for _ in range(l.states + 1)]
    eps[0].add(1 + l.initial)
    for q in l.accepting:
        eps[1 + q].add(1 + l.initial)
    finals = {0} | {1 + q for q in l.accepting}
    return Nfa(l.alphabet, trans, eps, {0}, finals).determinize()


def nfa_exists_projection(l):
    """The one-mark restriction of l, each base letter moving along both
    of its tags."""
    ext = ExtendedAlphabet.match(l.alphabet)
    r = intersection(l, one_mark_language(ext))
    trans = [
        [{r.transitions[q][2 * c], r.transitions[q][2 * c + 1]} for c in range(len(ext.base))]
        for q in range(r.states)
    ]
    eps = [set() for _ in range(r.states)]
    return Nfa(ext.base, trans, eps, {r.initial}, set(r.accepting)).determinize()


def nfa_regex(r, alph):
    trans, eps, start, end = _thompson(r, alph)
    return Nfa(alph, trans, eps, {start}, {end}).determinize()


def has_product_node(r):
    """Whether an ``&`` or ``~`` node, compiled by a subset construction
    of its own, sits anywhere in r."""
    return isinstance(r, (Intersect, Complement)) or any(map(has_product_node, _children(r)))


class TestSubsetConstructions:
    """Each subset construction against its ε-NFA reference: the same
    canonical DFA, and a default ceiling equal to the reference's subset
    count n passes while n - 1 is refused, so both build n subsets."""

    ALPHABETS = [Alphabet(("a",)), AB, Alphabet(("a", "b", "c"))]

    @staticmethod
    def check(monkeypatch, build, reference):
        want, n = reference
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", str(n))
        assert build() == want
        if n > 1:
            monkeypatch.setenv("LANGREC_MAX_CLOSURE", str(n - 1))
            with pytest.raises(ResourceLimitError, match=f"^subset construction exceeded {n - 1} states$"):
                build()
        monkeypatch.delenv("LANGREC_MAX_CLOSURE")

    @staticmethod
    def pool(rng, alph):
        """∅, ε, seeded draws, and draws united with ε."""
        draws = [random_regex(rng, alph, depth=rng.randint(2, 5)) for _ in range(10)]
        draws[8:] = [Union((r, Epsilon())) for r in draws[8:]]
        return [empty_language(alph), epsilon_language(alph)] + [regex_to_dfa(r, alph) for r in draws]

    @pytest.mark.parametrize("alph", ALPHABETS, ids=["a", "ab", "abc"])
    def test_concatenations_and_star(self, monkeypatch, alph):
        monkeypatch.delenv("LANGREC_MAX_CLOSURE", raising=False)
        pool = self.pool(random.Random(len(alph)), alph)
        assert any(l.accepts(()) for l in pool[2:])
        counts = set()
        for l1 in pool:
            self.check(monkeypatch, lambda: star(l1), nfa_star(l1))
            for l2 in pool:
                want = nfa_concat(l1, l2)
                counts.add(want[1])
                self.check(monkeypatch, lambda: concat(l1, l2), want)
                for a in range(len(alph)):
                    self.check(monkeypatch, lambda: marked_concat(l1, a, l2),
                               nfa_marked_concat(l1, a, l2))
        assert len(counts) > 3

    @pytest.mark.parametrize("alph", ALPHABETS, ids=["a", "ab", "abc"])
    def test_exists_projection(self, monkeypatch, alph):
        monkeypatch.delenv("LANGREC_MAX_CLOSURE", raising=False)
        rng = random.Random(10 + len(alph))
        ext = ExtendedAlphabet(alph).ext
        unmarked = Alphabet(tuple(f"{x}#0" for x in alph.letters))
        counts = set()
        for i in range(16):
            # mostly one 1-tagged letter between two unmarked draws, so the
            # one-mark restriction is seldom empty
            if i % 4:
                mark = Letter(f"{rng.choice(alph.letters)}#1")
                r = Concat((random_regex(rng, unmarked, 3), mark, random_regex(rng, unmarked, 3)))
            else:
                r = random_regex(rng, ext, 4)
            l = regex_to_dfa(r, ext)
            want = nfa_exists_projection(l)
            counts.add(want[1])
            self.check(monkeypatch, lambda: exists_projection(l), want)
        assert len(counts) > 3

    @pytest.mark.parametrize("alph", ALPHABETS, ids=["a", "ab", "abc"])
    def test_regex_compile(self, monkeypatch, alph):
        monkeypatch.delenv("LANGREC_MAX_CLOSURE", raising=False)
        rng = random.Random(20 + len(alph))
        draws = [random_regex(rng, alph, depth=4) for _ in range(40)]
        draws = [r for r in draws if not has_product_node(r)]
        assert len(draws) > 20
        for r in draws:
            self.check(monkeypatch, lambda: regex_to_dfa(r, alph), nfa_regex(r, alph))


# hand-built tables that are not canonical, each with a regex of its
# language: (states, transitions, accepting, initial, regex)
RAW_TABLES = [
    (2, ((0, 0), (1, 1)), {0}, 0, "(a|b)*"),  # an unreachable state
    (2, ((0, 0), (1, 1)), {1}, 0, "∅"),  # the accepting state is unreachable
    (3, ((1, 2), (1, 2), (1, 2)), {1, 2}, 0, "(a|b)(a|b)*"),  # two equivalent states
    (3, ((2, 1), (1, 1), (2, 2)), {2}, 0, "a(a|b)*"),  # not numbered breadth-first
    (3, ((0, 0), (2, 0), (2, 2)), {2}, 1, "a(a|b)*"),  # initial state 1
]


def shortest_accepted_by_bfs(d):
    """Reference: the length-lex least accepted word, by a breadth-first
    walk from the initial state that reads no state numbering."""
    if d.initial in d.accepting:
        return ()
    words = {d.initial: ()}
    frontier = [d.initial]
    while frontier:
        new = []
        for q in frontier:
            for c in range(len(d.alphabet)):
                r = d.transitions[q][c]
                if r not in words:
                    words[r] = words[q] + (c,)
                    if r in d.accepting:
                        return words[r]
                    new.append(r)
        frontier = new
    return None


class TestCanonicity:
    def test_shortest_accepted_matches_the_walk(self):
        rng = random.Random(5)
        dfas = corpus_dfas(AB) + [empty_language(AB), epsilon_language(AB)]
        for letters in ("a", "ab", "abc"):
            alph = Alphabet(tuple(letters))
            dfas += [regex_to_dfa(random_regex(rng, alph, depth=4), alph) for _ in range(150)]
        for d in dfas + [complement(d) for d in dfas]:
            assert d.shortest_accepted() == shortest_accepted_by_bfs(d), d

    @pytest.mark.parametrize("states, transitions, accepting, initial, regex", RAW_TABLES)
    def test_constructor_gives_the_canonical_form(self, states, transitions, accepting, initial, regex):
        d = Dfa(AB, states, transitions, accepting, initial)
        assert d == _canonical(AB, transitions, accepting, initial)
        # a table and an accepting set that can be read only once
        assert Dfa(AB, states, (iter(row) for row in transitions), iter(accepting), initial) == d
        assert d.is_empty() == (d.shortest_accepted() is None)
        kernel = corpus_dfas(AB) + [regex_to_dfa(regex, AB), empty_language(AB),
                                    universal_language(AB), epsilon_language(AB)]
        for e in kernel:
            same = same_language(d, e)
            assert (d == e) == same, e
            assert hash(d) == hash(e) or not same, e
        rebuilt = Dfa(d.alphabet, d.states, d.transitions, d.accepting, d.initial)
        assert rebuilt == d and hash(rebuilt) == hash(d)

    def test_equivalent_regexes_compile_identically(self):
        rng = random.Random(23)
        for _ in range(250):
            r1 = random_regex(rng, AB, depth=3)
            r2 = equivalent_variant(rng, r1, steps=rng.randint(1, 3))
            d1 = regex_to_dfa(r1, AB)
            d2 = regex_to_dfa(r2, AB)
            # independent denotation check: product-automaton emptiness
            assert same_language(d1, d2)
            assert d1 == d2

    def test_equality_is_field_by_field(self):
        d1 = regex_to_dfa("a*b*", AB)
        d2 = regex_to_dfa("a*b*|a*", AB)
        assert d1 == d2
        assert d1.transitions == d2.transitions
        assert d1.accepting == d2.accepting

    def test_initial_state_is_zero(self):
        for r in CORPUS_REGEXES:
            assert regex_to_dfa(r, AB).initial == 0

    def test_all_states_reachable_and_distinguishable(self):
        for r in CORPUS_REGEXES:
            d = regex_to_dfa(r, AB)
            # re-canonicalising is the identity on canonical values
            assert _canonical(d.alphabet, d.transitions, d.accepting, d.initial) == d


class TestSerialisation:
    def test_round_trip(self):
        for r in CORPUS_REGEXES:
            d = regex_to_dfa(r, AB)
            assert Dfa.from_json(d.to_json()) == d

    @pytest.mark.parametrize("states, transitions, accepting, initial, regex", [
        (2, ((1, 1), (0, 0)), set(), 0, "∅"),  # two redundant states
        *RAW_TABLES,
    ])
    def test_non_canonical_file_loads_in_canonical_form(
        self, states, transitions, accepting, initial, regex
    ):
        raw = {
            "alphabet": ["a", "b"],
            "states": states,
            "initial": initial,
            "accepting": sorted(accepting),
            "transitions": [list(row) for row in transitions],
        }
        assert Dfa.from_json_dict(raw) == regex_to_dfa(regex, AB)

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            Dfa.from_json('{"alphabet": ["a"], "states": 1}')

    @pytest.mark.parametrize("letters", ["ab", {"a": 0, "b": 1}])
    def test_alphabet_must_be_a_json_list(self, letters):
        # a string would be read letter by letter: "a#0" as three letters
        raw = {"alphabet": ["a", "b"], "states": 1, "initial": 0,
               "accepting": [], "transitions": [[0, 0]]}
        assert Dfa.from_json_dict(raw) == empty_language(AB)
        with pytest.raises(InputError, match="alphabet must be a JSON list"):
            Dfa.from_json_dict({**raw, "alphabet": letters})

    @pytest.mark.parametrize("field, value", [
        ("states", 2.7), ("states", "2"), ("initial", 0.0), ("initial", False),
        ("accepting", [1.0]), ("accepting", [True]), ("transitions", [[1, "0"], [1, 1]]),
        ("transitions", [[1, 0.5], [1, 1]]),
    ])
    def test_entries_must_be_json_integers(self, field, value):
        raw = {"alphabet": ["a", "b"], "states": 2, "initial": 0,
               "accepting": [1], "transitions": [[1, 0], [1, 1]]}
        assert Dfa.from_json_dict(raw).states == 2
        with pytest.raises(InputError, match="JSON integer"):
            Dfa.from_json_dict({**raw, field: value})

    @pytest.mark.parametrize("states, transitions, accepting, initial", [
        (2, ((1, True), (1.0, 1)), {1.0}, 0),  # to_json would write a file from_json refuses
        (2, ((1, 0), (1, 1.0)), {1}, 0),
        (2, ((1, 0), (1, "1")), {1}, 0),
        (2, ((1, 0), (1, 1)), {True}, 0),
        (2.0, ((1, 0), (1, 1)), {1}, 0),
        (2, ((1, 0), (1, 1)), {1}, 0.0),
        (2, ((1, 0), (1, 1)), {1}, False),
    ])
    def test_entries_must_be_integers(self, states, transitions, accepting, initial):
        assert Dfa(AB, 2, ((1, 0), (1, 1)), frozenset({1})).to_json()
        with pytest.raises(InputError, match="at least one state|not an integer"):
            Dfa(AB, states, transitions, frozenset(accepting), initial)

    @pytest.mark.parametrize("alphabet", ["ab", ("a", "b"), ["a", "b"], None])
    def test_alphabet_must_be_an_alphabet(self, alphabet):
        assert Dfa(AB, 1, ((0, 0),), {0}) == universal_language(AB)
        with pytest.raises(InputError, match="alphabet must be an Alphabet"):
            Dfa(alphabet, 1, ((0, 0),), {0})

    @pytest.mark.parametrize("constant", [
        empty_language, universal_language, epsilon_language, nonempty_universal,
    ])
    @pytest.mark.parametrize("alphabet", ["ab", ("a", "b"), ["a", "b"], None])
    def test_constant_languages_need_an_alphabet(self, constant, alphabet):
        """A string of letters is no alphabet: it would build a DFA
        unequal to the same constant over the Alphabet."""
        assert constant(AB).alphabet == AB
        with pytest.raises(InputError, match="^a constant language's alphabet must be an Alphabet, not "):
            constant(alphabet)


class TestWords:
    def test_parse_and_text(self):
        assert AB.word("abba").indices == (0, 1, 1, 0)
        assert AB.word("ε").indices == ()
        assert AB.word("abba").text() == "abba"

    def test_greedy_multicharacter_parse(self):
        ext = Alphabet(("a#0", "a#1"))
        w = Word.parse(ext, "a#0a#1")
        assert w.indices == (0, 1)
        assert Word.parse(ext, w.text()) == w

    @pytest.mark.parametrize("letters", [
        (" ", "x"), ("ε", "x"), ("ε", "ab"), ("a b", "c"), ("\t", "\n", "y"),
        ("'", "x"), ('x"', "y'"), ("a", "ab", "b"), ("aε", "b"),
    ])
    def test_every_text_reads_back_as_its_word(self, letters):
        # whitespace, a quote character and ε are the format's own; a name
        # holding one is quoted
        alph = Alphabet(letters)
        for w in alph.words_upto(3):
            assert Word.parse(alph, w.text()) == w, w.text()

    @pytest.mark.parametrize("letters, indices, text", [
        ((" ", "x"), (0, 1), "' 'x"),
        (("ε", "x"), (0,), "'ε'"),
        (("ε", "x"), (), "ε"),
        (("a b", "c"), (1, 0), "c 'a b'"),
        (("'", "x"), (0, 1), "\"'\"x"),
        (("a#0", "a#1"), (0, 1, 1), "a#0 a#1 a#1"),
        (("aε", "b"), (0, 1), "aε b"),
    ])
    def test_a_name_is_quoted_only_when_the_format_needs_it(self, letters, indices, text):
        assert Word(Alphabet(letters), indices).text() == text

    def test_a_name_holding_both_quotes_has_no_word_text(self):
        name = "a'\"b"
        alph = Alphabet((name, "c"))
        assert Word(alph, (1, 1)).text() == "c c"
        with pytest.raises(InputError) as exc:
            Word(alph, (1, 0)).text()
        assert str(exc.value) == (
            f"letter name {name!r} holds both quote characters: no word can name it"
        )
        # repr never raises
        assert repr(Word(alph, (1, 0))) == "Word((1, 0) over Alphabet(a'\"b,c))"
        assert repr(Word(alph, (1,))) == "Word(c)"
        assert repr(MarkedWord(Word(alph, (0,)), 0)) == (
            "MarkedWord(Word((0,) over Alphabet(a'\"b,c)), 0)"
        )
        # a monoid over the alphabet is still tabulated, without labels
        syn = syntactic_monoid(regex_to_dfa(Concat((Letter("c"), Letter(name))), alph))
        assert syn.monoid.labels is None and syn.monoid.size == 5

    def test_a_quoted_name_must_be_closed_and_known(self):
        for text, message in (("a'b", "^unterminated quoted letter name at \"'b\"$"),
                              ("a''", "^empty quoted letter name$"),
                              ("'c'", "^unknown letter 'c'")):
            with pytest.raises(InputError, match=message):
                AB.word(text)
        assert AB.word(" 'a'b \"b\" ").indices == (0, 1, 1)

    def test_unparseable_word(self):
        with pytest.raises(InputError):
            AB.word("abc")

    def test_concat_requires_same_alphabet(self):
        with pytest.raises(InputError):
            AB.word("a") + Alphabet(("a",)).word("a")

    def test_indices_must_be_integers_in_range(self):
        # a float or a bool is not read as the letter it equals
        for bad in (1.0, 0.0, True, False, "a", None, -1, 2):
            with pytest.raises(InputError, match="letter index"):
                Word(AB, (bad,))
            with pytest.raises(InputError, match="letter index"):
                Word(AB, [0, bad])
        assert Word(AB, [1, 0]).indices == (1, 0)

    def test_length_bounds_must_be_integers_at_least_zero(self):
        for bad in (-1, 1.5, True, None, "2"):
            for call in (AB.tuples_upto, AB.words_upto):
                with pytest.raises(InputError, match="word length bound"):
                    call(bad)
                with pytest.raises(InputError, match="word length bound"):
                    call(2, bad)
        assert list(AB.tuples_upto(0, 1)) == []
        assert list(AB.words_upto(1, 1)) == [AB.word("a"), AB.word("b")]


class TestLetterReader:
    """Every operation that takes a letter reads it the same way: by name,
    or by an index in range; other values are refused, never read as
    another letter or left to raise IndexError."""

    BAD = (-1, -2, 2, 7, True, False, 1.0, None, "c")

    @staticmethod
    def callers():
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        b = generate_algebra([l], AB)
        q = bsum2_quotient(universal_language(AB), b)
        phi = syntactic_monoid(l).morphism
        u = universal_language(AB)
        mw = MarkedWord(AB.word("ab"), 0)
        return {
            "accepts": lambda c: regex_to_dfa("b", AB).accepts((c,)),
            "atom_of": lambda c: b.atom_of([c]),
            "evaluate": lambda c: phi.evaluate([c]),
            "factorizations": lambda c: factorizations(q, 0, c),
            "lemma_witness_check": lambda c: lemma_witness_check(q, b, 0, c),
            "marked_concat": lambda c: marked_concat(u, c, u),
            "replace_at_mark": lambda c: replace_at_mark(mw, c),
        }

    @pytest.mark.parametrize("name", [
        "accepts", "atom_of", "evaluate", "factorizations", "lemma_witness_check", "marked_concat",
        "replace_at_mark",
    ])
    def test_names_and_indices_agree_and_others_are_refused(self, name):
        call = self.callers()[name]
        assert call("a") == call(0) and call("b") == call(1)
        for bad in self.BAD:
            with pytest.raises(InputError):
                call(bad)

    def test_factorizations_record_the_letter_read(self):
        q = bsum2_quotient(universal_language(AB), generate_algebra([], AB))
        found = [f for p in range(q.monoid.size) for f in factorizations(q, p, "b")]
        assert found and {f.letter for f in found} == {1}

    def test_accepts_reads_words_names_and_indices(self):
        d = regex_to_dfa("ab", AB)
        assert d.accepts(AB.word("ab")) and d.accepts(["a", 1]) and not d.accepts((0,))
        for bad in ([0.0], [0, -1], [0, 2], ("ab",)):
            with pytest.raises(InputError):
                d.accepts(bad)
        with pytest.raises(InputError, match="the word is over"):
            d.accepts(Alphabet(("a", "b", "c")).word("ab"))

    @staticmethod
    def word_callers():
        l = regex_to_dfa("(a|b)*ab", AB)
        marked = regex_to_dfa("('a#0'|'b#0')* 'a#1' ('a#0'|'b#0')*", ExtendedAlphabet(AB).ext)
        syn = syntactic_monoid(marked)
        tau, accepting = syn.morphism, syn.saturation(marked)
        return {
            "left_quotient": lambda w: left_quotient(w, l),
            "right_quotient": lambda w: right_quotient(l, w),
            "exists_profile": lambda w: exists_profile(tau, w),
            "recognises_exists": lambda w: recognises_exists(tau, accepting, w),
        }

    @pytest.mark.parametrize("name", [
        "left_quotient", "right_quotient", "exists_profile", "recognises_exists",
    ])
    def test_word_arguments_are_read_as_accepts_reads_them(self, name):
        call = self.word_callers()[name]
        assert len({call(text) for text in ("", "a", "ab", "bab", "bb")}) > 1
        for text in ("", "a", "ab", "bab", "bb"):
            w = AB.word(text)
            assert call(text) == call(w.indices) == call(list(w.indices)) == call(w)
        for other in (Alphabet(("a", "b", "c")), ExtendedAlphabet(AB).ext):
            with pytest.raises(InputError, match="the word is over"):
                call(Word(other, (0, 1)))
        for bad in ([0, 2], [True], ["c"], [0.0]):
            with pytest.raises(InputError):
                call(bad)

    def test_evaluate_refuses_letters_inside_a_word(self):
        phi = syntactic_monoid(regex_to_dfa("(ab)*", AB)).morphism
        assert phi.evaluate(["a", 1]) == phi.evaluate(AB.word("ab"))
        with pytest.raises(InputError):
            phi.evaluate([0, -2])
        with pytest.raises(InputError):
            phi.evaluate(Alphabet(("a",)).word("a"))


class TestRegexRendering:
    def test_render_parse_round_trip(self):
        rng = random.Random(31)
        from langrec import parse_regex, render_regex

        for _ in range(200):
            r = random_regex(rng, AB, depth=3)
            text = render_regex(r)
            assert regex_to_dfa(parse_regex(text), AB) == regex_to_dfa(r, AB)

    def test_state_elimination_regex_denotes_same_language(self):
        from langrec import dfa_to_regex

        for r in CORPUS_REGEXES:
            d = regex_to_dfa(r, AB)
            assert regex_to_dfa(dfa_to_regex(d), AB) == d

    # names that are whitespace, a quote, a reserved symbol, hold a quote
    # or a space, or are longer than one character
    AWKWARD = [
        Alphabet((" ", "x")),
        Alphabet(("'", '"')),
        Alphabet(("a'b", "c")),
        Alphabet(("a#0", "a#1")),
        Alphabet(("xy", "|", "a b")),
        Alphabet(("ε", "(", "*", "\t")),
    ]

    @pytest.mark.parametrize("alph", AWKWARD, ids=repr)
    def test_every_written_regex_reads_back_as_its_language(self, alph):
        from langrec import dfa_to_regex

        rng = random.Random(len(alph))
        for _ in range(40):
            r = random_regex(rng, alph, depth=3)
            d = regex_to_dfa(r, alph)
            assert regex_to_dfa(dfa_to_regex(d), alph) == d
            assert regex_to_dfa(render_regex(r), alph) == d

    @pytest.mark.parametrize("name, text", [
        ("a", "a"), (" ", "' '"), ("|", "'|'"), ("'", '"\'"'), ('"', "'\"'"), ("a'b", '"a\'b"'),
        ("a#0", "'a#0'"),
    ])
    def test_a_name_is_bare_only_when_it_is_one_plain_character(self, name, text):
        assert render_regex(Letter(name)) == text
        assert parse_regex(text) == Letter(name)

    def test_a_name_holding_both_quotes_has_no_text(self):
        from langrec import dfa_to_regex

        name = "a'\"b"
        alph = Alphabet((name, "c"))
        for write in (lambda: render_regex(Concat((Letter("c"), Letter(name)))),
                      lambda: dfa_to_regex(regex_to_dfa(Letter(name), alph))):
            with pytest.raises(InputError) as exc:
                write()
            assert str(exc.value) == (
                f"letter name {name!r} holds both quote characters: no regex can name it"
            )


def test_package_exports_name_no_module():
    import types

    import langrec

    modules = [n for n in langrec.__all__ if isinstance(getattr(langrec, n), types.ModuleType)]
    assert modules == []
    assert "languages" not in langrec.__all__ and "Dfa" in langrec.__all__


# -- the one index rule -------------------------------------------------------

A1 = Alphabet(("a",))
Z2 = FiniteMonoid(((0, 1), (1, 0)), identity=0)
PARITY = joint_quotient([regex_to_dfa("(aa)*", A1)])  # the classes of ε and a
SWAPS = ((0, 1), (1, 0))
TABLE = ((0, 1), (1, 1))

# (what, a build that reads the value v); every site has n = 2 indices.  A
# site that reads a sequence is built twice: the value alone, and one bad
# entry in an otherwise valid sequence
INDEX_SITES = [
    ("letter index", lambda v: Word(AB, (v,))),
    ("letter index", lambda v: Word(AB, (1, 0, v, 1))),
    ("transition target", lambda v: Dfa(AB, 2, ((v, 1), (1, 1)), {1})),
    ("transition target", lambda v: Dfa(AB, 2, ((0, 1), (1, v)), {1})),
    ("initial state", lambda v: Dfa(AB, 2, TABLE, {1}, v)),
    ("accepting state", lambda v: Dfa(AB, 2, TABLE, {v})),
    ("accepting state", lambda v: Dfa(AB, 2, TABLE, {0, v})),
    ("mark", lambda v: MarkedWord(Word(AB, (0, 1)), v)),
    ("identity", lambda v: FiniteMonoid(Z2.table, identity=v)),
    ("letter image", lambda v: MonoidMorphism(A1, Z2, (v,))),
    ("letter image", lambda v: MonoidMorphism(AB, Z2, (1, v))),
    ("element", lambda v: MonoidMorphism(A1, Z2, (1,)).preimage([v])),
    ("element", lambda v: MonoidMorphism(A1, Z2, (1,)).preimage([1, 0, v])),
    ("element index", lambda v: PARITY.union_language([v])),
    ("element index", lambda v: PARITY.union_language([1, 0, v])),
    ("action component", lambda v: Biaction(Z2, 2, ((v, 1), (1, 0)), SWAPS)),
    ("action component", lambda v: Biaction(Z2, 2, SWAPS, ((0, 1), (1, v)))),
    ("point", lambda v: UltrafilterApprox(PARITY, v)),
    ("point", lambda v: factorizations(PARITY, v, "a")),
]


@pytest.mark.parametrize("what, build, value", [
    (what, build, v)
    for what, build in INDEX_SITES
    for v in (True, 1.0, -1, 2, None)
    if not (what == "identity" and v is None)  # no identity: a semigroup
])
def test_every_index_boundary_gives_the_one_message(what, build, value):
    with pytest.raises(InputError) as exc:
        build(value)
    assert str(exc.value) == f"{what} {value!r} is not an integer in 0..1"
