import random

import pytest

from langrec import (
    Alphabet,
    Dfa,
    FiniteMonoid,
    InputError,
    MonoidMorphism,
    PreconditionError,
    ResourceLimitError,
    Word,
    all_morphisms,
    dual_recogniser,
    empty_language,
    epsilon_language,
    enumerate_monoids,
    enumerate_semigroups,
    generate_algebra,
    is_minimal_recogniser,
    joint_quotient,
    morphism_preserves_actions,
    nonempty_universal,
    recognised_algebra,
    recognised_language,
    regex_to_dfa,
    regular_biaction,
    syntactic_monoid,
    universal_language,
)
from langrec.algebra import algebra_equal
from langrec.campaigns import CORPUS_REGEXES

AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))


def nerode_classes(l: Dfa, word_len: int = 4, context_len: int = 3):
    """Brute-force two-sided congruence classes: words grouped by their
    membership profile over all bounded contexts (u, v)."""
    contexts = [
        (Word(l.alphabet, u), Word(l.alphabet, v))
        for u in l.alphabet.tuples_upto(context_len)
        for v in l.alphabet.tuples_upto(context_len)
    ]
    classes: dict[tuple, list[Word]] = {}
    for t in l.alphabet.tuples_upto(word_len):
        w = Word(l.alphabet, t)
        profile = tuple(l.accepts(u + w + v) for u, v in contexts)
        classes.setdefault(profile, []).append(w)
    return classes


class TestFiniteMonoid:
    def test_associativity_enforced(self):
        with pytest.raises(InputError):
            FiniteMonoid(((0, 1), (0, 0)))  # (1*1)*1 != 1*(1*1)

    def test_identity_must_be_two_sided(self):
        with pytest.raises(InputError):
            FiniteMonoid(((0, 0), (0, 0)), identity=0)

    def test_json_table_above_check_limit_refused(self):
        # x.y = x+1 mod n is not associative; above the checked size the
        # file is refused for its size, at or below it for associativity
        def shifted(n):
            return {"size": n, "identity": None,
                    "table": [[(x + 1) % n] * n for x in range(n)]}

        with pytest.raises(InputError, match="1024"):
            FiniteMonoid.from_json_dict(shifted(1025))
        with pytest.raises(InputError, match="not associative"):
            FiniteMonoid.from_json_dict(shifted(64))

    def test_json_round_trip(self):
        m = FiniteMonoid(((0, 1), (1, 0)), identity=0, labels=("e", "g"))
        assert FiniteMonoid.from_json(m.to_json()) == m

    def test_semigroup_counts(self):
        assert len(enumerate_semigroups(1)) == 1
        assert len(enumerate_semigroups(2)) == 8
        assert len(enumerate_semigroups(3)) == 113

    def test_every_enumerated_table_is_associative(self):
        for m in enumerate_monoids(3):
            n = m.size
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        assert m.mul(m.mul(x, y), z) == m.mul(x, m.mul(y, z))


class TestSyntacticMonoid:
    def test_everything_language_gives_trivial_monoid(self):
        syn = syntactic_monoid(universal_language(AB))
        assert syn.monoid.size == 1
        assert syn.accepting == frozenset({0})

    def test_contains_a(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        syn = syntactic_monoid(l)
        assert syn.monoid.size == 2
        z = syn.morphism.letter_images[0]
        assert syn.morphism.letter_images[1] == syn.monoid.identity
        assert syn.monoid.mul(z, z) == z
        assert syn.accepting == frozenset({z})
        # oracle: brute-force two-sided congruence classes
        assert len(nerode_classes(l)) == syn.monoid.size

    def test_even_length_over_one_letter(self):
        l = regex_to_dfa("(aa)*", A1)
        syn = syntactic_monoid(l)
        assert syn.monoid.size == 2
        assert syn.monoid.table == ((0, 1), (1, 0))  # the two-element group
        assert syn.accepting == frozenset({0})
        assert len(nerode_classes(l)) == 2

    def test_class_count_matches_oracle_on_corpus(self):
        for r in CORPUS_REGEXES:
            l = regex_to_dfa(r, AB)
            syn = syntactic_monoid(l)
            if syn.monoid.size <= 8:
                assert len(nerode_classes(l)) == syn.monoid.size, r

    def test_recognises_its_language(self):
        for r in CORPUS_REGEXES:
            l = regex_to_dfa(r, AB)
            syn = syntactic_monoid(l)
            assert recognised_language(syn.morphism, syn.accepting) == l

    def test_minimality_by_congruence_enumeration(self):
        for r in CORPUS_REGEXES:
            l = regex_to_dfa(r, AB)
            syn = syntactic_monoid(l)
            if syn.monoid.size <= 4:
                assert is_minimal_recogniser(syn.monoid, syn.accepting), r


class TestEvaluate:
    def test_empty_word_maps_to_identity(self):
        syn = syntactic_monoid(regex_to_dfa("(a|b)*a(a|b)*", AB))
        assert syn.morphism.evaluate(Word(AB, ())) == syn.monoid.identity

    def test_table_walk(self):
        syn = syntactic_monoid(regex_to_dfa("(a|b)*a(a|b)*", AB))
        z = syn.morphism.letter_images[0]
        assert syn.morphism.evaluate(AB.word("bab")) == z

    def test_morphism_law_random_pairs(self):
        syn = syntactic_monoid(regex_to_dfa("(ab)*", AB))
        h = syn.morphism
        rng = random.Random(5)
        for _ in range(1000):
            v = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 6))))
            w = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 6))))
            assert h.evaluate(v + w) == syn.monoid.mul(h.evaluate(v), h.evaluate(w))

    def test_semigroup_rejects_empty_word(self):
        s = FiniteMonoid(((0, 0), (1, 1)))
        h = MonoidMorphism(AB, s, (0, 1))
        with pytest.raises(PreconditionError):
            h.evaluate(Word(AB, ()))


class TestRecognisedLanguage:
    def test_empty_accepting_set(self):
        syn = syntactic_monoid(regex_to_dfa("(ab)*", AB))
        assert recognised_language(syn.morphism, frozenset()) == empty_language(AB)

    def test_full_accepting_set(self):
        syn = syntactic_monoid(regex_to_dfa("(ab)*", AB))
        full = frozenset(range(syn.monoid.size))
        assert recognised_language(syn.morphism, full) == universal_language(AB)

    def test_full_accepting_set_semigroup(self):
        s = FiniteMonoid(((0, 0), (1, 1)))
        h = MonoidMorphism(AB, s, (0, 1))
        assert recognised_language(h, {0, 1}) == nonempty_universal(AB)

    def test_preimage_matches_brute_force(self):
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        h = MonoidMorphism(AB, u1, (1, 0))
        l = recognised_language(h, {1})
        for t in AB.tuples_upto(6):
            assert l.accepts(t) == (0 in t)


class TestAllMorphisms:
    def test_counts(self):
        m2 = enumerate_monoids(2)[0]
        assert len(all_morphisms(AB, m2)) == 4
        z2 = FiniteMonoid(((0, 1), (1, 0)), identity=0)
        assert len(all_morphisms(A1, z2)) == 2
        m3 = enumerate_monoids(3)[0]
        assert len(all_morphisms(AB, m3)) == 9

    def test_enumeration_bound(self):
        m3 = enumerate_monoids(3)[0]
        with pytest.raises(ResourceLimitError):
            all_morphisms(AB, m3, max_count=8)


class TestRecognisedAlgebra:
    def test_trivial_monoid(self):
        from langrec.monoids import TRIVIAL_MONOID
        from langrec.algebra import trivial_algebra

        assert algebra_equal(recognised_algebra(TRIVIAL_MONOID, AB), trivial_algebra(AB))

    def test_two_element_idempotent_monoid(self):
        # oracle: enumerate the four letter-image assignments and their
        # preimages explicitly, then generate
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        preimages = []
        for h in all_morphisms(AB, u1):
            for v in ({0}, {1}):
                preimages.append(h.preimage(v))
        expected = generate_algebra(preimages, AB)
        assert algebra_equal(recognised_algebra(u1, AB), expected)
        assert algebra_equal(
            expected,
            generate_algebra(
                [regex_to_dfa("(a|b)*a(a|b)*", AB), regex_to_dfa("(a|b)*b(a|b)*", AB)]
            ),
        )

    def test_left_zero_semigroup(self):
        lz = FiniteMonoid(((0, 0), (1, 1)))
        got = recognised_algebra(lz, AB)
        expected = generate_algebra(
            [regex_to_dfa("a(a|b)*", AB), regex_to_dfa("b(a|b)*", AB)],
            semigroup=True,
        )
        assert got.semigroup
        assert algebra_equal(got, expected)

    def test_quotient_closed(self):
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        alg = recognised_algebra(u1, AB)
        from langrec import left_quotient, right_quotient

        for atom in alg.atoms:
            for t in AB.tuples_upto(3):
                w = Word(AB, t)
                assert alg.member(left_quotient(w, atom))
                assert alg.member(right_quotient(atom, w))


class TestBiactions:
    def test_regular_biaction_laws(self):
        for n in (1, 2, 3):
            for m in enumerate_monoids(n):
                assert regular_biaction(m).law_defect() is None
        for n in (1, 2):
            for s in enumerate_semigroups(n):
                assert regular_biaction(s).law_defect() is None

    def test_identity_map_preserves(self):
        m = syntactic_monoid(regex_to_dfa("(ab)*", AB)).monoid
        b = regular_biaction(m)
        assert morphism_preserves_actions(tuple(range(m.size)), b, b)

    def test_corrupted_map_detected(self):
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        b = regular_biaction(u1)
        assert not morphism_preserves_actions((1, 0), b, b)


class TestJointQuotient:
    def test_reps_are_shortest(self):
        q = joint_quotient(
            [regex_to_dfa("(a|b)*a(a|b)*", AB), regex_to_dfa("(a|b)*b(a|b)*", AB)]
        )
        assert [w.text() for w in q.reps] == ["ε", "a", "b", "ab"]
        for i, rep in enumerate(q.reps):
            assert q.class_of(rep) == i

    def test_saturation(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        q = joint_quotient([l])
        sat = q.saturation(l)
        assert sat is not None
        assert q.saturation(regex_to_dfa("a(a|b)*", AB)) is None


def saturation_by_representatives(q, l):
    """The representative rule: the classes whose representatives lie in
    L, kept when their preimage is L."""
    want = frozenset(i for i, rep in enumerate(q.reps) if l.accepts(rep))
    return want if q.morphism.preimage(want) == l else None


def random_dfa(rng, states):
    return Dfa.from_json_dict({
        "alphabet": ["a", "b"],
        "states": states,
        "accepting": [q for q in range(states) if rng.random() < 0.5],
        "transitions": [[rng.randrange(states) for _ in "ab"] for _ in range(states)],
    })


class TestQuotientSaturation:
    @pytest.mark.parametrize("semigroup", [False, True])
    def test_walk_matches_representative_rule(self, semigroup):
        rng = random.Random(7)
        found = set()
        for gens in (("(a|b)*a",), ("(ab)*", "a*"), ("b(a|b)*b",)):
            alg = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB, semigroup=semigroup)
            quotients = [dual_recogniser(alg).quotient]
            if not semigroup:
                quotients.append(joint_quotient([regex_to_dfa(g, AB) for g in gens]))
            for q in quotients:
                n = q.monoid.size
                langs = [q.morphism.preimage(x for x in range(n) if rng.random() < 0.5)
                         for _ in range(4)]
                langs += [random_dfa(rng, s) for s in (1, 2, 3, 5)]
                langs += [empty_language(AB), universal_language(AB),
                          epsilon_language(AB), nonempty_universal(AB)]
                for l in langs:
                    sat = q.saturation(l)
                    assert sat == saturation_by_representatives(q, l)
                    found.add(sat is None)
        assert found == {True, False}

    def test_semigroup_mode_refuses_the_empty_word(self):
        alg = generate_algebra([regex_to_dfa("(a|b)*a", AB)], AB, semigroup=True)
        q = dual_recogniser(alg).quotient
        assert q.monoid.identity is None
        assert q.saturation(nonempty_universal(AB)) == frozenset(range(q.monoid.size))
        for l in (universal_language(AB), epsilon_language(AB), regex_to_dfa("(a|b)*a|ε", AB)):
            assert q.saturation(l) is None
