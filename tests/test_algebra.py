import functools
import itertools
import random

import pytest

from langrec import (
    Alphabet,
    Dfa,
    FiniteMonoid,
    FiniteQuotient,
    InputError,
    LanguageAlgebra,
    MonoidMorphism,
    ResourceLimitError,
    UnarySchutz,
    Word,
    all_morphisms,
    algebra_leq,
    check_dual_well_defined,
    difference,
    dual_recogniser,
    empty_language,
    enumerate_monoids,
    enumerate_semigroups,
    epsilon_language,
    generate_algebra,
    intersection,
    inverse_image,
    joint_quotient,
    left_quotient,
    local_schutz_morphism,
    marked_concat,
    nonempty_universal,
    recognised_algebra,
    regex_to_dfa,
    right_quotient,
    schutz_sum,
    syntactic_monoid,
    transport,
    trivial_algebra,
    union,
    universal_language,
)
from langrec import algebra, equations, languages, monoids
from langrec.algebra import _literal_sum
from langrec.campaigns import (
    _generated_concat_algebra,
    _image_algebra,
    _sample_pair,
    corpus_dfas,
    random_regex,
)
from langrec.languages import _canonical, _explore, _minimise, closure_ceiling, closure_limit
from langrec.marking import ExtendedAlphabet
from langrec.monoids import _light_defect, generate_closure, transition_closure

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
A1 = Alphabet(("a",))


class TestGenerateAlgebra:
    def test_no_generators(self):
        alg = generate_algebra([], AB)
        assert alg.atom_count == 1
        assert alg.atoms[0] == universal_language(AB)
        assert alg.member(empty_language(AB))
        assert alg.member(universal_language(AB))

    def test_contains_a_algebra(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        alg = generate_algebra([l])
        assert alg.atom_count == 2
        assert set(alg.atoms) == {l, regex_to_dfa("b*", AB)}
        assert alg.member_count() == 4

    def test_ab_star_closure_contains_all_quotients(self):
        l = regex_to_dfa("(ab)*", AB)
        alg = generate_algebra([l])
        # oracle: every word derivative of the generator is a member
        for t in AB.tuples_upto(4):
            w = Word(AB, t)
            assert alg.member(left_quotient(w, l))
            assert alg.member(right_quotient(l, w))

    def test_atoms_partition_the_universe(self):
        for gens in (["(ab)*"], ["a(a|b)*", "(a|b)*a(a|b)*"], ["(aa)*", "b*"]):
            alg = generate_algebra([regex_to_dfa(g, AB) for g in gens])
            combined = empty_language(AB)
            for i, a in enumerate(alg.atoms):
                assert not a.is_empty()
                for b in alg.atoms[i + 1 :]:
                    assert intersection(a, b).is_empty()
                combined = union(combined, a)
            assert combined == universal_language(AB)
            for g in alg.generators:
                assert alg.member(g)

    def test_semigroup_universe_excludes_empty_word(self):
        alg = generate_algebra([regex_to_dfa("a(a|b)*", AB)], semigroup=True)
        combined = empty_language(AB)
        for a in alg.atoms:
            assert not a.accepts(())
            combined = union(combined, a)
        from langrec import nonempty_universal

        assert combined == nonempty_universal(AB)

    def test_atom_representatives(self):
        alg = generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)])
        for atom, rep in zip(alg.atoms, alg.atom_reps):
            assert atom.accepts(rep)
            assert alg.atom_of(rep) == alg.atoms.index(atom)

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_atom_of_reads_only_letters_of_its_alphabet(self, semigroup):
        alg = generate_algebra([regex_to_dfa("(a|b)*a", AB)], AB, semigroup=semigroup)
        for w in ("ab", "ba", "bba"):
            assert alg.atom_of(w) == alg.atom_of(AB.word(w).indices) == alg.atom_of(AB.word(w))
        assert alg.atom_of(["a", 1]) == alg.atom_of("ab")
        for bad in ([-1], [True], [False], [2], [0.0], [None], ["c"], [0, -1]):
            with pytest.raises(InputError, match="is not a letter of|unknown letter"):
                alg.atom_of(bad)
        for other in (Alphabet(("a", "b", "c")), A1):
            with pytest.raises(InputError, match="the word is over"):
                alg.atom_of(Word(other, (0,)))


def closure_of_products(gens, alph, semigroup):
    """Reference: the transitions of the closure of each generator's
    product with the universe, built before the closure."""
    if semigroup:
        gens = [intersection(d, nonempty_universal(alph)) for d in gens]
    return tuple(transition_closure(alph, tuple(gens), semigroup=semigroup).transitions)


class TestSemigroupGenerators:
    def test_closing_the_given_dfas_matches_closing_their_products(self):
        rng = random.Random(11)
        for letters in ("a", "ab", "abc"):
            alph = Alphabet(tuple(letters))
            eps = epsilon_language(alph)
            for _ in range(100):
                gens = [regex_to_dfa(random_regex(rng, alph, 4), alph)
                        for _ in range(rng.randint(0, 2))]
                if gens:  # with and without ε: one product, two DFAs
                    gens += [union(gens[0], eps), difference(gens[0], eps)]
                for semigroup in (False, True):
                    alg = generate_algebra(gens, alph, semigroup=semigroup)
                    assert alg.transitions == closure_of_products(gens, alph, semigroup)
                want = tuple(intersection(d, nonempty_universal(alph)) for d in gens)
                assert generate_algebra(gens, alph, semigroup=True).generators == want

    def test_no_product_is_built_before_the_generators_are_read(self, monkeypatch):
        def refused(*args):
            raise AssertionError("intersection was called")

        gens = [regex_to_dfa("a*b*", AB), regex_to_dfa("(ab)*", AB)]
        monkeypatch.setattr(algebra, "intersection", refused)
        b = generate_algebra(gens, AB, semigroup=True)
        assert schutz_sum(b, b).atom_count > b.atom_count
        assert equations._trivial_sum(b).atom_count > b.atom_count  # separation_witness's sum
        with pytest.raises(AssertionError, match="intersection was called"):
            b.generators

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_a_generator_over_another_alphabet_is_refused(self, semigroup):
        with pytest.raises(InputError, match="^the DFAs must share one alphabet$"):
            generate_algebra([regex_to_dfa("a", AB), regex_to_dfa("a", A1)], AB,
                             semigroup=semigroup)


class TestMembership:
    def test_empty_always_member(self):
        for gens in ((), ("(ab)*",)):
            alg = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB)
            assert alg.member(empty_language(AB))

    def test_generator_is_member(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        assert generate_algebra([l]).member(l)

    def test_atom_splitter_is_not_member(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        alg = generate_algebra([l])
        # words starting with a split the b* atom (b* contains ε and b)
        assert not alg.member(regex_to_dfa("a(a|b)*", AB))

    def test_member_from_unknown_atom_refused(self):
        alg = generate_algebra([regex_to_dfa("a(a|b)*", AB)], semigroup=True)
        for i in (-1, alg.atom_count):
            with pytest.raises(InputError):
                alg.member_from_atoms([i])


class TestDualRecogniser:
    def test_trivial_algebra(self):
        dual = dual_recogniser(trivial_algebra(AB))
        assert dual.monoid.size == 1

    def test_contains_a_matches_syntactic_monoid(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        alg = generate_algebra([l])
        dual = dual_recogniser(alg)
        syn = syntactic_monoid(l)
        assert dual.monoid.size == syn.monoid.size == 2
        # the dual evaluation recognises every member
        for i, atom in enumerate(alg.atoms):
            assert dual.tau.preimage({i}) == atom
        assert dual.tau.preimage({alg.atom_of(AB.word("a"))}) == l

    def test_well_defined_on_corpus(self):
        for gens in ((), ("(a|b)*a(a|b)*",), ("(ab)*",), ("(aa)*", "b*")):
            alg = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB)
            assert check_dual_well_defined(alg, max_len=4)

    def test_dual_monoid_recognises_superalgebra(self):
        for gens in (("(a|b)*a(a|b)*",), ("(ab)*",)):
            alg = generate_algebra([regex_to_dfa(g, AB) for g in gens])
            dual = dual_recogniser(alg)
            bigger = recognised_algebra(dual.monoid, AB)
            assert algebra_leq(alg, bigger)

    def test_identity_atom_contains_empty_word(self):
        alg = generate_algebra([regex_to_dfa("(ab)*", AB)])
        dual = dual_recogniser(alg)
        e = dual.monoid.identity
        assert alg.atoms[e].accepts(())

    def test_is_the_algebra_itself(self):
        alg = generate_algebra([regex_to_dfa("(ab)*", AB)])
        assert dual_recogniser(alg) is alg
        assert alg.tau is alg.morphism

    # breadth-first numbered graphs that are not Cayley graphs: (a|b)*a's
    # DFA, a graph whose table is not associative, one whose is, and
    # one in semigroup mode

    @pytest.mark.parametrize("semigroup, graph", [
        (False, ((1, 0), (1, 0))),
        (False, ((0, 1), (2, 0), (0, 0))),
        (False, ((0, 1), (0, 2), (0, 0))),
        (True, ((1, 2), (1, 1), (2, 1))),
    ])
    def test_a_graph_that_is_no_cayley_graph_is_refused(self, semigroup, graph):
        for build in (lambda: FiniteQuotient(AB, semigroup, graph),
                      lambda: LanguageAlgebra(AB, semigroup, graph, lambda _: ())):
            with pytest.raises(InputError, match="^not a Cayley graph: "):
                build()

    def test_the_refusal_names_the_state_and_both_letters(self):
        message = ("^not a Cayley graph: words of state 0 followed by 'b' reach state 0,"
                   " but preceded by 'a' they split$")
        with pytest.raises(InputError, match=message):
            FiniteQuotient(AB, False, ((1, 0), (1, 0)))

    def test_word_check_catches_an_associative_table(self):
        # the constructor refuses the graph, so the oracle gets it unchecked
        bad = unchecked_algebra(AB, ((0, 1), (0, 2), (0, 0)))
        assert dual_recogniser(bad) is bad
        assert _light_defect(bad.monoid.table) is None  # Light's test passes
        assert check_dual_well_defined(bad, max_len=0)
        assert not check_dual_well_defined(bad, max_len=3)
        for max_len in (-1, 1.5, True, None):  # refused, not passed vacuously
            with pytest.raises(InputError, match="word length bound"):
                check_dual_well_defined(bad, max_len=max_len)


def unchecked_algebra(alph, graph):
    """A monoid-mode ``LanguageAlgebra`` on a breadth-first numbered
    graph, built around the constructor's checks."""
    tree = []
    for s, row in enumerate(graph):
        for c, t in enumerate(row):
            if t == len(tree) + 1:
                tree.append((s, c))
    b = object.__new__(LanguageAlgebra)
    vars(b).update(alphabet=alph, semigroup=False, transitions=graph, _tree=tree,
                   _build_generators=lambda _: ())
    return b


class TestSchutzSum:
    def test_sum_with_trivial_adds_marked_extensions(self):
        b = generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)])
        total = schutz_sum(b, trivial_algebra(AB))
        expected_gens = list(b.atoms) + [
            marked_concat(atom, c, universal_language(AB))
            for atom in b.atoms
            for c in range(2)
        ]
        assert total == generate_algebra(expected_gens, AB)

    def test_trivial_sum_over_single_letter(self):
        total = schutz_sum(trivial_algebra(A1), trivial_algebra(A1))
        assert total.atom_count == 2
        assert set(total.atoms) == {
            epsilon_language(A1),
            regex_to_dfa("aa*", A1),
        }

    def test_monotone_in_both_arguments(self):
        chain = [
            trivial_algebra(AB),
            generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)]),
            generate_algebra(
                [regex_to_dfa("(a|b)*a(a|b)*", AB), regex_to_dfa("(a|b)*b(a|b)*", AB)]
            ),
        ]
        others = [trivial_algebra(AB), generate_algebra([regex_to_dfa("b*", AB)])]
        for small, large in zip(chain, chain[1:]):
            assert algebra_leq(small, large)
            for other in others:
                assert algebra_leq(schutz_sum(small, other), schutz_sum(large, other))
                assert algebra_leq(schutz_sum(other, small), schutz_sum(other, large))

    def test_sum_is_quotient_closed(self):
        b = generate_algebra([regex_to_dfa("a(a|b)*", AB)])
        total = schutz_sum(b, trivial_algebra(AB))
        for atom in total.atoms:
            for t in AB.tuples_upto(3):
                w = Word(AB, t)
                assert total.member(left_quotient(w, atom))
                assert total.member(right_quotient(atom, w))


def sum_pool(semigroup, seed):
    """Twelve seeded algebras of zero to two corpus languages."""
    rng = random.Random(seed)
    corpus = corpus_dfas()
    return [generate_algebra([corpus[j] for j in rng.sample(range(len(corpus)), rng.randint(0, 2))],
                             AB, semigroup=semigroup) for _ in range(12)]


def sum_tower(alph, levels, semigroup=False):
    """B1..B(levels), with B0 the trivial algebra and B(n+1) = B(n) + B0."""
    tower = [trivial_algebra(alph, semigroup)]
    for _ in range(levels):
        tower.append(schutz_sum(tower[-1], tower[0]))
    return tower[1:]


def assert_sum_is_literal(b1, b2, ceiling):
    """``schutz_sum`` builds the algebra, generators and all, that the
    closure of its literal generators' DFAs builds, or both meet the
    ceiling; whether the literal closure does is returned."""
    with closure_ceiling(ceiling):
        try:
            want = _literal_sum(b1, b2)
        except ResourceLimitError as exc:
            with pytest.raises(ResourceLimitError, match=f"^{exc}$"):
                schutz_sum(b1, b2)
            return False
        got = schutz_sum(b1, b2)
    assert (got.semigroup, got.transitions, got.generators) == (
        want.semigroup, want.transitions, want.generators)
    return True


class TestSumTriples:
    """``schutz_sum`` is one closure of split-tracking triples, refined
    to the atoms in semigroup mode; the closure of the literal
    generators is its oracle."""

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_matches_the_literal_generators_on_corpus_pools(self, semigroup):
        pool = sum_pool(semigroup, 5)
        built = [assert_sum_is_literal(b1, b2, 600) for b1, b2 in itertools.product(pool, repeat=2)]
        assert built.count(False) < len(built) // 4

    # the literal side of semigroup level 3 takes seconds, so that level
    # is pinned from schutz_sum alone
    @pytest.mark.parametrize("semigroup, alph, atoms, literal", [
        (False, AB, [4, 21, 133, 1073], 4), (False, ABC, [8, 439], 2),
        (True, AB, [15, 222, 4486], 2), (True, ABC, [52], 1),
    ], ids=["ab", "abc", "ab-semigroup", "abc-semigroup"])
    def test_matches_the_literal_generators_on_the_tower(self, semigroup, alph, atoms, literal):
        tower = sum_tower(alph, len(atoms), semigroup)
        assert [b.atom_count for b in tower] == atoms
        trivial = trivial_algebra(alph, semigroup)
        for b in ([trivial] + tower)[:literal]:
            assert assert_sum_is_literal(b, trivial, None)

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_ceiling_at_its_exact_size(self, semigroup):
        b = generate_algebra([regex_to_dfa("a*b*", AB)], AB, semigroup=semigroup)
        n = schutz_sum(b, b).atom_count
        assert n == (240 if semigroup else 241)
        # the ceiling counts the split closure's 241 states, ε's among
        # them, which semigroup mode refines to 240 atoms
        with closure_ceiling(241):
            assert schutz_sum(b, b).atom_count == n
        with closure_ceiling(240):
            with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 240 elements$"):
                schutz_sum(b, b)

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_ceiling_is_met_before_any_generator_is_built(self, monkeypatch, semigroup):
        calls = []

        def counted(*args):
            calls.append(args)
            return marked_concat(*args)

        monkeypatch.setattr(algebra, "marked_concat", counted)
        b = generate_algebra([regex_to_dfa("(a|b)*a(a|b)(a|b)", AB)], AB, semigroup=semigroup)
        with closure_ceiling(4000):
            with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 4000 elements$"):
                schutz_sum(b, b)
        assert calls == []
        # a sum that succeeds builds no generator either
        n = b.atom_count
        assert n == (14 if semigroup else 15)
        total = schutz_sum(trivial_algebra(AB, semigroup), b)
        assert total.atom_count == (70 if semigroup else 39)
        assert calls == []
        # the first read builds one marked concatenation per atom and
        # letter, and a second read builds none
        assert len(total.generators) == 1 + n + n * 2
        assert len(calls) == n * 2
        assert total.generators is total.generators
        assert len(calls) == n * 2

    def test_literal_sum_refuses_more_generators_than_the_ceiling(self, monkeypatch):
        # the oracle's pre-check guards its public callers, the direct
        # side of Thm 11 and ``separation_witness``
        calls = []

        def counted(*args):
            calls.append(args)
            return marked_concat(*args)

        monkeypatch.setattr(algebra, "marked_concat", counted)
        b = generate_algebra([regex_to_dfa("(ab)*", AB)], AB, semigroup=True)
        count = b.atom_count * 2 * b.atom_count
        assert count == 50
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", str(count - 1))
        with pytest.raises(ResourceLimitError, match=(
                f"^literal sum needs {count} marked concatenations, above the closure"
                f" ceiling {count - 1}; LANGREC_MAX_CLOSURE raises it$")):
            _literal_sum(b, b)
        assert calls == []
        with closure_ceiling(count):  # the generators fit, the closure of 348 atoms does not
            with pytest.raises(ResourceLimitError, match=f"^submonoid closure exceeded {count} elements$"):
                _literal_sum(b, b)
        assert len(calls) == count

    def test_operands_over_different_universes_are_refused(self):
        for other in (trivial_algebra(A1), trivial_algebra(AB, semigroup=True)):
            with pytest.raises(InputError, match="same universe"):
                schutz_sum(trivial_algebra(AB), other)


def literal_transport(letter_map, b, source):
    """The algebra generated by the inverse images of b's atoms: the
    definition ``transport`` walks b's machine instead of building."""
    gens = [inverse_image(letter_map, a, source) for a in b.atoms]
    return generate_algebra(gens, source, semigroup=b.semigroup)


def assert_transport_is_literal(letter_map, b, source, ceiling=None):
    """``transport`` builds the algebra, generators and all, that its
    literal definition builds, or both meet the ceiling with one
    message; whether the literal closure does is returned."""
    with closure_ceiling(ceiling):
        try:
            want = literal_transport(letter_map, b, source)
        except ResourceLimitError as exc:
            with pytest.raises(ResourceLimitError, match=f"^{exc}$"):
                transport(letter_map, b, source)
            return False
        got = transport(letter_map, b, source)
    assert (got.alphabet, got.semigroup, got.transitions) == (
        want.alphabet, want.semigroup, want.transitions)
    assert got.generators == want.generators
    return True


class TestTransport:
    def test_identity_transport(self):
        b = generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)])
        same = transport({"a": "a", "b": "b"}, b, AB)
        assert b == same

    def test_transport_along_unmarked_tagging(self):
        ext = ExtendedAlphabet(AB)
        l = regex_to_dfa("('a#0'|'b#0')* 'a#0' ('a#0'|'b#0')*", ext.ext)
        b = generate_algebra([l])
        back = transport({"a": "a#0", "b": "b#0"}, b, AB)
        assert back.member(regex_to_dfa("(a|b)*a(a|b)*", AB))

    def test_inverse_image_of_doubled_letters(self):
        ext = ExtendedAlphabet(AB)
        l = regex_to_dfa("('a#0'|'b#0')*", ext.ext)
        assert inverse_image({"a": "a#0", "b": "b#0"}, l, AB) == universal_language(AB)

    @pytest.mark.parametrize("semigroup", [False, True])
    @pytest.mark.parametrize("source", [AB, ABC], ids=["ab", "abc"])
    def test_matches_the_literal_inverse_images(self, semigroup, source):
        rng = random.Random(21 + 2 * semigroup + len(source))
        pool = sum_pool(semigroup, 3 + semigroup)
        for _ in range(40):
            letter_map = {c: "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
                          for c in source.letters}
            assert assert_transport_is_literal(letter_map, rng.choice(pool), source)

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_empty_images(self, semigroup):
        b = generate_algebra([regex_to_dfa("(ab)*", AB)], AB, semigroup=semigroup)
        for letter_map in ({"a": "", "b": ""}, {"a": "ab", "b": ""}, {"a": "", "b": "ba"}):
            assert assert_transport_is_literal(letter_map, b, AB)
        for letter_map in ({"a": "", "b": "", "c": "a"}, {"a": "ab", "b": "", "c": ""}):
            assert assert_transport_is_literal(letter_map, b, ABC)
        # a non-empty word sent to ε lies in no inverse image: in semigroup
        # mode it is an atom of its own, in monoid mode ε's atom
        t = transport({"a": "ab", "b": ""}, b, AB)
        assert t.atom_of("b") != t.atom_of("ab")
        if semigroup:
            assert all(not g.accepts("b") for g in t.generators)
            assert t.atom_of("bb") == t.atom_of("b")
        else:
            assert t.atom_of("b") == t.atom_of(())

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_ceiling_at_its_exact_size(self, semigroup):
        b = schutz_sum(*[generate_algebra([regex_to_dfa("a*b*", AB)], AB, semigroup=semigroup)] * 2)
        letter_map = {"a": "ab", "b": "b", "c": "ba"}
        n = transport(letter_map, b, ABC).atom_count
        assert assert_transport_is_literal(letter_map, b, ABC, ceiling=n)
        assert not assert_transport_is_literal(letter_map, b, ABC, ceiling=n - 1)
        with closure_ceiling(n - 1):
            with pytest.raises(ResourceLimitError, match=f"^submonoid closure exceeded {n - 1} elements$"):
                transport(letter_map, b, ABC)

    def test_letter_maps_are_validated_at_the_call(self):
        b = generate_algebra([regex_to_dfa("(ab)*", AB)], AB)
        with pytest.raises(InputError, match="^letter 'b' has no image$"):
            transport({"a": "a"}, b, AB)
        with pytest.raises(InputError, match="^letter images must be words over the target alphabet$"):
            transport({"a": "a", "b": Word(A1, (0,))}, b, AB)
        with pytest.raises(InputError, match="^letter images must be words over the target alphabet$"):
            inverse_image({"a": "a", "b": Word(A1, (0,))}, b.atoms[0], AB)
        # a key outside the source alphabet names no letter to send
        outside = r"^letter 'z' is not in the source alphabet \('a', 'b'\)$"
        with pytest.raises(InputError, match=outside):
            transport({"a": "a", "b": "b", "z": "a"}, b, AB)
        with pytest.raises(InputError, match=outside):
            inverse_image({"a": "a", "b": "b", "z": "a"}, b.atoms[0], AB)

    def test_generators_keep_the_images_of_the_call(self):
        b = generate_algebra([regex_to_dfa("(ab)*", AB)], AB)
        letter_map = {"a": "ab", "b": "b"}
        t = transport(letter_map, b, AB)
        want = literal_transport(dict(letter_map), b, AB).generators
        letter_map["a"] = "a"
        del letter_map["b"]
        assert t.generators == want


def walked_transport(letter_map, b, source):
    """``transport``'s atom machine as one breadth-first walk of b's
    machine along the letters' images, from a start state -1 of its own
    in semigroup mode: the walk ``transport`` made before it became a
    submonoid closure, kept as its reference."""
    images = algebra._letter_images(letter_map, source, b.alphabet)
    semigroup, g = b.semigroup, b.transitions
    limit = closure_limit()

    def step(x):
        for img in images:
            y = max(x, 0)  # the start state -1 reads as b's empty word
            for c in img:
                y = g[y][c]
            yield y

    _, rows = _explore(
        -1 if semigroup else 0, step, limit + semigroup,
        f"submonoid closure exceeded {limit} elements",
    )
    return tuple(rows)


def seeded_transports(seed, count):
    """Seeded (letter map, algebra, source) triples over one to three
    letters on each side, some images ε, in both modes."""
    rng = random.Random(seed)
    alphabets = (A1, AB, ABC)
    for _ in range(count):
        target, source = rng.choice(alphabets), rng.choice(alphabets)
        gens = [regex_to_dfa(random_regex(rng, target, 3), target) for _ in range(rng.randint(0, 2))]
        b = generate_algebra(gens, target, semigroup=rng.random() < 0.5)
        letter_map = {c: "".join(rng.choice(target.letters) for _ in range(rng.choice((0, 1, 1, 2, 3))))
                      for c in source.letters}
        yield letter_map, b, source


class TestTransportClosure:
    """``transport`` is one ``generate_closure`` of the letters' elements
    of b; it numbers the Cayley graph that walking b's machine did."""

    def test_matches_the_walk_on_seeded_algebras(self):
        modes, epsilons, shared = set(), 0, 0
        for letter_map, b, source in seeded_transports(25, 120):
            got = transport(letter_map, b, source)
            assert got.transitions == walked_transport(letter_map, b, source)
            modes.add(b.semigroup)
            epsilons += "" in letter_map.values()
            # two letters whose different image words reach one element
            words = set(letter_map.values()) - {""}
            shared += len({b.atom_of(w) for w in words}) < len(words)
        assert modes == {False, True} and epsilons >= 30 and shared >= 30

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_different_image_words_of_one_element(self, semigroup):
        # a and aa lie in one atom of (a|b)*a(a|b)*, as do b and bb
        b = generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)], AB, semigroup=semigroup)
        assert b.atom_of("a") == b.atom_of("aa") and b.atom_of("b") == b.atom_of("bb")
        for letter_map in ({"a": "a", "b": "aa", "c": ""}, {"a": "bb", "b": "b", "c": "ab"},
                           {"a": "", "b": "", "c": "ba"}):
            got = transport(letter_map, b, ABC)
            assert got.transitions == walked_transport(letter_map, b, ABC)
            assert assert_transport_is_literal(letter_map, b, ABC)

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_environment_ceiling_at_its_exact_size(self, semigroup, monkeypatch):
        # the semigroup start state is not counted against the ceiling
        b = schutz_sum(*[generate_algebra([regex_to_dfa("a*b*", AB)], AB, semigroup=semigroup)] * 2)
        letter_map = {"a": "ab", "b": "", "c": "ba"}
        n = transport(letter_map, b, ABC).atom_count
        assert len(walked_transport(letter_map, b, ABC)) == n + semigroup
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", str(n))
        assert transport(letter_map, b, ABC).atom_count == n
        walked_transport(letter_map, b, ABC)
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", str(n - 1))
        for build in (transport, walked_transport):
            with pytest.raises(ResourceLimitError, match=f"^submonoid closure exceeded {n - 1} elements$"):
                build(letter_map, b, ABC)

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_one_closure_per_call(self, semigroup, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return generate_closure(*args, **kwargs)

        b = generate_algebra([regex_to_dfa("(ab)*", AB)], AB, semigroup=semigroup)
        monkeypatch.setattr(algebra, "generate_closure", counted)
        transport({"a": "ab", "b": "b"}, b, AB)
        assert len(calls) == 1
        assert calls[0][2] == (None if semigroup else 0)


class TestAlgebraEquality:
    def test_reflexive(self):
        b = generate_algebra([regex_to_dfa("(ab)*", AB)])
        assert b == b

    def test_same_algebra_different_generators(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        assert generate_algebra([l]) == generate_algebra([regex_to_dfa("b*", AB)])

    def test_distinguishes_modes(self):
        assert trivial_algebra(AB) != trivial_algebra(AB, semigroup=True)

    def test_equality_and_hash_ignore_the_generators(self):
        b1 = generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)])
        b2 = generate_algebra([regex_to_dfa("b*", AB)])
        assert b1.generators != b2.generators
        assert b1 == b2 and hash(b1) == hash(b2)
        assert "generators" not in repr(b1)
        assert b1 != trivial_algebra(AB)


class TestRecognisedAlgebraResource:
    @pytest.mark.parametrize("semigroup", [False, True])
    def test_generators_are_the_atoms(self, semigroup):
        monoids = enumerate_monoids(2) + (enumerate_semigroups(2) if semigroup else ())
        for m in monoids:
            alg = recognised_algebra(m, AB, semigroup=semigroup)
            assert alg.generators == alg.atoms
            assert alg.generators[0] is alg.atoms[0]

    def test_atom_bound(self):
        z3 = FiniteMonoid(((0, 1, 2), (1, 2, 0), (2, 0, 1)), identity=0)
        with closure_ceiling(2), pytest.raises(ResourceLimitError):
            recognised_algebra(z3, AB)


def cayley_closure_algebra(m, alph, semigroup):
    """The reference for ``recognised_algebra``: the closure of the
    letters acting on the disjoint union of every distinct image Cayley
    graph of a morphism, multiplied by composition."""
    rows = []
    for g in dict.fromkeys(tuple(h.image.transitions) for h in all_morphisms(alph, m)):
        off = len(rows)
        rows += [[off + q for q in row] for row in g]
    letters = [tuple(row[c] for row in rows) for c in range(len(alph))]
    unit = None if semigroup else tuple(range(len(rows)))
    closure = generate_closure(letters, lambda x, y: tuple(map(y.__getitem__, x)), unit)
    return tuple(closure.transitions)


def thm4_diamonds():
    return [UnarySchutz(s).as_finite_monoid(max_base=3)[0] for s in enumerate_semigroups(2)]


class TestRecognisedAlgebraClosure:
    """``recognised_algebra`` is one closure of the letters' tuples
    (h(c))_h over every morphism h, multiplied componentwise; it must
    give the machine of the closure of the image Cayley graphs."""

    @pytest.mark.parametrize("alph", [A1, AB], ids=["a", "ab"])
    @pytest.mark.parametrize("semigroup", [False, True])
    def test_monoids_match_the_cayley_graph_closure(self, alph, semigroup):
        for m in enumerate_monoids(1) + enumerate_monoids(2) + enumerate_monoids(3):
            got = recognised_algebra(m, alph, semigroup=semigroup)
            assert got.transitions == cayley_closure_algebra(m, alph, semigroup)

    @pytest.mark.parametrize("alph", [A1, AB], ids=["a", "ab"])
    def test_semigroups_match_the_cayley_graph_closure(self, alph):
        for m in enumerate_semigroups(1) + enumerate_semigroups(2) + enumerate_semigroups(3):
            got = recognised_algebra(m, alph)
            assert got.semigroup
            assert got.transitions == cayley_closure_algebra(m, alph, True)

    def test_thm4_diamonds_match_the_cayley_graph_closure(self):
        for diamond in thm4_diamonds():
            got = recognised_algebra(diamond, AB, semigroup=True)
            assert got.transitions == cayley_closure_algebra(diamond, AB, True)

    def test_one_closure_and_no_transition_closure(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])  # the unit
            return generate_closure(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("transition_closure called")

        for module in (algebra, monoids):
            monkeypatch.setattr(module, "generate_closure", counted)
            monkeypatch.setattr(module, "transition_closure", refused)
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        assert recognised_algebra(u1, AB).atom_count == 4
        assert calls == [(0, 0, 0, 0)]  # one component per morphism
        recognised_algebra(u1, AB, semigroup=True)
        assert calls == [(0, 0, 0, 0), None]

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_ceiling_at_the_exact_size(self, semigroup):
        for m in thm4_diamonds() if semigroup else enumerate_monoids(3):
            n = recognised_algebra(m, AB, semigroup=semigroup).atom_count
            with closure_ceiling(n):
                assert recognised_algebra(m, AB, semigroup=semigroup).atom_count == n
            with closure_ceiling(n - 1):
                with pytest.raises(ResourceLimitError, match=f"submonoid closure exceeded {n - 1} elements"):
                    recognised_algebra(m, AB, semigroup=semigroup)


class TestModeFlag:
    """A ``semigroup`` flag that is not a bool is refused before any
    closure runs: 2 and 0 passed truth tests as semigroup and monoid
    mode, and "no" failed with a TypeError."""

    @pytest.mark.parametrize("flag", [2, 0, 1, "no", None, 1.0])
    def test_constructions_refuse_a_flag_that_is_not_a_bool(self, monkeypatch, flag):
        def refused(*args, **kwargs):
            raise AssertionError("a closure ran")

        for module in (algebra, monoids):
            monkeypatch.setattr(module, "generate_closure", refused)
            monkeypatch.setattr(module, "transition_closure", refused)
        builds = [
            lambda: generate_algebra([regex_to_dfa("a", AB)], AB, semigroup=flag),
            lambda: trivial_algebra(AB, flag),
        ]
        if flag is not None:  # None asks recognised_algebra for the monoid's own mode
            builds.append(lambda: recognised_algebra(enumerate_semigroups(2)[0], AB, semigroup=flag))
        for build in builds:
            with pytest.raises(InputError, match="semigroup must be true or false"):
                build()

    @pytest.mark.parametrize("flag", [2, 0, 1, "no", None])
    def test_every_quotient_refuses_a_flag_that_is_not_a_bool(self, flag):
        with pytest.raises(InputError, match="semigroup must be true or false"):
            FiniteQuotient(AB, flag, ((1, 1), (1, 1)))
        with pytest.raises(InputError, match="semigroup must be true or false"):
            LanguageAlgebra(AB, flag, ((0, 0),), lambda _: ())

    def test_bool_flags_and_the_default_still_build(self):
        assert generate_algebra([regex_to_dfa("a", AB)], AB, semigroup=True).atom_count == 2
        assert trivial_algebra(AB, True).semigroup and not trivial_algebra(AB).semigroup
        assert recognised_algebra(enumerate_semigroups(2)[0], AB).semigroup
        with pytest.raises(InputError, match="needs a monoid with identity"):
            recognised_algebra(enumerate_semigroups(2)[0], AB, semigroup=False)


def looped_concat_algebra(phi1, phi2):
    """The reference for thm10's algebra: the preimage of every element
    of both targets and every marked concatenation of two, all built as
    DFAs and closed."""
    alph = phi1.alphabet
    gens = [phi1.preimage({x}) for x in range(phi1.target.size)]
    gens += [phi2.preimage({y}) for y in range(phi2.target.size)]
    for c in range(len(alph)):
        for x in range(phi1.target.size):
            l1 = phi1.preimage({x})
            for y in range(phi2.target.size):
                gens.append(marked_concat(l1, c, phi2.preimage({y})))
    return generate_algebra(gens, alph)


def concat_pairs():
    """40 seeded pairs over {a, b}, the benchmark's three fixed pairs, and
    seeded pairs over {a} (targets of size <= 3) and {a, b, c} (<= 2)."""
    rng = random.Random(0)
    pairs = [_sample_pair(rng, 3) for _ in range(40)]
    u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
    z2 = FiniteMonoid(((0, 1), (1, 0)), identity=0)
    for (m1, im1), (m2, im2) in (((u1, (0, 1)), (u1, (0, 1))), ((u1, (0, 1)), (u1, (1, 0))),
                                 ((z2, (0, 1)), (u1, (0, 1)))):
        pairs.append((MonoidMorphism(AB, m1, im1), MonoidMorphism(AB, m2, im2)))
    rng = random.Random(1)
    for alph, sizes in ((A1, (1, 2, 3)), (ABC, (1, 2))):
        pool = [m for n in sizes for m in enumerate_monoids(n)]
        for _ in range(6):
            m1, m2 = rng.choice(pool), rng.choice(pool)
            pairs.append(tuple(
                MonoidMorphism(alph, m, tuple(rng.randrange(m.size) for _ in alph.letters))
                for m in (m1, m2)
            ))
    return pairs


class TestConcatAlgebra:
    """Thm 10 as a four-way identity: the algebra generated by both
    factors and their marked concatenations (looped reference, and the
    literal sum of the factors' algebras), the split-tracking sum of
    those algebras, and the Cayley graph of the local product-of-splits
    morphism."""

    def test_four_constructions_agree(self):
        sizes = set()
        for phi1, phi2 in concat_pairs():
            got = _generated_concat_algebra(phi1, phi2)
            assert got == looped_concat_algebra(phi1, phi2)
            assert got == schutz_sum(_image_algebra(phi1), _image_algebra(phi2))
            assert got.transitions == tuple(local_schutz_morphism(phi1, phi2).closure.transitions)
            sizes.add((len(got.alphabet), got.atom_count))
        assert {k for k, _ in sizes} == {1, 2, 3}
        assert max(n for _, n in sizes) == 2635

    def test_image_algebra_atoms_are_the_element_preimages(self):
        for phi, _ in concat_pairs():
            b = _image_algebra(phi)
            assert b.atoms == tuple(phi.preimage({x}) for x in phi.image.elements)
            assert b.generators == b.atoms

    def test_ceiling_at_the_exact_size(self):
        phi1, phi2 = concat_pairs()[-1]
        n = _generated_concat_algebra(phi1, phi2).atom_count
        assert _generated_concat_algebra(phi1, phi2, max_states=n).atom_count == n
        with pytest.raises(ResourceLimitError, match=f"submonoid closure exceeded {n - 1} elements"):
            _generated_concat_algebra(phi1, phi2, max_states=n - 1)


class TestAtomCeiling:
    """The atoms are the elements of one transition closure, so the
    closure's ceiling is the only bound on their count."""

    # a is the 7-cycle and b swaps states 0 and 1: the transition monoid
    # is the symmetric group S7, and the algebra has 7! atoms
    S7 = Dfa(AB, 7, tuple(((q + 1) % 7, {0: 1, 1: 0}.get(q, q)) for q in range(7)), {0})

    def test_default_ceiling_admits_the_symmetric_group(self):
        assert generate_algebra([self.S7]).atom_count == 5040

    def test_explicit_bound(self):
        with closure_ceiling(5039):
            with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 5039 elements$"):
                generate_algebra([self.S7])

    def test_environment_bound(self, monkeypatch):
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", "5039")
        with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 5039 elements$"):
            generate_algebra([self.S7])


# -- the atom machine ------------------------------------------------------

CORPUS_ALGEBRAS = {
    f"{'semigroup' if semigroup else 'monoid'}-{'+'.join(gens) or 'trivial'}": generate_algebra(
        [regex_to_dfa(g, AB) for g in gens], AB, semigroup=semigroup
    )
    for semigroup in (False, True)
    for gens in ((), ("(a|b)*a(a|b)*",), ("(ab)*",), ("(aa)*", "b*"), ("a(a|b)*", "b*"))
}
corpus_algebra = pytest.mark.parametrize(
    "alg", list(CORPUS_ALGEBRAS.values()), ids=list(CORPUS_ALGEBRAS)
)


def saturation_by_atom_dfas(alg, l):
    """The atom-DFA definition of saturation: two products per atom."""
    if alg.semigroup and l.accepts(()):
        return None
    inside = set()
    for i, a in enumerate(alg.atoms):
        if not intersection(a, l).is_empty():
            if not difference(a, l).is_empty():
                return None
            inside.add(i)
    return frozenset(inside)


def random_minimal_dfa(rng, states):
    while True:
        d = Dfa.from_json_dict({
            "alphabet": ["a", "b"],
            "states": states,
            "accepting": [q for q in range(states) if rng.random() < 0.5],
            "transitions": [[rng.randrange(states) for _ in "ab"] for _ in range(states)],
        })
        if d.states == states:
            return d


class TestAtomMachine:
    @corpus_algebra
    def test_saturation_matches_atom_dfas(self, alg):
        rng = random.Random(alg.atom_count)
        n = alg.atom_count
        for _ in range(6):
            subset = frozenset(i for i in range(n) if rng.random() < 0.5)
            member = alg.member_from_atoms(subset)
            assert member == functools.reduce(
                union, (alg.atoms[i] for i in subset), empty_language(AB)
            )
            assert alg.saturation(member) == subset == saturation_by_atom_dfas(alg, member)
        for states in (1, 2, 3, 4, 6):
            l = random_minimal_dfa(rng, states)
            assert alg.saturation(l) == saturation_by_atom_dfas(alg, l)
        for l in (empty_language(AB), universal_language(AB), epsilon_language(AB)):
            assert alg.saturation(l) == saturation_by_atom_dfas(alg, l)

    @corpus_algebra
    def test_atoms_in_shortlex_order_of_representatives(self, alg):
        keys = [(len(w), w.indices) for w in alg.atom_reps]
        assert keys == sorted(set(keys))
        assert len(alg.atoms) == len(alg.atom_reps) == alg.atom_count
        for i, w in enumerate(alg.atom_reps):
            assert alg.atom_of(w) == i
            assert alg.atoms[i].shortest_accepted() == w.indices

    def test_leq_matches_atom_membership(self):
        # b1 <= b2 exactly when every atom of b1 is a member of b2, in
        # either mode on either side
        for b1 in CORPUS_ALGEBRAS.values():
            for b2 in CORPUS_ALGEBRAS.values():
                assert algebra_leq(b1, b2) == all(
                    saturation_by_atom_dfas(b2, a) is not None for a in b1.atoms
                )

    def test_queries_build_no_atom_dfas(self):
        b = generate_algebra([regex_to_dfa("a*", AB)], AB)
        alg = schutz_sum(b, b)
        alg.atom_of(AB.word("abba"))
        alg.saturation(regex_to_dfa("(a|b)*b", AB))
        alg.member_from_atoms([0, 3])
        assert alg == alg
        dual_recogniser(alg)
        assert "atoms" not in vars(alg)


# -- atom DFAs by the left letter action against minimisation --------------


@functools.lru_cache(maxsize=None)
def query_sum(base):
    """B + B for the one-language algebra B = <base>: 44, 84, 124 and 241
    atoms for a, (aa)*, ab and a*b*."""
    b = generate_algebra([regex_to_dfa(base, AB)], AB)
    return schutz_sum(b, b)


UNION_ALGEBRAS = {
    **CORPUS_ALGEBRAS,
    **{f"{'semigroup' if semigroup else 'monoid'}-abc-{'+'.join(gens)}": generate_algebra(
        [regex_to_dfa(g, ABC) for g in gens], ABC, semigroup=semigroup)
       for semigroup in (False, True)
       for gens in [("(a|b|c)*ab", "c*a")]},
    "one-letter-trivial": trivial_algebra(A1),
}


def assert_unions_match_minimisation(alg, subsets):
    """Every atom, the seeded subsets of atoms, and the empty and full
    unions equal the minimised Cayley graph with those atoms' states
    accepting."""
    n, off = alg.atom_count, alg.semigroup
    for i in range(n):
        want = _canonical(alg.alphabet, alg.transitions, {i + off}, 0)
        assert alg.atoms[i] == alg.member_from_atoms([i]) == want
    rng = random.Random(len(alg.transitions))
    atoms = [set(), set(range(n))]
    atoms += [{i for i in range(n) if rng.random() < 0.5} for _ in range(subsets)]
    for subset in atoms:
        want = _canonical(alg.alphabet, alg.transitions, {i + off for i in subset}, 0)
        assert alg.member_from_atoms(subset) == want


class TestUnionLanguage:
    @pytest.mark.parametrize("alg", list(UNION_ALGEBRAS.values()), ids=list(UNION_ALGEBRAS))
    def test_matches_minimisation(self, alg):
        assert_unions_match_minimisation(alg, 8)

    @pytest.mark.parametrize("base", ["a", "(aa)*", "ab", "a*b*"])
    def test_benchmark_sums_match_minimisation(self, base):
        alg = query_sum(base)
        assert alg.atom_count == {"a": 44, "(aa)*": 84, "ab": 124, "a*b*": 241}[base]
        assert_unions_match_minimisation(alg, 4)

    def test_no_minimisation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_minimise was called")

        alg = generate_algebra([regex_to_dfa("(ab)*", AB)], AB, semigroup=True)
        # the a's counted modulo 3 and the b's modulo 2, non-empty words only
        closure = generate_closure(
            [(1, 0), (0, 1)], lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 2), None
        )
        want = [_canonical(AB, alg.transitions, {i + 1}, 0) for i in range(alg.atom_count)]
        want_union = _canonical(AB, alg.transitions, {1, 3}, 0)
        want_closure = _canonical(AB, closure.transitions, {1, 2}, 0)
        monkeypatch.setattr(languages, "_minimise", refuse)
        with pytest.raises(AssertionError, match="_minimise was called"):
            _canonical(AB, alg.transitions, {1}, 0)
        assert list(alg.atoms) == want
        assert alg.member_from_atoms([0, 2]) == want_union
        assert closure.language(AB, {(1, 0), (0, 1)}.__contains__) == want_closure

    def test_refuses_bad_atom_indices(self):
        assert LanguageAlgebra.member_from_atoms is FiniteQuotient.union_language
        for semigroup in (False, True):
            alg = generate_algebra([regex_to_dfa("a(a|b)*", AB)], AB, semigroup=semigroup)
            for bad in (1.0, True, False, "1", None, -1, alg.atom_count):
                with pytest.raises(InputError, match="element index .* is not an integer"):
                    alg.member_from_atoms([bad])
                with pytest.raises(InputError, match="element index .* is not an integer"):
                    alg.member_from_atoms([0, bad])


# -- the transition closure against the syntactic-monoid oracle ------------


def syntactic_product_closure(gens, semigroup):
    """The letter-generated closure in the product of the generators'
    syntactic monoids, with its multiplication: the joint quotient
    written out one syntactic monoid per generator."""
    syns = [syntactic_monoid(g) for g in gens]
    images = [tuple(s.morphism.letter_images[c] for s in syns) for c in range(len(AB))]
    unit = None if semigroup else tuple(s.monoid.identity for s in syns)

    def mul(x, y):
        return tuple(s.monoid.table[a][b] for s, a, b in zip(syns, x, y))

    return generate_closure(images, mul, unit), mul


def corpus_generator_sets():
    """Seeded corpus subsets of 0 to 4 languages, and the edge cases: no
    generators, duplicated generators, generators holding the empty word."""
    rng = random.Random(5)
    corpus = corpus_dfas()
    sets = [[corpus[j] for j in rng.sample(range(len(corpus)), rng.randint(0, 4))]
            for _ in range(30)]
    dup = regex_to_dfa("(ab)*", AB)
    sets += [[], [dup, dup], [dup, regex_to_dfa("a*", AB), dup]]
    sets += [[regex_to_dfa(r, AB) for r in rs] for rs in (("ε",), ("ε|a",), ("~∅", "b*"))]
    return sets


class TestTransitionClosureOracle:
    @pytest.mark.parametrize("semigroup", [False, True])
    def test_atoms_are_the_joint_syntactic_classes(self, semigroup):
        for gens in corpus_generator_sets():
            alg = generate_algebra(gens, AB, semigroup=semigroup)
            closure, _ = syntactic_product_closure(gens, semigroup)
            assert alg.atom_count == len(closure.elements)
            # one atom per closure element, word by word
            g, off = closure.transitions, closure.semigroup
            pairs = set()
            for t in AB.tuples_upto(5, 1 if semigroup else 0):
                state = 0
                for c in t:
                    state = g[state][c]
                pairs.add((alg.atom_of(t), state - off))
            assert len(pairs) == len({a for a, _ in pairs}) == len({e for _, e in pairs})

    def test_joint_quotient_is_the_syntactic_product(self):
        for gens in corpus_generator_sets():
            if not gens:
                continue
            q = joint_quotient(gens)
            closure, mul = syntactic_product_closure(gens, False)
            elems = closure.elements
            index = {x: i for i, x in enumerate(elems)}
            assert len(index) == len(elems)
            assert q.monoid.table == tuple(
                tuple(index[mul(x, y)] for y in elems) for x in elems
            )
            letters = closure.transitions[0]
            assert q.morphism.letter_images == tuple(letters)
            # the first word of each element, words in shortlex order
            least: dict[int, tuple[int, ...]] = {}
            length = 0
            while len(least) < len(elems):
                for t in itertools.product(range(len(AB)), repeat=length):
                    x = functools.reduce(mul, (elems[letters[c]] for c in t), elems[0])
                    least.setdefault(index[x], t)
                length += 1
            assert [w.indices for w in q.reps] == [least[i] for i in range(len(elems))]

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_generators_need_not_be_minimal(self, semigroup):
        # a* with two accepting states for it and an unreachable state
        table = ((1, 2), (0, 2), (2, 2), (0, 3))
        d = Dfa(AB, 4, table, frozenset({0, 1}), 0)
        alg = generate_algebra([d], AB, semigroup=semigroup)
        assert alg == generate_algebra([_canonical(AB, table, {0, 1}, 0)], AB, semigroup=semigroup)
        assert alg == generate_algebra([regex_to_dfa("a*", AB)], AB, semigroup=semigroup)

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_atom_machines_are_minimal(self, semigroup):
        algebras = [generate_algebra(gens, AB, semigroup=semigroup)
                    for gens in corpus_generator_sets()]
        monoids = enumerate_semigroups(2) + enumerate_monoids(3) if semigroup else enumerate_monoids(3)
        algebras += [recognised_algebra(m, AB, semigroup=semigroup) for m in monoids]
        for alg in algebras:
            t = alg.transitions
            assert _minimise(t, range(len(t)))[0] == t

    @pytest.mark.parametrize("name", [n for n in CORPUS_ALGEBRAS if n.startswith("monoid")])
    def test_dual_recogniser_is_the_joint_quotient_of_the_atoms(self, name):
        # duality: the recogniser of an algebra is the joint syntactic
        # monoid of its atoms, representatives and labels included
        b = CORPUS_ALGEBRAS[name]
        dual, q = dual_recogniser(b), joint_quotient(list(b.atoms))
        assert (dual.alphabet, dual.semigroup, dual.transitions) == (
            q.alphabet, q.semigroup, q.transitions)

    @corpus_algebra
    def test_dual_table_is_the_atom_of_concatenated_representatives(self, alg):
        table = dual_recogniser(alg).monoid.table
        words = [w.indices for w in alg.atom_reps]
        assert table == tuple(tuple(alg.atom_of(u + v) for v in words) for u in words)
