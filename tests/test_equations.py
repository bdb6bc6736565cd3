import random

import pytest

from langrec import (
    Alphabet,
    EquationInstance,
    InputError,
    PreconditionError,
    ResourceLimitError,
    UltrafilterApprox,
    Word,
    bsum2_membership_by_equations,
    bsum2_membership_direct,
    bsum2_quotient,
    dual_recogniser,
    empty_language,
    equation_set,
    factorizations,
    generate_algebra,
    in_equation_set,
    joint_quotient,
    prefix_classes,
    regex_to_dfa,
    satisfies_equation,
    schutz_sum,
    separation_witness,
    syntactic_monoid,
    trivial_algebra,
    universal_language,
)
from langrec.equations import (
    _atom_map,
    _components,
    _equation_signatures,
    _equations_hold,
    _joint_closure,
    _split_words,
    _trivial_sum,
    lemma_factor_violations,
    lemma_witness_check,
)
from langrec import algebra, equations
from langrec.campaigns import _THM11_B_POOL, _THM11_K_POOL, corpus_dfas, random_regex
from langrec.languages import (
    _explore,
    closure_ceiling,
    closure_limit,
    difference,
    intersection,
    marked_concat,
    symmetric_difference,
)
from langrec.monoids import FiniteQuotient, generate_closure, transition_closure

AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))
A3 = Alphabet(("a", "b", "c"))


def points(q, *texts):
    return [UltrafilterApprox.of_word(q, Word.parse(q.alphabet, t)) for t in texts]


def marked_concat_quotient(k, b, ceiling=None):
    """The joint quotient of b's atom DFAs, of every marked extension
    atom.c.(all words) built by ``marked_concat``'s subset construction,
    and of K: the direct form of ``bsum2_quotient``, kept as its oracle.
    ``ceiling`` bounds the joint closure alone."""
    univ = universal_language(b.alphabet)
    exts = [marked_concat(atom, c, univ) for atom in b.atoms for c in range(len(b.alphabet))]
    with closure_ceiling(ceiling):
        return joint_quotient(list(b.atoms) + exts + [k])


def benchmark_draw(i):
    """Draw i as the equation benchmark's generator makes it: from
    ``random.Random(i)``, two or three letters, one or two depth-3
    random generators of B, then a depth-3 random candidate K."""
    rng = random.Random(i)
    alph = Alphabet(tuple("abc"[: rng.choice((2, 2, 3))]))
    gens = [regex_to_dfa(random_regex(rng, alph, depth=3), alph) for _ in range(rng.choice((1, 2)))]
    k = regex_to_dfa(random_regex(rng, alph, depth=3), alph)
    return k, generate_algebra(gens, alph)


@pytest.fixture(scope="module")
def sum_tower():
    """B0 = the trivial algebra over {a, b} and B(n+1) = schutz_sum(Bn, B0),
    up to B4: 1, 4, 21, 133 and 1 073 atoms."""
    tower = [trivial_algebra(AB)]
    for _ in range(4):
        tower.append(schutz_sum(tower[-1], tower[0]))
    assert [b.atom_count for b in tower] == [1, 4, 21, 133, 1073]
    return tower


def reachable_by_search(g, s):
    seen, todo = {s}, [s]
    while todo:
        for t in g[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return sum(1 << t for t in seen)


def quotient_signatures(q, b):
    """``_equation_signatures`` on a quotient from outside, whose B-atoms
    come from ``_atom_map``, as ``equation_set`` reads them."""
    return _equation_signatures(q.transitions, q.semigroup, _atom_map(q, b), b.atom_count)


def packed_prefix_signatures(q, b):
    """Per element, its B-atom and the bitmask of bits
    c * |B| + atom(p) over the prefix sides p of its factorisations at
    each letter c, read off the table scan of ``prefix_classes``."""
    atom_of = _atom_map(q, b)
    return [
        (atom_of[x], sum(
            1 << (c * b.atom_count + atom)
            for c in range(len(q.alphabet))
            for atom in {atom_of[p] for p in prefix_classes(UltrafilterApprox(q, x), c)}
        ))
        for x in range(q.size)
    ]


def separation_by_atom_dfas(k, b):
    """The per-atom search: the first atom of the sum, in atom order,
    that K splits, with its shortlex-least words in and out of K."""
    total = schutz_sum(b, trivial_algebra(b.alphabet, b.semigroup))
    for i, atom in enumerate(total.atoms):
        inside, outside = intersection(atom, k), difference(atom, k)
        if not inside.is_empty() and not outside.is_empty():
            u, v = inside.shortest_accepted(), outside.shortest_accepted()
            return i, (Word(k.alphabet, u), Word(k.alphabet, v))
    return None, None


def test_points_must_be_integers_in_range():
    q = joint_quotient([regex_to_dfa("(aa)*", A1)])
    assert q.size == 2
    for bad in (-1, 2, True, False, 1.0, None):
        with pytest.raises(InputError, match=r"^point .* is not an integer in 0\.\.1$"):
            UltrafilterApprox(q, bad)


class TestSatisfiesEquation:
    def test_reflexive_pairs_always_hold(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        q = joint_quotient([l])
        for i in range(q.monoid.size):
            e = EquationInstance(UltrafilterApprox(q, i), UltrafilterApprox(q, i))
            assert satisfies_equation(l, e)

    def test_same_class_words(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        q = joint_quotient([l])
        mu, nu = points(q, "b", "bb")
        assert mu.point == nu.point  # both in the identity class
        assert satisfies_equation(l, EquationInstance(mu, nu))

    def test_separating_pair_fails(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        q = joint_quotient([l])
        mu, nu = points(q, "a", "b")
        assert not satisfies_equation(l, EquationInstance(mu, nu))

    def test_unrecognised_language_is_a_precondition_error(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        q = joint_quotient([l])
        mu, nu = points(q, "a", "b")
        with pytest.raises(PreconditionError):
            satisfies_equation(regex_to_dfa("a(a|b)*", AB), EquationInstance(mu, nu))


class TestPrefixClasses:
    def test_trivial_monoid(self):
        q = joint_quotient([universal_language(AB)])
        assert q.monoid.size == 1
        assert prefix_classes(UltrafilterApprox(q, 0), "a") == frozenset({0})

    def test_absorbing_class_factors_everywhere(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        q = joint_quotient([l])
        (mu,) = points(q, "a")
        assert prefix_classes(mu, "a") == frozenset({0, 1})

    def test_identity_class_has_no_factorisation_at_a(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        q = joint_quotient([l])
        (mu,) = points(q, "b")
        assert prefix_classes(mu, "a") == frozenset()

    def test_factorizations_refuse_points_outside_the_quotient(self):
        q = joint_quotient([regex_to_dfa("(a|b)*a(a|b)*", AB)])
        assert q.size == 2
        for bad in (-1, 2, True, False, 1.0, None):
            with pytest.raises(InputError, match=r"^point .* is not an integer in 0\.\.1$"):
                factorizations(q, bad, "a")

    def test_factorizations_are_table_exact(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        q = joint_quotient([l])
        img = q.morphism.letter_images[0]
        for point in range(q.monoid.size):
            for f in factorizations(q, point, "a"):
                assert q.monoid.mul(q.monoid.mul(f.prefix_class, img), f.suffix_class) == point


class TestEquationSet:
    def test_reflexive_membership(self):
        b = generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)])
        q = bsum2_quotient(universal_language(AB), b)
        for i in range(q.monoid.size):
            e = EquationInstance(UltrafilterApprox(q, i), UltrafilterApprox(q, i))
            assert in_equation_set(e, b)

    def test_idempotent_pair_is_an_equation(self):
        b = generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)])
        q = bsum2_quotient(universal_language(AB), b)
        mu, nu = points(q, "b", "bb")
        assert in_equation_set(EquationInstance(mu, nu), b)
        # cross-check: the languages of the sum satisfy it
        total = schutz_sum(b, trivial_algebra(AB))
        for atom in total.atoms:
            assert satisfies_equation(atom, EquationInstance(mu, nu))

    def test_prefix_condition_alone_can_fail(self):
        # over the trivial algebra both points share the unique atom, so
        # only the letter-factorisation condition can separate them
        b = trivial_algebra(AB)
        q = bsum2_quotient(universal_language(AB), b)
        mu, nu = points(q, "a", "b")
        e = EquationInstance(mu, nu)
        assert not in_equation_set(e, b)
        assert {p for p in prefix_classes(nu, "a")} == set()

    def test_equation_set_lists_same_signature_pairs(self):
        b = generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)])
        q = bsum2_quotient(universal_language(AB), b)
        pairs = equation_set(q, b)
        for e in pairs:
            assert in_equation_set(e, b)

    @pytest.mark.parametrize("alph, seed", [(AB, 41), (A3, 43)])
    def test_equation_set_matches_the_pair_scan(self, alph, seed):
        # B from at most one generator, read on the joint quotient of its
        # generator and two more: many points share a signature
        rng = random.Random(seed)
        counts = []
        for _ in range(10):
            gens = [regex_to_dfa(random_regex(rng, alph, 2), alph) for _ in range(rng.randint(0, 1))]
            extra = [regex_to_dfa(random_regex(rng, alph, 3), alph) for _ in range(2)]
            b = generate_algebra(gens, alph)
            with closure_ceiling(80):
                q = joint_quotient(gens + extra)
            sigs = quotient_signatures(q, b)
            expected = [
                (i, j) for i in range(q.size) for j in range(i + 1, q.size) if sigs[i] == sigs[j]
            ]
            pairs = equation_set(q, b)
            assert [(e.mu.point, e.nu.point) for e in pairs] == expected
            assert all(e.quotient is q for e in pairs)
            counts.append(len(expected))
        assert min(counts) == 0 and max(counts) >= 7


class TestMembershipDecision:
    def test_members_of_the_base_algebra_pass(self):
        b = generate_algebra([regex_to_dfa("(a|b)*a(a|b)*", AB)])
        for atom in b.atoms:
            assert bsum2_membership_by_equations(atom, b)

    def test_marked_extension_over_trivial(self):
        b = trivial_algebra(AB)
        k = regex_to_dfa("(a|b)*a(a|b)*", AB)  # all words, then a, then all words
        assert bsum2_membership_by_equations(k, b)
        assert bsum2_membership_direct(k, b)

    def test_suffix_language_is_outside(self):
        b = trivial_algebra(AB)
        k = regex_to_dfa("(a|b)*a", AB)
        assert not bsum2_membership_by_equations(k, b)
        assert not bsum2_membership_direct(k, b)

    def test_agreement_on_seeded_instances(self):
        rng = random.Random(19)
        pools = {
            A1: ("∅", "ε", "a", "aa*", "(aa)*", "~∅"),
            AB: ("a", "ab", "a(a|b)*", "(a|b)*a", "(a|b)*a(a|b)*", "b*", "(ab)*"),
        }
        b_pools = {
            A1: ((), ("(aa)*",), ("a",)),
            AB: ((), ("(a|b)*a(a|b)*",), ("b*",)),
        }
        for _ in range(30):
            alph = rng.choice([A1, AB])
            b = generate_algebra(
                [regex_to_dfa(g, alph) for g in rng.choice(b_pools[alph])], alph
            )
            k = regex_to_dfa(rng.choice(pools[alph]), alph)
            assert bsum2_membership_by_equations(k, b) == bsum2_membership_direct(k, b)

    def test_refusals(self):
        # the verdict builds its closure without bsum2_quotient, so its
        # refusals are checked on the entry point itself
        gens = [regex_to_dfa("(a|b)*a", AB)]
        k = regex_to_dfa("(ab)*", AB)
        with pytest.raises(PreconditionError, match="^equation machinery works over full-word algebras$"):
            bsum2_membership_by_equations(k, generate_algebra(gens, AB, semigroup=True))
        b = generate_algebra(gens, AB)
        with pytest.raises(InputError, match="^candidate and algebra must share an alphabet$"):
            bsum2_membership_by_equations(regex_to_dfa("(ab)*", A3), b)
        size = bsum2_quotient(k, b).size
        with closure_ceiling(size):
            verdict = bsum2_membership_by_equations(k, b)
        assert verdict == bsum2_membership_direct(k, b)
        with closure_ceiling(size - 1):
            with pytest.raises(ResourceLimitError, match=f"^submonoid closure exceeded {size - 1} elements$"):
                bsum2_membership_by_equations(k, b)


class TestSeparationWitness:
    def test_member_has_no_witness(self):
        b = trivial_algebra(A1)
        assert separation_witness(regex_to_dfa("aa*", A1), b) is None

    def test_even_length_words_are_separated(self):
        b = trivial_algebra(A1)
        k = regex_to_dfa("(aa)*", A1)
        pair = separation_witness(k, b)
        assert pair is not None
        u, v = pair
        assert k.accepts(u) and not k.accepts(v)
        total = schutz_sum(b, trivial_algebra(A1))
        assert total.atom_of(u) == total.atom_of(v)

    def test_witnesses_validate_on_seeded_instances(self):
        rng = random.Random(4)
        pool = ("a", "ab", "(ab)*", "(a|b)*a", "a*", "(aa)*")
        b = trivial_algebra(AB)
        total = schutz_sum(b, trivial_algebra(AB))
        for r in pool:
            k = regex_to_dfa(r, AB)
            pair = separation_witness(k, b)
            if pair is None:
                assert total.member(k)
            else:
                u, v = pair
                assert k.accepts(u) != k.accepts(v)
                assert total.atom_of(u) == total.atom_of(v)


    def test_ceiling_bounds_the_sum_exactly(self):
        k = regex_to_dfa("(a|b)*ab", AB)
        for semigroup in (False, True):
            b = generate_algebra([regex_to_dfa("(ab)*", AB)], AB, semigroup=semigroup)
            trivial = trivial_algebra(AB, semigroup)
            n = schutz_sum(b, trivial).atom_count
            split = algebra._split_closure(b.transitions, trivial.transitions, trivial.transitions)
            assert (n, len(split.elements)) == ((74, 83) if semigroup else (41, 41))
            # separation_witness's ceiling counts the split closure's
            # states, ε's among them, which semigroup mode refines to
            # fewer atoms; the literal oracle's counts the sum's atoms
            bounds = {separation_witness: len(split.elements), bsum2_membership_direct: n}
            for decide, bound in bounds.items():
                want = decide(k, b)
                with closure_ceiling(bound):
                    assert decide(k, b) == want
                with closure_ceiling(bound - 1):
                    with pytest.raises(ResourceLimitError, match=f"submonoid closure exceeded {bound - 1} elements"):
                        decide(k, b)

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_builds_no_marked_concatenation(self, monkeypatch, semigroup):
        def refused(*args):
            raise AssertionError("the literal sum was built")

        for module, name in ((algebra, "marked_concat"), (algebra, "_literal_sum"),
                             (equations, "_literal_sum")):
            monkeypatch.setattr(module, name, refused)
        b = generate_algebra([regex_to_dfa("(ab)*", AB)], AB, semigroup=semigroup)
        assert separation_witness(regex_to_dfa("(a|b)*ab", AB), b) is not None
        assert separation_witness(regex_to_dfa("(ab)*", AB), b) is None

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_matches_the_literal_sum_on_the_thm11_pools(self, semigroup):
        witnesses = []
        for letters, gens in _THM11_B_POOL:
            alph = Alphabet(letters)
            b = generate_algebra([regex_to_dfa(g, alph) for g in gens], alph, semigroup=semigroup)
            total = _trivial_sum(b)
            for regex in _THM11_K_POOL[letters]:
                k = regex_to_dfa(regex, alph)
                witnesses.append(separation_witness(k, b))
                assert witnesses[-1] == _split_words(k, total)
        assert len(witnesses) == 112
        assert None in witnesses and any(witnesses)

    def test_matches_the_per_atom_search(self):
        rng = random.Random(11)
        pool = ((), ("a*",), ("(a|b)*a",), ("(ab)*",), ("b(a|b)*",))
        split_atoms = []
        for n in range(16):
            semigroup = n % 4 == 3
            gens = [regex_to_dfa(g, AB) for g in rng.choice(pool)]
            b = generate_algebra(gens, AB, semigroup=semigroup)
            k = regex_to_dfa(random_regex(rng, AB, 3), AB)
            index, pair = separation_by_atom_dfas(k, b)
            assert separation_witness(k, b) == pair
            split_atoms.append(index)
        # members occur, and refusals whose least split atom is not atom 0
        assert None in split_atoms
        assert any(i for i in split_atoms if i is not None)


class TestAtomMap:
    def test_matches_representatives(self):
        for gens in ((), ("(a|b)*a(a|b)*",), ("b*", "(ab)*")):
            b = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB)
            q = bsum2_quotient(regex_to_dfa("(a|b)*ab", AB), b)
            assert _atom_map(q, b) == [b.atom_of(rep) for rep in q.reps]

    def test_semigroup_mode_matches_representatives(self):
        b = generate_algebra([regex_to_dfa("(ab)*", AB)], AB, semigroup=True)
        finer = generate_algebra([regex_to_dfa(g, AB) for g in ("(ab)*", "a*")], AB, semigroup=True)
        q = dual_recogniser(finer)
        assert _atom_map(q, b) == [b.atom_of(rep) for rep in q.reps]

    def test_too_coarse_quotient_is_refused(self):
        q = joint_quotient([universal_language(AB)])
        b = generate_algebra([regex_to_dfa("(a|b)*a", AB)], AB)
        e = EquationInstance(UltrafilterApprox(q, 0), UltrafilterApprox(q, 0))
        with pytest.raises(PreconditionError):
            in_equation_set(e, b)
        with pytest.raises(PreconditionError):
            equation_set(q, b)

    def test_quotient_of_the_other_mode_is_refused(self):
        gens = [regex_to_dfa("(a|b)*a", AB)]
        semigroup_q = dual_recogniser(generate_algebra(gens, AB, semigroup=True))
        with pytest.raises(PreconditionError):
            equation_set(semigroup_q, generate_algebra(gens, AB))
        with pytest.raises(PreconditionError):
            equation_set(joint_quotient(gens), generate_algebra(gens, AB, semigroup=True))


class TestEquationSignatures:
    def test_match_prefix_classes_on_seeded_draws(self):
        # the per-point factorisation scan is the oracle for the pushed masks
        rng = random.Random(31)
        sizes = []
        for i in range(16):
            alph = AB if i % 2 == 0 else A3
            gens = [regex_to_dfa(random_regex(rng, alph, 2), alph) for _ in range(rng.randint(0, 2))]
            b = generate_algebra(gens, alph)
            k = regex_to_dfa(random_regex(rng, alph, 2), alph)
            try:
                with closure_ceiling(60):
                    q = bsum2_quotient(k, b)
            except ResourceLimitError:
                continue  # the cubic oracle would take seconds
            assert quotient_signatures(q, b) == packed_prefix_signatures(q, b)
            sizes.append(q.monoid.size)
        assert len(sizes) >= 12 and max(sizes) > 40

    def test_semigroup_mode_matches_prefix_classes(self):
        for gens, finer in ((("(ab)*",), ("(ab)*", "a*")), (("b(a|b)*",), ("b(a|b)*", "(a|b)*aa"))):
            b = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB, semigroup=True)
            finer_b = generate_algebra([regex_to_dfa(g, AB) for g in finer], AB, semigroup=True)
            q = dual_recogniser(finer_b)
            assert quotient_signatures(q, b) == packed_prefix_signatures(q, b)

    def test_semigroup_mode_through_a_multi_state_cycle(self):
        # word length mod 3 makes a three-state component of the Cayley
        # graph; the words of length 2 make elements no non-empty suffix
        # leads back to, which only the extra edge keeps off their masks
        gens = [regex_to_dfa("((a|b)(a|b)(a|b))*", AB)]
        finer = gens + [regex_to_dfa("(a|b)(a|b)|a(a|b)*", AB)]
        b = generate_algebra(gens, AB, semigroup=True)
        q = dual_recogniser(generate_algebra(finer, AB, semigroup=True))
        g = q.transitions
        comp = _components(g)
        assert max(comp.count(c) for c in comp) == 3
        assert any(comp.count(comp[x]) == 1 and x not in g[x] for x in range(1, len(g)))
        sigs = quotient_signatures(q, b)
        assert sigs == packed_prefix_signatures(q, b)
        assert len(set(sigs)) < len(sigs)  # some pair forms an equation


class TestComponents:
    @staticmethod
    def check(g):
        # one component exactly for states that reach each other, and no
        # edge leading to a higher component
        comp = _components(g)
        reach = [reachable_by_search(g, s) for s in range(len(g))]
        for s in range(len(g)):
            assert {t for t in range(len(g)) if comp[t] == comp[s]} == {
                t for t in range(len(g)) if reach[s] >> t & 1 and reach[t] >> s & 1
            }
        assert all(comp[t] <= comp[s] for s, row in enumerate(g) for t in row)
        assert sorted(set(comp)) == list(range(len(set(comp))))

    def test_match_graph_search(self):
        rng = random.Random(5)
        for n in (1, 2, 5, 40, 300):
            for _ in range(4):
                self.check([[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(n)])

    def test_cayley_graphs_and_long_paths(self):
        for regex in ("(a|b)*ab(a|b)", "(ab|ba)*", "a*b*"):
            self.check(joint_quotient([regex_to_dfa(regex, AB)]).transitions)
        n = 5000  # deeper than the interpreter's recursion limit
        assert _components([[s + 1] for s in range(n - 1)] + [[0]]) == [0] * n
        comp = _components([[s + 1] for s in range(n - 1)] + [[n - 1]])
        assert comp == [n - 1 - s for s in range(n)]


class TestJointQuotient:
    @pytest.mark.parametrize("alph, cap", [(AB, 20), (A3, 60)])
    def test_matches_the_marked_concat_construction(self, alph, cap):
        rng = random.Random(23)
        kept = refused = 0
        for _ in range(12):
            gens = [regex_to_dfa(random_regex(rng, alph, 2), alph) for _ in range(rng.randint(0, 2))]
            b = generate_algebra(gens, alph)
            k = regex_to_dfa(random_regex(rng, alph, 2), alph)
            try:
                expected = marked_concat_quotient(k, b, cap)
            except ResourceLimitError as exc:
                with closure_ceiling(cap), pytest.raises(ResourceLimitError, match=f"^{exc}$"):
                    bsum2_quotient(k, b)
                refused += 1
                continue
            with closure_ceiling(cap):
                assert bsum2_quotient(k, b) == expected
            assert bsum2_quotient(k, b) == expected
            kept += 1
        assert kept >= 4 and refused >= 2

    def test_benchmark_draws_at_the_cap(self):
        # the largest draws of the first 300 at cap 1 024, and one of the two refused there
        for i, size in ((151, 896), (84, 746), (19, 554)):
            k, b = benchmark_draw(i)
            with closure_ceiling(1024):
                assert bsum2_quotient(k, b) == marked_concat_quotient(k, b)
            assert bsum2_quotient(k, b).size == size
        k, b = benchmark_draw(122)
        with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 1024 elements$"):
            marked_concat_quotient(k, b, 1024)
        with closure_ceiling(1024):
            with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 1024 elements$"):
                bsum2_quotient(k, b)

    def test_ceiling_boundary(self, sum_tower, monkeypatch):
        # draw 34, the largest of the first 300, and a candidate outside B4 over B3
        cases = [benchmark_draw(34), (regex_to_dfa("(a|b)*a", AB), sum_tower[3])]
        for (k, b), size in zip(cases, (3060, 1265)):
            q = bsum2_quotient(k, b)
            assert q.size == size
            with closure_ceiling(size):
                assert bsum2_quotient(k, b) == q
            with closure_ceiling(size - 1):
                with pytest.raises(ResourceLimitError, match=f"^submonoid closure exceeded {size - 1} elements$"):
                    bsum2_quotient(k, b)
            # the keyword ceiling is a scope around the call
            assert bsum2_quotient(k, b, max_size=size) == q
            with pytest.raises(ResourceLimitError, match=f"^submonoid closure exceeded {size - 1} elements$"):
                bsum2_quotient(k, b, max_size=size - 1)
            monkeypatch.setenv("LANGREC_MAX_CLOSURE", str(size))
            assert bsum2_quotient(k, b) == q
            monkeypatch.setenv("LANGREC_MAX_CLOSURE", str(size - 1))
            with pytest.raises(ResourceLimitError, match=f"^submonoid closure exceeded {size - 1} elements$"):
                bsum2_quotient(k, b)
            monkeypatch.delenv("LANGREC_MAX_CLOSURE")

    def test_ceiling_met_by_the_candidate_alone(self, monkeypatch):
        # K's syntactic monoid alone has 15 elements, more than the ceiling
        k = regex_to_dfa("(a|b)*a(a|b)(a|b)", AB)
        assert syntactic_monoid(k).size == 15
        for gens, size in (((), 17), (("b*",), 33)):
            b = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB)
            with closure_ceiling(14):
                with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 14 elements$"):
                    bsum2_quotient(k, b)
            monkeypatch.setenv("LANGREC_MAX_CLOSURE", "14")
            with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 14 elements$"):
                bsum2_quotient(k, b)
            monkeypatch.delenv("LANGREC_MAX_CLOSURE")
            q = bsum2_quotient(k, b)
            assert q == marked_concat_quotient(k, b)
            assert q.size == size

    def test_decides_with_no_table_and_no_subset_construction(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a multiplication table or a subset construction was built")

        cases = []
        for gens in ((), ("(a|b)*a(a|b)*",), ("b*", "(ab)*")):
            b = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB)
            for r in ("(a|b)*a(a|b)*", "(a|b)*a", "(ab)*", "a*b"):
                k = regex_to_dfa(r, AB)
                cases.append((k, b, bsum2_membership_direct(k, b), equation_set(bsum2_quotient(k, b), b)))
        assert {direct for *_, direct, _ in cases} == {True, False}
        monkeypatch.setattr(FiniteQuotient, "monoid", property(forbidden))
        monkeypatch.setattr("langrec.equations.marked_concat", forbidden)
        monkeypatch.setattr("langrec.languages.marked_concat", forbidden)
        for module in ("languages", "marking", "regexes"):  # each subset construction
            monkeypatch.setattr(f"langrec.{module}._subset_dfa", forbidden)
        for k, b, direct, eqs in cases:
            assert bsum2_membership_by_equations(k, b) == direct
            assert equation_set(bsum2_quotient(k, b), b) == eqs


def walked_split_closure(g1, g2, tail):
    """The split closure as one breadth-first walk that reads g1's row
    and the rider's row once per triple, then steps every letter: the
    walk ``_split_closure`` made before it became a submonoid closure,
    kept as its reference."""
    k, limit = len(g1[0]), closure_limit()
    columns = [tuple(row[d] for row in g2) for d in range(k)]
    zeros = [0] * len(g2)

    def step(x):
        m1, masks, t = x
        row1, row_t, bit = g1[m1], tail[t], 1 << m1 * k
        for d, column in enumerate(columns):
            moved = zeros.copy()
            moved[0] = bit << d
            for z, mask in zip(column, masks):
                moved[z] |= mask
            yield row1[d], tuple(moved), row_t[d]

    _, rows = _explore(
        (0, (0,) * len(g2), 0), step, limit, f"submonoid closure exceeded {limit} elements"
    )
    return tuple(rows)


def walked_bsum2(k, b):
    """``bsum2_quotient``'s Cayley graph through ``walked_split_closure``."""
    rider = transition_closure(k.alphabet, [k], semigroup=False)
    trivial = ((0,) * len(b.alphabet),)
    return walked_split_closure(b.transitions, trivial, rider.transitions)


class TestSplitClosure:
    """``schutz_sum`` and ``bsum2_quotient`` close the split triples with
    one ``generate_closure`` over the letters; it numbers the Cayley
    graph that the letter-by-letter walk did."""

    def test_sum_pairs_match_the_walk(self, sum_tower):
        rng = random.Random(25)
        pool = list(sum_tower[:4])
        for alph in (A1, AB, A3):
            for _ in range(4):
                gens = [regex_to_dfa(random_regex(rng, alph, 2), alph) for _ in range(rng.randint(0, 2))]
                pool.append(generate_algebra(gens, alph))
        pairs = [(b1, b2) for b1 in pool for b2 in pool
                 if b1.alphabet == b2.alphabet and b1.atom_count * b2.atom_count <= 150]
        assert len({b1.alphabet for b1, _ in pairs}) == 3 and len(pairs) >= 60
        built = 0
        for b1, b2 in pairs:
            g1, g2 = b1.transitions, b2.transitions
            with closure_ceiling(2000):
                try:
                    want = walked_split_closure(g1, g2, g2)
                except ResourceLimitError as exc:
                    with pytest.raises(ResourceLimitError, match=f"^{exc}$"):
                        schutz_sum(b1, b2)
                    continue
                assert schutz_sum(b1, b2).transitions == want
            built += 1
        assert built >= 60

    def test_joint_quotients_match_the_walk(self):
        # the seeded draws of TestJointQuotient at their caps, and
        # benchmark draws up to the largest of the first 300
        refused = 0
        for alph, cap in ((AB, 20), (A3, 60)):
            rng = random.Random(23)
            for _ in range(12):
                gens = [regex_to_dfa(random_regex(rng, alph, 2), alph) for _ in range(rng.randint(0, 2))]
                b = generate_algebra(gens, alph)
                k = regex_to_dfa(random_regex(rng, alph, 2), alph)
                with closure_ceiling(cap):
                    try:
                        want = walked_bsum2(k, b)
                    except ResourceLimitError as exc:
                        with pytest.raises(ResourceLimitError, match=f"^{exc}$"):
                            bsum2_quotient(k, b)
                        refused += 1
                        continue
                    assert bsum2_quotient(k, b).transitions == want
        assert refused >= 4
        for i in (0, 1, 2, 19, 34, 84, 122, 151):
            k, b = benchmark_draw(i)
            assert bsum2_quotient(k, b).transitions == walked_bsum2(k, b)

    def test_environment_ceiling_at_its_exact_size(self, monkeypatch):
        b = generate_algebra([regex_to_dfa("a*b*", AB)], AB)
        g = b.transitions
        n = schutz_sum(b, b).atom_count
        assert n == len(walked_split_closure(g, g, g)) == 241
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", str(n))
        assert schutz_sum(b, b).atom_count == n
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", str(n - 1))
        message = f"^submonoid closure exceeded {n - 1} elements$"
        with pytest.raises(ResourceLimitError, match=message):
            schutz_sum(b, b)
        with pytest.raises(ResourceLimitError, match=message):
            walked_split_closure(g, g, g)

    def test_one_closure_per_sum(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return generate_closure(*args, **kwargs)

        b = generate_algebra([regex_to_dfa("(ab)*", AB)], AB)
        monkeypatch.setattr(algebra, "generate_closure", counted)
        schutz_sum(b, b)
        assert len(calls) == 1
        assert list(calls[0][0]) == [0, 1]  # the letters generate it


class TestJointClosureLabels:
    """The verdict reads each element's B-atom and K's side off the joint
    closure's triples; the two walks over a built quotient, ``_atom_map``
    and ``saturation``, are their oracle, and direct closure membership
    the verdict's."""

    @staticmethod
    def check(k, b):
        closure, sides = _joint_closure(k, b)
        q = bsum2_quotient(k, b)
        assert q.transitions == tuple(closure.transitions)
        assert [e[0] for e in closure.elements] == _atom_map(q, b)
        sat = q.saturation(k)
        assert [sides[e[2]] for e in closure.elements] == [x in sat for x in range(q.size)]
        verdict = _equations_hold(closure, sides, b)
        assert verdict == _trivial_sum(b).member(k)
        return q.size, verdict

    def test_thm11_pools(self):
        # every (B, K) pair the thm11 campaign draws from
        results = []
        with closure_ceiling(29):
            for letters, gens in _THM11_B_POOL:
                alph = Alphabet(letters)
                b = generate_algebra([regex_to_dfa(g, alph) for g in gens], alph)
                for regex in _THM11_K_POOL[letters]:
                    results.append(self.check(regex_to_dfa(regex, alph), b))
        assert len(results) == 112
        assert max(size for size, _ in results) == 29
        assert {verdict for _, verdict in results} == {True, False}

    @pytest.mark.parametrize("alph, seed", [(AB, 69), (A3, 61)])
    def test_seeded_draws_with_the_empty_and_full_candidates(self, alph, seed):
        rng = random.Random(seed)
        results = []
        for _ in range(8):
            gens = [regex_to_dfa(random_regex(rng, alph, 3), alph) for _ in range(rng.randint(1, 2))]
            b = generate_algebra(gens, alph)
            candidates = [regex_to_dfa(random_regex(rng, alph, 3), alph) for _ in range(3)]
            for k in candidates + [empty_language(alph), universal_language(alph)]:
                try:
                    with closure_ceiling(300):
                        results.append(self.check(k, b))
                except ResourceLimitError:
                    continue
        assert len(results) >= 30
        assert {verdict for _, verdict in results} == {True, False}
        assert max(size for size, _ in results) > 100


class TestSumTower:
    def test_joint_quotients_and_verdicts_over_b1_to_b3(self, sum_tower):
        # two seeded candidates per level; B(n+1) is the sum that direct
        # membership builds, so it is read off the tower, not rebuilt
        rng = random.Random(0)
        sizes, verdicts = [], []
        for n in (1, 2, 3):
            b = sum_tower[n]
            for _ in range(2):
                k = regex_to_dfa(random_regex(rng, AB, 3), AB)
                q = bsum2_quotient(k, b)
                assert q == marked_concat_quotient(k, b)
                direct = sum_tower[n + 1].member(k)
                assert bsum2_membership_by_equations(k, b) == direct
                sizes.append(q.size)
                verdicts.append(direct)
        assert sizes == [21, 21, 133, 136, 1073, 1073]
        assert verdicts == [True, True, True, False, True, True]
        # a candidate in no level up to B4, refused over the largest B
        k = regex_to_dfa("(a|b)*a", AB)
        assert (bsum2_membership_by_equations(k, sum_tower[3]), sum_tower[4].member(k)) == (False, False)


class TestWideDraws:
    @pytest.mark.parametrize("i, size, outside_size", [(122, 1828, 2300), (34, 3060, 3752)])
    def test_equation_verdict_matches_direct(self, i, size, outside_size):
        k, b = benchmark_draw(i)
        assert bsum2_quotient(k, b).size == size
        assert (bsum2_membership_by_equations(k, b), bsum2_membership_direct(k, b)) == (True, True)
        # K changed on the words ending in a: a candidate outside the sum
        k = symmetric_difference(k, regex_to_dfa("(a|b|c)*a", k.alphabet))
        assert bsum2_quotient(k, b).size == outside_size
        assert (bsum2_membership_by_equations(k, b), bsum2_membership_direct(k, b)) == (False, False)


class TestLemmaChecks:
    def test_no_factorisation_violations_small_corpus(self):
        corpus = corpus_dfas()[:6]
        assert lemma_factor_violations(corpus, max_len=4) == []

    def test_witness_lemma_on_small_quotients(self):
        for gens in ((), ("(a|b)*a(a|b)*",)):
            b = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB)
            q = bsum2_quotient(universal_language(AB), b)
            for point in range(q.monoid.size):
                for letter in range(2):
                    assert lemma_witness_check(q, b, point, letter)

    def test_witness_lemma_fails_on_a_quotient_too_coarse(self):
        # the algebra's own atom machine cannot saturate a(a|b)*a(a|b)*,
        # the marked extension of its atom a(a|b)*
        b = generate_algebra([regex_to_dfa("a(a|b)*", AB)])
        assert not lemma_witness_check(b, b, 0, "a")

    def test_factorisation_violations_are_listed(self, monkeypatch):
        # with every marked extension empty, each accepted prefix of a
        # word is a violation, one per letter
        monkeypatch.setattr(equations, "marked_concat", lambda l, c, u: empty_language(AB))
        assert lemma_factor_violations([regex_to_dfa("a", AB)], max_len=2) == [
            ("aa", 1, "a", 0), ("aa", 1, "b", 0), ("ab", 1, "a", 0), ("ab", 1, "b", 0)]


class TestEquationOracle:
    def test_equation_set_matches_separation_oracle(self):
        # a pair is an equation exactly when no language of the sum
        # separates its two classes; members are unions of atoms, so it
        # suffices to test the atoms
        for gens in ((), ("(a|b)*a(a|b)*",)):
            b = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB)
            q = bsum2_quotient(universal_language(AB), b)
            total = schutz_sum(b, trivial_algebra(AB))
            saturations = [q.saturation(atom) for atom in total.atoms]
            assert all(s is not None for s in saturations)
            for i in range(q.monoid.size):
                for j in range(q.monoid.size):
                    e = EquationInstance(
                        UltrafilterApprox(q, i), UltrafilterApprox(q, j)
                    )
                    separated = any((i in s) != (j in s) for s in saturations)
                    assert in_equation_set(e, b) == (not separated)

    def test_soundness_shadow_every_member_satisfies_every_equation(self):
        for gens in ((), ("b*",), ("(a|b)*a(a|b)*",)):
            b = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB)
            q = bsum2_quotient(universal_language(AB), b)
            total = schutz_sum(b, trivial_algebra(AB))
            eqs = equation_set(q, b)
            for atom in total.atoms:
                for e in eqs:
                    assert satisfies_equation(atom, e)
