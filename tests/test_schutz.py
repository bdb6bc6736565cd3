import itertools
import random

import pytest

from langrec import (
    Alphabet,
    BinarySchutz,
    FiniteMonoid,
    HitClopen,
    InputError,
    MonoidMorphism,
    PreconditionError,
    ResourceLimitError,
    UnarySchutz,
    Word,
    empty_language,
    enumerate_monoids,
    enumerate_semigroups,
    exists_language,
    exists_letter_images,
    exists_profile,
    exists_projection,
    local_schutz_morphism,
    marked_concat,
    marked_split_set,
    nonempty_universal,
    recognises_exists,
    regex_to_dfa,
    split_language,
    split_letter_images,
    syntactic_monoid,
)
from langrec import schutz
from langrec.campaigns import _biaction_ok, _table_laws
from langrec.languages import closure_ceiling
from langrec.marking import ExtendedAlphabet, tag_unmarked
from langrec.monoids import _associativity_defect, _light_defect
from langrec.schutz import split_closure

AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))

Z2 = FiniteMonoid(((0, 1), (1, 0)), identity=0)
U1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)  # {1, z} with zz = z


class TestUnaryProduct:
    def test_unit_law(self):
        d = UnarySchutz(U1)
        for s in (frozenset(), frozenset({0}), frozenset({0, 1})):
            for m in (0, 1):
                assert d.mul(d.unit(), (s, m)) == (s, m)
                assert d.mul((s, m), d.unit()) == (s, m)

    def test_z2_product(self):
        d = UnarySchutz(Z2)
        # first components: S.n = {0+0}, m.T = {1+1}; both are {0}
        assert d.mul((frozenset({0}), 1), (frozenset({1}), 0)) == (frozenset({0}), 1)

    def test_idempotent_base_product(self):
        d = UnarySchutz(U1)
        # ({z}, 1) * ({1}, z): S.n = {z.z} = {z}, m.T = {1.1} = {1}
        got = d.mul((frozenset({1}), 0), (frozenset({0}), 1))
        assert got == (frozenset({0, 1}), 1)

    def test_size_formula(self):
        for n in (1, 2, 3):
            for m in enumerate_monoids(n):
                assert UnarySchutz(m).size == 2**n * n
            for s in enumerate_semigroups(n):
                assert UnarySchutz(s).size == (2**n - 1) * n

    def test_materialised_tables_are_monoids(self):
        # FiniteMonoid construction re-checks associativity and the unit
        for n in (1, 2, 3):
            for base in enumerate_monoids(n):
                mfm, elems = UnarySchutz(base).as_finite_monoid(max_base=3)
                assert mfm.size == 2**n * n
                assert mfm.identity == elems.index((frozenset(), base.identity))

    def test_second_projection_is_a_morphism(self):
        for base in enumerate_monoids(3)[:10]:
            d = UnarySchutz(base)
            elems = list(d.carrier())
            for p in elems:
                for q in elems:
                    assert d.mul(p, q)[1] == base.mul(p[1], q[1])

    def test_semigroup_mode_has_no_unit(self):
        s = enumerate_semigroups(2)[0]
        with pytest.raises(PreconditionError):
            UnarySchutz(s).unit()

    def test_materialisation_bound(self):
        z7 = FiniteMonoid(
            tuple(tuple((i + j) % 7 for j in range(7)) for i in range(7)), identity=0
        )
        with pytest.raises(ResourceLimitError):
            UnarySchutz(z7).as_finite_monoid()

    @pytest.mark.parametrize("bound", [True, 2.5, 0, -3])
    def test_materialisation_bound_must_be_a_positive_integer(self, bound):
        with pytest.raises(InputError, match="^max_base must be a positive integer"):
            UnarySchutz(U1).as_finite_monoid(max_base=bound)
        with pytest.raises(InputError, match="^max_carrier must be a positive integer"):
            BinarySchutz(U1, U1).as_finite_monoid(max_carrier=bound)


class TestUnaryActions:
    def test_unit_component_is_identity(self):
        d = UnarySchutz(U1)
        for x in d.carrier():
            assert d.left_action(d.unit(), x) == x
            assert d.right_action(d.unit(), x) == x

    def test_actions_agree_with_multiplication_exhaustively(self):
        assert UnarySchutz.left_action is UnarySchutz.mul
        assert BinarySchutz.left_action is BinarySchutz.mul
        for n in (1, 2, 3):
            for base in enumerate_monoids(n):
                d = UnarySchutz(base)
                elems = list(d.carrier())
                for p in elems:
                    for x in elems:
                        assert d.right_action(p, x) == d.mul(x, p)

    def test_compatibility_exhaustively(self):
        for n in (1, 2):
            for base in enumerate_monoids(n) + enumerate_semigroups(n):
                d = UnarySchutz(base)
                elems = list(d.carrier())
                for p in elems:
                    for q in elems:
                        for x in elems:
                            assert d.left_action(p, d.right_action(q, x)) == \
                                d.right_action(q, d.left_action(p, x))


class TestExistsMorphism:
    def test_profile_of_empty_word(self):
        ext = ExtendedAlphabet(A1)
        tau = MonoidMorphism(ext.ext, Z2, (0, 1))
        assert exists_profile(tau, Word(A1, ())) == (frozenset(), 0)

    def test_profile_counts_markings(self):
        ext = ExtendedAlphabet(A1)
        tau = MonoidMorphism(ext.ext, Z2, (0, 1))  # a#0 -> 0, a#1 -> 1
        assert exists_profile(tau, A1.word("aa")) == (frozenset({1}), 0)

    def test_letter_generated(self):
        ext = ExtendedAlphabet(AB)
        tau = MonoidMorphism(ext.ext, U1, (0, 1, 0, 0))
        images = exists_letter_images(tau)
        assert images[0] == (frozenset({1}), 0)
        assert images[1] == (frozenset({0}), 0)

    def test_homomorphism_law_random_pairs(self):
        ext = ExtendedAlphabet(AB)
        tau = MonoidMorphism(ext.ext, U1, (0, 1, 1, 0))
        d = UnarySchutz(U1)
        rng = random.Random(9)
        for _ in range(1000):
            v = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))))
            w = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))))
            assert d.mul(exists_profile(tau, v), exists_profile(tau, w)) == \
                exists_profile(tau, v + w)

    def test_plain_component_commutes_with_tagging(self):
        ext = ExtendedAlphabet(AB)
        tau = MonoidMorphism(ext.ext, U1, (1, 0, 0, 1))
        for t in AB.tuples_upto(8):
            w = Word(AB, t)
            assert exists_profile(tau, w)[1] == tau.evaluate(tag_unmarked(w, ext))

    def test_recognises_existential_projection(self):
        ext = ExtendedAlphabet(AB)
        l_marked = regex_to_dfa("('a#0'|'b#0')* 'a#1' ('a#0'|'b#0')*", ext.ext)
        syn = syntactic_monoid(l_marked)
        accepting = syn.saturation(l_marked)
        got = exists_language(syn.morphism, accepting)
        assert got == exists_projection(l_marked)
        assert got == regex_to_dfa("(a|b)*a(a|b)*", AB)
        assert recognises_exists(syn.morphism, accepting, AB.word("ba"))
        assert not recognises_exists(syn.morphism, accepting, AB.word("bb"))

    def test_empty_accepting_set_rejects_everything(self):
        ext = ExtendedAlphabet(AB)
        tau = MonoidMorphism(ext.ext, U1, (0, 1, 1, 0))
        assert exists_language(tau, frozenset()) == empty_language(AB)
        for t in AB.tuples_upto(4):
            assert not recognises_exists(tau, frozenset(), Word(AB, t))

    def test_full_accepting_set_accepts_all_nonempty(self):
        ext = ExtendedAlphabet(AB)
        tau = MonoidMorphism(ext.ext, U1, (0, 1, 1, 0))
        assert exists_language(tau, {0, 1}) == nonempty_universal(AB)


class TestBinaryProduct:
    def test_unit_law(self):
        d = BinarySchutz(U1, U1)
        x = (frozenset({(0, 1)}), 1, 0)
        assert d.mul(d.unit(), x) == x
        assert d.mul(x, d.unit()) == x

    def test_worked_product(self):
        d = BinarySchutz(U1, U1)
        got = d.mul((frozenset({(0, 0)}), 1, 0), (frozenset(), 0, 1))
        assert got == (frozenset({(0, 1)}), 1, 1)

    def test_associativity_sampled_size3(self):
        rng = random.Random(77)
        m3 = enumerate_monoids(3)
        d = BinarySchutz(rng.choice(m3), rng.choice(m3))
        elems = list(d.carrier())
        for _ in range(1000):
            p, q, r = (rng.choice(elems) for _ in range(3))
            assert d.mul(d.mul(p, q), r) == d.mul(p, d.mul(q, r))

    def test_materialised_tables_up_to_512(self):
        for n1, n2 in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
            m1 = enumerate_monoids(n1)[-1]
            m2 = enumerate_monoids(n2)[-1]
            d = BinarySchutz(m1, m2)
            mfm, _ = d.as_finite_monoid(max_carrier=512)
            assert mfm.size == d.size == 2 ** (n1 * n2) * n1 * n2

    def test_actions_agree_with_multiplication(self):
        for n1 in (1, 2):
            for n2 in (1, 2):
                for m1 in enumerate_monoids(n1):
                    for m2 in enumerate_monoids(n2):
                        d = BinarySchutz(m1, m2)
                        elems = list(d.carrier())
                        for p in elems:
                            for x in elems:
                                assert d.left_action(p, x) == d.mul(p, x)
                                assert d.right_action(p, x) == d.mul(x, p)

    def test_compatibility_exhaustive_base_two(self):
        d = BinarySchutz(U1, Z2)
        elems = list(d.carrier())
        for p in elems:
            for q in elems:
                for x in elems:
                    assert d.left_action(p, d.right_action(q, x)) == \
                        d.right_action(q, d.left_action(p, x))

    def test_mixed_modes_rejected(self):
        from langrec import InputError

        with pytest.raises(InputError):
            BinarySchutz(U1, enumerate_semigroups(2)[0])


class TestSplitSets:
    def setup_method(self):
        self.phi1 = MonoidMorphism(AB, U1, (1, 0))  # a -> z, b -> 1
        self.phi2 = MonoidMorphism(AB, U1, (1, 0))

    def test_no_occurrence_gives_empty(self):
        assert marked_split_set(self.phi1, self.phi2, "a", AB.word("bb")) == frozenset()

    def test_single_letter(self):
        got = marked_split_set(self.phi1, self.phi2, "a", AB.word("a"))
        assert got == frozenset({(0, 0)})

    def test_two_splits(self):
        got = marked_split_set(self.phi1, self.phi2, "a", AB.word("aba"))
        assert got == frozenset({(0, 1), (1, 0)})

    def test_split_language_is_marked_concat(self):
        for v1 in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})):
            for v2 in (frozenset({0}), frozenset({1})):
                l1 = self.phi1.preimage(v1)
                l2 = self.phi2.preimage(v2)
                got = split_language(self.phi1, self.phi2, "a", v1, v2)
                assert got == marked_concat(l1, "a", l2)


class TestLocalMorphism:
    def test_empty_word_value(self):
        phi1 = MonoidMorphism(AB, U1, (1, 0))
        phi2 = MonoidMorphism(AB, Z2, (1, 0))
        loc = local_schutz_morphism(phi1, phi2)
        assert loc.evaluate(Word(AB, ())) == ((frozenset(), frozenset()), 0, 0)

    def test_morphism_law(self):
        phi1 = MonoidMorphism(AB, U1, (1, 0))
        phi2 = MonoidMorphism(AB, Z2, (1, 0))
        loc = local_schutz_morphism(phi1, phi2)
        rng = random.Random(3)
        for _ in range(1000):
            v = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))))
            w = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))))
            assert loc.mul(loc.evaluate(v), loc.evaluate(w)) == loc.evaluate(v + w)

    def test_recognises_marked_concatenations(self):
        phi1 = MonoidMorphism(AB, U1, (1, 0))
        phi2 = MonoidMorphism(AB, Z2, (1, 0))
        loc = local_schutz_morphism(phi1, phi2)
        for c in range(2):
            for x in range(2):
                for y in range(2):
                    expect = marked_concat(
                        phi1.preimage({x}), c, phi2.preimage({y})
                    )
                    got = loc.language_of(lambda e: (x, y) in e[0][c])
                    assert got == expect

    def test_split_components_match_direct_evaluation(self):
        phi1 = MonoidMorphism(AB, U1, (1, 0))
        phi2 = MonoidMorphism(AB, Z2, (1, 0))
        loc = local_schutz_morphism(phi1, phi2)
        for t in AB.tuples_upto(5):
            w = Word(AB, t)
            e = loc.evaluate(w)
            for c in range(2):
                assert e[0][c] == marked_split_set(phi1, phi2, c, w)


class TestHitClopen:
    def test_hit_and_miss(self):
        hit = HitClopen("hit", frozenset({1}))
        assert hit.contains({1, 2})
        assert not hit.contains({2})
        miss = HitClopen("miss", frozenset({1, 2}))
        assert miss.contains({1})
        assert not miss.contains({3})

    def test_miss_is_complement_of_hit_of_complement(self):
        universe = range(4)
        subsets = [
            frozenset(s)
            for r in range(5)
            for s in itertools.combinations(universe, r)
        ]
        for witness in subsets:
            miss = HitClopen("miss", witness)
            hit_comp = HitClopen("hit", frozenset(universe) - witness)
            for s in subsets:
                assert miss.contains(s) == (not hit_comp.contains(s))


# -- the products against their frozenset formulas -----------------------------
#
# The library multiplies bitmasks through image memos, plain dicts keyed
# by the interned frozenset that a miss fills through the validating
# frozenset-to-mask memo.  These oracles are the product formulas
# written out on frozensets; the materialised tables index whole result
# tuples in a dict.


def _subsets(universe, nonempty):
    for size in range(1 if nonempty else 0, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


def _unary_mul(t, p, q):
    (s, m), (u, n) = p, q
    return (frozenset(t[x][n] for x in s) | frozenset(t[m][y] for y in u), t[m][n])


def _unary_left(t, p, x):
    (s, m), (u, y) = p, x
    return (frozenset(t[e][y] for e in s) | frozenset(t[m][z] for z in u), t[m][y])


def _unary_right(t, p, x):
    (s, m), (u, y) = p, x
    return (frozenset(t[y][e] for e in s) | frozenset(t[z][m] for z in u), t[y][m])


def _binary_mul(lt, rt, p, q):
    (s, m1, n1), (t, m2, n2) = p, q
    first = frozenset((lt[m1][x], y) for x, y in t) | frozenset((x, rt[y][n2]) for x, y in s)
    return (first, lt[m1][m2], rt[n1][n2])


def _binary_left(lt, rt, p, point):
    (s, m1, n1), (z, x, y) = p, point
    first = frozenset((lt[m1][u], v) for u, v in z) | frozenset((m, rt[n][y]) for m, n in s)
    return (first, lt[m1][x], rt[n1][y])


def _binary_right(lt, rt, p, point):
    (s, m1, n1), (z, x, y) = p, point
    first = frozenset((u, rt[v][n1]) for u, v in z) | frozenset((lt[x][m], n) for m, n in s)
    return (first, lt[x][m1], rt[y][n1])


def _set_label(m, s):
    return "{" + ",".join(m.label(x) for x in sorted(s)) + "}"


def _unary_oracle(base):
    """(table, identity, labels, elements) of the unary product."""
    t, n = base.table, base.size
    elems = tuple((s, m) for s in _subsets(range(n), base.is_semigroup) for m in range(n))
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[_unary_mul(t, p, q)] for q in elems) for p in elems)
    labels = tuple(f"({_set_label(base, s)},{base.label(m)})" for s, m in elems)
    identity = None if base.is_semigroup else index[(frozenset(), base.identity)]
    return table, identity, labels, elems


def _binary_oracle(m1, m2):
    """(table, identity, labels, elements) of the binary product; each
    cell is the union of m1.T and S.n2, each half built once."""
    lt, rt, a, b = m1.table, m2.table, m1.size, m2.size
    points = [(x, y) for x in range(a) for y in range(b)]
    sets = list(_subsets(points, m1.is_semigroup))
    elems = tuple((s, x, y) for s in sets for x in range(a) for y in range(b))
    index = {e: i for i, e in enumerate(elems)}
    canon = {s: s for s in sets}  # equal sets as one object: the index compares by identity
    left = [[frozenset((lt[m][x], y) for x, y in t) for t in sets] for m in range(a)]
    right = {(s, n): frozenset((x, rt[y][n]) for x, y in s) for s in sets for n in range(b)}
    rows = []
    for s, x1, y1 in elems:
        rights = [right[s, y2] for y2 in range(b)]
        rows.append(tuple(
            index[(first[y2], lt[x1][x2], rt[y1][y2])]
            for first in ([canon[lf | r] for r in rights] for lf in left[x1])
            for x2 in range(a)
            for y2 in range(b)
        ))
    table = tuple(rows)
    labels = tuple(
        "({" + ",".join(f"({m1.label(x)},{m2.label(y)})" for x, y in sorted(s)) + "},"
        f"{m1.label(x)},{m2.label(y)})"
        for s, x, y in elems
    )
    identity = None if m1.is_semigroup else index[(frozenset(), m1.identity, m2.identity)]
    return table, identity, labels, elems


def _check_points(d, elems, pairs, mul, left, right):
    """mul and both actions equal their oracles, and return the
    carrier's own (interned) sets."""
    interned = {e[0]: e[0] for e in d.carrier()}
    for p, q in pairs:
        for got, want in ((d.mul(p, q), mul(p, q)), (d.left_action(p, q), left(p, q)),
                          (d.right_action(p, q), right(p, q))):
            assert got == want
            assert got[0] is interned[got[0]]


def _element_pairs(elems, rng):
    if len(elems) <= 24:
        return list(itertools.product(elems, repeat=2))
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(300)]


def assert_monoid_laws(m):
    """Light's test, the triple loop up to 64 elements and the unit laws,
    on a product table, which the package builds without checking any."""
    t, e = m.table, m.identity
    with closure_ceiling(len(t) ** 2):  # at most n rows per generator
        assert _light_defect(t) is None, "Light's test"
    assert len(t) > 64 or _associativity_defect(t) is None, "the triple loop"
    assert e is None or all(t[e][x] == x == t[x][e] for x in m.elements()), "the unit laws"


def _check_materialised(d, oracle):
    table, identity, labels, elems = oracle
    mfm, got_elems = d.as_finite_monoid()
    assert_monoid_laws(mfm)
    assert got_elems == elems == tuple(d.carrier())
    assert mfm.table == table
    assert mfm.identity == identity
    assert mfm.labels == labels


class TestAgainstFrozensetOracles:
    def test_unary_bases_up_to_three(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            for base in enumerate_monoids(n) + enumerate_semigroups(n):
                d = UnarySchutz(base)
                oracle = _unary_oracle(base)
                _check_materialised(d, oracle)
                t = base.table
                _check_points(d, oracle[3], _element_pairs(oracle[3], rng),
                              lambda p, q: _unary_mul(t, p, q),
                              lambda p, x: _unary_left(t, p, x),
                              lambda p, x: _unary_right(t, p, x))

    @staticmethod
    def _check_binary(m1, m2, rng, materialise=True):
        d = BinarySchutz(m1, m2)
        lt, rt = m1.table, m2.table
        if materialise:
            oracle = _binary_oracle(m1, m2)
            _check_materialised(d, oracle)
            elems = oracle[3]
        else:
            elems = [(frozenset(e[0]), e[1], e[2]) for e in d.carrier()]
        _check_points(d, elems, _element_pairs(elems, rng),
                      lambda p, q: _binary_mul(lt, rt, p, q),
                      lambda p, x: _binary_left(lt, rt, p, x),
                      lambda p, x: _binary_right(lt, rt, p, x))

    def test_every_monoid_pair_up_to_512(self):
        rng = random.Random(12)
        for n1, n2 in itertools.product((1, 2, 3), repeat=2):
            if n1 * n2 > 6:
                continue  # 4 608 elements
            for m1 in enumerate_monoids(n1):
                for m2 in enumerate_monoids(n2):
                    self._check_binary(m1, m2, rng)

    def test_semigroup_pairs(self):
        rng = random.Random(13)
        for n1, n2 in itertools.product((1, 2), repeat=2):
            for s1 in enumerate_semigroups(n1):
                for s2 in enumerate_semigroups(n2):
                    self._check_binary(s1, s2, rng)
        for _ in range(3):  # 378 elements each
            self._check_binary(rng.choice(enumerate_semigroups(3)),
                               rng.choice(enumerate_semigroups(2)), rng)

    def test_a_builder_that_swaps_two_cells_is_caught(self, monkeypatch):
        trusted = schutz._trusted_monoid

        def swapped(table, identity, labels):
            *rows, last = table
            y = next(y for y, v in enumerate(last) if v != last[0])
            last = list(last)
            last[0], last[y] = last[y], last[0]
            return trusted((*rows, tuple(last)), identity, labels)

        m2 = enumerate_monoids(2)[-1]
        products = [(UnarySchutz(m2), _unary_oracle(m2)),
                    (BinarySchutz(m2, m2), _binary_oracle(m2, m2))]
        assert all(_table_laws(d.as_finite_monoid()[0]) for d, _ in products)
        monkeypatch.setattr(schutz, "_trusted_monoid", swapped)
        for d, oracle in products:
            with pytest.raises(AssertionError, match="Light's test"):
                _check_materialised(d, oracle)
            assert not _table_laws(d.as_finite_monoid()[0])  # the laws campaign's check

    def test_seeded_points_on_3x3_carriers(self):
        rng = random.Random(14)
        m3 = enumerate_monoids(3)
        for _ in range(3):  # 4 608 elements each, 300 seeded pairs
            self._check_binary(rng.choice(m3), rng.choice(m3), rng, materialise=False)

    def test_local_mul_along_the_closure(self):
        rng = random.Random(17)
        pool = enumerate_monoids(3)
        for _ in range(2):  # closures of 534 and 38 elements
            m1, m2 = rng.choice(pool), rng.choice(pool)
            phi1 = MonoidMorphism(AB, m1, tuple(rng.randrange(m1.size) for _ in AB.letters))
            phi2 = MonoidMorphism(AB, m2, tuple(rng.randrange(m2.size) for _ in AB.letters))
            loc = local_schutz_morphism(phi1, phi2)
            clo = loc.closure
            assert len(clo.elements) in (534, 38)
            images = [clo.elements[j] for j in clo.transitions[0]]
            for i, e in enumerate(clo.elements):
                for c, img in enumerate(images):
                    (ss, m, n), (ts, x, y) = e, img
                    want = (
                        tuple(_binary_mul(m1.table, m2.table, (s, m, n), (t, x, y))[0]
                              for s, t in zip(ss, ts)),
                        m1.table[m][x],
                        m2.table[n][y],
                    )
                    assert loc.mul(e, img) == want == clo.elements[clo.transitions[i][c]]


class TestRefusedInputs:
    def test_foreign_points_are_refused(self):
        with pytest.raises(InputError, match=r"point \(0, -1\) is not in the carrier"):
            BinarySchutz(U1, U1).mul((frozenset(), -1, 0), (frozenset({(0, -1)}), 0, 0))
        with pytest.raises(InputError, match="point -1 is not in the carrier"):
            UnarySchutz(U1).mul((frozenset({-1}), 0), (frozenset(), 0))
        d = BinarySchutz(U1, Z2)
        inside = (frozenset({(1, 1)}), 0, 0)
        for outside in (frozenset({(2, 0)}), frozenset({(0, 1), (0, 2)}), frozenset({1})):
            for op in (d.mul, d.left_action, d.right_action):
                with pytest.raises(InputError):
                    op(inside, (outside, 0, 0))
                with pytest.raises(InputError):
                    op((outside, 0, 0), inside)
        u = UnarySchutz(Z2)
        for op in (u.mul, u.left_action, u.right_action):
            with pytest.raises(InputError):
                op((frozenset({0}), 1), (frozenset({2}), 0))

    def test_warm_memos_refuse_foreign_sets_and_intern_equal_ones(self):
        d, u = BinarySchutz(U1, Z2), UnarySchutz(Z2)
        assert _biaction_ok(d) and _biaction_ok(u)  # fills every memo
        cases = (
            (d, (frozenset({(1, 1)}), 0, 0),
             (frozenset({(2, 0)}), frozenset({(0, 1), (0, 2)}), frozenset({1}))),
            (u, (frozenset({0}), 1), (frozenset({2}), frozenset({0, -1}), frozenset({(0, 0)}))),
        )
        for prod, inside, foreign in cases:
            for outside in foreign:
                for op in (prod.mul, prod.left_action, prod.right_action):
                    with pytest.raises(InputError, match="is not in the carrier"):
                        op(inside, (outside, *inside[1:]))
                    with pytest.raises(InputError, match="is not in the carrier"):
                        op((outside, *inside[1:]), inside)
            # the unit fixes S, so each result is the set of e itself
            unit = prod.unit()
            for e in prod.carrier():
                if not e[0]:
                    continue
                copy = (frozenset(list(e[0])), *e[1:])
                assert copy[0] == e[0] and copy[0] is not e[0]
                for got in (prod.mul(copy, unit), prod.mul(unit, copy),
                            prod.left_action(copy, unit), prod.left_action(unit, copy),
                            prod.right_action(copy, unit), prod.right_action(unit, copy)):
                    assert got == e and got[0] is e[0]

    def test_bounds_name_the_size_the_limit_and_the_knob(self):
        z7 = FiniteMonoid(
            tuple(tuple((i + j) % 7 for j in range(7)) for i in range(7)), identity=0
        )
        with pytest.raises(ResourceLimitError, match=r"unary product's base has 7 elements, "
                           r"above the materialisation bound max_base=6; "
                           r"raise it with construct --max-size"):
            UnarySchutz(z7).as_finite_monoid()
        m3 = enumerate_monoids(3)[0]
        with pytest.raises(ResourceLimitError, match=r"binary product's carrier has 4608 "
                           r"elements, above the materialisation bound max_carrier=512; "
                           r"raise it with construct --max-size"):
            BinarySchutz(m3, m3).as_finite_monoid()
        with pytest.raises(ResourceLimitError, match=r"has 64 elements.*max_carrier=63"):
            BinarySchutz(U1, Z2).as_finite_monoid(max_carrier=63)

    def test_split_letters_outside_the_alphabet_are_refused(self):
        phi1 = MonoidMorphism(AB, U1, (1, 0))
        phi2 = MonoidMorphism(AB, Z2, (1, 0))
        w = AB.word("ab")
        for letter in (2, 5, -1, True, False, "c", 1.0):
            with pytest.raises(InputError):
                split_letter_images(phi1, phi2, letter)
            with pytest.raises(InputError):
                split_closure(phi1, phi2, letter)
            with pytest.raises(InputError):
                split_language(phi1, phi2, letter, {0}, {0})
            with pytest.raises(InputError):
                marked_split_set(phi1, phi2, letter, w)
        # by name and by index alike
        assert split_letter_images(phi1, phi2, "b") == split_letter_images(phi1, phi2, 1)
        assert marked_split_set(phi1, phi2, 0, w) == marked_split_set(phi1, phi2, "a", w)

    def test_accepting_sets_hold_only_elements(self):
        # True and 1.0 equal 1 but are no elements; 7 and -1 name none
        ext = ExtendedAlphabet(AB)
        tau = MonoidMorphism(ext.ext, U1, (0, 1, 1, 0))
        z3 = FiniteMonoid(tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)), identity=0)
        phi1, phi2 = MonoidMorphism(AB, U1, (1, 0)), MonoidMorphism(AB, z3, (1, 0))
        w = AB.word("ab")
        for bad in (True, 1.0, 7, -1, "1", None):
            with pytest.raises(InputError, match=r"^element .* is not an integer in 0\.\.1$"):
                exists_language(tau, {bad})
            with pytest.raises(InputError, match=r"^element .* is not an integer in 0\.\.1$"):
                recognises_exists(tau, {bad}, w)
            with pytest.raises(InputError, match=r"^element .* is not an integer in 0\.\.1$"):
                split_language(phi1, phi2, "a", {bad}, {0})
        # v1 is checked against phi1's target and v2 against phi2's
        with pytest.raises(InputError, match=r"^element 2 is not an integer in 0\.\.1$"):
            split_language(phi1, phi2, "a", {2}, {0})
        with pytest.raises(InputError, match=r"^element 3 is not an integer in 0\.\.2$"):
            split_language(phi1, phi2, "a", {0}, {3})
        assert split_language(phi1, phi2, "a", {1}, {2}) == marked_concat(
            phi1.preimage({1}), "a", phi2.preimage({2}))
        assert exists_language(tau, [1, 1]) == exists_language(tau, {1})

    def test_local_evaluation_reads_only_its_own_alphabet(self):
        phi1 = MonoidMorphism(AB, U1, (1, 0))
        phi2 = MonoidMorphism(AB, Z2, (1, 0))
        loc = local_schutz_morphism(phi1, phi2)
        for other in (Alphabet(("x", "y")), Alphabet(("a", "b", "c"))):
            with pytest.raises(InputError, match="the word is over"):
                loc.evaluate(Word(other, (0, 1)))
        with pytest.raises(InputError):
            marked_split_set(phi1, phi2, "a", Word(Alphabet(("a", "b", "c")), (0, 2)))
        for idxs in ([-1], [2], [0, True], [0.0]):
            with pytest.raises(InputError):
                loc.evaluate(idxs)
        assert loc.evaluate([0, 1]) == loc.evaluate(AB.word("ab"))
