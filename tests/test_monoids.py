import functools
import hashlib
import itertools
import json
import random
import sys
from operator import itemgetter

import pytest

from langrec import (
    Alphabet,
    Biaction,
    BinarySchutz,
    Dfa,
    FiniteMonoid,
    FiniteQuotient,
    InputError,
    MonoidMorphism,
    PreconditionError,
    ResourceLimitError,
    UnarySchutz,
    Word,
    all_morphisms,
    bsum2_quotient,
    complement,
    dual_recogniser,
    empty_language,
    epsilon_language,
    enumerate_monoids,
    exists_projection,
    enumerate_semigroups,
    generate_algebra,
    is_minimal_recogniser,
    local_schutz_morphism,
    joint_quotient,
    morphism_preserves_actions,
    nonempty_universal,
    recognised_algebra,
    regex_to_dfa,
    regular_biaction,
    same_language,
    schutz_sum,
    syntactic_monoid,
    trivial_algebra,
    universal_language,
)
from langrec import languages, monoids
from langrec.algebra import LanguageAlgebra
from langrec.campaigns import CORPUS_REGEXES
from langrec.equations import _atom_map
from langrec.languages import _canonical, closure_ceiling, closure_limit
from langrec.marking import ExtendedAlphabet
from langrec.monoids import (
    FiniteQuotient,
    _associativity_defect,
    _light_defect,
    transition_closure,
)
from langrec.schutz import exists_closure, exists_letter_images, marked_split_set

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


def cyclic_group(n):
    return tuple(tuple((x + y) % n for y in range(n)) for x in range(n))


def cyclic_group_file(n):
    return json.dumps({"size": n, "identity": 0, "table": cyclic_group(n)})


def touched_defect(t, p, q):
    """Whether a triple with one of its four products at cell (p, q) breaks
    associativity: after one cell of an associative table changes, every
    defect is such a triple."""
    rng = range(len(t))

    def bad(x, y, z):
        return t[t[x][y]][z] != t[x][t[y][z]]

    if any(bad(p, q, z) or bad(z, p, q) for z in rng):  # xy or yz is the cell
        return True
    for x, row in enumerate(t):
        for y, v in enumerate(row):
            if (v == p and bad(x, y, q)) or (v == q and bad(p, x, y)):  # (xy)z, x(yz)
                return True
    return False


def mutated(t, p, q, v):
    return t[:p] + (t[p][:q] + (v,) + t[p][q + 1:],) + t[p + 1:]


def full_transformations_4():
    cycle, swap, merge = (1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)
    d = Dfa(Alphabet(("c", "s", "m")), 4, tuple(zip(cycle, swap, merge)), {0})
    return syntactic_monoid(d).monoid.table


def binary_schutz_2x3():
    m2, m3 = enumerate_monoids(2)[-1], enumerate_monoids(3)[-1]
    return BinarySchutz(m2, m3).as_finite_monoid()[0]


# associative tables of 65 to 2 000 elements
LARGE_TABLES = {
    "cyclic-65": lambda: cyclic_group(65),
    "cyclic-2000": lambda: cyclic_group(2000),
    "full-transformations-4": full_transformations_4,
    "unary-schutz-z5": lambda: UnarySchutz(FiniteMonoid(cyclic_group(5), 0)).as_finite_monoid()[0].table,
    "binary-schutz-2x3": lambda: binary_schutz_2x3().table,
    "left-zero-80": lambda: tuple((x,) * 80 for x in range(80)),
    "right-zero-80": lambda: (tuple(range(80)),) * 80,
    "null-80": lambda: ((0,) * 80,) * 80,
}


class TestLightAssociativity:
    def check(self, t):
        """Light's verdict, with any defect it names confirmed."""
        defect = _light_defect(t)
        if defect is not None:
            x, y, z = defect
            assert t[t[x][y]][z] != t[x][t[y][z]]
        return defect is None

    def test_every_3x3_table_agrees_with_the_triple_loop(self):
        verdicts = set()
        for flat in itertools.product(range(3), repeat=9):
            t = (flat[0:3], flat[3:6], flat[6:9])
            ok = self.check(t)
            assert ok == (_associativity_defect(t) is None), t
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_mutations_up_to_64_elements_agree_with_the_triple_loop(self):
        rng = random.Random(11)
        m2 = enumerate_monoids(2)[-1]
        tables = [cyclic_group(n) for n in (1, 2, 7, 64)]
        tables += [syntactic_monoid(regex_to_dfa(r, AB)).monoid.table for r in CORPUS_REGEXES]
        tables += [m.table for m in enumerate_semigroups(3)[::7]]
        tables += [UnarySchutz(m2).as_finite_monoid()[0].table,
                   BinarySchutz(m2, m2).as_finite_monoid()[0].table,
                   tuple((x,) * 40 for x in range(40)), ((0,) * 40,) * 40]
        verdicts = set()
        for t in tables:
            assert self.check(t)
            n = len(t)
            for _ in range(12):
                p, q, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                u = mutated(t, p, q, v)
                ok = self.check(u)
                assert ok == (_associativity_defect(u) is None), (t, p, q, v)
                verdicts.add(ok)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", list(LARGE_TABLES))
    def test_every_breaking_mutation_is_found(self, name):
        t = LARGE_TABLES[name]()
        n = len(t)
        assert 65 <= n <= 2000
        assert self.check(t)
        rng = random.Random(name)
        for _ in range(2 if n > 500 else 8):
            p, q, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            u = mutated(t, p, q, v)
            assert self.check(u) == (not touched_defect(u, p, q)), (p, q, v)

    def test_associative_mutation_passes(self):
        # in the null semigroup x.y = 0, one product set to a third element stays associative
        u = mutated(LARGE_TABLES["null-80"](), 5, 6, 7)
        assert not touched_defect(u, 5, 6)
        assert self.check(u)

    def test_left_zero_table_is_refused_at_the_default_ceiling(self, monkeypatch):
        # every element is a generator: 400 of them times 400 rows
        monkeypatch.delenv("LANGREC_MAX_CLOSURE", raising=False)
        left_zero = tuple((x,) * 400 for x in range(400))
        message = (r"^associativity check of a 400-element table exceeded 100000 rows"
                   r" at generator 251; LANGREC_MAX_CLOSURE raises the ceiling$")
        with pytest.raises(ResourceLimitError, match=message):
            FiniteMonoid.from_json(json.dumps({"table": left_zero}))

    @pytest.mark.parametrize("name", ["left-zero-80", "right-zero-80", "null-80"])
    def test_ceiling_at_the_generating_set_size(self, name):
        # Light's test picks every element: the products of the earlier
        # picks reach none of the later ones
        t = LARGE_TABLES[name]()
        need = 80 * 80
        with closure_ceiling(need):
            FiniteMonoid(t)
        with closure_ceiling(need - 1), pytest.raises(ResourceLimitError, match="exceeded"):
            FiniteMonoid(t)

    def test_tables_over_few_generators_pass_far_below_their_size(self):
        # the cyclic group of 1 000 needs its unit and one generator
        with closure_ceiling(2000):
            assert FiniteMonoid(cyclic_group(1000), identity=0).size == 1000

    def test_built_tables_are_bounded_by_what_built_them(self):
        # a semigroup-mode product can need almost every element as a
        # generator; built tables skip Light's test, so no ceiling refuses them
        null2 = FiniteMonoid(((0, 0), (0, 0)))
        with closure_ceiling(1):
            m, _ = BinarySchutz(null2, null2).as_finite_monoid()
        assert m.size == 60
        # a 6-element quotient's closure fits a ceiling of 6, and its table needs no more
        with closure_ceiling(6):
            assert syntactic_monoid(regex_to_dfa("(ab)*", AB)).monoid.size == 6

    def test_no_numpy(self, monkeypatch):
        # the checks build and load large tables in pure Python
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert binary_schutz_2x3().size == 384
        assert FiniteMonoid.from_json(cyclic_group_file(1500)).size == 1500


def assert_monoid_laws(m):
    """Light's test, the triple loop up to 64 elements and the unit laws,
    on a table that the package built without checking any of them."""
    t, e = m.table, m.identity
    with closure_ceiling(len(t) ** 2):  # at most n rows per generator
        assert _light_defect(t) is None, "Light's test"
    assert len(t) > 64 or _associativity_defect(t) is None, "the triple loop"
    assert e is None or all(t[e][x] == x == t[x][e] for x in m.elements()), "the unit laws"


def swap_two_cells(table):
    """The table with its last row's first cell swapped with the first
    cell of that row that differs from it."""
    *rows, last = table
    y = next((y for y, v in enumerate(last) if v != last[0]), 0)
    last = list(last)
    last[0], last[y] = last[y], last[0]
    return (*rows, tuple(last))


def corpus_quotients():
    """The syntactic quotients of the corpus in both modes, the joint
    quotients of seeded sets of 2 to 4 corpus languages and of the whole
    corpus, and joint quotients of Thm 11."""
    corpus = [regex_to_dfa(r, AB) for r in CORPUS_REGEXES]
    rng = random.Random(23)
    out = [generate_algebra([l], AB, semigroup=semigroup)
           for semigroup in (False, True) for l in corpus]
    out += [joint_quotient(rng.sample(corpus, rng.randint(2, 4))) for _ in range(12)]
    out.append(joint_quotient(corpus))
    b = generate_algebra([regex_to_dfa("(a|b)*a", AB)], AB)
    out += [bsum2_quotient(k, b) for k in corpus[::4]]
    return out


class TestBuiltTablesAreAssociative:
    """Finite quotients, products and enumerations build their tables
    without Light's test; these tests run it on them."""

    def test_corpus_quotients(self):
        for q in corpus_quotients():
            assert_monoid_laws(q.monoid)

    def test_enumerated_tables(self):
        for m in enumerate_semigroups(3) + enumerate_monoids(4):
            assert_monoid_laws(m)

    def test_a_builder_that_swaps_two_cells_is_caught(self, monkeypatch):
        trusted = monoids._trusted_monoid
        monkeypatch.setattr(monoids, "_trusted_monoid",
                            lambda t, e, labels: trusted(swap_two_cells(t), e, labels))
        with pytest.raises(AssertionError, match="Light's test"):
            self.test_corpus_quotients()
        with pytest.raises(AssertionError, match="Light's test"):
            for m in monoids._enumeration.__wrapped__(3, None):  # past the cache
                assert_monoid_laws(m)


class TestFiniteMonoid:
    def test_rows_are_stored_as_tuples(self):
        # a list row kept as given was unhashable, and mutating it made the
        # checked table non-associative
        rows = ([0, 1], [1, 1])
        m = FiniteMonoid(rows, identity=0)
        assert m.table == ((0, 1), (1, 1)) and hash(m) == hash(FiniteMonoid(m.table, 0))
        assert hash(UnarySchutz(m)) == hash(UnarySchutz(FiniteMonoid(m.table, 0)))
        rows[1][0] = 0
        assert m.table == ((0, 1), (1, 1))

    def test_associativity_enforced(self):
        with pytest.raises(InputError):
            FiniteMonoid(((0, 1), (0, 0)))  # (1*1)*1 != 1*(1*1)

    def test_identity_must_be_two_sided(self):
        with pytest.raises(InputError):
            FiniteMonoid(((0, 0), (0, 0)), identity=0)

    def test_json_table_associativity_checked_at_every_size(self):
        # x.y = x+1 mod n is not associative; no size escapes the check
        def shifted(n):
            return {"size": n, "identity": None,
                    "table": [[(x + 1) % n] * n for x in range(n)]}

        for n in (64, 1025):
            with pytest.raises(InputError, match="not associative"):
                FiniteMonoid.from_json_dict(shifted(n))
        m = FiniteMonoid.from_json(cyclic_group_file(1500))
        assert m.size == 1500 and m.identity == 0

    def test_json_round_trip(self):
        m = FiniteMonoid(((0, 1), (1, 0)), identity=0, labels=("e", "g"))
        assert FiniteMonoid.from_json(m.to_json()) == m

    @pytest.mark.parametrize("data", [
        {"table": [[0, 1.9], [True, "0"]], "identity": 0.4},  # int() would read Z/2
        {"table": [[0, 1.0], [1, 0]], "identity": 0},
        {"table": [[0, 1], [True, 0]], "identity": 0},
        {"table": [[0, 1], [1, "0"]], "identity": 0},
        {"table": [[0, 1], [1, 0]], "identity": 0.0},
        {"table": [[0, 1], [1, 0]], "identity": False},
        {"table": [[0, 1], [1, 0]], "identity": 0, "size": "2"},
    ])
    def test_json_entries_must_be_integers(self, data):
        with pytest.raises(InputError, match="JSON integer"):
            FiniteMonoid.from_json_dict(data)

    def test_json_labels_must_be_a_list(self):
        # a string would be read letter by letter: "1z" as the labels 1 and z
        data = {"table": [[0, 1], [1, 1]], "identity": 0, "labels": ["1", "z"]}
        assert FiniteMonoid.from_json_dict(data).labels == ("1", "z")
        with pytest.raises(InputError, match="labels must be a JSON list"):
            FiniteMonoid.from_json_dict({**data, "labels": "1z"})
        # an empty list names no element, as the constructor already says
        with pytest.raises(InputError, match="labels must name every element"):
            FiniteMonoid.from_json_dict({**data, "labels": []})

    @pytest.mark.parametrize("labels", [(1, 2), ("1", None), ("1", b"z")])
    def test_labels_must_be_strings(self, labels):
        with pytest.raises(InputError, match="is not a string"):
            FiniteMonoid(((0, 1), (1, 1)), identity=0, labels=labels)

    @pytest.mark.parametrize("table, identity, bad", [
        (((0, 1), (1, 1.0)), 0, "table entry 1.0"),  # died with TypeError in Light's test
        (((0, True), (1, 0)), 0, "table entry True"),
        (((0, 1), ("1", 0)), None, "table entry '1'"),
        (((0, 1), (1, 0)), 0.0, "identity 0.0"),
        (((0, 1), (1, 0)), False, "identity False"),
    ])
    def test_entries_must_be_integers(self, table, identity, bad):
        with pytest.raises(InputError, match=f"^{bad} is not an integer"):
            FiniteMonoid(table, identity=identity)

    def test_first_out_of_range_entry_is_named(self):
        for table, bad in ((((0, 1), (-1, 7)), -1), (((0, 1), (7, -1)), 7), (((2, 0), (0, 0)), 2)):
            with pytest.raises(InputError, match=f"^table entry {bad} out of range$"):
                FiniteMonoid(table)
        with pytest.raises(InputError, match="must be square"):
            FiniteMonoid(((0, 1), (9,)))

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


def brute_force_tables(n, identity):
    """Every one of the n^(n²) tables in lexicographic order, kept when
    ``identity`` (None or an element) is a two-sided identity and the
    triple loop finds no defect."""
    rng = range(n)
    out = []
    for flat in itertools.product(rng, repeat=n * n):
        t = tuple(flat[x * n:(x + 1) * n] for x in rng)
        if identity is not None and any(t[identity][x] != x or t[x][identity] != x for x in rng):
            continue
        if all(t[t[x][y]][z] == t[x][t[y][z]] for x in rng for y in rng for z in rng):
            out.append(t)
    return out


def tables_digest(ms):
    return hashlib.sha256(json.dumps([[list(r) for r in m.table] for m in ms]).encode()).hexdigest()


class TestEnumerations:
    @pytest.mark.parametrize("enumerate_, identity",
                             ((enumerate_semigroups, None), (enumerate_monoids, 0)))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_matches_the_brute_force_oracle(self, enumerate_, identity, n):
        got = enumerate_(n)
        assert [m.table for m in got] == brute_force_tables(n, identity)
        assert {m.identity for m in got} == {identity}

    def test_pinned_tables_and_order(self):
        monoids4 = enumerate_monoids(4)
        assert len(monoids4) == 156 and all(m.identity == 0 for m in monoids4)
        assert tables_digest(monoids4) == (
            "0217fd4ab52468ac380f54a0cc0901bd30d1d4847efc8ecd3479d6cacf3ba84e")
        assert tables_digest(enumerate_semigroups(3)) == (
            "8f37685e5e76fb0bc34349c8f7f46cc5725998d833307322a73a9fd5de28c1ce")

    @pytest.mark.parametrize("enumerate_", (enumerate_semigroups, enumerate_monoids))
    @pytest.mark.parametrize("n", (0, -1, 2.0, "2", None))
    def test_a_size_that_is_no_positive_integer_is_refused(self, enumerate_, n):
        with pytest.raises(InputError, match="size must be a positive integer"):
            enumerate_(n)

    @pytest.mark.parametrize("enumerate_", (enumerate_semigroups, enumerate_monoids))
    def test_true_is_refused_after_1_is_cached(self, enumerate_):
        assert len(enumerate_(1)) == 1
        with pytest.raises(InputError, match="got True"):
            enumerate_(True)

    @pytest.mark.parametrize("enumerate_, count", ((enumerate_semigroups, 8), (enumerate_monoids, 2)))
    def test_an_unhashable_size_is_refused_before_the_cache(self, enumerate_, count):
        # the cache hashed [2] first and raised TypeError: unhashable type
        with pytest.raises(InputError, match=r"got \[2\]"):
            enumerate_([2])
        enumerate_.cache_clear()
        assert len(enumerate_(2)) == count

    def test_sizes_above_the_caps_are_refused(self):
        with pytest.raises(ResourceLimitError, match="capped at size 3"):
            enumerate_semigroups(4)
        with pytest.raises(ResourceLimitError, match="capped at size 4"):
            enumerate_monoids(5)

    def test_the_triple_loop_skips_unfilled_cells(self):
        # (1·0)·1 = 1·1 = 0 but 1·(0·1) = 1·0 = 1, with the cell (0, 0) unfilled
        assert _associativity_defect(((None, 0), (1, 0))) == (1, 0, 1)
        # filled with 1 the cell (0, 0) gives the defect (0, 0, 1), filled with
        # 0 the group Z/2: no defect reads only filled cells
        assert _associativity_defect(((1, 1), (1, 0))) == (0, 0, 1)
        assert _associativity_defect(((None, 1), (1, 0))) is None
        assert _associativity_defect(((None, None), (None, None))) is None


def set_partitions(n):
    """Partitions of {0..n-1} as restricted-growth strings."""
    part = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(part)
            return
        for b in range(top + 2):
            part[i] = b
            yield from rec(i + 1, max(top, b))

    yield from rec(0, -1)


def proper_congruences(m):
    """Every congruence of m that merges two elements, by enumerating
    every partition: the oracle of ``is_minimal_recogniser``, kept to
    6 elements (203 partitions)."""
    assert m.size <= 6
    for part in set_partitions(m.size):
        if len(set(part)) < m.size and all(
            part[m.mul(x, y)] == part[m.mul(x2, y2)]
            for x in m.elements() for y in m.elements()
            for x2 in m.elements() if part[x2] == part[x]
            for y2 in m.elements() if part[y2] == part[y]
        ):
            yield part


def merging_blocks(part):
    groups = {}
    for x, b in enumerate(part):
        groups.setdefault(b, set()).add(x)
    return groups.values()


def minimal_by_enumeration(m, accept):
    """No congruence that merges two elements saturates ``accept``."""
    return not any(
        all(b <= accept or not b & accept for b in merging_blocks(part))
        for part in proper_congruences(m)
    )


class TestSyntacticMonoid:
    def test_everything_language_gives_trivial_monoid(self):
        l = universal_language(AB)
        syn = syntactic_monoid(l)
        assert syn.monoid.size == 1
        assert syn.saturation(l) == frozenset({0})

    def test_contains_a(self):
        l = regex_to_dfa("(a|b)*a(a|b)*", AB)
        syn = syntactic_monoid(l)
        assert syn.monoid.size == 2
        z = syn.morphism.letter_images[0]
        assert syn.morphism.letter_images[1] == syn.monoid.identity
        assert syn.monoid.mul(z, z) == z
        assert syn.saturation(l) == frozenset({z})
        # oracle: brute-force two-sided congruence classes
        assert len(nerode_classes(l)) == syn.monoid.size

    def test_even_length_over_one_letter(self):
        l = regex_to_dfa("(aa)*", A1)
        syn = syntactic_monoid(l)
        assert syn.monoid.size == 2
        assert syn.monoid.table == ((0, 1), (1, 0))  # the two-element group
        assert syn.saturation(l) == frozenset({0})
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
            assert syn.morphism.preimage(syn.saturation(l)) == l

    def test_non_minimal_dfa_gives_the_syntactic_monoid(self):
        # a 4-state DFA of a* with two unreachable states and two equivalent ones
        d = Dfa(A1, 4, ((1,), (1,), (2,), (0,)), {0, 1})
        assert syntactic_monoid(d).monoid.size == 1
        assert joint_quotient([d]).monoid.size == 1
        rng = random.Random(3)
        for states in (2, 3, 5, 8):
            table = tuple((rng.randrange(states), rng.randrange(states)) for _ in range(states))
            accepting = {q for q in range(states) if rng.random() < 0.5}
            d = Dfa(AB, states, table, accepting)
            c = _canonical(AB, table, accepting, 0)
            assert syntactic_monoid(d) == syntactic_monoid(c)
            assert joint_quotient([d, c]) == joint_quotient([c])

    def test_is_the_joint_quotient_with_no_table_until_read(self):
        for r in CORPUS_REGEXES:
            l = regex_to_dfa(r, AB)
            syn = syntactic_monoid(l)
            assert syn == joint_quotient([l])
            assert "monoid" not in vars(syn)
            syn.saturation(l)
            assert "monoid" not in vars(syn)

    def test_minimality_by_congruence_enumeration(self):
        negatives = 0
        for r in CORPUS_REGEXES:
            l = regex_to_dfa(r, AB)
            syn = syntactic_monoid(l)
            m, accept = syn.monoid, syn.saturation(l)
            assert is_minimal_recogniser(m, accept), r
            if m.size <= 6:
                assert minimal_by_enumeration(m, accept), r
            if m.size >= 2:
                # the trivial quotient separates nothing from everything
                for trivial in (frozenset(), frozenset(m.elements())):
                    assert not is_minimal_recogniser(m, trivial), r
                    if m.size <= 6:
                        assert not minimal_by_enumeration(m, trivial), r
                negatives += 1
        assert negatives >= 10

    def test_refinement_agrees_with_the_enumeration_on_small_tables(self):
        tables = [m for n in (1, 2, 3, 4) for m in enumerate_monoids(n)]
        tables += [s for n in (1, 2, 3) for s in enumerate_semigroups(n)]
        verdicts = []
        for m in tables:
            blocks = [list(merging_blocks(part)) for part in proper_congruences(m)]
            for mask in range(2 ** m.size):
                accept = frozenset(x for x in m.elements() if mask >> x & 1)
                want = not any(all(b <= accept or not b & accept for b in bs) for bs in blocks)
                verdicts.append(is_minimal_recogniser(m, accept))
                assert verdicts[-1] == want, (m.table, accept)
        assert len(verdicts) == 3532 and 0 < verdicts.count(True) < len(verdicts)


    def test_minimality_refuses_what_is_not_an_element(self):
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        assert is_minimal_recogniser(u1, {1})
        for bad in (True, 1.0, 9, -1):
            with pytest.raises(InputError, match=r"^element .* is not an integer in 0\.\.1$"):
                is_minimal_recogniser(u1, {bad})

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

    def test_letter_images_must_be_integers_in_range(self):
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        for bad in ((True, 0), (0, False), (1.0, 0), (0, "1"), (None, 0), (-1, 0), (0, 2)):
            with pytest.raises(InputError, match=r"^letter image .* is not an integer in 0\.\.1$"):
                MonoidMorphism(AB, u1, bad)


class TestRecognisedLanguage:
    def test_empty_accepting_set(self):
        syn = syntactic_monoid(regex_to_dfa("(ab)*", AB))
        assert syn.morphism.preimage(frozenset()) == empty_language(AB)

    def test_full_accepting_set(self):
        syn = syntactic_monoid(regex_to_dfa("(ab)*", AB))
        full = frozenset(range(syn.monoid.size))
        assert syn.morphism.preimage(full) == universal_language(AB)

    def test_full_accepting_set_semigroup(self):
        s = FiniteMonoid(((0, 0), (1, 1)))
        h = MonoidMorphism(AB, s, (0, 1))
        assert h.preimage({0, 1}) == nonempty_universal(AB)

    def test_image_is_generated_once(self, monkeypatch):
        calls = []
        generate = monoids.generate_closure

        def counted(images, *args, **kwargs):
            calls.append(images)
            return generate(images, *args, **kwargs)

        monkeypatch.setattr(monoids, "generate_closure", counted)
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        h = MonoidMorphism(AB, u1, (1, 0))
        assert [h.preimage(v) for v in ({0}, {1}, {0, 1})] == [
            regex_to_dfa("b*", AB), regex_to_dfa("(a|b)*a(a|b)*", AB), universal_language(AB),
        ]
        assert h.image.elements == [0, 1]
        assert calls == [h.letter_images]

    def test_preimage_refuses_what_is_not_an_element(self):
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        h = MonoidMorphism(AB, u1, (1, 0))
        for bad in (True, 1.0, "1", None, -1, 2):
            with pytest.raises(InputError, match=r"^element .* is not an integer in 0\.\.1$"):
                h.preimage({bad})

    def test_preimage_matches_brute_force(self):
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        h = MonoidMorphism(AB, u1, (1, 0))
        l = h.preimage({1})
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

    def test_enumeration_bound(self, monkeypatch):
        # 4^10 = 1 048 576 letter-image assignments, refused before any is built
        def refuse(*args):
            raise AssertionError("a morphism was built")

        monkeypatch.setattr(monoids, "MonoidMorphism", refuse)
        alph = Alphabet(tuple("abcdefghij"))
        message = r"^1048576 morphisms exceed the enumeration bound 1000000$"
        with pytest.raises(ResourceLimitError, match=message):
            all_morphisms(alph, enumerate_monoids(4)[0])


class TestRecognisedAlgebra:
    def test_trivial_monoid(self):
        from langrec.monoids import TRIVIAL_MONOID
        from langrec.algebra import trivial_algebra

        assert recognised_algebra(TRIVIAL_MONOID, AB) == trivial_algebra(AB)

    def test_two_element_idempotent_monoid(self):
        # oracle: enumerate the four letter-image assignments and their
        # preimages explicitly, then generate
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        preimages = []
        for h in all_morphisms(AB, u1):
            for v in ({0}, {1}):
                preimages.append(h.preimage(v))
        expected = generate_algebra(preimages, AB)
        assert recognised_algebra(u1, AB) == expected
        assert expected == generate_algebra(
            [regex_to_dfa("(a|b)*a(a|b)*", AB), regex_to_dfa("(a|b)*b(a|b)*", AB)]
        )

    def test_left_zero_semigroup(self):
        lz = FiniteMonoid(((0, 0), (1, 1)))
        got = recognised_algebra(lz, AB)
        expected = generate_algebra(
            [regex_to_dfa("a(a|b)*", AB), regex_to_dfa("b(a|b)*", AB)],
            semigroup=True,
        )
        assert got.semigroup
        assert got == expected

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
    def test_rows_are_stored_as_tuples(self):
        m = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        left, right = ([0, 1], [1, 1]), ([0, 1], [1, 1])
        act = Biaction(m, 2, left, right)
        assert act == regular_biaction(m) and hash(act) == hash(regular_biaction(m))
        left[1][0] = right[1][0] = 0
        assert act.left == act.right == ((0, 1), (1, 1))

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

    def test_a_map_that_breaks_only_the_right_law_is_detected(self):
        # the regular left action of Z2 paired with the trivial right one:
        # the identity keeps every left action and breaks the right ones
        z2 = FiniteMonoid(((0, 1), (1, 0)), identity=0)
        trivial_right = Biaction(z2, 2, ((0, 1), (1, 0)), ((0, 1), (0, 1)))
        assert morphism_preserves_actions((0, 1), regular_biaction(z2), trivial_right,
                                          monoid_map=(0, 1)) is False

    def test_entries_must_be_integers_in_range(self):
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        b = regular_biaction(u1)
        for side in ("left", "right"):
            for bad in (True, 1.0, -1, 2, None):
                rows = [list(r) for r in getattr(b, side)]
                rows[1][1] = bad
                with pytest.raises(InputError, match=r"^action component .* is not an integer in 0\.\.1$"):
                    Biaction(u1, 2, **{"left": b.left, "right": b.right, side: rows})


    def test_maps_must_send_into_the_target(self):
        # each entry of either map indexes dst: True and 1.0 equal 1 but
        # are no elements, and 5 names none
        u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        r = regular_biaction(u1)
        for bad in ((0, 5), (False, True), (0, 1.0), (0, -1)):
            with pytest.raises(InputError, match=r"^element .* is not an integer in 0\.\.1$"):
                morphism_preserves_actions(bad, r, r)
            with pytest.raises(InputError, match=r"^element .* is not an integer in 0\.\.1$"):
                morphism_preserves_actions((0, 1), r, r, monoid_map=bad)
        # a carrier map into a larger carrier is checked against it
        m = syntactic_monoid(regex_to_dfa("(ab)*", AB)).monoid
        big = regular_biaction(m)
        assert m.size > 2
        with pytest.raises(InputError, match=r"^element 2 is not an integer in 0\.\.1$"):
            morphism_preserves_actions(tuple(range(m.size)), big, r, monoid_map=(0,) * m.size)

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

    def test_canonical_inputs_are_not_minimised_again(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_minimise was called")

        dfas = [regex_to_dfa(r, AB) for r in CORPUS_REGEXES[:6]]
        b = generate_algebra([regex_to_dfa("a*b*", AB)])

        def build():
            return (joint_quotient(dfas), syntactic_monoid(dfas[1]), bsum2_quotient(dfas[2], b),
                    generate_algebra(dfas), complement(dfas[3]))

        want = build()
        monkeypatch.setattr(languages, "_minimise", refuse)
        assert build() == want


class TestCayleyGraph:
    @pytest.mark.parametrize("semigroup", [False, True])
    def test_machine_must_be_numbered_breadth_first(self, semigroup):
        good = ((1, 2), (1, 1), (2, 2))  # ε, a(a|b)*, b(a|b)*
        assert FiniteQuotient(AB, semigroup, good).size == 3 - semigroup
        bad = [
            ((2, 1), (1, 1), (2, 2)),  # states 1 and 2 swapped
            ((1, 1), (1, 1), (2, 2)),  # state 2 unreachable
            ((0, 0), (1, 1)),  # state 1 only reaches itself
            ((1, 3), (1, 1), (2, 2)),  # targets out of range
            ((1, 2), (1, 3), (2, 2)),
            ((1, -1), (1, 1), (2, 2)),
        ]
        if semigroup:
            bad.append(((1, 2), (0, 1), (2, 2)))  # a non-empty word back at ε's state
        for t in bad:
            with pytest.raises(InputError, match="not numbered breadth-first"):
                FiniteQuotient(AB, semigroup, t)
        for t in (((1, 2), (1,), (2, 2)), ((1, 2, 0), (1, 1), (2, 2))):
            with pytest.raises(InputError, match="one transition per letter"):
                FiniteQuotient(AB, semigroup, t)
        with pytest.raises(InputError):
            FiniteQuotient(AB, semigroup, ())

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_refuses_exactly_the_graphs_whose_kernel_is_no_congruence(self, semigroup):
        # every graph over {a, b} with up to 4 states that is numbered breadth-first
        verdicts = []
        for n in range(1, 5):
            for flat in itertools.product(range(n), repeat=2 * n):
                g = tuple(zip(flat[::2], flat[1::2]))
                try:
                    FiniteQuotient(AB, semigroup, g)
                    ok = True
                except InputError as exc:
                    if "breadth-first" in str(exc):
                        continue
                    assert str(exc).startswith("not a Cayley graph: "), exc
                    ok = False
                assert ok == kernel_is_a_congruence(g), g
                verdicts.append(ok)
        assert set(verdicts) == {True, False}

    def test_queries_never_regenerate_the_image(self, monkeypatch):
        def image(self):
            raise AssertionError("the Cayley graph was rebuilt from the morphism")

        b = generate_algebra([regex_to_dfa("(a|b)*a", AB)], AB)
        q = bsum2_quotient(regex_to_dfa("a*b", AB), b)
        q.monoid, q.morphism  # built from the graph, not from an image
        monkeypatch.setattr(MonoidMorphism, "image", image)
        assert q.saturation(regex_to_dfa("a*b", AB)) is not None
        assert b.saturation(regex_to_dfa("(a|b)*a", AB)) == {1}
        assert _atom_map(q, b) == [b.atom_of(rep) for rep in q.reps]
        assert dual_recogniser(b).saturation(regex_to_dfa("(a|b)*b|ε", AB)) == {0, 2}


def kernel_is_a_congruence(g):
    """Whether words u and v that share a state of g always give c u and
    c v one state: per letter c, the pairs (state of u, state of c u)
    that the words reach, walked from (0, state of c), form a map."""
    for first in g[0]:
        image = {}
        seen, todo = {(0, first)}, [(0, first)]
        while todo:
            s, t = todo.pop()
            if image.setdefault(s, t) != t:
                return False
            for pair in zip(g[s], g[t]):
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return True


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
            quotients = [dual_recogniser(alg)]
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
        q = dual_recogniser(alg)
        assert q.monoid.identity is None
        assert q.saturation(nonempty_universal(AB)) == frozenset(range(q.monoid.size))
        for l in (universal_language(AB), epsilon_language(AB), regex_to_dfa("(a|b)*a|ε", AB)):
            assert q.saturation(l) is None


def minimised_language(alph, clo, accept):
    """The minimisation oracle: the Cayley graph of the closure with the
    accepted labels' states, trimmed, minimised and renumbered."""
    acc = {i + clo.semigroup for i, e in enumerate(clo.elements) if accept(e)}
    return _canonical(alph, clo.transitions, acc, 0)


def oracle_closures():
    """Unary Schutzenberger closures over monoids and semigroups, local
    Schutzenberger closures, and plain semigroup images, with the
    alphabet each reads and the (letter images, product, unit) that
    generate it."""
    rng = random.Random(11)
    ext = ExtendedAlphabet(AB)
    u1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
    z2 = FiniteMonoid(((0, 1), (1, 0)), identity=0)
    out = []
    taus = [MonoidMorphism(ext.ext, m, tuple(rng.randrange(m.size) for _ in ext.ext.letters))
            for m in enumerate_monoids(3) + enumerate_semigroups(2)]
    for regex in ("('a#0'|'b#0')* 'a#1' ('a#0'|'b#0')*", "'b#0'* 'a#1' ('a#0' 'b#0')*",
                  "('a#0'|'b#0')* 'b#1' 'a#0' 'b#0'*"):
        taus.append(syntactic_monoid(regex_to_dfa(regex, ext.ext)).morphism)
    for tau in taus:
        product = UnarySchutz(tau.target)
        generators = (exists_letter_images(tau), product.mul,
                      None if product.semigroup else product.unit())
        out.append((f"unary-{tau.target!r}-{tau.letter_images}", AB, exists_closure(tau), generators))
    starts_a = syntactic_monoid(regex_to_dfa("a(a|b)*", AB)).morphism  # 3 elements
    pairs = [(MonoidMorphism(AB, u1, (0, 1)), MonoidMorphism(AB, u1, (1, 0))),
             (MonoidMorphism(AB, z2, (0, 1)), MonoidMorphism(AB, u1, (0, 1))),
             (starts_a, starts_a)]  # 25, 30 and 59 elements
    for phi1, phi2 in pairs:
        loc = local_schutz_morphism(phi1, phi2)
        images = [(tuple(marked_split_set(phi1, phi2, a, Word(AB, (c,))) for a in range(len(AB))),
                   phi1.letter_images[c], phi2.letter_images[c]) for c in range(len(AB))]
        unit = (tuple(frozenset() for _ in AB.letters), phi1.target.identity, phi2.target.identity)
        out.append((f"local-{phi1.letter_images}-{phi2.letter_images}", AB, loc.closure,
                    (images, loc.mul, unit)))
    abc = Alphabet(("a", "b", "c"))
    for s in enumerate_semigroups(3)[::9]:
        for alph in (AB, abc):
            images = tuple(rng.randrange(s.size) for _ in alph.letters)
            out.append((f"semigroup-{s.table}-{images}", alph, MonoidMorphism(alph, s, images).image,
                        (images, s.mul, None)))
    return out


class TestClosureLanguage:
    def test_matches_minimisation_oracle(self):
        rng = random.Random(12)
        modes = set()
        for name, alph, clo, _ in oracle_closures():
            modes.add(clo.semigroup)
            n = len(clo.elements)
            subsets = [frozenset(), frozenset(range(n))] + [
                frozenset(i for i in range(n) if rng.random() < 0.5) for _ in range(6)
            ]
            for keep in subsets:
                labels = [clo.elements[i] for i in keep]
                want = minimised_language(alph, clo, labels.__contains__)
                assert clo.language(alph, labels.__contains__) == want, name
        assert modes == {False, True}
        # the quotient kept on a closure is rebuilt for another alphabet
        upper = Alphabet(tuple(c.upper() for c in alph.letters))
        accept = clo.elements[-1].__eq__
        assert clo.language(upper, accept) == minimised_language(upper, clo, accept)

    @pytest.mark.parametrize("semigroup", [False, True])
    def test_numbering_is_the_quotients(self, semigroup):
        """Element i of a closure is the product of the letter images
        along its quotient's i-th representative, and its graph is a
        Cayley graph that FiniteQuotient accepts as it stands."""
        closures = [c for c in oracle_closures() if c[2].semigroup == semigroup]
        assert closures
        for name, alph, clo, (images, mul, unit) in closures:
            q = FiniteQuotient(alph, clo.semigroup, clo.transitions)
            assert q == clo.quotient(alph) and q.size == len(clo.elements), name
            for rep, e in zip(clo.quotient(alph).reps, clo.elements):
                factors = [images[c] for c in rep.indices]
                assert functools.reduce(mul, factors, *([] if semigroup else [unit])) == e, name


def union_language_by_gathers(q, elements):
    """The reference walk: a word's state is the 0/1 vector over the
    graph's states y saying whether the word followed by y's words lands
    in the union, and reading a letter composes the vector with the
    letter's left action through one itemgetter gather.  Returns the
    transitions and accepting states of the DFA it numbers."""
    g = q.transitions
    start = bytearray(len(g))
    for i in elements:
        start[i + q.semigroup] = 1
    action = []
    for c in range(len(q.alphabet)):
        lt = [g[0][c]]
        for s, d in q._tree:
            lt.append(g[lt[s]][d])
        action.append(itemgetter(*lt) if len(g) > 1 else tuple)
    order = [bytes(start)]
    index = {order[0]: 0}
    rows = []
    for v in order:
        row = []
        for act in action:
            w = bytes(act(v))
            j = index.get(w)
            if j is None:
                j = index[w] = len(order)
                order.append(w)
            row.append(j)
        rows.append(tuple(row))
    return tuple(rows), frozenset(i for i, v in enumerate(order) if v[0])


def union_oracle_quotients():
    """Named quotients for the union walk: B + B for four one-language
    algebras (44 to 241 atoms), semigroup-mode algebras and sums, the
    trivial algebras, and transition closures of seeded random DFAs
    whose Cayley graphs have 7, 8, 9, 16 and 17 states in each mode,
    on either side of a byte of the state set."""
    out = {}
    for base in ("a", "(aa)*", "ab", "a*b*"):
        b = generate_algebra([regex_to_dfa(base, AB)], AB)
        out[f"sum-{base}"] = schutz_sum(b, b)
    for gens in (("(a|b)*a",), ("(ab)*", "a*"), ("b(a|b)*b",)):
        b = generate_algebra([regex_to_dfa(g, AB) for g in gens], AB, semigroup=True)
        out[f"semigroup-{'+'.join(gens)}"] = b
    b = generate_algebra([regex_to_dfa("a(a|b)*", AB)], AB, semigroup=True)
    out["semigroup-sum-a(a|b)*"] = schutz_sum(b, b)
    out["trivial"] = trivial_algebra(AB)
    out["semigroup-trivial"] = trivial_algebra(AB, semigroup=True)
    rng = random.Random(27)
    edges = {}
    while len(edges) < 10:
        semigroup = rng.random() < 0.5
        clo = transition_closure(AB, [random_dfa(rng, rng.randint(2, 4))], semigroup=semigroup)
        if len(clo.transitions) in (7, 8, 9, 16, 17):
            edges.setdefault((len(clo.transitions), semigroup), clo.quotient(AB))
    for (states, semigroup), q in sorted(edges.items()):
        out[f"{'semigroup' if semigroup else 'monoid'}-{states}-states"] = q
    return out


UNION_ORACLE_QUOTIENTS = union_oracle_quotients()


class TestUnionLanguageWalk:
    """``union_language`` holds a state as a bitmask of graph states and
    reads a letter a byte at a time; its DFAs must equal, field for
    field, those of the gather walk it replaced, and denote the
    minimised Cayley graph's language.  ``union_languages`` builds many
    unions from one shared walk and must give the same DFAs."""

    def test_byte_edges_and_modes_are_covered(self):
        sizes = {(len(q.transitions), q.semigroup) for q in UNION_ORACLE_QUOTIENTS.values()}
        assert {(n, m) for n in (7, 8, 9, 16, 17) for m in (False, True)} <= sizes
        assert (1, False) in sizes and (241, False) in sizes

    @pytest.mark.parametrize("name", list(UNION_ORACLE_QUOTIENTS))
    def test_matches_gather_walk_and_minimisation(self, name):
        q = UNION_ORACLE_QUOTIENTS[name]
        n, off = q.size, q.semigroup
        rng = random.Random(len(q.transitions))
        subsets = [set(), set(range(n))] + [{i} for i in range(n)]
        subsets += [{i for i in range(n) if rng.random() < 0.5} for _ in range(6)]
        shared = q.union_languages(subsets)  # one walk for all of them
        assert len(shared) == len(subsets)
        for subset, s in zip(subsets, shared):
            want = union_language_by_gathers(q, subset)
            d = q.union_language(subset)
            assert (d.transitions, d.accepting) == want, subset
            assert (s.transitions, s.accepting) == want, subset
            assert same_language(d, _canonical(AB, q.transitions, {i + off for i in subset}, 0))

    def test_accepts_duplicates_and_one_shot_generators(self):
        # bad indices are refused by test_algebra's test_refuses_bad_atom_indices
        q = UNION_ORACLE_QUOTIENTS["monoid-9-states"]
        want = q.union_language([1, 7, 8])
        assert q.union_language([8, 1, 7, 1, 8]) == want
        assert q.union_language(i for i in (1, 7, 8)) == want
        unions = ([1, 7, 8], [8, 1, 7, 1, 8], [2], (i for i in (1, 7, 8)), [1, 7, 8])
        got = q.union_languages(u for u in unions)
        assert got == (want, want, q.union_language([2]), want, want)

    def test_no_union_and_the_empty_union(self):
        q = UNION_ORACLE_QUOTIENTS["monoid-9-states"]
        assert q.union_languages([]) == ()
        assert q.union_languages([()]) == (empty_language(AB),)
        assert q.union_languages([(), range(q.size)]) == (empty_language(AB), universal_language(AB))

    def test_semigroup_mode(self):
        q = UNION_ORACLE_QUOTIENTS["semigroup-17-states"]
        n = q.size
        got = q.union_languages([(), range(n), (0,), (0,)])
        assert got[:2] == (empty_language(AB), nonempty_universal(AB))
        assert got[2] == got[3] == q.union_language([0])
        assert not got[2].accepts(())

    def test_bad_index_in_a_later_union_is_refused_before_any_walk(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("walked before every index was checked")

        monkeypatch.setattr(monoids, "_explore", refuse)
        for q in (UNION_ORACLE_QUOTIENTS["monoid-9-states"], UNION_ORACLE_QUOTIENTS["semigroup-9-states"]):
            for bad in (q.size, -1, True, 1.0, None):
                with pytest.raises(InputError, match=f"^element index {bad!r} is not an integer"):
                    q.union_languages([(0,), range(q.size), (1, bad)])

    @pytest.mark.parametrize("name", [
        name for name, q in UNION_ORACLE_QUOTIENTS.items() if isinstance(q, LanguageAlgebra)
    ])
    def test_atoms_match_per_atom_gather_walk(self, name):
        alg = UNION_ORACLE_QUOTIENTS[name]
        atoms = alg.atoms
        assert len(atoms) == alg.atom_count
        for i, d in enumerate(atoms):
            assert (d.transitions, d.accepting) == union_language_by_gathers(alg, (i,)), i


class TestCeilingBoundary:
    """A bound equal to the exact size passes and one less is refused:
    the subset construction counts its subsets, a monoid-mode closure
    its elements with the unit, and a semigroup-mode closure its
    elements without the empty word's start state."""

    def test_subset_construction(self):
        # 7 subsets, which minimise to 5 states
        ext = ExtendedAlphabet(AB).ext
        l = regex_to_dfa("('a#0'|'b#0')* 'b#1' ('a#0'|'b#0')* 'a#0' ('a#0'|'b#0')", ext)
        with closure_ceiling(7):
            assert exists_projection(l).states == 5
        with closure_ceiling(6):
            with pytest.raises(ResourceLimitError, match="^subset construction exceeded 6 states$"):
                exists_projection(l)

    def test_monoid_mode_closure(self):
        l = regex_to_dfa("(ab)*", AB)  # 6 elements, the unit among them
        with closure_ceiling(6):
            assert syntactic_monoid(l).size == 6
        with closure_ceiling(5):
            with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 5 elements$"):
                syntactic_monoid(l)

    def test_semigroup_mode_closure(self):
        # Z/5 generated by 1: five elements after a start state that is none of them
        def add(x, y):
            return (x + y) % 5

        with closure_ceiling(5):
            clo = monoids.generate_closure([1], add, None)
        assert clo.elements == [1, 2, 3, 4, 0] and len(clo.transitions) == 6
        with closure_ceiling(4):
            with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 4 elements$"):
                monoids.generate_closure([1], add, None)
        # the semigroup-mode algebra of (ab)* has 5 atoms; in monoid mode, 6
        gens = [regex_to_dfa("(ab)*", AB)]
        with closure_ceiling(5):
            assert generate_algebra(gens, AB, semigroup=True).atom_count == 5
        with closure_ceiling(4):
            with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 4 elements$"):
                generate_algebra(gens, AB, semigroup=True)


class TestClosureCeilingEnvironment:
    """LANGREC_MAX_CLOSURE sets the default closure ceiling; a scope
    still wins, and values that are not positive integers are
    refused."""

    L = regex_to_dfa("(ab)*", AB)  # syntactic monoid of 6 elements

    def test_override_lowers_the_ceiling(self, monkeypatch):
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", "5")
        with pytest.raises(ResourceLimitError, match="exceeded 5 elements"):
            syntactic_monoid(self.L)
        with closure_ceiling(6):
            assert syntactic_monoid(self.L).monoid.size == 6

    def test_override_at_the_monoid_size_is_enough(self, monkeypatch):
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", "6")
        assert syntactic_monoid(self.L).monoid.size == 6

    @pytest.mark.parametrize("raw, message", [
        ("ten", "is not an integer"),
        ("2.5", "is not an integer"),
        ("0", "must be positive"),
        ("-3", "must be positive"),
    ])
    def test_refused_values(self, monkeypatch, raw, message):
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", raw)
        with pytest.raises(InputError, match=f"^LANGREC_MAX_CLOSURE {message}"):
            syntactic_monoid(self.L)

    @pytest.mark.parametrize("bound", [5.5, True, "10", 6.0])
    def test_explicit_bound_must_be_an_integer(self, bound):
        with pytest.raises(InputError, match="^closure limit must be an integer"):
            with closure_ceiling(bound):
                syntactic_monoid(self.L)


class TestClosureCeilingScope:
    """``closure_ceiling`` scopes nest: the innermost wins, the enclosing
    one holds again on leaving, by an exception too, and any scope wins
    over LANGREC_MAX_CLOSURE."""

    L = regex_to_dfa("(ab)*", AB)  # syntactic monoid of 6 elements

    def test_innermost_scope_wins_and_the_outer_one_comes_back(self, monkeypatch):
        monkeypatch.delenv("LANGREC_MAX_CLOSURE", raising=False)
        with closure_ceiling(6):
            with closure_ceiling(5):
                assert closure_limit() == 5
                with pytest.raises(ResourceLimitError, match="^submonoid closure exceeded 5 elements$"):
                    syntactic_monoid(self.L)
            assert closure_limit() == 6
            assert syntactic_monoid(self.L).size == 6
            with pytest.raises(ResourceLimitError):
                with closure_ceiling(4):
                    syntactic_monoid(self.L)
            assert closure_limit() == 6
        with closure_ceiling(5):
            with closure_ceiling(6):  # an inner scope may raise the ceiling too
                assert syntactic_monoid(self.L).size == 6
        assert closure_limit() == languages.DEFAULT_CLOSURE

    def test_none_keeps_the_enclosing_ceiling(self):
        with closure_ceiling(5), closure_ceiling(None):
            assert closure_limit() == 5

    @pytest.mark.parametrize("env, scope", [("5", 6), ("6", 5)])
    def test_scope_beats_the_environment(self, monkeypatch, env, scope):
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", env)
        with closure_ceiling(scope):
            assert closure_limit() == scope
            if scope >= 6:
                assert syntactic_monoid(self.L).size == 6
            else:
                with pytest.raises(ResourceLimitError, match=f"^submonoid closure exceeded {scope} elements$"):
                    syntactic_monoid(self.L)
        assert closure_limit() == int(env)

    @pytest.mark.parametrize("bound, message", [
        (True, "must be an integer, got True"),
        (2.5, "must be an integer, got 2.5"),
        (0, "must be positive, got 0"),
        (-3, "must be positive, got -3"),
    ])
    def test_refused_bounds(self, bound, message):
        with closure_ceiling(7):
            with pytest.raises(InputError, match=f"^closure limit {message}$"):
                with closure_ceiling(bound):
                    pass
            assert closure_limit() == 7
