"""The four workloads of the langrec benchmark.

``WORKLOADS[name](seed, reduced)`` generates a workload's inputs from the
seed and returns its operations.  An ``Op`` is one verdict or one
construction: ``run`` is timed and may keep its result in the round's
``state`` for later operations; ``check`` is not timed and decides,
without the code path that ``run`` took, whether the result is right.
``reduced=True`` gives a small version of the same workload for the
smoke test.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import langrec as lr
from langrec import campaigns
from langrec.campaigns import CORPUS_REGEXES

DRAWS_FILE = Path(__file__).resolve().parent / "equation_draws.json"
AB = lr.Alphabet(("a", "b"))


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[dict], object]
    check: Callable[[dict, object], bool]


# -- reference computations shared by the checks --------------------------


def _subsets(universe, nonempty: bool):
    """Subsets by size, then lexicographically: the documented carrier order."""
    for size in range(1 if nonempty else 0, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


@functools.lru_cache(maxsize=None)
def _unary_carrier(n: int, semigroup: bool) -> tuple:
    return tuple((s, m) for s in _subsets(range(n), semigroup) for m in range(n))


@functools.lru_cache(maxsize=None)
def _binary_carrier(n1: int, n2: int) -> tuple:
    pairs = [(x, y) for x in range(n1) for y in range(n2)]
    return tuple((s, m, n) for s in _subsets(pairs, False) for m in range(n1) for n in range(n2))


def _unary_product(t, p, q):
    """(S, m)(T, n) = (S.n u m.T, mn), written out from the definition."""
    (s, m), (u, n) = p, q
    return (frozenset(t[x][n] for x in s) | frozenset(t[m][y] for y in u), t[m][n])


def _binary_product(lt, rt, p, q):
    """(S, m1, n1)(T, m2, n2) = (m1.T u S.n2, m1 m2, n1 n2)."""
    (s, m1, n1), (u, m2, n2) = p, q
    first = frozenset((lt[m1][x], y) for x, y in u) | frozenset((x, rt[y][n2]) for x, y in s)
    return (first, lt[m1][m2], rt[n1][n2])


def _closure_size(dfas, semigroup: bool) -> int:
    """Size of the submonoid (subsemigroup) that the letters generate in
    the product of the syntactic monoids of the languages."""
    syns = [lr.syntactic_monoid(d) for d in dfas]
    tables = [s.monoid.table for s in syns]
    k = len(dfas[0].alphabet)
    images = [tuple(s.morphism.letter_images[c] for s in syns) for c in range(k)]
    unit = None if semigroup else tuple(s.monoid.identity for s in syns)

    def mul(x, y):
        return tuple(t[a][b] for t, a, b in zip(tables, x, y))

    return len(lr.monoids.generate_closure(images, mul, unit).elements)


def _words(alph, max_len: int, semigroup: bool) -> list[tuple[int, ...]]:
    return list(alph.tuples_upto(max_len, 1 if semigroup else 0))


def _atoms_accepting(alg, w) -> list[int]:
    return [i for i, a in enumerate(alg.atoms) if a.accepts(w)]


def _check_algebra(alg, gens, semigroup: bool, max_len: int = 5) -> bool:
    """Atom count against the syntactic-monoid closure of the generators,
    and the atoms partition every word up to ``max_len``."""
    expected = _closure_size(gens, semigroup) if gens else 1
    if alg.semigroup != semigroup or len(alg.atoms) != expected:
        return False
    if any(not a.accepts(r) for a, r in zip(alg.atoms, alg.atom_reps)):
        return False
    return all(len(_atoms_accepting(alg, w)) == 1 for w in _words(alg.alphabet, max_len, semigroup))


def _member_truth(alg, cand, size: int | None = None) -> bool:
    """A candidate is a member exactly when adding it to the generators
    leaves their syntactic-monoid closure the same size (``size``, when
    the caller already has it)."""
    if size is None:
        size = _closure_size(alg.generators, alg.semigroup)
    return _closure_size(list(alg.generators) + [cand], alg.semigroup) == size


# -- products -----------------------------------------------------------------


def _unary_table_ok(base, result, pairs) -> bool:
    mfm, elems = result
    n = base.size
    semigroup = base.is_semigroup
    if len(elems) != (2**n - (1 if semigroup else 0)) * n or mfm.size != len(elems):
        return False
    if elems != _unary_carrier(n, semigroup):
        return False
    index = {e: i for i, e in enumerate(elems)}
    if mfm.identity != (None if semigroup else index[(frozenset(), base.identity)]):
        return False
    t = base.table
    for i, j in pairs:
        r = mfm.table[i][j]
        if r != index[_unary_product(t, elems[i], elems[j])]:
            return False
        if elems[r][1] != t[elems[i][1]][elems[j][1]]:
            return False  # second projection is not a morphism
    return True


def _binary_table_ok(m1, m2, result, pairs) -> bool:
    mfm, elems = result
    size = 2 ** (m1.size * m2.size) * m1.size * m2.size
    if len(elems) != size or mfm.size != size or elems != _binary_carrier(m1.size, m2.size):
        return False
    index = {e: i for i, e in enumerate(elems)}
    if mfm.identity != index[(frozenset(), m1.identity, m2.identity)]:
        return False
    lt, rt = m1.table, m2.table
    for i, j in pairs:
        r = mfm.table[i][j]
        (_, x1, y1), (_, x2, y2), (_, x, y) = elems[i], elems[j], elems[r]
        if r != index[_binary_product(lt, rt, elems[i], elems[j])]:
            return False
        if x != lt[x1][x2] or y != rt[y1][y2]:
            return False  # a base projection is not a morphism
    return True


def _action_violations(d, elems) -> int:
    """Exhaustive: each action equals multiplication, and the two commute."""
    bad = 0
    for p in elems:
        for x in elems:
            if d.left_action(p, x) != d.mul(p, x) or d.right_action(p, x) != d.mul(x, p):
                bad += 1
    for p in elems:
        for q in elems:
            for x in elems:
                if d.left_action(p, d.right_action(q, x)) != d.right_action(q, d.left_action(p, x)):
                    bad += 1
    return bad


def _actions_ok(d, product, elems, points) -> bool:
    """Point actions against the product written out from its definition."""
    return all(
        d.left_action(elems[i], elems[j]) == product(elems[i], elems[j])
        and d.right_action(elems[i], elems[j]) == product(elems[j], elems[i])
        for i, j in points
    )


def _triples_ok(lt, rt, elems, triples, result) -> bool:
    if len(result) != len(triples):
        return False
    for (i, j, k), row in zip(triples, result):
        p, q = elems[i], elems[j]
        pq, lhs, rhs, up, pu, left, right, lr_, rl = row
        if pq != _binary_product(lt, rt, p, q) or lhs != rhs:
            return False
        if lhs != _binary_product(lt, rt, pq, elems[k]):
            return False
        if up != p or pu != p or left != pq or right != pq or lr_ != rl:
            return False
    return True


def products(seed: int, reduced: bool = False) -> list[Op]:
    rng = random.Random(seed)
    lr.enumerate_monoids.cache_clear()
    lr.enumerate_semigroups.cache_clear()
    sizes = (1, 2) if reduced else (1, 2, 3)
    monoids = {n: lr.enumerate_monoids(n) for n in sizes}
    semigroups = {n: lr.enumerate_semigroups(n) for n in sizes}
    ops: list[Op] = []

    def pairs_in(size: int, count: int) -> list[tuple[int, int]]:
        return [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]

    # the materialised unary product of every base of size <= 3
    for pool in (monoids, semigroups):
        for n, bases in pool.items():
            for base in bases:
                size = (2**n - (1 if base.is_semigroup else 0)) * n
                ops.append(Op(
                    "unary-product",
                    lambda st, b=base: lr.UnarySchutz(b).as_finite_monoid(max_base=3),
                    lambda st, r, b=base, pr=pairs_in(size, 12): _unary_table_ok(b, r, pr),
                ))

    # unary actions, exhaustively, for bases of size <= 2
    for pool in (monoids, semigroups):
        for n in (1, 2):
            for base in pool[n]:
                size = (2**n - (1 if base.is_semigroup else 0)) * n

                def run(st, b=base):
                    d = lr.UnarySchutz(b)
                    return _action_violations(d, list(d.carrier()))

                def check(st, r, b=base, pts=pairs_in(size, 8)):
                    elems = _unary_carrier(b.size, b.is_semigroup)
                    prod = functools.partial(_unary_product, b.table)
                    return r == 0 and _actions_ok(lr.UnarySchutz(b), prod, elems, pts)

                ops.append(Op("unary-actions", run, check))

    # materialised binary products up to the 512-element carrier: one
    # seeded base pair per pair of sizes
    for n1 in sizes:
        for n2 in sizes:
            size = 2 ** (n1 * n2) * n1 * n2
            if size > 512:
                continue
            m1, m2 = rng.choice(monoids[n1]), rng.choice(monoids[n2])
            ops.append(Op(
                "binary-product",
                lambda st, a=m1, b=m2: lr.BinarySchutz(a, b).as_finite_monoid(max_carrier=512),
                lambda st, r, a=m1, b=m2, pr=pairs_in(size, 12): _binary_table_ok(a, b, r, pr),
            ))

    # seeded triples on every binary carrier, up to 4 608 elements
    for n1 in sizes:
        for n2 in sizes:
            size = 2 ** (n1 * n2) * n1 * n2
            m1, m2 = rng.choice(monoids[n1]), rng.choice(monoids[n2])
            triples = [tuple(rng.randrange(size) for _ in range(3)) for _ in range(40 if reduced else 1000)]

            def run(st, a=m1, b=m2, tr=triples):
                d = lr.BinarySchutz(a, b)
                elems = list(d.carrier())
                u = d.unit()
                out = []
                for i, j, k in tr:
                    p, q, r = elems[i], elems[j], elems[k]
                    pq = d.mul(p, q)
                    out.append((
                        pq, d.mul(pq, r), d.mul(p, d.mul(q, r)), d.mul(u, p), d.mul(p, u),
                        d.left_action(p, q), d.right_action(q, p),
                        d.left_action(p, d.right_action(r, q)),
                        d.right_action(r, d.left_action(p, q)),
                    ))
                return out

            def check(st, res, a=m1, b=m2, tr=triples):
                return _triples_ok(a.table, b.table, _binary_carrier(a.size, b.size), tr, res)

            ops.append(Op("binary-triples", run, check))

    # exhaustive binary actions on carriers of at most 64 elements: every
    # base pair below 64 elements and one seeded pair at 64
    limit = 8 if reduced else 64
    for n1 in (1, 2):
        for n2 in (1, 2):
            size = 2 ** (n1 * n2) * n1 * n2
            if size > limit:
                continue
            pairs = [(a, b) for a in monoids[n1] for b in monoids[n2]]
            if size == 64:
                pairs = [rng.choice(pairs)]
            for m1, m2 in pairs:

                def run(st, a=m1, b=m2):
                    d = lr.BinarySchutz(a, b)
                    return _action_violations(d, list(d.carrier()))

                def check(st, r, a=m1, b=m2, pts=pairs_in(size, 8)):
                    elems = _binary_carrier(a.size, b.size)
                    prod = functools.partial(_binary_product, a.table, b.table)
                    return r == 0 and _actions_ok(lr.BinarySchutz(a, b), prod, elems, pts)

                ops.append(Op("binary-actions", run, check))
    return ops


# -- algebra-build ------------------------------------------------------------

BLOCK_SIZES = (1, 2, 3, 4, 5, 5)  # one shuffled 20-language corpus
CORPUS_SUBSETS = 60  # per mode


def algebra_build(seed: int, reduced: bool = False) -> list[Op]:
    rng = random.Random(seed)
    corpus = [lr.regex_to_dfa(r, AB) for r in CORPUS_REGEXES]
    ops: list[Op] = []

    def algebra_op(kind: str, key: str, make, gens_of, semigroup: bool) -> Op:
        def run(st):
            st[key] = make(st)
            return st[key]

        return Op(kind, run, lambda st, r: _check_algebra(r, gens_of(r), semigroup))

    # generate_algebra on seeded subsets of the corpus of 1 to 5
    # languages: each block of six subsets partitions a shuffled corpus,
    # so every language is used equally often
    per_mode = 6 if reduced else CORPUS_SUBSETS
    for semigroup in (False, True):
        subsets = []
        while len(subsets) < per_mode:
            order = rng.sample(range(len(corpus)), len(corpus))
            for size in BLOCK_SIZES:
                subsets.append(order[:size])
                order = order[size:]
        for i, idx in enumerate(subsets[:per_mode]):
            gens = [corpus[j] for j in idx]
            ops.append(algebra_op(
                "corpus-algebra", f"corpus-{int(semigroup)}-{i}",
                lambda st, g=gens, s=semigroup: lr.generate_algebra(g, AB, semigroup=s),
                lambda r, g=gens: g, semigroup,
            ))

    # the algebra recognised by every monoid of size <= 3
    for n in ((1, 2) if reduced else (1, 2, 3)):
        for j, m in enumerate(lr.enumerate_monoids(n)):
            ops.append(algebra_op(
                "recognised-algebra", f"recognised-{n}-{j}",
                lambda st, m=m: lr.recognised_algebra(m, AB),
                lambda r: r.atoms, False,
            ))

    # transport of seeded corpus algebras along seeded letter maps
    for i in range(2 if reduced else 10):
        src = f"corpus-0-{rng.randrange(per_mode)}"
        letter_map = {
            c: "".join(rng.choice("ab") for _ in range(rng.randint(1, 2))) for c in ("a", "b")
        }
        ops.append(algebra_op(
            "transport", f"transport-{i}",
            lambda st, lm=letter_map, s=src: lr.transport(lm, st[s], AB),
            lambda r: r.generators, False,
        ))

    # the schutz_sum ladder B, B+B, (B+B)+trivial: 2, 22 and 561 atoms
    base = lr.regex_to_dfa("a*", AB)
    ops.append(algebra_op("ladder", "ladder-0",
                          lambda st: lr.generate_algebra([base], AB), lambda r: r.generators, False))
    ops.append(algebra_op("ladder", "ladder-1",
                          lambda st: lr.schutz_sum(st["ladder-0"], st["ladder-0"]),
                          lambda r: r.generators, False))
    if not reduced:
        ops.append(algebra_op("ladder", "trivial",
                              lambda st: lr.trivial_algebra(AB), lambda r: r.generators, False))
        ops.append(algebra_op("ladder", "ladder-2",
                              lambda st: lr.schutz_sum(st["ladder-1"], st["trivial"]),
                              lambda r: r.generators, False))
    return ops


# -- algebra-query ------------------------------------------------------------

MAX_QUERY_ATOMS = 512
# the bound ``run_thm10`` passes to its concatenation algebras by default
THM10_MAX_STATES = 20000
# per algebra: assembled members, random candidates, atom_of batches
QUERY_COUNTS = (4, 8, 4)
CANDIDATE_SEED = 0


def algebra_query(seed: int, reduced: bool = False) -> list[Op]:
    rng = random.Random(seed)
    candidate_rng = random.Random(CANDIDATE_SEED)
    ops: list[Op] = []
    # B + B for four one-language algebras: 44, 84, 124 and 241 atoms
    bases = ("a", "(aa)*") if reduced else ("a", "(aa)*", "ab", "a*b*")
    members, candidates, batches = (2, 2, 2) if reduced else QUERY_COUNTS

    # the element languages of local Schutzenberger morphisms, queried
    # for membership in the algebra generated by both factors and their
    # marked concatenations, as the thm10 campaign queries them; three
    # fixed pairs of morphisms with 22, 25 and 30 local elements
    u1 = lr.FiniteMonoid(((0, 1), (1, 1)), identity=0)  # {1, 0}
    z2 = lr.FiniteMonoid(((0, 1), (1, 0)), identity=0)  # the group of order 2
    pairs = [((u1, (0, 1)), (u1, (0, 1))), ((u1, (0, 1)), (u1, (1, 0))), ((z2, (0, 1)), (u1, (0, 1)))]
    for i, ((m1, im1), (m2, im2)) in enumerate(pairs[:1] if reduced else pairs):
        phi1, phi2 = lr.MonoidMorphism(AB, m1, im1), lr.MonoidMorphism(AB, m2, im2)
        loc_key, alg_key = f"local-{i}", f"local-algebra-{i}"

        def build_local(st, p1=phi1, p2=phi2, k=loc_key):
            st[k] = lr.local_schutz_morphism(p1, p2)
            return st[k]

        def build_concat_algebra(st, p1=phi1, p2=phi2, k=alg_key):
            st[k] = campaigns._generated_concat_algebra(p1, p2, max_states=THM10_MAX_STATES)
            return st[k]

        def element_queries(st, loc=loc_key, alg=alg_key):
            local, algebra = st[loc], st[alg]
            return [algebra.member(local.language_of(lambda f, e=e: f == e)) for e in local.elements()]

        def queries_ok(st, r, loc=loc_key, alg=alg_key):
            local, algebra = st[loc], st[alg]
            langs = [local.language_of(lambda f, e=e: f == e) for e in local.elements()]
            size = _closure_size(algebra.generators, algebra.semigroup)
            return r == [_member_truth(algebra, lang, size) for lang in langs]

        ops.append(Op("local-morphism", build_local,
                      lambda st, r, p1=phi1, p2=phi2: _local_ok(r, p1, p2)))
        ops.append(Op("concat-algebra", build_concat_algebra,
                      lambda st, r: _check_algebra(r, r.generators, False)))
        ops.append(Op("element-members", element_queries, queries_ok))

    for name in bases:
        gen = lr.regex_to_dfa(name, AB)
        b_key, q_key = f"B({name})", f"Q({name})"

        def build_base(st, g=gen, k=b_key):
            st[k] = lr.generate_algebra([g], AB)
            return st[k]

        def build_sum(st, b=b_key, k=q_key):
            st[k] = lr.schutz_sum(st[b], st[b])
            return st[k]

        for build in (build_base, build_sum):
            ops.append(Op("build", build, lambda st, r: _check_algebra(r, r.generators, False)))

        # members assembled from seeded atom subsets saturate to the subset
        for i in range(members):
            mask = [rng.random() < 0.5 for _ in range(MAX_QUERY_ATOMS)]
            m_key = f"{q_key}-member-{i}"

            def assemble(st, q=q_key, mask=mask, k=m_key):
                alg = st[q]
                st[k] = alg.member_from_atoms(i for i in range(len(alg.atoms)) if mask[i])
                return st[k]

            def assembled_ok(st, r, q=q_key, mask=mask):
                return all(r.accepts(w) == mask[a] for w, a in _word_atoms(st[q]))

            ops.append(Op("member-from-atoms", assemble, assembled_ok))
            ops.append(Op(
                "saturation",
                lambda st, q=q_key, k=m_key: st[q].saturation(st[k]),
                lambda st, r, q=q_key, mask=mask: r == frozenset(
                    i for i in range(len(st[q].atoms)) if mask[i]),
            ))

        # random minimal 6-state automata: non-members, nearly always.  A
        # refusal stops at the first atom the candidate splits, so its cost
        # varies with the candidate far more than that of any other query;
        # these come from a fixed seed, the same for every run seed.
        for i in range(candidates):
            cand = _random_dfa(candidate_rng, 6)

            def saturated_ok(st, r, q=q_key, cand=cand):
                alg = st[q]
                word_atoms = _word_atoms(alg)
                if r is None:
                    # two short words in one atom, one in the candidate and
                    # one not, refute membership; else ask the closure
                    seen: dict = {}
                    for w, a in word_atoms:
                        seen.setdefault(a, set()).add(cand.accepts(w))
                    if any(len(v) == 2 for v in seen.values()):
                        return True
                    return not _member_truth(alg, cand)
                return (all(cand.accepts(w) == (a in r) for w, a in word_atoms)
                        and _member_truth(alg, cand))

            ops.append(Op("saturation", lambda st, q=q_key, c=cand: st[q].saturation(c), saturated_ok))

        # atom_of on batches of seeded words
        for _ in range(batches):
            batch = [tuple(rng.randrange(2) for _ in range(rng.randint(0, 10))) for _ in range(25)]
            ops.append(Op(
                "atom-of",
                lambda st, q=q_key, ws=batch: [st[q].atom_of(w) for w in ws],
                lambda st, r, q=q_key, ws=batch: r == [
                    _single(_atoms_accepting(st[q], w)) for w in ws],
            ))

        # the sum contains its operand, and is strictly finer than it
        ops.append(Op("leq", lambda st, b=b_key, q=q_key: lr.algebra_leq(st[b], st[q]),
                      lambda st, r: r is True))
        ops.append(Op("leq", lambda st, b=b_key, q=q_key: lr.algebra_leq(st[q], st[b]),
                      lambda st, r: r is False))

        # the dual recogniser, below 100 atoms (its cost grows as atoms^3)
        if name in ("a", "(aa)*"):
            pairs = [
                (tuple(rng.randrange(2) for _ in range(rng.randint(0, 6))),
                 tuple(rng.randrange(2) for _ in range(rng.randint(0, 6))))
                for _ in range(20)
            ]

            def dual_ok(st, d, q=q_key, pairs=pairs):
                alg = st[q]
                table = d.monoid.table
                for u, v in pairs:
                    au, av = _single(_atoms_accepting(alg, u)), _single(_atoms_accepting(alg, v))
                    if table[au][av] != _single(_atoms_accepting(alg, u + v)):
                        return False
                    if d.tau.evaluate(u) != au:
                        return False
                return True

            ops.append(Op("dual-recogniser", lambda st, q=q_key: lr.dual_recogniser(st[q]), dual_ok))
    return ops


def _word_atoms(alg, max_len: int = 6) -> list:
    """(word, atom) for every word up to ``max_len``, by scanning the atoms."""
    return [(w, _single(_atoms_accepting(alg, w))) for w in _words(alg.alphabet, max_len, False)]


def _local_ok(local, phi1, phi2, max_len: int = 5) -> bool:
    """The local morphism sends w to ((S_a)_a, phi1(w), phi2(w)), where S_a
    holds (phi1(u), phi2(v)) for every factorisation w = u a v."""
    for w in AB.tuples_upto(max_len):
        splits = tuple(
            frozenset((phi1.evaluate(w[:i]), phi2.evaluate(w[i + 1:]))
                      for i in range(len(w)) if w[i] == a)
            for a in range(len(AB))
        )
        if local.evaluate(w) != (splits, phi1.evaluate(w), phi2.evaluate(w)):
            return False
    return True


def _random_dfa(rng: random.Random, states: int):
    """The language of a random complete automaton over {a, b} that is
    minimal with ``states`` states (drawn again until it is)."""
    while True:
        d = lr.Dfa.from_json_dict({
            "alphabet": list(AB.letters),
            "states": states,
            "initial": 0,
            "accepting": [q for q in range(states) if rng.random() < 0.5],
            "transitions": [[rng.randrange(states) for _ in AB.letters] for _ in range(states)],
        })
        if d.states == states:
            return d


def _single(found: list[int]) -> int:
    """The only atom accepting a word.  Raises when atoms overlap or miss
    it, so that the check calling it counts the operation as failed."""
    if len(found) != 1:
        raise ValueError(f"{len(found)} atoms accept the word")
    return found[0]


# -- equations ----------------------------------------------------------------

def draw_order(pool: list[dict], seed: int) -> list[dict]:
    """Every draw of the pool, in an order drawn from the seed.  The set
    of draws is the same for every seed: a seed-chosen subset would move
    ``op_p50_ms``, which falls between the slowest constructions of B and
    the quickest verdicts."""
    draws = list(pool)
    random.Random(seed).shuffle(draws)
    return draws


def equations(seed: int, reduced: bool = False) -> list[Op]:
    pool = json.loads(DRAWS_FILE.read_text(encoding="utf-8"))
    draws = draw_order(pool, seed)
    if reduced:
        draws = [d for d in draws if d["joint"] <= 30][:8]
    ops: list[Op] = []
    for d in draws:
        alph = lr.Alphabet(tuple(d["letters"]))
        gens = [lr.regex_to_dfa(g, alph) for g in d["generators"]]
        cand = lr.regex_to_dfa(d["candidate"], alph)
        key = f"draw-{d['draw']}"

        def build(st, g=gens, a=alph, k=key):
            st[k] = lr.generate_algebra(g, a)
            return st[k]

        ops.append(Op("algebra", build,
                      lambda st, r, g=gens: _check_algebra(r, g, False, 4)))
        # the verdict of the direct closure oracle is stored with the draw
        ops.append(Op("verdict", lambda st, k=key, c=cand: lr.bsum2_membership_by_equations(c, st[k]),
                      lambda st, r, direct=d["direct"]: r is direct))
    return ops


WORKLOADS: dict[str, Callable[[int, bool], list[Op]]] = {
    "products": products,
    "algebra-build": algebra_build,
    "algebra-query": algebra_query,
    "equations": equations,
}
