"""Seeded verification campaigns.

Each campaign exercises one theorem-level claim on exhaustively
enumerated or seeded instances and returns a deterministic report:
identical (campaign, bounds, seed) gives an identical report, byte for
byte once serialised.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

from .algebra import (
    LanguageAlgebra,
    _literal_sum,
    algebra_leq,
    check_dual_well_defined,
    generate_algebra,
    recognised_algebra,
)
from .errors import InputError, ResourceLimitError
from .languages import (
    DEFAULT_CLOSURE,
    Alphabet,
    Dfa,
    Word,
    closure_ceiling,
    concat,
    concat_decompose,
    left_quotient,
    marked_concat,
    right_quotient,
    same_language,
    union,
    universal_language,
)
from .marking import ExtendedAlphabet, exists_projection
from .monoids import (
    FiniteMonoid,
    MonoidMorphism,
    _light_defect,
    all_morphisms,
    enumerate_monoids,
    enumerate_semigroups,
    morphism_preserves_actions,
    regular_biaction,
)
from .regexes import (
    Complement,
    Concat,
    Empty,
    Epsilon,
    Intersect,
    Letter,
    Regex,
    Star,
    Union,
    _children,
    regex_to_dfa,
)
from .schutz import (
    _MATERIALISE_CARRIER_LIMIT,
    BinarySchutz,
    HitClopen,
    UnarySchutz,
    exists_closure,
    exists_language,
    exists_profile,
    local_schutz_morphism,
    split_closure,
    split_language,
)
from . import equations as eq

AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))

# Shared 20-language corpus over {a, b}.
CORPUS_REGEXES: tuple[str, ...] = (
    "∅",
    "ε",
    "~∅",
    "a",
    "b",
    "ab",
    "a*",
    "b*",
    "a(a|b)*",
    "(a|b)*a",
    "(a|b)*a(a|b)*",
    "(a|b)*ab(a|b)*",
    "(ab)*",
    "(aa)*",
    "a*b*",
    "(b*ab*a)*b*",
    "~((a|b)*bb(a|b)*)",
    "a|bb",
    "(a|b)b*",
    "b(a|b)*b|a",
)


def corpus_dfas(alph: Alphabet = AB) -> list[Dfa]:
    return [regex_to_dfa(r, alph) for r in CORPUS_REGEXES]


# -- reports ----------------------------------------------------------------


@dataclass
class Report:
    theorem: str
    seed: int
    bounds: dict
    instances: list[dict] = field(default_factory=list)

    def summary(self) -> dict:
        passed = sum(1 for r in self.instances if r.get("status") == "pass")
        failed = sum(1 for r in self.instances if r.get("status") == "fail")
        skipped = sum(1 for r in self.instances if r.get("status") == "skip")
        return {
            "theorem": self.theorem,
            "seed": self.seed,
            "bounds": self.bounds,
            "total": len(self.instances),
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
            "ok": failed == 0,
        }

    @property
    def ok(self) -> bool:
        return self.summary()["ok"]

    def add(self, **record) -> None:
        record.setdefault("id", f"{self.theorem}-{len(self.instances):04d}")
        self.instances.append(record)

    def json_lines(self) -> str:
        lines = [
            json.dumps(r, ensure_ascii=False, sort_keys=True)
            for r in sorted(self.instances, key=lambda r: r["id"])
        ]
        lines.append(
            json.dumps({"summary": self.summary()}, ensure_ascii=False, sort_keys=True)
        )
        return "\n".join(lines) + "\n"

    def pretty(self) -> str:
        out = []
        for r in sorted(self.instances, key=lambda r: r["id"]):
            status = r.get("status", "?").upper()
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(r.items()) if k not in ("id", "status")
            )
            out.append(f"{r['id']}: {status}  {detail}")
        s = self.summary()
        out.append(
            f"{self.theorem}: {s['passed']} passed, {s['failed']} failed, "
            f"{s['skipped']} skipped -> {'OK' if s['ok'] else 'FAIL'}"
        )
        return "\n".join(out) + "\n"


# -- random instances --------------------------------------------------------


def random_word(rng: random.Random, alph: Alphabet, max_len: int, min_len: int = 0) -> Word:
    n = rng.randint(min_len, max_len)
    return Word(alph, tuple(rng.randrange(len(alph)) for _ in range(n)))


def random_regex(rng: random.Random, alph: Alphabet, depth: int = 4) -> Regex:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.70:
            return Letter(rng.choice(alph.letters))
        if roll < 0.85:
            return Epsilon()
        return Empty()
    roll = rng.random()
    if roll < 0.30:
        return Letter(rng.choice(alph.letters))
    if roll < 0.50:
        return Union((random_regex(rng, alph, depth - 1), random_regex(rng, alph, depth - 1)))
    if roll < 0.75:
        return Concat((random_regex(rng, alph, depth - 1), random_regex(rng, alph, depth - 1)))
    if roll < 0.88:
        return Star(random_regex(rng, alph, depth - 1))
    if roll < 0.94:
        return Complement(random_regex(rng, alph, max(depth - 2, 0)))
    if roll < 0.97:
        return Intersect((random_regex(rng, alph, depth - 1), random_regex(rng, alph, depth - 1)))
    return Epsilon()


# meaning-preserving rewrites for the canonicity campaign


def _rw_self_union(x: Regex) -> Regex:
    return Union((x, x))


def _rw_double_complement(x: Regex) -> Regex:
    return Complement(Complement(x))


def _rw_eps_right(x: Regex) -> Regex:
    return Concat((x, Epsilon()))


def _rw_eps_left(x: Regex) -> Regex:
    return Concat((Epsilon(), x))


def _rw_empty_union(x: Regex) -> Regex:
    return Union((x, Empty()))


def _rw_commute_union(x: Regex) -> Regex:
    if isinstance(x, Union):
        return Union(tuple(reversed(x.parts)))
    return Union((Empty(), x))


def _rw_unfold_star(x: Regex) -> Regex:
    if isinstance(x, Star):
        return Union((Epsilon(), Concat((x.inner, x))))
    return Concat((Epsilon(), x))


def _rw_de_morgan(x: Regex) -> Regex:
    if isinstance(x, Union):
        return Complement(Intersect(tuple(Complement(p) for p in x.parts)))
    if isinstance(x, Intersect):
        return Complement(Union(tuple(Complement(p) for p in x.parts)))
    return Complement(Complement(x))


def _rw_reassociate(x: Regex) -> Regex:
    if isinstance(x, Concat) and len(x.parts) >= 2:
        return Concat((Concat(x.parts[:1]), Concat(x.parts[1:])))
    return Concat((Epsilon(), x, Epsilon()))


_REWRITES: tuple[Callable[[Regex], Regex], ...] = (
    _rw_self_union,
    _rw_double_complement,
    _rw_eps_right,
    _rw_eps_left,
    _rw_empty_union,
    _rw_commute_union,
    _rw_unfold_star,
    _rw_de_morgan,
    _rw_reassociate,
)


def _subterm_count(r: Regex) -> int:
    return 1 + sum(map(_subterm_count, _children(r)))


def _rewrite_at(r: Regex, target: int, rule: Callable[[Regex], Regex], counter: list[int]) -> Regex:
    here = counter[0]
    counter[0] += 1
    if isinstance(r, (Concat, Union, Intersect)):
        r = type(r)(tuple(_rewrite_at(p, target, rule, counter) for p in r.parts))
    elif isinstance(r, (Complement, Star)):
        r = type(r)(_rewrite_at(r.inner, target, rule, counter))
    return rule(r) if here == target else r


def equivalent_variant(rng: random.Random, r: Regex, steps: int = 3) -> Regex:
    """Apply meaning-preserving rewrites at random positions."""
    out = r
    for _ in range(steps):
        target = rng.randrange(_subterm_count(out))
        rule = rng.choice(_REWRITES)
        out = _rewrite_at(out, target, rule, [0])
    return out


# -- prop2: unary product recognises existential projection ------------------


def run_prop2(seed: int = 0, samples: int = 50, max_monoid: int = 3, max_len: int = 4) -> Report:
    rep = Report("prop2", seed, {"samples": samples, "max_monoid": max_monoid, "max_len": max_len})
    rng = random.Random(seed)
    monoid_pool = [m for n in range(1, max_monoid + 1) for m in enumerate_monoids(n)]
    alph_pool = [A1, AB]
    for _ in range(samples):
        alph = rng.choice(alph_pool)
        ext = ExtendedAlphabet(alph)
        m = rng.choice(monoid_pool)
        images = tuple(rng.randrange(m.size) for _ in range(len(ext.ext)))
        accept = frozenset(x for x in range(m.size) if rng.random() < 0.5)
        tau = MonoidMorphism(ext.ext, m, images)
        marked_lang = tau.preimage(accept)
        via_projection = exists_projection(marked_lang)
        via_product = exists_language(tau, accept)
        ok = via_product == via_projection
        if ok:
            # commuting square: the product-valued morphism sends each word
            # to its profile, the marked evaluations and the plain one
            closure = exists_closure(tau)
            for t in alph.tuples_upto(max_len):
                if closure.elements[closure.quotient(alph).class_of(t)] != exists_profile(tau, t):
                    ok = False
                    break
        rep.add(
            alphabet=list(alph.letters),
            monoid_size=m.size,
            images=list(images),
            accept=sorted(accept),
            language_states=via_projection.states,
            status="pass" if ok else "fail",
        )
    return rep


# -- laws of the products (acceptance criterion 2) -----------------------------


def _written_product(bases: tuple[FiniteMonoid, ...], p: tuple, q: tuple) -> tuple:
    """p * q over frozensets, apart from the products' memos: the first
    base acts on the left of q's points, the last on the right of p's."""
    (s, *c), (t, *d) = p, q
    left, right = bases[0].table[c[0]], [row[d[-1]] for row in bases[-1].table]
    if len(bases) == 1:
        points = {left[z] for z in t} | {right[z] for z in s}
    else:
        points = {(left[u], v) for u, v in t} | {(u, right[v]) for u, v in s}
    return (frozenset(points), *(b.table[x][y] for b, x, y in zip(bases, c, d)))


def _biaction_ok(d: UnarySchutz | BinarySchutz) -> bool:
    """Multiplication and both point actions equal the product written
    out over frozensets, and the two actions commute."""
    bases = (d.base,) if isinstance(d, UnarySchutz) else (d.left_base, d.right_base)
    elems = list(d.carrier())
    return all(
        d.mul(p, x) == d.left_action(p, x) == _written_product(bases, p, x)
        and d.right_action(p, x) == _written_product(bases, x, p)
        for p in elems
        for x in elems
    ) and all(
        d.left_action(p, d.right_action(q, x)) == d.right_action(q, d.left_action(p, x))
        for p in elems
        for q in elems
        for x in elems
    )


def _table_laws(m: FiniteMonoid) -> bool:
    """Associativity, by Light's test, and the unit laws of a product's
    table, which the package builds without checking them."""
    t, e = m.table, m.identity
    with closure_ceiling(m.size ** 2):  # at most n rows per generator
        associative = _light_defect(t) is None
    return associative and (e is None or all(t[e][x] == x == t[x][e] for x in m.elements()))


def run_laws(seed: int = 0, binary_sample_triples: int = 2000) -> Report:
    rep = Report("laws", seed, {"binary_sample_triples": binary_sample_triples})
    rng = random.Random(seed)
    monoids = {n: list(enumerate_monoids(n)) for n in (1, 2, 3)}
    semigroups = {n: list(enumerate_semigroups(n)) for n in (1, 2, 3)}

    # unary products: full table laws for every base of size <= 3
    # (``_table_laws`` checks associativity and the unit), mul as written
    for kind, pool in (("monoid", monoids), ("semigroup", semigroups)):
        for n, bases in pool.items():
            ok = True
            for base in bases:
                d = UnarySchutz(base)
                mfm, elems = d.as_finite_monoid()
                expected = (2**n - (1 if kind == "semigroup" else 0)) * n
                if mfm.size != d.size or d.size != expected or not _table_laws(mfm):
                    ok = False
                    continue
                if any(d.mul(p, q) != _written_product((base,), p, q)
                       for p in elems for q in elems):
                    ok = False
            rep.add(check="unary-laws", kind=kind, base_size=n, bases=len(bases),
                    status="pass" if ok else "fail")

    # unary products: mul and both actions as written, commuting (bases <= 2)
    for kind, pool in (("monoid", monoids), ("semigroup", semigroups)):
        for n in (1, 2):
            ok = all(_biaction_ok(UnarySchutz(base)) for base in pool[n])
            rep.add(check="unary-biaction", kind=kind, base_size=n,
                    status="pass" if ok else "fail")

    # binary products: full table laws while the carrier is materialisable,
    # seeded triples beyond that; three seeded base pairs per size pair
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            pairs = [(rng.choice(monoids[n1]), rng.choice(monoids[n2])) for _ in range(3)]
            ok = True
            mode = "exhaustive"
            for m1, m2 in pairs:
                d = BinarySchutz(m1, m2)
                if d.size <= _MATERIALISE_CARRIER_LIMIT:
                    mfm, _ = d.as_finite_monoid()
                    if mfm.size != d.size or not _table_laws(mfm):
                        ok = False
                else:
                    mode = "sampled"
                    elems = list(d.carrier())
                    unit = d.unit()
                    for _ in range(binary_sample_triples):
                        p, q, r = (rng.choice(elems) for _ in range(3))
                        if d.mul(d.mul(p, q), r) != d.mul(p, d.mul(q, r)):
                            ok = False
                        if d.mul(unit, p) != p or d.mul(p, unit) != p:
                            ok = False
            rep.add(check="binary-laws", sizes=[n1, n2], mode=mode,
                    status="pass" if ok else "fail")

    # binary products: mul and both actions as written, commuting (bases <= 2)
    for n1 in (1, 2):
        for n2 in (1, 2):
            ok = all(
                _biaction_ok(BinarySchutz(m1, m2)) for m1 in monoids[n1] for m2 in monoids[n2]
            )
            rep.add(check="binary-biaction", sizes=[n1, n2],
                    status="pass" if ok else "fail")
    return rep


# -- thm4: languages of the unary product, semigroup mode ----------------------


def _thm4_instance(s: FiniteMonoid, max_size: int) -> bool:
    """The algebra of the unary product equals the one generated by the
    base algebra together with existential projections of the
    doubled-alphabet languages the base recognises.

    The projected generators must be the single-morphism preimages:
    existential projection distributes over unions but not over
    intersections, so projecting the joint-refinement atoms instead
    would generate a strictly finer (wrong) algebra.  Singleton
    accepting sets suffice on the unprojected side because a preimage
    of any set is a union of singleton preimages.
    """
    alph = AB
    ext = ExtendedAlphabet(alph)
    diamond, _ = UnarySchutz(s).as_finite_monoid()
    with closure_ceiling(max_size):
        lhs = recognised_algebra(diamond, alph, semigroup=True)
        base_alg = recognised_algebra(s, alph, semigroup=True)
    projected = [exists_projection(h.preimage({m}))
                 for h in all_morphisms(ext.ext, s) for m in range(s.size)]
    gens = list(dict.fromkeys(base_alg.atoms + tuple(projected)))
    with closure_ceiling(max_size):
        rhs = generate_algebra(gens, alph, semigroup=True)
    return lhs == rhs


def _thm4_record(s: FiniteMonoid, limit_status: str, max_size: int) -> dict:
    """One thm4 instance; a resource limit gives ``limit_status`` with the
    limit's message."""
    record = {"size": s.size, "table": [list(r) for r in s.table]}
    try:
        ok = _thm4_instance(s, max_size)
    except ResourceLimitError as exc:
        return {**record, "status": limit_status, "reason": str(exc)}
    return {**record, "status": "pass" if ok else "fail"}


def run_thm4(seed: int = 0, size3_samples: int = 10, max_size: int = 6000) -> Report:
    """Every semigroup of size 1 and 2 is required, so a resource limit
    fails it; a size-3 draw that hits a limit is skipped and replaced."""
    rep = Report("thm4", seed, {"size3_samples": size3_samples, "max_size": max_size})
    for n in (1, 2):
        for s in enumerate_semigroups(n):
            rep.add(**_thm4_record(s, "fail", max_size))
    rng = random.Random(seed)
    pool = list(enumerate_semigroups(3))
    rng.shuffle(pool)
    done = 0
    for s in pool:
        if done >= size3_samples:
            break
        record = _thm4_record(s, "skip", max_size)
        rep.add(**record)
        done += record["status"] != "skip"
    if done < size3_samples:
        rep.add(status="fail", reason=f"only {done} size-3 instances fit the bounds")
    return rep


# -- thm8 / thm10 / cor9: binary product and concatenation ---------------------


def _sample_pair(rng: random.Random, max_monoid: int) -> tuple[MonoidMorphism, MonoidMorphism]:
    pool = [m for n in range(1, max_monoid + 1) for m in enumerate_monoids(n)]
    m1, m2 = rng.choice(pool), rng.choice(pool)
    phi1 = MonoidMorphism(AB, m1, tuple(rng.randrange(m1.size) for _ in range(2)))
    phi2 = MonoidMorphism(AB, m2, tuple(rng.randrange(m2.size) for _ in range(2)))
    return phi1, phi2


def _all_subsets(n: int) -> list[frozenset[int]]:
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]


def _pair_campaign(rep: Report, pairs: int, max_monoid: int, check: Callable[..., str]) -> Report:
    """Run ``check(phi1, phi2, record, rng)`` on seeded morphism pairs.  It
    fills its own fields of the record and returns the detail of its last
    failure, or "".  A resource limit fails the instance with the limit's
    message, and the record keeps the fields as they were when the limit
    was hit."""
    rng = random.Random(rep.seed)
    for _ in range(pairs):
        phi1, phi2 = _sample_pair(rng, max_monoid)
        record: dict = {}
        try:
            detail = check(phi1, phi2, record, rng)
        except ResourceLimitError as exc:
            detail = str(exc)
        rep.add(m=phi1.target.size, n=phi2.target.size,
                images1=list(phi1.letter_images), images2=list(phi2.letter_images),
                **record, status="fail" if detail else "pass", detail=detail)
    return rep


def run_thm8(seed: int = 0, pairs: int = 20, max_monoid: int = 3) -> Report:
    """Global form: one split component recognises the marked
    concatenation through a hit clopen, and both factors through the
    base components."""

    def check(phi1, phi2, record, rng) -> str:
        detail = ""
        for c in range(len(AB)):
            clo = split_closure(phi1, phi2, c)
            for v1 in _all_subsets(phi1.target.size):
                l1 = phi1.preimage(v1)
                got1 = clo.language(AB, lambda e: e[1] in v1)
                if got1 != l1:
                    detail = "factor-1 recognition mismatch"
                for v2 in _all_subsets(phi2.target.size):
                    l2 = phi2.preimage(v2)
                    clopen = HitClopen("hit", frozenset((x, y) for x in v1 for y in v2))
                    got = clo.language(AB, lambda e: clopen.contains(e[0]))
                    if got != marked_concat(l1, c, l2):
                        detail = f"marked concatenation mismatch at letter {AB.letters[c]}"
            for v2 in _all_subsets(phi2.target.size):
                got2 = clo.language(AB, lambda e: e[2] in v2)
                if got2 != phi2.preimage(v2):
                    detail = "factor-2 recognition mismatch"
        return detail

    rep = Report("thm8", seed, {"pairs": pairs, "max_monoid": max_monoid})
    return _pair_campaign(rep, pairs, max_monoid, check)


def _image_algebra(phi: MonoidMorphism) -> LanguageAlgebra:
    """The algebra of phi's preimages: the Cayley graph of phi's image,
    whose atoms, the preimages of single elements, generate it."""
    img = phi.image
    return LanguageAlgebra(phi.alphabet, img.semigroup, img.transitions, attrgetter("atoms"))


def _generated_concat_algebra(
    phi1: MonoidMorphism, phi2: MonoidMorphism, *, max_states: int | None = None
) -> LanguageAlgebra:
    """Algebra generated by both factor families and all their marked
    concatenations: the literal sum of the factors' algebras.  Their
    atoms suffice because preimages and marked concatenation distribute
    over unions, and an element outside an image has an empty preimage.
    ``max_states``, when given, is the ceiling of all of its closures."""
    with closure_ceiling(max_states):
        return _literal_sum(_image_algebra(phi1), _image_algebra(phi2))


def run_thm10(seed: int = 0, pairs: int = 20, max_monoid: int = 3) -> Report:
    """Local form: the product-of-splits morphism recognises exactly the
    algebra generated by the factors and their marked concatenations:
    each generator is cut out by its predicate on elements, and the
    morphism's Cayley graph, as a finite quotient, refines the atoms."""

    def check(phi1, phi2, record, rng) -> str:
        detail = ""
        record["elements"] = 0
        loc = local_schutz_morphism(phi1, phi2)
        elements = loc.elements()
        record["elements"] = len(elements)
        alg = _generated_concat_algebra(phi1, phi2)
        local = loc.closure.quotient(AB)

        def recognised(l: Dfa, accept: Callable[[tuple], bool]) -> bool:
            return local.saturation(l) == {i for i, e in enumerate(elements) if accept(e)}

        for x in range(phi1.target.size):
            if not recognised(phi1.preimage({x}), lambda e: e[1] == x):
                detail = "factor-1 generator not recognised"
        for y in range(phi2.target.size):
            if not recognised(phi2.preimage({y}), lambda e: e[2] == y):
                detail = "factor-2 generator not recognised"
        for c in range(len(AB)):
            for x in range(phi1.target.size):
                l1 = phi1.preimage({x})
                for y in range(phi2.target.size):
                    expect = marked_concat(l1, c, phi2.preimage({y}))
                    if not recognised(expect, lambda e: (x, y) in e[0][c]):
                        detail = "marked generator not recognised"
        if not algebra_leq(local, alg):
            detail = "recognised language outside the generated algebra"
        return detail

    rep = Report("thm10", seed, {"pairs": pairs, "max_monoid": max_monoid})
    return _pair_campaign(rep, pairs, max_monoid, check)


def run_cor9(seed: int = 0, pairs: int = 20, max_monoid: int = 3,
             subset_samples: int = 4) -> Report:
    """Concatenation through the binary product: the decomposition into
    marked concatenations equals the classical construction and is
    recognised by the product-of-splits morphism."""

    def check(phi1, phi2, record, rng) -> str:
        detail = ""
        record["corrections"] = 0
        loc = local_schutz_morphism(phi1, phi2)
        for _ in range(subset_samples):
            v1 = frozenset(x for x in range(phi1.target.size) if rng.random() < 0.5)
            v2 = frozenset(y for y in range(phi2.target.size) if rng.random() < 0.5)
            l1, l2 = phi1.preimage(v1), phi2.preimage(v2)
            classical = concat(l1, l2)
            decomposed = concat_decompose(l1, l2)
            if decomposed != classical:
                detail = "decomposition disagrees with classical concatenation"
            eps_in_l2 = l2.accepts(())
            if eps_in_l2:
                record["corrections"] += 1
                # the uncorrected identity misses exactly the words of
                # L1 paired with the empty suffix
                verbatim = concat_decompose(l1, l2, verbatim=True)
                if union(verbatim, l1) != classical:
                    detail = "verbatim identity off by more than the empty-suffix words"
            quotient_targets = [
                frozenset(
                    y for y in range(phi2.target.size)
                    if phi2.target.table[phi2.letter_images[c]][y] in v2
                )
                for c in range(len(AB))
            ]
            # each decomposition piece L1 a (a^-1 L2) is recognised by a
            # single morphism into the binary product; their union (plus
            # the corrected piece) is the concatenation
            assembled = l1 if eps_in_l2 else None
            for c in range(len(AB)):
                piece = split_language(phi1, phi2, c, v1, quotient_targets[c])
                expected_piece = marked_concat(l1, c, left_quotient((c,), l2))
                if piece != expected_piece:
                    detail = "decomposition piece not recognised by the product"
                assembled = piece if assembled is None else union(assembled, piece)
            if assembled != classical:
                detail = "assembled pieces disagree with classical concatenation"

            def accept(e) -> bool:
                for c in range(len(AB)):
                    if any(
                        x in v1 and y in quotient_targets[c] for x, y in e[0][c]
                    ):
                        return True
                return eps_in_l2 and e[1] in v1

            if loc.language_of(accept) != classical:
                detail = "concatenation not recognised by the local morphism"
        return detail

    rep = Report("cor9", seed, {"pairs": pairs, "max_monoid": max_monoid,
                                "subset_samples": subset_samples})
    return _pair_campaign(rep, pairs, max_monoid, check)


# -- thm11: equation set against direct closure --------------------------------


_THM11_B_POOL: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (("a",), ()),
    (("a",), ("(aa)*",)),
    (("a",), ("aa*",)),
    (("a",), ("a",)),
    (("a", "b"), ()),
    (("a", "b"), ("(a|b)*a(a|b)*",)),
    (("a", "b"), ("a(a|b)*",)),
    (("a", "b"), ("b*",)),
    (("a", "b"), ("(a|b)*a",)),
)

_THM11_K_POOL: dict[tuple[str, ...], tuple[str, ...]] = {
    ("a",): ("∅", "ε", "a", "aa*", "(aa)*", "~∅", "aaa*", "a|aa"),
    ("a", "b"): (
        "∅", "ε", "~∅", "a", "b", "ab", "aa*",
        "a(a|b)*", "(a|b)*a", "(a|b)*a(a|b)*", "(a|b)*b(a|b)*",
        "b*", "(a|b)*ab(a|b)*", "(ab)*", "a*", "(a|b)b*",
    ),
}


# draws per kept instance before ``run_thm11`` gives up
_THM11_ATTEMPTS_PER_INSTANCE = 200


def run_thm11(seed: int = 0, instances: int = 100, max_joint: int = 6) -> Report:
    rep = Report("thm11", seed, {"instances": instances, "max_joint": max_joint})
    rng = random.Random(seed)
    done = 0
    attempts = 0
    skipped = 0
    while done < instances and attempts < instances * _THM11_ATTEMPTS_PER_INSTANCE:
        attempts += 1
        letters, gens = _THM11_B_POOL[rng.randrange(len(_THM11_B_POOL))]
        alph = Alphabet(letters)
        k_regex = rng.choice(_THM11_K_POOL[letters])
        try:
            b = generate_algebra([regex_to_dfa(g, alph) for g in gens], alph)
            k = regex_to_dfa(k_regex, alph)
            with closure_ceiling(max_joint):
                joint, sides = eq._joint_closure(k, b)
        except ResourceLimitError:
            skipped += 1
            continue
        # the decisions of bsum2_membership_direct, _by_equations and
        # separation_witness, on this draw's one quotient and one sum
        total = eq._trivial_sum(b)
        direct = total.member(k)
        by_equations = eq._equations_hold(joint, sides, b)
        agree = direct == by_equations
        witness = None
        if not direct:
            pair = eq._split_words(k, total)
            if pair is None:
                agree = False
            else:
                u, v = pair
                valid = (
                    k.accepts(u) and not k.accepts(v)
                    and total.atom_of(u) == total.atom_of(v)
                )
                witness = [u.text(), v.text()]
                if not valid:
                    agree = False
        rep.add(
            alphabet=list(letters),
            algebra=list(gens),
            candidate=k_regex,
            joint_size=len(joint.elements),
            direct_membership=direct,
            equation_membership=by_equations,
            agree=agree,
            witness=witness,
            status="pass" if agree else "fail",
        )
        done += 1
    rep.bounds["skipped_draws"] = skipped
    if done < instances:
        rep.add(status="fail", reason=f"only {done} instances within the joint bound")
    return rep


# -- lemmas ---------------------------------------------------------------------


def run_lemmas(seed: int = 0, max_len: int = 5, witness_samples: int = 100) -> Report:
    rep = Report("lemmas", seed, {"max_len": max_len, "witness_samples": witness_samples})
    rng = random.Random(seed)

    # morphisms of recognisers preserve the biactions: the second
    # projection of the unary product, for every base of size <= 3
    ok = True
    for n in (1, 2, 3):
        for base in enumerate_monoids(n):
            mfm, elems = UnarySchutz(base).as_finite_monoid()
            carrier_map = tuple(e[1] for e in elems)
            if not morphism_preserves_actions(
                carrier_map, regular_biaction(mfm), regular_biaction(base)
            ):
                ok = False
    rep.add(check="projection-preserves-actions", status="pass" if ok else "fail")

    # dual recognisers: evaluation is a morphism; atom multiplication is
    # representative-independent
    ok = True
    for regexes in ((), ("(a|b)*a(a|b)*",), ("(ab)*",), ("a(a|b)*", "b*")):
        b = generate_algebra([regex_to_dfa(r, AB) for r in regexes], AB)
        if not check_dual_well_defined(b, max_len=3):
            ok = False
    rep.add(check="dual-evaluation-morphism", status="pass" if ok else "fail")

    # a corrupted carrier map must be detected
    base = enumerate_monoids(2)[0]
    mfm, elems = UnarySchutz(base).as_finite_monoid()
    carrier_map = [e[1] for e in elems]
    carrier_map[1] = 1 - carrier_map[1]
    detected = not morphism_preserves_actions(
        tuple(carrier_map), regular_biaction(mfm), regular_biaction(base)
    )
    rep.add(check="corrupted-map-detected", status="pass" if detected else "fail")

    # factorisation lemma at principal ultrafilters, exhaustively
    violations = eq.lemma_factor_violations(corpus_dfas(), max_len=max_len)
    rep.add(check="factorisation-lemma", violations=len(violations),
            status="pass" if not violations else "fail")

    # quasi-inverse lemma, finite form, on seeded (algebra, point, letter)
    ok = True
    pool = [
        generate_algebra([regex_to_dfa(r, AB) for r in gens], AB)
        for gens in ((), ("(a|b)*a(a|b)*",), ("a(a|b)*",), ("b*",))
    ]
    quotients = [
        eq.bsum2_quotient(universal_language(AB), b) for b in pool
    ]
    checked = 0
    for _ in range(witness_samples):
        i = rng.randrange(len(pool))
        b, q = pool[i], quotients[i]
        point = rng.randrange(q.size)
        letter = rng.randrange(len(AB))
        if not eq.lemma_witness_check(q, b, point, letter):
            ok = False
        checked += 1
    rep.add(check="quasi-inverse-lemma", samples=checked, status="pass" if ok else "fail")
    return rep


# -- canonicity and quotient action laws (acceptance criterion 7) ----------------


def run_canonicity(seed: int = 0, samples: int = 1000) -> Report:
    rep = Report("canonicity", seed, {"samples": samples})
    rng = random.Random(seed)
    failures = 0
    for _ in range(samples):
        r1 = random_regex(rng, AB, depth=3)
        r2 = equivalent_variant(rng, r1, steps=rng.randint(1, 3))
        d1 = regex_to_dfa(r1, AB)
        d2 = regex_to_dfa(r2, AB)
        if not same_language(d1, d2) or d1 != d2:
            failures += 1
    rep.add(check="regex-canonicity", samples=samples, failures=failures,
            status="pass" if failures == 0 else "fail")

    failures = 0
    corpus = corpus_dfas()
    for _ in range(samples):
        l = corpus[rng.randrange(len(corpus))]
        v = random_word(rng, AB, 3)
        w = random_word(rng, AB, 3)
        if left_quotient(v + w, l) != left_quotient(w, left_quotient(v, l)):
            failures += 1
        if right_quotient(l, v + w) != right_quotient(right_quotient(l, w), v):
            failures += 1
        if left_quotient(v, right_quotient(l, w)) != right_quotient(left_quotient(v, l), w):
            failures += 1
    rep.add(check="quotient-action-laws", samples=samples, failures=failures,
            status="pass" if failures == 0 else "fail")
    return rep


# -- dispatch --------------------------------------------------------------------


# per campaign: its runner, and the runner parameter each CLI flag sets
_CAMPAIGNS: dict[str, tuple[Callable[..., Report], dict[str, str]]] = {
    "prop2": (run_prop2, {"samples": "samples", "max_size": "max_monoid", "max_len": "max_len"}),
    "thm4": (run_thm4, {"samples": "size3_samples", "max_size": "max_size"}),
    "thm8": (run_thm8, {"samples": "pairs", "max_size": "max_monoid"}),
    "cor9": (run_cor9, {"samples": "pairs", "max_size": "max_monoid"}),
    "thm10": (run_thm10, {"samples": "pairs", "max_size": "max_monoid"}),
    "thm11": (run_thm11, {"samples": "instances", "max_size": "max_joint"}),
    "lemmas": (run_lemmas, {"samples": "witness_samples", "max_len": "max_len"}),
}

# the least value each flag takes
_FLAG_MINIMUM = {"samples": 1, "max_size": 1, "max_len": 0}


def run_campaign(theorem: str, seed: int = 0, **flags: int | None) -> Report:
    """Run one campaign; identical settings give an identical report.  A
    flag left at None keeps the runner's default; a flag the campaign has
    no parameter for, a seed or value that is not an ``int``, or a value
    below the flag's minimum, is refused."""
    if theorem not in _CAMPAIGNS:
        raise InputError(f"unknown campaign {theorem!r}; choose from {sorted(_CAMPAIGNS)}")
    runner, parameters = _CAMPAIGNS[theorem]
    if type(seed) is not int:  # True or 2.5 would be written into the report
        raise InputError(f"--seed must be an integer, got {seed!r}")
    kwargs: dict = {"seed": seed}
    for flag, value in flags.items():
        if value is None:
            continue
        name = f"--{flag.replace('_', '-')}"
        if flag not in parameters:
            raise InputError(f"{name} has no meaning for the {theorem} campaign")
        if type(value) is not int:
            raise InputError(f"{name} must be an integer, got {value!r}")
        if value < _FLAG_MINIMUM[flag]:
            raise InputError(f"{name} must be at least {_FLAG_MINIMUM[flag]}, got {value}")
        kwargs[parameters[flag]] = value
    with closure_ceiling(DEFAULT_CLOSURE):  # no environment ceiling moves a report
        return runner(**kwargs)
