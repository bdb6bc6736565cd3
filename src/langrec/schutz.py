"""Unary and binary Schutzenberger products of finite monoids.

The unary product of M lives on Pfin(M) x M (non-empty subsets only in
semigroup mode) with

    (S, m) * (T, n) = (S.n  u  m.T,  m.n)

and recognises existential projection: if tau recognises a language of
marked words over the doubled alphabet, the letter-generated morphism

    xi(a) = ({tau(a#1)}, tau(a#0))

sends a word w to ({tau of w with position i marked : i < |w|}, tau of
the unmarked w), so a hit-clopen on the first component decides "some
marking lands in the language".

The binary product of (M, N) lives on Pfin(M x N) x M x N and tracks,
through the split maps zeta_a, the pairs (prefix value, suffix value)
at every occurrence of a letter; it recognises marked concatenations
and, through them, concatenation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError, PreconditionError, ResourceLimitError
from .languages import Alphabet, Dfa, Word
from .marking import ExtendedAlphabet, marked_words, tag_marked, tag_unmarked
from .monoids import (
    FiniteMonoid,
    GeneratedClosure,
    MonoidMorphism,
    closure_language,
    generate_closure,
)

_MATERIALISE_BASE_LIMIT = 6  # eager carrier up to 2^6 * 6 elements


def _subsets(universe: Sequence, nonempty: bool) -> Iterator[frozenset]:
    for size in range(0 if not nonempty else 1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


def _set_label(m: FiniteMonoid, s: frozenset[int]) -> str:
    return "{" + ",".join(m.label(x) for x in sorted(s)) + "}"


@dataclass(frozen=True)
class UnarySchutz:
    """The product Pfin(M) x M; elements are (frozenset, element) pairs."""

    base: FiniteMonoid

    @property
    def semigroup(self) -> bool:
        return self.base.is_semigroup

    @property
    def size(self) -> int:
        n = self.base.size
        subsets = 2**n - (1 if self.semigroup else 0)
        return subsets * n

    def unit(self) -> tuple[frozenset, int]:
        if self.semigroup:
            raise PreconditionError("a semigroup-mode product has no unit")
        return (frozenset(), self.base.identity)

    def mul(
        self, p: tuple[frozenset, int], q: tuple[frozenset, int]
    ) -> tuple[frozenset, int]:
        s, m = p
        t, n = q
        table = self.base.table
        first = frozenset(table[x][n] for x in s) | frozenset(table[m][y] for y in t)
        return (first, table[m][n])

    def carrier(self) -> Iterator[tuple[frozenset, int]]:
        """All elements, subsets by size then lex, base element minor."""
        for s in _subsets(range(self.base.size), self.semigroup):
            for m in range(self.base.size):
                yield (s, m)

    # the actions of the product on itself, written out as in the space
    # construction; they must coincide with left/right multiplication
    def left_action(
        self, p: tuple[frozenset, int], x: tuple[frozenset, int]
    ) -> tuple[frozenset, int]:
        s, m = p
        t, y = x
        table = self.base.table
        first = frozenset(table[e][y] for e in s) | frozenset(table[m][z] for z in t)
        return (first, table[m][y])

    def right_action(
        self, p: tuple[frozenset, int], x: tuple[frozenset, int]
    ) -> tuple[frozenset, int]:
        s, m = p
        t, y = x
        table = self.base.table
        first = frozenset(table[y][e] for e in s) | frozenset(table[z][m] for z in t)
        return (first, table[y][m])

    def as_finite_monoid(
        self, max_base: int = _MATERIALISE_BASE_LIMIT
    ) -> tuple[FiniteMonoid, tuple[tuple[frozenset, int], ...]]:
        """Materialised multiplication table with canonical element order."""
        if self.base.size > max_base:
            raise ResourceLimitError(
                f"carrier of size {self.size} exceeds the materialisation bound"
            )
        elems = tuple(self.carrier())
        index = {e: i for i, e in enumerate(elems)}
        table = tuple(
            tuple(index[self.mul(p, q)] for q in elems) for p in elems
        )
        labels = tuple(
            f"({_set_label(self.base, s)},{self.base.label(m)})" for s, m in elems
        )
        identity = index[self.unit()] if not self.semigroup else None
        return FiniteMonoid(table, identity=identity, labels=labels), elems


@dataclass(frozen=True)
class BinarySchutz:
    """The product Pfin(M x N) x M x N; elements are (frozenset of pairs,
    element of M, element of N) triples."""

    left_base: FiniteMonoid
    right_base: FiniteMonoid

    def __post_init__(self) -> None:
        if self.left_base.is_semigroup != self.right_base.is_semigroup:
            raise InputError("bases must both be monoids or both semigroups")

    @property
    def semigroup(self) -> bool:
        return self.left_base.is_semigroup

    @property
    def size(self) -> int:
        pairs = self.left_base.size * self.right_base.size
        subsets = 2**pairs - (1 if self.semigroup else 0)
        return subsets * self.left_base.size * self.right_base.size

    def unit(self) -> tuple[frozenset, int, int]:
        if self.semigroup:
            raise PreconditionError("a semigroup-mode product has no unit")
        return (frozenset(), self.left_base.identity, self.right_base.identity)

    def mul(self, p, q):
        s, m1, n1 = p
        t, m2, n2 = q
        lt = self.left_base.table
        rt = self.right_base.table
        first = frozenset((lt[m1][x], y) for x, y in t) | frozenset(
            (x, rt[y][n2]) for x, y in s
        )
        return (first, lt[m1][m2], rt[n1][n2])

    def carrier(self) -> Iterator[tuple[frozenset, int, int]]:
        pairs = [
            (x, y)
            for x in range(self.left_base.size)
            for y in range(self.right_base.size)
        ]
        for s in _subsets(pairs, self.semigroup):
            for m in range(self.left_base.size):
                for n in range(self.right_base.size):
                    yield (s, m, n)

    # actions on points (Z, x, y), written out as in the space construction
    def left_action(self, p, point):
        s, m1, n1 = p
        z, x, y = point
        lt = self.left_base.table
        rt = self.right_base.table
        first = frozenset((lt[m1][u], v) for u, v in z) | frozenset(
            (m, rt[n][y]) for m, n in s
        )
        return (first, lt[m1][x], rt[n1][y])

    def right_action(self, p, point):
        s, m1, n1 = p
        z, x, y = point
        lt = self.left_base.table
        rt = self.right_base.table
        first = frozenset((u, rt[v][n1]) for u, v in z) | frozenset(
            (lt[x][m], n) for m, n in s
        )
        return (first, lt[x][m1], rt[y][n1])

    def as_finite_monoid(
        self, max_carrier: int = 512
    ) -> tuple[FiniteMonoid, tuple[tuple[frozenset, int, int], ...]]:
        if self.size > max_carrier:
            raise ResourceLimitError(
                f"carrier of size {self.size} exceeds the materialisation bound"
            )
        elems = tuple(self.carrier())
        index = {e: i for i, e in enumerate(elems)}
        table = tuple(tuple(index[self.mul(p, q)] for q in elems) for p in elems)

        def lab(e):
            s, m, n = e
            pairs = ",".join(
                f"({self.left_base.label(x)},{self.right_base.label(y)})"
                for x, y in sorted(s)
            )
            return f"({{{pairs}}},{self.left_base.label(m)},{self.right_base.label(n)})"

        identity = index[self.unit()] if not self.semigroup else None
        return FiniteMonoid(table, identity=identity, labels=tuple(lab(e) for e in elems)), elems


# -- hit/miss clopens -------------------------------------------------------


@dataclass(frozen=True)
class HitClopen:
    """Symbolic subset of a powerset carrier: ``hit(V)`` holds when the
    set meets V, ``miss(V)`` when the set is contained in V.  The miss
    set is the complement of the hit set of the complement."""

    mode: str
    witness: frozenset

    def __post_init__(self) -> None:
        if self.mode not in ("hit", "miss"):
            raise InputError("mode must be 'hit' or 'miss'")
        if not isinstance(self.witness, frozenset):
            object.__setattr__(self, "witness", frozenset(self.witness))

    def contains(self, s: Iterable) -> bool:
        s = frozenset(s)
        if self.mode == "hit":
            return bool(s & self.witness)
        return s <= self.witness


# -- the existential-projection recogniser ----------------------------------


def _require_extended(tau: MonoidMorphism) -> ExtendedAlphabet:
    ext = ExtendedAlphabet.match(tau.alphabet)
    if ext is None:
        raise InputError("the recognising morphism must read the doubled alphabet")
    return ext


def exists_letter_images(tau: MonoidMorphism) -> list[tuple[frozenset, int]]:
    """Letter images of the product-valued morphism: a single marked
    evaluation paired with the unmarked one."""
    ext = _require_extended(tau)
    out = []
    for c in range(len(ext.base)):
        marked = tau.letter_images[2 * c + 1]
        plain = tau.letter_images[2 * c]
        out.append((frozenset({marked}), plain))
    return out


def exists_profile(tau: MonoidMorphism, w: Word) -> tuple[frozenset, int]:
    """Direct evaluation: all marked evaluations of w plus the plain one."""
    ext = _require_extended(tau)
    if w.alphabet != ext.base:
        raise InputError("word must be over the base alphabet")
    marked = frozenset(tau.evaluate(tag_marked(m, ext)) for m in marked_words(w))
    if tau.target.identity is None and len(w) == 0:
        raise PreconditionError("empty word outside semigroup-mode domain")
    plain = tau.evaluate(tag_unmarked(w, ext))
    return (marked, plain)


def exists_closure(
    tau: MonoidMorphism, *, max_size: int | None = None
) -> GeneratedClosure:
    product = UnarySchutz(tau.target)
    unit = None if product.semigroup else product.unit()
    return generate_closure(
        exists_letter_images(tau), product.mul, unit, max_size=max_size
    )


def exists_language(
    tau: MonoidMorphism, accept: Iterable[int], *, max_size: int | None = None
) -> Dfa:
    """Canonical DFA of the words with some marking in tau^-1(accept),
    decided through the product-valued morphism and a hit clopen."""
    ext = _require_extended(tau)
    clo = exists_closure(tau, max_size=max_size)
    clopen = HitClopen("hit", frozenset(accept))
    return closure_language(
        ext.base, clo, lambda i: clopen.contains(clo.elements[i][0])
    )


def recognises_exists(tau: MonoidMorphism, accept: Iterable[int], w: Word) -> bool:
    """Pointwise form: whether the profile of w lands in hit(V) x M."""
    marked, _ = exists_profile(tau, w)
    return HitClopen("hit", frozenset(accept)).contains(marked)


# -- split maps and the local recogniser for marked concatenation -----------


def _require_shared(phi1: MonoidMorphism, phi2: MonoidMorphism) -> Alphabet:
    if phi1.alphabet != phi2.alphabet:
        raise InputError("the two morphisms must share an alphabet")
    if phi1.target.is_semigroup or phi2.target.is_semigroup:
        raise PreconditionError("split tracking is defined for monoid morphisms")
    return phi1.alphabet


def marked_split_set(
    phi1: MonoidMorphism, phi2: MonoidMorphism, letter: "str | int", w: Word
) -> frozenset[tuple[int, int]]:
    """All (phi1(prefix), phi2(suffix)) pairs over occurrences of the
    letter: w = u a v."""
    alph = _require_shared(phi1, phi2)
    a = alph.index(letter) if isinstance(letter, str) else letter
    out = set()
    for i, c in enumerate(w.indices):
        if c == a:
            out.add((phi1.evaluate(w[:i]), phi2.evaluate(w[i + 1 :])))
    return frozenset(out)


def split_letter_images(
    phi1: MonoidMorphism, phi2: MonoidMorphism, letter: "str | int"
) -> list[tuple[frozenset, int, int]]:
    """Letter images of the split-tracking morphism into the binary product."""
    alph = _require_shared(phi1, phi2)
    a = alph.index(letter) if isinstance(letter, str) else letter
    unit_pair = frozenset({(phi1.target.identity, phi2.target.identity)})
    out = []
    for c in range(len(alph)):
        s = unit_pair if c == a else frozenset()
        out.append((s, phi1.letter_images[c], phi2.letter_images[c]))
    return out


def split_closure(
    phi1: MonoidMorphism,
    phi2: MonoidMorphism,
    letter: "str | int",
    *,
    max_size: int | None = None,
) -> tuple[GeneratedClosure, BinarySchutz]:
    product = BinarySchutz(phi1.target, phi2.target)
    clo = generate_closure(
        split_letter_images(phi1, phi2, letter),
        product.mul,
        product.unit(),
        max_size=max_size,
    )
    return clo, product


def split_language(
    phi1: MonoidMorphism,
    phi2: MonoidMorphism,
    letter: "str | int",
    v1: Iterable[int],
    v2: Iterable[int],
    *,
    max_size: int | None = None,
) -> Dfa:
    """Language recognised through hit(V1 x V2) on the split component;
    the content of the global concatenation theorem says this equals the
    marked concatenation of the two preimages."""
    alph = _require_shared(phi1, phi2)
    clo, _ = split_closure(phi1, phi2, letter, max_size=max_size)
    want = frozenset(itertools.product(tuple(v1), tuple(v2)))
    clopen = HitClopen("hit", want)
    return closure_language(
        alph, clo, lambda i: clopen.contains(clo.elements[i][0])
    )


# -- the local morphism: one split component per letter ----------------------


@dataclass(frozen=True)
class LocalSchutz:
    """Image of the product map pairing every per-letter split component
    with both base evaluations; elements are ((S_a)_a, m, n)."""

    phi1: MonoidMorphism
    phi2: MonoidMorphism
    closure: GeneratedClosure

    @property
    def alphabet(self) -> Alphabet:
        return self.phi1.alphabet

    def elements(self) -> list:
        return self.closure.elements

    def evaluate(self, w: "Word | Iterable[int]") -> tuple:
        idxs = w.indices if isinstance(w, Word) else tuple(w)
        i = 0  # index of the unit element
        for c in idxs:
            i = self.closure.delta[i][c]
        return self.closure.elements[i]

    def mul(self, p: tuple, q: tuple) -> tuple:
        return _local_mul(self.phi1.target, self.phi2.target, p, q)

    def language_of(self, accept: Callable[[tuple], bool]) -> Dfa:
        clo = self.closure
        return closure_language(
            self.alphabet, clo, lambda i: accept(clo.elements[i])
        )


def _local_mul(m1: FiniteMonoid, m2: FiniteMonoid, p: tuple, q: tuple) -> tuple:
    ss, m, n = p
    ts, m2_, n2_ = q
    lt = m1.table
    rt = m2.table
    first = tuple(
        frozenset((lt[m][x], y) for x, y in t)
        | frozenset((x, rt[y][n2_]) for x, y in s)
        for s, t in zip(ss, ts)
    )
    return (first, lt[m][m2_], rt[n][n2_])


def local_schutz_morphism(
    phi1: MonoidMorphism,
    phi2: MonoidMorphism,
    *,
    max_size: int | None = None,
) -> LocalSchutz:
    alph = _require_shared(phi1, phi2)
    k = len(alph)
    unit_pair = (phi1.target.identity, phi2.target.identity)
    images = []
    for c in range(k):
        splits = tuple(
            frozenset({unit_pair}) if c == a else frozenset() for a in range(k)
        )
        images.append((splits, phi1.letter_images[c], phi2.letter_images[c]))
    unit = (tuple(frozenset() for _ in range(k)), unit_pair[0], unit_pair[1])

    def mul(p, q):
        return _local_mul(phi1.target, phi2.target, p, q)

    closure = generate_closure(images, mul, unit, max_size=max_size)
    return LocalSchutz(phi1, phi2, closure)
