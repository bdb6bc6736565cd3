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

Both products are one construction: Pfin(X) x X for X = M, or for
X = M x N with M acting on the left factor of a point and N on the
right one.  The private ``_PowersetProduct`` holds what they share (the
memos below, the carrier, the unit and the materialised table); each
product keeps its own ``mul``, written out in its own components; its
left action is ``mul`` and its right action ``mul`` with swapped operands.

Representation.  Inside a product a subset of the points of X (in
row-major order for M x N) is an int bitmask, bit i standing for point
i, and each mask has one interned frozenset.  For every element of the
first base there is one left-image memo, and for every element of the
last base one right-image memo: plain dicts from an interned frozenset
to the mask of its image.  The mask of a product's first component is
one lookup in each and one ``|``, and its frozenset one lookup in the
plain dict of interned sets.  A miss in any of the three fills them,
reading the set's mask through a validating memo that refuses a point
outside the carrier, so a foreign set is refused on first sight in
either operand.  Elements cross the boundary as (frozenset, m[, n])
tuples.  The carrier lists the subsets by size, then lexicographically;
a materialised table numbers the element (S, m, n) as
rank(S) * |M||N| + m * |N| + n.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import InputError, PreconditionError, ResourceLimitError
from .languages import Alphabet, Dfa, Word, _as_tuple, _letter_indices
from .marking import ExtendedAlphabet, marked_words, tag_marked, tag_unmarked
from .monoids import (
    FiniteMonoid,
    GeneratedClosure,
    MonoidMorphism,
    _elements,
    _trusted_monoid,
    generate_closure,
)

_MATERIALISE_BASE_LIMIT = 6  # eager carrier up to 2^6 * 6 elements
_MATERIALISE_CARRIER_LIMIT = 512


class _Masks(dict):
    """frozenset of points -> bitmask, filled on first sight."""

    def __init__(self, points: list) -> None:
        super().__init__()
        self.points = points
        self.bits = {p: 1 << i for i, p in enumerate(points)}

    def __missing__(self, s: frozenset) -> int:
        mask = 0
        for p in s:
            bit = self.bits.get(p)
            if bit is None:
                raise InputError(f"point {p!r} is not in the carrier")
            mask |= bit
        self[s] = mask
        return mask

    def order(self, nonempty: bool) -> Iterator[int]:
        """The masks of the carrier: by size, then lexicographically."""
        for size in range(1 if nonempty else 0, len(self.points) + 1):
            for combo in itertools.combinations(range(len(self.points)), size):
                yield sum(1 << i for i in combo)


def _low_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _check_bound(what: str, size: int, bound: str, limit: int) -> None:
    """Refuse a materialisation bound that is no positive integer, and a
    size above the bound."""
    if type(limit) is not int or limit < 1:  # a bool or a float is no bound
        raise InputError(f"{bound} must be a positive integer, got {limit!r}")
    if size > limit:
        raise ResourceLimitError(
            f"{what} has {size} elements, above the materialisation bound "
            f"{bound}={limit}; raise it with construct --max-size"
        )


@dataclass(frozen=True)
class _PowersetProduct:
    """Pfin(X) x X for X the product of one or two bases.  The points of
    X are the base elements for one base and the pairs for two; the
    first base acts on the left of a point, the last one on its right."""

    _bases: tuple[FiniteMonoid, ...] = field(init=False, repr=False, compare=False)
    _components: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _first_table: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _last_table: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _masks: _Masks = field(init=False, repr=False, compare=False)
    _sets: dict[int, frozenset] = field(init=False, repr=False, compare=False)
    _left: list[dict[frozenset, int]] = field(init=False, repr=False, compare=False)
    _right: list[dict[frozenset, int]] = field(init=False, repr=False, compare=False)
    _left_bits: list[list[int]] = field(init=False, repr=False, compare=False)
    _right_bits: list[list[int]] = field(init=False, repr=False, compare=False)

    def _wire(self, *bases: FiniteMonoid) -> None:
        first, last = bases[0], bases[-1]
        comps = tuple(itertools.product(*(range(b.size) for b in bases)))
        stride = len(comps) // first.size  # of the first component
        set_ = object.__setattr__
        set_(self, "_bases", bases)
        set_(self, "_components", comps)
        set_(self, "_first_table", first.table)
        set_(self, "_last_table", last.table)
        set_(self, "_masks", _Masks(list(range(first.size)) if len(bases) == 1 else list(comps)))
        set_(self, "_sets", {})
        set_(self, "_left", [{} for _ in range(first.size)])
        set_(self, "_right", [{} for _ in range(last.size)])
        # entry i of a map's bits is the bit of the image of point i = c:
        # the point whose first (last) component is the image of c's
        # first (last) one
        set_(self, "_left_bits", [
            [1 << (i + (row[c[0]] - c[0]) * stride) for i, c in enumerate(comps)]
            for row in first.table
        ])
        set_(self, "_right_bits", [
            [1 << (i + last.table[c[-1]][n] - c[-1]) for i, c in enumerate(comps)]
            for n in range(last.size)
        ])

    def _set(self, mask: int) -> frozenset:
        """The interned frozenset of a mask, built and entered in the
        memos on first use."""
        s = self._sets.get(mask)
        if s is None:
            points = self._masks.points
            s = frozenset(points[low.bit_length() - 1] for low in _low_bits(mask))
            self._sets[mask] = s
            self._masks[s] = mask
        return s

    def _image(self, memos: list[dict[frozenset, int]], bits: list[list[int]],
               i: int, s: frozenset) -> int:
        """Mask of the image of s under map i, memoised under the interned
        set; refuses a point outside the carrier."""
        out = memos[i].get(s)
        if out is None:
            mask = self._masks[s]
            out = 0
            for low in _low_bits(mask):
                out |= bits[i][low.bit_length() - 1]
            memos[i][self._set(mask)] = out
        return out

    def _fill(self, m: int, t: frozenset, n: int, s: frozenset) -> frozenset:
        """The first component left_m(t) | right_n(s) after a memo miss:
        fills both image memos and the interned set."""
        return self._set(self._image(self._left, self._left_bits, m, t)
                         | self._image(self._right, self._right_bits, n, s))

    @property
    def semigroup(self) -> bool:
        return self._bases[0].is_semigroup

    @property
    def size(self) -> int:
        points = len(self._components)
        return (2**points - self.semigroup) * points

    def unit(self) -> tuple:
        if self.semigroup:
            raise PreconditionError("a semigroup-mode product has no unit")
        return (self._set(0), *(b.identity for b in self._bases))

    def carrier(self) -> Iterator[tuple]:
        """All elements, subsets by size then lex, components row-major."""
        comps = self._components
        for mask in self._masks.order(self.semigroup):
            s = (self._set(mask),)
            for c in comps:
                yield s + c

    def _materialise(self) -> tuple[FiniteMonoid, tuple[tuple, ...]]:
        """Materialised multiplication table with canonical element order:
        (S, c) is numbered rank(S) * |X| + (index of c).  The row of (S, c)
        in column (T, d) holds S.(last of d) | (first of c).T and c.d."""
        bases, comps = self._bases, self._components
        width = len(comps)
        index = {c: i for i, c in enumerate(comps)}
        order = list(self._masks.order(self.semigroup))
        rank = {mask: r * width for r, mask in enumerate(order)}
        sets = [self._set(mask) for mask in order]
        lefts = [[self._image(self._left, self._left_bits, i, s) for s in sets]
                 for i in range(len(self._left))]
        rights = [[self._image(self._right, self._right_bits, n, s) for s in sets]
                  for n in range(len(self._right))]
        specs = [(lefts[c[0]], [
            (rights[d[-1]], index[tuple(b.table[x][y] for b, x, y in zip(bases, c, d))])
            for d in comps
        ]) for c in comps]
        rows = []
        for r in range(len(order)):
            for left_t, columns in specs:
                firsts = [(right[r], cell) for right, cell in columns]
                rows.append(tuple(rank[lt | f] + cell for lt in left_t for f, cell in firsts))
        comp_labels = [",".join(b.label(x) for b, x in zip(bases, c)) for c in comps]
        point_labels = comp_labels if len(bases) == 1 else [f"({lab})" for lab in comp_labels]
        labels = []
        for mask in order:
            s = ",".join(point_labels[low.bit_length() - 1] for low in _low_bits(mask))
            labels += [f"({{{s}}},{lab})" for lab in comp_labels]
        # the unit ({}, e[, f]) has rank 0
        identity = None if self.semigroup else index[tuple(b.identity for b in bases)]
        monoid = _trusted_monoid(tuple(rows), identity, tuple(labels))
        return monoid, tuple(self.carrier())


@dataclass(frozen=True)
class UnarySchutz(_PowersetProduct):
    """The product Pfin(M) x M; elements are (frozenset, element) pairs."""

    base: FiniteMonoid

    def __post_init__(self) -> None:
        self._wire(self.base)

    def mul(
        self, p: tuple[frozenset, int], q: tuple[frozenset, int]
    ) -> tuple[frozenset, int]:
        s, m = p
        t, n = q
        try:
            first = self._sets[self._right[n][s] | self._left[m][t]]
        except KeyError:
            first = self._fill(m, t, n, s)
        return (first, self._first_table[m][n])

    left_action = mul  # the product acts on itself by left multiplication

    def right_action(
        self, p: tuple[frozenset, int], x: tuple[frozenset, int]
    ) -> tuple[frozenset, int]:
        # mul(x, p) inline: a self.mul(x, p) wrapper took 1.7x as long (CPython 3.11, Xeon)
        s, m = p
        t, y = x
        # {y.e : e in S} u {z.m : z in T}
        try:
            first = self._sets[self._left[y][s] | self._right[m][t]]
        except KeyError:
            first = self._fill(y, s, m, t)
        return (first, self._first_table[y][m])

    def as_finite_monoid(
        self, max_base: int = _MATERIALISE_BASE_LIMIT
    ) -> tuple[FiniteMonoid, tuple[tuple[frozenset, int], ...]]:
        _check_bound("the unary product's base", self.base.size, "max_base", max_base)
        return self._materialise()


@dataclass(frozen=True)
class BinarySchutz(_PowersetProduct):
    """The product Pfin(M x N) x M x N; elements are (frozenset of pairs,
    element of M, element of N) triples."""

    left_base: FiniteMonoid
    right_base: FiniteMonoid

    def __post_init__(self) -> None:
        if self.left_base.is_semigroup != self.right_base.is_semigroup:
            raise InputError("bases must both be monoids or both semigroups")
        self._wire(self.left_base, self.right_base)

    def mul(self, p, q):
        s, m1, n1 = p
        t, m2, n2 = q
        try:
            first = self._sets[self._left[m1][t] | self._right[n2][s]]
        except KeyError:
            first = self._fill(m1, t, n2, s)
        return (first, self._first_table[m1][m2], self._last_table[n1][n2])

    left_action = mul  # the product acts on itself by left multiplication

    def right_action(self, p, point):
        # mul(point, p) inline: a self.mul(point, p) wrapper took 2.2x as long (CPython 3.11, Xeon)
        s, m1, n1 = p
        z, x, y = point
        # {(u, v.n1) : (u, v) in Z} u {(x.m, n) : (m, n) in S}
        try:
            first = self._sets[self._right[n1][z] | self._left[x][s]]
        except KeyError:
            first = self._fill(x, s, n1, z)
        return (first, self._first_table[x][m1], self._last_table[y][n1])

    def as_finite_monoid(
        self, max_carrier: int = _MATERIALISE_CARRIER_LIMIT
    ) -> tuple[FiniteMonoid, tuple[tuple[frozenset, int, int], ...]]:
        _check_bound("the binary product's carrier", self.size, "max_carrier", max_carrier)
        return self._materialise()


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
            witness = _as_tuple(self.witness, "a clopen's witness")
            object.__setattr__(self, "witness", frozenset(witness))

    def contains(self, s: Iterable) -> bool:
        if not isinstance(s, frozenset):
            s = frozenset(_as_tuple(s, "a tested set"))
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


def exists_profile(tau: MonoidMorphism, w: "Word | Iterable[str | int]") -> tuple[frozenset, int]:
    """Direct evaluation: all marked evaluations of w plus the plain one."""
    ext = _require_extended(tau)
    w = Word(ext.base, _letter_indices(ext.base, w))
    marked = frozenset(tau.evaluate(tag_marked(m, ext)) for m in marked_words(w))
    plain = tau.evaluate(tag_unmarked(w, ext))
    return (marked, plain)


def exists_closure(tau: MonoidMorphism) -> GeneratedClosure:
    product = UnarySchutz(tau.target)
    unit = None if product.semigroup else product.unit()
    return generate_closure(exists_letter_images(tau), product.mul, unit)


def exists_language(tau: MonoidMorphism, accept: Iterable[int]) -> Dfa:
    """Canonical DFA of the words with some marking in tau^-1(accept),
    decided through the product-valued morphism and a hit clopen."""
    ext = _require_extended(tau)
    clopen = HitClopen("hit", _elements(accept, tau.target.size))
    clo = exists_closure(tau)
    return clo.language(ext.base, lambda e: clopen.contains(e[0]))


def recognises_exists(
    tau: MonoidMorphism, accept: Iterable[int], w: "Word | Iterable[str | int]"
) -> bool:
    """Pointwise form: whether the profile of w lands in hit(V) x M."""
    clopen = HitClopen("hit", _elements(accept, tau.target.size))
    marked, _ = exists_profile(tau, w)
    return clopen.contains(marked)


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
    (a,) = _letter_indices(alph, (letter,))
    idxs = _letter_indices(alph, w)
    out = set()
    for i, c in enumerate(idxs):
        if c == a:
            out.add((phi1.evaluate(idxs[:i]), phi2.evaluate(idxs[i + 1 :])))
    return frozenset(out)


def split_letter_images(
    phi1: MonoidMorphism, phi2: MonoidMorphism, letter: "str | int"
) -> list[tuple[frozenset, int, int]]:
    """Letter images of the split-tracking morphism into the binary product."""
    alph = _require_shared(phi1, phi2)
    (a,) = _letter_indices(alph, (letter,))
    unit_pair = frozenset({(phi1.target.identity, phi2.target.identity)})
    out = []
    for c in range(len(alph)):
        s = unit_pair if c == a else frozenset()
        out.append((s, phi1.letter_images[c], phi2.letter_images[c]))
    return out


def split_closure(
    phi1: MonoidMorphism, phi2: MonoidMorphism, letter: "str | int"
) -> GeneratedClosure:
    product = BinarySchutz(phi1.target, phi2.target)
    return generate_closure(split_letter_images(phi1, phi2, letter), product.mul, product.unit())


def split_language(
    phi1: MonoidMorphism,
    phi2: MonoidMorphism,
    letter: "str | int",
    v1: Iterable[int],
    v2: Iterable[int],
) -> Dfa:
    """Language recognised through hit(V1 x V2) on the split component;
    the content of the global concatenation theorem says this equals the
    marked concatenation of the two preimages."""
    alph = _require_shared(phi1, phi2)
    want = itertools.product(_elements(v1, phi1.target.size), _elements(v2, phi2.target.size))
    clopen = HitClopen("hit", frozenset(want))
    clo = split_closure(phi1, phi2, letter)
    return clo.language(alph, lambda e: clopen.contains(e[0]))


# -- the local morphism: one split component per letter ----------------------


@dataclass(frozen=True)
class LocalSchutz:
    """Image of the product map pairing every per-letter split component
    with both base evaluations; elements are ((S_a)_a, m, n), each S_a
    multiplied as the first component of ``product``."""

    phi1: MonoidMorphism
    phi2: MonoidMorphism
    closure: GeneratedClosure
    product: BinarySchutz

    @property
    def alphabet(self) -> Alphabet:
        return self.phi1.alphabet

    def elements(self) -> list:
        return self.closure.elements

    def evaluate(self, w: "Word | Iterable[str | int]") -> tuple:
        clo = self.closure
        return clo.elements[clo.quotient(self.alphabet).class_of(w)]

    def mul(self, p: tuple, q: tuple) -> tuple:
        return _local_mul(self.product, p, q)

    def language_of(self, accept: Callable[[tuple], bool]) -> Dfa:
        return self.closure.language(self.alphabet, accept)


def _local_mul(product: BinarySchutz, p: tuple, q: tuple) -> tuple:
    """Each letter's split set multiplied as the first component of
    ``BinarySchutz.mul``: one lookup in each image memo, one ``|`` and one
    lookup of the interned set."""
    ss, m1, n1 = p
    ts, m2, n2 = q
    sets, left, right = product._sets, product._left[m1], product._right[n2]
    first = []
    for s, t in zip(ss, ts):
        try:
            first.append(sets[left[t] | right[s]])
        except KeyError:
            first.append(product._fill(m1, t, n2, s))
    return (tuple(first), product._first_table[m1][m2], product._last_table[n1][n2])


def local_schutz_morphism(phi1: MonoidMorphism, phi2: MonoidMorphism) -> LocalSchutz:
    alph = _require_shared(phi1, phi2)
    k = len(alph)
    product = BinarySchutz(phi1.target, phi2.target)
    unit_pair = (phi1.target.identity, phi2.target.identity)
    images = []
    for c in range(k):
        splits = tuple(
            frozenset({unit_pair}) if c == a else frozenset() for a in range(k)
        )
        images.append((splits, phi1.letter_images[c], phi2.letter_images[c]))
    unit = (tuple(frozenset() for _ in range(k)), unit_pair[0], unit_pair[1])
    closure = generate_closure(images, functools.partial(_local_mul, product), unit)
    return LocalSchutz(phi1, phi2, closure, product)
