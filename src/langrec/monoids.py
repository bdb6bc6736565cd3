"""Finite monoids and semigroups, morphisms from the free monoid, and
syntactic monoids of regular languages.

A ``FiniteMonoid`` with ``identity=None`` is treated as a plain
semigroup; constructions downstream (morphisms, recognised languages,
product monoids) honour that mode by working over non-empty words.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import InputError, PreconditionError, ResourceLimitError
from .languages import Alphabet, Dfa, Word, _canonical, _state_labels
from .limits import closure_limit

# Above this size the exhaustive triple loop switches to a vectorised
# check; far above it the table is too large to build in the first place.
_ASSOC_LOOP_LIMIT = 64
_ASSOC_CHECK_LIMIT = 1024


def _associativity_defect(table: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """First (x, y, z) with (xy)z != x(yz), or None if associative."""
    n = len(table)
    if n <= _ASSOC_LOOP_LIMIT:
        rng = range(n)
        for x in rng:
            tx = table[x]
            for y in rng:
                txy = table[tx[y]]
                ty = table[y]
                for z in rng:
                    if txy[z] != tx[ty[z]]:
                        return (x, y, z)
        return None
    if n > _ASSOC_CHECK_LIMIT:
        return None
    import numpy as np

    t = np.asarray(table, dtype=np.int64)
    for x in range(n):
        row = t[x]
        lhs = t[row]  # lhs[y, z] = t[t[x, y], z]
        rhs = row[t]  # rhs[y, z] = t[x, t[y, z]]
        if not np.array_equal(lhs, rhs):
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            return (x, y, z)
    return None


@dataclass(frozen=True)
class FiniteMonoid:
    """Multiplication table; ``identity=None`` means semigroup mode.

    Associativity is re-checked exhaustively on construction for tables
    up to 1024 elements; larger tables only arise from internal
    constructions that are associative by construction (elementwise
    products of validated tables, submonoid closures), and
    ``from_json_dict`` refuses them.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.table, tuple):
            object.__setattr__(self, "table", tuple(tuple(r) for r in self.table))
        n = len(self.table)
        if n == 0:
            raise InputError("a semigroup needs at least one element")
        for row in self.table:
            if len(row) != n:
                raise InputError("multiplication table must be square")
            for v in row:
                if not (0 <= v < n):
                    raise InputError(f"table entry {v} out of range")
        defect = _associativity_defect(self.table)
        if defect is not None:
            raise InputError(f"multiplication not associative at {defect}")
        if self.identity is not None:
            e = self.identity
            if not (0 <= e < n):
                raise InputError("identity index out of range")
            for x in range(n):
                if self.table[e][x] != x or self.table[x][e] != x:
                    raise InputError(f"element {e} is not a two-sided identity")
        if self.labels is not None:
            if not isinstance(self.labels, tuple):
                object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != n:
                raise InputError("labels must name every element")

    @property
    def size(self) -> int:
        return len(self.table)

    @property
    def is_semigroup(self) -> bool:
        return self.identity is None

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)

    def elements(self) -> range:
        return range(self.size)

    def idempotents(self) -> list[int]:
        return [x for x in self.elements() if self.table[x][x] == x]

    # -- congruences ----------------------------------------------------

    def is_congruence(self, part: Sequence[int]) -> bool:
        """Whether a partition (block id per element) respects multiplication."""
        n = self.size
        reps: dict[int, int] = {}
        for x in range(n):
            reps.setdefault(part[x], x)
        for x in range(n):
            for y in range(n):
                expected = part[self.table[reps[part[x]]][reps[part[y]]]]
                if part[self.table[x][y]] != expected:
                    return False
        return True

    def proper_congruences(self, max_size: int = 6) -> Iterable[tuple[int, ...]]:
        """All congruences that merge at least two elements (size-bounded)."""
        n = self.size
        if n > max_size:
            raise ResourceLimitError(f"congruence enumeration capped at size {max_size}")
        for part in _set_partitions(n):
            if max(part) == n - 1:
                continue  # discrete partition
            if self.is_congruence(part):
                yield tuple(part)

    # -- serialisation ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "identity": self.identity,
            "table": [list(r) for r in self.table],
            "labels": list(self.labels) if self.labels else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteMonoid":
        try:
            table = tuple(tuple(int(v) for v in row) for row in data["table"])
            if len(table) > _ASSOC_CHECK_LIMIT:
                raise InputError(
                    f"a monoid file holds at most {_ASSOC_CHECK_LIMIT} elements, "
                    f"the largest table whose associativity is checked; "
                    f"this one has {len(table)}"
                )
            identity = data.get("identity")
            labels = data.get("labels")
            m = cls(
                table,
                None if identity is None else int(identity),
                tuple(labels) if labels else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed monoid file: {exc}") from exc
        if m.size != int(data.get("size", m.size)):
            raise InputError("declared size does not match the table")
        return m

    @classmethod
    def from_json(cls, text: str) -> "FiniteMonoid":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def __repr__(self) -> str:
        kind = "Semigroup" if self.is_semigroup else "Monoid"
        return f"{kind}(size={self.size})"


def _set_partitions(n: int) -> Iterable[list[int]]:
    """Partitions of {0..n-1} as restricted-growth strings."""
    part = [0] * n

    def rec(i: int, maxb: int):
        if i == n:
            yield part
            return
        for b in range(maxb + 2):
            part[i] = b
            yield from rec(i + 1, max(maxb, b))

    yield from rec(0, -1) if n else iter([[]])


TRIVIAL_MONOID = FiniteMonoid(((0,),), identity=0, labels=("1",))


# -- enumeration of small tables -----------------------------------------


@lru_cache(maxsize=None)
def enumerate_semigroups(n: int) -> tuple[FiniteMonoid, ...]:
    """All associative multiplication tables on {0..n-1} (labelled, no identity)."""
    if n > 3:
        raise ResourceLimitError("exhaustive semigroup enumeration is capped at size 3")
    out = []
    for flat in itertools.product(range(n), repeat=n * n):
        table = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        if _associativity_defect(table) is None:
            out.append(FiniteMonoid(table, identity=None))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_monoids(n: int) -> tuple[FiniteMonoid, ...]:
    """All associative tables on {0..n-1} with element 0 a two-sided identity."""
    if n > 4:
        raise ResourceLimitError("exhaustive monoid enumeration is capped at size 4")
    if n == 1:
        return (TRIVIAL_MONOID,)
    out = []
    free = [(i, j) for i in range(1, n) for j in range(1, n)]
    for values in itertools.product(range(n), repeat=len(free)):
        table = [[0] * n for _ in range(n)]
        for j in range(n):
            table[0][j] = j
            table[j][0] = j
        for (i, j), v in zip(free, values):
            table[i][j] = v
        tt = tuple(tuple(r) for r in table)
        if _associativity_defect(tt) is None:
            out.append(FiniteMonoid(tt, identity=0))
    return tuple(out)


# -- morphisms ------------------------------------------------------------


@dataclass(frozen=True)
class MonoidMorphism:
    """Morphism from the free monoid (or semigroup) on an alphabet,
    presented by one target element per letter."""

    alphabet: Alphabet
    target: FiniteMonoid
    letter_images: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.letter_images, tuple):
            object.__setattr__(self, "letter_images", tuple(self.letter_images))
        if len(self.letter_images) != len(self.alphabet):
            raise InputError("need exactly one image per letter")
        for v in self.letter_images:
            if not (0 <= v < self.target.size):
                raise InputError(f"letter image {v} out of range")

    def evaluate(self, w: "Word | Iterable[int]") -> int:
        idxs = w.indices if isinstance(w, Word) else tuple(w)
        if not idxs:
            if self.target.identity is None:
                raise PreconditionError(
                    "the empty word has no image under a semigroup morphism"
                )
            return self.target.identity
        table = self.target.table
        acc = self.letter_images[idxs[0]]
        for c in idxs[1:]:
            acc = table[acc][self.letter_images[c]]
        return acc

    def __call__(self, w: "Word | Iterable[int]") -> int:
        return self.evaluate(w)

    def image(self) -> "GeneratedClosure":
        """The image submonoid (subsemigroup), generated by the letter
        images; its elements are element indices of the target."""
        m = self.target
        return generate_closure(
            self.letter_images, lambda x, y: m.table[x][y], m.identity, max_size=m.size
        )

    def preimage(self, accept: Iterable[int]) -> Dfa:
        """Canonical DFA of the inverse image of a set of elements."""
        want = frozenset(accept)
        for v in want:
            if not (0 <= v < self.target.size):
                raise InputError(f"element {v} out of range")
        image = self.image()
        return closure_language(self.alphabet, image, lambda i: image.elements[i] in want)


def recognised_language(h: MonoidMorphism, accept: Iterable[int]) -> Dfa:
    return h.preimage(accept)


def all_morphisms(
    alph: Alphabet, m: FiniteMonoid, max_count: int = 1_000_000
) -> list[MonoidMorphism]:
    """Every letter-image assignment, in lexicographic order."""
    total = m.size ** len(alph)
    if total > max_count:
        raise ResourceLimitError(
            f"{total} morphisms exceed the enumeration bound {max_count}"
        )
    return [
        MonoidMorphism(alph, m, images)
        for images in itertools.product(range(m.size), repeat=len(alph))
    ]


def evaluate(h: MonoidMorphism, w: "Word | Iterable[int]") -> int:
    return h.evaluate(w)


# -- syntactic monoids -----------------------------------------------------


@dataclass(frozen=True)
class SyntacticMonoid:
    """Transition monoid of a canonical minimal DFA, with the evaluation
    morphism and the accepting subset that cuts out the language."""

    monoid: FiniteMonoid
    morphism: MonoidMorphism
    accepting: frozenset[int]


def syntactic_monoid(l: Dfa, max_size: int | None = None) -> SyntacticMonoid:
    limit = closure_limit(max_size)
    n = l.states
    k = len(l.alphabet)
    letter_fns = [tuple(l.transitions[q][c] for q in range(n)) for c in range(k)]
    ident = tuple(range(n))
    fns: list[tuple[int, ...]] = [ident]
    pos = {ident: 0}
    words: list[tuple[int, ...]] = [()]
    i = 0
    while i < len(fns):
        f = fns[i]
        for c in range(k):
            g = tuple(letter_fns[c][f[q]] for q in range(n))
            if g not in pos:
                if len(fns) >= limit:
                    raise ResourceLimitError(f"transition monoid exceeded {limit} elements")
                pos[g] = len(fns)
                fns.append(g)
                words.append(words[i] + (c,))
        i += 1
    size = len(fns)
    table = tuple(
        tuple(pos[tuple(g[f[q]] for q in range(n))] for g in fns) for f in fns
    )
    labels = tuple(Word(l.alphabet, w).text() for w in words)
    monoid = FiniteMonoid(table, identity=0, labels=labels)
    morphism = MonoidMorphism(l.alphabet, monoid, tuple(pos[f] for f in letter_fns))
    accepting = frozenset(i for i, f in enumerate(fns) if f[l.initial] in l.accepting)
    return SyntacticMonoid(monoid, morphism, accepting)


def is_minimal_recogniser(m: FiniteMonoid, accept: Iterable[int], max_size: int = 6) -> bool:
    """No proper quotient of m still separates `accept` from its complement."""
    want = set(accept)
    for part in m.proper_congruences(max_size=max_size):
        blocks: dict[int, set[int]] = {}
        for x, b in enumerate(part):
            blocks.setdefault(b, set()).add(x)
        if all(block <= want or not (block & want) for block in blocks.values()):
            return False
    return True


# -- generated submonoids and finite quotients of the free monoid ----------


@dataclass
class GeneratedClosure:
    """Submonoid (or subsemigroup) generated by abstract letter images.

    ``elements`` lists the distinct products in discovery order, which is
    breadth-first over words in length-then-lex order, so ``words[i]`` is
    the shortest-lex witness for ``elements[i]``.  ``delta[i][c]`` is the
    index of ``elements[i] * image(c)``; ``letter_targets[c]`` the index
    of the image of letter c itself.  ``unit_first`` marks monoid mode,
    where ``elements[0]`` is the unit (the image of the empty word).
    """

    elements: list
    words: list[tuple[int, ...]]
    delta: list[list[int]]
    index: dict
    letter_targets: list[int]
    unit_first: bool

    def cayley_graph(self) -> list[list[int]]:
        """Transitions from the empty word's state 0: the unit in monoid
        mode, else a fresh start state, and element i is state i + 1."""
        if self.unit_first:
            return self.delta
        return [[1 + j for j in self.letter_targets]] + [[1 + j for j in row] for row in self.delta]


def generate_closure(
    images: Sequence,
    mul: Callable,
    unit,
    *,
    max_size: int | None = None,
) -> GeneratedClosure:
    limit = closure_limit(max_size)
    k = len(images)
    elements: list = []
    words: list[tuple[int, ...]] = []
    index: dict = {}

    def intern(e, w: tuple[int, ...]) -> int:
        j = index.get(e)
        if j is None:
            j = len(elements)
            if j >= limit:
                raise ResourceLimitError(f"submonoid closure exceeded {limit} elements")
            index[e] = j
            elements.append(e)
            words.append(w)
        return j

    if unit is not None:
        intern(unit, ())
    letter_targets = [intern(images[c], (c,)) for c in range(k)]
    delta: list[list[int]] = []
    i = 0
    while i < len(elements):
        row = []
        for c in range(k):
            row.append(intern(mul(elements[i], images[c]), words[i] + (c,)))
        delta.append(row)
        i += 1
    return GeneratedClosure(elements, words, delta, index, letter_targets, unit is not None)


def closure_language(
    alph: Alphabet, closure: GeneratedClosure, accept: Callable[[int], bool]
) -> Dfa:
    """Canonical DFA of the words whose closure class satisfies ``accept``."""
    off = not closure.unit_first
    acc = {i + off for i in range(len(closure.elements)) if accept(i)}
    return _canonical(alph, closure.cayley_graph(), acc, 0)


@dataclass(frozen=True)
class FiniteQuotient:
    """A finite quotient of the free monoid (semigroup) on an alphabet:
    the image submonoid of a morphism, with shortest-lex representative
    words for every element."""

    morphism: MonoidMorphism
    reps: tuple[Word, ...]

    @property
    def monoid(self) -> FiniteMonoid:
        return self.morphism.target

    @property
    def alphabet(self) -> Alphabet:
        return self.morphism.alphabet

    def class_of(self, w: "Word | Iterable[int]") -> int:
        return self.morphism.evaluate(w)

    def saturation(self, l: Dfa) -> frozenset[int] | None:
        """Accepting set realising L through this quotient, or None when L
        is not a union of classes: one walk over the reachable pairs
        (class, state of L), as in ``LanguageAlgebra.saturation``."""
        if l.alphabet != self.alphabet:
            raise InputError("language alphabet does not match the quotient")
        image = self.morphism.image()
        off = not image.unit_first
        accept = l.accepting.__contains__
        inside = _state_labels(image.cayley_graph(), l.transitions, l.initial, accept)
        if inside is None or (off and inside[0]):
            return None  # a class split by L, or the empty word in L
        return frozenset(image.elements[s - off] for s, hit in inside.items() if hit)


def transition_closure(
    alph: Alphabet,
    dfas: Sequence[Dfa],
    *,
    semigroup: bool,
    max_size: int | None = None,
) -> GeneratedClosure:
    """The transformations that words induce on the states of the DFAs:
    the letters acting on the disjoint union of the (deduplicated) DFAs'
    states, closed under composition, one element per tuple of target
    states.  For canonical DFAs two words share an element exactly when
    they share a syntactic class of every language.  In semigroup mode
    the empty word is left out, so it has no element of its own."""
    rows: list[list[int]] = []
    for d in dict.fromkeys(dfas):
        if d.alphabet != alph:
            raise InputError("the DFAs must share one alphabet")
        off = len(rows)
        rows += [[off + q for q in row] for row in d.transitions]
    letters = [tuple(row[c] for row in rows) for c in range(len(alph))]
    unit = None if semigroup else tuple(range(len(rows)))
    return generate_closure(
        letters, lambda x, y: tuple(map(y.__getitem__, x)), unit, max_size=max_size
    )


def _cayley_table(g: Sequence[Sequence[int]], off: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of the elements of a breadth-first numbered
    Cayley graph, element i being state i + off: entry (i, j) is the run
    from element i along element j's least word, one step per element
    along the breadth-first tree."""
    tree: list[tuple[int, int]] = []  # (parent, letter) of states 1, 2, ...
    for s, row in enumerate(g):
        for c, t in enumerate(row):
            if t == len(tree) + 1:
                tree.append((s, c))
    table = []
    for i in range(off, len(g)):
        run = [i]
        for s, c in tree:
            run.append(g[run[s]][c])
        table.append(tuple(x - off for x in run[off:]))
    return tuple(table)


def joint_quotient(dfas: Sequence[Dfa], *, max_size: int | None = None) -> FiniteQuotient:
    """The joint syntactic monoid of several languages: the transition
    closure of their canonical DFAs, with its table read off the Cayley
    graph."""
    if not dfas:
        raise InputError("need at least one language")
    alph = dfas[0].alphabet
    closure = transition_closure(alph, dfas, semigroup=False, max_size=max_size)
    monoid = FiniteMonoid(_cayley_table(closure.delta, 0), identity=0)
    morphism = MonoidMorphism(alph, monoid, tuple(closure.letter_targets))
    return FiniteQuotient(morphism, tuple(Word(alph, w) for w in closure.words))


# -- biactions -------------------------------------------------------------


@dataclass(frozen=True)
class Biaction:
    """Compatible left and right actions of a monoid on a finite carrier."""

    monoid: FiniteMonoid
    carrier: int
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.left, tuple):
            object.__setattr__(self, "left", tuple(tuple(r) for r in self.left))
        if not isinstance(self.right, tuple):
            object.__setattr__(self, "right", tuple(tuple(r) for r in self.right))
        m, n = self.monoid.size, self.carrier
        for comp in (self.left, self.right):
            if len(comp) != m or any(len(r) != n for r in comp):
                raise InputError("need one carrier self-map per monoid element")
            for row in comp:
                for v in row:
                    if not (0 <= v < n):
                        raise InputError("action component out of carrier range")
        defect = self.law_defect()
        if defect is not None:
            raise InputError(f"action laws violated: {defect}")

    def law_defect(self) -> str | None:
        m = self.monoid
        n = self.carrier
        if m.identity is not None:
            e = m.identity
            for x in range(n):
                if self.left[e][x] != x or self.right[e][x] != x:
                    return f"unit law fails at {x}"
        for a in range(m.size):
            for b in range(m.size):
                ab = m.table[a][b]
                for x in range(n):
                    if self.left[ab][x] != self.left[a][self.left[b][x]]:
                        return f"left composition fails at ({a},{b},{x})"
                    if self.right[ab][x] != self.right[b][self.right[a][x]]:
                        return f"right composition fails at ({a},{b},{x})"
                    if self.left[a][self.right[b][x]] != self.right[b][self.left[a][x]]:
                        return f"compatibility fails at ({a},{b},{x})"
        return None


def regular_biaction(m: FiniteMonoid) -> Biaction:
    """A monoid acting on itself by left and right multiplication."""
    n = m.size
    left = tuple(tuple(m.table[a][x] for x in range(n)) for a in range(n))
    right = tuple(tuple(m.table[x][a] for x in range(n)) for a in range(n))
    return Biaction(m, n, left, right)


def morphism_preserves_actions(
    carrier_map: Sequence[int],
    src: Biaction,
    dst: Biaction,
    monoid_map: Sequence[int] | None = None,
) -> bool:
    """Whether f . lambda_m = lambda_f(m) . f and the mirror law hold for
    every monoid element and carrier point.

    ``monoid_map`` defaults to ``carrier_map`` for the common case where
    the carrier is the monoid itself.
    """
    f = tuple(carrier_map)
    g = tuple(monoid_map) if monoid_map is not None else f
    if len(f) != src.carrier or len(g) != src.monoid.size:
        raise InputError("map sizes do not match the source structure")
    for m in range(src.monoid.size):
        fm = g[m]
        for x in range(src.carrier):
            if f[src.left[m][x]] != dst.left[fm][f[x]]:
                return False
            if f[src.right[m][x]] != dst.right[fm][f[x]]:
                return False
    return True
