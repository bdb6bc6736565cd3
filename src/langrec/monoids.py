"""Finite monoids and semigroups, morphisms from the free monoid, and
syntactic monoids of regular languages.

A ``FiniteMonoid`` with ``identity=None`` is treated as a plain
semigroup; constructions downstream (morphisms, recognised languages,
product monoids) honour that mode by working over non-empty words.
A finite quotient of the free monoid (``FiniteQuotient``) is its Cayley
graph, from which its table and evaluation morphism are read.  A closure
generated by letter images (``GeneratedClosure``) is one such graph with
a label per element; the languages it recognises are unions of its
elements' classes, picked by label.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import InputError, PreconditionError, ResourceLimitError
from .languages import Alphabet, Dfa, Word, _explore, _read_json, _state_labels, _trusted_dfa
from .languages import _as_table, _as_tuple, _check_alphabet, _check_flag, _check_indices, _refine
from .languages import _json_int, _json_ints, _letter_indices, closure_ceiling, closure_limit

_INT = frozenset({int})
_MAX_MORPHISMS = 1_000_000  # the letter-image assignments ``all_morphisms`` lists


def _associativity_defect(table: Sequence[Sequence[int | None]]) -> tuple[int, int, int] | None:
    """First (x, y, z) with (xy)z != x(yz), or None if associative, by
    the exhaustive triple loop.  A cell holding None is unfilled, and a
    triple that reads one is skipped: a defect among the filled cells
    stays in every completion, so the search of ``_associative_tables``
    prunes a partial table on it.  The tests use it as the oracle of
    ``_light_defect``."""
    rng = range(len(table))
    for x in rng:
        tx = table[x]
        for y in rng:
            xy = tx[y]
            if xy is None:
                continue
            txy = table[xy]
            ty = table[y]
            for z in rng:
                yz = ty[z]
                if yz is not None:
                    lhs, rhs = txy[z], tx[yz]
                    if lhs != rhs and lhs is not None and rhs is not None:
                        return (x, y, z)
    return None


def _light_defect(table: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """First (x, a, y) with (xa)y != x(ay), or None if associative, by
    Light's test (Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, section 1.2).  The elements a with (xa)y = x(ay) for
    every x and y are closed under products, so checking a generating
    set is complete; each check of an (a, x) compares row xa with x's
    row composed with a's.  The generating set is picked in index
    order: every element that the products of the earlier picks do not
    reach.  A breadth-first numbered table over k letters costs
    O(k n^2); one that needs every element, such as a left-zero
    semigroup, O(n^3).  So a pick that would take the generating set's
    size times n above ``closure_limit()`` is refused.  The tables the
    package builds are associative by construction and skip it."""
    n, limit = len(table), closure_limit()
    reached = bytearray(n)  # the subsemigroup generated by the picks
    picks: list[int] = []
    for a, row_a in enumerate(table):
        if reached[a]:
            continue
        if (len(picks) + 1) * n > limit:
            raise ResourceLimitError(
                f"associativity check of a {n}-element table exceeded {limit} rows"
                f" at generator {len(picks) + 1}; LANGREC_MAX_CLOSURE raises the ceiling"
            )
        composed = itemgetter(*row_a)  # for n = 1 an entry: the scan finds no y
        for x, tx in enumerate(table):
            xa = table[tx[a]]
            if xa != composed(tx):
                for y, v in enumerate(xa):
                    if v != tx[row_a[y]]:
                        return (x, a, y)
        picks.append(a)
        todo = [a] + [table[s][a] for s, r in enumerate(reached) if r]
        while todo:
            s = todo.pop()
            if not reached[s]:
                reached[s] = 1
                ts = table[s]
                todo += [ts[g] for g in picks]
    return None


@dataclass(frozen=True)
class FiniteMonoid:
    """Multiplication table; ``identity=None`` means semigroup mode.

    Light's test (``_light_defect``) checks a table given to the
    constructor, under the closure ceiling; built tables skip it.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _as_table(self.table, "a multiplication table"))
        n = len(self.table)
        if n == 0:
            raise InputError("a semigroup needs at least one element")
        for row in self.table:
            if len(row) != n:
                raise InputError("multiplication table must be square")
            if not _INT.issuperset(map(type, row)):  # a float, bool or string
                v = next(v for v in row if type(v) is not int)
                raise InputError(f"table entry {v!r} is not an integer")
            if min(row) < 0 or max(row) >= n:
                v = next(v for v in row if not 0 <= v < n)
                raise InputError(f"table entry {v} out of range")
        defect = _light_defect(self.table)
        if defect is not None:
            raise InputError(f"multiplication not associative at {defect}")
        if self.identity is not None:
            e = self.identity
            _check_indices((e,), n, "identity")
            for x in range(n):
                if self.table[e][x] != x or self.table[x][e] != x:
                    raise InputError(f"element {e} is not a two-sided identity")
        if self.labels is not None:
            object.__setattr__(self, "labels", _as_tuple(self.labels, "labels"))
            if len(self.labels) != n:
                raise InputError("labels must name every element")
            for name in self.labels:
                if not isinstance(name, str):
                    raise InputError(f"label {name!r} is not a string")

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
            table = tuple(map(_json_ints, data["table"]))
            identity = data.get("identity")
            labels = data.get("labels")
            if labels is not None and not isinstance(labels, list):
                raise InputError(f"labels must be a JSON list, got {labels!r}")
            m = cls(
                table,
                None if identity is None else _json_int(identity),
                None if labels is None else tuple(labels),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed monoid file: {exc}") from exc
        if m.size != _json_int(data.get("size", m.size)):
            raise InputError("declared size does not match the table")
        return m

    @classmethod
    def from_json(cls, text: str) -> "FiniteMonoid":
        return cls.from_json_dict(_read_json(text))

    def __repr__(self) -> str:
        kind = "Semigroup" if self.is_semigroup else "Monoid"
        return f"{kind}(size={self.size})"


def _trusted_monoid(table: tuple, identity: int | None, labels: tuple | None) -> FiniteMonoid:
    """The ``FiniteMonoid`` of a table associative by construction, as
    the package's own tables are: no entry check, no identity scan and
    no Light's test."""
    m = object.__new__(FiniteMonoid)
    vars(m).update(table=table, identity=identity, labels=labels)
    return m


TRIVIAL_MONOID = FiniteMonoid(((0,),), identity=0, labels=("1",))


# -- enumeration of small tables -----------------------------------------


def _associative_tables(n: int, identity: int | None) -> list[tuple[tuple[int, ...], ...]]:
    """Every associative table on {0..n-1} with ``identity`` (None or an
    element) a two-sided identity, in lexicographic order: a depth-first
    search that fills the free cells row-major, each with the values in
    ascending order, and drops a partial table at the first defect the
    triple loop finds among its filled cells."""
    rows: list[list[int | None]] = [[None] * n for _ in range(n)]
    if identity is not None:
        for x in range(n):
            rows[identity][x] = rows[x][identity] = x
    free = [(x, y) for x in range(n) for y in range(n) if rows[x][y] is None]
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill(k: int) -> None:
        if k == len(free):
            out.append(tuple(map(tuple, rows)))
            return
        x, y = free[k]
        for v in range(n):
            rows[x][y] = v
            if _associativity_defect(rows) is None:
                fill(k + 1)
        rows[x][y] = None

    fill(0)
    return out


def _check_enumeration_size(n: int, cap: int, what: str) -> None:
    """Refuse a size that is no positive integer (True, 2.0 and [2] are
    none), and one above the enumeration's cap."""
    if type(n) is not int or n < 1:
        raise InputError(f"{what} size must be a positive integer, got {n!r}")
    if n > cap:
        raise ResourceLimitError(f"exhaustive {what} enumeration is capped at size {cap}")


@lru_cache(maxsize=None)
def _enumeration(n: int, identity: int | None) -> tuple[FiniteMonoid, ...]:
    """The associative tables on {0..n-1} with the given identity, cached
    behind the size checks of the two public enumerations."""
    return tuple(_trusted_monoid(t, identity, None) for t in _associative_tables(n, identity))


def enumerate_semigroups(n: int) -> tuple[FiniteMonoid, ...]:
    """All associative multiplication tables on {0..n-1} (labelled, no identity)."""
    _check_enumeration_size(n, 3, "semigroup")
    return _enumeration(n, None)


def enumerate_monoids(n: int) -> tuple[FiniteMonoid, ...]:
    """All associative tables on {0..n-1} with element 0 a two-sided identity."""
    _check_enumeration_size(n, 4, "monoid")
    return (TRIVIAL_MONOID,) if n == 1 else _enumeration(n, 0)


# either name clears the one cache behind both
enumerate_semigroups.cache_clear = enumerate_monoids.cache_clear = _enumeration.cache_clear


# -- morphisms ------------------------------------------------------------


@dataclass(frozen=True)
class MonoidMorphism:
    """Morphism from the free monoid (or semigroup) on an alphabet,
    presented by one target element per letter."""

    alphabet: Alphabet
    target: FiniteMonoid
    letter_images: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_alphabet(self.alphabet, "a morphism's alphabet")
        object.__setattr__(self, "letter_images", _as_tuple(self.letter_images, "letter images"))
        if len(self.letter_images) != len(self.alphabet):
            raise InputError("need exactly one image per letter")
        _check_indices(self.letter_images, self.target.size, "letter image")

    def evaluate(self, w: "Word | Iterable[str | int]") -> int:
        idxs = _letter_indices(self.alphabet, w)
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

    @cached_property
    def image(self) -> "GeneratedClosure":
        """The image submonoid (subsemigroup), generated by the letter
        images and labelled by element indices of the target; built once,
        with its Cayley quotient, for every preimage."""
        m = self.target
        with closure_ceiling(m.size):
            return generate_closure(self.letter_images, lambda x, y: m.table[x][y], m.identity)

    def preimage(self, accept: Iterable[int]) -> Dfa:
        """Canonical DFA of the inverse image of a set of elements."""
        want = _elements(accept, self.target.size)
        return self.image.language(self.alphabet, want.__contains__)


def _elements(values: Iterable[int], n: int) -> frozenset[int]:
    """The values as a set of elements 0..n-1, each one checked."""
    values = _as_tuple(values, "the elements")
    _check_indices(values, n, "element")
    return frozenset(values)


def all_morphisms(alph: Alphabet, m: FiniteMonoid) -> list[MonoidMorphism]:
    """Every letter-image assignment, in lexicographic order."""
    _check_alphabet(alph, "a morphism's alphabet")
    total = m.size ** len(alph)
    if total > _MAX_MORPHISMS:
        raise ResourceLimitError(f"{total} morphisms exceed the enumeration bound {_MAX_MORPHISMS}")
    return [
        MonoidMorphism(alph, m, images)
        for images in itertools.product(range(m.size), repeat=len(alph))
    ]


# -- syntactic monoids -----------------------------------------------------


def syntactic_monoid(l: Dfa) -> FiniteQuotient:
    """The joint quotient of L alone: its ``monoid`` is the syntactic
    monoid, ``morphism`` the evaluation and ``saturation(l)`` the
    elements whose words lie in L."""
    return joint_quotient([l])


def is_minimal_recogniser(m: FiniteMonoid, accept: Iterable[int]) -> bool:
    """No proper quotient of m still separates `accept` from its
    complement.  Refining {accept, rest} until two elements x, y share a
    block only when x a, y a and a x, a y do for every element a gives
    the coarsest congruence that saturates `accept`; m is minimal when
    it parts every element."""
    want = _elements(accept, m.size)
    edges = [row + col for row, col in zip(m.table, zip(*m.table))]
    return len(set(_refine(edges, [x in want for x in m.elements()]))) == m.size


# -- generated submonoids and finite quotients of the free monoid ----------


@dataclass
class GeneratedClosure:
    """Submonoid (or subsemigroup) generated by abstract letter images:
    the Cayley graph ``transitions`` of a ``FiniteQuotient`` with a label
    per element.  ``elements`` lists the distinct products in discovery
    order, which is breadth-first over words in shortlex order, so
    ``elements[i]`` labels the quotient's element i."""

    elements: list
    transitions: list[tuple[int, ...]]
    semigroup: bool
    _quotient: "FiniteQuotient | None" = field(default=None, init=False, repr=False, compare=False)

    def quotient(self, alph: Alphabet) -> "FiniteQuotient":
        """The Cayley graph as a finite quotient over alph, built once and
        kept for the closure's next language."""
        if self._quotient is None or self._quotient.alphabet != alph:
            self._quotient = FiniteQuotient(alph, self.semigroup, self.transitions)
        return self._quotient

    def language(self, alph: Alphabet, accept: Callable[[object], bool]) -> Dfa:
        """Canonical DFA of the words whose element's label satisfies
        ``accept``."""
        return self.quotient(alph).union_language(
            i for i, e in enumerate(self.elements) if accept(e)
        )


def generate_closure(images: Sequence, mul: Callable, unit) -> GeneratedClosure:
    """The closure of the images under ``mul``, numbered as a
    ``FiniteQuotient``: state 0 is the unit, or with ``unit=None`` a
    start state of its own, after which element i is state i + 1."""
    limit = closure_limit()
    semigroup = unit is None
    start = object() if semigroup else unit  # the empty word's own state

    def step(x) -> Iterable:  # one product at a time, each dropped once numbered
        return images if semigroup and x is start else map(mul, itertools.repeat(x), images)

    states, transitions = _explore(  # a semigroup's start state is no element
        start, step, limit + semigroup, f"submonoid closure exceeded {limit} elements"
    )
    return GeneratedClosure(states[semigroup:], transitions, semigroup)


_BITS = tuple(1 << i for i in range(8))


class _ByteUnion(dict):
    """Non-zero byte value -> OR of the masks of its set bits, given the
    mask of each single bit and filled on first sight."""

    def __missing__(self, b: int) -> int:
        low = b & -b
        mask = self[b ^ low] | self[low]
        self[b] = mask
        return mask


@dataclass(frozen=True)
class FiniteQuotient:
    """A finite quotient of the free monoid (semigroup) on an alphabet,
    held as its Cayley graph: ``transitions`` reads a word from state 0
    to its element.  The graph is numbered breadth-first, letters in
    alphabet order, so the elements come in shortlex order of their
    least words.  Element i is state i; in semigroup mode it is state
    i + 1, and only the empty word reaches state 0.  Representatives,
    table and evaluation morphism are read off the graph on first use.
    The constructor checks that the words' kernel is a congruence: with
    c.s the state of letter c followed by s's least word, c.t = (c.s) d
    on each edge s -d-> t off the breadth-first tree, in O(n k^2)."""

    alphabet: Alphabet
    semigroup: bool
    transitions: tuple[tuple[int, ...], ...]
    # (parent, letter) of states 1, 2, ...: the breadth-first tree
    _tree: list[tuple[int, int]] = field(init=False, repr=False, compare=False)
    # per letter c, its left action: the state c.s of each state s
    _left: tuple[list[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_alphabet(self.alphabet, "a quotient's alphabet")
        _check_flag(self.semigroup, "semigroup")
        g = _as_table(self.transitions, "a Cayley graph")
        if not g:
            raise InputError("a Cayley graph needs the empty word's state")
        unnumbered = "the Cayley graph is not numbered breadth-first"
        tree: list[tuple[int, int]] = []
        loose: list[tuple[int, int, int]] = []  # the edges off the tree
        seen = 1  # states numbered so far
        for s, row in enumerate(g):
            if len(row) != len(self.alphabet):
                raise InputError("every Cayley graph state needs one transition per letter")
            if s >= seen:
                raise InputError(unnumbered)  # no earlier state leads to s
            for c, t in enumerate(row):
                if t == seen < len(g):
                    tree.append((s, c))
                    seen += 1
                elif self.semigroup <= t < seen:
                    loose.append((s, c, t))
                else:
                    raise InputError(unnumbered)
        left = []
        for c, first in enumerate(g[0]):
            lt = [first]
            for s, d in tree:
                lt.append(g[lt[s]][d])
            for s, d, t in loose:
                if lt[t] != g[lt[s]][d]:
                    c, d = self.alphabet.letters[c], self.alphabet.letters[d]
                    raise InputError(f"not a Cayley graph: words of state {s} followed by"
                                     f" {d!r} reach state {t}, but preceded by {c!r} they split")
            left.append(lt)
        vars(self).update(transitions=g, _tree=tree, _left=tuple(left))

    @property
    def size(self) -> int:
        return len(self.transitions) - self.semigroup

    @cached_property
    def reps(self) -> tuple[Word, ...]:
        """The shortlex-least word of each element, in increasing order."""
        words: list[tuple[int, ...]] = [()]
        for s, c in self._tree:
            words.append(words[s] + (c,))
        return tuple(Word(self.alphabet, w) for w in words[self.semigroup :])

    @cached_property
    def monoid(self) -> FiniteMonoid:
        """The multiplication table, labelled by the representatives:
        entry (i, j) is the run from element i along element j's least
        word, one step per element along the breadth-first tree."""
        g, off = self.transitions, self.semigroup
        table = []
        for i in range(off, len(g)):
            run = [i]
            for s, c in self._tree:
                run.append(g[run[s]][c])
            table.append(tuple(x - off for x in run[off:]))
        try:
            labels = tuple(r.text() for r in self.reps)
        except InputError:  # a letter name holding both quote characters has no text
            labels = None
        return _trusted_monoid(tuple(table), None if off else 0, labels)

    @cached_property
    def morphism(self) -> MonoidMorphism:
        """The evaluation morphism, sending each word to its element."""
        images = tuple(t - self.semigroup for t in self.transitions[0])
        return MonoidMorphism(self.alphabet, self.monoid, images)

    @cached_property
    def _preimage_bytes(self) -> tuple[tuple[_ByteUnion, ...], ...]:
        """Per letter c and per 8 states 8k..8k+7, the table that maps a
        non-zero byte of a state set (bit i for state 8k + i) to the
        preimage of those states under c's left action y -> c.y, which
        the constructor computed."""
        g = self.transitions
        tables = []
        for lt in self._left:
            pre = [0] * len(g)
            for y, x in enumerate(lt):
                pre[x] |= 1 << y
            starts = range(0, len(g), 8)
            tables.append(tuple(_ByteUnion(zip(_BITS, pre[k : k + 8])) for k in starts))
        return tuple(tables)

    def union_language(self, elements: Iterable[int]) -> Dfa:
        """Canonical DFA of the union of the given elements' classes: the
        one-union case of ``union_languages``."""
        return self.union_languages((elements,))[0]

    def union_languages(self, unions: Iterable[Iterable[int]]) -> tuple[Dfa, ...]:
        """Canonical DFA of the union of each given collection of
        elements' classes, in order, with no minimisation.  The state of
        a word u is the bitmask of the graph's states y such that u
        followed by y's words lands in the union; reading c takes the
        preimage of that set under c's left action, a byte of the mask at
        a time, and a set accepts when it holds state 0.  Distinct sets
        are distinct quotients of the union, since the states' word sets
        are disjoint and non-empty, so the sets numbered breadth-first,
        letters in order, are the canonical DFA.  This needs the graph
        to be a Cayley graph, where a word's state fixes where it leads
        every state, which the constructor checked.  Every index is
        checked before any walk.  Several unions share one walk, from a
        root whose successors are their start sets, so a set reached
        from many starts is stepped once; each DFA is then the
        breadth-first renumbering of the part its start reaches."""
        n, off = self.size, self.semigroup
        starts = []
        for elements in _as_tuple(unions, "the unions"):
            elements = _as_tuple(elements, "a union's elements")
            _check_indices(elements, n, "element index")
            start = 0
            for i in elements:
                start |= 1 << (i + off)
            starts.append(start)
        if not starts:
            return ()
        tables = self._preimage_bytes
        nbytes = len(tables[0])

        def step(v: int) -> list[int]:
            chunks = [(k, b) for k, b in enumerate(v.to_bytes(nbytes, "little")) if b]
            out = []
            for chunk_tables in tables:
                w = 0
                for k, b in chunks:
                    w |= chunk_tables[k][b]
                out.append(w)
            return out

        if len(starts) == 1:  # the start's own order: no root, no renumbering
            order, rows = _explore(starts[0], step)
            accepting = frozenset(i for i, v in enumerate(order) if v & 1)
            return (_trusted_dfa(self.alphabet, tuple(rows), accepting),)
        order, graph = _explore(None, lambda v: starts if v is None else step(v))
        accepts = [v is not None and v & 1 for v in order]
        del order  # the sets themselves: only their acceptance is read again
        out = []
        for j in graph[0]:
            sub, rows = _explore(j, graph.__getitem__)
            accepting = frozenset(i for i, s in enumerate(sub) if accepts[s])
            out.append(_trusted_dfa(self.alphabet, tuple(rows), accepting))
        return tuple(out)

    def class_of(self, w: "Word | Iterable[str | int]") -> int:
        """The element of a word, given as a ``Word`` over the alphabet or
        by letter names or indices: one run of the Cayley graph."""
        idxs = _letter_indices(self.alphabet, w)
        if self.semigroup and not idxs:
            raise PreconditionError("the empty word is outside a semigroup-mode universe")
        t = self.transitions
        s = 0
        for c in idxs:
            s = t[s][c]
        return s - self.semigroup

    def saturation(self, l: Dfa) -> frozenset[int] | None:
        """The elements whose union is L, or None when L is not a union
        of classes: one walk over the reachable pairs (state of the
        Cayley graph, state of L)."""
        if l.alphabet != self.alphabet:
            raise InputError("language alphabet does not match the quotient")
        inside = _state_labels(self.transitions, l.transitions, l.initial, l.accepting.__contains__)
        if inside is None or (self.semigroup and inside[0]):
            return None  # a class split by L, or the empty word in L
        return frozenset(s - self.semigroup for s, hit in inside.items() if hit)


def transition_closure(alph: Alphabet, dfas: Sequence[Dfa], *, semigroup: bool) -> GeneratedClosure:
    """The transformations that words induce on the states of the DFAs:
    the letters acting on the disjoint union of the (deduplicated) DFAs'
    states, closed under composition, one element per tuple of target
    states.  Two words share an element exactly when they share a
    syntactic class of every language.  In semigroup mode the empty
    word is left out, so it has no element of its own."""
    _check_alphabet(alph, "a closure's alphabet")
    rows: list[list[int]] = []
    for d in dict.fromkeys(dfas):
        if d.alphabet != alph:
            raise InputError("the DFAs must share one alphabet")
        off = len(rows)
        rows += [[off + q for q in row] for row in d.transitions]
    letters = [tuple(row[c] for row in rows) for c in range(len(alph))]
    unit = None if semigroup else tuple(range(len(rows)))
    return generate_closure(letters, lambda x, y: tuple(map(y.__getitem__, x)), unit)


def joint_quotient(dfas: Sequence[Dfa]) -> FiniteQuotient:
    """The joint syntactic monoid of several languages: the Cayley graph
    of the transition closure of their DFAs."""
    dfas = _as_tuple(dfas, "the languages")
    if not dfas:
        raise InputError("need at least one language")
    alph = dfas[0].alphabet
    return transition_closure(alph, dfas, semigroup=False).quotient(alph)


# -- biactions -------------------------------------------------------------


@dataclass(frozen=True)
class Biaction:
    """Compatible left and right actions of a monoid on a finite carrier."""

    monoid: FiniteMonoid
    carrier: int
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", _as_table(self.left, "a left action"))
        object.__setattr__(self, "right", _as_table(self.right, "a right action"))
        m, n = self.monoid.size, self.carrier
        for comp in (self.left, self.right):
            if len(comp) != m or any(len(r) != n for r in comp):
                raise InputError("need one carrier self-map per monoid element")
            for row in comp:
                _check_indices(row, n, "action component")
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
    f = _as_tuple(carrier_map, "a carrier map")
    g = _as_tuple(monoid_map, "a monoid map") if monoid_map is not None else f
    if len(f) != src.carrier or len(g) != src.monoid.size:
        raise InputError("map sizes do not match the source structure")
    _elements(f, dst.carrier)
    _elements(g, dst.monoid.size)
    for m in range(src.monoid.size):
        fm = g[m]
        for x in range(src.carrier):
            if f[src.left[m][x]] != dst.left[fm][f[x]]:
                return False
            if f[src.right[m][x]] != dst.right[fm][f[x]]:
                return False
    return True
