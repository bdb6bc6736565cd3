"""Equation-based membership for the sum of an algebra with the trivial
algebra, at finite resolution.

Ultrafilters on words are approximated by elements of a finite quotient
of the free monoid: a word stands for its principal ultrafilter, and an
element of the quotient stands for the set of ultrafilters mapping to
it.  An equation is a pair of such points; a language recognised by the
quotient satisfies the equation when its saturation contains both
points or neither.

For a quotient-closed algebra B, the defining condition of the equation
set of "B plus marked concatenations with the full language" asks that
the two points lie in the same B-atom and that, letter by letter, the
factorisations p * eta(a) * q = point reach the same sets of B-atoms on
the prefix side.  The quotient the decision reads is the joint one of
B's atoms, their marked extensions and the candidate: the split closure
that ``schutz_sum`` runs, here for the sum of B with the trivial
algebra, with the candidate's syntactic machine riding along.  Its
elements are triples (B's element, split masks, K's element), and the
decision reads them as they are: B's machine is its atom machine, so
the first component is the element's B-atom, and the last one fixes
its side of K.  Every element of the quotient is realised by a word, so
a factorisation in the quotient is exactly a word factorisation of its
class, and the points p * eta(a) * q over all q are the states
reachable from p * eta(a) in the Cayley graph.  One pass of Tarjan's
algorithm labels the graph's strongly connected components; each
p * eta(a) sets the bit (a, B-atom of p) on its component, and one walk
down the condensation, sources first, ORs every component's bits into
its successors.  A point's signature is its B-atom with its component's
bits.  The decision builds no multiplication table and no
``FiniteQuotient``, and the table scans below are its independent
oracle.  A quotient from outside carries no labels: ``equation_set``
finds its B-atoms by one walk against B's atom machine (``_atom_map``),
and ``saturation`` finds a language's side by one walk against its
DFA.  The agreement with the direct closure oracle is re-validated
empirically by the verification campaigns rather than assumed.

A refutation's separation witness is read off the same sum as
``schutz_sum`` builds it, from the split closure, in both modes.  The
literal sum of the generators' DFAs (``_trivial_sum``), which closes
every marked concatenation's DFA, is built only where something is
compared against it: the direct oracle and the thm11 campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, PreconditionError
from .algebra import LanguageAlgebra, _literal_sum, _split_closure, schutz_sum, trivial_algebra
from .languages import (
    Dfa,
    Word,
    _check_indices,
    _letter_indices,
    _pairs,
    _state_labels,
    closure_ceiling,
    difference,
    intersection,
    marked_concat,
    universal_language,
)
from .marking import MarkedWord, prefix_to_mark, replace_at_mark
from .monoids import FiniteQuotient, GeneratedClosure, transition_closure


@dataclass(frozen=True)
class UltrafilterApprox:
    """A point of a finite quotient, standing for the ultrafilters on
    words that map to it; a word yields the point of its class."""

    quotient: FiniteQuotient
    point: int

    def __post_init__(self) -> None:
        _check_indices((self.point,), self.quotient.size, "point")

    @classmethod
    def of_word(cls, quotient: FiniteQuotient, w: "Word | Iterable[int]") -> "UltrafilterApprox":
        return cls(quotient, quotient.class_of(w))


@dataclass(frozen=True)
class EquationInstance:
    """A pair of ultrafilter approximants over one quotient."""

    mu: UltrafilterApprox
    nu: UltrafilterApprox

    def __post_init__(self) -> None:
        if self.mu.quotient != self.nu.quotient:
            raise InputError("equation sides must share a quotient")

    @property
    def quotient(self) -> FiniteQuotient:
        return self.mu.quotient


@dataclass(frozen=True)
class FactorizationClass:
    """A table factorisation point = prefix * letter * suffix, carrying
    the observable content of a marked-word preimage: replacing the
    marked letter lands in the class ``prefix * letter * suffix`` while
    the prefix before the mark lands in ``prefix``."""

    letter: int
    prefix_class: int
    suffix_class: int


def satisfies_equation(l: Dfa, e: EquationInstance) -> bool:
    """Whether the saturation of L contains both points or neither.

    L must be recognised by the equation's quotient; otherwise the
    equation's truth is not determined at this resolution.
    """
    sat = e.quotient.saturation(l)
    if sat is None:
        raise PreconditionError(
            "language is not recognised by the equation's quotient"
        )
    return (e.mu.point in sat) == (e.nu.point in sat)


def factorizations(
    q: FiniteQuotient, point: int, letter: "str | int"
) -> list[FactorizationClass]:
    """All (p, s) with p * eta(letter) * s = point, by table scan."""
    _check_indices((point,), q.size, "point")
    (a,) = _letter_indices(q.alphabet, (letter,))
    img = q.morphism.letter_images[a]
    table = q.monoid.table
    n = q.monoid.size
    out = []
    for p in range(n):
        pa = table[p][img]
        for s in range(n):
            if table[pa][s] == point:
                out.append(FactorizationClass(a, p, s))
    return out


def prefix_classes(mu: UltrafilterApprox, letter: "str | int") -> frozenset[int]:
    """The prefix sides of all factorisations of the point at the letter."""
    return frozenset(
        f.prefix_class for f in factorizations(mu.quotient, mu.point, letter)
    )


def _atom_map(q: FiniteQuotient, b: LanguageAlgebra) -> list[int]:
    """B-atom of each quotient element, by one walk over the reachable
    pairs (element, state of B's atom machine).  Refused unless the
    quotient recognises every atom of B, that is, unless the words of
    each element lie in one atom."""
    # a quotient and an algebra of different modes disagree on the empty word
    states = q.semigroup == b.semigroup and _state_labels(
        q.transitions, b.transitions, 0, lambda s: s
    )
    if not states:
        raise PreconditionError(
            "quotient does not recognise the algebra; equations undetermined"
        )
    off = b.semigroup  # in semigroup mode state 0 of both machines reads only ε
    return [states[s] - off for s in range(off, len(q.transitions))]


def in_equation_set(e: EquationInstance, b: LanguageAlgebra) -> bool:
    """Membership of the pair in the finite-resolution equation set:
    same B-atom, and for every letter the same set of prefix-side atoms."""
    q = e.quotient
    atom_of = _atom_map(q, b)
    if atom_of[e.mu.point] != atom_of[e.nu.point]:
        return False
    for a in range(len(q.alphabet)):
        mu_atoms = {atom_of[p] for p in prefix_classes(e.mu, a)}
        nu_atoms = {atom_of[p] for p in prefix_classes(e.nu, a)}
        if mu_atoms != nu_atoms:
            return False
    return True


# -- the joint quotient and the decision procedure --------------------------


def bsum2_quotient(
    k: Dfa, b: LanguageAlgebra, *, max_size: int | None = None
) -> FiniteQuotient:
    """Joint syntactic monoid of b's atoms, of every marked extension
    atom.c.(all words) and of the candidate K: the Cayley graph of
    ``_joint_closure``, without its labels.  ``max_size``, when given,
    is the closure ceiling of both closures."""
    with closure_ceiling(max_size):
        closure, _ = _joint_closure(k, b)
    return FiniteQuotient(b.alphabet, False, closure.transitions)


def _joint_closure(k: Dfa, b: LanguageAlgebra) -> tuple[GeneratedClosure, list[bool]]:
    """The split closure of the sum of b with the trivial algebra, with
    K's syntactic monoid riding along, and K's side of each element of
    that monoid.  A word w goes to the triple (m, S, t) of b's element
    of w, the bitmask S of the pairs (b's element of u, c) of the splits
    w = u c v, and w's element of K's syntactic monoid.  From b's
    element x, w enters atom.c.(all words) when S holds some (p, c)
    with x p = atom, and leads x to x m otherwise: (m, S) is what w does
    to b's atom machine and to every extension's minimal DFA.  m is
    w's B-atom, and w lies in K exactly when the side of t says so."""
    if b.semigroup:
        raise PreconditionError("equation machinery works over full-word algebras")
    if k.alphabet != b.alphabet:
        raise InputError("candidate and algebra must share an alphabet")
    # K's syntactic monoid is a quotient of the joint one, so its
    # ceiling is met only where the joint closure's would be
    rider = transition_closure(k.alphabet, [k], semigroup=False)
    trivial = ((0,) * len(b.alphabet),)  # the trivial algebra's one-state machine
    closure = _split_closure(b.transitions, trivial, rider.transitions)
    return closure, [f[k.initial] in k.accepting for f in rider.elements]


def _components(g: Sequence[Sequence[int]]) -> list[int]:
    """Strongly connected component number of each state of a graph, by
    one iterative pass of Tarjan's algorithm with an explicit next-edge
    index per open state.  Components are numbered in the order they
    close, so every edge leads to the same or a lower number."""
    n = len(g)
    number, low = [0] * n, [0] * n  # discovery numbers from 1; low: n + 1 once closed
    comp, nxt = [0] * n, [0] * n
    fresh = closed = 0
    opened: list[int] = []  # the states of the open components, in discovery order
    for root in range(n):
        if number[root]:
            continue
        fresh += 1
        number[root] = low[root] = fresh
        opened.append(root)
        path = [root]
        while path:
            v = path[-1]
            edges, i = g[v], nxt[v]
            while i < len(edges):
                w = edges[i]
                if not number[w]:
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
                i += 1
            nxt[v] = i
            if i < len(edges):  # descend, and take the edge again on return
                fresh += 1
                number[w] = low[w] = fresh
                opened.append(w)
                path.append(w)
                continue
            del path[-1]
            if low[v] == number[v]:  # v roots a component: close it
                while True:
                    w = opened.pop()
                    comp[w], low[w] = closed, n + 1
                    if w == v:
                        break
                closed += 1
    return comp


def _equation_signatures(
    g: Sequence[Sequence[int]], semigroup: bool, atom_of: Sequence[int], width: int
) -> list[tuple[int, int]]:
    """Per element x of the quotient with Cayley graph g: its B-atom
    ``atom_of[x]``, and the bitmask holding bit c * width + atom(p) for
    every letter c and every prefix side p of a factorisation
    p * c * s = x, that is, for every p from whose p * c the element is
    reachable (by a non-empty word in semigroup mode).  width is B's
    atom count.  Two elements form an equation of the sum exactly when
    their signatures coincide.  Each p * c sets its bit on its
    component, and the masks are pushed down the condensation, sources
    first.  The verdict reads the atoms off the joint closure's triples;
    ``equation_set`` finds them with ``_atom_map``."""
    comp = _components(g)
    masks = [0] * len(g)
    for p, atom in enumerate(atom_of):
        bit = 1 << atom
        for v in g[p + semigroup]:
            masks[comp[v]] |= bit
            bit <<= width
    # an edge never leads to a higher component: take the highest first
    for v in sorted(range(len(g)), key=comp.__getitem__, reverse=True):
        m = masks[comp[v]]
        for w in g[v]:
            masks[comp[w]] |= m
    if not semigroup:
        return [(atom, masks[comp[x]]) for x, atom in enumerate(atom_of)]
    # the suffix is non-empty: read each element one edge past its sources
    into = [0] * len(g)
    for v, row in enumerate(g):
        for w in row:
            into[w] |= masks[comp[v]]
    return [(atom, into[x + 1]) for x, atom in enumerate(atom_of)]


def equation_set(
    q: FiniteQuotient, b: LanguageAlgebra
) -> list[EquationInstance]:
    """All equations of the finite-resolution set over the quotient,
    with mu < nu (the reflexive pairs are omitted: they say nothing),
    ordered by mu and then nu."""
    sigs = _equation_signatures(q.transitions, q.semigroup, _atom_map(q, b), b.atom_count)
    groups: dict[tuple[int, int], list[int]] = {}
    for x, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(x)
    return [
        EquationInstance(UltrafilterApprox(q, i), UltrafilterApprox(q, j))
        for i, sig in enumerate(sigs)
        for j in groups[sig]
        if i < j
    ]


def bsum2_membership_by_equations(k: Dfa, b: LanguageAlgebra) -> bool:
    """Whether the candidate satisfies every finite-resolution equation
    of the sum of b with the trivial algebra.

    The contract — validated, not assumed — is agreement with direct
    membership in ``schutz_sum(b, trivial_algebra(...))``.
    """
    return _equations_hold(*_joint_closure(k, b), b)


def _equations_hold(closure: GeneratedClosure, sides: Sequence[bool], b: LanguageAlgebra) -> bool:
    """The verdict of ``bsum2_membership_by_equations`` on the joint
    closure of k and b and K's sides, as ``_joint_closure`` returns
    them.  Each element's B-atom is the first component of its triple
    and its side of K the side of the last one, so the Cayley graph is
    walked for the signatures alone: not against B's atom machine
    (``_atom_map``), nor against K's DFA (``saturation``)."""
    elements = closure.elements
    sigs = _equation_signatures(closure.transitions, False, [e[0] for e in elements], b.atom_count)
    # no signature may hold points on both sides of K
    side: dict[tuple[int, int], bool] = {}
    return all(
        side.setdefault(sig, sides[e[2]]) == sides[e[2]] for e, sig in zip(elements, sigs)
    )


def bsum2_membership_direct(k: Dfa, b: LanguageAlgebra) -> bool:
    """Oracle: direct closure membership in the sum with the trivial algebra."""
    return _trivial_sum(b).member(k)


def _trivial_sum(b: LanguageAlgebra) -> LanguageAlgebra:
    """The sum of b with the trivial algebra, as the closure of its
    literal generators' DFAs: no split-tracking triple, so the direct
    oracle shares no construction with ``bsum2_quotient`` or
    ``separation_witness``.  An oracle only: its callers are
    ``bsum2_membership_direct`` and the thm11 campaign, which checks
    each witness against its atoms."""
    return _literal_sum(b, trivial_algebra(b.alphabet, b.semigroup))


def separation_witness(k: Dfa, b: LanguageAlgebra) -> tuple[Word, Word] | None:
    """If the candidate is outside the sum, the shortlex-least words in
    and out of K of the least atom of the sum that K splits; None
    otherwise.  The sum is ``schutz_sum``'s, from the split closure of b
    and the trivial algebra, so no marked concatenation is built and the
    closure ceiling counts the split closure's states.  One walk over
    the reachable pairs (atom, state of K) finds the split atoms; only
    the least one's DFA is built."""
    if k.alphabet != b.alphabet:
        raise InputError("candidate and algebra must share an alphabet")
    return _split_words(k, schutz_sum(b, trivial_algebra(b.alphabet, b.semigroup)))


def _split_words(k: Dfa, total: LanguageAlgebra) -> tuple[Word, Word] | None:
    """``separation_witness`` against the built sum ``total``."""
    verdicts: dict[int, set[bool]] = {}
    for s, q in _pairs(total.transitions, 0, k.transitions, k.initial):
        verdicts.setdefault(s, set()).add(q in k.accepting)
    split = [s for s, v in verdicts.items() if len(v) == 2]
    if not split:
        return None
    atom = total.member_from_atoms([min(split) - total.semigroup])
    u = intersection(atom, k).shortest_accepted()
    v = difference(atom, k).shortest_accepted()
    return (Word(k.alphabet, u), Word(k.alphabet, v))


# -- lemma-level checks ------------------------------------------------------


def lemma_factor_violations(
    corpus: Sequence[Dfa], max_len: int = 5
) -> list[tuple[str, int, str, int]]:
    """Exhaustive principal-ultrafilter check of the factorisation lemma:
    returns (word, position, letter, corpus index) tuples violating it."""
    out = []
    for li, l in enumerate(corpus):
        alph = l.alphabet
        univ = universal_language(alph)
        exts = [marked_concat(l, c, univ) for c in range(len(alph))]
        for t in alph.tuples_upto(max_len, 1):
            w = Word(alph, t)
            for i in range(len(t)):
                mw = MarkedWord(w, i)
                if not l.accepts(prefix_to_mark(mw)):
                    continue
                for c in range(len(alph)):
                    if not exts[c].accepts(replace_at_mark(mw, c)):
                        out.append((w.text(), i, alph.letters[c], li))
    return out


def lemma_witness_check(
    q: FiniteQuotient, b: LanguageAlgebra, point: int, letter: "str | int"
) -> bool:
    """Finite form of the quasi-inverse lemma, restricted to principal
    filters of single atoms: whenever the point's class sits inside
    atom.letter.(all words), some factorisation reaches that atom on the
    prefix side; and conversely every prefix-side atom really yields
    such a containment."""
    (a,) = _letter_indices(q.alphabet, (letter,))
    univ = universal_language(b.alphabet)
    atom_of = _atom_map(q, b)
    reached = {atom_of[p] for p in prefix_classes(UltrafilterApprox(q, point), a)}
    for i, atom in enumerate(b.atoms):
        sat = q.saturation(marked_concat(atom, a, univ))
        # None: the quotient is too coarse for this check
        if sat is None or (point in sat) != (i in reached):
            return False
    return True
