"""Finite quotient-closed Boolean algebras of regular languages.

The atoms of such an algebra form a congruence of the free monoid
(semigroup), so an algebra is stored as its atom machine: the minimal
automaton whose states are the atoms (plus a start state for the empty
word in semigroup mode), numbered breadth-first so that atom i is the
i-th atom met in shortlex order.  Two algebras over one universe are
equal exactly when their machines are.  A word's atom is one run; a
language is a member when one walk over the reachable (atom, state of
L) pairs finds no atom split by it.  Atom DFAs and representative words
are built on first use.  With atom(u) * atom(v) = atom(uv) and the
evaluation morphism, the machine is the algebra's dual recogniser.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError, InvariantError, PreconditionError, ResourceLimitError
from .languages import (
    Alphabet,
    Dfa,
    Word,
    _canonical,
    _minimise,
    _state_labels,
    intersection,
    left_quotient,
    marked_concat,
    nonempty_universal,
    right_quotient,
    universal_language,
)
from .limits import closure_limit
from .monoids import FiniteMonoid, FiniteQuotient, MonoidMorphism, all_morphisms, generate_closure

_DEFAULT_MAX_ATOMS = 4000
_MEMBER_LIST_LIMIT = 16


@dataclass(frozen=True)
class LanguageAlgebra:
    """Quotient-closed Boolean subalgebra of the languages over an
    alphabet, stored as its atom machine.  ``semigroup=True`` makes the
    universe the non-empty words and complements relative to it; state
    0 of the machine is then the empty word's, and atom i is state
    i + 1."""

    alphabet: Alphabet
    semigroup: bool
    generators: tuple[Dfa, ...]
    transitions: tuple[tuple[int, ...], ...]

    @property
    def atom_count(self) -> int:
        return len(self.transitions) - self.semigroup

    @cached_property
    def atoms(self) -> tuple[Dfa, ...]:
        """The atoms as canonical DFAs, in machine order."""
        return tuple(self.member_from_atoms((i,)) for i in range(self.atom_count))

    @cached_property
    def atom_reps(self) -> tuple[Word, ...]:
        """The shortlex-least word of each atom, in increasing order."""
        words: list[tuple[int, ...]] = [()]
        for s, row in enumerate(self.transitions):
            for c, t in enumerate(row):
                if t == len(words):  # breadth-first numbering: t is new
                    words.append(words[s] + (c,))
        return tuple(Word(self.alphabet, w) for w in words[self.semigroup :])

    def member_count(self) -> int:
        return 2 ** self.atom_count

    def atom_of(self, w: "Word | Iterable[int]") -> int:
        """Index of the atom containing the word."""
        idxs = w.indices if isinstance(w, Word) else tuple(w)
        if self.semigroup and not idxs:
            raise PreconditionError("the empty word is outside a semigroup-mode universe")
        t = self.transitions
        s = 0
        for c in idxs:
            s = t[s][c]
        return s - self.semigroup

    def saturation(self, l: Dfa) -> frozenset[int] | None:
        """Atom indices whose union is L, or None when L is not a member."""
        if l.alphabet != self.alphabet:
            raise InputError("language alphabet does not match the algebra")
        inside = _state_labels(self.transitions, l.transitions, l.initial, l.accepting.__contains__)
        if inside is None or (self.semigroup and inside[0]):
            return None  # an atom split by L, or the empty word in L
        return frozenset(s - self.semigroup for s, hit in inside.items() if hit)

    def member(self, l: Dfa) -> bool:
        return self.saturation(l) is not None

    def member_from_atoms(self, atom_indices: Iterable[int]) -> Dfa:
        accepting = set()
        for i in atom_indices:
            if not 0 <= i < self.atom_count:
                raise InputError(f"atom index {i} out of range")
            accepting.add(i + self.semigroup)
        return _canonical(self.alphabet, self.transitions, accepting, 0)

    def members(self, max_atoms: int = _MEMBER_LIST_LIMIT) -> Iterator[Dfa]:
        """All members, smallest saturations first; guarded against blowup."""
        n = self.atom_count
        if n > max_atoms:
            raise ResourceLimitError(
                f"member list of 2^{n} languages exceeds the materialisation bound"
            )
        for mask in range(2**n):
            yield self.member_from_atoms(i for i in range(n) if mask >> i & 1)

    def __repr__(self) -> str:
        mode = "semigroup" if self.semigroup else "monoid"
        return f"LanguageAlgebra({self.alphabet!r}, {mode}, atoms={self.atom_count})"


def algebra_equal(b1: LanguageAlgebra, b2: LanguageAlgebra) -> bool:
    """Equality of algebras via their canonical atom machines."""
    return (
        b1.alphabet == b2.alphabet
        and b1.semigroup == b2.semigroup
        and b1.transitions == b2.transitions
    )


def algebra_leq(b1: LanguageAlgebra, b2: LanguageAlgebra) -> bool:
    """Whether every member of b1 is a member of b2: the words that lead
    b2's machine to one state all lead b1's machine to one state."""
    if b1.alphabet != b2.alphabet:
        raise InputError("algebras over different alphabets")
    if b2.semigroup and not b1.semigroup:
        return False  # b1's universe holds the empty word, b2's does not
    return _state_labels(b2.transitions, b1.transitions, 0, lambda s: s) is not None


# -- construction ---------------------------------------------------------


def _quotient_closure(
    gens: Sequence[Dfa],
    alph: Alphabet,
    semigroup: bool,
    max_generators: int,
) -> list[Dfa]:
    universe = nonempty_universal(alph) if semigroup else universal_language(alph)
    out: dict[Dfa, None] = {}
    queue: list[Dfa] = []
    for g in gens:
        g = intersection(g, universe) if semigroup else g
        if g not in out:
            out[g] = None
            queue.append(g)
    i = 0
    single = [Word(alph, (c,)) for c in range(len(alph))]
    while i < len(queue):
        l = queue[i]
        i += 1
        for w in single:
            for q in (left_quotient(w, l), right_quotient(l, w)):
                if semigroup:
                    q = intersection(q, universe)
                if q not in out:
                    if len(out) >= max_generators:
                        raise ResourceLimitError(
                            f"quotient closure exceeded {max_generators} languages"
                        )
                    out[q] = None
                    queue.append(q)
    return list(out)


def _refinement(
    family: Sequence[Dfa],
    alph: Alphabet,
    max_states: int,
) -> tuple[list[list[int]], list[tuple]]:
    """Reachable product automaton of the family.

    Returns (delta, state_labels) where a label is the membership
    profile of the words reaching that state."""
    k = len(alph)
    start = tuple(d.initial for d in family)
    states = [start]
    pos = {start: 0}
    delta: list[list[int]] = []
    i = 0
    while i < len(states):
        s = states[i]
        row = []
        for c in range(k):
            t = tuple(d.transitions[q][c] for d, q in zip(family, s))
            j = pos.get(t)
            if j is None:
                j = len(states)
                if j >= max_states:
                    raise ResourceLimitError(
                        f"algebra refinement exceeded {max_states} product states"
                    )
                pos[t] = j
                states.append(t)
            row.append(j)
        delta.append(row)
        i += 1

    labels = [
        tuple(q in d.accepting for d, q in zip(family, s)) for s in states
    ]
    return delta, labels


def generate_algebra(
    generators: Sequence[Dfa],
    alph: Alphabet | None = None,
    *,
    semigroup: bool = False,
    max_generators: int | None = None,
    max_states: int | None = None,
    max_atoms: int = _DEFAULT_MAX_ATOMS,
) -> LanguageAlgebra:
    """Smallest quotient-closed Boolean algebra containing the generators.

    The quotient closure of the generators is closed under right
    quotients by letters, so a word's membership profile fixes the
    profile of each one-letter extension: the profiles label the atoms
    of the refinement automaton, and minimising it by them gives the
    atom machine."""
    if alph is None:
        if not generators:
            raise InputError("need an alphabet when no generators are given")
        alph = generators[0].alphabet
    for g in generators:
        if g.alphabet != alph:
            raise InputError("generators must share one alphabet")
    closure = _quotient_closure(
        generators, alph, semigroup, closure_limit(max_generators)
    )
    # in semigroup mode a guard component separates the empty word from
    # any non-empty word that happens to share its membership profile
    family = ([nonempty_universal(alph)] if semigroup else []) + closure
    delta, labels = _refinement(family, alph, closure_limit(max_states))
    transitions, _ = _minimise(delta, labels)
    count = len(transitions) - semigroup
    if count > max_atoms:
        raise ResourceLimitError(f"{count} atoms exceed the bound {max_atoms}")
    universe_gens = tuple(
        intersection(g, nonempty_universal(alph)) if semigroup else g
        for g in generators
    )
    return LanguageAlgebra(alph, semigroup, universe_gens, transitions)


def trivial_algebra(alph: Alphabet, semigroup: bool = False) -> LanguageAlgebra:
    return generate_algebra([], alph, semigroup=semigroup)


def membership(l: Dfa, b: LanguageAlgebra) -> bool:
    return b.member(l)


# -- transport along alphabet substitutions -------------------------------


def inverse_image(
    letter_map: Mapping[str, "str | Word"],
    l: Dfa,
    source: Alphabet,
) -> Dfa:
    """Inverse image of L under the morphism sending each source letter
    to a word over L's alphabet."""
    k = len(source)
    images: list[tuple[int, ...]] = []
    for name in source.letters:
        if name not in letter_map:
            raise InputError(f"letter {name!r} has no image")
        img = letter_map[name]
        w = img if isinstance(img, Word) else Word.parse(l.alphabet, img)
        if w.alphabet != l.alphabet:
            raise InputError("letter images must be words over the target alphabet")
        images.append(w.indices)
    trans = [
        [l.run(q, images[c]) for c in range(k)] for q in range(l.states)
    ]
    return _canonical(source, trans, l.accepting, l.initial)


def transport(
    letter_map: Mapping[str, "str | Word"],
    b: LanguageAlgebra,
    source: Alphabet,
    **bounds,
) -> LanguageAlgebra:
    """The algebra of inverse images of b's members, quotient-closed."""
    gens = [inverse_image(letter_map, a, source) for a in b.atoms]
    return generate_algebra(gens, source, semigroup=b.semigroup, **bounds)


# -- the binary sum (marked concatenations adjoined) -----------------------


def schutz_sum(b1: LanguageAlgebra, b2: LanguageAlgebra, **bounds) -> LanguageAlgebra:
    """Algebra generated by both operands plus every marked concatenation
    A1 a A2 of their atoms.  Marked concatenation distributes over union
    in both arguments, so atom-level generators span all members."""
    if b1.alphabet != b2.alphabet or b1.semigroup != b2.semigroup:
        raise InputError("operands must live over the same universe")
    alph = b1.alphabet
    gens: list[Dfa] = list(b1.atoms) + list(b2.atoms)
    for a1 in b1.atoms:
        for c in range(len(alph)):
            for a2 in b2.atoms:
                gens.append(marked_concat(a1, c, a2))
    return generate_algebra(gens, alph, semigroup=b1.semigroup, **bounds)


# -- dual recogniser -------------------------------------------------------


@dataclass(frozen=True)
class DualRecogniser:
    """The atoms of a quotient-closed algebra with their concatenation
    monoid and the evaluation morphism sending a word to its atom."""

    algebra: LanguageAlgebra
    quotient: FiniteQuotient

    @property
    def monoid(self) -> FiniteMonoid:
        return self.quotient.monoid

    @property
    def tau(self) -> MonoidMorphism:
        return self.quotient.morphism


def dual_recogniser(b: LanguageAlgebra) -> DualRecogniser:
    """Atoms as a finite recogniser: atom(u) * atom(v) := atom(uv).

    Well-definedness comes from quotient closure; it is re-checked on
    representatives here and more thoroughly by ``check_dual_well_defined``.
    """
    reps = b.atom_reps
    words = [r.indices for r in reps]
    try:
        table = tuple(tuple(b.atom_of(u + v) for v in words) for u in words)
        identity = None if b.semigroup else 0
        labels = tuple(r.text() for r in reps)
        monoid = FiniteMonoid(table, identity=identity, labels=labels)
    except InputError as exc:
        raise InvariantError(f"atom multiplication is ill-defined: {exc}") from exc
    letter_images = tuple(b.atom_of((c,)) for c in range(len(b.alphabet)))
    morphism = MonoidMorphism(b.alphabet, monoid, letter_images)
    return DualRecogniser(b, FiniteQuotient(morphism, reps))


def check_dual_well_defined(
    b: LanguageAlgebra, dual: DualRecogniser, max_len: int = 4
) -> bool:
    """Exhaustively re-derive the atom multiplication from all short words:
    any two words in one atom must act identically on every atom."""
    table = dual.monoid.table
    min_len = 1 if b.semigroup else 0
    for t in b.alphabet.tuples_upto(max_len, min_len):
        i = b.atom_of(t)
        if dual.tau.evaluate(t) != i:
            return False
        for u in b.alphabet.tuples_upto(max_len, min_len):
            if b.atom_of(t + u) != table[i][b.atom_of(u)]:
                return False
    return True


# -- algebras recognised by a fixed monoid ---------------------------------


def recognised_algebra(
    m: FiniteMonoid,
    alph: Alphabet,
    *,
    semigroup: bool | None = None,
    max_morphisms: int = 1_000_000,
    max_size: int | None = None,
    max_atoms: int = _DEFAULT_MAX_ATOMS,
) -> LanguageAlgebra:
    """Boolean algebra generated by every preimage h^-1(V) over every
    morphism h from the free monoid (semigroup) into m.

    Its atoms are the fibres of the product of all morphisms, i.e. the
    classes of words with one evaluation per morphism; these are computed
    directly by closing the tuple of letter evaluations.
    """
    if semigroup is None:
        semigroup = m.is_semigroup
    if semigroup is False and m.is_semigroup:
        raise InputError("monoid-mode algebra needs a monoid with identity")
    hs = all_morphisms(alph, m, max_count=max_morphisms)
    k = len(alph)
    images = [tuple(h.letter_images[c] for h in hs) for c in range(k)]
    table = m.table

    def mul(x: tuple, y: tuple) -> tuple:
        return tuple(table[a][b] for a, b in zip(x, y))

    unit = None if semigroup else tuple([m.identity] * len(hs))
    closure = generate_closure(images, mul, unit, max_size=max_size)
    count = len(closure.elements)
    if count > max_atoms:
        raise ResourceLimitError(f"{count} recognised-algebra atoms exceed {max_atoms}")
    # the closure's Cayley graph, every state its own label
    delta = closure.cayley_graph()
    transitions, _ = _minimise(delta, range(len(delta)))
    atoms = LanguageAlgebra(alph, semigroup, (), transitions).atoms
    return LanguageAlgebra(alph, semigroup, atoms, transitions)
