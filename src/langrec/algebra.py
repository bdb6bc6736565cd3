"""Finite quotient-closed Boolean algebras of regular languages.

The atoms of such an algebra form a congruence of the free monoid
(semigroup).  For the algebra generated by L1, ..., Lk it is their joint
syntactic congruence: two words share an atom exactly when they lead
every state of every generator's canonical DFA to the same state.  The
atoms are thus the elements of one transition closure of the
generators, and the closure's Cayley graph is the atom machine as it
stands.  The sum of two algebras over all words needs no generator DFA
for that: its atoms are the classes of one morphism, which sends a word
to its atom in each operand and to its splits around a marked letter,
so ``schutz_sum`` closes those triples instead.

An algebra is stored as its atom machine, a ``FiniteQuotient`` whose
elements are the atoms: the minimal automaton on the atoms (plus a
start state for the empty word in semigroup mode), numbered
breadth-first so that atom i is the i-th atom met in shortlex order.
Two algebras over one universe are equal exactly when their machines
are.  A word's atom is one run; a language is a member when one walk
over the reachable (atom, state of L) pairs finds no atom split by it.
Representative words and atom DFAs are built on first use.  The
algebra is closed under word quotients, so every left quotient of a
union of atoms is again one: the DFA of a member is read off the
machine's left letter action (``FiniteQuotient.union_language`` over
atom indices, named ``member_from_atoms`` here), with no minimisation.
The quotient's table, atom(u) * atom(v) = atom(uv), and its evaluation
morphism ``tau`` make the algebra its own dual recogniser.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .errors import InputError, InvariantError
from .languages import (
    Alphabet,
    Dfa,
    Word,
    _canonical,
    _explore,
    _state_labels,
    intersection,
    marked_concat,
    nonempty_universal,
    universal_language,
)
from .limits import closure_limit
from .monoids import (
    FiniteMonoid,
    FiniteQuotient,
    MonoidMorphism,
    all_morphisms,
    transition_closure,
)


@dataclass(frozen=True)
class LanguageAlgebra(FiniteQuotient):
    """Quotient-closed Boolean subalgebra of the languages over an
    alphabet, stored as its atom machine: the finite quotient whose
    elements are the atoms, with the generators it was built from.
    ``semigroup=True`` makes the universe the non-empty words and
    complements relative to it."""

    generators: tuple[Dfa, ...]

    # the quotient's queries, named for atoms
    atom_count = FiniteQuotient.size
    atom_of = FiniteQuotient.class_of
    member_from_atoms = FiniteQuotient.union_language

    @property
    def atom_reps(self) -> tuple[Word, ...]:
        """The shortlex-least word of each atom, in increasing order."""
        return self.reps

    @property
    def tau(self) -> MonoidMorphism:
        """The dual recogniser's evaluation morphism, word to atom."""
        return self.morphism

    @cached_property
    def atoms(self) -> tuple[Dfa, ...]:
        """The atoms as canonical DFAs, in machine order."""
        return tuple(self.member_from_atoms((i,)) for i in range(self.atom_count))

    def member_count(self) -> int:
        return 2 ** self.atom_count

    def member(self, l: Dfa) -> bool:
        return self.saturation(l) is not None

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


def algebra_leq(b1: FiniteQuotient, b2: LanguageAlgebra) -> bool:
    """Whether every member of b1 is a member of b2: the words that lead
    b2's machine to one state all lead b1's machine to one state.  b1
    may be any finite quotient, standing for the algebra it recognises."""
    if b1.alphabet != b2.alphabet:
        raise InputError("algebras over different alphabets")
    if b2.semigroup and not b1.semigroup:
        return False  # b1's universe holds the empty word, b2's does not
    return _state_labels(b2.transitions, b1.transitions, 0, lambda s: s) is not None


# -- construction ---------------------------------------------------------


def generate_algebra(
    generators: Sequence[Dfa],
    alph: Alphabet | None = None,
    *,
    semigroup: bool = False,
    max_states: int | None = None,
) -> LanguageAlgebra:
    """Smallest quotient-closed Boolean algebra containing the generators.

    Two words lie in one atom exactly when no quotient of a generator
    separates them, that is, when they share a syntactic class of every
    generator: the atoms are the elements of the generators' transition
    closure, and ``max_states`` bounds it."""
    if alph is None:
        if not generators:
            raise InputError("need an alphabet when no generators are given")
        alph = generators[0].alphabet
    # the product with the universe is canonical, as the closure needs,
    # and in semigroup mode it drops the empty word
    universe = nonempty_universal(alph) if semigroup else universal_language(alph)
    generators = [intersection(g, universe) for g in generators]
    closure = transition_closure(alph, generators, semigroup=semigroup, max_size=max_states)
    # distinct elements are distinct atoms, and the closure is numbered
    # breadth-first, so its Cayley graph is the atom machine
    return LanguageAlgebra(alph, semigroup, closure.transitions, tuple(generators))


def trivial_algebra(alph: Alphabet, semigroup: bool = False) -> LanguageAlgebra:
    return generate_algebra([], alph, semigroup=semigroup)


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


def schutz_sum(
    b1: LanguageAlgebra, b2: LanguageAlgebra, *, max_states: int | None = None
) -> LanguageAlgebra:
    """Algebra generated by both operands plus every marked concatenation
    A1 c A2 of their atoms.  Marked concatenation distributes over union
    in both arguments, so atom-level generators span all members.

    In monoid mode the atom machine is the Cayley graph of the triples
    (m1, S, m2) of the words w: m1 and m2 are w's atoms of b1 and b2,
    and S holds, per atom y of b2, the bitmask of the pairs (atom x of
    b1, letter c) of the splits w = u c v with u in x and v in y.  Such
    a bit says that w lies in x c y, so two words share a triple exactly
    when they share every generator, and the triples form a monoid:
    they are the joint syntactic classes, with no generator DFA read.
    ``max_states`` bounds the closure, and the generators (atoms of
    both, then every marked concatenation) are built once it has
    succeeded.  In semigroup mode a split with an empty prefix or
    suffix is no generator, so the sum is the literal closure of the
    generators' DFAs."""
    if b1.alphabet != b2.alphabet or b1.semigroup != b2.semigroup:
        raise InputError("operands must live over the same universe")
    if b1.semigroup:
        return _literal_sum(b1, b2, max_states=max_states)
    g1, g2, k = b1.transitions, b2.transitions, len(b1.alphabet)
    limit = closure_limit(max_states)
    columns = [tuple(row[d] for row in g2) for d in range(k)]

    def step(x: tuple[int, tuple[int, ...], int]) -> Iterator:
        m1, masks, m2 = x
        for d, column in enumerate(columns):
            # w's splits u c v become the splits u c (v d) of w d, which
            # gains one more, u = w and c = d with v = ε in b2's atom 0
            moved = [0] * len(g2)
            for z, mask in zip(column, masks):
                moved[z] |= mask
            moved[0] |= 1 << (m1 * k + d)
            yield g1[m1][d], tuple(moved), g2[m2][d]

    _, rows = _explore(
        (0, (0,) * len(g2), 0), step, limit, f"submonoid closure exceeded {limit} elements"
    )
    return LanguageAlgebra(b1.alphabet, False, rows, tuple(_sum_generators(b1, b2)))


def _sum_generators(b1: LanguageAlgebra, b2: LanguageAlgebra) -> list[Dfa]:
    """The atoms of both operands, then every marked concatenation A1 c A2
    of their atoms, A1 outermost and A2 innermost."""
    gens = list(b1.atoms) + list(b2.atoms)
    for a1 in b1.atoms:
        for c in range(len(b1.alphabet)):
            for a2 in b2.atoms:
                gens.append(marked_concat(a1, c, a2))
    return gens


def _literal_sum(
    b1: LanguageAlgebra, b2: LanguageAlgebra, *, max_states: int | None = None
) -> LanguageAlgebra:
    """``schutz_sum`` as the transition closure of its generators' DFAs,
    all built first: the only path in semigroup mode, and an oracle for
    the triple closure in monoid mode."""
    gens = _sum_generators(b1, b2)
    return generate_algebra(gens, b1.alphabet, semigroup=b1.semigroup, max_states=max_states)


# -- dual recogniser -------------------------------------------------------


def dual_recogniser(b: LanguageAlgebra) -> LanguageAlgebra:
    """Atoms as a finite recogniser: atom(u) * atom(v) := atom(uv).

    The recogniser is the algebra's atom machine itself, whose table
    entry (i, j) is the atom of the i-th representative followed by the
    j-th and whose ``tau`` sends a word to its atom.  Well-definedness
    comes from quotient closure; it is re-checked by ``FiniteMonoid``
    here and on all short words by ``check_dual_well_defined``.
    """
    try:
        b.monoid  # builds the table, and FiniteMonoid checks it
    except InputError as exc:
        raise InvariantError(f"atom multiplication is ill-defined: {exc}") from exc
    return b


def check_dual_well_defined(b: LanguageAlgebra, max_len: int = 4) -> bool:
    """Exhaustively re-derive the atom multiplication from all short words:
    any two words in one atom must act identically on every atom."""
    table = dual_recogniser(b).monoid.table
    min_len = 1 if b.semigroup else 0
    for t in b.alphabet.tuples_upto(max_len, min_len):
        i = b.atom_of(t)
        if b.tau.evaluate(t) != i:
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
    max_size: int | None = None,
) -> LanguageAlgebra:
    """Boolean algebra generated by every preimage h^-1(V) over every
    morphism h from the free monoid (semigroup) into m.

    Its atoms are the fibres of the product of all morphisms, i.e. the
    classes of words with one evaluation per morphism: the transition
    closure of the morphisms' Cayley graphs.
    """
    if semigroup is None:
        semigroup = m.is_semigroup
    if semigroup is False and m.is_semigroup:
        raise InputError("monoid-mode algebra needs a monoid with identity")
    hs = all_morphisms(alph, m)
    # a word leads the start state of the Cayley graph of h's image to
    # h(w), and h(w) fixes where it leads every other state
    graphs = (h.image.transitions for h in hs)
    cayley = [Dfa(alph, len(g), g, frozenset()) for g in graphs]
    closure = transition_closure(alph, cayley, semigroup=semigroup, max_size=max_size)
    alg = LanguageAlgebra(alph, semigroup, closure.transitions, ())
    return replace(alg, generators=alg.atoms)
