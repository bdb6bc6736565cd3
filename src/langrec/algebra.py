"""Finite quotient-closed Boolean algebras of regular languages.

The atoms of such an algebra form a congruence of the free monoid
(semigroup).  For the algebra generated by L1, ..., Lk it is their joint
syntactic congruence: two words share an atom exactly when they lead
every state of every generator's canonical DFA to the same state.  The
atoms are thus the elements of one transition closure of the
generators, and the closure's Cayley graph is the atom machine as it
stands.  The sum of two algebras needs no generator DFA for that:
``schutz_sum`` closes the triples of one morphism, which sends a word
to its atom in each operand and to its splits around a marked letter.
Over all words the triples are the atoms; over the non-empty words the
atoms are the coarsest congruence that keeps the operands' atoms and
the splits with a non-empty prefix and suffix, refined from the same
closure.  The closure of the generators' DFAs, ``_literal_sum``, is an
oracle only.  Nor does ``transport``:
a source word's atom is the atom of its image, closed in the operand's
machine.  Nor does ``recognised_algebra``: an atom is a tuple of one
image per morphism.  Each of the three is one ``generate_closure``.

An algebra is stored as its atom machine, a ``FiniteQuotient`` whose
elements are the atoms: the minimal automaton on the atoms (plus a
start state for the empty word in semigroup mode), numbered
breadth-first so that atom i is the i-th atom met in shortlex order.
Two algebras over one universe are equal exactly when their machines
are, and ``==`` and ``hash`` read the machine alone: the generators an
algebra was built from are no part of it.  Each constructor stores how
to build them, and they are built on first read, like representative
words and atom DFAs; in semigroup mode so are their products with the
non-empty words, since ``generate_algebra`` closes the DFAs as given:
the closure reads no acceptance, and no empty word.  A word's atom is
one run; a language is a member when one walk over the reachable
(atom, state of L) pairs finds no atom split by it.  The algebra is
closed under word quotients, so every left quotient of a union of
atoms is again one: the DFA of a member is read
off the machine's left letter action (``FiniteQuotient.union_language``
over atom indices, named ``member_from_atoms`` here), with no
minimisation.  Its states are bitmasks of atom-machine states, and a
letter maps one to its preimage under the letter's left action, a byte
of the mask at a time.  The atom DFAs come from one shared walk over
those masks (``FiniteQuotient.union_languages``), which steps a mask
that many atoms reach only once.  The quotient's table, atom(u) * atom(v) = atom(uv),
and its evaluation morphism ``tau`` make the algebra its own dual
recogniser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, getitem
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InputError, ResourceLimitError
from .languages import (
    Alphabet,
    Dfa,
    Word,
    _as_tuple,
    _block_graph,
    _canonical,
    _check_alphabet,
    _check_flag,
    _refine,
    _state_labels,
    closure_limit,
    intersection,
    marked_concat,
    nonempty_universal,
)
from .monoids import (
    FiniteMonoid,
    FiniteQuotient,
    GeneratedClosure,
    MonoidMorphism,
    all_morphisms,
    generate_closure,
    transition_closure,
)


@dataclass(frozen=True)
class LanguageAlgebra(FiniteQuotient):
    """Quotient-closed Boolean subalgebra of the languages over an
    alphabet, stored as its atom machine: the finite quotient whose
    elements are the atoms.  ``semigroup=True`` makes the universe the
    non-empty words and complements relative to it.  The generators the
    algebra was built from are no part of it: the constructor stores
    how to build them, and ``generators`` builds them on first read."""

    # the algebra to its generators' DFAs, called once by ``generators``
    _build_generators: Callable[["LanguageAlgebra"], Sequence[Dfa]] = field(
        compare=False, repr=False
    )

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
    def generators(self) -> tuple[Dfa, ...]:
        """The DFAs the algebra was built from, in construction order."""
        return tuple(self._build_generators(self))

    @cached_property
    def atoms(self) -> tuple[Dfa, ...]:
        """The atoms as canonical DFAs, in machine order, from one shared
        walk (``union_languages``)."""
        return self.union_languages((i,) for i in range(self.atom_count))

    def member_count(self) -> int:
        return 2 ** self.atom_count

    def member(self, l: Dfa) -> bool:
        return self.saturation(l) is not None

    def __repr__(self) -> str:
        mode = "semigroup" if self.semigroup else "monoid"
        return f"LanguageAlgebra({self.alphabet!r}, {mode}, atoms={self.atom_count})"


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
) -> LanguageAlgebra:
    """Smallest quotient-closed Boolean algebra containing the generators.

    Two words lie in one atom exactly when no quotient of a generator
    separates them, that is, when they share a syntactic class of every
    generator: the atoms are the elements of the generators' transition
    closure.  The closure reads neither
    acceptance nor, in semigroup mode, the empty word, so it closes the
    generators as given; their products with the non-empty words are
    built on first read of ``generators``."""
    _check_flag(semigroup, "semigroup")
    gens = _as_tuple(generators, "the generators")
    if alph is None:
        if not gens:
            raise InputError("need an alphabet when no generators are given")
        alph = gens[0].alphabet
    closure = transition_closure(alph, gens, semigroup=semigroup)
    # distinct elements are distinct atoms, and the closure is numbered
    # breadth-first, so its Cayley graph is the atom machine
    return LanguageAlgebra(
        alph, semigroup, closure.transitions, lambda _: _in_universe(gens, alph, semigroup)
    )


def _in_universe(dfas: Iterable[Dfa], alph: Alphabet, semigroup: bool) -> tuple[Dfa, ...]:
    """The DFAs as languages of the universe: in semigroup mode each
    one's product with the non-empty words.  It is called only from the
    builders behind ``generators``, so the products are built on first
    read, never for the atom machine."""
    if semigroup:
        dfas = (intersection(d, nonempty_universal(alph)) for d in dfas)
    return tuple(dfas)


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
    return _inverse_image(_letter_images(letter_map, source, l.alphabet), l, source)


def _letter_images(
    letter_map: Mapping[str, "str | Word"], source: Alphabet, target: Alphabet
) -> tuple[tuple[int, ...], ...]:
    """The letter indices of each source letter's image, in source order."""
    _check_alphabet(source, "a source alphabet")
    for name in letter_map:
        if name not in source:
            raise InputError(f"letter {name!r} is not in the source alphabet {source.letters}")
    images = []
    for name in source.letters:
        if name not in letter_map:
            raise InputError(f"letter {name!r} has no image")
        img = letter_map[name]
        w = img if isinstance(img, Word) else Word.parse(target, img)
        if w.alphabet != target:
            raise InputError("letter images must be words over the target alphabet")
        images.append(w.indices)
    return tuple(images)


def _inverse_image(images: Sequence[tuple[int, ...]], l: Dfa, source: Alphabet) -> Dfa:
    """``inverse_image`` along letter images already checked."""
    trans = [[l.run(q, img) for img in images] for q in range(l.states)]
    return _canonical(source, trans, l.accepting, l.initial)


def transport(
    letter_map: Mapping[str, "str | Word"],
    b: LanguageAlgebra,
    source: Alphabet,
) -> LanguageAlgebra:
    """The algebra over the source universe generated by the inverse
    images of b's atoms under the morphism h sending each source letter
    to a word over b's alphabet.

    b's atoms are the classes of a congruence, so two source words
    share an atom exactly when their images do: the atom machine is the
    closure of the letters' images in b's Cayley graph, where x times y
    is where any word reaching y leads x.  In semigroup mode the
    non-empty words sent to ε lie in no inverse image and form an atom
    of their own.  The generators are built on first read, from the
    images given at the call."""
    images = _letter_images(letter_map, source, b.alphabet)  # a snapshot
    g = b.transitions

    def run(x: int, word: tuple[int, ...]) -> int:
        for c in word:
            x = g[x][c]
        return x

    reach = {run(0, img): img for img in images}  # one image word per element
    unit = None if b.semigroup else 0
    closure = generate_closure([run(0, img) for img in images], lambda x, y: run(x, reach[y]), unit)

    def generators(_: LanguageAlgebra) -> tuple[Dfa, ...]:
        preimages = (_inverse_image(images, a, source) for a in b.atoms)
        return _in_universe(preimages, source, b.semigroup)

    return LanguageAlgebra(source, b.semigroup, closure.transitions, generators)


# -- the binary sum (marked concatenations adjoined) -----------------------


def schutz_sum(b1: LanguageAlgebra, b2: LanguageAlgebra) -> LanguageAlgebra:
    """Algebra generated by both operands plus every marked concatenation
    A1 c A2 of their atoms.  Marked concatenation distributes over union
    in both arguments, so atom-level generators span all members.

    Both modes run one split closure of b1 and b2 with b2's machine
    riding along.  The bit (x, c) of w's mask at the state y of b2 says
    that w lies in x c y.  In monoid mode two words share (m1, S, m2)
    exactly when they share every generator, and the triples form a
    monoid: they are the joint syntactic classes, read from no DFA.  In
    semigroup mode only ε reaches the closure's state 0, and a split
    with an empty prefix (x = 0) or suffix (y = 0) is no generator, so
    an element's label keeps m1, m2 and the other bits, and the atoms
    are the coarsest two-sided congruence that saturates the labels:
    Moore refinement over each state's right and left letter actions.
    The generators (atoms of both, then every marked concatenation) are
    built on first read."""
    if b1.alphabet != b2.alphabet or b1.semigroup != b2.semigroup:
        raise InputError("operands must live over the same universe")
    closure = _split_closure(b1.transitions, b2.transitions, b2.transitions)
    rows = closure.transitions
    if b1.semigroup:
        # ε alone has m1 = 0, so its state keeps a label of its own
        k = len(b1.alphabet)
        labels = [(m1, t, tuple(m >> k for m in masks[1:])) for m1, masks, t in closure.elements]
        left = zip(*closure.quotient(b1.alphabet)._left)
        rows = _block_graph(rows, _refine([r + l for r, l in zip(rows, left)], labels))[0]
    return LanguageAlgebra(b1.alphabet, b1.semigroup, rows, lambda _: _sum_generators(b1, b2))


def _split_closure(g1: Sequence, g2: Sequence, tail: Sequence) -> GeneratedClosure:
    """The split closure: the triples (m1, S, t) of the words w, read
    from three Cayley graphs over one alphabet, with their Cayley graph.
    m1 is w's element of g1, t its element of the rider ``tail``, and S
    holds, per element y of g2, the bitmask of the pairs (element x of
    g1, letter c) of the splits w = u c v with u in x and v in y.  The
    letters generate it.  The triples stay as the closure's labels, so
    a caller reads an element's state of g1 or of the rider off its
    label instead of walking the graph again."""
    k = len(g1[0])
    columns = [tuple(row[d] for row in g2) for d in range(k)]
    zeros = [0] * len(g2)

    def mul(x: tuple[int, tuple[int, ...], int], d: int) -> tuple:
        # w's splits u c v become the splits u c (v d) of w d, which gains
        # one more, u = w and c = d with v = ε in g2's element 0
        m1, masks, t = x
        moved = zeros.copy()
        moved[0] = 1 << m1 * k + d
        for z, mask in zip(columns[d], masks):
            moved[z] |= mask
        return g1[m1][d], tuple(moved), tail[t][d]

    return generate_closure(range(k), mul, (0, tuple(zeros), 0))


def _sum_generators(b1: LanguageAlgebra, b2: LanguageAlgebra) -> list[Dfa]:
    """The atoms of both operands, then every marked concatenation A1 c A2
    of their atoms, A1 outermost and A2 innermost."""
    gens = list(b1.atoms) + list(b2.atoms)
    for a1 in b1.atoms:
        for c in range(len(b1.alphabet)):
            for a2 in b2.atoms:
                gens.append(marked_concat(a1, c, a2))
    return gens


def _literal_sum(b1: LanguageAlgebra, b2: LanguageAlgebra) -> LanguageAlgebra:
    """``schutz_sum`` as the transition closure of its generators' DFAs,
    all built first: an oracle for the split closure in both modes, kept
    apart from it, which ``schutz_sum`` never calls.  More marked
    concatenations than the closure ceiling are refused before any is
    built."""
    count = b1.atom_count * len(b1.alphabet) * b2.atom_count
    limit = closure_limit()
    if count > limit:
        raise ResourceLimitError(
            f"literal sum needs {count} marked concatenations, above the closure ceiling"
            f" {limit}; LANGREC_MAX_CLOSURE raises it"
        )
    gens = _sum_generators(b1, b2)
    return generate_algebra(gens, b1.alphabet, semigroup=b1.semigroup)


# -- dual recogniser -------------------------------------------------------


def dual_recogniser(b: LanguageAlgebra) -> LanguageAlgebra:
    """Atoms as a finite recogniser: atom(u) * atom(v) := atom(uv).

    The recogniser is the algebra's atom machine itself, whose table
    entry (i, j) is the atom of the i-th representative followed by the
    j-th and whose ``tau`` sends a word to its atom.  It is well defined
    because the machine is a Cayley graph, which its constructor checks;
    ``check_dual_well_defined`` re-derives the table on all short words.
    """
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
) -> LanguageAlgebra:
    """Boolean algebra generated by every preimage h^-1(V) over every
    morphism h from the free monoid (semigroup) into m.

    Its atoms are the fibres of the product of all morphisms, the words
    w with one tuple (h(w))_h: the closure of the letters' tuples
    (h(c))_h, multiplied componentwise in m, is the atom machine.
    """
    if semigroup is None:
        semigroup = m.is_semigroup
    _check_flag(semigroup, "semigroup")
    if not semigroup and m.is_semigroup:
        raise InputError("monoid-mode algebra needs a monoid with identity")
    hs = all_morphisms(alph, m)
    letters = list(zip(*(h.letter_images for h in hs)))
    unit = None if semigroup else (m.identity,) * len(hs)
    rows = m.table.__getitem__  # x * y is (x[i] * y[i])_i
    closure = generate_closure(letters, lambda x, y: tuple(map(getitem, map(rows, x), y)), unit)
    # the atoms generate the algebra, each built once as an atom DFA
    return LanguageAlgebra(alph, semigroup, closure.transitions, attrgetter("atoms"))
