"""Alphabets, words, and regular languages as canonical minimal DFAs.

Every language-valued operation in this module returns the canonical
minimal complete DFA of its result: all states reachable, no two states
language-equivalent, and states numbered by breadth-first discovery
order from the initial state, exploring letters in alphabet order.  Two
DFAs produced here denote the same language exactly when they are equal
field by field, so language equality is structural equality.  Every
breadth-first numbering is made in one place, ``_explore``: each
canonical DFA's, each subset construction's, each closure's and each
union of a finite quotient's classes.  Two builders bound it with
``closure_limit``: ``_subset_dfa``, the one subset construction, to
which ``marked_concat``, ``concat``, ``star``, ``exists_projection`` and
the regex compiler give their step functions, and the one submonoid
closure, ``monoids.generate_closure``.  The ceiling is set by scope, not
per call: inside ``with closure_ceiling(n):`` every closure and subset
construction, nested ones included, keeps at most n states; outside any
scope the ``LANGREC_MAX_CLOSURE`` environment variable sets it, else
100 000.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError, ResourceLimitError


def _check_indices(values: Iterable, n: int, what: str) -> None:
    """Refuse the first value that is not an index 0..n-1: True and 1.0
    equal 1, but are no index."""
    for v in values:
        if type(v) is not int or not 0 <= v < n:
            raise InputError(f"{what} {v!r} is not an integer in 0..{n - 1}")


def _as_tuple(values: object, what: str) -> tuple:
    """``values`` as a tuple; a value that is no sequence is refused."""
    if isinstance(values, tuple):
        return values
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{what} must be a sequence, not {values!r}") from None


def _as_table(rows: object, what: str) -> tuple[tuple, ...]:
    """``rows`` as a tuple of tuples; a table or a row that is no
    sequence is refused."""
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        raise InputError(f"{what} must be a sequence of rows, not {rows!r}") from None


def _check_flag(value: object, what: str) -> None:
    """Refuse a flag such as 0, 2 or "no", which truthiness would read."""
    if type(value) is not bool:
        raise InputError(f"{what} must be true or false, got {value!r}")


# the quote characters of a letter name in a word's text and in a regex
_QUOTES = "'\""


def _quote(name: str, what: str) -> str:
    """``name`` between ``'``, or between ``"`` when it holds ``'``; a name
    holding both has no text, and ``what`` says whose."""
    for q in _QUOTES:
        if q not in name:
            return f"{q}{name}{q}"
    raise InputError(f"letter name {name!r} holds both quote characters: no {what} can name it")


def _read_quoted(text: str, i: int) -> tuple[str, int]:
    """The name quoted at ``text[i]`` and the position after its closing quote."""
    j = text.find(text[i], i + 1)
    if j < 0:
        raise InputError(f"unterminated quoted letter name at {text[i:]!r}")
    if j == i + 1:
        raise InputError("empty quoted letter name")
    return text[i + 1 : j], j + 1


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct letter names."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _as_tuple(self.letters, "an alphabet's letters"))
        if not self.letters:
            raise InputError("an alphabet needs at least one letter")
        for name in self.letters:
            if not isinstance(name, str) or not name:
                raise InputError(f"letter names must be non-empty strings, got {name!r}")
        if len(set(self.letters)) != len(self.letters):
            raise InputError(f"duplicate letter names in {self.letters!r}")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.letters)}

    @cached_property
    def _bare(self) -> frozenset[str]:
        """The names a word's text writes unquoted: those holding no
        whitespace and no quote character, but ε, the empty word."""
        plain = (n for n in self.letters if not any(c.isspace() or c in _QUOTES for c in n))
        return frozenset(plain) - {"ε"}

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown letter {name!r} for alphabet {self.letters}") from None

    def word(self, text: str) -> "Word":
        return Word.parse(self, text)

    def tuples_upto(self, max_len: int, min_len: int = 0) -> Iterator[tuple[int, ...]]:
        """All index tuples of length min_len..max_len in length-then-lex
        order; the bounds are checked at the call, not on first use."""
        for n in (max_len, min_len):
            if type(n) is not int or n < 0:  # a bool or a float is no length
                raise InputError(f"word length bound {n!r} is not an integer >= 0")
        k = len(self.letters)
        return itertools.chain.from_iterable(
            itertools.product(range(k), repeat=n) for n in range(min_len, max_len + 1)
        )

    def words_upto(self, max_len: int, min_len: int = 0) -> Iterator["Word"]:
        return (Word(self, t) for t in self.tuples_upto(max_len, min_len))

    def __repr__(self) -> str:
        return f"Alphabet({','.join(self.letters)})"


@dataclass(frozen=True)
class Word:
    """Finite sequence of letter indices over a fixed alphabet."""

    alphabet: Alphabet
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_alphabet(self.alphabet, "a word's alphabet")
        object.__setattr__(self, "indices", _as_tuple(self.indices, "a word's letter indices"))
        _check_indices(self.indices, len(self.alphabet), "letter index")

    @classmethod
    def parse(cls, alph: Alphabet, text: str) -> "Word":
        """Read a word's text: 'ε' or the empty string is the empty word,
        else letter names, each quoted with ``'`` or ``"``, or bare and
        read by greedy longest match.  Whitespace between names is
        skipped."""
        if not isinstance(text, str):
            raise InputError(f"a word is read from a string, not {text!r}")
        text = text.strip()
        if text in ("", "ε"):
            return cls(alph, ())
        names = sorted(alph._bare, key=len, reverse=True)
        out: list[int] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            if text[pos] in _QUOTES:
                name, pos = _read_quoted(text, pos)
            else:
                name = next((n for n in names if text.startswith(n, pos)), None)
                if name is None:
                    raise InputError(f"cannot read a letter of {alph!r} at {text[pos:]!r}")
                pos += len(name)
            out.append(alph.index(name))
        return cls(alph, tuple(out))

    def text(self) -> str:
        """The text ``parse`` reads back; a name outside ``Alphabet._bare`` is quoted."""
        if not self.indices:
            return "ε"
        letters, bare = self.alphabet.letters, self.alphabet._bare
        names = [letters[i] for i in self.indices]
        names = [n if n in bare else _quote(n, "word") for n in names]
        return ("" if all(len(n) == 1 for n in letters) else " ").join(names)

    def __len__(self) -> int:
        return len(self.indices)

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise InputError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.indices + other.indices)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.alphabet, self.indices[item])
        return self.indices[item]

    def __repr__(self) -> str:
        try:
            return f"Word({self.text()})"
        except InputError:  # a name holding both quote characters has no text
            return f"Word({self.indices!r} over {self.alphabet!r})"


def _letter_indices(alph: Alphabet, w: "Word | Iterable[str | int]") -> tuple[int, ...]:
    """Letter indices of a Word over alph, or of letters given by name or
    by index; a word over another alphabet, a value that is no sequence,
    an index out of range and a bool are refused."""
    if isinstance(w, Word):
        if w.alphabet != alph:
            raise InputError(f"the word is over {w.alphabet!r}, not {alph!r}")
        return w.indices
    try:
        letters = iter(w)
    except TypeError:
        raise InputError(f"{w!r} is not a word over {alph!r}") from None
    k = len(alph)
    out = []
    for c in letters:
        if type(c) is int and 0 <= c < k:  # not a bool
            out.append(c)
        elif isinstance(c, str):
            out.append(alph.index(c))
        else:
            raise InputError(f"{c!r} is not a letter of {alph!r}")
    return tuple(out)


@dataclass(frozen=True)
class Dfa:
    """Canonical minimal complete DFA.

    The constructor checks the table's shape and stores its trimmed,
    minimised, breadth-first numbered form, initial state 0, so two
    instances are equal exactly when they denote the same language.
    """

    alphabet: Alphabet
    states: int
    transitions: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]
    initial: int = 0

    def __post_init__(self) -> None:
        _check_alphabet(self.alphabet, "a DFA's alphabet")
        k, n = len(self.alphabet), self.states
        table = _as_table(self.transitions, "a transition table")  # each read once
        acc = set(_as_tuple(self.accepting, "the accepting states"))
        if type(n) is not int or n < 1:
            raise InputError(f"a complete DFA has at least one state, not {n!r}")
        if len(table) != n:
            raise InputError("transition table must have one row per state")
        for row in table:
            if len(row) != k:
                raise InputError("each transition row must cover the whole alphabet")
            _check_indices(row, n, "transition target")
        _check_indices((self.initial,), n, "initial state")
        _check_indices(acc, n, "accepting state")
        canon = _canonical(self.alphabet, table, acc, self.initial)
        vars(self).update(vars(canon))

    # -- evaluation ---------------------------------------------------

    def run(self, state: int, indices: Iterable[int]) -> int:
        t = self.transitions
        for c in indices:
            state = t[state][c]
        return state

    def accepts(self, w: "Word | Iterable[str | int]") -> bool:
        return self.run(self.initial, _letter_indices(self.alphabet, w)) in self.accepting

    # -- queries ------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.accepting

    def shortest_accepted(self) -> tuple[int, ...] | None:
        """Length-lex least accepted word, or None for the empty language.
        The states are numbered breadth-first, so state i's least word is
        its breadth-first tree word and the least accepting state's is
        the answer; the tree is grown up to that state."""
        if not self.accepting:
            return None
        last = min(self.accepting)
        words = [()]
        for row, word in zip(self.transitions, words):
            if len(words) > last:
                break
            for c, r in enumerate(row):
                if r == len(words):  # r is discovered here
                    words.append(word + (c,))
        return words[last]

    # -- serialisation ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet.letters),
            "states": self.states,
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "transitions": [list(row) for row in self.transitions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Dfa":
        try:
            letters = data["alphabet"]
            if not isinstance(letters, list):  # a string would be read letter by letter
                raise InputError(f"the alphabet must be a JSON list, got {letters!r}")
            return cls(
                Alphabet(tuple(letters)),
                _json_int(data["states"]),
                tuple(map(_json_ints, data["transitions"])),
                frozenset(_json_ints(data["accepting"])),
                _json_int(data.get("initial", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed DFA file: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "Dfa":
        return cls.from_json_dict(_read_json(text))

    def __repr__(self) -> str:
        return f"Dfa({self.alphabet!r}, states={self.states}, accepting={sorted(self.accepting)})"


def _read_json(text: str, where: str = "") -> object:
    """The value ``text`` holds; a syntax error is an ``InputError``
    whose message starts with ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}invalid JSON: {exc}") from exc


def _json_ints(values: Iterable) -> tuple[int, ...]:
    """Entries of a JSON list as integers.  A float, bool or string is
    refused, where ``int`` would truncate or parse it."""
    values = tuple(values)
    if set(map(type, values)) - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise InputError(f"expected a JSON integer, got {bad!r}")
    return values


def _json_int(value: object) -> int:
    return _json_ints((value,))[0]


# -- canonical form and closure ceilings -------------------------------

DEFAULT_CLOSURE = 100_000

_CEILING: ContextVar[int | None] = ContextVar("closure_ceiling", default=None)


@contextmanager
def closure_ceiling(limit: int | None) -> Iterator[None]:
    """Bound every closure and subset construction run inside the block,
    nested ones included, by ``limit`` states.  The innermost scope
    wins, and the enclosing one holds again on leaving the block, by
    an exception too; ``None`` keeps the enclosing ceiling."""
    if limit is None:
        yield
        return
    if type(limit) is not int:  # a bool or a float is no bound
        raise InputError(f"closure limit must be an integer, got {limit!r}")
    if limit < 1:
        raise InputError(f"closure limit must be positive, got {limit}")
    token = _CEILING.set(limit)
    try:
        yield
    finally:
        _CEILING.reset(token)


def closure_limit(*, default: int = DEFAULT_CLOSURE) -> int:
    """Ceiling of a bounded ``_explore``: the innermost
    ``closure_ceiling`` scope, else the ``LANGREC_MAX_CLOSURE``
    environment variable, else ``default``."""
    scoped = _CEILING.get()
    if scoped is not None:
        return scoped
    raw = os.environ.get("LANGREC_MAX_CLOSURE")
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise InputError(f"LANGREC_MAX_CLOSURE is not an integer: {raw!r}") from exc
        if value < 1:
            raise InputError(f"LANGREC_MAX_CLOSURE must be positive, got {value}")
        return value
    return default


def _explore(
    start, step: Callable[[object], Iterable], limit: int | None = None, what: str = ""
) -> tuple[list, list[tuple[int, ...]]]:
    """The states reachable from ``start``, numbered breadth-first in
    discovery order, and each state's row of successor indices, where
    ``step`` gives a state's successors, one per letter in alphabet
    order.  Discovering state number ``limit`` raises
    ``ResourceLimitError(what)``: at most ``limit`` states are kept."""
    states = [start]
    index = {start: 0}
    rows = []
    for s in states:
        row = []
        for t in step(s):
            j = index.get(t)
            if j is None:
                j = index[t] = len(states)
                if j == limit:
                    raise ResourceLimitError(what)
                states.append(t)
            row.append(j)
            # let go of t before ``step`` builds the next successor: a dead
            # product left in the way of the next one's reallocations
            # fragments the heap of a large closure
            del t
        rows.append(tuple(row))
    return states, rows


def _canonical(
    alph: Alphabet,
    transitions: Sequence[Sequence[int]],
    accepting: Iterable[int],
    initial: int,
) -> Dfa:
    """Trim, minimise (partition refinement), and BFS-renumber."""
    acc_in = set(accepting)
    order, t = _explore(initial, transitions.__getitem__)
    acc = [q in acc_in for q in order]
    new_trans, reps = _minimise(t, acc)
    new_acc = frozenset(i for i, q in enumerate(reps) if acc[q])
    return _trusted_dfa(alph, new_trans, new_acc)


def _check_alphabet(alph: object, what: str) -> None:
    """Refuse an alphabet that is no ``Alphabet``, ``what`` naming it."""
    if not isinstance(alph, Alphabet):
        raise InputError(f"{what} must be an Alphabet, not {alph!r}")


def _trusted_dfa(alph: Alphabet, transitions: tuple, accepting: frozenset[int]) -> Dfa:
    """The ``Dfa`` of fields that are canonical already, as the kernel's
    own outputs are: no shape check and no minimisation."""
    d = object.__new__(Dfa)
    vars(d).update(alphabet=alph, states=len(transitions), transitions=transitions,
                   accepting=accepting, initial=0)
    return d


def _refine(t: Sequence[Sequence[int]], labels: Sequence) -> list[int]:
    """The coarsest partition of an automaton's states in which two states
    share a block only when their labels are equal and every edge leads
    them to a common block: Moore refinement, starting from the blocks
    of equal labels.  Blocks are numbered 0, 1, ... in order of their
    first state."""
    part, count = labels, len(set(labels))
    while True:
        ids: dict[tuple, int] = {}
        get = part.__getitem__
        part = [ids.setdefault((get(q), tuple(map(get, row))), len(ids)) for q, row in enumerate(t)]
        if len(ids) == count:
            return part
        count = len(ids)


def _minimise(
    t: Sequence[Sequence[int]], labels: Sequence
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Minimal form of a labelled automaton whose states are all reachable
    from state 0, where two states merge when every word leads them to
    equally labelled states: the ``_block_graph`` of ``_refine``."""
    return _block_graph(t, _refine(t, labels))


def _block_graph(
    t: Sequence[Sequence[int]], part: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The automaton's blocks under a partition that every edge respects,
    numbered breadth-first from state 0's, letters in alphabet order.
    Returns the block transition table and, per block, the first state
    in it."""
    rep: dict[int, int] = {}
    for q, b in enumerate(part):
        rep.setdefault(b, q)
    blocks, new_trans = _explore(part[0], lambda b: [part[r] for r in t[rep[b]]])
    return tuple(new_trans), [rep[b] for b in blocks]


def _pairs(
    t1: Sequence[Sequence[int]], s1: int, t2: Sequence[Sequence[int]], s2: int
) -> Iterator[tuple[int, int]]:
    """The states of the product of two automata reachable from (s1, s2)."""
    k = len(t1[0])
    seen = {(s1, s2)}
    stack = [(s1, s2)]
    while stack:
        p, q = pair = stack.pop()
        yield pair
        r1, r2 = t1[p], t2[q]
        for c in range(k):
            nxt = (r1[c], r2[c])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)


def _state_labels(
    t: Sequence[Sequence[int]], u: Sequence[Sequence[int]], start: int, label: Callable
) -> dict[int, object] | None:
    """For each state of automaton t run from state 0, the label of the
    states that its words lead automaton u to from ``start``; None as
    soon as the words of one state reach two labels.  With u a DFA of L
    labelled by acceptance: whether each state's words lie in L."""
    out: dict[int, object] = {}
    for p, q in _pairs(t, 0, u, start):
        v = label(q)
        if out.setdefault(p, v) != v:
            return None
    return out


# -- constant languages ------------------------------------------------


def _constant(alph: Alphabet, states: int, accepting: frozenset[int]) -> Dfa:
    """The canonical DFA whose every letter leads to the last of its one
    or two states."""
    _check_alphabet(alph, "a constant language's alphabet")
    return _trusted_dfa(alph, ((states - 1,) * len(alph),) * states, accepting)


def empty_language(alph: Alphabet) -> Dfa:
    return _constant(alph, 1, frozenset())


def universal_language(alph: Alphabet) -> Dfa:
    return _constant(alph, 1, frozenset({0}))


def epsilon_language(alph: Alphabet) -> Dfa:
    return _constant(alph, 2, frozenset({0}))


def nonempty_universal(alph: Alphabet) -> Dfa:
    """All words of length >= 1."""
    return _constant(alph, 2, frozenset({1}))


# -- Boolean operations ------------------------------------------------


def _require_same_alphabet(l1: Dfa, l2: Dfa) -> None:
    if l1.alphabet != l2.alphabet:
        raise InputError(
            f"operand alphabets differ: {l1.alphabet!r} vs {l2.alphabet!r}"
        )


def _product(l1: Dfa, l2: Dfa, keep: Callable[[bool, bool], bool]) -> Dfa:
    _require_same_alphabet(l1, l2)
    t1, t2 = l1.transitions, l2.transitions
    pairs, trans = _explore((l1.initial, l2.initial), lambda p: zip(t1[p[0]], t2[p[1]]))
    acc = {
        i
        for i, (q1, q2) in enumerate(pairs)
        if keep(q1 in l1.accepting, q2 in l2.accepting)
    }
    return _canonical(l1.alphabet, trans, acc, 0)


def union(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a or b)


def intersection(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a and b)


def difference(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a and not b)


def symmetric_difference(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a != b)


def complement(l: Dfa) -> Dfa:
    """Flipping acceptance keeps a canonical DFA canonical."""
    return _trusted_dfa(l.alphabet, l.transitions, frozenset(range(l.states)) - l.accepting)


def same_language(l1: Dfa, l2: Dfa) -> bool:
    """Equality via product-automaton emptiness, independent of canonicity."""
    return symmetric_difference(l1, l2).is_empty()


# -- quotients ---------------------------------------------------------


def left_quotient(w: "Word | Iterable[str | int]", l: Dfa) -> Dfa:
    """The language w^-1 L = { u : wu in L }."""
    start = l.run(l.initial, _letter_indices(l.alphabet, w))
    return _canonical(l.alphabet, l.transitions, l.accepting, start)


def right_quotient(l: Dfa, w: "Word | Iterable[str | int]") -> Dfa:
    """The language L w^-1 = { u : uw in L }."""
    idxs = _letter_indices(l.alphabet, w)
    acc = {q for q in range(l.states) if l.run(q, idxs) in l.accepting}
    return _canonical(l.alphabet, l.transitions, acc, l.initial)


# -- subset constructions ----------------------------------------------


def _subset_dfa(
    alph: Alphabet,
    start,
    step: Callable[[object], Iterable],
    accepts: Callable[[object], bool],
) -> Dfa:
    """The canonical DFA of a subset construction: ``step`` gives a
    state's successor per letter, ``accepts`` tells which states accept.
    At most ``closure_limit()`` states are built."""
    limit = closure_limit()
    states, rows = _explore(start, step, limit, f"subset construction exceeded {limit} states")
    return _canonical(alph, rows, [i for i, s in enumerate(states) if accepts(s)], 0)


# -- concatenation-like operations --------------------------------------


def marked_concat(l1: Dfa, letter: "str | int", l2: Dfa) -> Dfa:
    """The language { u a v : u in L1, v in L2 } for a single letter a:
    the subset construction over pairs (state of L1, set of L2 states),
    where reading a from an accepting L1 state starts a run of L2."""
    _require_same_alphabet(l1, l2)
    (a,) = _letter_indices(l1.alphabet, (letter,))
    t1, acc1, start2 = l1.transitions, l1.accepting, frozenset({l2.initial})
    cols = list(zip(*l2.transitions))  # per letter, each L2 state's successor

    def step(s: tuple[int, frozenset[int]]) -> Iterator[tuple[int, frozenset[int]]]:
        p, tail = s
        for c, col in enumerate(cols):
            moved = frozenset(map(col.__getitem__, tail))
            yield t1[p][c], (moved | start2 if c == a and p in acc1 else moved)

    return _subset_dfa(
        l1.alphabet, (l1.initial, frozenset()), step, lambda s: not l2.accepting.isdisjoint(s[1])
    )


def concat(l1: Dfa, l2: Dfa) -> Dfa:
    """Classical concatenation: the subset construction over pairs (state
    of L1, set of L2 states), where each accepting L1 state starts a run
    of L2.  The independent construction against which
    ``concat_decompose`` is validated."""
    _require_same_alphabet(l1, l2)
    t1, acc1, start2 = l1.transitions, l1.accepting, frozenset({l2.initial})
    cols = list(zip(*l2.transitions))  # per letter, each L2 state's successor

    def step(s: tuple[int, frozenset[int]]) -> Iterator[tuple[int, frozenset[int]]]:
        p, tail = s
        for p1, col in zip(t1[p], cols):
            moved = frozenset(map(col.__getitem__, tail))
            yield p1, (moved | start2 if p1 in acc1 else moved)

    start = (l1.initial, start2 if l1.initial in acc1 else frozenset())
    return _subset_dfa(l1.alphabet, start, step, lambda s: not l2.accepting.isdisjoint(s[1]))


def star(l: Dfa) -> Dfa:
    """Kleene star: the subset construction over sets of L's states, where
    reaching an accepting state starts a new run of L.  The empty set is
    the start state: it accepts ε and reads as L's initial state."""
    acc, start, cols = l.accepting, frozenset({l.initial}), list(zip(*l.transitions))

    def step(s: frozenset[int]) -> Iterator[frozenset[int]]:
        for col in cols:
            moved = frozenset(map(col.__getitem__, s or start))
            yield moved if acc.isdisjoint(moved) else moved | start

    return _subset_dfa(l.alphabet, frozenset(), step, lambda s: not s or not acc.isdisjoint(s))


def concat_decompose(l1: Dfa, l2: Dfa, verbatim: bool = False) -> Dfa:
    """Concatenation assembled from marked concatenations and quotients:

        L1 L2  =  union over a of  L1 a (a^-1 L2),  plus L1 when ε in L2.

    With ``verbatim=True`` the correction term for ε in L2 is omitted,
    which drops the words of L1 paired with the empty suffix; the flag
    exists so the uncorrected identity can be evaluated for comparison.
    """
    _check_flag(verbatim, "verbatim")
    _require_same_alphabet(l1, l2)
    alph = l1.alphabet
    out = empty_language(alph)
    for c in range(len(alph)):
        q2 = left_quotient((c,), l2)
        out = union(out, marked_concat(l1, c, q2))
    if not verbatim and l2.accepts(()):
        out = union(out, l1)
    return out
