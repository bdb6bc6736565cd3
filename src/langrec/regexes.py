"""Regular expression syntax and compilation to canonical DFAs.

Text syntax:

    ∅ or 0          empty language
    ε or 1          empty word
    a               single-character letter name
    'a#0' / "a#0"   quoted letter name (required for multi-character names,
                    whitespace and the symbols on this list)
    r s  /  r . s   concatenation
    r | s           union
    r & s           intersection
    ~ r             complement (binds to the following starred atom)
    r *             Kleene star
    ( r )           grouping

Precedence, loosest to tightest: ``|``, ``&``, juxtaposition, ``~``/``*``.
``render_regex`` and ``dfa_to_regex`` quote a name as ``_letter_text``
says; a name holding both quote characters has no text and is refused.

A regex compiles through one Thompson ε-NFA of its whole AST (Thompson,
CACM 11(6), 1968) and one subset construction, whose result is minimised
and numbered canonically.  ``&`` and ``~`` have no ε-NFA fragment: the
canonical DFA of each such subterm is compiled the same way, combined by
a product or by flipping acceptance, and embedded in the enclosing NFA.
``Concat(())`` denotes ε, ``Union(())`` ∅ and ``Intersect(())`` every
word.  Parentheses, complements and postfix stars nest, and an AST's
operator nodes stack, at most ``MAX_NESTING`` levels deep (a letter or
constant is no level): renderer and compiler recurse per level, the
parser per parenthesis.  The parser checks both counts, so it refuses
what the compiler would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InputError
from .languages import _QUOTES, Alphabet, Dfa, _check_alphabet, _quote, _read_quoted, _subset_dfa
from .languages import complement, intersection, universal_language


@dataclass(frozen=True)
class Regex:
    pass


@dataclass(frozen=True)
class Empty(Regex):
    pass


@dataclass(frozen=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True)
class Letter(Regex):
    name: str


@dataclass(frozen=True)
class Concat(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True)
class Union(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True)
class Intersect(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True)
class Complement(Regex):
    inner: Regex


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


# the tokenizer's symbols and the two quote characters
_RESERVED = "∅01ε.|&~*()" + _QUOTES

# the parser takes one stack frame per parenthesis and none per
# complement or star, the compiler up to three per AST level; Python's
# default stack holds about a thousand
MAX_NESTING = 100

_END = ("end", "")  # the token after the last


def _too_deep() -> InputError:
    return InputError(
        f"regular expression nested more than {MAX_NESTING} levels deep"
        " (each parenthesis, complement and star is a level)"
    )


def _letter_text(name: str) -> str:
    """A letter name as the tokenizer reads it back: bare when it is one
    character that is neither reserved nor whitespace, else quoted as
    ``languages._quote`` does; the one writer of a regex's names."""
    if len(name) == 1 and name not in _RESERVED and not name.isspace():
        return name
    return _quote(name, "regex")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in _QUOTES:
            name, i = _read_quoted(text, i)
            tokens.append(("name", name))
            continue
        if not ch.isspace():  # a symbol or a one-character name
            tokens.append(("sym" if ch in _RESERVED else "name", ch))
        i += 1
    return tokens


def parse_regex(text: str) -> Regex:
    """The AST of ``text``.  One loop reads a ``|``-list of ``&``-lists
    of concatenations of terms, a term being complements, an atom and
    stars; a parenthesis recurses, one stack frame per level."""
    if not isinstance(text, str):
        raise InputError(f"a regular expression is read from a string, not {text!r}")
    tokens = _tokenize(text) + [_END]
    pos = 0

    def group(depth: int) -> Regex:
        """The regex from ``tokens[pos]`` up to its closing ``)`` or the
        end, ``depth`` levels deep."""
        nonlocal pos
        unions, inters, parts = [], [], []  # the open |-, &- and concatenation lists
        while True:
            negs = 0  # each complement is a level around the starred atom
            while tokens[pos] == ("sym", "~"):
                pos, negs = pos + 1, negs + 1
            level = depth + negs
            if level > MAX_NESTING:
                raise _too_deep()
            kind, val = tokens[pos]
            pos += 1
            if kind == "name":
                r = Letter(val)
            elif kind == "end":
                raise InputError("unexpected end of regular expression")
            elif val in ("∅", "0"):
                r = Empty()
            elif val in ("ε", "1"):
                r = Epsilon()
            elif val == "(":
                if level + 1 > MAX_NESTING:
                    raise _too_deep()
                r = group(level + 1)
                if tokens[pos] == _END:  # else the group stopped at its ')'
                    raise InputError("unexpected end of regular expression")
                pos += 1
            else:
                raise InputError(f"unexpected {val!r} in regular expression")
            while tokens[pos] == ("sym", "*"):
                pos, level = pos + 1, level + 1  # each star wraps r once more
                if level > MAX_NESTING:
                    raise _too_deep()
                r = Star(r)
            for _ in range(negs):
                r = Complement(r)
            parts.append(r)
            kind, val = tokens[pos]
            if kind == "name" or kind == "sym" and val not in "&|)":  # the next term
                if val == "." and kind == "sym":
                    pos += 1
                continue
            inters.append(parts[0] if len(parts) == 1 else Concat(tuple(parts)))
            parts = []
            if val == "&":
                pos += 1
                continue
            unions.append(inters[0] if len(inters) == 1 else Intersect(tuple(inters)))
            inters = []
            if val == "|":
                pos += 1
                continue
            return unions[0] if len(unions) == 1 else Union(tuple(unions))

    r = group(0)
    if tokens[pos] != _END:
        raise InputError(f"trailing input at {tokens[pos][1]!r}")
    # the compiler's count of levels, so that no regex parses that
    # ``regex_to_dfa`` then refuses as too deep
    regex_letters(r)
    return r


def _children(r: Regex) -> tuple[Regex, ...]:
    if isinstance(r, (Concat, Union, Intersect)):
        return r.parts
    if isinstance(r, (Complement, Star)):
        return (r.inner,)
    return ()


def regex_letters(r: Regex) -> set[str]:
    """The letter names in ``r``.  An AST whose operator nodes nest
    more than ``MAX_NESTING`` levels deep is refused: compiling it would
    overflow the stack.  A leaf is no level, as a letter is none to the
    parser."""
    out: set[str] = set()
    stack = [(r, 0)]  # a node and the number of operators above it
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Letter):
            out.add(node.name)
        children = _children(node)
        if children and depth == MAX_NESTING:
            raise _too_deep()
        stack.extend((c, depth + 1) for c in children)
    return out


def regex_to_dfa(r: "Regex | str", alph: Alphabet) -> Dfa:
    """Compile to the canonical minimal DFA of the denoted language."""
    _check_alphabet(alph, "a regex's alphabet")
    if isinstance(r, str):
        r = parse_regex(r)
    for name in regex_letters(r):
        if name not in alph:
            raise InputError(f"regex letter {name!r} not in alphabet {alph.letters}")
    return _compile(r, alph)


def _compile(r: Regex, alph: Alphabet) -> Dfa:
    """One subset construction over the Thompson ε-NFA of ``r``; an
    ``&`` or ``~`` at the root combines its operands' DFAs instead."""
    if isinstance(r, Intersect):
        parts = [_compile(p, alph) for p in r.parts]
        return functools.reduce(intersection, parts or [universal_language(alph)])
    if isinstance(r, Complement):
        return complement(_compile(r.inner, alph))
    trans, eps, start, end = _thompson(r, alph)
    letters = range(len(alph))

    def step(s: frozenset[int]) -> list[frozenset[int]]:
        return [_eclose(eps, set().union(*(trans[q][c] for q in s))) for c in letters]

    return _subset_dfa(alph, _eclose(eps, {start}), step, lambda s: end in s)


def _eclose(eps: list[set[int]], states: set[int]) -> frozenset[int]:
    """The states reachable from ``states`` by ε-moves."""
    out = set(states)
    stack = list(out)
    while stack:
        q = stack.pop()
        for r in eps[q]:
            if r not in out:
                out.add(r)
                stack.append(r)
    return frozenset(out)


def _thompson(r: Regex, alph: Alphabet) -> tuple[list, list[set[int]], int, int]:
    """Thompson's ε-NFA of ``r`` as its letter table, its ε table, its
    start and its end state.  Each node is a fragment with a fresh start
    state that no edge enters and a fresh end state that no edge leaves.
    An ``&`` or ``~`` node embeds its canonical DFA."""
    k = len(alph)
    trans: list[list[set[int]]] = []
    eps: list[set[int]] = []

    def state() -> int:
        trans.append([set() for _ in range(k)])
        eps.append(set())
        return len(eps) - 1

    def build(r: Regex) -> tuple[int, int]:
        s, e = state(), state()
        if isinstance(r, Epsilon):
            eps[s].add(e)
        elif isinstance(r, Letter):
            trans[s][alph.index(r.name)].add(e)
        elif isinstance(r, Concat):
            last = s
            for p in r.parts:
                ps, pe = build(p)
                eps[last].add(ps)
                last = pe
            eps[last].add(e)
        elif isinstance(r, Union):
            for p in r.parts:
                ps, pe = build(p)
                eps[s].add(ps)
                eps[pe].add(e)
        elif isinstance(r, Star):
            ps, pe = build(r.inner)
            eps[s] |= {ps, e}
            eps[pe] |= {ps, e}
        elif isinstance(r, (Intersect, Complement)):
            d = _compile(r, alph)
            base = len(eps)
            for row in d.transitions:
                q = state()
                for c, t in enumerate(row):
                    trans[q][c].add(base + t)
            eps[s].add(base + d.initial)
            for q in d.accepting:
                eps[base + q].add(e)
        elif not isinstance(r, Empty):
            raise InputError(f"unknown regex node {r!r}")
        return s, e

    start, end = build(r)
    return trans, eps, start, end


def render_regex(r: Regex) -> str:
    """Render an AST back to parseable text."""

    def go(r: Regex, level: int) -> str:
        # level: 0 union, 1 intersect, 2 concat, 3 unary
        if isinstance(r, Empty):
            return "∅"
        if isinstance(r, Epsilon):
            return "ε"
        if isinstance(r, Letter):
            return _letter_text(r.name)
        if isinstance(r, Union):
            s = "|".join(go(p, 1) for p in r.parts)
            return f"({s})" if level > 0 else s
        if isinstance(r, Intersect):
            s = "&".join(go(p, 2) for p in r.parts)
            return f"({s})" if level > 1 else s
        if isinstance(r, Concat):
            s = " ".join(go(p, 3) for p in r.parts)
            return f"({s})" if level > 2 else s
        if isinstance(r, Complement):
            return f"~{go(r.inner, 3)}"
        if isinstance(r, Star):
            inner = go(r.inner, 3)
            if isinstance(r.inner, Complement):
                inner = f"({inner})"  # star binds tighter than complement
            return f"{inner}*"
        raise InputError(f"unknown regex node {r!r}")

    return go(r, 0)


# -- informational regex recovery ---------------------------------------


def _r_union(x: str | None, y: str) -> str:
    if x is None or x == y:
        return y
    return f"{x}|{y}"


def _r_concat(x: str, y: str) -> str:
    if x == "ε":
        return y
    if y == "ε":
        return x
    xs = f"({x})" if "|" in x else x
    ys = f"({y})" if "|" in y else y
    return f"{xs}{ys}"


def _r_star(x: str | None) -> str | None:
    if x is None or x == "ε":
        return "ε"
    if len(x) == 1:
        return f"{x}*"
    return f"({x})*"


def dfa_to_regex(d: Dfa) -> str:
    """State elimination; informational rendering only (may be unsimplified)."""
    n = d.states
    init, fin = n, n + 1
    # labels[p][q]: regex string or None for no edge
    lab: list[list[str | None]] = [[None] * (n + 2) for _ in range(n + 2)]
    names = [_letter_text(name) for name in d.alphabet.letters]
    for p, row in enumerate(d.transitions):
        for q, name in zip(row, names):
            lab[p][q] = _r_union(lab[p][q], name)
    lab[init][d.initial] = "ε"
    for q in d.accepting:
        lab[q][fin] = "ε"
    order = list(range(n))
    alive = set(range(n + 2))
    for s in order:
        alive.discard(s)
        loop = _r_star(lab[s][s])
        for p in alive:
            if lab[p][s] is None:
                continue
            for q in alive:
                if lab[s][q] is None:
                    continue
                through = _r_concat(_r_concat(lab[p][s], loop), lab[s][q])
                lab[p][q] = _r_union(lab[p][q], through)
        for p in range(n + 2):
            lab[p][s] = None
            lab[s][p] = None
    out = lab[init][fin]
    return out if out is not None else "∅"
