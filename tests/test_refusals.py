"""Refusals at the package's edges, each pinned to its exact message, and
the text formats read in one place: JSON through ``languages._read_json``
and the CLI's ``--input``/``--input2`` files through ``cli._load_input``."""

import json

import pytest

from langrec import (
    Alphabet,
    Biaction,
    Dfa,
    EquationInstance,
    ExtendedAlphabet,
    FiniteMonoid,
    FiniteQuotient,
    HitClopen,
    InputError,
    MarkedWord,
    MonoidMorphism,
    PreconditionError,
    UltrafilterApprox,
    Word,
    all_morphisms,
    exists_profile,
    generate_algebra,
    inverse_image,
    joint_quotient,
    left_quotient,
    local_schutz_morphism,
    morphism_preserves_actions,
    parse_regex,
    recognised_algebra,
    regex_to_dfa,
    regular_biaction,
    separation_witness,
    syntactic_monoid,
    transport,
    trivial_algebra,
)
from langrec.campaigns import run_campaign
from langrec.cli import main
from langrec.regexes import Concat, Letter, Star, Union

AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))
Z2 = FiniteMonoid(((0, 1), (1, 0)), identity=0)
U1 = FiniteMonoid(((0, 1), (1, 1)), identity=0)
ZERO = FiniteMonoid(((0,),), identity=None)  # the one-element semigroup
SWAP, KEEP = (1, 0), (0, 1)


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is valid JSON")


REFUSALS = [
    ("alphabet-empty", lambda: Alphabet(()), InputError,
     "an alphabet needs at least one letter"),
    ("alphabet-empty-name", lambda: Alphabet(("a", "")), InputError,
     "letter names must be non-empty strings, got ''"),
    ("alphabet-duplicate", lambda: Alphabet(("a", "b", "a")), InputError,
     "duplicate letter names in ('a', 'b', 'a')"),
    ("dfa-row-count", lambda: Dfa(AB, 2, ((1, 1),), {1}), InputError,
     "transition table must have one row per state"),
    ("dfa-row-width", lambda: Dfa(AB, 2, ((1, 1), (1,)), {1}), InputError,
     "each transition row must cover the whole alphabet"),
    ("regex-unterminated-quote", lambda: parse_regex("a 'bc"), InputError,
     "unterminated quoted letter name at \"'bc\""),
    ("regex-empty-quote", lambda: parse_regex("a''"), InputError,
     "empty quoted letter name"),
    ("regex-unexpected-end", lambda: parse_regex("a|"), InputError,
     "unexpected end of regular expression"),
    ("regex-missing-paren", lambda: parse_regex("(a|b"), InputError,
     "unexpected end of regular expression"),
    ("regex-trailing-input", lambda: parse_regex("a)"), InputError,
     "trailing input at ')'"),
    ("regex-unexpected-symbol", lambda: parse_regex("a|*b"), InputError,
     "unexpected '*' in regular expression"),
    ("regex-dot-without-operand", lambda: parse_regex("a."), InputError,
     "unexpected end of regular expression"),
    ("split-tracking-alphabets", lambda: local_schutz_morphism(
        MonoidMorphism(AB, U1, (1, 0)), MonoidMorphism(A1, U1, (1,))), InputError,
     "the two morphisms must share an alphabet"),
    ("split-tracking-semigroup", lambda: local_schutz_morphism(
        MonoidMorphism(AB, U1, (1, 0)), MonoidMorphism(AB, ZERO, (0, 0))), PreconditionError,
     "split tracking is defined for monoid morphisms"),
    ("exists-plain-alphabet", lambda: exists_profile(MonoidMorphism(AB, U1, (1, 0)), "ab"),
     InputError, "the recognising morphism must read the doubled alphabet"),
    ("hit-clopen-mode", lambda: HitClopen("all", {1}), InputError,
     "mode must be 'hit' or 'miss'"),
    ("joint-quotient-of-nothing", lambda: joint_quotient([]), InputError,
     "need at least one language"),
    ("morphism-image-count", lambda: MonoidMorphism(AB, U1, (1,)), InputError,
     "need exactly one image per letter"),
    ("biaction-shape", lambda: Biaction(Z2, 2, (SWAP,), (KEEP, SWAP)), InputError,
     "need one carrier self-map per monoid element"),
    ("biaction-laws", lambda: Biaction(Z2, 2, (SWAP, KEEP), (KEEP, SWAP)), InputError,
     "action laws violated: unit law fails at 0"),
    ("actions-map-size", lambda: morphism_preserves_actions(
        (0,), regular_biaction(Z2), regular_biaction(Z2)), InputError,
     "map sizes do not match the source structure"),
    ("equation-two-quotients", lambda: EquationInstance(
        UltrafilterApprox(joint_quotient([regex_to_dfa("(aa)*", A1)]), 0),
        UltrafilterApprox(joint_quotient([regex_to_dfa("a", A1)]), 0)), InputError,
     "equation sides must share a quotient"),
    ("separation-alphabets", lambda: separation_witness(
        regex_to_dfa("a", A1), generate_algebra([], AB)), InputError,
     "candidate and algebra must share an alphabet"),
    ("campaign-unknown", lambda: run_campaign("thm99"), InputError,
     "unknown campaign 'thm99'; choose from "
     "['cor9', 'lemmas', 'prop2', 'thm10', 'thm11', 'thm4', 'thm8']"),
    ("campaign-flag", lambda: run_campaign("thm8", max_len=3), InputError,
     "--max-len has no meaning for the thm8 campaign"),
    ("dfa-invalid-json", lambda: Dfa.from_json('{"states": 1,'), InputError,
     "invalid JSON: " + _json_error('{"states": 1,')),
    ("monoid-invalid-json", lambda: FiniteMonoid.from_json("[[0]"), InputError,
     "invalid JSON: " + _json_error("[[0]")),
    # the empty word has no image under a semigroup morphism, plain or marked
    ("exists-empty-word", lambda: exists_profile(
        MonoidMorphism(ExtendedAlphabet(A1).ext, ZERO, (0, 0)), ()), PreconditionError,
     "the empty word has no image under a semigroup morphism"),
    ("regex-string-alphabet", lambda: regex_to_dfa("'ab'", "abc"), InputError,
     "a regex's alphabet must be an Alphabet, not 'abc'"),
    # a word argument that is no sequence of letters, and a word's text
    # that is no string
    ("accepts-an-int", lambda: regex_to_dfa("a", AB).accepts(5), InputError,
     "5 is not a word over Alphabet(a,b)"),
    ("left-quotient-by-none", lambda: left_quotient(None, regex_to_dfa("a", AB)), InputError,
     "None is not a word over Alphabet(a,b)"),
    ("class-of-a-float", lambda: syntactic_monoid(regex_to_dfa("a", AB)).class_of(3.5),
     InputError, "3.5 is not a word over Alphabet(a,b)"),
    ("word-parse-an-int", lambda: Word.parse(AB, 5), InputError,
     "a word is read from a string, not 5"),
    ("marked-word-parse-an-int", lambda: MarkedWord.parse(AB, 3), InputError,
     "marked word needs the w@i form, got 3"),
    ("transport-int-image", lambda: transport({"a": 5, "b": "a"}, trivial_algebra(AB), AB),
     InputError, "a word is read from a string, not 5"),
    ("inverse-image-list-image", lambda: inverse_image(
        {"a": ["a"], "b": "a"}, regex_to_dfa("a", AB), AB), InputError,
     "a word is read from a string, not ['a']"),
    # a table, row or letter sequence that is no sequence at all
    ("monoid-int-row", lambda: FiniteMonoid((5,), 0), InputError,
     "a multiplication table must be a sequence of rows, not (5,)"),
    ("dfa-int-row", lambda: Dfa(AB, 1, (5,), {0}), InputError,
     "a transition table must be a sequence of rows, not (5,)"),
    ("dfa-int-accepting", lambda: Dfa(AB, 1, ((0, 0),), 5), InputError,
     "the accepting states must be a sequence, not 5"),
    ("quotient-int-row", lambda: FiniteQuotient(AB, False, (5,)), InputError,
     "a Cayley graph must be a sequence of rows, not (5,)"),
    ("biaction-int-row", lambda: Biaction(U1, 1, (5,), ((0,),)), InputError,
     "a left action must be a sequence of rows, not (5,)"),
    ("alphabet-int", lambda: Alphabet(5), InputError,
     "an alphabet's letters must be a sequence, not 5"),
    ("word-int", lambda: Word(AB, 5), InputError,
     "a word's letter indices must be a sequence, not 5"),
    ("morphism-int-images", lambda: MonoidMorphism(AB, U1, 5), InputError,
     "letter images must be a sequence, not 5"),
    ("regex-int", lambda: parse_regex(5), InputError,
     "a regular expression is read from a string, not 5"),
]

# a string of letters is no alphabet: the quoted letter 'ab' passed a
# substring test against "abc" and was read as the letter a.  Each site
# names the alphabet it checks.
STRING_ALPHABETS = {
    "regex_to_dfa": (lambda s: regex_to_dfa("a", s), "a regex's alphabet"),
    "MonoidMorphism": (lambda s: MonoidMorphism(s, U1, (1, 0)), "a morphism's alphabet"),
    "FiniteQuotient": (lambda s: FiniteQuotient(s, False, ((1, 1), (1, 1))),
                       "a quotient's alphabet"),
    "generate_algebra": (lambda s: generate_algebra([], s), "a closure's alphabet"),
    "trivial_algebra": (lambda s: trivial_algebra(s), "a closure's alphabet"),
    "recognised_algebra": (lambda s: recognised_algebra(U1, s), "a morphism's alphabet"),
    "all_morphisms": (lambda s: all_morphisms(s, U1), "a morphism's alphabet"),
    "Word": (lambda s: Word(s, (0,)), "a word's alphabet"),
    "ExtendedAlphabet": (lambda s: ExtendedAlphabet(s), "a base alphabet"),
    "transport": (lambda s: transport({"a": "a", "b": "b"}, trivial_algebra(AB), s),
                  "a source alphabet"),
    "inverse_image": (lambda s: inverse_image({"a": "a", "b": "b"}, regex_to_dfa("a", AB), s),
                      "a source alphabet"),
}


@pytest.mark.parametrize("build, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal_message(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("site", sorted(STRING_ALPHABETS))
def test_a_string_is_no_alphabet(site):
    build, what = STRING_ALPHABETS[site]
    build(AB)
    with pytest.raises(InputError) as exc:
        build("ab")
    assert type(exc.value) is InputError
    assert str(exc.value) == f"{what} must be an Alphabet, not 'ab'"


def test_dot_is_concatenation():
    a, b = Letter("a"), Letter("b")
    assert parse_regex("a.b") == parse_regex("ab") == Concat((a, b))
    assert parse_regex("a.(a|b)*.b") == Concat((a, Star(Union((a, b))), b))
    assert regex_to_dfa("(a|b).a.b*", AB) == regex_to_dfa("(a|b)ab*", AB)


class TestCliInputFiles:
    """Every file the CLI reads goes through one reader: a missing flag,
    a missing file and a file that is no JSON each exit with code 2 and
    one message."""

    @pytest.mark.parametrize("argv, message", [
        (["construct", "synmon"], "need --input FILE or --regex STR"),
        (["construct", "schutz1"], "need --input FILE with a monoid table"),
        (["construct", "algebra"], "need --input FILE with an algebra description"),
    ])
    def test_missing_flag(self, argv, message, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_second_monoid(self, tmp_path, capsys):
        src = tmp_path / "z2.monoid.json"
        src.write_text(Z2.to_json())
        assert main(["construct", "schutz2", "--input", str(src), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: need --input2 FILE with a monoid table\n"

    @pytest.mark.parametrize("kind", ["synmon", "schutz1", "algebra"])
    def test_missing_and_malformed_files(self, kind, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["construct", kind, "--input", str(missing), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"
        bad = tmp_path / "bad.json"
        bad.write_text("{'alphabet': []}", encoding="utf-8")
        assert main(["construct", kind, "--input", str(bad), "--out", str(tmp_path)]) == 2
        error = _json_error(bad.read_text(encoding="utf-8"))
        assert capsys.readouterr().err == f"error: {bad}: invalid JSON: {error}\n"
