"""Command-line interface.

Two subcommands:

``construct``: run one construction on file/regex inputs and write
canonical output files (DFAs and monoids in the JSON formats described
in the README).

``verify``: run a seeded verification campaign for one theorem-level
claim and emit a deterministic report (JSON lines by default).

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 resource ceiling exceeded, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import (
    LanguageAlgebra,
    dual_recogniser,
    generate_algebra,
    schutz_sum,
)
from .campaigns import _CAMPAIGNS, run_campaign
from .errors import InputError, LangrecError
from .languages import Alphabet, Dfa, Word, _read_json, closure_ceiling, closure_limit
from .languages import left_quotient, right_quotient
from .marking import exists_projection
from .monoids import FiniteMonoid, syntactic_monoid
from .regexes import dfa_to_regex, regex_to_dfa
from .schutz import BinarySchutz, UnarySchutz

# writing, summing or tabulating n atoms or elements costs about n*n, so
# the algebra and syntactic-monoid constructions bound their closure well
# below the default ceiling
_ALGEBRA_CLOSURE = 4000


def _algebra_ceiling() -> int:
    """Closure ceiling of ``construct synmon|algebra|bsum|dualrec``
    without ``--max-size``:
    ``LANGREC_MAX_CLOSURE`` when it is set, else 4000."""
    return closure_limit(default=_ALGEBRA_CLOSURE)


def _parse_alphabet(spec: str | None) -> Alphabet:
    if not spec:
        raise InputError("this construction needs --alphabet (comma-separated letters)")
    return Alphabet(tuple(s for s in spec.split(",") if s))


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    return _read_json(text, f"{path}: ")


def _load_input(args, which: str, needs: str) -> dict:
    """The JSON of the file that ``--which`` names."""
    path = getattr(args, which)
    if not path:
        raise InputError(f"need --{which} FILE {needs}")
    return _load_json(path)


def _load_dfa(args) -> Dfa:
    if args.regex is not None and not args.input:
        return regex_to_dfa(args.regex, _parse_alphabet(args.alphabet))
    return Dfa.from_json_dict(_load_input(args, "input", "or --regex STR"))


def _load_monoid(args, which: str = "input") -> FiniteMonoid:
    return FiniteMonoid.from_json_dict(_load_input(args, which, "with a monoid table"))


def _load_algebra(args, which: str = "input") -> LanguageAlgebra:
    data = _load_input(args, which, "with an algebra description")
    try:
        letters, entries = data["alphabet"], data.get("generators", [])
        if not isinstance(letters, list) or not isinstance(entries, list):
            raise InputError("alphabet and generators must be JSON lists")
        alph = Alphabet(tuple(letters))
        semigroup = data.get("semigroup", False)  # generate_algebra refuses a non-bool
        gens = []
        for g in entries:
            if isinstance(g, str):
                gens.append(regex_to_dfa(g, alph))
            elif isinstance(g, dict) and "dfa" in g:
                gens.append(Dfa.from_json_dict(g["dfa"]))
            elif isinstance(g, dict) and "dfa_file" in g:
                gens.append(Dfa.from_json_dict(_load_json(g["dfa_file"])))
            else:
                raise InputError(f"unreadable generator entry: {g!r}")
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed algebra file: {exc}") from exc
    with closure_ceiling(_algebra_ceiling()):
        return generate_algebra(gens, alph, semigroup=semigroup)


def _write(args, name: str, text: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")
    return path


def _dump(data: dict) -> str:
    return json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _write_algebra(args, prefix: str, alg: LanguageAlgebra) -> None:
    atom_files = []
    regexes = []
    for i, atom in enumerate(alg.atoms):
        name = f"{prefix}.atom{i:03d}.dfa.json"
        _write(args, name, _dump(atom.to_json_dict()))
        atom_files.append(name)
        regexes.append(dfa_to_regex(atom))
    manifest = {
        "alphabet": list(alg.alphabet.letters),
        "semigroup": alg.semigroup,
        "atom_files": atom_files,
        "atom_regexes": regexes,
        "atom_representatives": [w.text() for w in alg.atom_reps],
    }
    _write(args, f"{prefix}.json", _dump(manifest))
    print(f"{prefix}: {len(alg.atoms)} atoms over {{{','.join(alg.alphabet.letters)}}}")
    for i, r in enumerate(regexes):
        print(f"  atom {i:03d}: {r}")


def _cmd_construct(args) -> int:
    kind = args.kind
    if args.max_size is not None and kind in ("quotient", "algebra", "bsum", "dualrec"):
        raise InputError(f"--max-size has no meaning for the {kind} construction")
    if kind == "synmon":
        l = _load_dfa(args)
        bound = _algebra_ceiling() if args.max_size is None else args.max_size
        with closure_ceiling(bound):
            syn = syntactic_monoid(l)
        accepting = sorted(syn.saturation(l))
        _write(args, "synmon.monoid.json", _dump(syn.monoid.to_json_dict()))
        _write(args, "synmon.recogniser.json", _dump({
            "alphabet": list(l.alphabet.letters),
            "letter_images": list(syn.morphism.letter_images),
            "accepting": accepting,
            "monoid": syn.monoid.to_json_dict(),
        }))
        print(f"syntactic monoid: {syn.monoid.size} elements, accepting {accepting}")
    elif kind == "quotient":
        l = _load_dfa(args)
        if args.word is None:
            raise InputError("quotient needs --word")
        w = Word.parse(l.alphabet, args.word)
        side = args.side or "left"
        result = left_quotient(w, l) if side == "left" else right_quotient(l, w)
        _write(args, "quotient.dfa.json", _dump(result.to_json_dict()))
        print(f"{side} quotient by {w.text()}: {result.states} states")
    elif kind == "exists":
        l = _load_dfa(args)
        with closure_ceiling(args.max_size):
            result = exists_projection(l)
        _write(args, "exists.dfa.json", _dump(result.to_json_dict()))
        print(f"existential projection: {result.states} states, "
              f"regex {dfa_to_regex(result)}")
    elif kind == "schutz1":
        m = _load_monoid(args)
        product = UnarySchutz(m)
        bound = {} if args.max_size is None else {"max_base": args.max_size}
        mfm, _ = product.as_finite_monoid(**bound)
        _write(args, "schutz1.monoid.json", _dump(mfm.to_json_dict()))
        print(f"unary product: {mfm.size} elements "
              f"({'semigroup' if m.is_semigroup else 'monoid'} mode)")
    elif kind == "schutz2":
        m = _load_monoid(args, "input")
        n = _load_monoid(args, "input2")
        product = BinarySchutz(m, n)
        bound = {} if args.max_size is None else {"max_carrier": args.max_size}
        mfm, _ = product.as_finite_monoid(**bound)
        _write(args, "schutz2.monoid.json", _dump(mfm.to_json_dict()))
        print(f"binary product: {mfm.size} elements")
    elif kind == "algebra":
        alg = _load_algebra(args)
        _write_algebra(args, "algebra", alg)
    elif kind == "bsum":
        a1 = _load_algebra(args, "input")
        a2 = _load_algebra(args, "input2")
        with closure_ceiling(_algebra_ceiling()):
            total = schutz_sum(a1, a2)
        _write_algebra(args, "bsum", total)
    elif kind == "dualrec":
        alg = dual_recogniser(_load_algebra(args))
        _write(args, "dualrec.monoid.json", _dump(alg.monoid.to_json_dict()))
        _write(args, "dualrec.recogniser.json", _dump({
            "alphabet": list(alg.alphabet.letters),
            "letter_images": list(alg.tau.letter_images),
            "atom_representatives": [w.text() for w in alg.atom_reps],
            "monoid": alg.monoid.to_json_dict(),
        }))
        print(f"dual recogniser: {alg.monoid.size} atoms")
    else:
        raise InputError(f"unknown construction {kind!r}")
    return 0


def _cmd_verify(args) -> int:
    report = run_campaign(args.theorem, args.seed, samples=args.samples,
                          max_size=args.max_size, max_len=args.max_len)
    text = report.pretty() if args.pretty else report.json_lines()
    if args.out:
        _write(args, f"verify.{args.theorem}.{'txt' if args.pretty else 'jsonl'}", text)
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langrec",
        description="finite recognisers, product constructions, and "
        "theorem-verification campaigns for regular languages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="run one construction, write canonical files")
    c.add_argument("kind", choices=[
        "synmon", "quotient", "exists", "schutz1", "schutz2",
        "algebra", "bsum", "dualrec",
    ])
    c.add_argument("--alphabet", help="comma-separated letter names (with --regex)")
    c.add_argument("--input", help="input file (DFA / monoid / algebra JSON)")
    c.add_argument("--input2", help="second input file where applicable")
    c.add_argument("--regex", help="inline regular expression instead of --input")
    c.add_argument("--word", help="word to quotient by (construct quotient)")
    c.add_argument("--side", choices=["left", "right"], help="quotient side")
    c.add_argument("--max-size", type=int, help="materialisation bound override")
    c.add_argument("--out", default=".", help="output directory")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="run a seeded verification campaign")
    v.add_argument("theorem", choices=list(_CAMPAIGNS))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--samples", type=int, help="instance count override")
    v.add_argument("--max-size", type=int, help="size bound override")
    v.add_argument("--max-len", type=int, help="word length bound override")
    v.add_argument("--pretty", action="store_true",
                   help="human-readable report instead of JSON lines")
    v.add_argument("--out", help="write the report into this directory")
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LangrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
