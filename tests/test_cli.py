import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from langrec import Alphabet, Dfa, FiniteMonoid, campaigns, regex_to_dfa
from langrec.cli import main

AB = Alphabet(("a", "b"))


def run_cli(*argv) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "langrec", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestConstruct:
    def test_synmon_round_trip(self, tmp_path):
        code = main([
            "construct", "synmon",
            "--regex", "(a|b)*a(a|b)*", "--alphabet", "a,b",
            "--out", str(tmp_path),
        ])
        assert code == 0
        monoid = FiniteMonoid.from_json((tmp_path / "synmon.monoid.json").read_text())
        assert monoid.size == 2
        rec = json.loads((tmp_path / "synmon.recogniser.json").read_text())
        assert rec["letter_images"] == [1, 0]
        assert rec["accepting"] == [1]

    def test_exists_projection_command(self, tmp_path):
        ext_dfa = regex_to_dfa(
            "('a#0'|'b#0')* 'a#1' ('a#0'|'b#0')*",
            Alphabet(("a#0", "a#1", "b#0", "b#1")),
        )
        src = tmp_path / "marked.dfa.json"
        src.write_text(ext_dfa.to_json())
        code = main(["construct", "exists", "--input", str(src), "--out", str(tmp_path)])
        assert code == 0
        got = Dfa.from_json((tmp_path / "exists.dfa.json").read_text())
        assert got == regex_to_dfa("(a|b)*a(a|b)*", AB)

    def test_quotient_command(self, tmp_path):
        src = tmp_path / "lang.dfa.json"
        src.write_text(regex_to_dfa("(a|b)*ab", AB).to_json())
        code = main([
            "construct", "quotient", "--input", str(src),
            "--word", "b", "--side", "right", "--out", str(tmp_path),
        ])
        assert code == 0
        got = Dfa.from_json((tmp_path / "quotient.dfa.json").read_text())
        assert got == regex_to_dfa("(a|b)*a", AB)

    def test_schutz1_size(self, tmp_path):
        code = main([
            "construct", "synmon", "--regex", "(a|b)*a(a|b)*",
            "--alphabet", "a,b", "--out", str(tmp_path),
        ])
        assert code == 0
        code = main([
            "construct", "schutz1",
            "--input", str(tmp_path / "synmon.monoid.json"), "--out", str(tmp_path),
        ])
        assert code == 0
        product = FiniteMonoid.from_json((tmp_path / "schutz1.monoid.json").read_text())
        assert product.size == 8  # 2^2 * 2
        assert product.labels is not None

    def test_schutz2_command(self, tmp_path):
        m = FiniteMonoid(((0, 1), (1, 1)), identity=0)
        p = tmp_path / "m.json"
        p.write_text(m.to_json())
        code = main([
            "construct", "schutz2", "--input", str(p), "--input2", str(p),
            "--out", str(tmp_path),
        ])
        assert code == 0
        product = FiniteMonoid.from_json((tmp_path / "schutz2.monoid.json").read_text())
        assert product.size == 2**4 * 4

    def test_schutz_files_are_pinned(self, tmp_path):
        # sha256 of the files written for the syntactic monoids of
        # (a|b)*a(a|b)* (2 elements) and a(a|b)* (3 elements); a change
        # here changes a published construction
        for regex, sub in (("(a|b)*a(a|b)*", "m"), ("a(a|b)*", "n")):
            assert main(["construct", "synmon", "--regex", regex, "--alphabet", "a,b",
                         "--out", str(tmp_path / sub)]) == 0
        m = str(tmp_path / "m" / "synmon.monoid.json")
        n = str(tmp_path / "n" / "synmon.monoid.json")
        assert main(["construct", "schutz1", "--input", n, "--out", str(tmp_path)]) == 0
        assert main(["construct", "schutz2", "--input", m, "--input2", n,
                     "--out", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("schutz1.monoid.json", "schutz2.monoid.json")
        }
        assert digests == {
            "schutz1.monoid.json":
                "a5a05d41ccabcdf22ec606f80aad0e08011fa46cf1dafdc806ac76dcadcb4258",
            "schutz2.monoid.json":
                "3af8bfafd9b7ad36ded8c6484c596b97c4d64625ac834064c4c710d4d3f1853a",
        }

    # sha256 of every file each algebra command writes (name and bytes,
    # in name order) and of its stdout, per mode; a change here changes
    # a published construction
    ALGEBRA_PINS = {
        False: {
            "algebra": ("8f5dada6a885faa231e15935f63e79631849f93debe370611004a8b1d764bd20",
                        "a102c7a8b0775398f905d7f85ec8ff8dcae2cc9f59de4866081c67bd2e4eab3c"),
            "bsum": ("2031b562c998a4176bf4212a4411a268456852e93f0ee862b116db48d2e9e2c3",
                     "3cbd4b81b8d66bd1023a641b2e02c66a89a69510c0c5f7157b03d68b1f9f863a"),
            "dualrec": ("7739c4c97c1ea4fc8ba8f92d08fe16fed46394ff41ff54d5f0b87f677d7d81ec",
                        "54013abb79fd69ceffdf4af8665876562922ecc07e24641f6371c4026e4efd5f"),
        },
        True: {
            "algebra": ("9354c0a44f25f62bab07d910c5f0d16c048c1620d6bd567736a5582119add7a8",
                        "93fac3fba2ffd212e6f85fd880ec6e592319319aea9a3fcc2cb4b0f391e0bdba"),
            "bsum": ("8b358de6be2772ae250b2f62554d6e2f63717cadcb17acece6bff1f55a02afd9",
                     "de9d8921e57e49a16772f0c49d3d365e00fae9c2015893b4dd5c5f629d78ba18"),
            "dualrec": ("9d9173d7be528d17ba21aca3ecaaab4027b65de429153980294132b3a978ea84",
                        "e8a022c0c7ef6484dbbe89965047f1ca3e49a51428608f23b3a9e7c04219d51b"),
        },
    }

    @pytest.mark.parametrize("semigroup", [False, True], ids=["monoid", "semigroup"])
    def test_algebra_files_are_pinned(self, tmp_path, monkeypatch, capsys, semigroup):
        # the README's algebra input, ⟨(a|b)*a(a|b)*⟩ with its DFA file,
        # and ⟨a*b*⟩; bsum has 78 (monoid) or 111 (semigroup) atoms
        monkeypatch.chdir(tmp_path)
        Path("other.dfa.json").write_text(json.dumps({
            "alphabet": ["a", "b"], "states": 2, "initial": 0,
            "accepting": [1], "transitions": [[1, 0], [1, 1]]}))
        gens1 = ["(a|b)*a(a|b)*", {"dfa_file": "other.dfa.json"}]
        for name, gens in (("alg1.json", gens1), ("alg2.json", ["a*b*"])):
            Path(name).write_text(json.dumps(
                {"alphabet": ["a", "b"], "semigroup": semigroup, "generators": gens}))
        runs = {
            "algebra": ["--input", "alg1.json"],
            "bsum": ["--input", "alg1.json", "--input2", "alg2.json"],
            "dualrec": ["--input", "alg2.json"],
        }
        digests = {}
        for kind, inputs in runs.items():
            assert main(["construct", kind, *inputs, "--out", kind]) == 0
            files = hashlib.sha256()
            for path in sorted(Path(kind).iterdir()):
                files.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
            stdout = capsys.readouterr().out.encode()
            digests[kind] = (files.hexdigest(), hashlib.sha256(stdout).hexdigest())
        assert digests == self.ALGEBRA_PINS[semigroup]

    def test_algebra_and_bsum_and_dualrec(self, tmp_path):
        spec = {"alphabet": ["a", "b"], "generators": ["(a|b)*a(a|b)*"]}
        alg_file = tmp_path / "alg.json"
        alg_file.write_text(json.dumps(spec))
        code = main(["construct", "algebra", "--input", str(alg_file), "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "algebra.json").read_text())
        assert len(manifest["atom_files"]) == 2
        atoms = [
            Dfa.from_json((tmp_path / f).read_text()) for f in manifest["atom_files"]
        ]
        assert regex_to_dfa("(a|b)*a(a|b)*", AB) in atoms
        # every emitted atom regex re-parses to the same language
        for f, r in zip(manifest["atom_files"], manifest["atom_regexes"]):
            assert regex_to_dfa(r, AB) == Dfa.from_json((tmp_path / f).read_text())

        trivial_file = tmp_path / "trivial.json"
        trivial_file.write_text(json.dumps({"alphabet": ["a", "b"], "generators": []}))
        code = main([
            "construct", "bsum", "--input", str(alg_file),
            "--input2", str(trivial_file), "--out", str(tmp_path),
        ])
        assert code == 0
        bsum_manifest = json.loads((tmp_path / "bsum.json").read_text())
        assert len(bsum_manifest["atom_files"]) >= 4

        code = main(["construct", "dualrec", "--input", str(alg_file), "--out", str(tmp_path)])
        assert code == 0
        dual = json.loads((tmp_path / "dualrec.recogniser.json").read_text())
        assert dual["monoid"]["size"] == 2

    def test_algebra_file_lists_are_not_strings(self, tmp_path):
        # a string would be read letter by letter: "ab" as the generators a and b
        for spec in ({"alphabet": ["a", "b"], "generators": "ab"},
                     {"alphabet": "ab", "generators": ["ab"]}):
            alg_file = tmp_path / "alg.json"
            alg_file.write_text(json.dumps(spec))
            out = tmp_path / "out"
            code, stdout, err = run_cli("construct", "algebra", "--input", str(alg_file),
                                        "--out", str(out))
            assert code == 2 and "JSON lists" in err
            assert stdout == "" and not out.exists()
        alg_file.write_text(json.dumps({"alphabet": ["a", "b"], "generators": ["ab"]}))
        assert main(["construct", "algebra", "--input", str(alg_file), "--out", str(out)]) == 0
        assert len(json.loads((out / "algebra.json").read_text())["atom_files"]) == 5

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, []])
    def test_algebra_semigroup_flag_must_be_a_json_boolean(self, tmp_path, capsys, flag):
        # bool("false") is True: the string built the semigroup-mode algebra
        alg_file = tmp_path / "alg.json"
        spec = {"alphabet": ["a", "b"], "generators": ["a"]}
        alg_file.write_text(json.dumps({**spec, "semigroup": flag}))
        out = tmp_path / "out"
        assert main(["construct", "algebra", "--input", str(alg_file), "--out", str(out)]) == 2
        assert "semigroup must be true or false" in capsys.readouterr().err
        assert not out.exists()
        for semigroup, atoms in ((None, 3), (False, 3), (True, 2)):
            given = spec if semigroup is None else {**spec, "semigroup": semigroup}
            alg_file.write_text(json.dumps(given))
            assert main(["construct", "algebra", "--input", str(alg_file), "--out", str(out)]) == 0
            assert len(json.loads((out / "algebra.json").read_text())["atom_files"]) == atoms

    def test_schutz1_refuses_labels_that_are_not_strings(self, tmp_path, capsys):
        # a TypeError traceback and exit 1, the code of a failed verification, before
        u1 = tmp_path / "u1.json"
        u1.write_text(json.dumps({"table": [[0, 1], [1, 1]], "identity": 0, "labels": [1, 2]}))
        out = tmp_path / "out"
        assert main(["construct", "schutz1", "--input", str(u1), "--out", str(out)]) == 2
        assert "label 1 is not a string" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["construct", "synmon", "--input", str(bad)]) == 2

    def test_too_deeply_nested_regex_exit_code(self, tmp_path, capsys):
        deep = "(" * 250 + "a" + ")" * 250
        argv = ["construct", "synmon", "--regex", deep, "--alphabet", "a,b", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "nested more than" in capsys.readouterr().err

    def test_missing_input_exit_code(self):
        assert main(["construct", "synmon"]) == 2

    def test_resource_error_exit_code(self, tmp_path):
        z7 = FiniteMonoid(
            tuple(tuple((i + j) % 7 for j in range(7)) for i in range(7)), identity=0
        )
        p = tmp_path / "z7.json"
        p.write_text(z7.to_json())
        assert main(["construct", "schutz1", "--input", str(p), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("kind, bound", [
        ("schutz1", "max_base"), ("schutz2", "max_carrier"),
    ])
    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_schutz_refuses_a_bound_that_is_not_positive(self, tmp_path, capsys, kind, bound, size):
        # an input error, not a resource limit to be raised with --max-size
        p = tmp_path / "u1.json"
        p.write_text(FiniteMonoid(((0, 1), (1, 1)), identity=0).to_json())
        extra = ["--input2", str(p)] if kind == "schutz2" else []
        out = tmp_path / "out"
        argv = ["construct", kind, "--input", str(p), *extra, "--max-size", size, "--out", str(out)]
        assert main(argv) == 2
        assert f"{bound} must be a positive integer, got {size}" in capsys.readouterr().err
        assert not out.exists()

    def test_synmon_max_size_bounds_the_monoid(self, tmp_path):
        # the syntactic monoid of a(a|b)* has 3 elements
        args = ["construct", "synmon", "--regex", "a(a|b)*", "--alphabet", "a,b",
                "--out", str(tmp_path), "--max-size"]
        assert main(args + ["2"]) == 3
        assert not (tmp_path / "synmon.monoid.json").exists()
        assert main(args + ["3"]) == 0
        monoid = FiniteMonoid.from_json((tmp_path / "synmon.monoid.json").read_text())
        assert monoid.size == 3

    def test_exists_max_size_bounds_the_subset_construction(self, tmp_path):
        ext_dfa = regex_to_dfa(
            "('a#0'|'b#0')* 'a#1' ('a#0'|'b#0')*",
            Alphabet(("a#0", "a#1", "b#0", "b#1")),
        )
        src = tmp_path / "marked.dfa.json"
        src.write_text(ext_dfa.to_json())
        args = ["construct", "exists", "--input", str(src), "--out", str(tmp_path), "--max-size"]
        assert main(args + ["3"]) == 3
        assert not (tmp_path / "exists.dfa.json").exists()
        assert main(args + ["4"]) == 0
        got = Dfa.from_json((tmp_path / "exists.dfa.json").read_text())
        assert got == regex_to_dfa("(a|b)*a(a|b)*", AB)

    @pytest.mark.parametrize("kind", ["synmon", "algebra", "bsum", "dualrec"])
    def test_algebra_constructions_refuse_a_symmetric_group(self, tmp_path, capsys, kind):
        # a is the 8-cycle and b swaps states 0 and 1: the transition
        # monoid is S8, whose 40 320 atoms would cost about 1.6e9 table
        # entries or atom-DFA states to write out
        s8 = Dfa(AB, 8, tuple(((q + 1) % 8, {0: 1, 1: 0}.get(q, q)) for q in range(8)), {0})
        dfa_file = tmp_path / "s8.dfa.json"
        dfa_file.write_text(s8.to_json())
        alg_file = tmp_path / "s8.json"
        alg_file.write_text(json.dumps(
            {"alphabet": ["a", "b"], "generators": [{"dfa": s8.to_json_dict()}]}
        ))
        out = tmp_path / "out"
        extra = ["--input2", str(alg_file)] if kind == "bsum" else []
        source = dfa_file if kind == "synmon" else alg_file
        code = main(["construct", kind, "--input", str(source), *extra, "--out", str(out)])
        assert code == 3
        assert "submonoid closure exceeded 4000 elements" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("semigroup", [False, True], ids=["monoid", "semigroup"])
    def test_bsum_ceiling_is_met_before_any_marked_concatenation(self, tmp_path, capsys, monkeypatch,
                                                                 semigroup):
        from langrec import algebra

        # 15 (monoid) or 14 (semigroup) atoms each, so 450 or 392 marked
        # concatenations; the sum passes 4000 atoms
        alg_file = tmp_path / "alg.json"
        alg_file.write_text(json.dumps({"alphabet": ["a", "b"], "semigroup": semigroup,
                                        "generators": ["(a|b)*a(a|b)(a|b)"]}))
        calls = []
        monkeypatch.setattr(algebra, "marked_concat", lambda *args: calls.append(args))
        out = tmp_path / "out"
        argv = ["construct", "bsum", "--input", str(alg_file), "--input2", str(alg_file)]
        assert main([*argv, "--out", str(out)]) == 3
        assert "submonoid closure exceeded 4000 elements" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_algebra_ceiling_follows_the_environment(self, tmp_path, capsys, monkeypatch):
        from langrec.cli import _algebra_ceiling

        assert _algebra_ceiling() == 4000
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", "1000000")
        assert _algebra_ceiling() == 1000000
        # the algebra of (a|b)*a(a|b)* has 2 atoms; a DFA, not a regex,
        # so that no subset construction meets the bound first
        some_a = regex_to_dfa("(a|b)*a(a|b)*", AB)
        alg_file = tmp_path / "alg.json"
        alg_file.write_text(json.dumps(
            {"alphabet": ["a", "b"], "generators": [{"dfa": some_a.to_json_dict()}]}
        ))
        monkeypatch.setenv("LANGREC_MAX_CLOSURE", "1")
        assert main(["construct", "algebra", "--input", str(alg_file), "--out", str(tmp_path)]) == 3
        assert "submonoid closure exceeded 1 elements" in capsys.readouterr().err

    def test_max_size_refused_where_nothing_is_bounded(self, tmp_path):
        alg_file = tmp_path / "alg.json"
        alg_file.write_text(json.dumps({"alphabet": ["a", "b"], "generators": ["a*"]}))
        inputs = {
            "quotient": ["--regex", "a*", "--alphabet", "a,b", "--word", "a"],
            "algebra": ["--input", str(alg_file)],
            "bsum": ["--input", str(alg_file), "--input2", str(alg_file)],
            "dualrec": ["--input", str(alg_file)],
        }
        for kind, extra in inputs.items():
            out = tmp_path / kind
            code, stdout, err = run_cli(
                "construct", kind, *extra, "--max-size", "1", "--out", str(out)
            )
            assert code == 2, kind
            assert "--max-size" in err and kind in err
            assert stdout == "" and not out.exists()
            assert main(["construct", kind, *extra, "--out", str(out)]) == 0


class TestVerify:
    def test_report_is_json_lines(self, capsys):
        code = main(["verify", "prop2", "--samples", "4", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert "summary" in lines[-1]
        assert lines[-1]["summary"]["passed"] == 4

    def test_deterministic_reports(self):
        code1, out1, _ = run_cli("verify", "lemmas", "--samples", "5", "--max-len", "3", "--seed", "9")
        code2, out2, _ = run_cli("verify", "lemmas", "--samples", "5", "--max-len", "3", "--seed", "9")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_report(self):
        _, out1, _ = run_cli("verify", "prop2", "--samples", "4", "--seed", "1")
        _, out2, _ = run_cli("verify", "prop2", "--samples", "4", "--seed", "2")
        assert out1 != out2

    def test_pretty_mode(self, capsys):
        code = main(["verify", "prop2", "--samples", "2", "--seed", "5", "--pretty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "prop2: 2 passed" in out

    def test_insufficient_instances_fail_exit(self, capsys):
        # a joint-size bound of 1 rejects every draw, so the campaign
        # cannot reach its instance target and must fail
        code = main([
            "verify", "thm11", "--samples", "2", "--max-size", "1", "--seed", "0",
        ])
        capsys.readouterr()
        assert code == 1

    def test_report_file_written(self, tmp_path):
        code = main([
            "verify", "prop2", "--samples", "3", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        body = (tmp_path / "verify.prop2.jsonl").read_text()
        assert json.loads(body.strip().splitlines()[-1])["summary"]["ok"] is True

    def test_flag_without_campaign_parameter_is_refused(self):
        code, out, err = run_cli("verify", "thm8", "--max-len", "1")
        assert code != 0
        assert out == ""
        assert "--max-len" in err and "thm8" in err

    def test_json_flag_is_gone(self):
        # JSON lines are the only default; the old --json flag did nothing
        code, out, err = run_cli("verify", "prop2", "--samples", "1", "--json")
        assert code == 2
        assert out == "" and "--json" in err

    def test_thm4_max_size_reaches_the_campaign(self, capsys, monkeypatch):
        bounds = []
        real = campaigns._thm4_instance
        monkeypatch.setattr(campaigns, "_thm4_instance",
                            lambda s, max_size: bounds.append(max_size) or real(s, max_size))
        code = main(["verify", "thm4", "--samples", "1", "--max-size", "5000"])
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
        assert code == 0
        assert summary["bounds"]["max_size"] == 5000
        assert bounds and set(bounds) == {5000}

    @pytest.mark.parametrize("argv, flag", [
        (("cor9", "--max-size", "0"), "--max-size"),
        (("thm8", "--max-size", "0"), "--max-size"),
        (("thm10", "--max-size", "-1"), "--max-size"),
        (("prop2", "--max-size", "0"), "--max-size"),
        (("prop2", "--samples", "0"), "--samples"),
        (("prop2", "--samples", "-2"), "--samples"),
        (("lemmas", "--max-len", "-1"), "--max-len"),
    ])
    def test_meaningless_flag_values_are_refused(self, capsys, argv, flag):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err and "must be at least" in captured.err

    def test_least_flag_values_are_accepted(self, capsys):
        assert main(["verify", "prop2", "--samples", "1", "--max-size", "1"]) == 0
        assert main(["verify", "lemmas", "--samples", "1", "--max-len", "0"]) == 0
        capsys.readouterr()

    def test_thm4_limit_on_a_required_instance_writes_a_failing_report(self, tmp_path, capsys):
        # size-1 and size-2 semigroups are required, so a closure bound
        # they exceed fails them instead of aborting the campaign
        code = main(["verify", "thm4", "--max-size", "3", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 1
        lines = (tmp_path / "verify.thm4.jsonl").read_text().strip().splitlines()
        records = [json.loads(line) for line in lines[:-1]]
        required = [r for r in records if r.get("size") in (1, 2)]
        assert len(required) == 9
        limited = [r for r in required if "reason" in r]
        assert limited and all(
            r["status"] == "fail" and r["reason"] == "submonoid closure exceeded 3 elements"
            for r in limited
        )
        assert {r["status"] for r in records if r.get("size") == 3 and "reason" in r} == {"skip"}
