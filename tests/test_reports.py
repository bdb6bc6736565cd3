"""Campaign reports are byte-deterministic: golden digests of every
default verify run, also through ``python -m langrec`` and under any
``LANGREC_MAX_CLOSURE``, the builds of
one thm11 draw, the failure path of the thm10 check, and a word length
that is no bound."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from langrec import InputError, campaigns, closure_ceiling, equations
from langrec.campaigns import (
    run_cor9,
    run_laws,
    run_lemmas,
    run_prop2,
    run_thm4,
    run_thm8,
    run_thm10,
    run_thm11,
)
from langrec.cli import main


def _under_ceiling(n, run, **kwargs):
    with closure_ceiling(n):
        return run(**kwargs)


# sha256 of Report.json_lines() of every default verify report; a change
# here changes a published report
GOLDEN = {
    "prop2-default": (
        run_prop2,
        "c9853e6fa243b0a06fcad979e156719630eaa51a9e0dc61e57e15550a5758d54",
    ),
    "thm8-default": (
        run_thm8,
        "987d54e928b5c1a8c5af1c2af101515065f1bc1945da3142da3ad4280e57089e",
    ),
    "cor9-default": (
        run_cor9,
        "70c405dc1e75118fe787e48e08c84e7fb5d4a3cf3507e4d2f9d3385f68769d3b",
    ),
    "thm4-default": (
        run_thm4,
        "c86c2f94f3d5b3e6bcf511e2746ac8e36564c13c342b7c9d202fad5cc98cde94",
    ),
    "thm10-default": (
        run_thm10,
        "584b0b7a82c3daf3b23c17859c1dfa58cb1a395abc87adb0579ca737f204bcd9",
    ),
    "thm10-seed5-pairs1": (
        lambda: run_thm10(seed=5, pairs=1),
        "fa352329b47205c1e782dfb5c5e3f1dcb967c2dd4675b18bb4c754397f93b3d0",
    ),
    "thm11-default": (
        run_thm11,
        "56b51125506d7d6b4aeccde8acdac57ba7b807eb60d22e3dcc823763c45c184c",
    ),
    "laws-default": (
        run_laws,
        "5eef96e75e90a61212116368bb662412ca23b38260794980181fb12587050f62",
    ),
    "lemmas-default": (
        run_lemmas,
        "2eb03b2a564c038294e08c85080a57dfb766e0c55c95c3070fe9c29dc9a7c50d",
    ),
    # every instance hits the caller's closure ceiling: the limit path of
    # campaigns._pair_campaign
    "thm8-seed3-pairs4-max5": (
        lambda: _under_ceiling(5, run_thm8, seed=3, pairs=4),
        "0040441191760070860a8cb59431108d8cded69654953fa813dc09105774226d",
    ),
    "thm10-seed3-pairs4-max5": (
        lambda: _under_ceiling(5, run_thm10, seed=3, pairs=4),
        "50c6cf423ea6acd330bb3cce7e9eefd37da0000bb3c644874d9e6919b7efd562",
    ),
    "cor9-seed3-pairs4-max5": (
        lambda: _under_ceiling(5, run_cor9, seed=3, pairs=4),
        "724b123a644fb57fdc8cfa4d8eef439953b70ede4a24f2dc596f98d7e82eefa1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    run, digest = GOLDEN[name]
    assert hashlib.sha256(run().json_lines().encode("utf-8")).hexdigest() == digest


def test_module_entry_point_prints_the_published_report():
    # ``python -m langrec`` runs ``langrec/__main__.py``, not ``cli.main`` in-process
    proc = subprocess.run(
        [sys.executable, "-m", "langrec", "verify", "lemmas", "--seed", "0"],
        capture_output=True, cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN["lemmas-default"][1]


@pytest.mark.parametrize("name, env", [
    *((name, "6") for name in ("prop2", "thm4", "thm8", "cor9", "thm10", "thm11", "lemmas")),
    ("cor9", "40"),
])
def test_verify_reads_no_environment_ceiling(name, env, monkeypatch, capsys):
    # each report is the published one however low the variable is set
    monkeypatch.setenv("LANGREC_MAX_CLOSURE", env)
    assert main(["verify", name]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN[f"{name}-default"][1]


def test_thm11_builds_each_quotient_and_sum_once(monkeypatch):
    # the direct side builds its sum through the literal generators
    builds = {"_joint_closure": 0, "_literal_sum": 0}
    for name in builds:
        def counted(*args, _build=getattr(equations, name), _name=name, **kwargs):
            builds[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(equations, name, counted)
    report = run_thm11(instances=40)
    assert report.ok
    # one quotient per draw, kept or skipped, and one sum per kept draw
    assert builds == {"_joint_closure": 40 + report.bounds["skipped_draws"], "_literal_sum": 40}
    assert any(inst["witness"] for inst in report.instances)


def test_thm10_fails_when_the_algebra_misses_marked_concatenations(monkeypatch):
    # without its marked concatenations the generated algebra is too
    # small: the languages the local morphism recognises must fall outside
    def factors_only(phi1, phi2, **bounds):
        gens = [phi1.preimage({x}) for x in range(phi1.target.size)]
        gens += [phi2.preimage({y}) for y in range(phi2.target.size)]
        return campaigns.generate_algebra(gens, phi1.alphabet, **bounds)

    monkeypatch.setattr(campaigns, "_generated_concat_algebra", factors_only)
    report = run_thm10(seed=5, pairs=2)
    assert not report.ok
    for inst in report.instances:
        assert inst["status"] == "fail"
        assert inst["detail"] == "recognised language outside the generated algebra"


def test_prop2_refuses_a_negative_word_length():
    # the commuting-square check reads every word up to max_len
    with pytest.raises(InputError, match="word length bound -1"):
        run_prop2(max_len=-1)


@pytest.mark.parametrize("seed, flags, message", [
    (True, {}, "^--seed must be an integer, got True$"),
    (1.0, {}, "^--seed must be an integer, got 1.0$"),
    (0, {"samples": True}, "^--samples must be an integer, got True$"),
    (0, {"samples": 2.5}, "^--samples must be an integer, got 2.5$"),
    (0, {"max_size": "3"}, "^--max-size must be an integer, got '3'$"),
    (0, {"max_len": False}, "^--max-len must be an integer, got False$"),
])
def test_campaign_seed_and_flags_must_be_integers(seed, flags, message):
    # a bool or a float would run and be written into the report as given
    with pytest.raises(InputError, match=message):
        campaigns.run_campaign("prop2", seed, **flags)


@pytest.mark.parametrize("name", ["thm8-seed3-pairs4-max5", "thm10-seed3-pairs4-max5",
                                  "cor9-seed3-pairs4-max5", "thm11-default"])
def test_campaign_bounds_win_over_the_environment(name, monkeypatch):
    # a caller's scope (the three pair runs) and a runner's own bound
    # (thm11's max_joint) are scopes, which the environment does not raise
    monkeypatch.setenv("LANGREC_MAX_CLOSURE", "1000000")
    test_report_digest(name)
