"""Closure ceilings are set by scope (``languages.closure_ceiling``), not
per call: no function of the package declares a ``max_size`` or
``max_states`` parameter outside the allow-list below, and only the
subset construction and the submonoid closure bound ``_explore``.  A
campaign runner takes no parameter that its report does not record.
The literal sum, which closes the DFA of every marked concatenation,
runs only where something is compared against it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "langrec"

CEILING_PARAMETERS = {"max_size", "max_states"}

# run_thm4 records its bound in its report, as every runner records
# each of its parameters (test_runners_record_their_parameters), and its
# two helpers take the bound from it; bsum2_quotient and
# _generated_concat_algebra keep a keyword that opens a scope around the
# whole call, for the benchmark's callers
ALLOWED = {
    ("campaigns.py", "_thm4_instance"),
    ("campaigns.py", "_thm4_record"),
    ("campaigns.py", "run_thm4"),
    ("campaigns.py", "_generated_concat_algebra"),
    ("equations.py", "bsum2_quotient"),
}


def functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield getattr(node, "name", "<lambda>"), node


def ceiling_parameters(tree):
    """(function, parameter) of every ceiling parameter a function or
    lambda declares."""
    for name, node in functions(tree):
        a = node.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            if arg.arg in CEILING_PARAMETERS:
                yield name, arg.arg


def bounded_explores(tree):
    """The functions that call ``_explore`` with a limit."""
    for name, node in functions(tree):
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_explore"
                    and len(call.args) + len(call.keywords) > 2):
                yield name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_per_call_ceiling(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"{name}({param}=...)" for name, param in ceiling_parameters(tree)
             if (path.name, name) not in ALLOWED]
    assert not found, f"{path.name} takes a per-call ceiling: {', '.join(found)}"


def test_a_re_added_ceiling_parameter_is_found():
    tree = ast.parse(
        "def transport(letter_map, b, source, *, max_states=None):\n"
        "    return b\n"
    )
    assert list(ceiling_parameters(tree)) == [("transport", "max_states")]
    assert ("algebra.py", "transport") not in ALLOWED


# the literal sum and its two wrappers, and the only top-level functions
# that may call them: the wrappers themselves, the direct side of Thm 11
# and the two campaigns that check against them
LITERAL_SUMS = {"_literal_sum", "_trivial_sum", "_generated_concat_algebra"}
LITERAL_SUM_CALLERS = {
    "_trivial_sum", "bsum2_membership_direct", "_generated_concat_algebra", "run_thm10", "run_thm11",
}


def literal_sum_calls(tree):
    """(top-level definition, callee) of every call to a literal sum,
    by name or by a module's attribute."""
    for top in tree.body:
        for call in ast.walk(top):
            if isinstance(call, ast.Call):
                callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if callee in LITERAL_SUMS:
                    yield getattr(top, "name", "<module>"), callee


def test_only_the_oracles_callers_build_the_literal_sum():
    callers = {
        name
        for path in PACKAGE.glob("*.py")
        for name, _ in literal_sum_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert callers == LITERAL_SUM_CALLERS


def test_a_literal_sum_in_a_production_path_is_found():
    tree = ast.parse(
        "def separation_witness(k, b):\n"
        "    return _split_words(k, _trivial_sum(b))\n"
        "def run_thm11(seed=0):\n"
        "    return eq._trivial_sum(b).member(k)\n"
    )
    assert list(literal_sum_calls(tree)) == [
        ("separation_witness", "_trivial_sum"), ("run_thm11", "_trivial_sum"),
    ]
    assert "separation_witness" not in LITERAL_SUM_CALLERS


def test_only_the_two_builders_bound_explore():
    bounded = {
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name in bounded_explores(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert bounded == {("languages.py", "_subset_dfa"), ("monoids.py", "generate_closure")}


def recorded_bounds(tree):
    """(runner, its parameters but the seed, the parameters its
    ``Report(theorem, seed, {...})`` records under their own names, or
    None without such a call) of every ``run_*`` function but the
    dispatcher ``run_campaign``."""
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef) and node.name.startswith("run_")
                and node.name != "run_campaign"):
            params = {arg.arg for arg in node.args.args + node.args.kwonlyargs} - {"seed"}
            recorded = None
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Report"
                        and len(call.args) == 3 and isinstance(call.args[2], ast.Dict)):
                    bounds = call.args[2]
                    recorded = {
                        key.value for key, value in zip(bounds.keys, bounds.values)
                        if isinstance(value, ast.Name) and key.value == value.id
                    }
            yield node.name, params, recorded


def test_runners_record_their_parameters():
    # a parameter that a report does not record is a hidden knob: two
    # runs that differ in it print the same bounds
    tree = ast.parse((PACKAGE / "campaigns.py").read_text(encoding="utf-8"))
    runners = list(recorded_bounds(tree))
    assert len(runners) == 9
    hidden = [f"{name}({', '.join(sorted(params - (recorded or set())))})"
              for name, params, recorded in runners
              if recorded is None or not params <= recorded]
    assert not hidden, f"parameters that no report records: {', '.join(hidden)}"


def test_a_hidden_runner_parameter_is_found():
    tree = ast.parse(
        "def run_thm8(seed=0, pairs=20, max_size=20000):\n"
        "    rep = Report('thm8', seed, {'pairs': pairs})\n"
        "def run_campaign(theorem, seed=0, **flags):\n"
        "    return None\n"
    )
    assert list(recorded_bounds(tree)) == [("run_thm8", {"pairs", "max_size"}, {"pairs"})]
