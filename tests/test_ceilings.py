"""Closure ceilings are set by scope (``languages.closure_ceiling``), not
per call: no function of the package declares a ``max_size`` or
``max_states`` parameter outside the allow-list below, and only the
subset construction and the submonoid closure bound ``_explore``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "langrec"

CEILING_PARAMETERS = {"max_size", "max_states"}

# the campaign runners and their helpers record their bound in their
# reports; bsum2_quotient and _generated_concat_algebra keep a keyword
# that opens a scope around the whole call, for the benchmark's callers
ALLOWED = {
    ("campaigns.py", "_thm4_instance"),
    ("campaigns.py", "_thm4_record"),
    ("campaigns.py", "run_thm4"),
    ("campaigns.py", "run_thm8"),
    ("campaigns.py", "run_thm10"),
    ("campaigns.py", "run_cor9"),
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


def test_only_the_two_builders_bound_explore():
    bounded = {
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name in bounded_explores(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert bounded == {("languages.py", "_subset_dfa"), ("monoids.py", "generate_closure")}
