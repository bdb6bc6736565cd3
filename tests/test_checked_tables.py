"""Light's test runs on tables from outside the package, not on the
package's own: inside ``src/langrec`` the public ``FiniteMonoid(...)``
constructor is called only for ``TRIVIAL_MONOID`` and by
``FiniteMonoid.from_json_dict``, and ``_light_defect`` only by
``FiniteMonoid.__post_init__`` and by the laws campaign, which reports
the product tables' associativity.  Every other table goes through
``monoids._trusted_monoid``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "langrec"


def definitions(tree):
    """(name, node, class) of each top-level statement, methods one by
    one as ``Class.method`` and assignments by their targets."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '<body>')}", item, node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.Assign):
            yield ",".join(getattr(t, "id", "?") for t in node.targets), node, None
        else:
            yield "<module>", node, None


def callers(tree, name):
    """The definitions that call ``name``; in a class, ``cls(...)``
    calls the class."""
    for where, node, owner in definitions(tree):
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                called = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if called == "cls" and owner is not None:
                    called = owner
                if called == name:
                    yield where


def package_callers(name):
    return {
        (path.name, where)
        for path in PACKAGE.glob("*.py")
        for where in callers(ast.parse(path.read_text(encoding="utf-8")), name)
    }


def test_only_outside_tables_reach_the_public_constructor():
    assert package_callers("FiniteMonoid") == {
        ("monoids.py", "TRIVIAL_MONOID"),
        ("monoids.py", "FiniteMonoid.from_json_dict"),
    }


def test_lights_test_runs_only_on_the_checked_path_and_in_the_laws_campaign():
    assert package_callers("_light_defect") == {
        ("monoids.py", "FiniteMonoid.__post_init__"),
        ("campaigns.py", "_table_laws"),
    }


def test_a_built_table_on_the_checked_path_is_found():
    tree = ast.parse(
        "class FiniteQuotient:\n"
        "    def monoid(self):\n"
        "        return monoids.FiniteMonoid(table, 0, labels)\n"
        "class FiniteMonoid:\n"
        "    @classmethod\n"
        "    def of_rows(cls, rows):\n"
        "        return cls(tuple(rows))\n"
        "M = FiniteMonoid(((0,),))\n"
    )
    assert list(callers(tree, "FiniteMonoid")) == [
        "FiniteQuotient.monoid", "FiniteMonoid.of_rows", "M"]
