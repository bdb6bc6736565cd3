"""No two functions of the package have the same body: a second copy is
bound to the first (``left_action = mul``) or folded into it."""

import ast
import copy
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "langrec"


def definitions(tree, prefix=""):
    """(qualified name, node) of every function and method, nested ones
    included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from definitions(node, f"{name}.")


def shape(node):
    """The function without its name, decorators, annotations and
    docstring, every name and argument renamed by order of first use;
    None for a body of one statement, a delegation too short to fold."""
    node = copy.deepcopy(node)
    node.name, node.decorator_list, node.returns = "", [], None
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = node.body = body[1:]  # the docstring
    if len(body) < 2:
        return None
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            sub.annotation = None
    renamed = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            sub.arg = renamed.setdefault(sub.arg, f"v{len(renamed)}")
        elif isinstance(sub, ast.Name):
            sub.id = renamed.setdefault(sub.id, f"v{len(renamed)}")
    return ast.dump(node)


def copies(sources):
    """The groups of functions, across all (module name, source) pairs,
    whose shapes are equal."""
    groups = defaultdict(list)
    for module, text in sources:
        for name, node in definitions(ast.parse(text)):
            groups[shape(node)].append(f"{module}:{name}")
    groups.pop(None, None)
    return sorted(group for group in groups.values() if len(group) > 1)


def test_no_function_body_is_a_copy():
    found = copies((path.name, path.read_text(encoding="utf-8"))
                   for path in sorted(PACKAGE.glob("*.py")))
    assert not found, f"functions with identical bodies: {found}"


def test_a_renamed_copy_is_found():
    text = (
        "class P:\n"
        "    def mul(self, p: tuple, q: tuple) -> tuple:\n"
        "        s, m = p\n"
        "        t, n = q\n"
        "        return (self._sets[s | t], self._table[m][n])\n"
        "\n"
        "    def left_action(self, p, x):\n"
        "        '''Written out as in the space construction.'''\n"
        "        a, b = p\n"
        "        c, d = x\n"
        "        return (self._sets[a | c], self._table[b][d])\n"
        "\n"
        "    def right_action(self, p, x):\n"
        "        a, b = p\n"
        "        c, d = x\n"
        "        return (self._sets[c | a], self._table[d][b])\n"
    )
    assert copies([("m.py", text)]) == [["m.py:P.mul", "m.py:P.left_action"]]
    # a one-statement delegation is no copy to fold
    assert copies([("a.py", "def f(x):\n    return g(x)\n"),
                   ("b.py", "def h(y):\n    return g(y)\n")]) == []
