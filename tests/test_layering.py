"""Only matcher.py may use the matcher's private names, and it has one search.

Other modules reach the matcher through its public entry points, so its
compiled tables and its search can change without touching them.  The
search is code that matcher.py generates per pattern, so "one search" means
one place that compiles generated code and no recursive search beside it.
"""

import ast
from pathlib import Path

import pdvp

PACKAGE = Path(pdvp.__file__).parent


def _private_matcher_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "matcher"
            and node.attr.startswith("_")
        ):
            found.append(f"line {node.lineno}: matcher.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("matcher"):
            found += [
                f"line {node.lineno}: from {node.module} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_but_matcher_uses_private_matcher_names():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "matcher.py":
            continue
        found = _private_matcher_uses(ast.parse(path.read_text(), str(path)))
        if found:
            offenders[path.name] = found
    assert not offenders


def test_the_lint_sees_both_spellings():
    tree = ast.parse("from . import matcher\nmatcher._search\nfrom .matcher import _prepare\n")
    assert len(_private_matcher_uses(tree)) == 2


def _self_recursive_functions(tree: ast.AST) -> list[str]:
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]


def _compile_sites(tree: ast.AST) -> set[int]:
    """Lines that call the builtin compile or exec."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("compile", "exec")
    }


def test_matcher_has_one_search():
    tree = ast.parse((PACKAGE / "matcher.py").read_text())
    assert _self_recursive_functions(tree) == []
    assert len(_compile_sites(tree)) == 1


def test_the_search_lint_sees_nested_recursion():
    source = (
        "def outer():\n"
        "    def rec(k):\n"
        "        yield from rec(k - 1)\n"
        "    return rec(3)\n"
        "def fill(k):\n"
        "    return fill(k - 1)\n"
    )
    assert sorted(_self_recursive_functions(ast.parse(source))) == ["fill", "rec"]


def test_the_search_lint_counts_compile_sites():
    source = (
        "exec(compile(text, '<a>', 'exec'), ns)\n"
        "def build(text):\n"
        "    exec(text)\n"
        "re.compile('x')\n"
    )
    assert _compile_sites(ast.parse(source)) == {1, 3}
