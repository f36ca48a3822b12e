"""Only matcher.py may use the matcher's private names.

Other modules reach the matcher through its public entry points, so its
compiled tables and searches can change without touching them.
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
