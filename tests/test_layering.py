"""Only matcher.py and transfer.py may use their private names, the
matcher has one search, the scans have one walker and one planner, and
only `budget.check_work` decides a budget.

Other modules reach the matcher and the polynomials through their public
entry points, so the matcher's compiled tables and search, and the layout
of `BivarPoly`, can change without touching them.  The search is code that
matcher.py generates per pattern, so "one search" means one place that
compiles generated code and no recursive search beside it.
"""

import ast
import re
from pathlib import Path

import pdvp

PACKAGE = Path(pdvp.__file__).parent


def _private_uses(tree: ast.AST, module: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
            and node.attr.startswith("_")
        ):
            found.append(f"line {node.lineno}: {module}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith(module):
            found += [
                f"line {node.lineno}: from {node.module} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def _offenders(module: str) -> dict[str, list[str]]:
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == f"{module}.py":
            continue
        found = _private_uses(ast.parse(path.read_text(), str(path)), module)
        if found:
            offenders[path.name] = found
    return offenders


def test_no_module_but_matcher_uses_private_matcher_names():
    assert not _offenders("matcher")


def test_no_module_but_transfer_uses_private_transfer_names():
    assert not _offenders("transfer")


def test_the_lint_sees_both_spellings():
    matcher = ast.parse("from . import matcher\nmatcher._search\nfrom .matcher import _prepare\n")
    transfer = ast.parse(
        "from . import transfer\ntransfer._mul_acc\nfrom .transfer import _automaton\n"
    )
    assert len(_private_uses(matcher, "matcher")) == 2
    assert len(_private_uses(transfer, "transfer")) == 2
    assert _private_uses(transfer, "matcher") == []


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


def _users(tree: ast.AST, names: set[str]) -> list[str]:
    """The outermost functions that name one of `names`, by either spelling
    (`name`, `module.name` or an import), one entry per use; a use outside
    any function is "<module>".  A definition is no use."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in names:
                found.append(owner or "<module>")
            elif isinstance(child, ast.Name) and child.id in names:
                found.append(owner or "<module>")
            elif isinstance(child, ast.ImportFrom):
                found.extend(owner or "<module>" for alias in child.names if alias.name in names)
            visit(child, owner)

    visit(tree, None)
    return found


def _module_tree(name: str) -> ast.AST:
    return ast.parse((PACKAGE / name).read_text())


def test_only_the_prefix_walk_searches_in_the_scans():
    # one walker: every scan, problem and check reaches the per-position
    # searches through `exhaustive.prefix_walk`, whose child step alone picks
    # the path: a tree or word node scores its children at once (its kills
    # and its count, from one set-up for both), while a value walk tries
    # each candidate (its stops and its count)
    searches = ("search_ending_at", "search_children")
    users = {(name, search): _users(_module_tree(name), {search})
             for name in ("exhaustive.py", "problems.py", "checks.py") for search in searches}
    assert users == {
        ("exhaustive.py", "search_ending_at"): ["prefix_walk"] * 2,
        ("exhaustive.py", "search_children"): ["prefix_walk"] * 2,
    } | {(name, search): [] for name in ("problems.py", "checks.py") for search in searches}


def test_the_walker_lint_sees_a_second_caller():
    source = (
        "from . import matcher\n"
        "from .matcher import search_ending_at\n"
        "def prefix_walk(n):\n"
        "    return matcher.search_ending_at(p, n, n + 1)\n"
        "def other_walk(n):\n"
        "    def step(buf, d):\n"
        "        return search_ending_at(p, n, n + 1)(buf, d)\n"
        "    return step\n"
        "found = matcher.search_ending_at\n"
        "matcher.count_entries(p, buf, 3)\n"
        "def third_walk(n):\n"
        "    return matcher.search_children(p, n, n + 1)\n"
    )
    assert _users(ast.parse(source), {"search_ending_at", "search_children"}) == [
        "<module>", "prefix_walk", "other_walk", "<module>", "third_walk"
    ]


# What decides a scan's path and work: whether its patterns are order-only
# or statistics, and the work check.
_DECIDERS = {"order_only", "statistic_refusal", "rank_window", "check_work"}


def test_only_the_plan_decides_a_scan():
    # one planner: in the modules that scan, `exhaustive.plan_scan` alone
    # picks a path and checks a scan's work (order_only, rank_window,
    # statistic_refusal, and check_work for the dp, for the walk it falls
    # back to and, the one that may raise, for the path picked); problems'
    # one other work check is the morphism word's, which is no scan
    users = {name: _users(_module_tree(name), _DECIDERS)
             for name in ("exhaustive.py", "problems.py", "checks.py", "cli.py")}
    assert users == {"exhaustive.py": ["plan_scan"] * 6, "problems.py": ["morphism_rises"],
                     "checks.py": [], "cli.py": []}


def test_only_the_tables_read_the_rows_of_a_dp():
    # the readers of the two dps leave their work check to the plan, so only
    # the scan that planned them, `exhaustive._tables`, may call them
    readers = {"series_rows", "rank_rows"}
    users = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
             if (found := _users(ast.parse(path.read_text()), readers))}
    assert users == {"exhaustive.py": ["_tables", "_tables"]}


def test_the_planner_lint_sees_a_second_decider():
    source = (
        "from . import budget, transfer\n"
        "from .exhaustive import order_only\n"
        "def plan_scan(pats):\n"
        "    return all(map(order_only, pats))\n"
        "def second(pats, n):\n"
        "    if not any(map(transfer.statistic_refusal, pats)):\n"
        "        budget.check_work('scan', n, 0)\n"
        "fits = budget.check_work\n"
        "budget.ceiling()\n"
    )
    assert _users(ast.parse(source), _DECIDERS) == [
        "<module>", "plan_scan", "second", "second", "<module>"
    ]


def _unplanned_walks(tree: ast.AST) -> list[int]:
    """Lines of the calls of `prefix_walk` whose plan (first argument) is
    neither a call of `plan_scan` nor a name the module binds to one."""
    def planning(node):
        return isinstance(node, ast.Call) and _callee(node.func) == "plan_scan"

    plans = {target.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and planning(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node.func) == "prefix_walk":
            plan = node.args[:1] + [k.value for k in node.keywords if k.arg == "plan"]
            if not (plan and (planning(plan[0]) or isinstance(plan[0], ast.Name)
                              and plan[0].id in plans)):
                found.append(node.lineno)
    return found


def test_walks_outside_exhaustive_start_from_a_plan():
    walkers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "exhaustive.py":
            tree = ast.parse(path.read_text())
            assert _unplanned_walks(tree) == [], path.name
            if _users(tree, {"prefix_walk"}):
                walkers.add(path.name)
    assert walkers == {"problems.py", "checks.py"}


def test_the_walk_lint_sees_a_walk_without_a_plan():
    source = (
        "plan = exhaustive.plan_scan(avoid, None, None, n, each_length=True)\n"
        "exhaustive.prefix_walk(plan, cap=1)\n"
        "exhaustive.prefix_walk(exhaustive.plan_scan(avoid, None, 2, n))\n"
        "prefix_walk(plan=plan)\n"
        "exhaustive.prefix_walk(n, avoid=avoid)\n"
        "other = make_plan(avoid)\n"
        "exhaustive.prefix_walk(other)\n"
        "prefix_walk()\n"
    )
    assert _unplanned_walks(ast.parse(source)) == [5, 7, 8]


def _unbounded_caches(tree: ast.AST) -> list[int]:
    """Lines that build a cache with no size limit: lru_cache(maxsize=None),
    lru_cache(None) or functools.cache."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node.func) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                found.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) == ("functools", "cache")
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
    return found


def _callee(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_cache_is_bounded():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _unbounded_caches(ast.parse(path.read_text())) == [], path.name


def test_the_cache_lint_sees_every_spelling():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@functools.lru_cache(None)\n"
        "def b(): pass\n"
        "@functools.cache\n"
        "def c(): pass\n"
        "@lru_cache(maxsize=16)\n"
        "def d(): pass\n"
        "@lru_cache\n"
        "def e(): pass\n"
        "cache = {}\n"
    )
    assert _unbounded_caches(ast.parse(source)) == [2, 3, 5, 7]


_BUDGET_DEFAULT = re.compile(r"DEFAULT_\w*(BUDGET|BITS)")


def _budget_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) wherever code reads PDVP_BUDGET, i.e. a string constant
    outside the docstrings names it, or names a budget default
    (DEFAULT_..._BUDGET or DEFAULT_..._BITS), defining it included."""
    skip = _docstrings(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip and "PDVP_BUDGET" in node.value:
                found.append((node.lineno, "PDVP_BUDGET"))
        elif _BUDGET_DEFAULT.fullmatch(_callee(node) or ""):
            found.append((node.lineno, _callee(node)))
        elif isinstance(node, ast.ImportFrom):
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if _BUDGET_DEFAULT.fullmatch(alias.name)
            ]
    return sorted(found)


def test_only_the_work_check_decides_a_budget():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "budget.py":
            assert _budget_uses(ast.parse(path.read_text())) == [], path.name
    tree = ast.parse((PACKAGE / "budget.py").read_text())
    # the module-level definitions of the defaults, and every other use
    # inside check_work alone
    defined = {
        target.lineno
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
    }
    uses = [(line, name) for line, name in _budget_uses(tree) if line not in defined]
    readers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for line, _ in uses
        if node.lineno <= line <= node.end_lineno
    }
    assert sum(name == "PDVP_BUDGET" for _, name in uses) == 1 and readers == {"check_work"}


def test_the_budget_lint_sees_every_spelling():
    source = (
        '"""Module docstring naming PDVP_BUDGET."""\n'
        "import os\n"
        "from .exhaustive import DEFAULT_SCAN_BUDGET\n"
        "budget = os.environ.get('PDVP_BUDGET')\n"
        "raw = os.environ['PDVP_BUDGET']\n"
        "limit = exhaustive.DEFAULT_SCAN_BUDGET\n"
        "size = DEFAULT_SCAN_BUDGET\n"
        "def f():\n"
        '    """PDVP_BUDGET in a docstring."""\n'
        "    return os.getenv('PDVP_BUDGET', 10)\n"
        "note = f'set PDVP_BUDGET above {size}'\n"
        "other = os.environ.get('PDVP_OTHER')\n"
        "DEFAULT_STATE_BUDGET = 4096\n"
        "cap = transfer.DEFAULT_SOLVE_BUDGET\n"
        "edges = DEFAULT_SERIES_BUDGET * DEFAULT_SERIES_BITS\n"
        "from .problems import DEFAULT_WORD_LENGTH_BUDGET\n"
        "DEFAULT_ALPHABET = 26\n"
    )
    assert [line for line, _ in _budget_uses(ast.parse(source))] == [
        3, 4, 5, 6, 7, 10, 11, 13, 14, 15, 15, 16
    ]


# Definitions that nothing in the package refers to, kept on purpose.
UNREFERENCED_ALLOWED = {
    "parse_set": "the parser's public entry point for one set, used by the tests",
    "ZSeriesTable.totals": "perfbench/child.py checks the series totals with it",
}


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants, which are prose rather than references."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _references(tree: ast.AST) -> set[str]:
    """Names, attributes, and the names a string constant refers to: the
    whole string when it is an identifier (an entry of __all__), else each
    `.name` and `name(` inside it (the generated source).  Other words of a
    message are prose, so a method named like an English word is no
    reference."""
    skip = _docstrings(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) in skip:
                continue
            if node.value.isidentifier():
                found.add(node.value)
            else:
                found.update(re.findall(r"\.([A-Za-z_]\w*)", node.value))
                found.update(re.findall(r"([A-Za-z_]\w*)\(", node.value))
    return found


def _definitions(tree: ast.AST) -> dict[str, str]:
    """Every function and class, dunder methods aside: {qualified name: bare name}."""
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{owner}.{child.name}" if owner else child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found[qual] = child.name
                visit(child, qual)
            else:
                visit(child, owner)

    visit(tree, "")
    return found


def _unreferenced(sources: list[str]) -> list[str]:
    trees = [ast.parse(text) for text in sources]
    used = set().union(*(_references(tree) for tree in trees))
    return sorted(
        qual
        for tree in trees
        for qual, name in _definitions(tree).items()
        if name not in used
    )


def test_every_definition_is_referenced_in_the_package():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert [name for name in _unreferenced(sources) if name not in UNREFERENCED_ALLOWED] == []


def test_every_allowed_unreferenced_name_is_defined():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    defined = set().union(*(_definitions(ast.parse(text)) for text in sources))
    assert set(UNREFERENCED_ALLOWED) <= defined


def test_the_dead_code_lint_sees_every_kind_of_reference():
    source = (
        '"""Module docstring naming dead_in_docstring."""\n'
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def called(): pass\n"
        "def dead_in_docstring(): pass\n"
        "def generated(): pass\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def used(self): return called()\n"
        "    def unused(self):\n"
        "        def inner(): pass\n"
        "        return 1\n"
        "Box().used()\n"
        "exec('x = generated()')\n"
        "class Seq:\n"
        "    def of(self): pass\n"
        "    def check(self): raise ValueError('1 is not a permutation of 1..2')\n"
        "Seq().check()\n"
    )
    assert _unreferenced([source]) == [
        "Box.unused", "Box.unused.inner", "Seq.of", "dead", "dead_in_docstring"
    ]
