"""No module-level import goes unused in the package or its tests.

There is no linter in the toolchain, so this walks the syntax tree: a name
bound by a top-level import must be referenced somewhere in the module.
`from __future__` imports and names listed in `__all__` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "wintgen").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list:
    """Names bound by module-level imports and never referenced."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = set(bound) - used - _exported(tree)
    return sorted(f"{name} (line {bound[name]})" for name in unused)


def test_scanner_flags_only_unreferenced_names():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom re import compile as rc, sub\n"
           "from json import dumps\n__all__ = ['dumps']\n"
           "def f(x):\n    return os.path.join(rc(x).pattern)\n")
    assert unused_imports(src) == ["math (line 2)", "sub (line 4)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
