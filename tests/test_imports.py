"""No module-level import goes unused in the package or its tests, no
private module-level helper of the package goes unreferenced, and each
convention of the package has one home.

There is no linter in the toolchain, so this walks the syntax tree: a name
bound by a top-level import must be referenced somewhere in the module.
`from __future__` imports and names listed in `__all__` are exempt.  A
`_name` defined at the top of a package module by def, class or assignment
must be referenced somewhere in the package or the tests.  Only
immersion.py compares an ambient model's kind, UmbilicPoint is raised at
one site, cli.py prints a document at one call of `_emit` and writes the
"schema" key at one site, the package caches its lazy fields with
`jets.field` alone, never with `functools.cached_property`, catches no
exception wholesale, and cli.py catches the exit-code families of errors.py,
never one of their members.  Every Refusal and EvalError that the pipeline
modules raise names its lane.
"""

import ast
from pathlib import Path

import pytest

from wintgen import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "wintgen").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def _private_definitions(tree) -> dict:
    """Top-level `_name`s (not dunders) bound by def, class or assignment,
    with their line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((n, node.lineno) for n in names
                   if n.startswith("_") and not n.startswith("__"))
    return out


def _references(tree) -> set:
    """Names read, attributes read, imported names and string constants
    (for getattr and monkeypatch by name)."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs.add(n.value)
    return refs


def unreferenced_helpers(package: dict, others=()) -> list:
    """`label: _name (line n)` for each private top-level name of the
    package sources (label -> source) that neither they nor the other
    sources reference."""
    trees = {label: ast.parse(src) for label, src in package.items()}
    refs = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        refs |= _references(tree)
    return sorted(f"{label}: {name} (line {line})"
                  for label, tree in trees.items()
                  for name, line in _private_definitions(tree).items()
                  if name not in refs)


def test_helper_scanner_flags_only_unreferenced_names():
    package = {
        "a.py": ("_K = 1\n_table: dict = {}\n__slots__ = ()\n"
                 "def _used():\n    return _K\n"
                 "def _dead():\n    _local = 2\n    return _local\n"
                 "class _Gone:\n    pass\n_stored = 0\n_named = 3\n"
                 "_imported = 4\ndef public(m):\n    m._stored = _used()\n"),
        "b.py": "from .a import _imported\n"}
    others = ["import a\na._table.clear()\nsetattr(a, '_named', 1)\n"]
    assert unreferenced_helpers(package, others) == [
        "a.py: _Gone (line 9)", "a.py: _dead (line 6)",
        "a.py: _stored (line 11)"]


def test_no_unreferenced_helpers():
    assert unreferenced_helpers(
        {p.name: p.read_text(encoding="utf-8") for p in PACKAGE},
        [p.read_text(encoding="utf-8") for p in FILES if p not in PACKAGE]) \
        == []


AMBIENT_KINDS = {"sphere", "euclidean", "hyperbolic"}


def convention_sites(source: str) -> tuple:
    """Lines of the comparisons that involve an ambient kind (a `.kind`
    attribute or a model's name), and lines of the `raise UmbilicPoint`
    statements."""
    kinds, raises = [], []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Compare) and any(
                isinstance(m, ast.Attribute) and m.attr == "kind"
                or isinstance(m, ast.Constant) and m.value in AMBIENT_KINDS
                for side in (n.left, *n.comparators) for m in ast.walk(side)):
            kinds.append(n.lineno)
        elif isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            if isinstance(exc, ast.Name) and exc.id == "UmbilicPoint":
                raises.append(n.lineno)
    return kinds, raises


def test_convention_scanner_flags_kind_comparisons_and_umbilic_raises():
    src = ("def f(amb, x, kind):\n"
           "    if amb.kind == 'sphere':\n"
           "        raise UmbilicPoint('a')\n"
           "    if x in ('hyperbolic', 'euclidean'):\n"
           "        raise UmbilicPoint\n"
           "    if kind != x.kind:\n"
           "        raise NotIdealPoint('b')\n"
           "    label = {'kind': 'sphere'}\n"
           "    return amb.kind, label, x == 'torus'\n")
    assert convention_sites(src) == ([2, 4, 6], [3, 5])


def test_each_convention_has_one_home():
    kinds, raises = [], []
    for path in PACKAGE:
        k, r = convention_sites(path.read_text(encoding="utf-8"))
        if path.name != "immersion.py":
            kinds += [f"{path.name}:{line}" for line in k]
        raises += [f"{path.name}:{line}" for line in r]
    assert kinds == []
    assert len(raises) == 1, raises


def document_sites(source: str) -> tuple:
    """Lines of the calls of `_emit` (by name or attribute), and lines that
    write a "schema" key: a dict display with it or a subscript store."""
    emits, schemas = [], []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and "_emit" in (
                getattr(n.func, "id", None), getattr(n.func, "attr", None)):
            emits.append(n.lineno)
        if isinstance(n, ast.Dict):
            keys = n.keys
        elif isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store):
            keys = [n.slice]
        else:
            continue
        if any(isinstance(k, ast.Constant) and k.value == "schema"
               for k in keys):
            schemas.append(n.lineno)
    return sorted(emits), sorted(schemas)


def test_document_scanner_flags_emit_calls_and_schema_keys():
    src = ("def f(doc, path, cli):\n"
           "    _emit({'schema': 1, 'command': None}, path)\n"
           "    doc['schema'] = 1\n"
           "    cli._emit(doc, None)\n"
           "    label = {'kind': 'schema'}\n"
           "    return doc['schema'], label, emit(doc)\n")
    assert document_sites(src) == ([2, 4], [2, 3])


def test_cli_builds_every_document_at_one_site():
    path = ROOT / "src" / "wintgen" / "cli.py"
    emits, schemas = document_sites(path.read_text(encoding="utf-8"))
    assert len(emits) == 1, emits
    assert len(schemas) == 1, schemas


def cached_property_sites(source: str) -> list:
    """Lines that reference `functools.cached_property`: the attribute of a
    module named functools, or the name imported from it."""
    sites = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute) and n.attr == "cached_property" \
                and isinstance(n.value, ast.Name) and n.value.id == "functools":
            sites.append(n.lineno)
        elif isinstance(n, ast.ImportFrom) and n.module == "functools" \
                and any(a.name == "cached_property" for a in n.names):
            sites.append(n.lineno)
    return sorted(sites)


def test_cached_property_scanner_flags_functools_references():
    src = ("import functools\nfrom functools import cached_property, wraps\n"
           "from . import jets\n"
           "class C:\n"
           "    p = functools.cached_property(len)\n"
           "    q = jets.field(len)\n"
           "    r = x.cached_property, cached_property\n")
    assert cached_property_sites(src) == [2, 5]


def test_package_caches_fields_with_jets_field_alone():
    # functools.cached_property takes a lock on its first read on Python
    # 3.11; jets.field caches the same way without one
    sites = [f"{path.name}:{line}" for path in PACKAGE
             for line in cached_property_sites(path.read_text(encoding="utf-8"))]
    assert sites == []


def handler_sites(source: str, names) -> list:
    """Lines of the except clauses that are bare or catch one of names (a
    name or a module attribute, alone or in a tuple, or a tuple bound to a
    module-level name)."""
    tree = ast.parse(source)
    tuples = {t.id: node.value.elts for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Tuple)
              for t in node.targets if isinstance(t, ast.Name)}
    sites = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.ExceptHandler):
            continue
        types = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
        types = [x for t in types
                 for x in tuples.get(getattr(t, "id", None), [t])]
        if n.type is None or names & {getattr(t, "id", None)
                                      or getattr(t, "attr", None)
                                      for t in types}:
            sites.append(n.lineno)
    return sites


def test_handler_scanner_flags_bare_and_named_catches():
    src = ("_ERRORS = (KeyError, UmbilicPoint)\n"
           "try:\n    f()\nexcept:\n    raise\n"
           "try:\n    f()\nexcept (OSError, Exception):\n    pass\n"
           "try:\n    f()\nexcept errors.UmbilicPoint as e:\n    pass\n"
           "try:\n    f()\nexcept _ERRORS:\n    pass\n"
           "try:\n    f()\nexcept (Refusal, ValueError):\n    pass\n")
    assert handler_sites(src, {"Exception", "UmbilicPoint"}) == [4, 8, 12, 16]


def test_package_catches_no_exception_wholesale():
    # a catch-all hides faults: a chunk that raised one would be rerun as
    # a failing point, and the command line would report it as a refusal
    sites = [f"{path.name}:{line}" for path in PACKAGE
             for line in handler_sites(path.read_text(encoding="utf-8"),
                                       {"Exception", "BaseException"})]
    assert sites == []


def test_cli_catches_error_families_not_their_members():
    families = (errors.Refusal, errors.InputError)
    members = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, families)
               and cls not in families}
    path = ROOT / "src" / "wintgen" / "cli.py"
    assert handler_sites(path.read_text(encoding="utf-8"), members) == []


# the modules whose errors are raised over the lanes of a chunk
PIPELINE = ("jets.py", "immersion.py", "classical.py", "moebius.py",
            "ideal.py")
LANE_ERRORS = {name for name, cls in vars(errors).items()
               if isinstance(cls, type)
               and issubclass(cls, (errors.Refusal, errors.EvalError))}


def laneless_raises(source: str, names) -> list:
    """Lines of the `raise` statements that call one of names (a name or a
    module attribute) with no `lane=` keyword."""
    sites = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call):
            func = n.exc.func
            if (getattr(func, "id", None) or getattr(func, "attr", None)) \
                    in names and "lane" not in {k.arg for k in n.exc.keywords}:
                sites.append(n.lineno)
        elif isinstance(n, ast.Raise) and n.exc is not None and (
                getattr(n.exc, "id", None) or getattr(n.exc, "attr", None)) \
                in names:
            sites.append(n.lineno)  # the bare class: no lane either
    return sites


def test_laneless_raise_scanner_flags_calls_without_lane():
    src = ("def f(l, exc):\n"
           "    raise NotImmersed('a', lane=l)\n"
           "    raise errors.EvalError('b')\n"
           "    raise SingularJet\n"
           "    raise SchemaError('c')\n"
           "    raise EvalError('d', lane=getattr(exc, 'lane', None))\n"
           "    raise\n")
    assert laneless_raises(src, {"NotImmersed", "EvalError",
                                 "SingularJet"}) == [3, 4]


def test_every_pipeline_refusal_and_eval_error_names_its_lane():
    # map_chunks reruns the points before the lane an error names; an
    # error raised with no lane is taken as the first point's
    sites = [f"{name}:{line}" for name in PIPELINE
             for line in laneless_raises(
                 (ROOT / "src" / "wintgen" / name).read_text(
                     encoding="utf-8"), LANE_ERRORS)]
    assert sites == []
