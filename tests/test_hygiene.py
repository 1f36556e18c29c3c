"""Module hygiene of the fiqs package, read with the stdlib ast module.

Every name a module lists in ``__all__`` exists, no module other than the
package ``__init__`` imports a name it never uses, every module-level
private name is used somewhere in the package, no module reaches
into private stdlib API, which may differ between the Python versions that
``pyproject.toml`` accepts (``Fraction(..., _normalize=False)`` exists on
3.11 but not on 3.12), every functools cache has a finite size, so that
no memo grows with the input, ``canon`` never branches on rho: it reads
the shape of the matrix from ``ARM_COLUMNS``, and no module reads the
derived ``local`` or ``resolution`` of a record: those properties build
their dicts on every read, so code in the package reads ``orders``.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import sys
from pathlib import Path

import pytest

import fiqs

PACKAGE = Path(fiqs.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
ALL_MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"fiqs.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"fiqs.{name}.__all__ names missing attributes: {missing}"


def unused_imports(source: str) -> dict[str, int]:
    """Each name an import statement binds but no other code names, with its line.

    ``__future__`` imports bind no name and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    unused = unused_imports((PACKAGE / f"{name}.py").read_text())
    assert not unused, f"fiqs.{name} imports names it never uses (name: line): {unused}"


def test_unused_import_is_caught():
    source = "from math import gcd, lcm\nimport json\nimport os.path\nprint(lcm(2, os.sep))\n"
    assert unused_imports(source) == {"gcd": 1, "json": 2}


def _private(name: str) -> bool:
    """A leading underscore, but not a dunder: dunders are public protocol."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_stdlib_uses(source: str) -> list[tuple[int, str]]:
    """Each keyword argument named with a leading underscore and each private name of a stdlib object, with its line.

    A stdlib object is a builtin or a name bound by importing a stdlib
    module or a name from one; its private names are attributes read from it
    and names imported from the module.
    """
    tree = ast.parse(source)
    stdlib = set(dir(builtins))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            stdlib.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] in sys.stdlib_module_names
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in sys.stdlib_module_names:
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
                stdlib.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None and _private(node.arg):
            found.append((node.lineno, f"{node.arg}="))
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in stdlib:
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("name", ALL_MODULES)
def test_no_private_stdlib_api(name):
    found = private_stdlib_uses((PACKAGE / f"{name}.py").read_text())
    assert not found, f"fiqs.{name} uses private stdlib API (line, use): {found}"


def test_private_stdlib_use_is_caught():
    source = (
        "from fractions import Fraction\n"
        "import fractions as fr\n"
        "from os.path import _get_sep\n"
        "x = Fraction(1, 2, _normalize=False)\n"
        "y = Fraction._from_coprime_ints(1, 2) + fr.Fraction._normalize\n"
        "z = int.__instancecheck__(1) and mine._private and f(_own=1)\n"
    )
    assert private_stdlib_uses(source) == [
        (3, "from os.path import _get_sep"),
        (4, "_normalize="),
        (5, "Fraction._from_coprime_ints"),
        (5, "fr.Fraction._normalize"),
        (6, "_own="),
    ]


def unreferenced_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Each module-level private name that no code in ``sources`` names outside its own definition.

    ``sources`` maps module names to their source.  A private name has one
    leading underscore (dunders are exempt).  It is defined by a top-level
    def, class or assignment; any other statement of any module that reads
    it, imports it or reads it as an attribute refers to it.
    """
    defined = []
    refs: dict[str, set[tuple[str, int]]] = {}
    for module, source in sources.items():
        for index, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                bound = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = [n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                targets = []
            defined += [(module, index, name) for name in targets if _private(name)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    names = []
                for name in names:
                    refs.setdefault(name, set()).add((module, index))
    return sorted(
        (module, name) for module, index, name in defined if not refs.get(name, set()) - {(module, index)}
    )


def test_no_unreferenced_private_names():
    sources = {name: (PACKAGE / f"{name}.py").read_text() for name in ALL_MODULES}
    unreferenced = unreferenced_private_names(sources)
    assert not unreferenced, f"private module-level names nothing in fiqs refers to (module, name): {unreferenced}"


def test_unreferenced_private_name_is_caught():
    sources = {
        "a": (
            "_used = 1\n_unused = 2\n_pair, _other = 3, 4\n__dunder__ = 5\n_exported: int = 6\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Node:\n    def f(self) -> _Node:\n        return self._used_attr\n"
            "def public():\n    return _used + _pair + _lone_attr\n"
        ),
        "b": "from a import _exported\nimport a\nx = a._Node\n",
    }
    assert unreferenced_private_names(sources) == [("a", "_other"), ("a", "_recursive"), ("a", "_unused")]


def unbounded_caches(source: str) -> list[tuple[int, str]]:
    """Each functools cache that can grow without bound, with its line.

    An ``lru_cache`` must be called with its maxsize (first argument or
    keyword), written as an int or as a module-level name bound to one;
    ``lru_cache`` used bare or given a function, ``maxsize=None`` and
    ``cache`` are unbounded.  ``functools`` may be imported under any name.
    """
    tree = ast.parse(source)
    sizes = {
        target.id
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant) and type(stmt.value.value) is int
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((alias.asname or alias.name, alias.name) for alias in node.names)

    def kind(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            return node.attr
        return None

    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if kind(node) == "cache":
            found.append((node.lineno, ast.unparse(node)))
        elif kind(node) == "lru_cache":
            call = called.get(id(node))
            size = None
            if call is not None:
                size = call.args[0] if call.args else next((k.value for k in call.keywords if k.arg == "maxsize"), None)
            finite = (isinstance(size, ast.Constant) and type(size.value) is int) or (
                isinstance(size, ast.Name) and size.id in sizes
            )
            if not finite:
                found.append((node.lineno, ast.unparse(call or node)))
    return sorted(found)


@pytest.mark.parametrize("name", ALL_MODULES)
def test_every_cache_is_bounded(name):
    found = unbounded_caches((PACKAGE / f"{name}.py").read_text())
    assert not found, f"fiqs.{name} has caches without a finite maxsize (line, cache): {found}"


def test_unbounded_cache_is_caught():
    source = (
        "import functools as ft\n"
        "from functools import cache, cached_property, lru_cache as memo\n"
        "_SIZE = 64\n"
        "@memo(maxsize=_SIZE, typed=True)\n"
        "def f(x): return x\n"
        "g = ft.lru_cache(128)(f)\n"
        "@memo\n"
        "def h(x): return x\n"
        "k = ft.lru_cache(maxsize=None)(f)\n"
        "@cache\n"
        "def m(x): return x\n"
        "n = ft.cache(f) or memo(f) or memo(maxsize=_other)(f) or memo(typed=True)(f)\n"
    )
    assert unbounded_caches(source) == [
        (7, "memo"),
        (9, "ft.lru_cache(maxsize=None)"),
        (10, "cache"),
        (12, "ft.cache"),
        (12, "memo(f)"),
        (12, "memo(maxsize=_other)"),
        (12, "memo(typed=True)"),
    ]


def rho_branches(source: str) -> list[tuple[int, str]]:
    """Each comparison of ``rho`` or ``<expr>.rho`` with an int literal, with its line."""
    def is_rho(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "rho" or isinstance(node, ast.Attribute) and node.attr == "rho"

    def is_int(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and type(node.value) is int

    return sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(map(is_rho, [node.left, *node.comparators]))
        and any(map(is_int, [node.left, *node.comparators]))
    )


def test_canon_has_no_rho_branch():
    found = rho_branches((PACKAGE / "canon.py").read_text())
    assert not found, f"fiqs.canon branches on rho (line, comparison): {found}"


def test_rho_branch_is_caught():
    source = (
        "if m.rho == 2:\n    pass\n"
        "x = 1 if rho != 3 else 2\n"
        "y = 3 < self.rho\n"
        "z = len(row) == m.rho + 3 or rho in (1, 2) or m.arm == 1\n"
    )
    assert rho_branches(source) == [(1, "m.rho == 2"), (3, "rho != 3"), (4, "3 < self.rho")]


def derived_record_reads(source: str) -> list[tuple[int, str]]:
    """Each read of an attribute named ``local`` or ``resolution``, with its line.

    ``SurfaceRecord.local`` and ``.resolution`` are properties that rebuild
    their dicts on every read; no other object in the package has an
    attribute of either name, so every such read is a record's.
    """
    return sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("local", "resolution")
    )


@pytest.mark.parametrize("name", ALL_MODULES)
def test_no_derived_record_reads(name):
    found = derived_record_reads((PACKAGE / f"{name}.py").read_text())
    assert not found, f"fiqs.{name} reads a record's derived local / resolution instead of its orders (line, read): {found}"


def test_derived_record_read_is_caught():
    source = (
        "o = rec.local.orders['x+']\n"
        "chains = s.rec.resolution.chains\n"
        "ok = rec.orders[0] and local_data(m) and resolution_graph(key) and rec.local_orders\n"
        "f(getattr(rec, 'resolution'), resolution=1)\n"
    )
    assert derived_record_reads(source) == [(1, "rec.local"), (2, "s.rec.resolution")]
