"""Module hygiene of the fiqs package, read with the stdlib ast module.

Every name a module lists in ``__all__`` exists, no module other than the
package ``__init__`` imports a name it never uses, every module-level
private name is used somewhere in the package, no module reaches
into private stdlib API, which may differ between the Python versions that
``pyproject.toml`` accepts (``Fraction(..., _normalize=False)`` exists on
3.11 but not on 3.12), every functools cache has a finite size, so that
no memo grows with the input, no functools cache sits in ``kaehler`` or
``core`` or wraps an oracle of ``invariants``, so that no oracle value
outlives a verify run, ``canon`` never branches on rho: it reads
the shape of the matrix from ``ARM_COLUMNS``, no module reads the
derived ``local`` or ``resolution`` of a record: those properties build
their dicts on every read, so code in the package reads ``orders``, and
no module tests a value's type against int outside a ``__post_init__`` or
a ``series._check_*`` function: keys and matrices check their fields when
they are made, and ``series._check_index`` checks every index argument, and
no class is decorated with bare ``dataclass``: every value class goes through
``core.value_class``, whose ``__init__`` stores through the slots, and no
module re-checks a normal form: a ``DefiningMatrix`` checks the inequalities
when it is made, so there is no ``_checked``, and the one test of them all,
``series._HOLDS``, runs only in ``DefiningMatrix.__post_init__``, ``validate``
and ``canonicalize``, and ``census`` imports from ``core``, ``series`` and
``invariants`` only, and no oracle or series form: verification lives in
``verify``, and no module but ``series`` reads the series weights
(``_WEIGHTS``, ``_DIGITS``): ``series`` is the one module that turns a key
into local orders, and other code reads them from the matrix.
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


def _caches(tree: ast.AST) -> list[tuple[str, ast.AST, ast.Call | None]]:
    """Each use of functools ``cache`` or ``lru_cache``: its kind, its node and the call of that node, if any.

    ``functools`` may be imported under any name.
    """
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
    return [(kind(node), node, called.get(id(node))) for node in ast.walk(tree) if kind(node) in ("cache", "lru_cache")]


def unbounded_caches(source: str) -> list[tuple[int, str]]:
    """Each functools cache that can grow without bound, with its line.

    An ``lru_cache`` must be called with its maxsize (first argument or
    keyword), written as an int or as a module-level name bound to one;
    ``lru_cache`` used bare or given a function, ``maxsize=None`` and
    ``cache`` are unbounded.
    """
    tree = ast.parse(source)
    sizes = {
        target.id
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant) and type(stmt.value.value) is int
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    found = []
    for kind, node, call in _caches(tree):
        if kind == "cache":
            found.append((node.lineno, ast.unparse(node)))
        else:
            size = None
            if call is not None:
                size = call.args[0] if call.args else next((k.value for k in call.keywords if k.arg == "maxsize"), None)
            finite = (isinstance(size, ast.Constant) and type(size.value) is int) or (
                isinstance(size, ast.Name) and size.id in sizes
            )
            if not finite:
                found.append((node.lineno, ast.unparse(call or node)))
    return sorted(found)


def cached_functions(source: str) -> list[tuple[int, str]]:
    """Each name a functools cache wraps, with its line, bounded cache or not.

    A name is wrapped when its ``def`` is decorated with ``cache``, bare
    ``lru_cache`` or an ``lru_cache(...)`` call, or when it is passed to
    ``cache(...)`` or to the function an ``lru_cache(...)`` call returns.
    """
    tree = ast.parse(source)
    wrappers = {id(node) if kind == "cache" or call is None else id(call) for kind, node, call in _caches(tree)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend((node.lineno, node.name) for d in node.decorator_list if id(d) in wrappers)
        elif isinstance(node, ast.Call) and id(node.func) in wrappers:
            found.extend((arg.lineno, arg.id) for arg in node.args if isinstance(arg, ast.Name))
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


# The oracles' values must not outlive a verify run: a memo across calls would let one
# run time a warm cache and would hide an oracle mutant behind values of an earlier test.
@pytest.mark.parametrize("name", ["kaehler", "core"])
def test_oracle_kernels_have_no_cache(name):
    found = sorted((node.lineno, kind) for kind, node, _ in _caches(ast.parse((PACKAGE / f"{name}.py").read_text())))
    assert not found, f"fiqs.{name} has functools caches (line, cache): {found}"


def test_no_invariants_oracle_is_cached():
    found = [(line, f) for line, f in cached_functions((PACKAGE / "invariants.py").read_text()) if f.endswith("_oracle")]
    assert not found, f"fiqs.invariants caches an oracle (line, function): {found}"


def test_cached_oracle_is_caught():
    source = (
        "import functools as ft\n"
        "from functools import cache, cached_property, lru_cache as memo\n"
        "@memo(maxsize=64)\n"
        "def class_group_oracle(m): return m\n"
        "@cache\n"
        "def _values(m): return m\n"
        "fast = ft.lru_cache(64)(local_gorenstein_oracle) or cache(barycenter_oracle) or cached_property(f)\n"
        "@memo\n"
        "def bare(x): return x\n"
    )
    assert cached_functions(source) == [
        (4, "class_group_oracle"),
        (6, "_values"),
        (7, "barycenter_oracle"),
        (7, "local_gorenstein_oracle"),
        (9, "bare"),
    ]
    assert sorted((node.lineno, kind) for kind, node, _ in _caches(ast.parse(source))) == [
        (3, "lru_cache"), (5, "cache"), (7, "cache"), (7, "lru_cache"), (8, "lru_cache"),
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


# Counting and the codec need no verification code: census imports from these modules only,
# and none of the oracles or series forms that verify compares the closed forms with.
_CENSUS_SOURCES = {"core", "series", "invariants"}


def census_reach(source: str) -> list[tuple[int, str]]:
    """Each fiqs module outside ``_CENSUS_SOURCES`` that the source imports, each name ending in ``_oracle``
    and each series form of an invariant (a name of ``invariants`` ending in ``_from_eta``), with its line.

    A name imported from the package itself (``from . import kaehler``) counts as its module.
    ``series.matrix_from_eta`` is the closed form export writes from, not a series form of an invariant.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imports = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "fiqs" + (f".{node.module}" if node.module else "") if node.level else node.module
            imports = [
                (f"{package}.{alias.name}", None) if package == "fiqs" else (package, alias.name) for alias in node.names
            ]
        else:
            continue
        for module, name in imports:
            if module.startswith("fiqs.") and module.split(".")[1] not in _CENSUS_SOURCES:
                found.add((node.lineno, module))
            if name is not None and (
                name.endswith("_oracle") or module == "fiqs.invariants" and name.endswith("_from_eta")
            ):
                found.add((node.lineno, name))
    return sorted(found)


def test_census_imports_no_verification_code():
    found = census_reach((PACKAGE / "census.py").read_text())
    assert not found, f"fiqs.census imports verification code (line, module or name): {found}"


def test_census_reach_is_caught():
    source = (
        "import json\nfrom functools import lru_cache\n"
        "from .core import value_class\nfrom . import series\n"
        "from .canon import canonicalize, raw_from_matrix\n"
        "from .invariants import class_group_oracle, surface_record, degree_from_eta\n"
        "from . import kaehler, invariants\n"
        "import fiqs.verify\n"
        "from fiqs.series import matrix_from_eta, _iter_eta, enumeration_oracle\n"
    )
    assert census_reach(source) == [
        (5, "fiqs.canon"),
        (6, "class_group_oracle"),
        (6, "degree_from_eta"),
        (7, "fiqs.kaehler"),
        (8, "fiqs.verify"),
        (9, "enumeration_oracle"),
    ]


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


def int_type_tests(source: str, module: str) -> list[tuple[int, str]]:
    """Each int-type test outside a ``__post_init__`` or, in ``series``, a ``_check_*`` function, with its line.

    An int-type test is ``isinstance(_, int)`` (int alone or in a tuple),
    ``type(_) is int`` or ``is not int``, and ``int.__instancecheck__``.
    """
    def is_int(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "int"

    def is_type_call(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"

    def is_test(node: ast.AST) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            cls = node.args[1]
            return is_int(cls) or isinstance(cls, ast.Tuple) and any(map(is_int, cls.elts))
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            is_op = any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            return is_op and any(map(is_int, sides)) and any(map(is_type_call, sides))
        return isinstance(node, ast.Attribute) and is_int(node.value) and node.attr == "__instancecheck__"

    found = []

    def visit(node: ast.AST, allowed: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = allowed or node.name == "__post_init__" or module == "series" and node.name.startswith("_check_")
        elif not allowed and is_test(node):
            found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source), False)
    return sorted(found)


@pytest.mark.parametrize("name", ALL_MODULES)
def test_int_types_are_checked_where_values_are_made(name):
    found = int_type_tests((PACKAGE / f"{name}.py").read_text(), name)
    assert not found, f"fiqs.{name} tests for int outside a constructor or series._check_* (line, test): {found}"


def test_int_type_test_is_caught():
    source = (
        "def _check_ints(x):\n    return isinstance(x, int)\n"
        "class K:\n    def __post_init__(self):\n        assert all(map(int.__instancecheck__, self.t))\n"
        "def f(x, y):\n    return isinstance(x, (int, float)) or type(y) is not int\n"
        "g = int.__instancecheck__ if type(1) is int else None\n"
        "def h(x):\n    return type(x) is bool or isinstance(x, str) or x is int or type(x) == float\n"
    )
    outside = [
        (7, "isinstance(x, (int, float))"),
        (7, "type(y) is not int"),
        (8, "int.__instancecheck__"),
        (8, "type(1) is int"),
    ]
    assert int_type_tests(source, "series") == outside
    assert int_type_tests(source, "census") == sorted([(2, "isinstance(x, int)"), *outside])


def bare_dataclasses(source: str) -> list[tuple[int, str]]:
    """Each class decorated with ``dataclass`` or ``dataclasses.dataclass``, called or not, with its line."""

    def is_dataclass(node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        return isinstance(node, ast.Name) and node.id == "dataclass" or (
            isinstance(node, ast.Attribute) and node.attr == "dataclass"
        )

    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
    )


@pytest.mark.parametrize("name", ALL_MODULES)
def test_no_bare_dataclass(name):
    found = bare_dataclasses((PACKAGE / f"{name}.py").read_text())
    assert not found, f"fiqs.{name} decorates classes with bare dataclass, not core.value_class (line, class): {found}"


def test_bare_dataclass_is_caught():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True, slots=True)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(order=True)\nclass C:\n    x: int\n"
        "@value_class\nclass D:\n    x: int\n"
        "@value_class(order=True)\nclass E:\n    x: int\n"
        "def f():\n    return dataclass(type('F', (), {}))\n"
    )
    assert bare_dataclasses(source) == [(4, "A"), (7, "B"), (10, "C")]


# The functions that may run the normal-form test: the constructor, the report and the orbit filter.
_HOLDS_USERS = {"DefiningMatrix.__post_init__", "validate", "canonicalize"}


def normal_form_rechecks(source: str) -> list[tuple[int, str]]:
    """Each definition, import or use of ``_checked``, and each read of ``_HOLDS`` outside ``_HOLDS_USERS``, with its line."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == "_checked":
                found.append((node.lineno, "def _checked"))
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.alias) and node.name == "_checked":
            found.append((node.lineno, "import _checked"))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name == "_checked":
                found.append((node.lineno, ast.unparse(node)))
            elif name == "_HOLDS" and isinstance(node.ctx, ast.Load) and scope not in _HOLDS_USERS:
                found.append((node.lineno, f"{ast.unparse(node)} in {scope or 'the module'}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


@pytest.mark.parametrize("name", ALL_MODULES)
def test_no_normal_form_recheck(name):
    found = normal_form_rechecks((PACKAGE / f"{name}.py").read_text())
    assert not found, f"fiqs.{name} re-checks a normal form outside the DefiningMatrix constructor (line, use): {found}"


def test_normal_form_recheck_is_caught():
    source = (
        "from .canon import _checked, validate\n"
        "_HOLDS = {}\n"
        "class DefiningMatrix:\n    def __post_init__(self):\n        assert _HOLDS[self.rho](self.a, self.b)\n"
        "def validate(rho, a, b):\n    return _HOLDS[rho](a, b)\n"
        "def canonicalize(m):\n    holds = _HOLDS[m.rho]\n"
        "def _checked(m):\n    return m\n"
        "def degree(m):\n    return _checked(m).a if series._HOLDS[m.rho](m.a, m.b) else 0\n"
        "class Other:\n    def __post_init__(self):\n        _HOLDS[1](0, -2)\n"
        "ok = _HOLDS_USERS and _check_params\n"
    )
    assert normal_form_rechecks(source) == [
        (1, "import _checked"),
        (10, "def _checked"),
        (13, "_checked"),
        (13, "series._HOLDS in degree"),
        (16, "_HOLDS in Other.__post_init__"),
    ]


# The tables that turn a key into local orders; only fiqs.series reads them.
_SERIES_WEIGHT_TABLES = {"_WEIGHTS", "_DIGITS"}


def series_weight_reads(source: str) -> list[tuple[int, str]]:
    """Each import, name or attribute of a table in ``_SERIES_WEIGHT_TABLES``, with its line."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name.split(".")[-1] in _SERIES_WEIGHT_TABLES:
            found.add((node.lineno, f"import {node.name}"))
        elif isinstance(node, ast.Name) and node.id in _SERIES_WEIGHT_TABLES:
            found.add((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in _SERIES_WEIGHT_TABLES:
            found.add((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("name", [name for name in ALL_MODULES if name != "series"])
def test_only_series_reads_the_weights(name):
    found = series_weight_reads((PACKAGE / f"{name}.py").read_text())
    assert not found, f"fiqs.{name} reads the series weights, which only fiqs.series turns into orders (line, use): {found}"


def test_series_weight_read_is_caught():
    source = (
        "from .series import _WEIGHTS, _CLASS_WEIGHTS, matrix_from_eta\n"
        "from . import series\n"
        "w = series._DIGITS[1]\n"
        "def orders(key):\n    return _WEIGHTS[key.rho][key.series.tag]\n"
        "ok = _CLASS_WEIGHTS and series._digit and matrix_from_eta\n"
    )
    assert series_weight_reads(source) == [(1, "import _WEIGHTS"), (3, "series._DIGITS"), (5, "_WEIGHTS")]
