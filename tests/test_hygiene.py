"""Module hygiene of the fiqs package, read with the stdlib ast module.

Every name a module lists in ``__all__`` exists, and no module other than
the package ``__init__`` imports a name it never uses.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import fiqs

PACKAGE = Path(fiqs.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


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
