"""Every annotation in the package resolves: each name it uses is imported."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import pytest

import fiqs

MODULES = sorted(info.name for info in pkgutil.iter_modules(fiqs.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(f"fiqs.{name}")
    checked = 0
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            functions = [obj, *(f for f in vars(obj).values() if inspect.isfunction(f))]
        elif inspect.isfunction(obj):
            functions = [obj]
        else:
            continue
        for fn in functions:
            typing.get_type_hints(fn)
            checked += 1
    assert checked > 0
