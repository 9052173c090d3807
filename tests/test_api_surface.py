"""Every name a module exports resolves, so a deleted object cannot linger
in an export list."""

import importlib
import pkgutil

import pytest

import scalekit

MODULES = ["scalekit"] + [f"scalekit.{m.name}" for m in pkgutil.iter_modules(scalekit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"

