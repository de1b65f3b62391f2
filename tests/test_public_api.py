"""Every name a fracvol module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import fracvol

MODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(fracvol.__path__, prefix="fracvol.")
    if hasattr(importlib.import_module(name), "__all__")
)


def test_modules_found():
    assert "fracvol.swapanalysis" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)
