"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import genfrac

MODULES = ["genfrac", *(f"genfrac.{m.name}" for m in pkgutil.iter_modules(genfrac.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
