"""Every name a module exports in __all__ is defined."""

import importlib
import pkgutil

import pytest

import csforms

MODULES = sorted(m.name for m in pkgutil.iter_modules(csforms.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"csforms.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
