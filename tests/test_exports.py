"""Every name a module exports in __all__ is defined, and every name
csforms.bundles exports is used by the package or the benchmark."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import csforms
from csforms import bundles

MODULES = sorted(m.name for m in pkgutil.iter_modules(csforms.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"csforms.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def referenced_names(paths):
    """The names the code in paths reads, imports or reads as an attribute;
    a definition, a string and a docstring do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_bundles_export_is_used_outside_its_definition():
    # a name only the tests call is a second path next to the one the checks use
    paths = sorted((ROOT / "src" / "csforms").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    unused = sorted(set(bundles.__all__) - referenced_names(paths))
    assert unused == []
