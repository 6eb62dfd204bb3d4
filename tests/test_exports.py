"""Every name a module exports in __all__, and every public method of a
class the package defines, is defined and is used by the package, outside
its re-exports in __init__, or by the benchmark."""

import ast
import importlib
import pkgutil
from functools import cache
from pathlib import Path

import pytest

import csforms

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


@cache
def used_outside_init():
    package = [p for p in sorted((ROOT / "src" / "csforms").glob("*.py")) if p.name != "__init__.py"]
    return referenced_names(package + sorted((ROOT / "perfbench").glob("*.py")))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_read_outside_init(name):
    # a name only the tests call is a second path next to the one the checks use
    module = importlib.import_module(f"csforms.{name}")
    assert sorted(set(getattr(module, "__all__", ())) - used_outside_init()) == []


def public_methods(path):
    """Class.method for every method, property included, of the classes
    defined in path whose name does not start with an underscore."""
    for cls in ast.walk(ast.parse(path.read_text())):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{cls.name}.{node.name}"


@pytest.mark.parametrize("name", MODULES)
def test_every_public_method_is_read_outside_init(name):
    methods = public_methods(ROOT / "src" / "csforms" / f"{name}.py")
    assert [m for m in methods if m.rsplit(".", 1)[1] not in used_outside_init()] == []
