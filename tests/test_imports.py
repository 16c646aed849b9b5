"""Every name a package module imports is used there.

Each module of ``tfea`` is parsed with ``ast``; a name bound by an
``import`` or ``from ... import`` (apart from ``from __future__``) must
be read somewhere in that module, or, in ``__init__.py``, be listed in
``__all__``. An unused import still costs its compile and import.
"""

import ast
import inspect
import pkgutil
from importlib import import_module

import pytest

import tfea

MODULES = ["tfea"] + [f"tfea.{info.name}" for info in pkgutil.iter_modules(tfea.__path__)]


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    module = import_module(name)
    tree = ast.parse(inspect.getsource(module))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", ()) if name == "tfea" else ())
    assert sorted(_imported_names(tree) - used) == []
