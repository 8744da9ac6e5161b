"""The public names: every ``__all__`` entry resolves, and every name the
package root imports is exported by its module, so a deleted function cannot
leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import varsmile

MODULES = [
    importlib.import_module(f"varsmile.{info.name}") for info in pkgutil.iter_modules(varsmile.__path__)
]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _root_imports():
    """(module, name) of each ``from .module import name`` in varsmile/__init__.py."""
    tree = ast.parse(Path(varsmile.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_root_imports_are_exported():
    imports = _root_imports()
    assert imports
    stale = [(mod, name) for mod, name in imports if name not in importlib.import_module(f"varsmile.{mod}").__all__]
    assert stale == []
