"""The package's export lists name only what exists, and every name the
package re-exports from a module is one that module exports itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bandsim

_MODULES = [importlib.import_module(f"bandsim.{info.name}")
            for info in pkgutil.iter_modules(bandsim.__path__)]


@pytest.mark.parametrize(
    "mod", [bandsim] + [m for m in _MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__)
def test_every_exported_name_resolves(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_reexports_are_exported_by_their_home_module():
    tree = ast.parse(Path(bandsim.__file__).read_text(encoding="utf-8"))
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            home = importlib.import_module(f"bandsim.{node.module}")
            stray += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name in bandsim.__all__
                      and alias.name not in home.__all__]
    assert stray == []
