"""The package's export lists name only what exists, every name the
package re-exports from a module is one that module exports itself, every
exported name and every public method or property of an exported class
has a reader outside the tests, and the exported records that hold arrays
compare by identity."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import types
from pathlib import Path

import pytest

import bandsim
from bandsim.dynamics import replica_trace
from bandsim.interference import all_band_one
from bandsim.oracle import bound_report, reference
from bandsim.topology import make_uniform_linear_array

_ROOT = Path(__file__).resolve().parents[1]
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


def _reads(code: str) -> set[str]:
    """Every name that code reads: its Name ids and Attribute names.  A
    def, a class or an __all__ string is no read, nor is an import."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(code))
            if isinstance(node, (ast.Name, ast.Attribute))}


def _readers() -> set[str]:
    """Names read by the library code, by a README python block, or by
    the benchmark tracer's SPANS (which wraps them by name)."""
    names = set()
    for path in Path(bandsim.__file__).parent.glob("*.py"):
        names |= _reads(path.read_text(encoding="utf-8"))
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    for code in re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S):
        names |= _reads(code)
    spec = importlib.util.spec_from_file_location(
        "tracer", _ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for entries in tracer.SPANS.values():
        for _, attr in entries:  # methods are "Class.method"
            names.update(attr.split("."))
    return names


def test_every_exported_name_has_a_reader_outside_the_tests():
    readers = _readers()
    unread = sorted({f"{mod.__name__}.{name}"
                     for mod in [bandsim] + _MODULES
                     for name in getattr(mod, "__all__", ())
                     if name not in readers})
    assert unread == []


def test_every_public_member_of_an_exported_class_has_a_reader():
    readers = _readers()
    classes = {getattr(mod, name) for mod in _MODULES
               for name in getattr(mod, "__all__", ())
               if isinstance(getattr(mod, name), type)}
    unread = sorted(f"{cls.__module__}.{cls.__name__}.{name}"
                    for cls in classes
                    for name, member in vars(cls).items()
                    if not name.startswith("_")
                    and isinstance(member, (types.FunctionType, property,
                                            classmethod, staticmethod))
                    and name not in readers)
    assert unread == []


def _records():
    """One of each exported record that holds arrays, built afresh."""
    top = make_uniform_linear_array(3, 1.0)
    asg = all_band_one(3, 2)
    ref = reference(top, None, 2)
    return (top, asg, replica_trace([], 0.0, [3], 3, 0.1), ref,
            bound_report(ref, asg))


def test_records_that_hold_arrays_compare_by_identity():
    # equal contents, built twice: a generated __eq__ over array fields
    # would raise on ==, and a generated __hash__ on hash()
    for record, twin in zip(_records(), _records()):
        assert record == record
        assert record != twin
        assert len({record, twin, record}) == 2
