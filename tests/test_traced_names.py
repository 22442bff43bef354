"""Every name the benchmark's tracer wraps must exist in bandsim.

perfbench/tracer.py rebinds its SPANS entries by name at run time, so a
renamed or deleted function would otherwise show up only as a crashed
traced run of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [pair for entries in tracer.SPANS.values() for pair in entries]


@pytest.mark.parametrize("module,attr", _traced_names())
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"bandsim.{module}")
    for part in attr.split("."):  # methods are "Class.method"
        obj = getattr(obj, part)
    assert callable(obj)
