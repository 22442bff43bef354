"""Outputs under a restricted numpy SIMD dispatch and OpenBLAS kernel.

Small configs of every experiment kind run in child processes three times:
unrestricted, with NPY_DISABLE_CPU_FEATURES naming every dispatch target
numpy has enabled on this host, and with OPENBLAS_CORETYPE=Sandybridge.
Each setting is made in the child's environment only.  The event engines
must not move: every trace, sweep and variance CSV, every config echo and
every summary field is byte-identical to the unrestricted run.  Under the
dispatch cut only the values computed by np.log2 (normalized_capacity),
np.exp (model_bracket) and np.log (rho_fitted) may differ, within
ULP_BOUND units in the last place.  No BLAS or LAPACK kernel computes any
of them, so under OPENBLAS_CORETYPE every byte is identical.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bandsim
from bandsim.experiments import preset

# the columns and summary fields whose last bits may follow the host
DERIVED = ("normalized_capacity", "model_bracket", "rho_fitted")
# largest gap allowed in a derived value under the dispatch cut, in units
# in the last place of the larger of the two.  Measured on a 2 vCPU Intel
# Xeon (numpy 2.4.6, OpenBLAS 0.3.31, glibc 2.36), the largest gap was
# 1 ulp, in 27 of the 800 model_bracket values; normalized_capacity did
# not move in these configs
ULP_BOUND = 4
_RESTRICTIONS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")

_CHILD = """
import json, sys
from bandsim.experiments import parse_config, run_experiment
for doc in json.load(sys.stdin):
    run_experiment(parse_config(doc), out_dir=sys.argv[1])
"""


def _configs() -> list[dict]:
    """A hex converge run with a capacity series, a relaxation run, a
    variance run at all of fig6's rates and a 1-D sweep, each a shrunk
    preset."""
    converge = preset("fig2c")
    converge["topology"].update(rows=6, cols=6)
    converge["replicas"] = 4
    relaxation = preset("fig5")
    relaxation["topology"]["n"] = 30
    relaxation["replicas"] = 20
    relaxation["output"]["write_trace"] = True
    variance = preset("fig6")
    variance["topology"]["n"] = 20
    variance["replicas"] = 8
    variance["output"]["write_trace"] = True
    sweep = preset("fig3")
    sweep["replicas"] = 3
    sweep["sweep"]["sizes"] = [10, 14]
    return [converge, relaxation, variance, sweep]


def _run(out: Path, **restriction) -> dict[str, str]:
    """Run the configs in a child process with only `restriction` set of
    _RESTRICTIONS; returns each output file's text by name."""
    env = {k: v for k, v in os.environ.items() if k not in _RESTRICTIONS}
    src = str(Path(bandsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(restriction)
    subprocess.run([sys.executable, "-c", _CHILD, str(out)],
                   input=json.dumps(_configs()), text=True, env=env,
                   capture_output=True, check=True, timeout=120)
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(out.iterdir())}


def _ulps(a: str, b: str) -> float:
    if a == b:
        return 0.0
    x, y = float(a), float(b)
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


_JSON_FIELD = re.compile(r'\s*"(\w+)": (.*?),?$')


def _derived_gaps(name: str, base: str, other: str) -> list[float]:
    """The gaps, in ulps, of the derived values of one output file in two
    runs; asserts that everything else is byte-identical."""
    base_lines, other_lines = base.splitlines(), other.splitlines()
    assert len(base_lines) == len(other_lines), name
    gaps = []
    if name.endswith(".json"):
        for a, b in zip(base_lines, other_lines):
            ma, mb = _JSON_FIELD.match(a), _JSON_FIELD.match(b)
            if ma and mb and ma[1] == mb[1] and ma[1] in DERIVED:
                gaps.append(_ulps(ma[2], mb[2]))
            else:
                assert a == b, name
        return gaps
    header = base_lines[0].split(",")
    assert other_lines[0] == base_lines[0], name
    derived = [k for k, h in enumerate(header) if h in DERIVED]
    for a, b in zip(base_lines[1:], other_lines[1:]):
        ca, cb = a.split(","), b.split(",")
        for k in derived:
            gaps.append(_ulps(ca[k], cb[k]))
            ca[k] = cb[k] = ""
        assert ca == cb, name
    return gaps


def _enabled_dispatch() -> list[str]:
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    return [f for f in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(f)]


@pytest.fixture(scope="module")
def unrestricted(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("unrestricted"))


@pytest.mark.parametrize("setting", ["simd_dispatch", "openblas_core"])
def test_engine_outputs_do_not_follow_the_host(tmp_path, unrestricted,
                                               setting):
    if setting == "simd_dispatch":
        targets = _enabled_dispatch()
        if not targets:
            pytest.skip("numpy has no dispatch target enabled on this host")
        restriction = {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
        bound = ULP_BOUND
    else:
        restriction = {"OPENBLAS_CORETYPE": "Sandybridge"}
        bound = 0
    restricted = _run(tmp_path, **restriction)
    assert sorted(restricted) == sorted(unrestricted)
    gaps = [gap for name in unrestricted for gap in
            _derived_gaps(name, unrestricted[name], restricted[name])]
    assert gaps, "no derived value was compared"
    assert max(gaps) <= bound
