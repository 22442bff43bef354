"""A traced benchmark run still counts what the tracer reads from bandsim.

perfbench/tracer.py reads the `.switched` flag of each `apply_update`
result, the `(state, records)` pair of `run_to_convergence` and the
`events`, `aggregates` and `final_bands` of each `SimTrace`, and times the
statistics and the output writer by name.  Each test runs
`perfbench/child.py --trace` on one workload's smoke config, as the
benchmark's first run does, and checks the counts against the outputs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _build_config(name: str) -> dict:
    spec = importlib.util.spec_from_file_location(
        "workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.build_config(name, 1, smoke=True)


def _traced_run(name: str, tmp_path: Path) -> tuple[dict, Path]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_build_config(name)))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(ROOT / "src"),
         str(config), str(out), "--trace"],
        capture_output=True, text=True, timeout=300, check=True,
        # leave no bytecode cache beside the benchmark's files
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0, proc.stderr
    assert result["layers"]["allocation.events"] > 0
    return result["layers"], out


def test_traced_converge_counts_every_update(tmp_path):
    layers, out = _traced_run("converge_lattice", tmp_path)
    summary = json.loads(
        (out / "converge_lattice_summary.json").read_text())
    updates = sum(d["updates"] for d in summary["replicas_detail"])
    assert layers["allocation.events"] == updates
    assert layers["experiments.emit_s"] > 0


@pytest.mark.parametrize("name,replicas", [("relax_ula", 3),
                                           ("churn_ula", 21)])
def test_traced_dynamics_counts_every_replica(tmp_path, name, replicas):
    layers, _ = _traced_run(name, tmp_path)
    assert layers["dynamics.replicas"] == replicas
    if name == "relax_ula":
        # the ensemble mean and the decay fit
        assert layers["dynamics.stats_s"] > 0
