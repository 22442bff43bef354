"""A traced benchmark run still counts what the tracer reads from bandsim.

perfbench/tracer.py reads the `.switched` flag of each `apply_update`
result, the `(state, records)` pair of `run_to_convergence`, the
`events`, `aggregates` and `final_bands` of each `SimTrace`, the positional
`(top, act, r)` of each `brute_force_optimal` call and the `ordering_ok` of
each bound report, and times the statistics and the output writer by
name.  Each test runs
`perfbench/child.py --trace` on one workload's smoke config, as the
benchmark's first run does, and checks the counts against the outputs.
"""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bandsim import experiments

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _build_config(name: str) -> dict:
    spec = importlib.util.spec_from_file_location(
        "workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.build_config(name, 1, smoke=True)


def _traced_run(name: str, tmp_path: Path,
                **output) -> tuple[dict, Path, dict]:
    """Traced run of the workload's smoke config, with `output` settings
    added to the config's output section."""
    doc = _build_config(name)
    doc["output"].update(output)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
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
    # the tracer times the writer and the parser by rebinding their names,
    # so run_experiment must call _emit through the module global
    assert result["layers"]["experiments.emit_s"] > 0
    assert result["layers"]["experiments.parse_s"] > 0
    return result["layers"], out, result["checks"]


def test_traced_converge_counts_every_update(tmp_path):
    layers, out, _ = _traced_run("converge_lattice", tmp_path)
    summary = json.loads(
        (out / "converge_lattice_summary.json").read_text())
    updates = sum(d["updates"] for d in summary["replicas_detail"])
    assert layers["allocation.events"] == updates
    # the capacity series reads the levels the run recorded: one cache per
    # replica, and no switch replayed
    assert layers["interference.cache_builds"] == summary["replicas"]
    assert layers["interference.set_band_calls"] == sum(
        d["switches"] for d in summary["replicas_detail"])


@pytest.mark.parametrize("name,replicas", [("relax_ula", 3),
                                           ("churn_ula", 21)])
def test_traced_dynamics_counts_every_replica(tmp_path, name, replicas):
    layers, out, _ = _traced_run(name, tmp_path, write_trace=True)
    assert layers["dynamics.replicas"] == replicas
    # the benchmark's event count is the number of apply_update calls, so
    # the engine must make one per event that finds an active cluster
    events = layers["allocation.events"]
    if name == "relax_ula":
        assert events == layers["dynamics.events"] > 0
        # every replica copies the one start the ensemble builds
        assert layers["interference.cache_builds"] == 1
        # the ensemble mean and the decay fit
        assert layers["dynamics.stats_s"] > 0
    else:
        # the variance run also converges its starting state once
        cfg = experiments.parse_config(_build_config(name))
        top, _ = experiments._build_topology(cfg)
        records, *_ = experiments._converge_one(cfg, top, (cfg.base_seed, 1))
        assert layers["allocation.converge_calls"] == 1
        # the cache it converges, and one start that every rate copies
        assert layers["interference.cache_builds"] == 2
        # every churn event that finds an active cluster is one trace row
        # after t = 0 with a cluster, and one apply_update call
        with open(out / f"{name}_trace.csv", newline="") as fh:
            picked = sum(float(row["time"]) > 0 and int(row["cluster"]) >= 0
                         for row in csv.DictReader(fh))
        assert events - len(records) == picked > 0
        assert picked <= layers["dynamics.events"]


def test_traced_sweep_counts_every_oracle_call(tmp_path):
    layers, _, checks = _traced_run("sweep_oracle", tmp_path)
    # one exhaustive optimum per size: 10, 12 and 14
    assert layers["oracle.brute_force_calls"] == 3
    assert checks["oracle_ordering"] is True
