"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import build_config  # noqa: E402


def _fake_runs(m, outcomes):
    """Replace m's child processes: each run sleeps 10 ms and then
    succeeds or fails as the next of `outcomes` says (the last repeats)."""
    def fake_run(traced):
        time.sleep(0.01)
        ok = outcomes[min(m.attempted, len(outcomes) - 1)]
        m.attempted += 1
        if not ok:
            m.failed += 1
            return None
        res = {"wall_s": 0.01, "peak_rss_mb": 1.0,
               "layers": {"allocation.events": 1}}
        m.ref = m.ref or res
        return res
    m.run = fake_run
    m.setup_probe = lambda: 0.001


def _no_calibration(monkeypatch):
    monkeypatch.setattr(run, "pin_to_quickest_cpu", lambda: None)
    monkeypatch.setattr(run, "calibrate", lambda: run.REF_CAL_S)


def test_measurement_ends_at_the_deadline_and_is_not_correct(
        tmp_path, monkeypatch):
    _no_calibration(monkeypatch)
    # Runs that keep succeeding but run past the deadline before the
    # minimum number of timed runs.
    monkeypatch.setattr(run, "RUN_DEADLINE_S", 0.025)
    m = run.Measurement("relax_ula", 1, 0, False, tmp_path)
    _fake_runs(m, [True])
    values = run.measure_e2e(m, smoke=False)
    assert m.attempted < run.MIN_TIMED_RUNS + 1
    assert m.result(values)["correct"] is False


def test_measurement_stops_at_the_first_failed_run(tmp_path, monkeypatch):
    _no_calibration(monkeypatch)
    monkeypatch.setattr(run, "RUN_DEADLINE_S", 5.0)
    for measure in (run.measure_e2e, run.measure_layers):
        m = run.Measurement("relax_ula", 1, 0, False, tmp_path)
        _fake_runs(m, [True, True, False])
        measure(m, smoke=False)
        assert (m.attempted, m.failed) == (3, 1)
        assert m.result({})["correct"] is False


def test_smoke_emits_every_metric_and_runs_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_traced_counts_match_the_run_outputs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(build_config("converge_lattice", 3,
                                              smoke=True)))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ROOT / "src"),
         str(config), str(out), "--trace"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = result["layers"]
    summary = json.loads((out / "converge_lattice_summary.json").read_text())
    detail = summary["replicas_detail"]
    assert layers["allocation.events"] == sum(d["updates"] for d in detail)
    assert layers["allocation.switches"] == sum(d["switches"] for d in detail)
    assert layers["allocation.converge_calls"] == len(detail)
    assert 0 < layers["allocation.quiet_tail_events"] \
        < layers["allocation.events"]
    assert layers["interference.cache_drift_rel"] <= 1e-12
    assert 0 < layers["trace.span_coverage"] <= 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relax_ula",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
