"""Output checks for one benchmark run.

Each check returns a named boolean.  Checks read only the files the run
wrote (plus, for traced runs, what the tracer saw), so they hold across
commits whose output bytes differ; byte identity is compared only between
runs of one commit.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DRIFT_TOL = 1e-12  # acceptance 10's tolerance for the incremental cache

FILES = {
    "sweep_oracle": ("config.json", "summary.json", "sweep.csv"),
    "relax_ula": ("config.json", "summary.json", "decay.csv"),
    "churn_ula": ("config.json", "summary.json", "variance.csv"),
    "converge_lattice": ("config.json", "summary.json", "trace.csv",
                         "capacity.csv"),
}

# Every check each workload must run at least once in a measurement.
EXPECTED = {
    "sweep_oracle": {"upper_ok_all", "ratio_cap_ok_all", "oracle_ordering"},
    "relax_ula": {"upper_bound", "rho_fitted_positive"},
    "churn_ula": {"divergent_at_0.375", "stable_at_0.01", "all_rates"},
    "converge_lattice": {"upper_ok_all", "ratio_cap_ok_all",
                         "trace_rows", "cache_drift_outputs"},
}
COMMON = {"exit_ok", "files_written", "byte_identical", "cache_drift_traced"}


def output_files(workload: str, out_dir: Path) -> list[Path]:
    return [out_dir / f"{workload}_{suffix}" for suffix in FILES[workload]]


def check_outputs(workload: str, out_dir: Path, ref_dir: Path | None
                  ) -> tuple[dict[str, bool], float]:
    """Checks on the files of one successful run, and the cache drift read
    from them (0 where the outputs hold no trace).  ref_dir holds the
    reference run's files of the same config, or None for the reference."""
    files = output_files(workload, out_dir)
    checks = {"files_written": all(p.is_file() for p in files)}
    drift = 0.0
    if not checks["files_written"]:
        return checks, drift
    if ref_dir is not None:
        checks["byte_identical"] = all(
            p.read_bytes() == (ref_dir / p.name).read_bytes() for p in files)
    summary = json.loads((out_dir / f"{workload}_summary.json").read_text())
    if workload in ("sweep_oracle", "converge_lattice"):
        bounds = summary["bounds"]
        checks["upper_ok_all"] = bounds["upper_ok_all"] is True
        checks["ratio_cap_ok_all"] = bounds["ratio_cap_ok_all"] is True
    if workload == "converge_lattice":
        drift, rows = converge_drift(workload, out_dir, summary)
        checks["trace_rows"] = rows == sum(
            e["updates"] + 1 for e in summary["replicas_detail"])
        checks["cache_drift_outputs"] = drift <= DRIFT_TOL
    elif workload == "relax_ula":
        rho = summary["rho_fitted"]
        checks["rho_fitted_positive"] = math.isfinite(rho) and rho > 0
        checks["upper_bound"] = (summary["i_a_mean_final"]
                                 <= summary["i_w"] / summary["bands"])
    elif workload == "churn_ula":
        points = {p["one_minus_alpha"]: p for p in summary["points"]}
        checks["all_rates"] = (
            len(points) == len(json.loads(
                (out_dir / f"{workload}_config.json").read_text())["rates"]))
        checks["divergent_at_0.375"] = points.get(0.375, {}).get(
            "divergent") is True
        checks["stable_at_0.01"] = points.get(0.01, {}).get(
            "divergent") is False
    return checks, drift


def converge_drift(workload: str, out_dir: Path,
                   summary: dict) -> tuple[float, int]:
    """(max over replicas of |last trace aggregate - final_aggregate| /
    final_aggregate, number of trace rows) from a converge run's files."""
    last: dict[int, float] = {}
    rows = 0
    with open(out_dir / f"{workload}_trace.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            last[int(row["replica"])] = float(row["aggregate_interference"])
    drift = 0.0
    for entry in summary["replicas_detail"]:
        final = entry["final_aggregate"]
        drift = max(drift, abs(last[entry["replica"]] - final) / final)
    return drift, rows

