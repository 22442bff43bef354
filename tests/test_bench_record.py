"""tools/bench_record.py with a stubbed benchmark runner and digest tool:
the seeds it runs, what it keeps of each run and the numeric stack it
names."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_record = _tool()


def _result(seed):
    return {"correct": True, "attempted": 12, "failed": 0,
            "metrics": {"relax_ula.ref_wall_s": {"value": 0.05 + seed,
                                                 "unit": "s"}}}


class _Runner:
    """A perfbench runner that records every call and fails the seeds in
    failing."""

    def __init__(self, failing=()):
        self.failing = failing
        self.calls = []

    def __call__(self, checkout, args):
        self.calls.append((checkout, args))
        seed = int(args[args.index("--seed") + 1])
        lines = [f"# seed {seed} seconds 30 trace 0 smoke 0",
                 f"# cpu=x bandsim_file={checkout}/src/bandsim/__init__.py",
                 "== relax_ula: 12 runs, 0 failed",
                 "  checks: exit_ok 12/12"]
        if seed in self.failing:
            return None, lines
        return _result(seed), lines + [json.dumps(_result(seed))]


def _digests(checkout):
    assert checkout == ROOT
    return ["ab  fig2a  summary.json", "cd  fig2a  trace.csv"]


def test_record_runs_both_seeds_and_names_the_numeric_stack(tmp_path):
    runner = _Runner()
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(out)], runner=runner,
                             digests=_digests) == 0
    # the benchmark's own command, one seed at a time, in this checkout
    assert runner.calls == [
        (ROOT, ["--workload", "all", "--seed", "1"]),
        (ROOT, ["--workload", "all", "--seed", "7919"])]
    doc = json.loads(out.read_text())
    assert sorted(doc["runs"]) == ["1", "7919"]
    for seed, run in doc["runs"].items():
        assert run["result"] == _result(int(seed))
        assert run["result"]["correct"] is True
        # the checkout's path is left out of the record
        assert run["provenance"] == [
            f"# seed {seed} seconds 30 trace 0 smoke 0",
            "# cpu=x bandsim_file=./src/bandsim/__init__.py"]
    features = doc["cpu_features"]
    assert features == sorted(features)
    assert "SSE2" in features or "ASIMD" in features
    assert doc["blas"] == np.show_config(
        mode="dicts")["Build Dependencies"]["blas"]
    assert doc["output_digests"] == _digests(ROOT)


@pytest.mark.parametrize("failing", [(1,), (7919,), (1, 7919)])
def test_a_failed_run_is_recorded_and_fails_the_record(tmp_path, failing):
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(out)], runner=_Runner(failing),
                             digests=_digests) == 1
    runs = json.loads(out.read_text())["runs"]
    assert {int(s) for s, run in runs.items() if run["result"] is None} \
        == set(failing)


def test_usage_without_out(capsys):
    assert bench_record.main([], runner=_Runner(), digests=_digests) == 2
    assert "usage" in capsys.readouterr().err
