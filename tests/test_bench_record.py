"""tools/bench_record.py with a stubbed benchmark runner, digest tool and
git tree: the seeds it runs, what it keeps of each run, the numeric stack
and the tree it names."""

import importlib.util
import json
import subprocess
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


_CLEAN = {"commit": "0" * 40, "dirty": False}


def _tree(state=_CLEAN):
    def tree(checkout):
        assert checkout == ROOT
        return dict(state)
    return tree


def test_record_runs_both_seeds_and_names_the_numeric_stack(tmp_path):
    runner = _Runner()
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(out)], runner=runner,
                             digests=_digests, tree=_tree()) == 0
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
    assert doc["tree"] == _CLEAN


@pytest.mark.parametrize("dirty", [False, True])
def test_record_names_the_tree_it_measured(tmp_path, dirty):
    state = {"commit": "1234abcd" * 5, "dirty": dirty}
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(out)], runner=_Runner(),
                             digests=_digests, tree=_tree(state)) == 0
    assert json.loads(out.read_text())["tree"] == state


def test_tree_state_reads_head_and_uncommitted_changes(tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t",
             "-c", "user.email=t@example.invalid", *args],
            capture_output=True, text=True, check=True).stdout.strip()
    git("init", "-q")
    (tmp_path / "a.txt").write_text("a\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    head = git("rev-parse", "HEAD")
    assert bench_record.tree_state(tmp_path) == {"commit": head,
                                                 "dirty": False}
    (tmp_path / "a.txt").write_text("b\n")
    assert bench_record.tree_state(tmp_path) == {"commit": head,
                                                 "dirty": True}


@pytest.mark.parametrize("failing", [(1,), (7919,), (1, 7919)])
def test_a_failed_run_is_recorded_and_fails_the_record(tmp_path, failing):
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(out)], runner=_Runner(failing),
                             digests=_digests, tree=_tree()) == 1
    runs = json.loads(out.read_text())["runs"]
    assert {int(s) for s, run in runs.items() if run["result"] is None} \
        == set(failing)


def test_usage_without_out(capsys):
    assert bench_record.main([], runner=_Runner(), digests=_digests,
                             tree=_tree()) == 2
    assert "usage" in capsys.readouterr().err
