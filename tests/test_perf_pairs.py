"""tools/perf_pairs.py with a stubbed benchmark runner: pair order, the
per-metric report and each verdict."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", ROOT / "tools" / "perf_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


perf_pairs = _tool()


class _Stub:
    """A runner that returns scripted metrics per side, in call order, and
    records every call."""

    def __init__(self, parent: Path, values: dict):
        self.parent = parent
        self.values = {side: iter(v) for side, v in values.items()}
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds):
        side = "parent" if checkout == self.parent else "change"
        self.calls.append((side, workload, seed, seconds))
        return next(self.values[side])


def _metrics(wall, setup=0.15, rate=8e4, rss=38.0):
    return {"ref_wall_s": wall, "setup_s": setup,
            "ref_events_per_s": rate, "peak_rss_mb": rss}


def _checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", parent / "BENCHMARK.json")
    return parent, change


def _verdicts(text: str) -> dict:
    out, name = {}, None
    for line in text.splitlines():
        if not line.startswith(" ") and "(" in line:
            name = line.split(" ")[0]
        elif line.strip().startswith("verdict:"):
            out[name] = line.split(":")[1].strip()
    return out


def test_pairs_alternate_and_report_each_verdict(tmp_path, capsys):
    parent, change = _checkouts(tmp_path)
    walls_p = [0.130, 0.131, 0.129, 0.132, 0.130,
               0.128, 0.131, 0.130, 0.129, 0.133]
    stub = _Stub(parent, {
        # ref_wall_s: the change wins every pair by far more than the spread;
        # setup_s: a tie in every pair; ref_events_per_s: noisy beyond its
        # bound on the parent; peak_rss_mb: 10% worse, beyond its 5% bound
        "parent": [_metrics(w, rate=r) for w, r in
                   zip(walls_p, [5e4, 1e5] * 5)],
        "change": [_metrics(w - 0.010, rate=7.5e4, rss=41.8)
                   for w in walls_p],
    })
    code = perf_pairs.main([str(parent), str(change), "--workload",
                            "churn_ula", "--seed", "7919", "--pairs", "10"],
                           runner=stub)
    assert code == 0
    # parent first in odd pairs, change first in even ones; the run length
    # is BENCHMARK.json's
    sides = [c[0] for c in stub.calls]
    assert sides == ["parent", "change", "change", "parent"] * 5
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert {c[1:] for c in stub.calls} == {("churn_ula", 7919, seconds)}
    text = capsys.readouterr().out
    assert _verdicts(text) == {"ref_wall_s": "gain", "setup_s": "within",
                               "ref_events_per_s": "unresolved",
                               "peak_rss_mb": "regression"}
    assert "change wins 10/10" in text
    assert text.count("  pair ") == 40
    assert "runs failed: 0 of 20" in text


def test_verdict_needs_nine_tenths_and_a_gap_beyond_the_spread():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    # 9 wins of 10, medians 0.05 apart against a spread of 0.02: a gain
    change = [p - 0.05 for p in parent[:9]] + [1.5]
    v = perf_pairs.verdict(parent, change, lower=True, bound=0.25)
    assert (v["wins"], v["verdict"]) == (9, "gain")
    # 9 wins of 9 is not: a gain takes at least ten pairs
    v = perf_pairs.verdict(parent[:9], change[:9], lower=True, bound=0.25)
    assert (v["wins"], v["verdict"]) == (9, "within")
    # 8 wins of 10 is not
    change = [p - 0.05 for p in parent[:8]] + [1.5, 1.5]
    assert perf_pairs.verdict(parent, change, True, 0.25)["verdict"] \
        == "within"
    # 10 wins whose median gap is inside the parent's spread are not
    change = [p - 0.005 for p in parent]
    v = perf_pairs.verdict(parent, change, True, 0.25)
    assert v["wins"] == 10 and v["parent_spread"] > 0.005
    assert v["verdict"] == "within"
    # higher is better: the mirror image
    v = perf_pairs.verdict(parent, [p + 0.05 for p in parent], False, 0.25)
    assert v["verdict"] == "gain"
    v = perf_pairs.verdict(parent, [p * 0.7 for p in parent], False, 0.25)
    assert v["verdict"] == "regression"
    # a spread beyond the bound is unresolved unless every change run is
    # better than every parent run
    wide = [1.0, 2.0, 1.0, 2.0]
    assert perf_pairs.verdict(wide, [1.5, 1.5, 1.6, 1.6], True,
                              0.25)["verdict"] == "unresolved"
    assert perf_pairs.verdict(wide, [0.9, 0.9, 0.95, 0.95], True,
                              0.25)["verdict"] == "within"


@pytest.mark.parametrize("failed_side", ["parent", "change"])
def test_a_failed_run_fails_the_comparison(tmp_path, capsys, failed_side):
    parent, change = _checkouts(tmp_path)
    runs = {"parent": [_metrics(0.13)] * 3, "change": [_metrics(0.12)] * 3}
    runs[failed_side] = [runs[failed_side][0], None, runs[failed_side][0]]
    stub = _Stub(parent, runs)
    code = perf_pairs.main([str(parent), str(change), "--workload",
                            "relax_ula", "--pairs", "3"], runner=stub)
    assert code == 1
    text = capsys.readouterr().out
    assert "runs failed: 1 of 6" in text
    # the pair with the failed run is left out of every metric
    assert text.count("  pair ") == 8
