"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/perf_pairs.py PARENT CHANGE --workload W [--seed S]
                                [--pairs N]

Runs ``perfbench/run.py --workload W --seed S --seconds T`` from each
checkout, N times each, one at a time, alternating which side goes first:
pair 1 runs PARENT first, pair 2 CHANGE first, and so on.  The run length
T, the end-to-end metrics, their directions and their regression bounds
come from PARENT's ``BENCHMARK.json``.  The runs inherit this process's
environment unchanged.

For each metric it prints every pair, both medians, the parent's quartile
spread (Q3 - Q1 of its runs) and the pairs the change won (ties count for
neither side), then a verdict:

  gain        at least ten complete pairs, the change won at least nine
              tenths of them and its median is better than the parent's
              by more than the parent's quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's relative bound
  unresolved  neither, and the parent's quartile spread is wider than the
              bound, unless every change run beat every parent run
  within      neither, and the spread is within the bound

Exits 1 when a run failed or was not correct, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

# fewer pairs than this cannot show a gain
MIN_PAIRS = 10


def run_perfbench(checkout: Path, args: list[str]
                  ) -> tuple[dict | None, list[str]]:
    """Run ``perfbench/run.py ARGS`` in checkout: its result (the last line
    of its standard output, parsed), None when it failed or was not
    correct, and every line of its standard output."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not result or not result.get("correct"):
        print(f"# run failed in {checkout}: {proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None, lines
    return result, lines


def run_bench(checkout: Path, workload: str, seed: int,
              seconds: float) -> dict | None:
    """Metric name -> value of one ``perfbench/run.py`` measurement in
    checkout; None when it failed or was not correct."""
    result, _ = run_perfbench(checkout, [
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}"])
    if result is None:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(parent: Path, change: Path, workload: str, seed: int,
              pairs: int, seconds: float, runner=run_bench) -> list[dict]:
    """One {"first", "parent", "change"} entry per pair, in run order;
    a side's entry is runner's result (None for a failed run)."""
    out = []
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        entry = {"first": order[0]}
        for side in order:
            entry[side] = runner(parent if side == "parent" else change,
                                 workload, seed, seconds)
            print(f"# pair {k + 1}/{pairs}: {side} done", file=sys.stderr)
        out.append(entry)
    return out


def quartile_spread(values: list[float]) -> float:
    """Q3 - Q1 of values (inclusive quartiles), 0 for fewer than two."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: list[float], change: list[float], lower: bool,
            bound: float) -> dict:
    """The comparison of one metric over paired runs: parent[k] and
    change[k] ran in the same pair.  lower says smaller is better, bound is
    the relative worsening the benchmark tolerates."""
    sign = 1.0 if lower else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread = quartile_spread(parent)
    gain = sign * (p_med - c_med)
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if (len(parent) >= MIN_PAIRS and wins >= math.ceil(0.9 * len(parent))
            and gain > spread):
        kind = "gain"
    elif -gain > bound * abs(p_med):
        kind = "regression"
    elif spread > bound * abs(p_med) and not all_better:
        kind = "unresolved"
    else:
        kind = "within"
    return {"parent_median": p_med, "change_median": c_med,
            "parent_spread": spread, "wins": wins, "pairs": len(parent),
            "verdict": kind}


def report(pairs: list[dict], metrics: list[dict]) -> int:
    """Print each metric's pairs and verdict; the number of failed runs."""
    failed = sum(entry[side] is None for entry in pairs
                 for side in ("parent", "change"))
    ok = [e for e in pairs if e["parent"] is not None
          and e["change"] is not None]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        rows = [e for e in ok if name in e["parent"] and name in e["change"]]
        print(f"{name} ({m['unit']}, {m['better']} is better, "
              f"bound {m['bound']:.0%})")
        if not rows:
            print("  no complete pair")
            continue
        for k, e in enumerate(rows, 1):
            print(f"  pair {k:2d}  {e['first']:6s} first  parent "
                  f"{e['parent'][name]:.6g}  change {e['change'][name]:.6g}")
        v = verdict([e["parent"][name] for e in rows],
                    [e["change"][name] for e in rows], lower, m["bound"])
        rel = ((v["change_median"] - v["parent_median"])
               / v["parent_median"] if v["parent_median"] else math.nan)
        print(f"  median parent {v['parent_median']:.6g}  change "
              f"{v['change_median']:.6g} ({rel:+.1%})")
        print(f"  parent quartile spread {v['parent_spread']:.6g}")
        print(f"  change wins {v['wins']}/{v['pairs']}")
        print(f"  verdict: {v['verdict']}")
    print(f"runs failed: {failed} of {2 * len(pairs)}")
    return failed


def main(argv=None, runner=run_bench) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s: parent {parent}, change {change}")
    pairs = run_pairs(parent, change, args.workload, args.seed, args.pairs,
                      seconds, runner)
    return 1 if report(pairs, spec["end_to_end"]) else 0


if __name__ == "__main__":
    sys.exit(main())
