"""Record the benchmark of this checkout, with its numeric stack, as JSON.

    python3 tools/bench_record.py OUT

Runs ``perfbench/run.py --workload all --seed S`` in the checkout that
holds this script, one seed at a time, for S in 1 and 7919, with the
benchmark's default run length.  Then writes OUT, one JSON object:

  command         the benchmark command, S standing for the seed
  runs            per seed: the run's ``# `` provenance lines, with the
                  checkout's path written as ``.``, and its result line,
                  parsed (null when the run failed or was not correct)
  cpu_features    the CPU features numpy's SIMD dispatch has enabled
  blas            the BLAS section of ``np.show_config(mode="dicts")``
  output_digests  the lines of ``tools/output_digests.py`` on the checkout
  tree            the checkout's ``git rev-parse HEAD`` as ``commit`` and,
                  as ``dirty``, whether ``git status --porcelain`` lists
                  any change: a record made on uncommitted changes names
                  their base commit and says so

Bit-exact outputs hold only on the same numpy build, SIMD dispatch and
BLAS kernel, so a record names all three beside its timings.  Exits 1 when
a run failed or was not correct, else 0; OUT is written either way.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from perf_pairs import run_perfbench  # noqa: E402

SEEDS = (1, 7919)


def output_digests(checkout: Path) -> list[str]:
    """The lines ``tools/output_digests.py checkout`` prints."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "tools" / "output_digests.py"),
         str(checkout)], capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def tree_state(checkout: Path) -> dict:
    """{"commit", "dirty"} of the git checkout: its HEAD commit and whether
    its working tree differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


def record(checkout: Path, runner=run_perfbench,
           digests=output_digests, tree=tree_state) -> dict:
    """The record of checkout: runner, digests and tree as run_perfbench,
    output_digests and tree_state take and return."""
    state = tree(checkout)  # the tree as the runs find it
    runs = {}
    for seed in SEEDS:
        result, lines = runner(checkout, ["--workload", "all",
                                          "--seed", str(seed)])
        runs[str(seed)] = {
            "provenance": [line.replace(str(checkout), ".")
                           for line in lines if line.startswith("# ")],
            "result": result}
    return {"command": "python3 perfbench/run.py --workload all --seed S",
            "runs": runs,
            "cpu_features": sorted(k for k, on in __cpu_features__.items()
                                   if on),
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
            "output_digests": digests(checkout),
            "tree": state}


def main(argv=None, runner=run_perfbench, digests=output_digests,
         tree=tree_state) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/bench_record.py OUT", file=sys.stderr)
        return 2
    doc = record(ROOT, runner, digests, tree)
    Path(argv[0]).write_text(json.dumps(doc, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    return 0 if all(run["result"] for run in doc["runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
