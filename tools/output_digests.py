"""Print the sha256 of every output file of a fixed set of bandsim runs.

    python3 tools/output_digests.py CHECKOUT

Imports bandsim from CHECKOUT/src and the benchmark's workload configs from
CHECKOUT/perfbench/workloads.py, then runs each built-in preset and each
workload at seeds 1 and 7919 into a temporary directory.  Prints one
``sha256  run  file`` line per output file, sorted, so that the outputs of
two checkouts compare with ``diff``.  Writes nothing into CHECKOUT.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7919)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digests.py CHECKOUT",
              file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "src"))
    from bandsim import experiments

    origin = Path(experiments.__file__).resolve()
    if checkout not in origin.parents:
        print(f"bandsim imported from {origin}, not from {checkout}",
              file=sys.stderr)
        return 1
    spec = importlib.util.spec_from_file_location(
        "workloads", checkout / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    runs = {name: experiments.preset(name)
            for name in experiments.PRESET_NAMES}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            runs[f"{name}@{seed}"] = workloads.build_config(name, seed)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for run, doc in runs.items():
            out = Path(tmp) / run
            experiments.run_experiment(experiments.parse_config(doc),
                                       out_dir=str(out))
            for path in out.iterdir():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {run}  {path.name}")
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
