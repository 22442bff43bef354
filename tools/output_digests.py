"""Print the sha256 of every output file of a fixed set of bandsim runs.

    python3 tools/output_digests.py CHECKOUT

Imports bandsim from CHECKOUT/src and the benchmark's workload configs from
CHECKOUT/perfbench/workloads.py, then runs each built-in preset and each
workload at seeds 1 and 7919 into a temporary directory.  Prints one
``sha256  run  file`` line per output file, sorted, so that the outputs of
two checkouts compare with ``diff``.  The same lines cover what the
command line prints, run in-process through ``bandsim.cli.main``:
``bandsim preset NAME`` of each preset (file ``stdout:preset``) and
``bandsim validate`` of each run's config (file ``stdout:validate``).
Writes nothing into CHECKOUT.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
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
    from bandsim import cli, experiments

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
            config = Path(tmp) / f"{run}.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            lines.append(f"{_printed(cli, 'validate', str(config))}  {run}  "
                         "stdout:validate")
        for name in experiments.PRESET_NAMES:
            lines.append(f"{_printed(cli, 'preset', name)}  {name}  "
                         "stdout:preset")
    print("\n".join(sorted(lines)))
    return 0


def _printed(cli, *argv: str) -> str:
    """The sha256 of what ``cli.main(argv)`` prints to stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(list(argv))
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
