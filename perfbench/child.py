"""One ``bandsim run`` in a fresh interpreter, timed from inside.

    python3 perfbench/child.py SRC CONFIG OUT [--trace]

Imports bandsim from SRC (and refuses any other copy), then times
``bandsim.cli.main(["run", CONFIG, "--out", OUT])``; the import is not
timed.  With --trace the per-layer tracer is installed first.  The last
line of standard output is a JSON object with the exit code, the wall time,
the process's peak RSS and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

EXIT_WRONG_IMPORT = 90


def main(argv: list[str]) -> int:
    src, config, out = (Path(a).resolve() for a in argv[:3])
    traced = "--trace" in argv[3:]
    sys.path.insert(0, str(src))
    import bandsim
    import bandsim.cli

    origin = Path(bandsim.__file__).resolve()
    if src not in origin.parents:
        print(f"bandsim imported from {origin}, not from {src}",
              file=sys.stderr)
        return EXIT_WRONG_IMPORT
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = bandsim.cli.main(["run", str(config), "--out", str(out)])
    wall = time.perf_counter() - t0

    result = {
        "exit": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "bandsim_file": str(origin),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        result["checks"] = tracer.checks()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
