"""bandsim benchmark: run-level metrics per workload, or a traced layer split.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the root of a checkout; bandsim is imported from its ``src``.
The default seed is 1.  Seed 7919 is held out: keep it out of tuning, so
that a claim can be checked again with ``--seed 7919``.
Every ``bandsim run`` is a fresh, single-threaded child process, one at a
time (a closed loop with one client).  The first run of a measurement is
traced and untimed: it counts the events and its output files are the
reference that every later run must reproduce byte for byte.

--trace 0 reports, over the runs of one measurement:
  ref_wall_s        mean seconds inside ``bandsim.cli.main(["run", ...])``,
                    import excluded, outputs written, rescaled to the
                    reference host speed (see calibrate)
  setup_s           mean seconds from a fresh interpreter to a parsed
                    config (``import bandsim`` + ``load_config``), measured
                    from outside the process and rescaled the same way
  ref_events_per_s  best-response update events per second of ref_wall_s
  peak_rss_mb       median peak resident set of the run process
  runs_failed       failed runs / attempted runs (the ``failed`` and
                    ``attempted`` fields of the result line)
A measurement stops at its first failed run, and it is not correct unless
it made its minimum number of runs before a deadline that keeps it within
the 180 s a run of the command may take.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of tracer.py as medians over the traced runs, with the tracing
overhead over the untraced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --workload all runs every
workload in turn and prefixes each metric with the workload's name.
--smoke runs tiny versions of the workloads and fails unless every metric
is emitted and every output check ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import COMMON, DRIFT_TOL, EXPECTED, check_outputs  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

DEFAULT_SEED = 1
# Reserved for re-checking a claim on a seed nobody tuned against.
HELD_OUT_SEED = 7_919
DEFAULT_SECONDS = 30
MIN_TIMED_RUNS = 3
MIN_SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0   # a measurement must end within the 180 s limit
CAL_LOOPS = 150_000      # iterations of the calibration loop
REF_CAL_S = 0.010        # its time on the reference host
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import bandsim; "
              "from bandsim.experiments import load_config; "
              "load_config(sys.argv[2])")
ALL_CPUS = os.sched_getaffinity(0)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# -- environment -------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "BANDSIM_OUTPUT_DIR")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def provenance() -> dict:
    import numpy
    import bandsim
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GIT_")}
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "bandsim": bandsim.__version__, "commit": commit or "unknown",
            "bandsim_file": bandsim.__file__}


def import_bandsim() -> None:
    """Import bandsim from the checkout's src, or exit without a result."""
    if not (SRC / "bandsim" / "__init__.py").is_file():
        sys.exit(f"error: no bandsim sources under {SRC}; run from the root "
                 "of a checkout")
    sys.path.insert(0, str(SRC))
    import bandsim
    if SRC.resolve() not in Path(bandsim.__file__).resolve().parents:
        sys.exit(f"error: bandsim resolved to {bandsim.__file__}, "
                 f"not to {SRC}")


def _spin(loops: int) -> float:
    t0 = time.perf_counter()
    total = 0
    for k in range(loops):
        total += k * k % 7
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this CPU now (best of 2).

    A shared host's speed can drift by 40% within minutes, and the drift
    slows a bandsim run and this loop alike.  A measurement calibrates
    before and after each run; its mean time times REF_CAL_S over the
    mean calibration is that time on a host where the loop takes
    REF_CAL_S, the reference host speed.  Means, not medians: the host
    switches between fast and slow spells, and a mean weighs each by its
    share of the time where a median picks one.
    """
    return min(_spin(CAL_LOOPS) for _ in range(2))


def pin_to_quickest_cpu() -> None:
    """Pin this process, and so the next child it starts, to the CPU that
    runs a short Python loop fastest right now.

    On a shared host one virtual CPU is often slowed for seconds at a time
    by work on its sibling.  The scheduler cannot see that, so a run could
    land on it by chance; choosing per run makes that less likely.  With
    one CPU, or so many that probing them all would cost more than a
    run's noise, nothing is pinned.
    """
    cpus = sorted(ALL_CPUS)
    if not 2 <= len(cpus) <= 8:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin(50_000) for _ in range(3))
    os.sched_setaffinity(0, {min(cpus, key=speed.__getitem__)})


# -- one measurement -----------------------------------------------------------

class Measurement:
    """All runs of one workload at one seed, in one scratch directory."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 smoke: bool, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.config = tmp / "config.json"
        self.config.write_text(json.dumps(build_config(workload, seed,
                                                       smoke)))
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[bool]] = {}
        self.durations: list[float] = []
        self.cals: list[float] = []
        self.ref_dir: Path | None = None
        self.ref: dict | None = None
        self.enough = False     # made its minimum number of runs

    def going(self) -> bool:
        """No failed run so far and time left before the deadline."""
        return self.failed == 0 and self._left() > 0

    def _left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def room_for_another(self) -> bool:
        if not self.durations:
            return True
        return (time.perf_counter() + statistics.median(self.durations)
                <= self.deadline)

    def calibrated(self, fn):
        """Pin to the quickest CPU and call fn between two calibrations."""
        pin_to_quickest_cpu()
        self.cals.append(calibrate())
        value = fn()
        self.cals.append(calibrate())
        return value

    def to_ref(self, seconds: float) -> float:
        """A time measured here, at the reference host speed."""
        return seconds * REF_CAL_S / statistics.mean(self.cals)

    def _note(self, name: str, ok: bool) -> None:
        self.checks.setdefault(name, []).append(bool(ok))

    def run(self, traced: bool) -> dict | None:
        """One bandsim run in a child process; None when it failed."""
        out = self.tmp / f"run{self.attempted}"
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC),
               str(self.config), str(out)] + (["--trace"] if traced else [])
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self._left()))
        except subprocess.TimeoutExpired:
            proc = None
        self.durations.append(time.perf_counter() - t0)
        result = None
        if proc is not None and proc.returncode == 0:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = result is not None and result["exit"] == 0
        self._note("exit_ok", ok)
        if not ok:
            detail = proc.stderr.strip()[-2000:] if proc else "timed out"
            print(f"# run failed ({self.workload}): {detail}",
                  file=sys.stderr)
            self.failed += 1
            return None
        checks, drift = check_outputs(self.workload, out, self.ref_dir)
        if traced:
            layers = result["layers"]
            layers["interference.cache_drift_rel"] = max(
                layers["interference.cache_drift_rel"], drift)
            checks["cache_drift_traced"] = \
                layers["interference.cache_drift_rel"] <= DRIFT_TOL
            checks.update(result["checks"])
        for name, value in checks.items():
            self._note(name, value)
        if not all(checks.values()):
            bad = sorted(k for k, v in checks.items() if not v)
            print(f"# output check failed ({self.workload}): {bad}",
                  file=sys.stderr)
            self.failed += 1
            return None
        result["bytes_written"] = sum(p.stat().st_size
                                      for p in out.iterdir())
        if self.ref_dir is None:
            self.ref_dir, self.ref = out, result
        else:
            shutil.rmtree(out)
        return result

    def setup_probe(self) -> float | None:
        """Seconds from a fresh interpreter to a parsed config; None when
        the probe failed or timed out, which counts as a failed run."""
        cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.config)]
        t0 = time.perf_counter()
        # Pipes, not a bare timeout: Popen.wait(timeout) polls the child
        # every 50 ms, which would quantize the measured time.
        try:
            subprocess.run(cmd, env=self.env, check=True,
                           capture_output=True,
                           timeout=max(1.0, min(60.0, self._left())))
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            print(f"# setup probe failed ({self.workload}): {exc}",
                  file=sys.stderr)
            self.failed += 1
            return None
        return time.perf_counter() - t0

    def result(self, metrics: dict) -> dict:
        return {"correct": (self.failed == 0 and self.ref is not None
                            and self.enough),
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def measure_e2e(m: Measurement, smoke: bool) -> dict:
    if m.calibrated(lambda: m.run(traced=True)) is None:
        return {}
    walls, rss, setups = [], [], []
    min_runs = 1 if smoke else MIN_TIMED_RUNS
    min_setups = 2 if smoke else MIN_SETUP_PROBES

    def probe_and_run():
        setups.append(m.setup_probe())
        return m.run(traced=False) if m.going() else None

    while m.going() and (len(walls) < min_runs or m.room_for_another()):
        res = m.calibrated(probe_and_run)
        if res is not None:
            walls.append(res["wall_s"])
            rss.append(res["peak_rss_mb"])
    while m.going() and len(setups) < min_setups:
        setups.append(m.calibrated(m.setup_probe))
    setups = [s for s in setups if s is not None]
    m.enough = len(walls) >= min_runs and len(setups) >= min_setups
    if not walls or not setups:
        return {}
    for name, values in (("wall_s", walls), ("setup_s", setups),
                         ("calibration_s", m.cals)):
        print(f"# {len(values)} x {name} (host speed): "
              + " ".join(f"{v:.4f}" for v in values))
    wall = m.to_ref(statistics.mean(walls))
    return {"ref_wall_s": wall,
            "setup_s": m.to_ref(statistics.mean(setups)),
            "ref_events_per_s": m.ref["layers"]["allocation.events"] / wall,
            "peak_rss_mb": statistics.median(rss)}


def measure_layers(m: Measurement, smoke: bool) -> dict:
    first = m.calibrated(lambda: m.run(traced=True))
    traced = [first] if first is not None else []
    plain = []
    while m.going() and (len(plain) < 1 or len(traced) < 2 or (
            not smoke and m.room_for_another())):
        res = m.calibrated(lambda: m.run(traced=len(plain) >= len(traced)))
        if res is not None:
            (traced if "layers" in res else plain).append(res)
    m.enough = len(plain) >= 1 and len(traced) >= 2
    if not (plain and traced):
        return {}
    names = traced[0]["layers"]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in names}
    out["interference.cache_drift_rel"] = max(
        r["layers"]["interference.cache_drift_rel"] for r in traced)
    out["experiments.bytes_written"] = traced[0]["bytes_written"]
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead"] = out["trace.wall_s"] / plain_wall - 1.0
    out["host.wall_s"] = plain_wall
    out["host.calibration_ms"] = 1e3 * statistics.mean(m.cals)
    print(f"# {len(traced)} traced runs, {len(plain)} untraced runs")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        m = Measurement(workload, seed, seconds, smoke, tmp)
        values = measure_layers(m, smoke) if trace else measure_e2e(m, smoke)
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    units = declared_units(trace)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in values
               if k in units}
    result = m.result(metrics)
    report(workload, result, m.checks, trace)
    result["_checks"] = m.checks
    return result


def report(workload: str, result: dict, checks: dict, trace: bool) -> None:
    print(f"== {workload}: {result['attempted']} runs, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        print(f"  {'runs_failed':36s} {result['failed']:>10d} / "
              f"{result['attempted']} runs")
    if trace and "trace.wall_s" in result["metrics"]:
        total = result["metrics"]["trace.wall_s"]["value"]
        shares = {layer: result["metrics"][f"{layer}.layer_self_s"]["value"]
                  / total for layer in LAYERS}
        shares["experiments emit+self"] = sum(
            result["metrics"][f"experiments.{k}"]["value"]
            for k in ("emit_s", "self_s")) / total
        print("  self-time share of the traced run: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
    passed = ", ".join(f"{k} {sum(v)}/{len(v)}"
                       for k, v in sorted(checks.items()))
    print(f"  checks: {passed}")


def smoke_problems(workload: str, trace: bool, result: dict) -> list[str]:
    """Names missing from a smoke run: metrics not emitted, checks not run."""
    wanted = declared_units(trace)
    problems = [f"metric {n} not emitted" for n in wanted
                if n not in result["metrics"]]
    problems += [f"metric {n} not in BENCHMARK.json"
                 for n in result["metrics"] if n not in wanted]
    ran = set(result["_checks"])
    expected = set(EXPECTED[workload]) | {"exit_ok", "files_written"}
    expected |= (COMMON - {"byte_identical"}) if trace else {"byte_identical"}
    problems += [f"check {c} never ran" for c in sorted(expected - ran)]
    if not result["correct"]:
        problems.append("a run failed")
    return [f"{workload} trace={int(trace)}: {p}" for p in problems]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"base_seed of the inputs; {HELD_OUT_SEED} is held "
                    "out of tuning")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    seed = args.seed
    if seed < 0:
        ap.error("--seed must be >= 0")

    import_bandsim()
    prov = provenance()
    print(f"# seed {seed} seconds {args.seconds:g} trace {args.trace} "
          f"smoke {int(args.smoke)}")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.smoke else (bool(args.trace),)
    results, problems = {}, []
    for name in names:
        for trace in modes:
            res = measure(name, seed, 0 if args.smoke else args.seconds,
                          trace, args.smoke)
            results[(name, trace)] = res
            if args.smoke:
                problems += smoke_problems(name, trace, res)
    for p in problems:
        print(f"# smoke: {p}", file=sys.stderr)

    if len(results) == 1:
        final = next(iter(results.values()))
        final.pop("_checks")
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{k}": v
                             for (name, _), r in results.items()
                             for k, v in r["metrics"].items()}}
    if problems:
        final["correct"] = False
    print(json.dumps(final))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
