"""Batch experiments: config parsing, presets, runners, and file output.

A single JSON config document drives one of four experiment kinds:

  converge    static-activity runs to convergence, per-event trace
  sweep       converge across a list of network sizes, one CSV row per size
  relaxation  alpha=1 ensemble, ensemble-mean decay and rate fit
  variance    steady-state variance vs switching rate, prediction vs data

Every run writes a canonical config echo and a summary JSON embedding the
config hash and package version; identical configs produce byte-identical
files on one numpy build, SIMD dispatch and BLAS kernel (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import (PoissonClock, RandomPermutationRounds,
                         run_to_convergence)
from .dynamics import (DEFAULT_RHO, FIT_FLOOR, NEAR_EQUILIBRIUM_RATE,
                       DynamicsConfig, SimTrace, ensemble_mean_trace,
                       fit_exponential_decay, lambda_from_alpha,
                       predicted_variance, replica_trace, run_ensemble,
                       stability_margin, steady_state_stats, time_scale)
from .interference import (Assignment, InterferenceCache, all_band_one,
                           uniform_random_assignment,
                           worst_case_interference)
from .metrics import (capacity_fraction, db_gap, link_capacity, link_powers,
                      shannon_capacity)
from .oracle import Reference, bound_report, reference
from .topology import (Topology, TopologyError, load_topology,
                       make_hexagonal_lattice, make_random_linear_array,
                       make_rectangular_lattice, make_uniform_linear_array)

__all__ = [
    "ConfigError",
    "BoundViolationError",
    "ExperimentConfig",
    "RunResult",
    "OUTPUT_DIR_ENV",
    "PRESET_NAMES",
    "parse_config",
    "load_config",
    "validate_config",
    "preset",
    "run_experiment",
    "resolve_out_dir",
    "config_hash",
    "dumps_canonical",
]

OUTPUT_DIR_ENV = "BANDSIM_OUTPUT_DIR"

EXPERIMENTS = ("converge", "sweep", "relaxation", "variance")
# keys of each topology kind besides 'kind', in the order they are checked
_TOPOLOGY_KEYS = {"ula": ("d", "n"), "random_linear": ("d", "min_sep", "n"),
                  "rect": ("d", "rows", "cols"), "hex": ("d", "rows", "cols"),
                  "file": ("path",)}
TOPOLOGY_KINDS = tuple(_TOPOLOGY_KEYS)
# size keys and their minimum; a sweep supplies them instead of the config
_SIZE_MIN = {"n": 2, "rows": 1, "cols": 1}
# settings that only some experiments read, by (dotted) path: any other
# experiment rejects them, and its config echo holds null there
_ACCEPTED_BY = {"rho": ("relaxation", "variance"),
                "link": ("converge", "sweep"),
                "initial_assignment": ("converge", "sweep", "variance"),
                "horizon": ("relaxation", "variance"),
                "warmup": ("variance",), "sweep": ("sweep",),
                "rates": ("variance",),
                "output.write_trace": ("converge", "relaxation", "variance"),
                "output.write_capacity_series": ("converge",)}
SCHEDULER_KINDS = ("permutation", "poisson")
INITIAL_MODES = ("all_band_one", "uniform_random")

_VARIANCE_ESTIMATOR_NOTE = (
    "population variance (ddof=0) of per-replica post-warmup time means of "
    "the normalized aggregate, taken across the ensemble; replicas start "
    "from a shared pre-converged assignment so the window sits in the "
    "near-equilibrium regime the prediction is derived for")


class ConfigError(ValueError):
    """Config validation failed; .errors lists 'field.path: message' lines."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class BoundViolationError(RuntimeError):
    """A converged run broke a guaranteed bound; .record carries details."""

    def __init__(self, message: str, record: dict):
        super().__init__(message)
        self.record = record


# ---------------------------------------------------------------------------
# canonical serialization


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float reached the canonical writer")
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits,
    numpy scalars and arrays as their Python values, NaN and +-inf as null;
    raises TypeError on any other type."""
    return _dumps(obj, "")


def _dumps(obj, pad: str) -> str:
    """dumps_canonical of obj, a value nested at the indentation pad."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return format(f, ".17g") if math.isfinite(f) else "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {_dumps(obj[k], inner)}"
                 for k in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [_dumps(v, inner) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        return brackets
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{pad}{brackets[1]}")


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_canonical(doc) + "\n")


def _csv_cell(v) -> str:
    # floats and plain ints fill almost every cell, so they are tested first
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return "" if math.isnan(f) else _format_float(f)
    if type(v) is int:
        return str(v)
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


# rows per block of _write_csv: on converge_lattice's trace and capacity
# tables, blocks of 4096 rows raised the writer's peak RSS by 0.8 MB more
# than blocks of 2048, and neither they nor blocks of 1024 wrote faster
_CSV_BLOCK = 2048


def _write_csv(tables: list) -> None:
    """Write each (path, header, columns) table: its header, then one row
    per position of its equal-length columns, each cell as _csv_cell writes
    it.

    The tables are written side by side, _CSV_BLOCK rows at a time, and
    each block is formatted column by column by _block_cells: a column
    object that several tables share is formatted once per block.
    """
    with contextlib.ExitStack() as stack:
        handles = []
        for path, header, _ in tables:
            fh = stack.enter_context(
                open(path, "w", encoding="utf-8", newline="\n"))
            fh.write(",".join(header) + "\n")
            handles.append(fh)
        size = max((len(columns[0]) for _, _, columns in tables if columns),
                   default=0)
        for start in range(0, size, _CSV_BLOCK):
            stop = start + _CSV_BLOCK
            cells = {}  # id of a column -> its block's cells
            for fh, (_, _, columns) in zip(handles, tables):
                if not columns or len(columns[0]) <= start:
                    continue
                for col in columns:
                    if id(col) not in cells:
                        cells[id(col)] = _block_cells(col[start:stop])
                block = [cells[id(col)] for col in columns]
                fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _block_cells(values) -> list[str]:
    """The cells of one block of a column as _csv_cell writes them: an int
    numpy block by str(int), from a table of its value range's texts unless
    the range is wider than the block; a float one without a NaN or an
    infinity by '%.17g', once per run of equal neighbours; any other by
    _csv_cell."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("i", "u"):
        lo = values.min()
        span = int(values.max()) - int(lo)
        if span >= values.size:
            return list(map(str, values.tolist()))
        texts = np.array([str(v) for v in range(int(lo), int(lo) + span + 1)],
                         dtype=object)
        # offsets from lo wrap in a signed type; as unsigned they are exact
        return texts[(values - lo).view(f"u{values.itemsize}")].tolist()
    if kind != "f" or not np.isfinite(values).all():
        return list(map(_csv_cell, values))
    # runs compare by bits, so that -0.0 and 0.0 stay apart
    bits = values.view(f"i{values.itemsize}")
    heads = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = ("%.17g\n" * heads.size % tuple(values[heads].tolist())).split()
    if heads.size == values.size:
        return texts
    return np.repeat(np.array(texts, dtype=object),
                     np.diff(heads, append=values.size)).tolist()


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(dumps_canonical(resolved).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# config schema


@dataclass
class ExperimentConfig:
    """Parsed and fully resolved experiment description."""

    experiment: str
    topology_kind: str
    topology_params: dict
    bands: int
    eta: float | None
    p0: float | None
    initial_assignment: str
    scheduler_kind: str
    delta_t: float
    horizon: float | None
    warmup: float | None
    replicas: int
    base_seed: int
    rho: float
    signal_power: float | None
    noise_power: float | None
    sweep_sizes: list | None
    rates: list | None
    out_dir: str
    prefix: str
    write_trace: bool
    write_capacity_series: bool
    resolved: dict = field(repr=False, default_factory=dict)
    warnings: list = field(repr=False, default_factory=list)


class _Ctx:
    def __init__(self):
        self.errors: list[str] = []
        self.warnings: list[str] = []

    def err(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}")

    def warn(self, path: str, msg: str):
        self.warnings.append(f"{path}: {msg}")


def _expect_keys(ctx: _Ctx, sec: dict, path: str, allowed: set[str]):
    for k in sec:
        if k not in allowed:
            ctx.err(f"{path}.{k}", "unknown key")


def _get_num(ctx: _Ctx, sec: dict, path: str, key: str, *, required=False,
             default=None, integer=False, minimum=None, strict_min=None):
    if key not in sec or sec[key] is None:
        if required:
            ctx.err(f"{path}.{key}", "required")
            return None
        return default
    v = sec[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        ctx.err(f"{path}.{key}", f"expected a number, got {v!r}")
        return None
    if isinstance(v, float) and not math.isfinite(v):
        ctx.err(f"{path}.{key}", f"expected a finite number, got {v!r}")
        return None
    if integer and not isinstance(v, int):
        ctx.err(f"{path}.{key}", f"expected an integer, got {v!r}")
        return None
    if not integer and isinstance(v, int) and abs(v) > sys.float_info.max:
        ctx.err(f"{path}.{key}", "expected a number within the float range")
        return None
    if minimum is not None and v < minimum:
        ctx.err(f"{path}.{key}", f"must be >= {minimum}, got {v}")
        return None
    if strict_min is not None and v <= strict_min:
        ctx.err(f"{path}.{key}", f"must be > {strict_min}, got {v}")
        return None
    return int(v) if integer else float(v)


def _get_choice(ctx: _Ctx, sec: dict, path: str, key: str, choices,
                default=None, required=False):
    if key not in sec or sec[key] is None:
        if required:
            ctx.err(f"{path}.{key}", "required")
        return default
    v = sec[key]
    if v not in choices:
        ctx.err(f"{path}.{key}", f"must be one of {sorted(choices)}, got {v!r}")
        return default
    return v


def _get_bool(ctx: _Ctx, sec: dict, path: str, key: str, default: bool) -> bool:
    if key not in sec or sec[key] is None:
        return default
    v = sec[key]
    if not isinstance(v, bool):
        ctx.err(f"{path}.{key}", f"expected true/false, got {v!r}")
        return default
    return v


def _unaccepted(experiment: str, doc: dict):
    """(path, section, key) of each _ACCEPTED_BY setting that `experiment`
    does not accept; section is the object of doc that holds the key, or
    {} where doc has none."""
    for path, accepted_by in _ACCEPTED_BY.items():
        if experiment not in accepted_by:
            section, _, key = path.rpartition(".")
            sec = doc.get(section) if section else doc
            yield path, sec if isinstance(sec, dict) else {}, key


def _section(ctx: _Ctx, doc: dict, key: str, allowed: set[str]) -> dict:
    """Optional object `key` of doc, its keys checked and its null values
    dropped, as every setting reads null as absent; {} if absent or null."""
    sec = doc.get(key)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        ctx.err(key, "expected an object")
        return {}
    _expect_keys(ctx, sec, key, allowed)
    return {k: v for k, v in sec.items() if v is not None}


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document and resolve all defaults.

    Raises ConfigError listing every problem; non-fatal findings are kept on
    the returned config's .warnings.
    """
    ctx = _Ctx()
    if not isinstance(doc, dict):
        raise ConfigError(["config: must be a JSON object"])

    _expect_keys(ctx, doc, "config", {
        "experiment", "topology", "bands", "eta", "p0", "initial_assignment",
        "scheduler", "horizon", "warmup", "replicas", "base_seed",
        "rho", "link", "sweep", "rates", "output"})

    experiment = _get_choice(ctx, doc, "config", "experiment", EXPERIMENTS,
                             required=True)

    # topology ---------------------------------------------------------
    topo = doc.get("topology")
    kind = None
    topo_params: dict = {}
    if not isinstance(topo, dict):
        ctx.err("topology", "required object")
    else:
        kind = _get_choice(ctx, topo, "topology", "kind", TOPOLOGY_KINDS,
                           required=True)
        sweeping = experiment == "sweep"
        keys = _TOPOLOGY_KEYS.get(kind, ())
        if kind is not None:
            _expect_keys(ctx, topo, "topology", {"kind", *keys})
        for key in keys:
            if key == "path":
                path = topo_params[key] = topo.get(key)
                if not isinstance(path, str) or not path:
                    ctx.err("topology.path", "required string")
            elif key in _SIZE_MIN:
                topo_params[key] = _get_num(
                    ctx, topo, "topology", key, integer=True,
                    minimum=_SIZE_MIN[key], required=not sweeping)
            else:
                topo_params[key] = _get_num(ctx, topo, "topology", key,
                                            required=True, strict_min=0.0)
        p = topo_params
        sizes = [k for k in keys if k in _SIZE_MIN]
        if sweeping and any(p[k] is not None for k in sizes):
            ctx.err(f"topology.{sizes[0]}", "fixed size not allowed in a sweep")
        if kind == "random_linear" and None not in (p["d"], p["min_sep"]) \
                and p["min_sep"] > p["d"]:
            ctx.err("topology.min_sep",
                    f"must be <= d ({p['d']}), got {p['min_sep']}")
        if "rows" in p and not sweeping and None not in (p["rows"], p["cols"]) \
                and p["rows"] * p["cols"] < 2:
            ctx.err("topology.rows", "lattice needs at least 2 clusters")
        if kind == "file" and sweeping:
            ctx.err("topology.kind", "'file' cannot drive a sweep")

    # model parameters -------------------------------------------------
    if kind == "file":
        for key in ("eta", "p0"):
            if doc.get(key) is not None:
                ctx.err(key, "comes from the topology file; remove it")
        eta = p0 = None
    else:
        eta = _get_num(ctx, doc, "config", "eta", default=2.0, minimum=1.0)
        p0 = _get_num(ctx, doc, "config", "p0", default=1.0, strict_min=0.0)

    bands = _get_num(ctx, doc, "config", "bands", required=True, integer=True,
                     minimum=1)
    initial = _get_choice(ctx, doc, "config", "initial_assignment",
                          INITIAL_MODES, default="all_band_one")

    sched = doc.get("scheduler")
    if not isinstance(sched, dict):
        ctx.err("scheduler", "required object")
        scheduler_kind, delta_t = None, None
    else:
        _expect_keys(ctx, sched, "scheduler", {"kind", "delta_t"})
        scheduler_kind = _get_choice(ctx, sched, "scheduler", "kind",
                                     SCHEDULER_KINDS, required=True)
        delta_t = _get_num(ctx, sched, "scheduler", "delta_t", required=True,
                           strict_min=0.0)

    replicas = _get_num(ctx, doc, "config", "replicas", default=1,
                        integer=True, minimum=1)
    base_seed = _get_num(ctx, doc, "config", "base_seed", required=True,
                         integer=True, minimum=0)
    rho = _get_num(ctx, doc, "config", "rho", default=DEFAULT_RHO,
                   strict_min=0.0)

    link = _section(ctx, doc, "link", {"signal_power", "noise_power"})
    signal_power = _get_num(ctx, link, "link", "signal_power", strict_min=0.0)
    noise_power = _get_num(ctx, link, "link", "noise_power", strict_min=0.0)

    # per-experiment sections -------------------------------------------
    if experiment is not None:
        for path, sec, key in _unaccepted(experiment, doc):
            if sec.get(key) is not None:
                ctx.err(path, f"not allowed for experiment '{experiment}'")
    horizon = None
    warmup = None
    sweep_sizes = None
    rates = None
    if experiment == "sweep":
        sweep = doc.get("sweep")
        if not isinstance(sweep, dict):
            ctx.err("sweep", "required object with a 'sizes' list")
        else:
            _expect_keys(ctx, sweep, "sweep", {"sizes"})
            sweep_sizes = _parse_sizes(ctx, sweep.get("sizes"), kind)
    if experiment in ("relaxation", "variance"):
        horizon = _get_num(ctx, doc, "config", "horizon", required=True,
                           strict_min=0.0)
        if scheduler_kind == "permutation":
            ctx.err("scheduler.kind", "dynamics experiments need 'poisson'")
    if experiment == "relaxation" and bands == 1:
        # with one band the worst case is the converged state: no decay
        ctx.err("bands", "a relaxation run needs at least 2 bands")
    if experiment == "variance":
        warmup = _get_num(ctx, doc, "config", "warmup", minimum=0.0)
        raw_rates = doc.get("rates")
        if not isinstance(raw_rates, list) or not raw_rates:
            ctx.err("rates", "required non-empty list of switching rates")
        else:
            rates = []
            for pos, v in enumerate(raw_rates):
                if isinstance(v, bool) or not isinstance(v, (int, float)) \
                        or not (0.0 <= v <= 1.0):
                    ctx.err(f"rates[{pos}]", f"must be a number in [0, 1], got {v!r}")
                else:
                    rates.append(float(v))
        if replicas is not None and replicas < 2:
            ctx.err("replicas", "variance estimation needs >= 2 replicas")

    out = _section(ctx, doc, "output",
                   {"dir", "prefix", "write_trace", "write_capacity_series"})
    out_dir = out.get("dir", "results")
    if not isinstance(out_dir, str) or not out_dir:
        ctx.err("output.dir", "expected a non-empty string")
        out_dir = "results"
    elif "\0" in out_dir:
        ctx.err("output.dir", "must be a path without NUL")
    prefix = out.get("prefix", experiment or "run")
    if not isinstance(prefix, str) or not prefix:
        ctx.err("output.prefix", "expected a non-empty string")
        prefix = "run"
    elif any(c in prefix for c in "/\\\0"):
        ctx.err("output.prefix",
                "must be a file name, without '/', '\\' or NUL")
    write_trace = _get_bool(ctx, out, "output", "write_trace",
                            experiment == "converge")
    write_capacity = _get_bool(ctx, out, "output", "write_capacity_series",
                               False)

    if ctx.errors:
        raise ConfigError(ctx.errors)

    # advisory findings -------------------------------------------------
    if experiment == "variance":
        for q in rates:
            if stability_margin(1.0 - q, rho) >= 1.0:
                ctx.warn("rates", f"switching rate {q}: stability margin "
                         f"{stability_margin(1.0 - q, rho):.4g} >= 1, "
                         "predicted variance divergent")
            elif q > NEAR_EQUILIBRIUM_RATE:
                ctx.warn("rates", f"switching rate {q} > "
                         f"{NEAR_EQUILIBRIUM_RATE} strains the "
                         "near-equilibrium assumption")

    resolved = {
        "experiment": experiment,
        "topology": {"kind": kind, **topo_params},
        "bands": bands,
        "eta": eta,
        "p0": p0,
        "initial_assignment": initial,
        "scheduler": {"kind": scheduler_kind, "delta_t": delta_t},
        "horizon": horizon,
        "warmup": warmup,
        "replicas": replicas,
        "base_seed": base_seed,
        "rho": rho,
        "link": {"signal_power": signal_power, "noise_power": noise_power},
        "sweep": {"sizes": sweep_sizes},
        "rates": rates,
        "output": {"dir": out_dir, "prefix": prefix,
                   "write_trace": write_trace,
                   "write_capacity_series": write_capacity},
    }
    for _, sec, key in _unaccepted(experiment, resolved):
        sec[key] = None
    return ExperimentConfig(
        experiment=experiment, topology_kind=kind, topology_params=topo_params,
        bands=bands, eta=eta, p0=p0, initial_assignment=initial,
        scheduler_kind=scheduler_kind, delta_t=delta_t, horizon=horizon,
        warmup=warmup, replicas=replicas,
        base_seed=base_seed, rho=rho, signal_power=signal_power,
        noise_power=noise_power, sweep_sizes=sweep_sizes, rates=rates,
        out_dir=out_dir, prefix=prefix, write_trace=write_trace,
        write_capacity_series=write_capacity, resolved=resolved,
        warnings=ctx.warnings)


def _is_int(v, minimum: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= minimum


def _parse_sizes(ctx: _Ctx, sizes, kind) -> list | None:
    if not isinstance(sizes, list) or not sizes:
        ctx.err("sweep.sizes", "required non-empty list")
        return None
    out = []
    lattice = kind in ("rect", "hex")
    for pos, v in enumerate(sizes):
        if lattice:
            if (not isinstance(v, list) or len(v) != 2
                    or not all(_is_int(x, 1) for x in v)
                    or v[0] * v[1] < 2):
                ctx.err(f"sweep.sizes[{pos}]",
                        f"expected [rows, cols] with rows*cols >= 2, got {v!r}")
            else:
                out.append([int(v[0]), int(v[1])])
        else:
            if not _is_int(v, 2):
                ctx.err(f"sweep.sizes[{pos}]",
                        f"expected an integer >= 2, got {v!r}")
            else:
                out.append(int(v))
    return out if out else None


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON at line {exc.lineno} "
                           f"column {exc.colno}: {exc.msg}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config: not UTF-8 ({exc.reason})"]) from exc
    except ValueError as exc:
        # an integer literal past Python's int-to-string digit limit
        raise ConfigError([f"config: invalid JSON: "
                           f"{str(exc).split(';')[0]}"]) from exc
    return parse_config(doc)


def validate_config(path) -> dict:
    """Structural + semantic validation without running; returns a report."""
    try:
        cfg = load_config(path)
        # only building a topology shows that a random placement fits and
        # that the path-loss weights stay in the float range
        for size in cfg.sweep_sizes or [None]:
            top, _ = _build_topology(cfg, size)
        n_hint = None if cfg.sweep_sizes else top.n
        tau = time_scale(n_hint, cfg.delta_t) if n_hint is not None else None
        warmup = (_variance_warmup(cfg, tau)
                  if tau is not None and cfg.experiment == "variance"
                  else None)
    except ConfigError as exc:
        return {"valid": False, "errors": exc.errors, "warnings": [],
                "derived": None}
    derived: dict = {"warmup_default": warmup, "points": []}
    if tau is not None:
        derived["n"] = n_hint
        derived["tau"] = tau
    if tau is not None and cfg.experiment in _ACCEPTED_BY["rho"]:
        # one churn operating point per switching rate; a relaxation run
        # has the single point without churn, alpha = 1
        for a in [1.0 - q for q in cfg.rates] if cfg.rates else [1.0]:
            derived["points"].append({
                "alpha": a,
                "lambda": lambda_from_alpha(a, n_hint, tau),
                "stability_margin": stability_margin(a, cfg.rho),
            })
    return {"valid": True, "errors": [], "warnings": cfg.warnings,
            "derived": derived}


# ---------------------------------------------------------------------------
# presets


def preset(name: str) -> dict:
    """Built-in experiment configs, one per standard output series.

    Each preset writes under its own name, seeds at 20260815 plus its
    place in PRESET_NAMES and holds only the settings its experiment reads.
    """
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    experiment = {"fig2": "converge", "fig3": "sweep", "fig4": "sweep",
                  "fig5": "relaxation", "fig6": "variance"}[name[:4]]
    doc = {
        "experiment": experiment,
        "bands": 2,
        "eta": 2.0,
        "p0": 1.0,
        "initial_assignment": "all_band_one",
        "scheduler": {"kind": "poisson", "delta_t": 0.01},
        "replicas": 5,
        "base_seed": 20260815 + PRESET_NAMES.index(name),
        "rho": DEFAULT_RHO,
        "link": {"signal_power": 1.0, "noise_power": 0.1},
        "output": {"dir": "results", "prefix": name},
    }
    kind = {"fig2b": "rect", "fig4a": "rect",
            "fig2c": "hex", "fig4b": "hex"}.get(name, "ula")
    doc["topology"] = {"kind": kind}
    if experiment != "sweep":  # a sweep supplies the sizes
        doc["topology"].update({"n": 100} if kind == "ula"
                               else {"rows": 10, "cols": 10})
    doc["topology"]["d"] = 1.0
    if kind != "ula":
        doc["bands"] = 4
    if experiment == "converge":
        doc["output"].update(write_trace=True, write_capacity_series=True)
    elif experiment == "sweep":
        doc["scheduler"] = {"kind": "permutation", "delta_t": 0.01}
        doc["replicas"] = 20
        doc["sweep"] = {"sizes": [10, 20, 40, 60, 80, 100] if name == "fig3"
                        else [[k, k] for k in range(4, 11)]}
    elif experiment == "relaxation":
        doc["horizon"] = 8.0
        doc["replicas"] = 500
    else:
        doc["horizon"] = 1.0
        doc["warmup"] = 0.2
        doc["replicas"] = 200
        doc["rates"] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.375]
    for _, sec, key in _unaccepted(experiment, doc):
        sec.pop(key, None)
    return doc


PRESET_NAMES = ("fig2a", "fig2b", "fig2c", "fig3", "fig4a", "fig4b",
                "fig5", "fig6")


# ---------------------------------------------------------------------------
# runners


@dataclass
class RunResult:
    out_dir: Path
    files: list[Path]
    summary: dict


def _build_topology(cfg: ExperimentConfig, size=None) -> tuple[Topology, tuple | None]:
    """Topology plus (kind, rows, cols) when a lattice (for the reuse
    reference); a geometry that cannot be built, or that the host's memory
    cannot hold, is a ConfigError on topology, a file that holds no valid
    topology one on topology.path.  A relaxation run on fewer than 2
    clusters has no decay to fit: a ConfigError on topology.  Then checks
    the run's scales on it (_check_scales)."""
    p = cfg.topology_params
    kind = cfg.topology_kind
    lattice = None
    try:
        if kind == "file":
            top = load_topology(p["path"])
        elif kind == "ula":
            n = size if size is not None else p["n"]
            top = make_uniform_linear_array(n, p["d"], cfg.p0, cfg.eta)
        elif kind == "random_linear":
            n = size if size is not None else p["n"]
            # a stream of its own: replica seeds start at base_seed itself
            rng = np.random.default_rng(
                np.random.SeedSequence((cfg.base_seed, 2)))
            top = make_random_linear_array(n, p["d"], p["min_sep"], rng,
                                           cfg.p0, cfg.eta)
        elif kind in ("rect", "hex"):
            rows, cols = size if size is not None else (p["rows"], p["cols"])
            maker = make_rectangular_lattice if kind == "rect" \
                else make_hexagonal_lattice
            top = maker(rows, cols, p["d"], cfg.p0, cfg.eta)
            lattice = (kind, rows, cols)
        else:
            raise ValueError(f"unhandled topology kind {kind}")
    except TopologyError as exc:
        where = "topology.path" if kind == "file" else "topology"
        raise ConfigError([f"{where}: {exc}"]) from exc
    except MemoryError as exc:
        raise ConfigError([f"topology: does not fit in memory: {exc}"]) \
            from exc
    if cfg.experiment == "relaxation" and top.n < 2:
        raise ConfigError([f"topology: a relaxation run needs at least 2 "
                           f"clusters, got {top.n}"])
    _check_scales(cfg, top.n)
    return top, lattice


def _check_scales(cfg: ExperimentConfig, n: int) -> None:
    """Raise ConfigError unless a run on n clusters stays within numpy's
    array size and the float range.  A replica's cache holds a 2N x bands
    float64 table, bounded as topology bounds its N x N matrices.  A run to
    convergence takes about 2*N events at the fewest, 2*N quiet Poisson
    events or a first round and a quiet one, so its event times reach about
    2*tau (tau = N*delta_t); a dynamics run needs tau, its expected event
    count horizon/delta_t, and at each switching rate lambda and the
    stability margin."""
    errors = []
    if 2 * n * cfg.bands * 8 > np.iinfo(np.intp).max:
        errors.append("bands: too many bands: a 2N x bands float64 table "
                      "exceeds the largest array numpy can hold")
    tau = time_scale(n, cfg.delta_t)
    if cfg.horizon is None:
        scales = {"2*N*delta_t (the span of 2*N events, about the fewest a "
                  "run to convergence takes)": 2.0 * tau}
    else:
        scales = {"tau = N*delta_t": tau,
                  "horizon/delta_t (the expected event count)":
                  cfg.horizon / cfg.delta_t}
    for q in cfg.rates or ():
        scales[f"lambda at switching rate {q}"] = \
            lambda_from_alpha(1.0 - q, n, tau)
    errors += [f"scheduler.delta_t: {what} lies beyond the float range"
               for what, value in scales.items() if not math.isfinite(value)]
    errors += [f"rho: the stability margin at switching rate {q} lies "
               "beyond the float range" for q in cfg.rates or ()
               if not math.isfinite(stability_margin(1.0 - q, cfg.rho))]
    if errors:
        raise ConfigError(errors)


def _start_cache(top: Topology, asg: Assignment,
                 rng: np.random.Generator | None = None) -> InterferenceCache:
    """InterferenceCache(top, asg, rng=rng); a cache that the host's memory
    cannot hold is a ConfigError on bands."""
    try:
        return InterferenceCache(top, asg, rng=rng)
    except MemoryError as exc:
        raise ConfigError([f"bands: the interference cache does not fit "
                           f"in memory: {exc}"]) from exc


def _reference(cfg: ExperimentConfig, size=None) -> tuple[Reference, tuple]:
    """Build the topology (at `size` in a sweep) and its Reference, plus its
    link levels: the powers s, n0 and the reference assignment's capacity
    (None without one)."""
    top, lattice = _build_topology(cfg, size)
    ref = reference(top, None, cfg.bands, cfg.topology_params.get("d"),
                    lattice=lattice)
    s, n0 = link_powers(top, cfg.signal_power, cfg.noise_power)
    if ref.asg is None:
        return ref, (s, n0, None)
    return ref, (s, n0, shannon_capacity(top, ref.asg, None, s, n0)[1])


def _score(ref: Reference, link: tuple, final: Assignment):
    """Bound report of one converged assignment, plus its capacity and dB
    gap against the reference ({} without a reference)."""
    brep = bound_report(ref, final)
    if ref.asg is None:
        return brep, {}
    s, n0, ref_capacity = link
    _, cap_norm = shannon_capacity(ref.top, final, None, s, n0)
    return brep, {
        "capacity_fraction": capacity_fraction(cap_norm, ref_capacity),
        "capacity_normalized": cap_norm,
        "db_gap_vs_reference": (db_gap(brep.i_a, ref.aggregate)
                                if brep.i_a > 0 and ref.aggregate > 0
                                else None),
    }


def _converge_one(cfg: ExperimentConfig, top: Topology,
                  seed: int | tuple[int, int], levels: list | None = None):
    """One static run to convergence from the config's initial assignment,
    drawn, like the scheduler's clock, from SeedSequence(seed); returns
    (records, converged cache, a0).  When levels is a list it gets
    the own-band interference row of the initial state and of the state
    after each switch.  Event times beyond the float range are a
    ConfigError on scheduler.delta_t, with no numpy overflow warning."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if cfg.initial_assignment == "uniform_random":
        initial = uniform_random_assignment(top.n, cfg.bands, rng)
    else:
        initial = all_band_one(top.n, cfg.bands)
    cache = _start_cache(top, initial, rng)
    a0 = cache.aggregate()
    if levels is not None:
        levels.append(cache.own_band_interference())
    scheduler = (PoissonClock(cfg.delta_t) if cfg.scheduler_kind == "poisson"
                 else RandomPermutationRounds(cfg.delta_t))
    with np.errstate(over="ignore"):
        cache, records = run_to_convergence(cache, scheduler, levels=levels)
    if records and not math.isfinite(records[-1].time):
        raise ConfigError([f"scheduler.delta_t: the event times of seed "
                           f"{seed} run beyond the float range"])
    return records, cache, a0


def _capacity_series(levels: list, tr: SimTrace, s: float,
                     n0: float) -> np.ndarray:
    """Mean link capacity after each row of the trace `tr`, from levels,
    the own-band interference rows the run recorded: its initial state's,
    then one after each switch (see _converge_one).  The capacity of all
    those states is computed in one batch."""
    # every cluster is active, so the mean runs over all of them
    caps = link_capacity(np.array(levels), s, n0).mean(axis=1)
    # per row, the index in levels of the state after it
    return caps[np.cumsum(tr.new_bands != tr.old_bands)]


def _run_converge(cfg: ExperimentConfig) -> tuple[dict, list]:
    ref, link = _reference(cfg)
    top, (s, n0, ref_capacity) = ref.top, link
    traces = []
    caps = []
    detail = []
    reports = []
    for k in range(cfg.replicas):
        seed = cfg.base_seed + k
        levels = [] if cfg.write_capacity_series else None
        records, cache, a0 = _converge_one(cfg, top, seed, levels)
        tr = replica_trace(records, a0, [top.n] * (len(records) + 1), top.n,
                           cfg.delta_t, seed=seed)
        traces.append(tr)
        if levels is not None:
            caps.append(_capacity_series(levels, tr, s, n0))
        brep, scores = _score(ref, link, cache.assignment())
        reports.append(brep)
        detail.append({
            "replica": k,
            "seed": seed,
            "updates": tr.events,
            "switches": int(np.count_nonzero(tr.new_bands != tr.old_bands)),
            "final_aggregate": brep.i_a,
            "final_normalized": brep.i_a / top.n,
            "ratio_aw": brep.ratio_aw,
            **scores,
        })

    finals = [d["final_aggregate"] for d in detail]
    updates = [d["updates"] for d in detail]
    summary = _summary(
        cfg, top,
        p0=top.p0,
        i_w=ref.i_w,
        i_w_over_r=ref.i_w / cfg.bands,
        reference=(None if ref.asg is None else
                   {"kind": ref.kind, "aggregate": ref.aggregate,
                    "normalized_aggregate": ref.aggregate / top.n,
                    "normalized_capacity": ref_capacity}),
        final_aggregate={"mean": float(np.mean(finals)),
                         "min": float(np.min(finals)),
                         "max": float(np.max(finals))},
        update_counts={"max": int(np.max(updates)),
                       "le_50n": bool(np.max(updates) <= 50 * top.n)},
        bounds={**_bounds(reports, cfg), **_reference_bounds(ref),
                "limit_per_cluster": ref.limit},
        link={"signal_power": s, "noise_power": n0},
        replicas_detail=detail,
    )
    columns = _trace_columns(traces, cfg.base_seed)
    return summary, [
        ("trace.csv", TRACE_HEADER, columns if cfg.write_trace else None),
        ("capacity.csv",
         ["replica", "event_index", "time", "normalized_capacity"],
         [*columns[:3], np.concatenate(caps)]
         if cfg.write_capacity_series else None)]


def _summary(cfg: ExperimentConfig, top: Topology | None, **fields) -> dict:
    """Summary head every experiment shares (n and eta from `top` when it
    is given), then `fields`."""
    head = {"experiment": cfg.experiment, "version": __version__,
            "config_hash": config_hash(cfg.resolved), "bands": cfg.bands,
            "replicas": cfg.replicas}
    if top is not None:
        head.update(n=top.n, eta=top.eta)
    return {**head, **fields}


def _bounds(reports, cfg: ExperimentConfig) -> dict:
    """The bound checks of a run's reports, in replica order (a sweep's size
    by size); raises BoundViolationError at the first replica over i_w/r,
    numbered within its sweep size."""
    for k, r in enumerate(reports):
        if not r.upper_bound_ok:
            k %= cfg.replicas
            record = {"failure": "upper_bound_violation", "replica": k,
                      "i_a": r.i_a, "i_w_over_r": r.ref.i_w / r.ref.r,
                      "config_hash": config_hash(cfg.resolved)}
            raise BoundViolationError(
                f"replica {k}: converged aggregate {r.i_a} exceeds "
                f"i_w/r = {r.ref.i_w / r.ref.r}", record)
    return {
        "upper_ok_all": True,
        "max_ratio_aw": max(r.ratio_aw for r in reports),
        "ratio_cap_ok_all": all(r.ratio_cap_ok for r in reports
                                if r.ratio_cap_ok is not None),
    }


def _reference_bounds(ref: Reference) -> dict:
    """The bounds one topology's replicas are scored against."""
    return {
        "i_o_kind": ref.i_o_kind,
        "analytic_ratio_cap": ref.ratio_cap,
        "gap_convention": ref.gap_convention,
    }


def _run_sweep(cfg: ExperimentConfig) -> tuple[dict, list]:
    per_size = []
    reports = []
    for si, size in enumerate(cfg.sweep_sizes):
        ref, link = _reference(cfg, size)
        n = ref.top.n
        finals = []
        fractions = []
        gaps = []
        for k in range(cfg.replicas):
            seed = cfg.base_seed + si * cfg.replicas + k
            _, cache, _ = _converge_one(cfg, ref.top, seed)
            brep, scores = _score(ref, link, cache.assignment())
            reports.append(brep)
            finals.append(brep.i_a)
            if scores:
                fractions.append(scores["capacity_fraction"])
                if scores["db_gap_vs_reference"] is not None:
                    gaps.append(scores["db_gap_vs_reference"])
        rows, cols = size if isinstance(size, list) else (None, None)
        per_size.append({
            "n": n,
            "rows": rows,
            "cols": cols,
            "i_w_norm": ref.i_w / n,
            "upper_norm": ref.i_w / cfg.bands / n,
            "ia_mean_norm": float(np.mean(finals)) / n,
            "ia_min_norm": float(np.min(finals)) / n,
            "ia_max_norm": float(np.max(finals)) / n,
            "ref_norm": (ref.aggregate / n if ref.aggregate is not None
                         else None),
            "limit_norm": ref.limit,
            "db_gap_mean": float(np.mean(gaps)) if gaps else None,
            "capacity_fraction_mean": (float(np.mean(fractions))
                                       if fractions else None),
            "reference_kind": ref.kind,
            **_reference_bounds(ref),
            "finals": finals,
        })
    summary = _summary(
        cfg, None,
        eta=cfg.eta,
        p0=cfg.p0,
        bounds=_bounds(reports, cfg),
        sizes=per_size,
    )
    header = ["n", "rows", "cols", "i_w_norm", "upper_norm", "ia_mean_norm",
              "ia_min_norm", "ia_max_norm", "ref_norm", "limit_norm",
              "db_gap_mean", "capacity_fraction_mean", "reference_kind"]
    return summary, [
        ("sweep.csv", header, [[row[h] for row in per_size] for h in header])]


def _trace_columns(traces: list[SimTrace], base_seed: int) -> list:
    """trace.csv columns of the replicas' traces in order; a replica's
    number is its seed less base_seed."""
    sizes = [tr.times.size for tr in traces]
    return [np.repeat([tr.seed - base_seed for tr in traces], sizes),
            np.concatenate([np.arange(size) for size in sizes]),
            *(np.concatenate([getattr(tr, name) for tr in traces])
              for name in ("times", "clusters", "old_bands", "new_bands",
                           "aggregates", "active_counts"))]


def _run_relaxation(cfg: ExperimentConfig) -> tuple[dict, list]:
    top, _ = _build_topology(cfg)
    dyn = DynamicsConfig(delta_t=cfg.delta_t, horizon=cfg.horizon,
                         replicas=cfg.replicas)
    start = _start_cache(top, all_band_one(top.n, cfg.bands))
    traces = run_ensemble(top, dyn, cfg.base_seed, start)
    i_w = worst_case_interference(top)
    i_a = float(np.mean([tr.aggregates[-1] for tr in traces]))
    grid = np.arange(0.0, cfg.horizon, cfg.delta_t)
    tau = time_scale(top.n, cfg.delta_t)
    mean = ensemble_mean_trace(traces, grid)
    rho_hat = fit_exponential_decay(grid, mean, i_a, i_w, tau)
    bracket = (mean - i_a) / (i_w - i_a)
    model = np.exp(-cfg.rho * grid / tau)
    summary = _summary(
        cfg, top,
        tau=tau,
        rho_assumed=cfg.rho,
        rho_fitted=rho_hat,
        i_w=i_w,
        i_a_mean_final=i_a,
        i_a_normalized=i_a / top.n,
        fit_floor=FIT_FLOOR,
    )
    return summary, [
        ("trace.csv", TRACE_HEADER,
         _trace_columns(traces, cfg.base_seed) if cfg.write_trace else None),
        ("decay.csv", ["time", "mean_aggregate", "mean_normalized",
                       "bracket", "model_bracket"],
         [grid, mean, mean / top.n, bracket, model])]


def _variance_warmup(cfg: ExperimentConfig, tau: float) -> float:
    """Warmup of a variance run, the config's or else 0.6*tau/rho; raises
    ConfigError unless it lies below the horizon."""
    # near-equilibrium window: past the relaxation time, before the activity
    # chain wanders far from the all-active start the prediction assumes
    warmup = cfg.warmup if cfg.warmup is not None else 0.6 * tau / cfg.rho
    if not (warmup < cfg.horizon):
        raise ConfigError([f"warmup: effective value {warmup} must be below "
                           f"horizon {cfg.horizon}"])
    return warmup


def _run_variance(cfg: ExperimentConfig) -> tuple[dict, list]:
    top, _ = _build_topology(cfg)
    tau = time_scale(top.n, cfg.delta_t)
    warmup = _variance_warmup(cfg, tau)
    # parse_config holds a variance run to the Poisson clock
    _, init_cache, _ = _converge_one(cfg, top, (cfg.base_seed, 1))
    # every rate's replicas copy this one start
    start = _start_cache(top, init_cache.assignment())
    points = []
    kept = []
    for qi, q in enumerate(cfg.rates):
        alpha = 1.0 - q
        dyn = DynamicsConfig(delta_t=cfg.delta_t, horizon=cfg.horizon,
                             alpha=alpha, replicas=cfg.replicas)
        seed = cfg.base_seed + qi * cfg.replicas
        traces = run_ensemble(top, dyn, seed, start)
        if cfg.write_trace:
            kept.extend(traces)
        stats = steady_state_stats(traces, warmup)
        lam = lambda_from_alpha(alpha, top.n, tau)
        pred = predicted_variance(stats.mean, alpha, cfg.rho)
        ratio = (stats.variance / pred.sigma_ss_sq
                 if (not pred.divergent and pred.sigma_ss_sq > 0) else None)
        points.append({
            "one_minus_alpha": q,
            "alpha": alpha,
            "lambda": lam,
            "margin": pred.margin,
            "divergent": pred.divergent,
            "sigma_sq_predicted": (None if pred.divergent
                                   else pred.sigma_ss_sq),
            "sigma_sq_empirical": stats.variance,
            "ratio_emp_over_pred": ratio,
            "mean_level": stats.mean,
            "within": stats.within,
            "base_seed": seed,
        })
    summary = _summary(
        cfg, top,
        tau=tau,
        rho=cfg.rho,
        warmup=warmup,
        horizon=cfg.horizon,
        initial_aggregate=init_cache.aggregate(),
        estimator=_VARIANCE_ESTIMATOR_NOTE,
        normalization="aggregate divided by n before statistics; the "
                      "prediction is evaluated at the empirical mean "
                      "level, so both sides share the 1/n^2 scale",
        points=points,
    )
    # a point's divergent flag, a bool, writes as 1 or 0
    header = ["one_minus_alpha", "alpha", "lambda", "margin", "divergent",
              "sigma_sq_predicted", "sigma_sq_empirical",
              "ratio_emp_over_pred", "mean_level", "within"]
    return summary, [
        ("trace.csv", TRACE_HEADER,
         _trace_columns(kept, cfg.base_seed) if cfg.write_trace else None),
        ("variance.csv", header, [[pt[h] for pt in points] for h in header])]


TRACE_HEADER = ["replica", "event_index", "time", "cluster", "old_band",
                "new_band", "aggregate_interference", "active_count"]


def _emit(cfg: ExperimentConfig, out_dir: Path, summary: dict,
          tables: list) -> list[Path]:
    """Write <prefix>_config.json, <prefix>_summary.json and one CSV per
    (suffix, header, columns) table whose columns are not None, the CSVs
    in one _write_csv call, so that columns the tables share are formatted
    once; returns the paths in that order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = [t for t in tables if t[2] is not None]
    files = [out_dir / f"{cfg.prefix}_{suffix}" for suffix in
             ("config.json", "summary.json", *(t[0] for t in tables))]
    _write_json(files[0], cfg.resolved)
    _write_json(files[1], summary)
    _write_csv([(path, header, columns)
                for path, (_, header, columns) in zip(files[2:], tables)])
    return files


def resolve_out_dir(cfg: ExperimentConfig, override: str | None = None) -> Path:
    """--out flag beats the environment override beats the config value."""
    if override:
        return Path(override)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(cfg.out_dir)


# each runner returns a run's summary and its tables for _emit
_RUNNERS = {"converge": _run_converge, "sweep": _run_sweep,
            "relaxation": _run_relaxation, "variance": _run_variance}


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunResult:
    """Execute a parsed config and write its result files."""
    target = resolve_out_dir(cfg, out_dir)
    summary, tables = _RUNNERS[cfg.experiment](cfg)
    # _emit is looked up at call time, so that a tracer can rebind it
    return RunResult(target, _emit(cfg, target, summary, tables), summary)
