"""Batch experiments: config parsing, presets, runners, and file output.

A single JSON config document drives one of four experiment kinds:

  converge    static-activity runs to convergence, per-event trace
  sweep       converge across a list of network sizes, one CSV row per size
  relaxation  alpha=1 ensemble, ensemble-mean decay and rate fit
  variance    steady-state variance vs switching rate, prediction vs data

Every run writes a canonical config echo and a summary JSON embedding the
config hash and package version; identical configs produce byte-identical
files (sorted keys, floats at 17 significant digits, LF endings).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import (PoissonClock, RandomPermutationRounds, SimState,
                         run_to_convergence)
from .dynamics import (DynamicsConfig, default_warmup, ensemble_mean_trace,
                       fit_exponential_decay, lambda_from_alpha,
                       predicted_variance, run_ensemble, stability_margin,
                       steady_state_stats)
from .interference import (Assignment, InterferenceCache,
                           aggregate_interference, all_active, all_band_one,
                           uniform_random_assignment,
                           worst_case_interference)
from .metrics import capacity_comparison, db_gap, shannon_capacity
from .oracle import alternating_assignment, bound_report, \
    lattice_reuse_assignment
from .topology import (Topology, load_topology, make_hexagonal_lattice,
                       make_random_linear_array, make_rectangular_lattice,
                       make_uniform_linear_array)

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
    "dumps_canonical",
]

OUTPUT_DIR_ENV = "BANDSIM_OUTPUT_DIR"

EXPERIMENTS = ("converge", "sweep", "relaxation", "variance")
TOPOLOGY_KINDS = ("ula", "random_linear", "rect", "hex", "file")
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


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_canonical(v, indent + 2) for v in obj]
        if not items:
            return "[]"
        inner = " " * (indent + 2)
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = " " * (indent + 2)
        parts = []
        for k in sorted(obj):
            parts.append(f"{inner}{json.dumps(str(k))}: "
                         f"{dumps_canonical(obj[k], indent + 2)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _jsonable(obj):
    """Recursively coerce to JSON-safe values; non-finite floats -> null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return None if (math.isnan(f) or math.isinf(f)) else f
    return obj


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, doc) -> None:
    _write_text(path, dumps_canonical(_jsonable(doc)) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return "" if math.isnan(f) else _format_float(f)
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


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
    alpha: float
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
             default=None, integer=False, minimum=None, maximum=None,
             strict_min=None):
    if key not in sec or sec[key] is None:
        if required:
            ctx.err(f"{path}.{key}", "required")
            return None
        return default
    v = sec[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        ctx.err(f"{path}.{key}", f"expected a number, got {v!r}")
        return None
    if integer and not isinstance(v, int):
        ctx.err(f"{path}.{key}", f"expected an integer, got {v!r}")
        return None
    if minimum is not None and v < minimum:
        ctx.err(f"{path}.{key}", f"must be >= {minimum}, got {v}")
        return None
    if strict_min is not None and v <= strict_min:
        ctx.err(f"{path}.{key}", f"must be > {strict_min}, got {v}")
        return None
    if maximum is not None and v > maximum:
        ctx.err(f"{path}.{key}", f"must be <= {maximum}, got {v}")
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


def _forbid(ctx: _Ctx, doc: dict, keys: list[str], experiment: str):
    for k in keys:
        if k in doc and doc[k] is not None:
            ctx.err(k, f"not allowed for experiment '{experiment}'")


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
        "scheduler", "alpha", "horizon", "warmup", "replicas", "base_seed",
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
        if kind == "ula":
            _expect_keys(ctx, topo, "topology", {"kind", "n", "d"})
            d = _get_num(ctx, topo, "topology", "d", required=True,
                         strict_min=0.0)
            n = _get_num(ctx, topo, "topology", "n", integer=True, minimum=2,
                         required=not sweeping)
            if sweeping and n is not None:
                ctx.err("topology.n", "fixed size not allowed in a sweep")
            topo_params = {"n": n, "d": d}
        elif kind == "random_linear":
            _expect_keys(ctx, topo, "topology", {"kind", "n", "d", "min_sep"})
            d = _get_num(ctx, topo, "topology", "d", required=True,
                         strict_min=0.0)
            min_sep = _get_num(ctx, topo, "topology", "min_sep",
                               required=True, strict_min=0.0)
            n = _get_num(ctx, topo, "topology", "n", integer=True, minimum=2,
                         required=not sweeping)
            if sweeping and n is not None:
                ctx.err("topology.n", "fixed size not allowed in a sweep")
            if None not in (d, min_sep) and min_sep > d:
                ctx.err("topology.min_sep", f"must be <= d ({d}), got {min_sep}")
            topo_params = {"n": n, "d": d, "min_sep": min_sep}
        elif kind in ("rect", "hex"):
            _expect_keys(ctx, topo, "topology", {"kind", "rows", "cols", "d"})
            d = _get_num(ctx, topo, "topology", "d", required=True,
                         strict_min=0.0)
            rows = _get_num(ctx, topo, "topology", "rows", integer=True,
                            minimum=1, required=not sweeping)
            cols = _get_num(ctx, topo, "topology", "cols", integer=True,
                            minimum=1, required=not sweeping)
            if sweeping and (rows is not None or cols is not None):
                ctx.err("topology.rows", "fixed size not allowed in a sweep")
            if not sweeping and None not in (rows, cols) and rows * cols < 2:
                ctx.err("topology.rows", "lattice needs at least 2 clusters")
            topo_params = {"rows": rows, "cols": cols, "d": d}
        elif kind == "file":
            _expect_keys(ctx, topo, "topology", {"kind", "path"})
            path = topo.get("path")
            if not isinstance(path, str) or not path:
                ctx.err("topology.path", "required string")
            if sweeping:
                ctx.err("topology.kind", "'file' cannot drive a sweep")
            topo_params = {"path": path}

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
    rho = _get_num(ctx, doc, "config", "rho", default=3.0, strict_min=0.0)

    link = doc.get("link") or {}
    if not isinstance(link, dict):
        ctx.err("link", "expected an object")
        link = {}
    _expect_keys(ctx, link, "link", {"signal_power", "noise_power"})
    signal_power = _get_num(ctx, link, "link", "signal_power", strict_min=0.0)
    noise_power = _get_num(ctx, link, "link", "noise_power", strict_min=0.0)

    # per-experiment sections -------------------------------------------
    alpha = 1.0
    horizon = None
    warmup = None
    sweep_sizes = None
    rates = None
    if experiment == "converge":
        _forbid(ctx, doc, ["alpha", "horizon", "warmup", "sweep", "rates"],
                "converge")
    elif experiment == "sweep":
        _forbid(ctx, doc, ["alpha", "horizon", "warmup", "rates"], "sweep")
        sweep = doc.get("sweep")
        if not isinstance(sweep, dict):
            ctx.err("sweep", "required object with a 'sizes' list")
        else:
            _expect_keys(ctx, sweep, "sweep", {"sizes"})
            sweep_sizes = _parse_sizes(ctx, sweep.get("sizes"), kind)
    elif experiment == "relaxation":
        _forbid(ctx, doc, ["sweep", "rates", "warmup"], "relaxation")
        alpha = _get_num(ctx, doc, "config", "alpha", default=1.0,
                         minimum=0.0, maximum=1.0)
        if alpha is not None and alpha != 1.0:
            ctx.err("alpha", "relaxation fitting requires alpha = 1")
        horizon = _get_num(ctx, doc, "config", "horizon", required=True,
                           strict_min=0.0)
        if initial == "uniform_random":
            ctx.err("initial_assignment",
                    "relaxation starts from the worst case (all_band_one)")
        if scheduler_kind == "permutation":
            ctx.err("scheduler.kind", "dynamics experiments need 'poisson'")
    elif experiment == "variance":
        _forbid(ctx, doc, ["alpha", "sweep"], "variance")
        horizon = _get_num(ctx, doc, "config", "horizon", required=True,
                           strict_min=0.0)
        warmup = _get_num(ctx, doc, "config", "warmup", minimum=0.0)
        if scheduler_kind == "permutation":
            ctx.err("scheduler.kind", "dynamics experiments need 'poisson'")
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

    out = doc.get("output") or {}
    if not isinstance(out, dict):
        ctx.err("output", "expected an object")
        out = {}
    _expect_keys(ctx, out, "output",
                 {"dir", "prefix", "write_trace", "write_capacity_series"})
    out_dir = out.get("dir", "results")
    if not isinstance(out_dir, str) or not out_dir:
        ctx.err("output.dir", "expected a non-empty string")
        out_dir = "results"
    prefix = out.get("prefix", experiment or "run")
    if not isinstance(prefix, str) or not prefix:
        ctx.err("output.prefix", "expected a non-empty string")
        prefix = "run"
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
            elif q > 0.1:
                ctx.warn("rates", f"switching rate {q} > 0.1 strains the "
                         "near-equilibrium assumption")

    resolved = {
        "experiment": experiment,
        "topology": {"kind": kind, **topo_params},
        "bands": bands,
        "eta": eta,
        "p0": p0,
        "initial_assignment": initial,
        "scheduler": {"kind": scheduler_kind, "delta_t": delta_t},
        # null where the schema has no alpha key, so the echo stays loadable
        "alpha": alpha if experiment == "relaxation" else None,
        "horizon": horizon,
        "warmup": warmup,
        "replicas": replicas,
        "base_seed": base_seed,
        "rho": rho,
        "link": {"signal_power": signal_power, "noise_power": noise_power},
        "sweep": {"sizes": sweep_sizes} if sweep_sizes is not None else None,
        "rates": rates,
        "output": {"dir": out_dir, "prefix": prefix,
                   "write_trace": write_trace,
                   "write_capacity_series": write_capacity},
    }
    return ExperimentConfig(
        experiment=experiment, topology_kind=kind, topology_params=topo_params,
        bands=bands, eta=eta, p0=p0, initial_assignment=initial,
        scheduler_kind=scheduler_kind, delta_t=delta_t, alpha=alpha,
        horizon=horizon, warmup=warmup, replicas=replicas,
        base_seed=base_seed, rho=rho, signal_power=signal_power,
        noise_power=noise_power, sweep_sizes=sweep_sizes, rates=rates,
        out_dir=out_dir, prefix=prefix, write_trace=write_trace,
        write_capacity_series=write_capacity, resolved=resolved,
        warnings=ctx.warnings)


def _parse_sizes(ctx: _Ctx, sizes, kind) -> list | None:
    if not isinstance(sizes, list) or not sizes:
        ctx.err("sweep.sizes", "required non-empty list")
        return None
    out = []
    lattice = kind in ("rect", "hex")
    for pos, v in enumerate(sizes):
        if lattice:
            if (not isinstance(v, list) or len(v) != 2
                    or not all(isinstance(x, int) and x >= 1 for x in v)
                    or v[0] * v[1] < 2):
                ctx.err(f"sweep.sizes[{pos}]",
                        f"expected [rows, cols] with rows*cols >= 2, got {v!r}")
            else:
                out.append([int(v[0]), int(v[1])])
        else:
            if not isinstance(v, int) or isinstance(v, bool) or v < 2:
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
    return parse_config(doc)


def validate_config(path) -> dict:
    """Structural + semantic validation without running; returns a report."""
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        return {"valid": False, "errors": exc.errors, "warnings": [],
                "derived": None}
    derived: dict = {"warmup_default": None, "points": []}
    n_hint = _size_hint(cfg)
    if n_hint is not None and cfg.delta_t is not None:
        tau = n_hint * cfg.delta_t
        derived["n"] = n_hint
        derived["tau"] = tau
        derived["warmup_default"] = (0.6 * tau / cfg.rho
                                     if cfg.experiment == "variance"
                                     else default_warmup(tau, cfg.rho))
        alphas = ([1.0 - q for q in cfg.rates] if cfg.rates
                  else [cfg.alpha])
        for a in alphas:
            derived["points"].append({
                "alpha": a,
                "lambda": lambda_from_alpha(a, n_hint, tau),
                "stability_margin": stability_margin(a, cfg.rho),
            })
    warnings = list(cfg.warnings)
    if cfg.rates is None:
        # variance configs already carry per-rate warnings from the parser
        for point in derived.get("points", []):
            if point["stability_margin"] >= 1.0:
                warnings.append(
                    f"derived: alpha={point['alpha']}: stability margin "
                    f"{point['stability_margin']:.4g} >= 1 "
                    "(predicted variance divergent)")
    return {"valid": True, "errors": [], "warnings": warnings,
            "derived": derived}


def _size_hint(cfg: ExperimentConfig) -> int | None:
    p = cfg.topology_params
    if cfg.topology_kind in ("ula", "random_linear"):
        return p.get("n")
    if cfg.topology_kind in ("rect", "hex"):
        rows, cols = p.get("rows"), p.get("cols")
        return rows * cols if rows and cols else None
    if cfg.topology_kind == "file":
        try:
            return load_topology(p["path"]).n
        except OSError:
            return None
    return None


# ---------------------------------------------------------------------------
# presets


def _base_preset(experiment: str, prefix: str, seed: int) -> dict:
    return {
        "experiment": experiment,
        "bands": 2,
        "eta": 2.0,
        "p0": 1.0,
        "initial_assignment": "all_band_one",
        "scheduler": {"kind": "poisson", "delta_t": 0.01},
        "replicas": 5,
        "base_seed": seed,
        "rho": 3.0,
        "link": {"signal_power": 1.0, "noise_power": 0.1},
        "output": {"dir": "results", "prefix": prefix},
    }


def preset(name: str) -> dict:
    """Built-in experiment configs, one per standard output series."""
    seed0 = 20260815
    if name == "fig2a":
        doc = _base_preset("converge", "fig2a", seed0)
        doc["topology"] = {"kind": "ula", "n": 100, "d": 1.0}
        doc["output"].update(write_trace=True, write_capacity_series=True)
        return doc
    if name == "fig2b":
        doc = _base_preset("converge", "fig2b", seed0 + 1)
        doc["topology"] = {"kind": "rect", "rows": 10, "cols": 10, "d": 1.0}
        doc["bands"] = 4
        doc["output"].update(write_trace=True, write_capacity_series=True)
        return doc
    if name == "fig2c":
        doc = _base_preset("converge", "fig2c", seed0 + 2)
        doc["topology"] = {"kind": "hex", "rows": 10, "cols": 10, "d": 1.0}
        doc["bands"] = 4
        doc["output"].update(write_trace=True, write_capacity_series=True)
        return doc
    if name == "fig3":
        doc = _base_preset("sweep", "fig3", seed0 + 3)
        doc["topology"] = {"kind": "ula", "d": 1.0}
        doc["scheduler"] = {"kind": "permutation", "delta_t": 0.01}
        doc["replicas"] = 20
        doc["sweep"] = {"sizes": [10, 20, 40, 60, 80, 100]}
        return doc
    if name == "fig4a" or name == "fig4b":
        doc = _base_preset("sweep", name, seed0 + (4 if name == "fig4a" else 5))
        doc["topology"] = {"kind": "rect" if name == "fig4a" else "hex",
                           "d": 1.0}
        doc["bands"] = 4
        doc["scheduler"] = {"kind": "permutation", "delta_t": 0.01}
        doc["replicas"] = 20
        doc["sweep"] = {"sizes": [[4, 4], [5, 5], [6, 6], [7, 7], [8, 8],
                                  [9, 9], [10, 10]]}
        return doc
    if name == "fig5":
        doc = _base_preset("relaxation", "fig5", seed0 + 6)
        doc["topology"] = {"kind": "ula", "n": 100, "d": 1.0}
        doc["alpha"] = 1.0
        doc["horizon"] = 8.0
        doc["replicas"] = 500
        return doc
    if name == "fig6":
        doc = _base_preset("variance", "fig6", seed0 + 7)
        doc["topology"] = {"kind": "ula", "n": 100, "d": 1.0}
        doc["horizon"] = 1.0
        doc["warmup"] = 0.2
        doc["replicas"] = 200
        doc["rates"] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.375]
        return doc
    raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


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
    """Topology plus (rows, cols) when a lattice (for the reuse reference)."""
    p = cfg.topology_params
    kind = cfg.topology_kind
    if kind == "ula":
        n = size if size is not None else p["n"]
        return make_uniform_linear_array(n, p["d"], cfg.p0, cfg.eta), None
    if kind == "random_linear":
        n = size if size is not None else p["n"]
        rng = np.random.default_rng(np.random.SeedSequence(cfg.base_seed))
        return make_random_linear_array(n, p["d"], p["min_sep"], rng,
                                        cfg.p0, cfg.eta), None
    if kind in ("rect", "hex"):
        rows, cols = size if size is not None else (p["rows"], p["cols"])
        maker = make_rectangular_lattice if kind == "rect" \
            else make_hexagonal_lattice
        return maker(rows, cols, p["d"], cfg.p0, cfg.eta), (rows, cols)
    if kind == "file":
        return load_topology(p["path"]), None
    raise ValueError(f"unhandled topology kind {kind}")


def _reference_assignment(cfg: ExperimentConfig, top: Topology,
                          lattice_dims) -> tuple[Assignment | None, str | None]:
    if lattice_dims is not None and cfg.bands in (2, 4):
        rows, cols = lattice_dims
        return lattice_reuse_assignment(rows, cols, cfg.bands), \
            f"reuse_1_{cfg.bands}"
    if top.dim == 1:
        return alternating_assignment(top.n, cfg.bands), "alternating"
    return None, None


def _make_scheduler(cfg: ExperimentConfig):
    if cfg.scheduler_kind == "poisson":
        return PoissonClock(cfg.delta_t)
    return RandomPermutationRounds(cfg.delta_t)


def _normalized_capacity(cache: InterferenceCache, s: float, n0: float) -> float:
    active = cache.active
    if not active.any():
        return 0.0
    own = cache.own_band_interference()[active]
    return float(np.mean(np.log2(1.0 + s / (n0 + own))))


def _initial_assignment(cfg: ExperimentConfig, n: int, rng) -> Assignment:
    if cfg.initial_assignment == "uniform_random":
        return uniform_random_assignment(n, cfg.bands, rng)
    return all_band_one(n, cfg.bands)


def _converge_one(cfg: ExperimentConfig, top: Topology, seed: int):
    """One static run to convergence; returns (records, initial, final, a0)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    initial = _initial_assignment(cfg, top.n, rng)
    state = SimState(top, initial, all_active(top.n), rng=rng)
    a0 = state.aggregate()
    scheduler = _make_scheduler(cfg)
    state, records = run_to_convergence(state, scheduler)
    return records, initial, state.assignment(), a0


def _link_params(cfg: ExperimentConfig, top: Topology) -> tuple[float, float]:
    s = cfg.signal_power if cfg.signal_power is not None else top.p0
    n0 = cfg.noise_power if cfg.noise_power is not None else 0.1 * top.p0
    return s, n0


def _d_ref(cfg: ExperimentConfig) -> float | None:
    return cfg.topology_params.get("d")


def _run_converge(cfg: ExperimentConfig, out_dir: Path) -> RunResult:
    top, lattice_dims = _build_topology(cfg)
    ref_asg, ref_kind = _reference_assignment(cfg, top, lattice_dims)
    s, n0 = _link_params(cfg, top)
    i_w = worst_case_interference(top)
    ref_agg = (_reference_aggregate(top, ref_asg)
               if ref_asg is not None else None)
    trace_rows = []
    cap_rows = []
    detail = []
    reports = []
    for k in range(cfg.replicas):
        seed = cfg.base_seed + k
        records, initial, final, a0 = _converge_one(cfg, top, seed)
        trace_rows.append((k, 0, 0.0, -1, 0, 0, a0, top.n))
        for e, rec in enumerate(records, 1):
            trace_rows.append((k, e, rec.time, rec.cluster, rec.old_band,
                               rec.new_band, rec.aggregate_after, top.n))
        if cfg.write_capacity_series:
            cap_cache = InterferenceCache(top, initial, all_active(top.n))
            cap_rows.append((k, 0, 0.0, _normalized_capacity(cap_cache, s, n0)))
            for e, rec in enumerate(records, 1):
                cap_cache.set_band(rec.cluster, rec.new_band)
                cap_rows.append((k, e, rec.time,
                                 _normalized_capacity(cap_cache, s, n0)))
        brep = bound_report(top, None, final, cfg.bands, d_ref=_d_ref(cfg),
                            reference=ref_asg)
        reports.append(brep)
        entry = {
            "replica": k,
            "seed": seed,
            "updates": len(records),
            "switches": sum(1 for rec in records if rec.switched),
            "final_aggregate": brep.i_a,
            "final_normalized": brep.i_a / top.n,
            "ratio_aw": brep.ratio_aw,
        }
        if ref_asg is not None:
            cap = capacity_comparison(top, None, final, ref_asg, s, n0)
            entry["capacity_fraction"] = cap.achieved_fraction
            entry["capacity_normalized"] = cap.normalized_aggregate
            entry["db_gap_vs_reference"] = (
                db_gap(brep.i_a, ref_agg)
                if brep.i_a > 0 and ref_agg > 0 else None)
        detail.append(entry)

    _check_bounds(reports, cfg)
    finals = [d["final_aggregate"] for d in detail]
    updates = [d["updates"] for d in detail]
    summary = {
        "experiment": "converge",
        "version": __version__,
        "config_hash": config_hash(cfg.resolved),
        "n": top.n,
        "bands": cfg.bands,
        "eta": top.eta,
        "p0": top.p0,
        "replicas": cfg.replicas,
        "i_w": i_w,
        "i_w_over_r": i_w / cfg.bands,
        "reference": _reference_block(cfg, top, ref_asg, ref_kind, s, n0),
        "final_aggregate": {"mean": float(np.mean(finals)),
                            "min": float(np.min(finals)),
                            "max": float(np.max(finals))},
        "update_counts": {"max": int(np.max(updates)),
                          "le_50n": bool(np.max(updates) <= 50 * top.n)},
        "bounds": _bounds_block(reports),
        "link": {"signal_power": s, "noise_power": n0},
        "replicas_detail": detail,
    }
    files = _emit(cfg, out_dir, summary, trace_rows=trace_rows,
                  cap_rows=cap_rows if cfg.write_capacity_series else None)
    return RunResult(out_dir, files, summary)


def _reference_aggregate(top: Topology, ref_asg: Assignment) -> float:
    return aggregate_interference(top, ref_asg, None)


def _reference_block(cfg, top, ref_asg, ref_kind, s, n0):
    if ref_asg is None:
        return None
    agg = _reference_aggregate(top, ref_asg)
    _, ref_cap = shannon_capacity(top, ref_asg, None, s, n0)
    return {"kind": ref_kind, "aggregate": agg,
            "normalized_aggregate": agg / top.n,
            "normalized_capacity": ref_cap}


def _bounds_block(reports) -> dict:
    return {
        "upper_ok_all": all(r.upper_bound_ok for r in reports),
        "max_ratio_aw": max(r.ratio_aw for r in reports),
        "i_o_kind": reports[0].i_o_kind,
        "analytic_ratio_cap": reports[0].analytic_ratio_cap,
        "gap_convention": reports[0].gap_convention,
        "analytic_lower_per_cluster": reports[0].analytic_lower,
        "ratio_cap_ok_all": all(r.ratio_cap_ok for r in reports
                                if r.ratio_cap_ok is not None),
    }


def _check_bounds(reports, cfg: ExperimentConfig):
    for k, r in enumerate(reports):
        if not r.upper_bound_ok:
            record = {"failure": "upper_bound_violation", "replica": k,
                      "i_a": r.i_a, "i_w_over_r": r.i_w / r.r,
                      "config_hash": config_hash(cfg.resolved)}
            raise BoundViolationError(
                f"replica {k}: converged aggregate {r.i_a} exceeds "
                f"i_w/r = {r.i_w / r.r}", record)


def _run_sweep(cfg: ExperimentConfig, out_dir: Path) -> RunResult:
    rows = []
    per_size = []
    all_reports = []
    for si, size in enumerate(cfg.sweep_sizes):
        top, lattice_dims = _build_topology(
            cfg, size=tuple(size) if isinstance(size, list) else size)
        ref_asg, ref_kind = _reference_assignment(cfg, top, lattice_dims)
        s, n0 = _link_params(cfg, top)
        i_w = worst_case_interference(top)
        ref_agg = (_reference_aggregate(top, ref_asg)
                   if ref_asg is not None else None)
        finals = []
        fractions = []
        gaps = []
        reports = []
        for k in range(cfg.replicas):
            seed = cfg.base_seed + si * cfg.replicas + k
            _, _, final, _ = _converge_one(cfg, top, seed)
            brep = bound_report(top, None, final, cfg.bands,
                                d_ref=_d_ref(cfg), reference=ref_asg)
            reports.append(brep)
            finals.append(brep.i_a)
            if ref_asg is not None:
                cap = capacity_comparison(top, None, final, ref_asg, s, n0)
                fractions.append(cap.achieved_fraction)
                if brep.i_a > 0 and ref_agg > 0:
                    gaps.append(db_gap(brep.i_a, ref_agg))
        _check_bounds(reports, cfg)
        all_reports.extend(reports)
        n = top.n
        lower = reports[0].analytic_lower
        if isinstance(size, list):
            rows_cols = size
        else:
            rows_cols = (None, None)
        row = {
            "n": n,
            "rows": rows_cols[0],
            "cols": rows_cols[1],
            "i_w_norm": i_w / n,
            "upper_norm": i_w / cfg.bands / n,
            "ia_mean_norm": float(np.mean(finals)) / n,
            "ia_min_norm": float(np.min(finals)) / n,
            "ia_max_norm": float(np.max(finals)) / n,
            "ref_norm": ref_agg / n if ref_agg is not None else None,
            "lower_norm": lower,
            "db_gap_mean": float(np.mean(gaps)) if gaps else None,
            "capacity_fraction_mean": (float(np.mean(fractions))
                                       if fractions else None),
            "reference_kind": ref_kind,
        }
        rows.append(row)
        per_size.append({**row, "finals": finals})
    header = ["n", "rows", "cols", "i_w_norm", "upper_norm", "ia_mean_norm",
              "ia_min_norm", "ia_max_norm", "ref_norm", "lower_norm",
              "db_gap_mean", "capacity_fraction_mean", "reference_kind"]
    csv_rows = [[r[h] for h in header] for r in rows]
    summary = {
        "experiment": "sweep",
        "version": __version__,
        "config_hash": config_hash(cfg.resolved),
        "bands": cfg.bands,
        "eta": cfg.eta,
        "p0": cfg.p0,
        "replicas": cfg.replicas,
        "bounds": _bounds_block(all_reports),
        "sizes": per_size,
    }
    files = _emit(cfg, out_dir, summary, sweep=(header, csv_rows))
    return RunResult(out_dir, files, summary)


def _trace_rows_from_sim(traces) -> list:
    rows = []
    for k, tr in enumerate(traces):
        for e in range(tr.times.size):
            rows.append((k, e, float(tr.times[e]), int(tr.clusters[e]),
                         int(tr.old_bands[e]), int(tr.new_bands[e]),
                         float(tr.aggregates[e]), int(tr.active_counts[e])))
    return rows


def _run_relaxation(cfg: ExperimentConfig, out_dir: Path) -> RunResult:
    top, _ = _build_topology(cfg)
    dyn = DynamicsConfig(delta_t=cfg.delta_t, horizon=cfg.horizon,
                         alpha=1.0, replicas=cfg.replicas)
    traces = run_ensemble(top, dyn, cfg.bands, cfg.base_seed)
    i_w = worst_case_interference(top)
    i_a = float(np.mean([tr.aggregates[-1] for tr in traces]))
    grid = np.arange(0.0, cfg.horizon, cfg.delta_t)
    mean_trace = ensemble_mean_trace(traces, grid)
    rho_hat = fit_exponential_decay(mean_trace, i_a, i_w)
    tau = dyn.tau(top.n)
    bracket = (mean_trace.aggregates - i_a) / (i_w - i_a)
    model = np.exp(-cfg.rho * grid / tau)
    decay_rows = list(zip(grid, mean_trace.aggregates,
                          mean_trace.aggregates / top.n, bracket, model))
    summary = {
        "experiment": "relaxation",
        "version": __version__,
        "config_hash": config_hash(cfg.resolved),
        "n": top.n,
        "bands": cfg.bands,
        "eta": top.eta,
        "replicas": cfg.replicas,
        "tau": tau,
        "rho_assumed": cfg.rho,
        "rho_fitted": rho_hat,
        "i_w": i_w,
        "i_a_mean_final": i_a,
        "i_a_normalized": i_a / top.n,
        "fit_floor": 0.05,
    }
    files = _emit(cfg, out_dir, summary,
                  trace_rows=(_trace_rows_from_sim(traces)
                              if cfg.write_trace else None),
                  decay_rows=decay_rows)
    return RunResult(out_dir, files, summary)


def _run_variance(cfg: ExperimentConfig, out_dir: Path) -> RunResult:
    top, _ = _build_topology(cfg)
    tau = top.n * cfg.delta_t
    # near-equilibrium window: past the relaxation time, before the activity
    # chain wanders far from the all-active start the prediction assumes
    warmup = cfg.warmup if cfg.warmup is not None else 0.6 * tau / cfg.rho
    if not (warmup < cfg.horizon):
        raise ConfigError([f"warmup: effective value {warmup} must be below "
                           f"horizon {cfg.horizon}"])
    init_rng = np.random.default_rng(
        np.random.SeedSequence((cfg.base_seed, 1)))
    init_state = SimState(top, _initial_assignment(cfg, top.n, init_rng),
                          rng=init_rng)
    init_state, _ = run_to_convergence(
        init_state, PoissonClock(cfg.delta_t))
    init = init_state.assignment()
    var_rows = []
    points = []
    all_trace_rows = []
    for qi, q in enumerate(cfg.rates):
        alpha = 1.0 - q
        dyn = DynamicsConfig(delta_t=cfg.delta_t, horizon=cfg.horizon,
                             alpha=alpha, replicas=cfg.replicas,
                             warmup=warmup)
        seed = cfg.base_seed + qi * cfg.replicas
        traces = run_ensemble(top, dyn, cfg.bands, seed, initial=init)
        if cfg.write_trace:
            all_trace_rows.extend(_trace_rows_from_sim(traces))
        stats = steady_state_stats(traces, warmup)
        lam = lambda_from_alpha(alpha, top.n, tau)
        pred = predicted_variance(stats.mean, lam, tau, top.n, cfg.rho)
        ratio = (stats.variance / pred.sigma_ss_sq
                 if (not pred.divergent and pred.sigma_ss_sq > 0) else None)
        point = {
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
        }
        points.append(point)
        var_rows.append([q, alpha, lam, pred.margin, int(pred.divergent),
                         point["sigma_sq_predicted"], stats.variance, ratio,
                         stats.mean, stats.within])
    summary = {
        "experiment": "variance",
        "version": __version__,
        "config_hash": config_hash(cfg.resolved),
        "n": top.n,
        "bands": cfg.bands,
        "eta": top.eta,
        "replicas": cfg.replicas,
        "tau": tau,
        "rho": cfg.rho,
        "warmup": warmup,
        "horizon": cfg.horizon,
        "initial_aggregate": init_state.aggregate(),
        "estimator": _VARIANCE_ESTIMATOR_NOTE,
        "normalization": "aggregate divided by n before statistics; the "
                         "prediction is evaluated at the empirical mean "
                         "level, so both sides share the 1/n^2 scale",
        "points": points,
    }
    header = ["one_minus_alpha", "alpha", "lambda", "margin", "divergent",
              "sigma_sq_predicted", "sigma_sq_empirical",
              "ratio_emp_over_pred", "mean_level", "within"]
    files = _emit(cfg, out_dir, summary, var_rows=(header, var_rows),
                  trace_rows=all_trace_rows if cfg.write_trace else None)
    return RunResult(out_dir, files, summary)


TRACE_HEADER = ["replica", "event_index", "time", "cluster", "old_band",
                "new_band", "aggregate_interference", "active_count"]


def _emit(cfg: ExperimentConfig, out_dir: Path, summary: dict,
          trace_rows=None, cap_rows=None, decay_rows=None, sweep=None,
          var_rows=None) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []

    def target(suffix: str) -> Path:
        p = out_dir / f"{cfg.prefix}_{suffix}"
        files.append(p)
        return p

    _write_json(target("config.json"), cfg.resolved)
    _write_json(target("summary.json"), summary)
    if trace_rows is not None:
        _write_csv(target("trace.csv"), TRACE_HEADER, trace_rows)
    if cap_rows is not None:
        _write_csv(target("capacity.csv"),
                   ["replica", "event_index", "time", "normalized_capacity"],
                   cap_rows)
    if decay_rows is not None:
        _write_csv(target("decay.csv"),
                   ["time", "mean_aggregate", "mean_normalized", "bracket",
                    "model_bracket"], decay_rows)
    if sweep is not None:
        _write_csv(target("sweep.csv"), sweep[0], sweep[1])
    if var_rows is not None:
        _write_csv(target("variance.csv"), var_rows[0], var_rows[1])
    return files


def resolve_out_dir(cfg: ExperimentConfig, override: str | None = None) -> Path:
    """--out flag beats the environment override beats the config value."""
    if override:
        return Path(override)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(cfg.out_dir)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunResult:
    """Execute a parsed config and write its result files."""
    target = resolve_out_dir(cfg, out_dir)
    if cfg.experiment == "converge":
        return _run_converge(cfg, target)
    if cfg.experiment == "sweep":
        return _run_sweep(cfg, target)
    if cfg.experiment == "relaxation":
        return _run_relaxation(cfg, target)
    if cfg.experiment == "variance":
        return _run_variance(cfg, target)
    raise ValueError(f"unhandled experiment {cfg.experiment}")
