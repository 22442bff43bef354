"""Per-layer spans and counters for one traced bandsim run.

The tracer never edits bandsim's source.  It rebinds public names (plus the
private output writer ``_emit``) in every loaded ``bandsim.*`` namespace that
holds them, so each call into a layer passes through a wrapper that records
its duration and the duration of the spans it caused.  A span's self time is
its duration minus its child spans; a layer is named after its module.

Each wrapper reads the clock on entry and again on exit, and its parent
counts that whole interval as child time, while the span's own duration
covers only the wrapped call.  So the wrapper's bookkeeping, its counters
and the cache-drift probes are charged to no layer: they show up only in
``trace.overhead`` (and ``trace.probe_s`` for the probes).  What the clock
on entry cannot see, the call into the wrapper itself, is measured once per
run (``call_cost``) and also counted as the parent's child time.  A span's
own duration still holds about one clock read, which matters only for
spans of a microsecond or two.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs wrapped, by layer.  Methods are (class path).
SPANS = {
    "topology": [("topology", "make_uniform_linear_array"),
                 ("topology", "make_random_linear_array"),
                 ("topology", "make_rectangular_lattice"),
                 ("topology", "make_hexagonal_lattice"),
                 ("topology", "load_topology")],
    "interference": [("interference", "weight_matrix"),
                     ("interference", "aggregate_interference"),
                     ("interference", "worst_case_interference"),
                     ("interference", "InterferenceCache.__init__"),
                     ("interference", "InterferenceCache.set_band"),
                     ("interference", "InterferenceCache.set_active")],
    "allocation": [("allocation", "apply_update"),
                   ("allocation", "run_to_convergence")],
    "oracle": [("oracle", "bound_report"),
               ("oracle", "brute_force_optimal"),
               ("oracle", "riemann_zeta")],
    "metrics": [("metrics", "shannon_capacity"),
                ("metrics", "capacity_comparison")],
    "dynamics": [("dynamics", "simulate_time_varying"),
                 ("dynamics", "ensemble_mean_trace"),
                 ("dynamics", "fit_exponential_decay"),
                 ("dynamics", "steady_state_stats"),
                 ("dynamics", "predicted_variance")],
    "experiments": [("experiments", "load_config"),
                    ("experiments", "run_experiment"),
                    ("experiments", "_emit")],
}

LAYERS = tuple(SPANS)
STATS_FUNCS = ("ensemble_mean_trace", "fit_exponential_decay",
               "steady_state_stats", "predicted_variance")


class Tracer:
    """Accumulates spans and counters; install() patches bandsim in place."""

    def __init__(self, call_cost: float | None = None):
        self.call_cost = _call_cost() if call_cost is None else call_cost
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)      # inclusive seconds per function
        self.self_s = defaultdict(float)    # self seconds per function
        self.layer_outer = defaultdict(float)  # outermost spans per layer
        self.counts = defaultdict(float)
        self.replica_s: list[float] = []
        self.instances: set = set()
        self.drift = 0.0
        self.probe_s = 0.0
        self.top_s = 0.0                    # time inside top-level spans
        self._stack: list[list[float]] = []
        self._depth = defaultdict(int)
        self._simulating = 0

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in all loaded bandsim modules."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "bandsim" or name.startswith("bandsim.")}
        for layer, entries in SPANS.items():
            for mod_name, attr in entries:
                home = mods[f"bandsim.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(layer, meth,
                                                  getattr(cls, meth)))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(layer, attr, original)
                for mod in mods.values():
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapped)

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        after = getattr(self, f"_after_{name.strip('_')}", None)
        key = f"{layer}.{name}"
        call_cost = self.call_cost
        simulate = name == "simulate_time_varying"

        def traced(*args, **kwargs):
            entered = clock()
            frame = [0.0]
            stack.append(frame)
            outer = depth[layer] == 0
            depth[layer] += 1
            if simulate:
                self._simulating += 1
            try:
                t0 = clock()
                result = fn(*args, **kwargs)
                dt = clock() - t0
            finally:
                depth[layer] -= 1
                stack.pop()
                if simulate:
                    self._simulating -= 1
            self.calls[key] += 1
            self.incl[key] += dt
            self.self_s[key] += dt - frame[0]
            if outer:
                self.layer_outer[layer] += dt
            if after is not None:
                after(args, result, dt)
            spent = clock() - entered
            if stack:
                stack[-1][0] += spent + call_cost
            else:
                self.top_s += spent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- per-function counters --------------------------------------------

    def _after_apply_update(self, args, rec, dt):
        if rec.switched:
            self.counts["switches"] += 1

    def _after_set_active(self, args, result, dt):
        if self._simulating:
            self.counts["flips"] += 1

    def _after_brute_force_optimal(self, args, result, dt):
        top, act, r = args[:3]
        active = (act.active if act is not None
                  else np.ones(top.n, dtype=bool))
        self.counts["states"] += float(r) ** int(active.sum())
        self.instances.add((top.positions.tobytes(), top.p0, top.eta,
                            active.tobytes(), r))

    def _after_bound_report(self, args, rep, dt):
        if rep.ordering_ok is not None:
            self.counts["ordering_checked"] += 1
            if not rep.ordering_ok:
                self.counts["ordering_failed"] += 1

    def _after_run_to_convergence(self, args, result, dt):
        state, records = result
        last = max((k for k, rec in enumerate(records) if rec.switched),
                   default=-1)
        self.counts["quiet_tail"] += len(records) - (last + 1)
        self._note_drift(state.aggregate(), state.topology,
                         state.bands, state.active)

    def _after_simulate_time_varying(self, args, trace, dt):
        self.replica_s.append(dt)
        self.counts["dyn_events"] += trace.events
        top, cfg = args[:2]
        if cfg.alpha == 1.0:
            self._note_drift(float(trace.aggregates[-1]), top,
                             trace.final_bands, np.ones(top.n, dtype=bool))

    def _note_drift(self, cached: float, top, bands, active) -> None:
        """Relative gap between a cached aggregate and a full recompute.

        The recompute is written out here rather than calling bandsim, so
        it checks the program instead of repeating it, and records no span.
        It runs inside a wrapper's bookkeeping, so no layer is charged.
        """
        t0 = time.perf_counter()
        with np.errstate(divide="ignore"):
            w = top.p0 / top.dist ** top.eta
        np.fill_diagonal(w, 0.0)
        co = (bands[:, None] == bands[None, :]) \
            & active[:, None] & active[None, :]
        fresh = float(w[co].sum())
        if fresh > 0:
            self.drift = max(self.drift, abs(cached - fresh) / fresh)
        self.probe_s += time.perf_counter() - t0

    # -- report -----------------------------------------------------------

    def metrics(self, traced_wall_s: float) -> dict:
        """Per-layer metric values (plain numbers) for this run."""
        c, t, s = self.calls, self.incl, self.self_s
        events = c["allocation.apply_update"]
        bf_calls = c["oracle.brute_force_optimal"]
        reps_ms = sorted(x * 1e3 for x in self.replica_s)
        out = {
            "oracle.brute_force_calls": bf_calls,
            "oracle.brute_force_s": t["oracle.brute_force_optimal"],
            "oracle.states_enumerated": self.counts["states"],
            "oracle.distinct_instances": len(self.instances),
            "oracle.repeat_ratio": ((bf_calls - len(self.instances))
                                    / bf_calls if bf_calls else 0.0),
            "oracle.bound_report_s": s["oracle.bound_report"],
            "oracle.zeta_calls": c["oracle.riemann_zeta"],
            "oracle.zeta_s": t["oracle.riemann_zeta"],
            "allocation.events": events,
            "allocation.switches": self.counts["switches"],
            "allocation.switch_ratio": (self.counts["switches"] / events
                                        if events else 0.0),
            "allocation.apply_update_s": t["allocation.apply_update"],
            "allocation.converge_calls": c["allocation.run_to_convergence"],
            "allocation.converge_s": t["allocation.run_to_convergence"],
            "allocation.quiet_tail_events": self.counts["quiet_tail"],
            "interference.set_band_calls": c["interference.set_band"],
            "interference.set_active_calls": c["interference.set_active"],
            "interference.set_active_s": t["interference.set_active"],
            "interference.cache_builds": c["interference.__init__"],
            "interference.cache_build_s": t["interference.__init__"],
            "interference.weight_matrix_calls": c["interference.weight_matrix"],
            "interference.weight_matrix_s": t["interference.weight_matrix"],
            "interference.cache_drift_rel": self.drift,
            "dynamics.replicas": len(self.replica_s),
            "dynamics.events": self.counts["dyn_events"],
            "dynamics.flips": self.counts["flips"],
            "dynamics.simulate_s": s["dynamics.simulate_time_varying"],
            "dynamics.replica_ms_p50": _percentile(reps_ms, 0.50),
            "dynamics.replica_ms_p98": _percentile(reps_ms, 0.98),
            "dynamics.stats_s": sum(t[f"dynamics.{f}"] for f in STATS_FUNCS),
            "metrics.capacity_calls": c["metrics.shannon_capacity"],
            "metrics.capacity_s": self.layer_outer["metrics"],
            "experiments.parse_s": t["experiments.load_config"],
            "experiments.emit_s": t["experiments._emit"],
            "experiments.self_s": s["experiments.run_experiment"],
            "topology.builds": sum(c[f"topology.{a}"]
                                   for _, a in SPANS["topology"]),
            "topology.build_s": self.layer_outer["topology"],
        }
        for layer in LAYERS:
            out[f"{layer}.layer_self_s"] = sum(
                v for k, v in s.items() if k.startswith(layer + "."))
        out["trace.wall_s"] = traced_wall_s
        out["trace.span_coverage"] = self.top_s / traced_wall_s
        out["trace.leaf_coverage"] = sum(
            out[f"{layer}.layer_self_s"] for layer in LAYERS
            if layer != "experiments") / traced_wall_s
        out["trace.probe_s"] = self.probe_s
        return out

    def checks(self) -> dict:
        """Checks only the traced run can make: the oracle ordering
        i_o <= i_a of every bound report that had an exhaustive optimum."""
        if not self.counts["ordering_checked"]:
            return {}
        return {"oracle_ordering": self.counts["ordering_failed"] == 0}


def _call_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds per traced call that its caller's frame would count as self
    time: calling the wrapper and packing its arguments, before the wrapper
    first reads the clock.  The median over a few rounds, against a plain
    loop of the same calls."""
    def child(x):
        return x

    def loop(fn):
        def run():
            for i in range(calls):
                fn(i)
        return run

    plain, traced = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        loop(child)()
        plain.append(time.perf_counter() - t0)
        probe = Tracer(call_cost=0.0)
        probe._wrap("p", "parent", loop(probe._wrap("c", "child", child)))()
        traced.append(probe.self_s["p.parent"])
    extra = statistics.median(traced) - statistics.median(plain)
    return max(0.0, extra / calls)


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when empty."""
    if not sorted_vals:
        return 0.0
    rank = max(1, int(np.ceil(q * len(sorted_vals))))
    return sorted_vals[rank - 1]
