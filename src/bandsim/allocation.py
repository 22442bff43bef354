"""Asynchronous best-response band updates.

Each scheduled cluster moves to the band where it currently measures the
least interference; by reciprocity every switch strictly lowers the network
aggregate, which therefore acts as a Lyapunov potential and guarantees
convergence to a local minimum.

Switching uses a strict-improvement rule: the current band is kept unless
some band beats it by more than REL_TOL times the current band's power,
which rules out oscillation between equal-interference states.  The rule
has no absolute floor, so scaling p0 (or d) scales every comparison alike
and the dynamics do not depend on units.

The schedulers are immutable settings that hold only delta_t.  Every
event's cluster and time come from the cache's scheduling stream and draw
buffers, so the InterferenceCache is the one owner of a run's mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import interference
from .interference import InterferenceCache

__all__ = [
    "REL_TOL",
    "ConvergenceError",
    "UpdateRecord",
    "PoissonClock",
    "RandomPermutationRounds",
    "best_band",
    "apply_update",
    "default_update_guard",
    "run_to_convergence",
]

# Strict-improvement threshold: switch only if the best band improves on the
# current one by more than REL_TOL times the current level; no absolute
# floor, so the rule does not depend on the units of p0 or d.
REL_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """Update-count guard exceeded; indicates a tie-breaking/tolerance bug."""


@dataclass(slots=True)
class UpdateRecord:
    """One event: who moved where and the potential before/after."""

    time: float
    cluster: int
    old_band: int
    new_band: int
    aggregate_before: float
    aggregate_after: float

    @property
    def switched(self) -> bool:
        return self.new_band != self.old_band


def _choose(powers: list[float], current: int) -> int:
    """best_band's rule over the band powers of a cluster on band current."""
    cur_val = powers[current - 1]
    low = min(powers)
    if cur_val - low <= REL_TOL * cur_val:
        return current
    return powers.index(low) + 1


def best_band(cache: InterferenceCache, i: int) -> int:
    """Band with the least measured interference for active cluster i.

    The current band wins unless a strictly better one exists (beyond
    REL_TOL); among strictly better bands the lowest-interference one is
    chosen, ties broken by lowest band index.
    """
    if not cache.active.item(i):
        raise ValueError(f"cluster {i} is inactive")
    return _choose(cache.band_powers(i).tolist(), cache.bands.item(i))


def apply_update(cache: InterferenceCache, i: int) -> UpdateRecord:
    """Apply the best-band rule at active cluster i and log the potential
    change; the cache is written only when the band changes."""
    if not cache.active.item(i):
        raise ValueError(f"cluster {i} is inactive")
    before = cache._aggregate
    old = cache.bands.item(i)
    new = _choose(cache._band_power[i].tolist(), old)
    if new == old:
        return UpdateRecord(cache.time, i, old, old, before, before)
    cache.set_band(i, new)
    return UpdateRecord(cache.time, i, old, new, before, cache._aggregate)


def _positive_delta_t(self) -> None:
    if not (self.delta_t > 0):
        raise ValueError(f"delta_t must be > 0, got {self.delta_t}")


@dataclass(frozen=True)
class PoissonClock:
    """Network-wide Poisson update clock with mean inter-event time delta_t;
    each event updates one uniformly chosen active cluster."""

    delta_t: float

    __post_init__ = _positive_delta_t


@dataclass(frozen=True)
class RandomPermutationRounds:
    """Rounds of updates, each round a fresh uniform shuffle of the active
    clusters; every active cluster appears exactly once per round, delta_t
    apart."""

    delta_t: float = 1.0

    __post_init__ = _positive_delta_t


def default_update_guard(n: int, eta: float) -> int:
    """Update budget 10*N^(eta+2); convergence needs polynomially many."""
    return max(1, int(10.0 * float(n) ** (eta + 2.0)))


def run_to_convergence(cache: InterferenceCache, scheduler=None,
                       max_updates: int | None = None,
                       levels: list | None = None
                       ) -> tuple[InterferenceCache, list[UpdateRecord]]:
    """Run updates under a fixed activity pattern until no cluster moves;
    returns (cache, records), one apply_update record per event.

    Permutation scheduling stops after a whole round applies no switch;
    Poisson scheduling after a streak of 2 * n_active events that apply
    none (each event hits any given cluster with chance 1/n_active, so a
    full coverage cannot be certified by a single round).  Raises
    ConvergenceError beyond max_updates (default 10*N^(eta+2)).

    The scheduler is a setting; the run reads its events from the cache a
    block at a time.  A permutation block is one round,
    cache.rng.permutation(cache.active_list()), delta_t apart.  A Poisson
    block is the next gaps and picks peeked from the cache's buffers, as
    many as the quiet streak still needs (those events are sure to run) but
    at least DRAW_BLOCK, and only the events that ran are used.  Event
    times are the running sums of the gaps, as `time += gap` in turn gives
    them.

    When levels is a list, the run appends the own-band interference row
    (own_band_interference()) after every switch: the states a capacity
    series needs.
    """
    if scheduler is None:
        scheduler = RandomPermutationRounds()
    n_active = int(cache.active.sum())
    trace: list[UpdateRecord] = []
    if n_active == 0:
        return cache, trace
    if max_updates is None:
        max_updates = default_update_guard(cache.n, cache.topology.eta)

    rounds = isinstance(scheduler, RandomPermutationRounds)
    quiet_needed = n_active if rounds else 2 * n_active
    quiet_streak = 0
    update, append = apply_update, trace.append
    while quiet_streak < quiet_needed:
        done = len(trace)
        if done >= max_updates:
            raise ConvergenceError(
                f"no convergence within {max_updates} updates "
                f"(n={cache.n}, eta={cache.topology.eta})")
        if rounds:
            # each round counts its own quiet events: only a whole quiet
            # round stops the run, never one cut short by max_updates
            quiet_streak = 0
            clusters = cache.rng.permutation(
                cache.active_list())[:max_updates - done].tolist()
            gaps = np.full(len(clusters), scheduler.delta_t)
        else:
            k = min(max_updates - done,
                    max(quiet_needed - quiet_streak, interference.DRAW_BLOCK))
            gaps = scheduler.delta_t * cache.gaps.peek(k)
            clusters = cache.picks_of(cache.picks.peek(k))
        for t, i in zip(cache.event_times(gaps).tolist(), clusters):
            cache.time = t
            rec = update(cache, i)
            append(rec)
            if rec.switched:
                quiet_streak = 0
                if levels is not None:
                    levels.append(cache.own_band_interference())
            else:
                quiet_streak += 1
                if quiet_streak >= quiet_needed:
                    break
        if not rounds:
            cache.gaps.use(len(trace) - done)
            cache.picks.use(len(trace) - done)
    return cache, trace
