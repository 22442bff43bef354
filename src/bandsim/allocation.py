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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import interference
from .interference import InterferenceCache

__all__ = [
    "REL_TOL",
    "ConvergenceError",
    "SchedulingError",
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


class SchedulingError(RuntimeError):
    """No active cluster available to schedule."""


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


@dataclass
class PoissonClock:
    """Network-wide Poisson update clock with mean inter-event time delta_t;
    each event updates one uniformly chosen active cluster."""

    delta_t: float

    def __post_init__(self):
        if not (self.delta_t > 0):
            raise ValueError(f"delta_t must be > 0, got {self.delta_t}")

    def next(self, cache: InterferenceCache) -> tuple[int, float]:
        """(cluster index, time advance) for the next update event, from
        the cache's gap and pick streams."""
        dt = cache.next_gap(self.delta_t)
        i = cache.pick_active()
        if i < 0:
            raise SchedulingError("no active clusters to schedule")
        return i, dt

    def _block(self, cache: InterferenceCache, k: int):
        """(gaps, clusters) of the next min(k, DRAW_BLOCK) events, peeked
        from the cache's buffers; _used(cache, e) consumes the first e."""
        k = min(k, interference.DRAW_BLOCK)
        return (self.delta_t * cache.gaps.peek(k),
                cache.picks_of(cache.picks.peek(k)))

    def _used(self, cache: InterferenceCache, e: int) -> None:
        cache.gaps.use(e)
        cache.picks.use(e)


class RandomPermutationRounds:
    """Rounds of updates, each round a fresh uniform shuffle of the active
    clusters; every active cluster appears exactly once per round."""

    def __init__(self, delta_t: float = 1.0):
        if not (delta_t > 0):
            raise ValueError(f"delta_t must be > 0, got {delta_t}")
        self.delta_t = delta_t
        self._order: list[int] = []
        self._pos = 0

    def next(self, cache: InterferenceCache) -> tuple[int, float]:
        """(cluster index, time advance) for the next update event."""
        i = self._block(cache, 1)[1][0]
        self._pos += 1
        return i, self.delta_t

    def _block(self, cache: InterferenceCache, k: int):
        """(gaps, clusters) of up to k events to the end of the round, a new
        shuffle once a round is done; _used(cache, e) consumes the first e."""
        if self._pos >= len(self._order):
            idx = cache.active_list()
            if not idx:
                raise SchedulingError("no active clusters to schedule")
            self._order = cache.rng.permutation(idx).tolist()
            self._pos = 0
        rest = self._order[self._pos:self._pos + k]
        return np.full(len(rest), self.delta_t), rest

    def _used(self, cache: InterferenceCache, e: int) -> None:
        self._pos += e

    def at_round_boundary(self) -> bool:
        return self._pos >= len(self._order)


def default_update_guard(n: int, eta: float) -> int:
    """Update budget 10*N^(eta+2); convergence needs polynomially many."""
    return max(1, int(10.0 * float(n) ** (eta + 2.0)))


def run_to_convergence(cache: InterferenceCache, scheduler=None,
                       max_updates: int | None = None,
                       levels: list | None = None
                       ) -> tuple[InterferenceCache, list[UpdateRecord]]:
    """Run updates under a fixed activity pattern until no cluster moves;
    returns (cache, records), one apply_update record per event.

    Both schedulers stop on a streak of events that apply no switch:
    permutation scheduling when a streak of n_active ends on a round
    boundary, that is, a full round applied none; Poisson scheduling after
    2 * n_active (each event hits any given cluster with chance 1/n_active,
    so a full coverage cannot be certified by a single round).  Raises
    ConvergenceError beyond max_updates (default 10*N^(eta+2)).

    Events run a block at a time: the next DRAW_BLOCK Poisson gaps and
    picks, read ahead from the cache's buffers, or the rest of a round.
    Only the events that ran are consumed; their times are the running
    sums of the gaps, as `time += gap` in turn gives them.

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

    round_based = isinstance(scheduler, RandomPermutationRounds)
    quiet_needed = n_active if round_based else 2 * n_active
    quiet_streak = 0
    update, append = apply_update, trace.append
    while True:
        done = len(trace)
        if done >= max_updates:
            raise ConvergenceError(
                f"no convergence within {max_updates} updates "
                f"(n={cache.n}, eta={cache.topology.eta})")
        gaps, clusters = scheduler._block(cache, max_updates - done)
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
                if quiet_streak >= quiet_needed and not round_based:
                    break
        scheduler._used(cache, len(trace) - done)
        if quiet_streak >= quiet_needed and (
                not round_based or scheduler.at_round_boundary()):
            break
    return cache, trace
