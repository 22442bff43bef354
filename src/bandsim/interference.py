"""Path-loss interference under a band assignment and activity pattern.

Conventions, used everywhere downstream:
  * weight of an active transmitter j at receiver i is p0 / dist[i][j]**eta;
  * inactive clusters neither radiate nor count as receivers in aggregates;
  * every per-band quantity excludes the receiving cluster's own emission.

Plain functions recompute from scratch (the O(N^2) oracle path); the
InterferenceCache is the mutable state of one simulated replica.  It keeps
per-cluster per-band sums updated in O(N) per event for the simulation
inner loop, and the aggregate updated in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Topology

__all__ = [
    "Assignment",
    "ActivityState",
    "all_band_one",
    "uniform_random_assignment",
    "all_active",
    "activity_mask",
    "check_assignment",
    "weight_matrix",
    "band_interference",
    "cluster_interference",
    "aggregate_interference",
    "worst_case_interference",
    "DRAW_BLOCK",
    "InterferenceCache",
]

# Events covered by one refill of a replica's buffers: DRAW_BLOCK gaps,
# pick uniforms or churn-flip rows (one uniform per cluster).  Each kind of
# draw has a stream of its own, so the block size changes no drawn value.
DRAW_BLOCK = 64


@dataclass
class Assignment:
    """Band choice per cluster: entries in {1..r}."""

    bands: np.ndarray
    r: int

    def __post_init__(self):
        bands = np.asarray(self.bands, dtype=np.int64).copy()
        if bands.ndim != 1:
            raise ValueError("bands must be a 1-D vector")
        if self.r < 1:
            raise ValueError(f"band count r must be >= 1, got {self.r}")
        if bands.size and (bands.min() < 1 or bands.max() > self.r):
            raise ValueError(f"band entries must lie in 1..{self.r}")
        self.bands = bands

    @property
    def n(self) -> int:
        return self.bands.size

    def copy(self) -> "Assignment":
        return Assignment(self.bands.copy(), self.r)


@dataclass
class ActivityState:
    """Per-cluster on/off indicators."""

    active: np.ndarray

    def __post_init__(self):
        active = np.asarray(self.active, dtype=bool).copy()
        if active.ndim != 1:
            raise ValueError("active must be a 1-D boolean vector")
        self.active = active

    @property
    def n(self) -> int:
        return self.active.size


def all_band_one(n: int, r: int) -> Assignment:
    return Assignment(np.ones(n, dtype=np.int64), r)


def uniform_random_assignment(n: int, r: int, rng: np.random.Generator) -> Assignment:
    return Assignment(rng.integers(1, r + 1, size=n), r)


def all_active(n: int) -> ActivityState:
    return ActivityState(np.ones(n, dtype=bool))


def weight_matrix(top: Topology) -> np.ndarray:
    """Pairwise path-loss weights p0/d^eta with a zero diagonal.

    The matrix is computed once per topology and shared read-only.
    """
    return top.weights


def activity_mask(top: Topology, act: ActivityState | None) -> np.ndarray:
    """Boolean on/off mask of act over top's clusters, all active when act
    is None (do not mutate); raises ValueError unless act has top.n
    entries."""
    if act is None:
        return np.ones(top.n, dtype=bool)
    if act.n != top.n:
        raise ValueError(f"activity length {act.n} != topology size {top.n}")
    return act.active


def check_assignment(top: Topology, asg: Assignment) -> None:
    """Raise ValueError unless asg has one band per cluster of top."""
    if asg.n != top.n:
        raise ValueError(f"assignment length {asg.n} != topology size {top.n}")


def band_interference(top: Topology, asg: Assignment, act: ActivityState | None,
                      i: int, k: int) -> float:
    """Power cluster i would receive on band k from active co-band others."""
    check_assignment(top, asg)
    active = activity_mask(top, act)
    if not 0 <= i < top.n:
        raise ValueError(f"cluster index {i} out of range")
    if not 1 <= k <= asg.r:
        raise ValueError(f"band {k} out of range 1..{asg.r}")
    mask = active & (asg.bands == k)
    mask[i] = False
    return float(weight_matrix(top)[i][mask].sum())


def cluster_interference(top: Topology, asg: Assignment,
                         act: ActivityState | None, i: int) -> float:
    """Interference cluster i experiences on its own band."""
    return band_interference(top, asg, act, i, int(asg.bands[i]))


def aggregate_interference(top: Topology, asg: Assignment,
                           act: ActivityState | None = None) -> float:
    """Sum of cluster_interference over active clusters.

    By reciprocity this is twice the sum over unordered active co-band pairs.
    """
    check_assignment(top, asg)
    active = activity_mask(top, act)
    w = weight_matrix(top)
    co = (asg.bands[:, None] == asg.bands[None, :]) \
        & active[:, None] & active[None, :]
    np.fill_diagonal(co, False)
    return float(w[co].sum())


def worst_case_interference(top: Topology, act: ActivityState | None = None) -> float:
    """Aggregate with every active cluster forced co-band."""
    return aggregate_interference(top, all_band_one(top.n, 1), act)


def _blocks(draw):
    """Endless iterator over the values of draw(DRAW_BLOCK), one block
    after another: the values successive scalar draw() calls on the same
    stream would give, whatever DRAW_BLOCK is."""
    while True:
        yield from draw(DRAW_BLOCK).tolist()


def _pick_uniforms(rng: np.random.Generator):
    # spawned at the first pick, so a cache that never picks leaves rng's
    # seed sequence as it was
    yield from _blocks(rng.spawn(1)[0].random)


class InterferenceCache:
    """Mutable state of one replica: bands, activity, per-cluster per-band
    interference sums with O(N) event updates, the scheduling stream rng,
    the replica's buffered event gaps and picks, and the clock time.

    _band_power[j, k] is the power cluster j would receive on band k+1 from
    the currently active transmitters (excluding j itself, whose weight to
    itself is zero).  Band switches and activity toggles adjust one weight
    column per event, so bands and activity change only through set_band,
    set_active and toggle_active.  The aggregate is kept as a running value:
    by reciprocity a switch of active cluster i changes it by
    2*(P[i,new] - P[i,old]).  Activity changes, single (set_active) or
    batched (toggle_active), and rebuild() re-sum it exactly.

    Poisson events draw in blocks of DRAW_BLOCK, one stream per kind of
    draw: next_gap reads standard exponentials from rng, so rng serves only
    gaps once the first block is drawn; pick_active reads uniforms from a
    child stream spawned from rng at the first pick.  Not thread-safe.
    """

    def __init__(self, top: Topology, asg: Assignment,
                 act: ActivityState | None = None,
                 rng: np.random.Generator | None = None):
        check_assignment(top, asg)
        self.active = activity_mask(top, act).copy()
        self.topology = top
        self.r = asg.r
        self.bands = asg.bands.copy()
        self.rng = rng if rng is not None else np.random.default_rng()
        self._gaps = _blocks(self.rng.standard_exponential)
        self._picks = _pick_uniforms(self.rng)
        self.time = 0.0
        self.weights = weight_matrix(top)
        self._band_power = np.zeros((top.n, asg.r))
        self._idx = np.arange(top.n)
        self.rebuild()

    @property
    def n(self) -> int:
        return self.bands.size

    def rebuild(self) -> None:
        """Full O(N^2) recompute of the cached sums."""
        masked = self.weights * self.active[None, :]
        for k in range(self.r):
            cols = self.bands == k + 1
            self._band_power[:, k] = masked[:, cols].sum(axis=1)
        self._activity_changed()

    def _activity_changed(self) -> None:
        """Drop the cached active set and re-sum the aggregate in O(N)."""
        self._active_idx = None
        self._aggregate = float(np.add.reduce(self.own_band_interference(),
                                              where=self.active))

    def band_powers(self, i: int) -> np.ndarray:
        """All r band sums for cluster i (do not mutate)."""
        return self._band_power[i]

    def band_interference(self, i: int, k: int) -> float:
        return float(self._band_power[i, k - 1])

    def cluster_interference(self, i: int) -> float:
        return float(self._band_power[i, self.bands[i] - 1])

    def own_band_interference(self) -> np.ndarray:
        """Per-cluster interference on each cluster's own band."""
        return self._band_power[self._idx, self.bands - 1]

    def aggregate(self) -> float:
        return self._aggregate

    def active_indices(self) -> np.ndarray:
        """Indices of the active clusters, ascending (do not mutate)."""
        if self._active_idx is None:
            self._active_idx = np.flatnonzero(self.active)
        return self._active_idx

    def next_gap(self, delta_t: float) -> float:
        """Time to the next Poisson event of mean delta_t: delta_t times the
        next standard exponential of rng, bitwise rng.exponential(delta_t)."""
        return delta_t * next(self._gaps)

    def pick_active(self) -> int:
        """Uniformly drawn active cluster active_indices()[floor(u*m)] of
        the m active ones, for the next uniform u of the pick stream; -1
        if none is active.  Every call uses one uniform."""
        u = next(self._picks)
        idx = self.active_indices()
        m = idx.size
        if m == 0:
            return -1
        return int(idx[int(u * m)])

    def set_band(self, i: int, band: int) -> None:
        old = int(self.bands[i])
        if band == old:
            return
        if not 1 <= band <= self.r:
            raise ValueError(f"band {band} out of range 1..{self.r}")
        if self.active[i]:
            row = self._band_power[i]
            self._aggregate += 2.0 * float(row[band - 1] - row[old - 1])
            col = self.weights[:, i]
            self._band_power[:, old - 1] -= col
            self._band_power[:, band - 1] += col
        self.bands[i] = band

    def set_active(self, i: int, on: bool) -> None:
        if bool(self.active[i]) != bool(on):
            self.toggle_active(np.array([i]))

    def toggle_active(self, idx: np.ndarray) -> None:
        """Flip the activity of the clusters at the indices idx (distinct),
        as one batched update of the band sums followed by an exact re-sum
        of the aggregate."""
        if idx.size == 0:
            return
        signed = np.zeros((idx.size, self.r))
        signed[np.arange(idx.size), self.bands[idx] - 1] = \
            np.where(self.active[idx], -1.0, 1.0)
        self._band_power += self.weights[:, idx] @ signed
        self.active[idx] = ~self.active[idx]
        self._activity_changed()

    def assignment(self) -> Assignment:
        return Assignment(self.bands.copy(), self.r)

    def activity(self) -> ActivityState:
        return ActivityState(self.active.copy())
