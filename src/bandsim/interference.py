"""Path-loss interference under a band assignment and activity pattern.

Conventions, used everywhere downstream:
  * weight of an active transmitter j at receiver i is p0 / dist[i][j]**eta;
  * inactive clusters neither radiate nor count as receivers in aggregates;
  * every per-band quantity excludes the receiving cluster's own emission.

Plain functions recompute from scratch (the O(N^2) oracle path); the
InterferenceCache is the mutable state of one simulated replica and holds
nothing else.  It keeps per-cluster per-band sums updated in O(N) per band
switch and O(N*k) per event that flips k clusters, and the aggregate
updated in O(1) per switch.  Its build peaks at one N x N array beyond the
topology's weights.  A start cache, built without a stream, only seeds the
replicas that run copies of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Topology

__all__ = [
    "Assignment",
    "all_band_one",
    "uniform_random_assignment",
    "activity_mask",
    "check_assignment",
    "weight_matrix",
    "aggregate_interference",
    "worst_case_interference",
    "DRAW_BLOCK",
    "InterferenceCache",
]

# The fewest events an engine reads ahead at a time.  Each kind of draw has
# a stream of its own, so the block size changes no drawn value.
DRAW_BLOCK = 64


@dataclass(eq=False)
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


def all_band_one(n: int, r: int) -> Assignment:
    return Assignment(np.ones(n, dtype=np.int64), r)


def uniform_random_assignment(n: int, r: int, rng: np.random.Generator) -> Assignment:
    return Assignment(rng.integers(1, r + 1, size=n), r)


def weight_matrix(top: Topology) -> np.ndarray:
    """Pairwise path-loss weights p0/d^eta with a zero diagonal.

    The matrix is computed once per topology and shared read-only.
    """
    return top.weights


def activity_mask(top: Topology, act: np.ndarray | None) -> np.ndarray:
    """The per-cluster on/off indicators act cast to bool, all active when
    act is None.  The result may share memory with act: do not mutate it.
    Raises ValueError unless act is 1-D with top.n entries."""
    if act is None:
        return np.ones(top.n, dtype=bool)
    mask = np.asarray(act, dtype=bool)
    if mask.ndim != 1:
        raise ValueError("active must be a 1-D boolean vector")
    if mask.size != top.n:
        raise ValueError(
            f"activity length {mask.size} != topology size {top.n}")
    return mask


def check_assignment(top: Topology, asg: Assignment) -> None:
    """Raise ValueError unless asg has one band per cluster of top."""
    if asg.n != top.n:
        raise ValueError(f"assignment length {asg.n} != topology size {top.n}")


def aggregate_interference(top: Topology, asg: Assignment,
                           act: np.ndarray | None = None) -> float:
    """Sum over active clusters of the power each receives on its own band
    from active co-band others.

    By reciprocity this is twice the sum over unordered active co-band pairs.
    """
    check_assignment(top, asg)
    active = activity_mask(top, act)
    w = weight_matrix(top)
    co = (asg.bands[:, None] == asg.bands[None, :]) \
        & active[:, None] & active[None, :]
    np.fill_diagonal(co, False)
    return float(w[co].sum())


def worst_case_interference(top: Topology,
                            act: np.ndarray | None = None) -> float:
    """Aggregate with every active cluster forced co-band."""
    return aggregate_interference(top, all_band_one(top.n, 1), act)


class InterferenceCache:
    """Mutable state of one replica: the band vector bands, the activity
    mask active (a copy of act), per-cluster per-band interference sums with
    O(N) event updates, the scheduling stream rng and the clock time.

    _band_power[j, k] is the power cluster j would receive on band k+1 from
    the currently active transmitters (excluding j itself, whose weight to
    itself is zero).  Bands change only through set_band, which adjusts two
    band columns by the switching cluster's weight row and keeps the
    per-band state in step: the signed band table _signed and the flat
    index _own of each cluster's own-band sum in _band_power.  Row j of
    _signed's upper half is j's one-hot band row; row j + N of its lower
    half is that row negated, -0.0 where the one-hot holds 0.0, so it
    equals onehot[j] * -1.0 bit for bit.  Activity changes only through
    apply_flips, which adds the flipped clusters' weights in one product
    with their signed band rows, O(N*k*r) for k flips, and adopts the new
    mask; set_active flips one cluster through it.  The aggregate is kept
    as a running value: by reciprocity a switch of active cluster i changes
    it by 2*(P[i,new] - P[i,old]).  Activity changes and rebuild() re-sum it
    exactly.

    A block of Poisson events draws its gaps from rng (which then serves
    only gaps) and its pick uniforms from pick_uniforms, which picks_of maps
    to active clusters; the engines draw the events they read, no more.
    Without rng the cache holds no stream (rng is None) and no engine runs
    on it: it is a start, and copy(rng) starts a replica from its state on
    a stream of the replica's own.  Not thread-safe.
    """

    def __init__(self, top: Topology, asg: Assignment,
                 act: np.ndarray | None = None,
                 rng: np.random.Generator | None = None):
        check_assignment(top, asg)
        self.active = activity_mask(top, act).copy()
        self.topology = top
        self.r = asg.r
        self.bands = asg.bands.copy()
        self._start(rng)
        self.weights = weight_matrix(top)
        self._band_power = np.zeros((top.n, asg.r))
        self.rebuild()

    def _start(self, rng: np.random.Generator | None) -> None:
        """Take rng as the scheduling stream (None for none), with no pick
        stream yet and the clock at 0."""
        self.rng = rng
        self._pick_rng = None
        self.time = 0.0

    def copy(self, rng: np.random.Generator) -> "InterferenceCache":
        """A new replica at time 0 that starts from this cache's state:
        its bands, activity, band sums, signed band table, own-band index
        and aggregate, bit for bit, with the scheduling stream rng as
        __init__ attaches it.  The weights and the topology are shared, and
        this cache is left as it was.  A copy of a fresh build is what a
        fresh build gives, without its O(N^2) rebuild()."""
        new = InterferenceCache.__new__(InterferenceCache)
        new.active = self.active.copy()
        new.topology = self.topology
        new.r = self.r
        new.bands = self.bands.copy()
        new._start(rng)
        new.weights = self.weights
        new._band_power = self._band_power.copy()
        new._signed = self._signed.copy()
        new._own = self._own.copy()
        new._aggregate = self._aggregate
        return new

    @property
    def n(self) -> int:
        return self.bands.size

    def rebuild(self) -> None:
        """Full O(N^2) recompute of the cached sums and per-band state, at
        a peak of one N x N temporary."""
        n = self.n
        idx = np.arange(n)
        self._signed = np.zeros((2 * n, self.r))
        self._signed[idx, self.bands - 1] = 1.0
        np.negative(self._signed[:n], out=self._signed[n:])
        self._own = idx * self.r + self.bands - 1
        for k in range(self.r):
            cols = self.bands == k + 1
            # a gathered copy of band k's weight columns, times their
            # activity in place: at most one N x N temporary
            gathered = self.weights[:, cols]
            gathered *= self.active[cols]
            self._band_power[:, k] = gathered.sum(axis=1)
        self._sum_aggregate()

    def _sum_aggregate(self) -> None:
        """Re-sum the aggregate exactly, in O(N)."""
        self._aggregate = float(np.add.reduce(self.own_band_interference(),
                                              where=self.active))

    def own_band_interference(self) -> np.ndarray:
        """Per-cluster interference on each cluster's own band."""
        return self._band_power.take(self._own)

    def aggregate(self) -> float:
        return self._aggregate

    def event_times(self, gaps: np.ndarray) -> np.ndarray:
        """The values `time += gap` reaches for each gap in turn, bit for
        bit, as accumulate adds left to right; gaps is overwritten."""
        gaps[0] += self.time
        return np.add.accumulate(gaps, out=gaps)

    def pick_uniforms(self, k: int) -> np.ndarray:
        """The next k pick uniforms, from a child stream of rng spawned at
        the first pick, so a cache that never picks leaves rng's seed
        sequence as it was."""
        if self._pick_rng is None:
            self._pick_rng = self.rng.spawn(1)[0]
        return self._pick_rng.random(k)

    def picks_of(self, u: np.ndarray) -> list[int]:
        """The floor(u*m)-th of the m active clusters, ascending, for each
        uniform in u; -1 for each when none is active."""
        idx = np.flatnonzero(self.active)
        if not idx.size:
            return [-1] * u.size
        return idx[(u * idx.size).astype(np.int64)].tolist()

    def set_band(self, i: int, band: int) -> None:
        old = self.bands.item(i)
        if band == old:
            return
        if not 1 <= band <= self.r:
            raise ValueError(f"band {band} out of range 1..{self.r}")
        if self.active.item(i):
            row = self._band_power[i]
            self._aggregate += 2.0 * (row.item(band - 1) - row.item(old - 1))
            # W is symmetric, so row i holds the weights of column i
            w = self.weights[i]
            self._band_power[:, old - 1] -= w
            self._band_power[:, band - 1] += w
        self.bands[i] = band
        signed = self._signed
        signed[i, old - 1] = 0.0
        signed[i, band - 1] = 1.0
        signed[i + self.n, old - 1] = -0.0
        signed[i + self.n, band - 1] = -1.0
        self._own[i] += band - old

    def apply_flips(self, idx: np.ndarray, rows: np.ndarray,
                    mask: np.ndarray) -> None:
        """Flip the activity of the distinct clusters idx: rows[k] is
        idx[k]'s row in _signed, idx[k] where it turns on and idx[k] + N
        where it turns off, and mask is the activity after the flips,
        adopted as it is (the caller must not mutate it afterwards).  The
        band sums gain W[:, idx] @ _signed[rows], the k flipped weight
        columns times their signed band rows, in one product, O(N*k*r);
        the aggregate is re-summed exactly."""
        # the product's last bits depend on its operands' memory layout.
        # W is exactly symmetric (Topology.weights), so the transposed row
        # gather holds the values of the column gather W[:, idx] in the same
        # Fortran layout, and BLAS gets the same call on the same operands
        self._band_power += self.weights.take(idx, axis=0).T \
            @ self._signed.take(rows, axis=0)
        self.active = mask
        self._sum_aggregate()

    def set_active(self, i: int, on: bool) -> None:
        """Turn cluster i on or off as a one-flip apply_flips update."""
        on = bool(on)
        if self.active.item(i) != on:
            mask = self.active.copy()
            mask[i] = on
            self.apply_flips(np.array([i]),
                             np.array([i if on else i + self.n]), mask)

    def assignment(self) -> Assignment:
        return Assignment(self.bands.copy(), self.r)
