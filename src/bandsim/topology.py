"""Cluster geometry: linear arrays, lattices, random placements.

A Topology is an immutable set of cluster positions with a precomputed dense
distance matrix and the path-loss parameters attached.  O(N^2) memory is
deliberate: the update inner loops need O(1) distance lookups and N stays in
the thousands at most.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Topology",
    "TopologyError",
    "make_uniform_linear_array",
    "make_random_linear_array",
    "make_rectangular_lattice",
    "make_hexagonal_lattice",
    "topology_from_positions",
    "topology_to_json",
    "topology_from_json",
    "save_topology",
    "load_topology",
]

# Rejection-sampling retry cap for random linear arrays.
MAX_PLACEMENT_RETRIES = 10_000


class TopologyError(ValueError):
    """Invalid geometry parameters or an infeasible placement."""


@dataclass(frozen=True)
class Topology:
    """Immutable cluster placement.

    positions : (n, dim) array, dim 1 or 2
    dist      : (n, n) symmetric distance matrix, zero diagonal
    p0        : reference received power at unit distance, > 0
    eta       : path-loss exponent, >= 1
    min_sep   : smallest pairwise distance (inf for a single cluster)

    The path-loss weight matrix is derived from these on first use and
    kept with the topology (see ``weights``).
    """

    positions: np.ndarray
    dist: np.ndarray
    p0: float
    eta: float
    min_sep: float

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only path-loss weights p0/dist**eta with a zero diagonal,
        computed once per topology."""
        with np.errstate(divide="ignore"):
            w = self.p0 / self.dist ** self.eta
        np.fill_diagonal(w, 0.0)
        w.setflags(write=False)
        return w


def _pairwise_distances(positions: np.ndarray) -> np.ndarray:
    if positions.shape[1] == 1:
        x = positions[:, 0]
        return np.abs(x[:, None] - x[None, :])
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _build(positions: np.ndarray, p0: float, eta: float,
           dist: np.ndarray | None = None) -> Topology:
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] not in (1, 2):
        raise TopologyError("positions must be an (n, 1) or (n, 2) array")
    n = positions.shape[0]
    if n < 1:
        raise TopologyError("at least one cluster required")
    if not (p0 > 0):
        raise TopologyError(f"p0 must be > 0, got {p0}")
    if not (eta >= 1):
        raise TopologyError(f"eta must be >= 1, got {eta}")
    if dist is None:
        dist = _pairwise_distances(positions)
    off_diag = dist[~np.eye(n, dtype=bool)]
    min_sep = float(off_diag.min()) if off_diag.size else math.inf
    if off_diag.size and min_sep <= 0:
        raise TopologyError("coincident clusters (zero pairwise distance)")
    positions.setflags(write=False)
    dist.setflags(write=False)
    return Topology(positions, dist, float(p0), float(eta), min_sep)


def topology_from_positions(positions, p0: float = 1.0, eta: float = 2.0) -> Topology:
    """Build a Topology from explicit coordinates (list of 1-D or 2-D points)."""
    return _build(np.asarray(positions, dtype=float), p0, eta)


def make_uniform_linear_array(n: int, d: float, p0: float = 1.0,
                              eta: float = 2.0) -> Topology:
    """Collinear clusters at 0, d, 2d, ..., (n-1)d.

    dist[i][j] equals |i-j|*d exactly (computed from integer index gaps, not
    from coordinate differences).
    """
    if n < 2:
        raise TopologyError(f"uniform linear array needs n >= 2, got {n}")
    if not (d > 0):
        raise TopologyError(f"spacing d must be > 0, got {d}")
    idx = np.arange(n)
    positions = (idx * d).reshape(n, 1).astype(float)
    dist = np.abs(idx[:, None] - idx[None, :]) * float(d)
    return _build(positions, p0, eta, dist=dist)


def make_random_linear_array(n: int, d: float, min_sep: float,
                             rng: np.random.Generator, p0: float = 1.0,
                             eta: float = 2.0) -> Topology:
    """Random collinear placement on [0, (n-1)d] with endpoints pinned.

    First cluster at 0, last at (n-1)d, interior points uniform, resampled
    until every pairwise gap is >= min_sep (cap MAX_PLACEMENT_RETRIES).
    Deterministic for a given generator state.
    """
    if n < 2:
        raise TopologyError(f"random linear array needs n >= 2, got {n}")
    if not (d > 0):
        raise TopologyError(f"mean spacing d must be > 0, got {d}")
    if not (min_sep > 0):
        raise TopologyError(f"min_sep must be > 0, got {min_sep}")
    span = (n - 1) * d
    if n * min_sep > span + min_sep:
        raise TopologyError(
            f"infeasible packing: {n} clusters with min_sep={min_sep} "
            f"do not fit in [0, {span}]")
    if n == 2:
        return topology_from_positions([[0.0], [span]], p0, eta)
    for _ in range(MAX_PLACEMENT_RETRIES):
        interior = np.sort(rng.uniform(0.0, span, size=n - 2))
        xs = np.concatenate(([0.0], interior, [span]))
        if np.diff(xs).min() >= min_sep:
            return topology_from_positions(xs.reshape(n, 1), p0, eta)
    raise TopologyError(
        f"no feasible placement found in {MAX_PLACEMENT_RETRIES} attempts "
        f"(n={n}, d={d}, min_sep={min_sep})")


def make_rectangular_lattice(rows: int, cols: int, d: float, p0: float = 1.0,
                             eta: float = 2.0) -> Topology:
    """Integer lattice: position (row*d, col*d), row-major cluster order."""
    _check_lattice(rows, cols, d)
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    positions = np.stack([c.ravel() * d, r.ravel() * d], axis=1).astype(float)
    return _build(positions, p0, eta)


def make_hexagonal_lattice(rows: int, cols: int, d: float, p0: float = 1.0,
                           eta: float = 2.0) -> Topology:
    """Triangular lattice via offset rows: odd rows shifted by d/2, row pitch
    d*sqrt(3)/2, so nearest-neighbor distance is d."""
    _check_lattice(rows, cols, d)
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    x = c.ravel() * d + (r.ravel() % 2) * (d / 2.0)
    y = r.ravel() * (d * math.sqrt(3.0) / 2.0)
    return _build(np.stack([x, y], axis=1), p0, eta)


def _check_lattice(rows: int, cols: int, d: float) -> None:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError(f"degenerate lattice size {rows}x{cols}")
    if not (d > 0):
        raise TopologyError(f"spacing d must be > 0, got {d}")


def topology_to_json(top: Topology) -> str:
    """Serialize as {"positions": [[...], ...], "p0": f, "eta": f}.

    The distance matrix is never stored; it is recomputed on load.
    """
    doc = {
        "positions": [[float(v) for v in row] for row in top.positions],
        "p0": top.p0,
        "eta": top.eta,
    }
    return json.dumps(doc, sort_keys=True)


def topology_from_json(text: str) -> Topology:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyError(f"invalid topology JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TopologyError("topology JSON must be an object")
    for key in ("positions", "p0", "eta"):
        if key not in doc:
            raise TopologyError(f"topology JSON missing '{key}'")
    positions = doc["positions"]
    if (not isinstance(positions, list) or not positions
            or not all(isinstance(p, list) for p in positions)):
        raise TopologyError("'positions' must be a non-empty list of coordinate lists")
    width = len(positions[0])
    if any(len(p) != width for p in positions):
        raise TopologyError("all positions must have the same dimension")
    return topology_from_positions(positions, doc["p0"], doc["eta"])


def save_topology(top: Topology, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(topology_to_json(top))
        fh.write("\n")


def load_topology(path) -> Topology:
    with open(path, encoding="utf-8") as fh:
        return topology_from_json(fh.read())
