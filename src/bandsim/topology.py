"""Cluster geometry: linear arrays, lattices, random placements.

A Topology is an immutable set of cluster positions with the path-loss
parameters and one dense N x N weight matrix, which the update loops read.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "TopologyError",
    "make_uniform_linear_array",
    "make_random_linear_array",
    "make_rectangular_lattice",
    "make_hexagonal_lattice",
    "topology_from_positions",
    "topology_from_json",
    "load_topology",
]

# Rejection-sampling retry cap for random linear arrays.
MAX_PLACEMENT_RETRIES = 10_000


class TopologyError(ValueError):
    """Invalid geometry parameters or an infeasible placement."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable cluster placement.

    positions : (n, dim) array, dim 1 or 2
    weights   : (n, n) path-loss weights p0/dist**eta, zero diagonal
    p0        : reference received power at unit distance, > 0
    eta       : path-loss exponent, >= 1

    Both arrays are read-only; the weights are checked to stay in the float
    range.  They are exactly symmetric, w[i, j] == w[j, i] bit for bit,
    because the distances are: floating-point a - b is exactly -(b - a), so
    a distance and its mirror square and sum the same values.
    InterferenceCache relies on this when it reads rows for columns.
    """

    positions: np.ndarray
    weights: np.ndarray
    p0: float
    eta: float

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def dist(self) -> np.ndarray:
        """Pairwise distances, recomputed from the positions on each read
        (a ULA's weights use exact index gaps |i-j|*d instead)."""
        return _pairwise_distances(self.positions)


def _pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """|x_i - x_j| in 1-D, else the root of the summed squares, in a new
    array."""
    x = positions[:, 0]
    dist = np.subtract.outer(x, x)
    if positions.shape[1] == 1:
        return np.abs(dist, out=dist)
    dist *= dist
    y = positions[:, 1]
    dy = np.subtract.outer(y, y)
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def _build(positions, p0: float, eta: float,
           dist: np.ndarray | None = None) -> Topology:
    # a copy, so no array of the caller's can move the frozen positions; a
    # given dist is a new float64 array that becomes the weights in place
    positions = np.array(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] not in (1, 2):
        raise TopologyError("positions must be an (n, 1) or (n, 2) array")
    n = positions.shape[0]
    if n < 1:
        raise TopologyError("at least one cluster required")
    if not np.isfinite(positions).all():
        raise TopologyError("positions must be finite")
    if not (0 < p0 < math.inf):
        raise TopologyError(f"p0 must be finite and > 0, got {p0}")
    if not (1 <= eta < math.inf):
        raise TopologyError(f"eta must be finite and >= 1, got {eta}")
    p0, eta = float(p0), float(eta)
    w = _pairwise_distances(positions) if dist is None else dist
    farthest = w.max()
    # an infinite self-distance gives the exact zero self-weight below
    np.fill_diagonal(w, math.inf)
    if not w.min() > 0:
        raise TopologyError("coincident clusters (zero pairwise distance)")
    # every aggregate is a partial sum of the weights: a finite total keeps
    # them all finite, and a positive farthest weight keeps each pair in
    with np.errstate(over="ignore", divide="ignore"):
        if n > 1 and not (p0 / farthest ** eta > 0):
            raise TopologyError(
                f"path-loss weight p0/dist**eta underflows to 0 at the "
                f"largest distance {float(farthest)}")
        w **= eta
        np.divide(p0, w, out=w)
        if not np.isfinite(w.sum()):
            raise TopologyError(
                "path-loss weights p0/dist**eta sum beyond the float range")
    positions.setflags(write=False)
    w.setflags(write=False)
    return Topology(positions, w, p0, eta)


def topology_from_positions(positions, p0: float = 1.0, eta: float = 2.0) -> Topology:
    """Build a Topology from explicit coordinates (list of 1-D or 2-D points)."""
    return _build(positions, p0, eta)


def make_uniform_linear_array(n: int, d: float, p0: float = 1.0,
                              eta: float = 2.0) -> Topology:
    """Collinear clusters at 0, d, 2d, ..., (n-1)d.

    Weight w[i][j] is p0/(|i-j|*d)**eta with |i-j|*d exact: the distance is
    computed from integer index gaps, not from coordinate differences.
    """
    if n < 2:
        raise TopologyError(f"uniform linear array needs n >= 2, got {n}")
    if not (d > 0):
        raise TopologyError(f"spacing d must be > 0, got {d}")
    _check_size(n)
    idx = np.arange(n)
    positions = (idx * d).reshape(n, 1).astype(float)
    dist = _pairwise_distances(idx.reshape(n, 1).astype(float))
    dist *= d
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
    _check_size(n)
    span = (n - 1) * d
    if n * min_sep > span + min_sep:
        raise TopologyError(
            f"infeasible packing: {n} clusters with min_sep={min_sep} "
            f"do not fit in [0, {span}]")
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
    _check_size(rows * cols)


def _check_size(n: int) -> None:
    """Reject n clusters whose n x n float64 matrices numpy cannot hold."""
    if n * n * 8 > np.iinfo(np.intp).max:
        raise TopologyError(
            "too many clusters: an n x n float64 matrix exceeds the largest "
            "array numpy can hold")


def _beyond_float(v) -> bool:
    """An int that would overflow when converted to float."""
    return type(v) is int and abs(v) > sys.float_info.max


def topology_from_json(text: str) -> Topology:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyError(f"invalid topology JSON: {exc}") from exc
    except ValueError as exc:
        # an integer literal past Python's int-to-string digit limit
        raise TopologyError(
            f"invalid topology JSON: {str(exc).split(';')[0]}") from exc
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
    # JSON numbers load as int or float; true and false are not numbers
    if any(type(v) not in (int, float) for p in positions for v in p):
        raise TopologyError("positions must hold numbers")
    if any(_beyond_float(v) for p in positions for v in p):
        raise TopologyError("positions must lie within the float range")
    for key in ("p0", "eta"):
        if type(doc[key]) not in (int, float):
            raise TopologyError(f"'{key}' must be a number, got {doc[key]!r}")
        if _beyond_float(doc[key]):
            raise TopologyError(f"'{key}' must lie within the float range")
    return topology_from_positions(positions, doc["p0"], doc["eta"])


def load_topology(path) -> Topology:
    try:
        with open(path, encoding="utf-8") as fh:
            return topology_from_json(fh.read())
    except UnicodeDecodeError as exc:
        raise TopologyError(f"not UTF-8 ({exc.reason})") from exc
