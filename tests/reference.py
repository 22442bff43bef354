"""Independent references that tests compare the library against."""

import numpy as np

from bandsim.interference import (Assignment, activity_mask,
                                  check_assignment, weight_matrix)
from bandsim.topology import Topology


def band_interference(top: Topology, asg: Assignment, act: np.ndarray | None,
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


def pairwise_distances(positions, ula_spacing: float | None = None
                       ) -> np.ndarray:
    """Distances |i-j|*d from integer index gaps on a uniform linear array
    of spacing d (`ula_spacing`), else the root of the summed squared
    coordinate differences."""
    positions = np.asarray(positions, dtype=float)
    if ula_spacing is not None:
        idx = np.arange(len(positions))
        return np.abs(idx[:, None] - idx[None, :]) * float(ula_spacing)
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def path_loss_weights(top: Topology, ula_spacing: float | None = None
                      ) -> np.ndarray:
    """p0/dist**eta with a zero diagonal, dist from pairwise_distances."""
    dist = pairwise_distances(top.positions, ula_spacing)
    with np.errstate(divide="ignore"):
        w = top.p0 / dist ** top.eta
    np.fill_diagonal(w, 0.0)
    return w


def nearest_pair_distance(top: Topology) -> float:
    """Smallest distance between two clusters (inf for a single one)."""
    dist = pairwise_distances(top.positions)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def canonical_relabel(asg: Assignment) -> Assignment:
    """Relabel bands by first occurrence so equivalent assignments compare
    equal (band names carry no physics)."""
    mapping: dict[int, int] = {}
    out = np.empty_like(asg.bands)
    for pos, b in enumerate(asg.bands):
        key = int(b)
        if key not in mapping:
            mapping[key] = len(mapping) + 1
        out[pos] = mapping[key]
    return Assignment(out, asg.r)
