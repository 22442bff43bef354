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
