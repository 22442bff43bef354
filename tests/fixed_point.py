"""One best-response certificate for tests, recomputed from the geometry."""

import numpy as np

from bandsim.allocation import REL_TOL

from reference import path_loss_weights


def fixed_point(top, bands, active, r) -> tuple[bool, float]:
    """(certified, margin) of the labeling bands (1..r) under the activity
    mask active, with the weights recomputed from the positions, p0 and eta
    rather than read from a cache or the topology.  certified: no active
    cluster could lower its interference by more than REL_TOL times its
    current level.  margin: the smallest gap, over active clusters, from a
    cluster's own band power up to any other band's (inf when none)."""
    w = path_loss_weights(top)
    cols = np.asarray(bands)[:, None] == np.arange(1, r + 1)[None, :]
    powers = w @ (cols & active[:, None])
    level = powers[cols]
    fixed = level - powers.min(axis=1) <= REL_TOL * level
    margin = np.where(cols, np.inf, powers).min(axis=1) - level
    return (bool(fixed[active].all()),
            float(margin[active].min(initial=np.inf)))
