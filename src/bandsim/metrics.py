"""Link-quality metrics: per-cluster Shannon capacity and reference gaps.

Capacity is log2(1 + S/(N0 + I_i)) per active cluster; S defaults to the
topology's p0 (unit-distance intra-cluster link) and N0 to 0.1*p0.  Both
are free parameters of the model and are echoed in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .interference import (ActivityState, Assignment, activity_mask,
                           check_assignment, weight_matrix)
from .topology import Topology

__all__ = [
    "CapacityReport",
    "link_powers",
    "link_capacity",
    "shannon_capacity",
    "capacity_comparison",
    "capacity_fraction",
    "db_gap",
]


@dataclass
class CapacityReport:
    """Capacity of an assignment next to a reference assignment.

    per_cluster has one entry per cluster; inactive clusters hold NaN and
    are excluded from the normalization.  achieved_fraction is NaN when the
    reference capacity is zero (undefined_fraction set).
    """

    per_cluster: list
    normalized_aggregate: float
    reference_normalized: float
    achieved_fraction: float
    undefined_fraction: bool
    signal_power: float
    noise_power: float

    def to_dict(self) -> dict:
        return asdict(self)


def _per_cluster_interference(top: Topology, asg: Assignment,
                              active: np.ndarray) -> np.ndarray:
    w = weight_matrix(top)
    co = (asg.bands[:, None] == asg.bands[None, :]) & active[None, :]
    np.fill_diagonal(co, False)
    return (w * co).sum(axis=1)


def link_powers(top: Topology, signal_power: float | None = None,
                noise_power: float | None = None) -> tuple[float, float]:
    """(S, N0) with the defaults S = p0 and N0 = 0.1*p0; both must be > 0."""
    if signal_power is None:
        signal_power = top.p0
    if noise_power is None:
        noise_power = 0.1 * top.p0
    if not (signal_power > 0):
        raise ValueError(f"signal_power must be > 0, got {signal_power}")
    if not (noise_power > 0):
        raise ValueError(f"noise_power must be > 0, got {noise_power}")
    return signal_power, noise_power


def link_capacity(interference: np.ndarray, signal_power: float,
                  noise_power: float) -> np.ndarray:
    """log2(1 + S/(N0 + I)) per entry of the interference array I."""
    return np.log2(1.0 + signal_power / (noise_power + interference))


def shannon_capacity(top: Topology, asg: Assignment,
                     act: ActivityState | None = None,
                     signal_power: float | None = None,
                     noise_power: float | None = None
                     ) -> tuple[np.ndarray, float]:
    """(per-cluster capacities, mean capacity per active cluster).

    Inactive clusters get NaN and do not count in the mean.
    """
    signal_power, noise_power = link_powers(top, signal_power, noise_power)
    check_assignment(top, asg)
    active = activity_mask(top, act)
    caps = link_capacity(_per_cluster_interference(top, asg, active),
                         signal_power, noise_power)
    caps[~active] = np.nan
    if active.any():
        normalized = float(caps[active].mean())
    else:
        normalized = 0.0
    return caps, normalized


def capacity_comparison(top: Topology, act: ActivityState | None,
                        algo_asg: Assignment, reference_asg: Assignment,
                        signal_power: float | None = None,
                        noise_power: float | None = None) -> CapacityReport:
    """Normalized capacity of an assignment relative to a reference."""
    signal_power, noise_power = link_powers(top, signal_power, noise_power)
    caps, normalized = shannon_capacity(top, algo_asg, act,
                                        signal_power, noise_power)
    _, ref_normalized = shannon_capacity(top, reference_asg, act,
                                         signal_power, noise_power)
    return CapacityReport(
        per_cluster=[float(c) for c in caps],
        normalized_aggregate=normalized,
        reference_normalized=ref_normalized,
        achieved_fraction=capacity_fraction(normalized, ref_normalized),
        undefined_fraction=ref_normalized == 0.0,
        signal_power=float(signal_power),
        noise_power=float(noise_power))


def capacity_fraction(normalized: float, ref_normalized: float) -> float:
    """Normalized capacity over the reference's; NaN when the reference
    capacity is zero."""
    return math.nan if ref_normalized == 0.0 else normalized / ref_normalized


def db_gap(i_a: float, i_ref: float) -> float:
    """10*log10(i_a/i_ref); both inputs must be positive."""
    if not (i_a > 0 and i_ref > 0):
        raise ValueError(
            f"db_gap needs positive powers, got i_a={i_a}, i_ref={i_ref}")
    return 10.0 * math.log10(i_a / i_ref)
