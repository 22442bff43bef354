import math

import numpy as np
import pytest

from bandsim.interference import Assignment, all_band_one
from bandsim.metrics import (capacity_comparison, db_gap, shannon_capacity)
from bandsim.oracle import alternating_assignment
from bandsim.topology import make_uniform_linear_array, topology_from_positions


def test_isolated_cluster_capacity():
    # no interferers: log2(1 + S/N0) = log2(1 + 1/0.1) = log2(11)
    top = make_uniform_linear_array(2, 1000.0)
    caps, norm = shannon_capacity(top, Assignment(np.array([1, 2]), 2))
    assert norm == pytest.approx(math.log2(11.0), rel=1e-9)
    assert caps[0] == pytest.approx(math.log2(11.0), rel=1e-9)


def test_capacity_with_interference():
    # two co-band clusters at unit distance: I = 1 each
    top = make_uniform_linear_array(2, 1.0)
    caps, norm = shannon_capacity(top, all_band_one(2, 1))
    expected = math.log2(1.0 + 1.0 / 1.1)
    assert norm == pytest.approx(expected)
    assert np.allclose(caps, expected)


def test_capacity_defaults_follow_p0():
    top = make_uniform_linear_array(2, 1000.0, p0=4.0)
    _, norm = shannon_capacity(top, Assignment(np.array([1, 2]), 2))
    # S = p0, N0 = 0.1 p0: the SNR is p0-invariant
    assert norm == pytest.approx(math.log2(11.0), rel=1e-6)


def test_capacity_explicit_powers():
    top = make_uniform_linear_array(2, 1000.0)
    _, norm = shannon_capacity(top, Assignment(np.array([1, 2]), 2),
                               signal_power=3.0, noise_power=1.0)
    assert norm == pytest.approx(2.0, rel=1e-9)


def test_capacity_inactive_nan_and_exclusion():
    top = make_uniform_linear_array(3, 1.0)
    act = np.array([True, False, True])
    caps, norm = shannon_capacity(top, all_band_one(3, 2), act)
    assert math.isnan(caps[1])
    assert norm == pytest.approx(np.nanmean(caps))
    # all-off network reports zero
    off = np.zeros(3, dtype=bool)
    caps, norm = shannon_capacity(top, all_band_one(3, 2), off)
    assert norm == 0.0
    assert np.isnan(caps).all()


def test_capacity_decreases_with_interference():
    top = make_uniform_linear_array(6, 1.0)
    _, split = shannon_capacity(top, alternating_assignment(6, 2))
    _, jam = shannon_capacity(top, all_band_one(6, 2))
    assert split > jam


def test_capacity_validation():
    top = make_uniform_linear_array(3, 1.0)
    with pytest.raises(ValueError):
        shannon_capacity(top, all_band_one(3, 2), signal_power=0.0)
    with pytest.raises(ValueError):
        shannon_capacity(top, all_band_one(3, 2), noise_power=-1.0)
    with pytest.raises(ValueError):
        shannon_capacity(top, all_band_one(4, 2))


def test_comparison_identical_is_unity():
    top = make_uniform_linear_array(5, 1.0)
    asg = alternating_assignment(5, 2)
    rep = capacity_comparison(top, None, asg, asg)
    assert rep.achieved_fraction == pytest.approx(1.0)
    assert not rep.undefined_fraction
    assert rep.normalized_aggregate == rep.reference_normalized
    assert len(rep.per_cluster) == 5
    assert rep.signal_power == 1.0 and rep.noise_power == pytest.approx(0.1)


def test_comparison_better_reference_below_unity():
    top = make_uniform_linear_array(6, 1.0)
    rep = capacity_comparison(top, None, all_band_one(6, 2),
                              alternating_assignment(6, 2))
    assert rep.achieved_fraction < 1.0


def test_comparison_undefined_when_reference_zero():
    # an all-off network has zero reference capacity
    top = make_uniform_linear_array(3, 1.0)
    off = np.zeros(3, dtype=bool)
    rep = capacity_comparison(top, off, all_band_one(3, 2),
                              alternating_assignment(3, 2))
    assert rep.undefined_fraction
    assert math.isnan(rep.achieved_fraction)


def test_db_gap_values():
    assert db_gap(2.0, 1.0) == pytest.approx(10.0 * math.log10(2.0))
    assert db_gap(1.0, 1.0) == 0.0
    # frozen: a factor 10 is exactly 10 dB, symmetry flips the sign
    assert db_gap(10.0, 1.0) == pytest.approx(10.0)
    assert db_gap(1.0, 10.0) == pytest.approx(-10.0)


def test_db_gap_rejects_nonpositive():
    with pytest.raises(ValueError):
        db_gap(0.0, 1.0)
    with pytest.raises(ValueError):
        db_gap(1.0, -2.0)


def test_capacity_two_dim_topology():
    top = topology_from_positions([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    caps, norm = shannon_capacity(top, Assignment(np.array([1, 1, 2]), 2))
    # cluster 2 is alone on band 2
    assert caps[2] == pytest.approx(math.log2(11.0), rel=1e-9)
    assert caps[0] == pytest.approx(math.log2(1.0 + 1.0 / 1.1))
