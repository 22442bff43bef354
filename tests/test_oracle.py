import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandsim.allocation import run_to_convergence
from bandsim.interference import (ActivityState, Assignment, InterferenceCache,
                                  aggregate_interference, all_band_one,
                                  uniform_random_assignment, weight_matrix)
from bandsim.oracle import (BoundReport, OracleCapacityError,
                            alternating_assignment, alternating_limit,
                            bound_report, brute_force_optimal,
                            canonical_relabel, lattice_reuse_assignment,
                            reference, riemann_zeta)
from bandsim.topology import (make_hexagonal_lattice,
                              make_rectangular_lattice,
                              make_uniform_linear_array,
                              topology_from_positions)

mpmath = pytest.importorskip("mpmath")


def test_zeta_against_mpmath():
    for eta in (1.001, 1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 6.0, 10.0):
        assert riemann_zeta(eta) == pytest.approx(
            float(mpmath.zeta(eta)), rel=1e-14)


def test_zeta_known_values():
    assert riemann_zeta(2.0) == pytest.approx(np.pi ** 2 / 6.0, abs=1e-12)
    assert riemann_zeta(4.0) == pytest.approx(np.pi ** 4 / 90.0, abs=1e-12)


def test_zeta_rejects_divergent_argument():
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
    with pytest.raises(ValueError):
        riemann_zeta(0.5)


def test_alternating_assignment_pattern():
    asg = alternating_assignment(7, 3)
    assert list(asg.bands) == [1, 2, 3, 1, 2, 3, 1]
    assert asg.r == 3
    with pytest.raises(ValueError):
        alternating_assignment(0, 2)
    with pytest.raises(ValueError):
        alternating_assignment(5, 0)


def test_lattice_reuse_patterns():
    cb = lattice_reuse_assignment(2, 3, 2)
    assert list(cb.bands) == [1, 2, 1, 2, 1, 2]
    blocks = lattice_reuse_assignment(2, 2, 4)
    assert sorted(blocks.bands) == [1, 2, 3, 4]
    # 2x2 blocks: no two neighbours share a band on a 4x4 grid
    asg = lattice_reuse_assignment(4, 4, 4)
    grid = asg.bands.reshape(4, 4)
    assert not (grid[:, 1:] == grid[:, :-1]).any()
    assert not (grid[1:, :] == grid[:-1, :]).any()
    with pytest.raises(ValueError):
        lattice_reuse_assignment(4, 4, 3)
    with pytest.raises(ValueError):
        lattice_reuse_assignment(0, 4, 2)


def test_canonical_relabel():
    asg = Assignment(np.array([3, 3, 1, 2, 1]), 3)
    out = canonical_relabel(asg)
    assert list(out.bands) == [1, 1, 2, 3, 2]
    # idempotent and aggregate-preserving
    top = make_uniform_linear_array(5, 1.0)
    assert aggregate_interference(top, out) == pytest.approx(
        aggregate_interference(top, asg))
    assert list(canonical_relabel(out).bands) == list(out.bands)


def test_brute_force_small_line():
    # 5 clusters, unit spacing, r=2: optimum is the alternating pattern,
    # value 2*(2*1/4 + 1/16 + 3/16 + 2/16) = 1.625
    top = make_uniform_linear_array(5, 1.0)
    asg, value = brute_force_optimal(top, None, 2)
    assert value == pytest.approx(1.625, rel=1e-12)
    assert list(canonical_relabel(asg).bands) == [1, 2, 1, 2, 1]


def test_brute_force_matches_exhaustive_python():
    top = topology_from_positions([[0.0, 0.0], [1.0, 0.0], [1.0, 1.3],
                                   [2.1, 0.4]])
    _, value = brute_force_optimal(top, None, 2)
    best = min(aggregate_interference(
        top, Assignment(np.array(code), 2))
        for code in np.ndindex(2, 2, 2, 2)
        for code in [np.array(code) + 1])
    assert value == pytest.approx(best, rel=1e-12)


def test_brute_force_pins_inactive_to_band_one():
    top = make_uniform_linear_array(4, 1.0)
    act = ActivityState(np.array([True, False, True, False]))
    asg, value = brute_force_optimal(top, act, 2)
    assert asg.bands[1] == 1
    assert asg.bands[3] == 1
    # actives at distance 2 split bands to reach zero
    assert value == 0.0


def test_brute_force_guard():
    top = make_uniform_linear_array(30, 1.0)
    with pytest.raises(OracleCapacityError):
        brute_force_optimal(top, None, 2)


def test_brute_force_default_cap_refuses_2_to_the_21_states():
    top = make_uniform_linear_array(21, 1.0)
    with pytest.raises(OracleCapacityError,
                       match=r"2\^21 assignments exceed the cap of 1048576"):
        brute_force_optimal(top, None, 2)


def _enumerated_optimum(top, active, r):
    """Reference oracle: score every assignment of the active clusters in
    lexicographic order and keep the first minimum.

    Same-band pairs are summed in (i, j) index order, as the oracle scores
    its tied candidates, so even exact geometric ties (mirror images on a
    grid) resolve to the same assignment.
    """
    idx = np.flatnonzero(active)
    pair_w = 2.0 * weight_matrix(top)[np.ix_(idx, idx)]
    codes = np.array(list(itertools.product(range(r), repeat=idx.size)),
                     dtype=np.int64).reshape(r ** idx.size, idx.size)
    values = np.zeros(len(codes))
    for i, j in itertools.combinations(range(idx.size), 2):
        values += (codes[:, i] == codes[:, j]) * pair_w[i, j]
    pos = int(np.argmin(values))
    bands = np.ones(top.n, dtype=np.int64)
    bands[idx] = codes[pos] + 1
    return bands, float(values[pos])


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                      min_size=1, max_size=8, unique=True),
       data=st.data(),
       r=st.integers(1, 4),
       eta=st.sampled_from([2.0, 3.0, 4.0]))
def test_brute_force_matches_enumeration(cells, data, r, eta):
    # grid positions make many exact symmetric ties
    top = topology_from_positions(0.5 * np.array(cells, dtype=float), eta=eta)
    active = np.array(data.draw(st.lists(st.booleans(), min_size=top.n,
                                         max_size=top.n)))
    asg, value = brute_force_optimal(top, ActivityState(active), r)
    bands, expected = _enumerated_optimum(top, active, r)
    assert list(asg.bands) == list(bands)
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_brute_force_degenerate_sizes():
    top = make_uniform_linear_array(4, 1.0)
    # m = 0: nothing active
    asg, value = brute_force_optimal(
        top, ActivityState(np.zeros(4, dtype=bool)), 3)
    assert list(asg.bands) == [1, 1, 1, 1] and value == 0.0
    # m = 1: the single active cluster sits on band 1 alone
    asg, value = brute_force_optimal(
        top, ActivityState(np.array([False, False, True, False])), 3)
    assert list(asg.bands) == [1, 1, 1, 1] and value == 0.0
    # more bands than clusters: every cluster gets a band of its own
    asg, value = brute_force_optimal(top, None, 12)
    bands, _ = _enumerated_optimum(top, np.ones(4, dtype=bool), 12)
    assert list(asg.bands) == list(bands) == [1, 2, 3, 4] and value == 0.0
    # r = 1: the only assignment puts every cluster on band 1
    asg, value = brute_force_optimal(top, None, 1)
    assert list(asg.bands) == [1, 1, 1, 1]
    assert value == pytest.approx(
        aggregate_interference(top, all_band_one(4, 1)), rel=1e-12)


def test_brute_force_lattice_label_ties():
    # four bands on a 3x3 grid: every optimum comes in 24 relabelings (and
    # mirror images); the lexicographically smallest one is returned
    top = make_rectangular_lattice(3, 3, 1.0)
    asg, value = brute_force_optimal(top, None, 4)
    assert list(asg.bands) == [1, 2, 1, 3, 4, 3, 2, 1, 2]
    assert value == pytest.approx(3.1, rel=1e-12)
    assert value == pytest.approx(aggregate_interference(top, asg), rel=1e-12)


@pytest.mark.parametrize("make, rows, cols, r", [
    (make_rectangular_lattice, 3, 3, 2),
    (make_hexagonal_lattice, 2, 4, 4),
    (make_hexagonal_lattice, 3, 3, 2),
])
def test_brute_force_lattice_matches_enumeration(make, rows, cols, r):
    # symmetric lattices, where the blocked sums round label-permuted twins
    # differently; only exact re-scoring picks the enumeration's minimizer
    top = make(rows, cols, 1.0)
    asg, value = brute_force_optimal(top, None, r)
    bands, expected = _enumerated_optimum(top, np.ones(top.n, dtype=bool), r)
    assert list(asg.bands) == list(bands)
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_brute_force_never_above_converged_runs():
    # the exhaustive optimum lower-bounds every best-response fixed point
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(4, 11))
        r = int(rng.integers(2, 4))
        for eta in (2.0, 3.0):
            top = make_uniform_linear_array(n, 1.0, eta=eta)
            _, opt = brute_force_optimal(top, None, r)
            state = InterferenceCache(
                top, uniform_random_assignment(n, r, rng),
                rng=np.random.default_rng(int(rng.integers(1 << 30))))
            state, _ = run_to_convergence(state)
            assert opt <= state.aggregate() + 1e-12


def test_alternating_limit_values():
    # r=2, eta=2, p0=1, d=1: 2*zeta(2)/4 = pi^2/12
    assert alternating_limit(2, 2.0) == pytest.approx(
        np.pi ** 2 / 12.0, abs=1e-12)
    assert alternating_limit(2, 3.0) == pytest.approx(
        0.30051422578989856, rel=1e-12)
    # scaling in p0 and d
    assert alternating_limit(2, 2.0, p0=3.0, d=2.0) == pytest.approx(
        3.0 / 4.0 * np.pi ** 2 / 12.0)
    with pytest.raises(ValueError):
        alternating_limit(0, 2.0)
    with pytest.raises(ValueError):
        alternating_limit(2, 2.0, d=0.0)


def test_normalized_optimum_approaches_asymptote():
    # N-normalized exhaustive optima approach 2*zeta(eta)/r^eta from below
    limit = alternating_limit(2, 2.0)
    values = []
    for n in (6, 8, 10, 12):
        top = make_uniform_linear_array(n, 1.0)
        _, opt = brute_force_optimal(top, None, 2)
        values.append(opt / n)
        assert opt / n < limit
    assert values == sorted(values)


def test_bound_report_oracle_branch():
    top = make_uniform_linear_array(8, 1.0)
    state = InterferenceCache(top, all_band_one(8, 2),
                              rng=np.random.default_rng(4))
    state, _ = run_to_convergence(state)
    ref = reference(top, None, 2, d_ref=1.0)
    rep = bound_report(ref, state.assignment())
    assert rep.ref is ref
    assert ref.i_o_kind == "oracle"
    assert ref.top.n == 8 and ref.n_active == 8 and ref.r == 2
    assert rep.upper_bound_ok
    assert rep.ordering_ok
    assert rep.ratio_cap_ok
    assert rep.ratio_aw == pytest.approx(rep.i_a / ref.i_w)
    assert rep.ratio_ao >= 1.0
    assert ref.gap_convention == "adjacent"
    assert ref.limit == pytest.approx(np.pi ** 2 / 12.0, abs=1e-12)
    d = rep.to_dict()
    assert d["i_a"] == rep.i_a and d["upper_bound_ok"] is True


def test_bound_report_reference_branch():
    # 40 clusters: 2^40 exceeds the oracle cap, alternating fallback kicks in
    top = make_uniform_linear_array(40, 1.0)
    state = InterferenceCache(top, all_band_one(40, 2),
                              rng=np.random.default_rng(4))
    state, _ = run_to_convergence(state)
    rep = bound_report(reference(top, None, 2, d_ref=1.0), state.assignment())
    assert rep.ref.i_o_kind == "reference"
    assert rep.ref.i_o == pytest.approx(aggregate_interference(
        top, alternating_assignment(40, 2)))
    assert rep.ordering_ok is None
    assert rep.upper_bound_ok


def test_bound_report_supplied_reference():
    top = make_rectangular_lattice(5, 5, 1.0)
    state = InterferenceCache(top, all_band_one(25, 2),
                              rng=np.random.default_rng(4))
    state, _ = run_to_convergence(state)
    ref = reference(top, None, 2, d_ref=1.0, lattice=(5, 5))
    rep = bound_report(ref, state.assignment())
    assert ref.kind == "reuse_1_2"
    assert ref.aggregate == aggregate_interference(
        top, lattice_reuse_assignment(5, 5, 2))
    assert rep.ref.i_o_kind == "reference"
    assert rep.ref.gap_convention.startswith("none")
    assert rep.ref.ratio_cap == pytest.approx(2.0)
    assert rep.ref.limit is None


def test_bound_report_worst_case_upper_bound():
    # an r-band fixed point sits at or below I_w / r
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(5, 12))
        r = int(rng.integers(2, 5))
        top = make_uniform_linear_array(n, 1.0)
        state = InterferenceCache(
            top, uniform_random_assignment(n, r, rng),
            rng=np.random.default_rng(int(rng.integers(1 << 30))))
        state, _ = run_to_convergence(state)
        rep = bound_report(reference(top, None, r, d_ref=1.0),
                           state.assignment())
        assert rep.upper_bound_ok
        assert rep.i_a <= rep.ref.i_w / r + 1e-9


def test_bound_report_is_pure_reporting():
    # a deliberately bad assignment flips flags instead of raising
    top = make_uniform_linear_array(6, 1.0)
    rep = bound_report(reference(top, None, 2, d_ref=1.0), all_band_one(6, 2))
    assert not rep.upper_bound_ok
    assert isinstance(rep, BoundReport)
