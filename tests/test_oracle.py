import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bandsim.allocation import run_to_convergence
from bandsim.interference import (Assignment, InterferenceCache,
                                  aggregate_interference, all_band_one,
                                  uniform_random_assignment, weight_matrix)
from bandsim.oracle import (BoundReport, OracleCapacityError,
                            alternating_assignment, alternating_limit,
                            bound_report, brute_force_optimal,
                            lattice_reuse_assignment, reference,
                            riemann_zeta)
from bandsim.oracle import _BLOCK_TERMS, _pair_sums
from bandsim.topology import (make_hexagonal_lattice,
                              make_rectangular_lattice,
                              make_uniform_linear_array,
                              topology_from_positions)

from fixed_point import fixed_point
from reference import canonical_relabel, pairwise_distances

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
    with pytest.raises(ValueError, match="lattice kind"):
        lattice_reuse_assignment(4, 4, 4, "square")


def _min_coband_distance(top, asg):
    co = asg.bands[:, None] == asg.bands[None, :]
    np.fill_diagonal(co, False)
    return float(pairwise_distances(top.positions)[co].min())


@pytest.mark.parametrize("make,lattice,r,spacing", [
    (make_rectangular_lattice, "rect", 2, np.sqrt(2.0)),
    (make_rectangular_lattice, "rect", 4, 2.0),
    (make_hexagonal_lattice, "hex", 4, 2.0),
])
def test_lattice_reuse_coband_distance(make, lattice, r, spacing):
    # the nearest co-band pair, in units of the lattice spacing d
    top = make(10, 10, 1.5)
    asg = lattice_reuse_assignment(10, 10, r, lattice)
    assert sorted(set(asg.bands.tolist())) == list(range(1, r + 1))
    assert _min_coband_distance(top, asg) == pytest.approx(1.5 * spacing)


def test_hex_reuse_beats_the_rect_blocks_on_hex():
    top = make_hexagonal_lattice(10, 10, 1.0)
    rect = lattice_reuse_assignment(10, 10, 4)
    hexa = lattice_reuse_assignment(10, 10, 4, "hex")
    assert _min_coband_distance(top, rect) == pytest.approx(np.sqrt(3.0))
    assert aggregate_interference(top, hexa) \
        < aggregate_interference(top, rect)
    ref = reference(top, None, 4, lattice=("hex", 10, 10))
    assert ref.kind == "reuse_1_4"
    assert np.array_equal(ref.asg.bands, hexa.bands)


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
    act = np.array([True, False, True, False])
    asg, value = brute_force_optimal(top, act, 2)
    assert asg.bands[1] == 1
    assert asg.bands[3] == 1
    # actives at distance 2 split bands to reach zero
    assert value == 0.0


def test_brute_force_guard():
    top = make_uniform_linear_array(30, 1.0)
    with pytest.raises(OracleCapacityError):
        brute_force_optimal(top, None, 2)


def test_brute_force_needs_a_band():
    top = make_uniform_linear_array(3, 1.0)
    with pytest.raises(ValueError, match="^r must be >= 1$"):
        brute_force_optimal(top, None, 0)


def test_brute_force_default_cap_refuses_2_to_the_21_states():
    top = make_uniform_linear_array(21, 1.0)
    with pytest.raises(OracleCapacityError,
                       match=r"2\^21 assignments exceed the cap of 1048576"):
        brute_force_optimal(top, None, 2)


def _pair_sums_loop(digits, w):
    """Reference for _pair_sums: one pass over all rows per pair i < j,
    in (i, j) order."""
    sums = np.zeros(digits.shape[0])
    for i, j in itertools.combinations(range(digits.shape[1]), 2):
        sums += (digits[:, i] == digits[:, j]) * w[i, j]
    return sums


# chunk size of _pair_sums at m = 20 (190 pairs)
_CHUNK_20 = _BLOCK_TERMS // 190


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 20), rows=st.integers(0, 1200),
       k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
@example(m=1, rows=7, k=2, seed=1)              # no pairs
@example(m=6, rows=0, k=2, seed=2)              # no rows
@example(m=19, rows=1, k=2, seed=3)             # one row: no pairwise sum
@example(m=20, rows=3 * _CHUNK_20 + 1, k=2, seed=4)   # last chunk: one row
@example(m=20, rows=2 * _CHUNK_20 + 57, k=3, seed=5)
def test_pair_sums_match_the_per_pair_loop_bit_for_bit(m, rows, k, seed):
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, k, (rows, m))
    # weights spread over ten decades, so the order of the additions shows
    w = rng.random((m, m)) * 10.0 ** rng.uniform(-5.0, 5.0, (m, m))
    assert (_pair_sums(digits, w).tobytes()
            == _pair_sums_loop(digits, w).tobytes())


@pytest.mark.parametrize("n, r, value, bands", [
    (19, 2, "0x1.798ff9d96b337p+3", "1212121212121212121"),
    (20, 2, "0x1.9232dd5677f18p+3", "12121212121212121212"),
    (10, 4, "0x1.a000000000000p-1", "1234123412"),
    (12, 3, "0x1.3425ed097b426p+1", "123123123123")])
def test_brute_force_value_and_bands_are_pinned_at_the_cap(n, r, value, bands):
    asg, got = brute_force_optimal(make_uniform_linear_array(n, 1.0), None, r)
    assert got.hex() == value
    assert "".join(map(str, asg.bands)) == bands


def test_brute_force_working_set_stays_under_one_mb():
    # its blocks and pair-sum chunks are bounded by _BLOCK_TERMS terms,
    # whatever the size of the search
    top = make_uniform_linear_array(20, 1.0)
    tracemalloc.start()
    try:
        brute_force_optimal(top, None, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
    asg, value = brute_force_optimal(top, active, r)
    bands, expected = _enumerated_optimum(top, active, r)
    assert list(asg.bands) == list(bands)
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_brute_force_degenerate_sizes():
    top = make_uniform_linear_array(4, 1.0)
    # m = 0: nothing active
    asg, value = brute_force_optimal(top, np.zeros(4, dtype=bool), 3)
    assert list(asg.bands) == [1, 1, 1, 1] and value == 0.0
    # m = 1: the single active cluster sits on band 1 alone
    asg, value = brute_force_optimal(
        top, np.array([False, False, True, False]), 3)
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


# Worst best-response fixed point over the exhaustive optimum, i_a/i_o, on
# the uniform line with r=2 and eta=2 (cap r^(eta-1) = 2), from a census of
# every labeling with the first band pinned.  The cap is an N -> infinity
# bound: n = 4, 6 and 8 exceed it, with the labelings given.
_WORST_RATIO = {3: 1.0, 4: 20.0 / 9.0, 5: 1.8120, 6: 2.0864, 7: 1.8673,
                8: 2.0181, 9: 1.8751, 10: 1.9749, 11: 1.8797, 12: 1.9451}
_ABOVE_THE_CAP = {4: [1, 2, 2, 1], 6: [1, 2, 2, 1, 1, 2],
                  8: [1, 2, 2, 1, 1, 2, 2, 1]}


def test_nash_census_exceeds_the_ratio_cap_at_small_n():
    for n, ratio in _WORST_RATIO.items():
        top = make_uniform_linear_array(n, 1.0)
        active = np.ones(n, dtype=bool)
        _, i_o = brute_force_optimal(top, None, 2)
        labelings = (np.array((1,) + tail)
                     for tail in itertools.product((1, 2), repeat=n - 1))
        worst = max(aggregate_interference(top, Assignment(bands, 2))
                    for bands in labelings
                    if fixed_point(top, bands, active, 2)[0])
        assert worst / i_o == pytest.approx(ratio, abs=5e-5), n
        assert (worst / i_o > 2.0) == (n in _ABOVE_THE_CAP), n
        if n in _ABOVE_THE_CAP:
            bands = np.array(_ABOVE_THE_CAP[n])
            assert fixed_point(top, bands, active, 2)[0]
            assert aggregate_interference(top, Assignment(bands, 2)) \
                == pytest.approx(worst, rel=1e-12)
    # bound_report flags the n=4 fixed point, and best response lands on it
    top = make_uniform_linear_array(4, 1.0)
    ref = reference(top, None, 2)
    rep = bound_report(ref, Assignment(np.array([1, 2, 2, 1]), 2))
    assert ref.i_o_kind == "oracle" and ref.ratio_cap == 2.0
    assert rep.ratio_ao == pytest.approx(20.0 / 9.0, rel=1e-12)
    assert rep.ratio_cap_ok is False
    landed = [run_to_convergence(InterferenceCache(
        top, all_band_one(4, 2), rng=np.random.default_rng(seed)))[0]
        .bands.tolist() for seed in range(20)]
    assert [1, 2, 2, 1] in landed or [2, 1, 1, 2] in landed


def test_bound_report_oracle_branch():
    top = make_uniform_linear_array(8, 1.0)
    state = InterferenceCache(top, all_band_one(8, 2),
                              rng=np.random.default_rng(4))
    state, _ = run_to_convergence(state)
    ref = reference(top, None, 2, d_ref=1.0)
    rep = bound_report(ref, state.assignment())
    assert rep.ref is ref
    assert ref.i_o_kind == "oracle"
    assert ref.top.n == 8 and ref.r == 2
    assert rep.upper_bound_ok
    assert rep.ordering_ok
    assert rep.ratio_cap_ok
    assert rep.ratio_aw == pytest.approx(rep.i_a / ref.i_w)
    assert rep.ratio_ao >= 1.0
    assert ref.gap_convention == "adjacent"
    assert ref.limit == pytest.approx(np.pi ** 2 / 12.0, abs=1e-12)


def test_reference_keeps_its_own_copy_of_the_mask():
    top = make_uniform_linear_array(6, 1.0)
    mask = np.array([True, True, False, True, True, False])
    ref = reference(top, mask, 2)
    fields = ("i_a", "ratio_aw", "ratio_ao", "upper_bound_ok",
              "ratio_cap_ok", "ordering_ok")
    before = bound_report(ref, all_band_one(6, 2))
    mask[:] = True
    after = bound_report(ref, all_band_one(6, 2))
    assert [getattr(after, f) for f in fields] \
        == [getattr(before, f) for f in fields]


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
    ref = reference(top, None, 2, d_ref=1.0, lattice=("rect", 5, 5))
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
