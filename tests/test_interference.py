import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandsim import interference, metrics, oracle
from bandsim.interference import (Assignment, InterferenceCache,
                                  activity_mask, aggregate_interference,
                                  all_band_one, band_interference,
                                  cluster_interference,
                                  uniform_random_assignment, weight_matrix,
                                  worst_case_interference)
from bandsim.metrics import capacity_comparison, shannon_capacity
from bandsim.topology import (make_rectangular_lattice,
                              make_uniform_linear_array,
                              topology_from_positions)

from cache_state import assert_same_state

# frozen reference values for the 100-cluster unit-spacing line, eta = 2
I_ALT_100 = 76.75743134274704
I_W_100 = 316.62202500169934


def test_assignment_validation():
    a = Assignment(np.array([1, 2, 1]), 2)
    assert a.n == 3
    assert a.bands.dtype == np.int64
    with pytest.raises(ValueError):
        Assignment(np.array([[1, 2]]), 2)
    with pytest.raises(ValueError):
        Assignment(np.array([1, 2]), 0)
    with pytest.raises(ValueError):
        Assignment(np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        Assignment(np.array([1, 3]), 2)


def test_assignment_copy_is_independent():
    a = Assignment(np.array([1, 2]), 2)
    b = a.copy()
    b.bands[0] = 2
    assert a.bands[0] == 1


def test_activity_validation():
    top = make_uniform_linear_array(2, 1.0)
    assert activity_mask(top, [1, 0]).tolist() == [True, False]
    with pytest.raises(ValueError, match="1-D"):
        activity_mask(top, np.array([[True, False]]))


def test_weight_matrix_values():
    top = make_uniform_linear_array(3, 2.0, p0=4.0, eta=2.0)
    w = weight_matrix(top)
    # w_ij = p0 / d_ij^eta, zero diagonal
    assert w[0, 1] == pytest.approx(4.0 / 4.0)
    assert w[0, 2] == pytest.approx(4.0 / 16.0)
    assert np.all(np.diag(w) == 0.0)
    assert np.allclose(w, w.T)


def test_weight_matrix_eta_scaling():
    top = make_uniform_linear_array(2, 2.0, eta=3.0)
    assert weight_matrix(top)[0, 1] == pytest.approx(1.0 / 8.0)


def test_worst_case_small_line():
    # 4 clusters, unit spacing, eta 2: I_w = 2*(3/1 + 2/4 + 1/9) = 65/9
    top = make_uniform_linear_array(4, 1.0)
    assert worst_case_interference(top) == pytest.approx(65.0 / 9.0)


def test_aggregate_equals_worst_case_when_co_band():
    top = make_uniform_linear_array(6, 1.0)
    asg = all_band_one(6, 3)
    assert aggregate_interference(top, asg) == pytest.approx(
        worst_case_interference(top))


def test_aggregate_is_sum_of_cluster_terms():
    top = make_rectangular_lattice(3, 3, 1.0)
    rng = np.random.default_rng(3)
    asg = uniform_random_assignment(9, 3, rng)
    act = rng.random(9) < 0.7
    total = sum(cluster_interference(top, asg, act, i)
                for i in range(9) if act[i])
    assert aggregate_interference(top, asg, act) == pytest.approx(total)


def test_band_interference_partition():
    # summing over all bands recovers the any-band interference
    top = make_uniform_linear_array(7, 1.0)
    rng = np.random.default_rng(11)
    asg = uniform_random_assignment(7, 3, rng)
    i = 4
    per_band = sum(band_interference(top, asg, None, i, k)
                   for k in range(1, 4))
    w = weight_matrix(top)
    assert per_band == pytest.approx(w[i].sum())


def test_inactive_clusters_do_not_interfere():
    top = make_uniform_linear_array(3, 1.0)
    asg = all_band_one(3, 2)
    act = np.array([True, False, True])
    # cluster 1 is off: cluster 0 only sees cluster 2 at distance 2
    assert cluster_interference(top, asg, act, 0) == pytest.approx(0.25)
    assert aggregate_interference(top, asg, act) == pytest.approx(0.5)


def test_inactive_self_contributes_nothing():
    top = make_uniform_linear_array(2, 1.0)
    asg = all_band_one(2, 1)
    act = np.array([False, False])
    assert aggregate_interference(top, asg, act) == 0.0
    assert worst_case_interference(top, act) == 0.0


def test_activity_mask():
    top = make_uniform_linear_array(4, 1.0)
    assert activity_mask(top, None).tolist() == [True] * 4
    on = np.array([True, False, True, False])
    assert activity_mask(top, on).tolist() == on.tolist()
    with pytest.raises(ValueError, match="activity length 3 != topology "
                                         "size 4"):
        activity_mask(top, np.ones(3, dtype=bool))


_MASK_USERS = {
    "band_interference": lambda top, asg, act:
        band_interference(top, asg, act, 0, 1),
    "aggregate_interference": aggregate_interference,
    "worst_case_interference": lambda top, asg, act:
        worst_case_interference(top, act),
    "InterferenceCache": InterferenceCache,
    "shannon_capacity": shannon_capacity,
    "capacity_comparison": lambda top, asg, act:
        capacity_comparison(top, act, asg, asg),
    "brute_force_optimal": lambda top, asg, act:
        oracle.brute_force_optimal(top, act, 2),
    "reference": lambda top, asg, act: oracle.reference(top, act, 2),
}


@pytest.mark.parametrize("top", [make_uniform_linear_array(8, 1.0),
                                 make_rectangular_lattice(3, 3, 1.0)],
                         ids=["ula8", "rect3x3"])
@pytest.mark.parametrize("name", list(_MASK_USERS))
def test_activity_of_the_wrong_length_is_rejected_before_any_work(
        monkeypatch, top, name):
    # the call under test reaches neither the weights nor, from reference,
    # the oracle
    work = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            work.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for mod in (interference, metrics, oracle):
        monkeypatch.setattr(mod, "weight_matrix", spy(weight_matrix))
    if name == "reference":
        monkeypatch.setattr(oracle, "brute_force_optimal",
                            spy(oracle.brute_force_optimal))
    act = np.ones(5, dtype=bool)
    with pytest.raises(ValueError, match="activity length 5 != topology "
                                         f"size {top.n}"):
        _MASK_USERS[name](top, all_band_one(top.n, 2), act)
    assert work == []


def test_band_interference_argument_checks():
    top = make_uniform_linear_array(3, 1.0)
    asg = all_band_one(3, 2)
    with pytest.raises(ValueError):
        band_interference(top, asg, None, 3, 1)
    with pytest.raises(ValueError):
        band_interference(top, asg, None, 0, 3)
    with pytest.raises(ValueError):
        band_interference(top, asg, None, 0, 0)
    with pytest.raises(ValueError):
        aggregate_interference(top, all_band_one(4, 2))


def test_frozen_line_references():
    top = make_uniform_linear_array(100, 1.0)
    alt = Assignment(np.arange(100) % 2 + 1, 2)
    assert aggregate_interference(top, alt) == pytest.approx(
        I_ALT_100, rel=1e-12)
    assert worst_case_interference(top) == pytest.approx(I_W_100, rel=1e-12)


def test_reciprocity_doubles_pair_sum():
    top = topology_from_positions([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    asg = Assignment(np.array([1, 1, 2]), 2)
    w = weight_matrix(top)
    # only the (0,1) pair is co-band
    assert aggregate_interference(top, asg) == pytest.approx(2.0 * w[0, 1])


def test_cache_matches_full_recompute_under_mutation():
    top = make_rectangular_lattice(4, 4, 1.0)
    rng = np.random.default_rng(17)
    asg = uniform_random_assignment(16, 3, rng)
    act = np.ones(16, dtype=bool)
    cache = InterferenceCache(top, asg, act)
    for _ in range(300):
        op = rng.integers(0, 2)
        i = int(rng.integers(0, 16))
        if op == 0:
            cache.set_band(i, int(rng.integers(1, 4)))
        else:
            cache.set_active(i, bool(rng.integers(0, 2)))
        ref_asg = cache.assignment()
        ref_act = cache.active.copy()
        assert cache.aggregate() == pytest.approx(
            aggregate_interference(top, ref_asg, ref_act), rel=1e-12, abs=1e-12)
        j = int(rng.integers(0, 16))
        assert cache.own_band_interference()[j] == pytest.approx(
            cluster_interference(top, ref_asg, ref_act, j),
            rel=1e-12, abs=1e-12)
        k = int(rng.integers(1, 4))
        assert cache.band_powers(j)[k - 1] == pytest.approx(
            band_interference(top, ref_asg, ref_act, j, k),
            rel=1e-12, abs=1e-12)


def test_cache_band_powers_row():
    top = make_uniform_linear_array(5, 1.0)
    asg = Assignment(np.array([1, 2, 1, 2, 1]), 2)
    cache = InterferenceCache(top, asg)
    powers = cache.band_powers(2)
    assert powers.shape == (2,)
    assert powers[0] == pytest.approx(
        band_interference(top, asg, None, 2, 1))
    assert powers[1] == pytest.approx(
        band_interference(top, asg, None, 2, 2))


def test_cache_own_band_vector():
    top = make_uniform_linear_array(4, 1.0)
    asg = Assignment(np.array([1, 1, 2, 2]), 2)
    cache = InterferenceCache(top, asg)
    own = cache.own_band_interference()
    expected = [cluster_interference(top, asg, None, i) for i in range(4)]
    assert np.allclose(own, expected)


def test_cache_set_band_validates():
    top = make_uniform_linear_array(3, 1.0)
    cache = InterferenceCache(top, all_band_one(3, 2))
    with pytest.raises(ValueError):
        cache.set_band(0, 3)
    with pytest.raises(ValueError):
        cache.set_band(0, 0)


def test_cache_rebuild_restores_consistency():
    top = make_uniform_linear_array(6, 1.0)
    cache = InterferenceCache(top, all_band_one(6, 2))
    before = cache.aggregate()
    cache.rebuild()
    assert cache.aggregate() == pytest.approx(before, rel=1e-15)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_draws_peek_of_several_blocks_matches_next_calls(monkeypatch, block):
    monkeypatch.setattr(interference, "DRAW_BLOCK", block)
    sizes = []

    def draws(seed):
        rng = np.random.default_rng(seed)

        def draw(k):
            sizes.append(k)
            return rng.standard_exponential(k)
        return interference._Draws(draw)

    ahead = draws(4)
    ahead.use(3)
    held = sizes[0] - 3  # drawn but not yet used
    k = 3 * block + 2
    peeked = ahead.peek(k).copy()
    # the shortfall is drawn in one call, rounded up to whole blocks
    assert sizes == [-(-3 // block) * block, -(-(k - held) // block) * block]
    assert [ahead.use(1).item(0) for _ in range(k)] == peeked.tolist()
    sizes.clear()
    one_by_one = draws(4)
    assert [one_by_one.use(1).item(0) for _ in range(3 + k)][3:] == \
        peeked.tolist()
    assert sizes == [block] * len(sizes)
    scalar = np.random.default_rng(4)
    assert [scalar.standard_exponential() for _ in range(3 + k)][3:] == \
        peeked.tolist()


def test_weight_matrix_cached_read_only():
    top = make_rectangular_lattice(3, 3, 1.0)
    w = weight_matrix(top)
    assert w is weight_matrix(top)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 1] = 0.0
    assert InterferenceCache(top, all_band_one(9, 2)).weights is w


def _assert_matches_recompute(cache, top, tol=1e-12):
    asg = cache.assignment()
    act = cache.active.copy()
    ref = aggregate_interference(top, asg, act)
    assert abs(cache.aggregate() - ref) <= tol * max(1.0, abs(ref))
    for j in range(top.n):
        for k in range(1, cache.r + 1):
            ref = band_interference(top, asg, act, j, k)
            assert abs(cache.band_powers(j)[k - 1] - ref) \
                <= tol * max(1.0, abs(ref))
        if cache.active[j]:
            ref = cluster_interference(top, asg, act, j)
            assert abs(cache.own_band_interference()[j] - ref) \
                <= tol * max(1.0, abs(ref))
    # the per-band state set_band keeps and the cached active list are
    # those of a cache built afresh from the same bands and activity
    fresh = InterferenceCache(top, asg, act)
    n = top.n
    assert np.array_equal(cache._signed, fresh._signed)
    assert np.array_equal(np.signbit(cache._signed), np.signbit(fresh._signed))
    # upper half one-hot, lower half its negation with -0.0 for 0.0
    assert np.array_equal(fresh._signed[n:], -fresh._signed[:n])
    assert not np.signbit(fresh._signed[:n]).any()
    assert np.signbit(fresh._signed[n:]).all()
    assert np.array_equal(cache._own, fresh._own)
    assert cache.active_list() == fresh.active_list() \
        == np.flatnonzero(act).tolist()


@pytest.mark.parametrize("shape,r", [((1, 24), 2), ((5, 6), 3)])
def test_copy_is_a_fresh_build(shape, r):
    rows, cols = shape
    top = make_rectangular_lattice(rows, cols, 1.0)
    n = top.n
    rng = np.random.default_rng(8)
    asg = uniform_random_assignment(n, r, rng)
    act = rng.random(n) < 0.7
    source = InterferenceCache(top, asg, act, rng=np.random.default_rng(1))
    # a cached active list, a used stream or a clock on the source is not
    # copied
    source.active_list()
    source.gaps.use(1)
    source.time = 0.5
    copy = source.copy(np.random.default_rng(5))
    fresh = InterferenceCache(top, asg, act, rng=np.random.default_rng(5))
    assert_same_state(copy, fresh)
    assert copy.active is not source.active
    # the copy's gap and pick draws are the fresh cache's on the same seed
    for _ in range(3):
        assert copy.gaps.use(1).item(0) == fresh.gaps.use(1).item(0)
        assert copy.picks_of(copy.picks.use(1)) \
            == fresh.picks_of(fresh.picks.use(1))
    assert copy.gaps.peek(100).tobytes() == fresh.gaps.peek(100).tobytes()
    assert copy.picks.use(100).tobytes() == fresh.picks.use(100).tobytes()
    # switches and flips on the copy leave the source as it was built
    built = InterferenceCache(top, asg, act, rng=np.random.default_rng(1))
    built.active_list()
    built.gaps.use(1)
    built.time = 0.5
    for i in range(0, n, 3):
        copy.set_band(i, r + 1 - copy.bands[i])
    idx = np.arange(1, n, 4)
    mask = copy.active.copy()
    mask[idx] = ~mask[idx]
    copy.apply_flips(idx, np.where(mask[idx], idx, idx + n), mask)
    _assert_matches_recompute(copy, top)
    _assert_matches_recompute(source, top)
    assert_same_state(source, built)
    assert np.array_equal(source.bands, asg.bands)
    assert np.array_equal(source.active, act)


_OPS = st.one_of(
    st.tuples(st.just("band"), st.integers(0, 11), st.integers(1, 3)),
    st.tuples(st.just("active"), st.integers(0, 11), st.booleans()),
    st.tuples(st.just("flips"), st.lists(st.booleans(), min_size=12,
                                         max_size=12)))


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=12, max_size=12, unique=True),
       bands=st.lists(st.integers(1, 3), min_size=12, max_size=12),
       active=st.lists(st.booleans(), min_size=12, max_size=12),
       ops=st.lists(_OPS, max_size=40))
def test_cache_interleaved_updates_match_recompute(cells, bands, active, ops):
    # the running aggregate and the band sums stay those of a full recompute
    # under any mix of switches, single toggles and batched flips
    top = topology_from_positions(0.5 * np.array(cells, dtype=float))
    cache = InterferenceCache(top, Assignment(np.array(bands), 3),
                              np.array(active))
    for op in ops:
        if op[0] == "band":
            cache.set_band(op[1], op[2])
        elif op[0] == "active":
            cache.set_active(op[1], op[2])
        else:
            cache.toggle_active(np.flatnonzero(op[1]))
        _assert_matches_recompute(cache, top)


def test_batched_flips_equal_single_toggles():
    top = make_rectangular_lattice(5, 6, 1.0)
    rng = np.random.default_rng(3)
    asg = uniform_random_assignment(30, 3, rng)
    act = rng.random(30) < 0.7
    batched = InterferenceCache(top, asg, act)
    single = InterferenceCache(top, asg, act)
    for _ in range(50):
        flips = rng.random(30) < 0.2
        batched.toggle_active(np.flatnonzero(flips))
        for j in np.flatnonzero(flips):
            single.set_active(int(j), not single.active[j])
        assert np.array_equal(batched.active, single.active)
        assert batched.active_list() == single.active_list()
        for j in range(30):
            assert np.allclose(batched.band_powers(j), single.band_powers(j),
                               rtol=1e-12, atol=1e-12)
        assert batched.aggregate() == pytest.approx(single.aggregate(),
                                                    rel=1e-12, abs=1e-12)
        _assert_matches_recompute(batched, top)
    batched.toggle_active(np.array([], dtype=np.int64))
    assert np.array_equal(batched.active, single.active)


class _FormerFlipStep:
    """Band sums and aggregate of a cache updated the former way: a switch
    adds and subtracts weight column i, a flip adds
    W[:, idx] @ (onehot[idx] * sign) with sign 1.0 on and -1.0 off."""

    def __init__(self, cache):
        self.w = cache.weights
        self.bands = cache.bands.copy()
        self.active = cache.active.copy()
        self.r = cache.r
        self.onehot = np.zeros((cache.n, cache.r))
        self.onehot[np.arange(cache.n), self.bands - 1] = 1.0
        self.power = cache._band_power.copy()
        self.aggregate = cache.aggregate()

    def set_band(self, i, band):
        old = int(self.bands[i])
        if band == old:
            return
        if self.active[i]:
            row = self.power[i]
            self.aggregate += 2.0 * (row.item(band - 1) - row.item(old - 1))
            self.power[:, old - 1] -= self.w[:, i]
            self.power[:, band - 1] += self.w[:, i]
        self.bands[i] = band
        self.onehot[i] = 0.0
        self.onehot[i, band - 1] = 1.0

    def flip(self, idx):
        mask = self.active.copy()
        mask[idx] = ~mask[idx]
        sign = np.where(mask[idx], 1.0, -1.0)
        self.power += self.w[:, idx] @ (self.onehot[idx] * sign[:, None])
        self.active = mask
        own = np.arange(self.bands.size) * self.r + self.bands - 1
        self.aggregate = float(np.add.reduce(self.power.take(own),
                                             where=self.active))


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), r=st.sampled_from([2, 3, 4]),
       cells=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                      min_size=2, max_size=60, unique=True))
def test_flip_step_is_bitwise_the_column_gather_product(data, r, cells):
    # apply_flips multiplies the transposed row gather of W by the signed
    # band rows; the band sums and the aggregate must keep every bit of the
    # former W[:, idx] @ (onehot[idx] * sign), under any mix of flips of
    # 1 to N clusters and band switches.  From about N = 20 on, the same
    # product on a C-ordered copy of the gather differs in the last bits
    n = len(cells)
    top = topology_from_positions(0.75 * np.array(cells, dtype=float))
    bands = data.draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
    active = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cache = InterferenceCache(top, Assignment(np.array(bands), r),
                              np.array(active))
    ref = _FormerFlipStep(cache)
    flip_sets = st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
    ops = st.one_of(
        st.tuples(st.just("band"), st.integers(0, n - 1), st.integers(1, r)),
        st.tuples(st.sampled_from(["toggle", "apply"]), flip_sets))
    for op in data.draw(st.lists(ops, min_size=1, max_size=30)):
        if op[0] == "band":
            cache.set_band(op[1], op[2])
            ref.set_band(op[1], op[2])
        else:
            idx = np.flatnonzero(op[1])
            if op[0] == "toggle":
                cache.toggle_active(idx)
            else:
                mask = cache.active ^ np.array(op[1])
                cache.apply_flips(idx, np.where(mask[idx], idx, idx + n),
                                  mask)
            ref.flip(idx)
        assert np.array_equal(cache.active, ref.active)
        assert _same_bits(cache._band_power, ref.power)
        assert cache.aggregate() == ref.aggregate
    full = np.arange(n)
    cache.toggle_active(full)
    ref.flip(full)
    assert _same_bits(cache._band_power, ref.power)
    assert cache.aggregate() == ref.aggregate
