import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandsim import allocation, dynamics
from bandsim.allocation import (REL_TOL, ConvergenceError, PoissonClock,
                                RandomPermutationRounds, apply_update,
                                certified, default_update_guard,
                                run_to_convergence)
from bandsim.interference import (Assignment, InterferenceCache,
                                  aggregate_interference, all_band_one,
                                  uniform_random_assignment)
from bandsim.topology import (make_hexagonal_lattice, make_rectangular_lattice,
                              make_uniform_linear_array,
                              topology_from_positions)

from cache_state import toggle_active
from fixed_point import fixed_point
from reference import band_interference


def _state(top, bands, r, active=None, seed=0):
    asg = Assignment(np.asarray(bands), r)
    act = None if active is None else np.asarray(active, bool)
    return InterferenceCache(top, asg, act, rng=np.random.default_rng(seed))


def test_best_band_moves_off_crowded_band():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2)
    # middle cluster sees 2 units on band 1, none on band 2
    assert apply_update(state, 1).new_band == 2


def test_best_band_keeps_current_on_exact_tie():
    # clusters 0 and 2 sit symmetric about 1; swapping bands changes nothing
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 2], 2)
    # cluster 1: band 1 has cluster 0 at d=1, band 2 has cluster 2 at d=1
    assert apply_update(state, 1).new_band == 1
    state = _state(top, [2, 1, 1], 2)
    assert apply_update(state, 1).new_band == 1


def test_best_band_requires_strict_improvement():
    # a tiny sub-tolerance advantage must not trigger a switch
    top = topology_from_positions([[0.0], [1.0], [2.0 + 1e-13]])
    state = _state(top, [1, 1, 2], 2)
    assert apply_update(state, 1).new_band == 1


def test_best_band_prefers_lowest_index_among_ties():
    # bands 2 and 3 are both empty; band 1 is crowded
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 3)
    assert apply_update(state, 1).new_band == 2


def test_best_band_ties_at_high_power():
    # p0 = 1e6 puts the level far above the tolerance's absolute floor of 1
    p0 = 1e6
    # cluster 0 on band 4 hears band 4 at d=1, band 1 at d=1.5 and bands 2
    # and 3 at d=2 exactly: the equal minimum goes to the lowest index
    top = topology_from_positions([[0.0], [1.0], [-1.5], [-2.0], [2.0]],
                                  p0=p0)
    state = _state(top, [4, 4, 1, 2, 3], 4)
    assert apply_update(state, 0).new_band == 2
    # band 2 beats the current band by 0.5*REL_TOL relative: keep band 1;
    # by 2*REL_TOL: switch
    for gain, expected in ((0.5 * REL_TOL, 1), (2.0 * REL_TOL, 2)):
        d = (1.0 - gain) ** -0.5
        top = topology_from_positions([[0.0], [1.0], [-d]], p0=p0)
        rec = apply_update(_state(top, [1, 1, 2], 2), 0)
        assert rec.new_band == expected


def test_apply_update_rejects_inactive():
    # the inactive middle cluster would gain by leaving its neighbours' band
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2, active=[True, False, True])
    with pytest.raises(ValueError, match="cluster 1 is inactive"):
        apply_update(state, 1)
    assert state.bands.tolist() == [1, 1, 1]


def test_apply_update_records_potential_change():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2)
    before = state.aggregate()
    rec = apply_update(state, 1)
    assert rec.switched
    assert rec.old_band == 1
    assert rec.new_band == 2
    assert rec.aggregate_after == pytest.approx(state.aggregate())
    assert rec.aggregate_after < before


def test_apply_update_quiet_leaves_the_cache_bitwise_unchanged():
    # a quiet update writes nothing; a switch is exactly one set_band
    rng = np.random.default_rng(11)
    top = make_rectangular_lattice(4, 5, 1.0)
    quiet = switched = 0
    for _ in range(30):
        asg = uniform_random_assignment(20, 3, rng)
        act = rng.random(20) < 0.8
        cache = InterferenceCache(top, asg, act)
        twin = InterferenceCache(top, asg, act)
        for i in rng.permutation(np.flatnonzero(act)).tolist():
            bands = cache.bands.copy()
            powers = cache._band_power.copy()
            before = cache.aggregate()
            rec = apply_update(cache, i)
            if rec.new_band == bands[i]:
                quiet += 1
                assert not rec.switched
                assert np.array_equal(cache.bands, bands)
                assert np.array_equal(cache._band_power, powers)
                assert cache.aggregate() == before == rec.aggregate_after
            else:
                switched += 1
                assert rec.switched
                twin.set_band(i, rec.new_band)
            assert np.array_equal(cache.bands, twin.bands)
            assert np.array_equal(cache._band_power, twin._band_power)
            assert cache.aggregate() == twin.aggregate()
    assert quiet > 0 and switched > 0


def test_single_active_cluster_never_switches():
    top = make_uniform_linear_array(4, 1.0)
    state = _state(top, [1, 2, 2, 2], 2,
                   active=[True, False, False, False])
    assert apply_update(state, 0).new_band == 1


def test_every_switch_lowers_the_aggregate():
    # Lyapunov property across random scenarios and both schedulers
    rng = np.random.default_rng(2026)
    for trial in range(40):
        n = int(rng.integers(3, 12))
        r = int(rng.integers(2, 5))
        if rng.integers(2):
            top = make_uniform_linear_array(n, 1.0, eta=float(rng.choice([2.0, 3.0])))
        else:
            top = topology_from_positions(
                rng.uniform(0.0, 4.0, size=(n, 2)) + np.arange(n)[:, None] * 1e-3)
        asg = uniform_random_assignment(n, r, rng)
        active = rng.random(n) < 0.8
        if not active.any():
            active[0] = True
        state = InterferenceCache(
            top, asg, active,
            rng=np.random.default_rng(int(rng.integers(1 << 30))))
        sched = (PoissonClock(0.1) if trial % 2 else RandomPermutationRounds())
        # the potential before each event is the previous row's, or the
        # cache's before the run for the first
        agg = state.aggregate()
        state, records = run_to_convergence(state, sched)
        for rec in records:
            if rec.switched:
                assert rec.aggregate_after < agg
            else:
                assert rec.aggregate_after == agg
            agg = rec.aggregate_after


def test_converged_state_is_nash():
    # independent audit: no active cluster can improve by any unilateral move
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        r = int(rng.integers(2, 4))
        top = make_uniform_linear_array(n, 1.0)
        state = InterferenceCache(
            top, uniform_random_assignment(n, r, rng),
            rng=np.random.default_rng(int(rng.integers(1 << 30))))
        state, _ = run_to_convergence(state)
        asg = state.assignment()
        act = state.active.copy()
        for i in range(n):
            cur = band_interference(top, asg, act, i, int(asg.bands[i]))
            for k in range(1, r + 1):
                assert band_interference(top, asg, act, i, k) >= cur - 1e-9


@st.composite
def _instances(draw):
    """(topology, r, activity) on a random line or a rect/hex lattice."""
    kind = draw(st.sampled_from(["line", "rect", "hex"]))
    eta = draw(st.sampled_from([2.0, 2.5, 4.0]))
    if kind == "line":
        gaps = draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=24))
        top = topology_from_positions(
            [[x] for x in np.concatenate(([0.0], np.cumsum(gaps)))],
            eta=eta)
    else:
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 5))
        make = make_rectangular_lattice if kind == "rect" \
            else make_hexagonal_lattice
        top = make(rows, cols, draw(st.floats(0.5, 3.0)), eta=eta)
    r = draw(st.integers(2, 4))
    active = np.array(draw(st.lists(st.booleans(), min_size=top.n,
                                    max_size=top.n)))
    return top, r, active


@settings(max_examples=150, deadline=None)
@given(_instances(), st.integers(0, 2 ** 32 - 1))
def test_permutation_rounds_stop_on_a_fixed_point(instance, seed):
    top, r, active = instance
    rng = np.random.default_rng(seed)
    cache = InterferenceCache(top, uniform_random_assignment(top.n, r, rng),
                              active, rng=rng)
    cache, _ = run_to_convergence(cache, RandomPermutationRounds())
    assert fixed_point(top, cache.bands, cache.active, r)[0]


def _keeps_every_band(cache):
    """True when the scalar rule keeps every active cluster's band."""
    return all(allocation._choose(cache._band_power[j].tolist(),
                                  cache.bands.item(j)) == cache.bands.item(j)
               for j in np.flatnonzero(cache.active).tolist())


def _run_with_round_counter(cache, scheduler):
    """The stop rule written out one draw at a time with a per-round switch
    counter: permutation scheduling stops after a full round applies no
    switch, Poisson scheduling after an n_active-th event at which the
    scalar rule keeps every active cluster's band."""
    n_active = int(cache.active.sum())
    records = []
    if n_active == 0:
        return records
    if isinstance(scheduler, RandomPermutationRounds):
        while True:
            switches_in_round = 0
            order = cache.rng.permutation(np.flatnonzero(cache.active))
            for i in order.tolist():
                cache.time += scheduler.delta_t
                rec = apply_update(cache, i)
                records.append(rec)
                switches_in_round += rec.switched
            if switches_in_round == 0:
                return records
    while True:
        cache.time += scheduler.delta_t * cache.rng.standard_exponential()
        rec = apply_update(cache, cache.picks_of(cache.pick_uniforms(1))[0])
        records.append(rec)
        if len(records) % n_active == 0 and _keeps_every_band(cache):
            return records


@st.composite
def _ula_instances(draw):
    """(topology, r, activity) on a uniform line, whose mirror symmetry
    makes exact ties."""
    top = make_uniform_linear_array(draw(st.integers(2, 16)), 1.0,
                                    eta=draw(st.sampled_from([2.0, 4.0])))
    active = np.array(draw(st.lists(st.booleans(), min_size=top.n,
                                    max_size=top.n)))
    return top, draw(st.integers(2, 4)), active


@settings(max_examples=120, deadline=None)
@given(st.one_of(_instances(), _ula_instances()),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([RandomPermutationRounds, PoissonClock]))
def test_stop_rule_matches_a_round_counter(instance, seed, make_scheduler):
    top, r, active = instance
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        cache = InterferenceCache(
            top, uniform_random_assignment(top.n, r, rng),
            active, rng=rng)
        runs.append((cache, make_scheduler(0.1)))
    (cache, sched), (ref_cache, ref_sched) = runs
    _, records = run_to_convergence(cache, sched)
    assert records == _run_with_round_counter(ref_cache, ref_sched)
    assert np.array_equal(cache.bands, ref_cache.bands)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("make_scheduler,seed,events,last_switch", [
    # ula20/r2 Poisson runs whose last switch is event 88 and event 42:
    # both stop on the end of the 20-event read that holds it
    (PoissonClock, 166, 100, 88),
    (PoissonClock, 3, 60, 42),
    (RandomPermutationRounds, 3, None, None)])
@pytest.mark.parametrize("active", [None, [j % 3 != 1 for j in range(20)]])
def test_block_loop_matches_the_per_event_loop(monkeypatch, block,
                                                make_scheduler, seed, events,
                                                last_switch, active):
    # the churn engine's read-ahead floor changes no run to convergence
    monkeypatch.setattr(dynamics, "DRAW_BLOCK", block)
    top = make_uniform_linear_array(20, 1.0)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        cache = InterferenceCache(top, uniform_random_assignment(20, 2, rng),
                                  active, rng=rng)
        runs.append((cache, make_scheduler(0.1)))
    (cache, sched), (ref_cache, ref_sched) = runs
    pick_uniforms, reads = cache.pick_uniforms, []

    def spy(k):
        reads.append(k)
        return pick_uniforms(k)

    monkeypatch.setattr(cache, "pick_uniforms", spy)
    _, records = run_to_convergence(cache, sched)
    assert records == _run_with_round_counter(ref_cache, ref_sched)
    assert np.array_equal(cache.bands, ref_cache.bands)
    if events is not None and active is None:
        assert len(records) == events
        assert max(k for k, rec in enumerate(records) if rec.switched) \
            == last_switch - 1
        # every read is one whole block of n_active events
        assert reads == [20] * (events // 20)


def test_poisson_clock_stops_on_a_fixed_point():
    # seed 5 is the first ula100/r2 seed whose run holds 2*n_active quiet
    # events in a row on a state that is not a fixed point (6 of seeds 0-59
    # do: 5, 10, 32, 33, 36 and 53), so a quiet streak certifies nothing
    top = make_uniform_linear_array(100, 1.0)
    rng = np.random.default_rng(5)
    cache = InterferenceCache(top, uniform_random_assignment(100, 2, rng),
                              rng=rng)
    cache, _ = run_to_convergence(cache, PoissonClock(0.01))
    assert fixed_point(top, cache.bands, cache.active, 2)[0]


def test_permutation_round_visits_each_active_once():
    top = make_uniform_linear_array(6, 1.0)
    state = _state(top, [1] * 6, 2, active=[True, True, False, True, True, True])
    _, records = run_to_convergence(state, RandomPermutationRounds())
    # the run ends on a round boundary, after at least one round that
    # switched, and every round reshuffles the same set
    seen = [rec.cluster for rec in records]
    assert len(seen) >= 10 and len(seen) % 5 == 0
    for k in range(0, len(seen), 5):
        assert sorted(seen[k:k + 5]) == [0, 1, 3, 4, 5]


def test_permutation_time_advances_by_delta_t():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2)
    _, records = run_to_convergence(state, RandomPermutationRounds(0.5))
    assert len(records) >= 6
    assert [rec.time for rec in records] == [
        0.5 * (k + 1) for k in range(len(records))]


def test_poisson_clock_statistics():
    top = make_uniform_linear_array(5, 1.0)
    state = _state(top, [1] * 5, 2, seed=123)
    clock = PoissonClock(0.2)
    gaps = clock.delta_t * state.rng.standard_exponential(4000)
    picks = state.picks_of(state.pick_uniforms(4000))
    assert set(picks) == {0, 1, 2, 3, 4}
    assert np.mean(gaps) == pytest.approx(0.2, rel=0.05)
    counts = np.bincount(picks, minlength=5)
    assert counts.min() > 0.8 * 800


def test_poisson_picks_only_active():
    top = make_uniform_linear_array(4, 1.0)
    state = _state(top, [1] * 4, 2, active=[False, True, False, True])
    picks = set(state.picks_of(state.pick_uniforms(200)))
    assert picks <= {1, 3}


def test_scheduler_validation():
    with pytest.raises(ValueError):
        PoissonClock(0.0)
    with pytest.raises(ValueError):
        PoissonClock(-1.0)
    with pytest.raises(ValueError):
        RandomPermutationRounds(0.0)


def test_permutation_rounds_reused_after_a_convergence_error(monkeypatch):
    # a scheduler is a setting: a round cut short by the update guard is
    # not resumed on the next cache
    top = make_uniform_linear_array(10, 1.0)
    sched = RandomPermutationRounds()
    with monkeypatch.context() as m:
        m.setattr(allocation, "default_update_guard", lambda n, eta: 3)
        with pytest.raises(ConvergenceError):
            run_to_convergence(_state(top, [1] * 10, 2, seed=3), sched)
    active = [True, True] + [False] * 8
    runs = [run_to_convergence(_state(top, [1] * 10, 2, active=active,
                                      seed=1), s)[1]
            for s in (sched, RandomPermutationRounds())]
    assert runs[0] == runs[1]
    for s in (sched, PoissonClock(0.1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.delta_t = 0.2


def test_run_to_convergence_empty_active_returns_immediately():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2, active=[False, False, False])
    state, records = run_to_convergence(state)
    assert records == []


def test_run_to_convergence_poisson_stops_on_the_first_certificate():
    top = make_uniform_linear_array(10, 1.0)
    state = _state(top, [1] * 10, 2, seed=5)
    state, records = run_to_convergence(state, PoissonClock(0.01))
    assert any(rec.switched for rec in records)
    assert len(records) % 10 == 0
    assert certified(state)
    assert fixed_point(top, state.bands, state.active, 2)[0]
    # replayed on a fresh cache, no earlier end of a 10-event block is a
    # fixed point
    replay = _state(top, [1] * 10, 2)
    for k, rec in enumerate(records[:-10], 1):
        replay.set_band(rec.cluster, rec.new_band)
        if k % 10 == 0:
            assert not fixed_point(top, replay.bands, replay.active, 2)[0]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_instances(), _ula_instances()), st.data())
def test_certified_is_the_scalar_rule_on_every_active_row(instance, data):
    # random band moves, batched activity flips and best-response moves
    # leave the incrementally kept band sums off their exact values
    top, r, active = instance
    bands = data.draw(st.lists(st.integers(1, r), min_size=top.n,
                               max_size=top.n))
    cache = InterferenceCache(top, Assignment(np.array(bands), r), active)
    clusters = st.integers(0, top.n - 1)
    for _ in range(data.draw(st.integers(0, 60))):
        assert certified(cache) == _keeps_every_band(cache)
        step = data.draw(st.sampled_from(["band", "flip", "best"]))
        if step == "band":
            cache.set_band(data.draw(clusters), data.draw(st.integers(1, r)))
        elif step == "flip":
            toggle_active(cache, np.array(sorted(data.draw(
                st.sets(clusters, max_size=4)))))
        elif cache.active.any():
            apply_update(cache, data.draw(st.sampled_from(
                np.flatnonzero(cache.active).tolist())))
    assert certified(cache) == _keeps_every_band(cache)


def test_certified_keeps_a_first_minimum_below_zero():
    # moving the five other clusters of a 2x3 hex lattice off band 1 leaves
    # cluster 1 alone there on a band sum that drifted below zero, where
    # REL_TOL's relative test fails; the scalar rule keeps the band because
    # it is the first minimum, and so does certified
    top = make_hexagonal_lattice(2, 3, 1.0)
    cache = InterferenceCache(top, all_band_one(6, 4))
    for i, band in [(0, 4), (2, 4), (3, 3), (4, 2), (5, 3)]:
        cache.set_band(i, band)
    own = cache.own_band_interference()[1]
    assert own < 0.0
    assert not own - cache._band_power[1].min() <= REL_TOL * own
    assert _keeps_every_band(cache)
    assert certified(cache)
    assert fixed_point(top, cache.bands, cache.active, 4)[0]


@pytest.mark.parametrize("start", ["all_band_one", "uniform"])
@pytest.mark.parametrize("top,r", [
    (make_uniform_linear_array(100, 1.0), 2),
    (make_hexagonal_lattice(10, 10, 1.0), 4)], ids=["ula100", "hex10x10"])
def test_poisson_runs_stop_on_fixed_points_over_200_seeds(top, r, start):
    uncertified = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        asg = all_band_one(top.n, r) if start == "all_band_one" \
            else uniform_random_assignment(top.n, r, rng)
        cache = InterferenceCache(top, asg, rng=rng)
        cache, _ = run_to_convergence(cache, PoissonClock(0.01))
        if not fixed_point(top, cache.bands, cache.active, r)[0]:
            uncertified.append(seed)
    assert uncertified == []


def test_run_to_convergence_guard_raises(monkeypatch):
    monkeypatch.setattr(allocation, "default_update_guard",
                        lambda n, eta: 3)
    top = make_uniform_linear_array(10, 1.0)
    state = _state(top, [1] * 10, 2, seed=5)
    with pytest.raises(ConvergenceError,
                       match="no convergence within 3 updates"):
        run_to_convergence(state)


def test_default_update_guard_value():
    assert default_update_guard(10, 2.0) == 100000
    assert default_update_guard(2, 3.0) == 320


def test_time_accumulates_event_gaps():
    top = make_uniform_linear_array(5, 1.0)
    state = _state(top, [1] * 5, 2, seed=9)
    state, records = run_to_convergence(state, PoissonClock(0.1))
    assert state.time > 0.0
    assert records[-1].time == pytest.approx(state.time)
    times = [rec.time for rec in records]
    assert all(b > a for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("make_scheduler", [PoissonClock,
                                            RandomPermutationRounds])
def test_event_times_are_exact_running_sums(make_scheduler):
    # back-to-back runs on one cache, each from all-band-one, until 10**4
    # events: the Poisson runs hand unused gaps on to the next run
    top = make_uniform_linear_array(200, 1.0)
    cache = InterferenceCache(top, all_band_one(200, 2),
                              rng=np.random.default_rng(11))
    sched = make_scheduler(0.1)
    records = []
    while len(records) < 10 ** 4:
        for j in range(200):
            cache.set_band(j, 1)
        records += run_to_convergence(cache, sched)[1]
    gaps = np.random.default_rng(11)
    t, want = 0.0, []
    for _ in records:
        t += gaps.exponential(0.1) if make_scheduler is PoissonClock else 0.1
        want.append(t)
    assert [rec.time for rec in records] == want


def test_convergence_reproducible_for_fixed_seed():
    top = make_uniform_linear_array(20, 1.0)

    def run():
        state = InterferenceCache(top, all_band_one(20, 2),
                                  rng=np.random.default_rng(77))
        state, records = run_to_convergence(state, PoissonClock(0.05))
        return state.bands.copy(), len(records)

    bands_a, n_a = run()
    bands_b, n_b = run()
    assert np.array_equal(bands_a, bands_b)
    assert n_a == n_b


def test_final_aggregate_matches_recompute():
    top = make_rectangular_lattice(4, 4, 1.0)
    state = InterferenceCache(top, all_band_one(16, 4),
                              rng=np.random.default_rng(1))
    state, _ = run_to_convergence(state)
    assert state.aggregate() == pytest.approx(
        aggregate_interference(top, state.assignment(), state.active.copy()),
        rel=1e-12)


@pytest.mark.parametrize("scheduler", [RandomPermutationRounds(),
                                       PoissonClock(0.1)])
def test_a_cache_built_without_rng_has_no_stream_to_run_on(scheduler):
    top = make_uniform_linear_array(4, 1.0)
    cache = InterferenceCache(top, all_band_one(4, 2))
    assert cache.rng is None
    with pytest.raises(ValueError, match="no scheduling stream"):
        run_to_convergence(cache, scheduler)
    assert cache.rng is None and cache._pick_rng is None
    assert cache.time == 0.0 and np.array_equal(cache.bands, [1, 1, 1, 1])
    # a copy on a stream runs as a cache built on that stream does
    ran, _ = run_to_convergence(cache.copy(np.random.default_rng(2)),
                                scheduler)
    built, _ = run_to_convergence(InterferenceCache(
        top, all_band_one(4, 2), rng=np.random.default_rng(2)), scheduler)
    assert np.array_equal(ran.bands, built.bands) and ran.time == built.time


def test_simstate_default_activity_all_on():
    top = make_uniform_linear_array(4, 1.0)
    state = InterferenceCache(top, all_band_one(4, 2))
    assert state.active.all()
    assert state.n == 4
    assert state.r == 2


def _switch_sequence(top, r, scheduler):
    cache = InterferenceCache(top, all_band_one(top.n, r),
                              rng=np.random.default_rng(5))
    _, records = run_to_convergence(cache, scheduler)
    return [(rec.cluster, rec.old_band, rec.new_band) for rec in records
            if rec.switched]


@pytest.mark.parametrize("scheduler", [RandomPermutationRounds,
                                       PoissonClock])
@pytest.mark.parametrize("p0,d", [(2.0 ** -40, 1.0), (2.0 ** 40, 1.0),
                                  (1.0, 2.0 ** 17), (1.0, 2.0 ** -10),
                                  (2.0 ** -30, 2.0 ** 10)])
def test_switch_sequence_does_not_depend_on_units(scheduler, p0, d):
    # at eta = 2, scaling p0 or d by a power of two scales every band power
    # exactly, so every comparison of the switching rule must come out alike
    for make, r in ((lambda s, q: make_uniform_linear_array(40, s, q), 2),
                    (lambda s, q: make_hexagonal_lattice(6, 6, s, q), 4)):
        unit = _switch_sequence(make(1.0, 1.0), r, scheduler(0.01))
        assert unit
        assert _switch_sequence(make(d, p0), r, scheduler(0.01)) == unit
