import numpy as np
import pytest

from bandsim.allocation import (REL_TOL, ConvergenceError, PoissonClock,
                                RandomPermutationRounds, SchedulingError,
                                apply_update, best_band,
                                default_update_guard, run_to_convergence)
from bandsim.interference import (ActivityState, Assignment,
                                  InterferenceCache,
                                  aggregate_interference, all_active,
                                  all_band_one, band_interference,
                                  uniform_random_assignment)
from bandsim.topology import (make_rectangular_lattice,
                              make_uniform_linear_array,
                              topology_from_positions)


def _state(top, bands, r, active=None, seed=0):
    asg = Assignment(np.asarray(bands), r)
    act = None if active is None else ActivityState(np.asarray(active, bool))
    return InterferenceCache(top, asg, act, rng=np.random.default_rng(seed))


def test_best_band_moves_off_crowded_band():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2)
    # middle cluster sees 2 units on band 1, none on band 2
    assert best_band(state, 1) == 2


def test_best_band_keeps_current_on_exact_tie():
    # clusters 0 and 2 sit symmetric about 1; swapping bands changes nothing
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 2], 2)
    # cluster 1: band 1 has cluster 0 at d=1, band 2 has cluster 2 at d=1
    assert best_band(state, 1) == 1
    state = _state(top, [2, 1, 1], 2)
    assert best_band(state, 1) == 1


def test_best_band_requires_strict_improvement():
    # a tiny sub-tolerance advantage must not trigger a switch
    top = topology_from_positions([[0.0], [1.0], [2.0 + 1e-13]])
    state = _state(top, [1, 1, 2], 2)
    assert best_band(state, 1) == 1


def test_best_band_prefers_lowest_index_among_ties():
    # bands 2 and 3 are both empty; band 1 is crowded
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 3)
    assert best_band(state, 1) == 2


def test_best_band_ties_at_high_power():
    # p0 = 1e6 puts the level far above the tolerance's absolute floor of 1
    p0 = 1e6
    # cluster 0 on band 4 hears band 4 at d=1, band 1 at d=1.5 and bands 2
    # and 3 at d=2 exactly: the equal minimum goes to the lowest index
    top = topology_from_positions([[0.0], [1.0], [-1.5], [-2.0], [2.0]],
                                  p0=p0)
    state = _state(top, [4, 4, 1, 2, 3], 4)
    assert best_band(state, 0) == 2
    # band 2 beats the current band by 0.5*REL_TOL relative: keep band 1;
    # by 2*REL_TOL: switch
    for gain, expected in ((0.5 * REL_TOL, 1), (2.0 * REL_TOL, 2)):
        d = (1.0 - gain) ** -0.5
        top = topology_from_positions([[0.0], [1.0], [-d]], p0=p0)
        assert best_band(_state(top, [1, 1, 2], 2), 0) == expected


def test_best_band_rejects_inactive():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2, active=[True, False, True])
    with pytest.raises(ValueError, match="inactive"):
        best_band(state, 1)


def test_apply_update_records_potential_change():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2)
    before = state.aggregate()
    rec = apply_update(state, 1)
    assert rec.switched
    assert rec.old_band == 1
    assert rec.new_band == 2
    assert rec.aggregate_before == pytest.approx(before)
    assert rec.aggregate_after == pytest.approx(state.aggregate())
    assert rec.aggregate_after < rec.aggregate_before
    assert rec.epoch == 1


def test_single_active_cluster_never_switches():
    top = make_uniform_linear_array(4, 1.0)
    state = _state(top, [1, 2, 2, 2], 2,
                   active=[True, False, False, False])
    assert best_band(state, 0) == 1


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
            top, asg, ActivityState(active),
            rng=np.random.default_rng(int(rng.integers(1 << 30))))
        sched = (PoissonClock(0.1) if trial % 2 else RandomPermutationRounds())
        state, records = run_to_convergence(state, sched)
        agg = None
        for rec in records:
            if rec.switched:
                assert rec.aggregate_after < rec.aggregate_before
            else:
                assert rec.aggregate_after == pytest.approx(rec.aggregate_before)
            if agg is not None:
                assert rec.aggregate_before == pytest.approx(agg)
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
        act = state.activity()
        for i in range(n):
            cur = band_interference(top, asg, act, i, int(asg.bands[i]))
            for k in range(1, r + 1):
                assert band_interference(top, asg, act, i, k) >= cur - 1e-9


def test_permutation_round_visits_each_active_once():
    top = make_uniform_linear_array(6, 1.0)
    state = _state(top, [1] * 6, 2, active=[True, True, False, True, True, True])
    sched = RandomPermutationRounds()
    seen = [sched.next(state)[0] for _ in range(5)]
    assert sorted(seen) == [0, 1, 3, 4, 5]
    assert sched.at_round_boundary()
    # next round reshuffles the same set
    seen2 = [sched.next(state)[0] for _ in range(5)]
    assert sorted(seen2) == [0, 1, 3, 4, 5]


def test_permutation_time_advances_by_delta_t():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2)
    sched = RandomPermutationRounds(delta_t=0.5)
    _, dt = sched.next(state)
    assert dt == 0.5


def test_poisson_clock_statistics():
    top = make_uniform_linear_array(5, 1.0)
    state = _state(top, [1] * 5, 2, seed=123)
    clock = PoissonClock(0.2)
    picks, gaps = zip(*(clock.next(state) for _ in range(4000)))
    assert set(picks) == {0, 1, 2, 3, 4}
    assert np.mean(gaps) == pytest.approx(0.2, rel=0.05)
    counts = np.bincount(picks, minlength=5)
    assert counts.min() > 0.8 * 800


def test_poisson_picks_only_active():
    top = make_uniform_linear_array(4, 1.0)
    state = _state(top, [1] * 4, 2, active=[False, True, False, True])
    clock = PoissonClock(1.0)
    picks = {clock.next(state)[0] for _ in range(200)}
    assert picks <= {1, 3}


def test_scheduler_validation():
    with pytest.raises(ValueError):
        PoissonClock(0.0)
    with pytest.raises(ValueError):
        PoissonClock(-1.0)
    with pytest.raises(ValueError):
        RandomPermutationRounds(0.0)


def test_schedulers_fail_without_active_clusters():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2, active=[False, False, False])
    with pytest.raises(SchedulingError):
        PoissonClock(1.0).next(state)
    with pytest.raises(SchedulingError):
        RandomPermutationRounds().next(state)


def test_run_to_convergence_empty_active_returns_immediately():
    top = make_uniform_linear_array(3, 1.0)
    state = _state(top, [1, 1, 1], 2, active=[False, False, False])
    state, records = run_to_convergence(state)
    assert records == []


def test_run_to_convergence_poisson_quiet_streak():
    top = make_uniform_linear_array(10, 1.0)
    state = _state(top, [1] * 10, 2, seed=5)
    state, records = run_to_convergence(state, PoissonClock(0.01))
    # last 2 * n_active events applied no switch
    assert all(not rec.switched for rec in records[-20:])
    assert any(rec.switched for rec in records)


def test_run_to_convergence_guard_raises():
    top = make_uniform_linear_array(10, 1.0)
    state = _state(top, [1] * 10, 2, seed=5)
    with pytest.raises(ConvergenceError):
        run_to_convergence(state, max_updates=3)


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
        aggregate_interference(top, state.assignment(), state.activity()),
        rel=1e-12)


def test_simstate_default_activity_all_on():
    top = make_uniform_linear_array(4, 1.0)
    state = InterferenceCache(top, all_band_one(4, 2))
    assert state.active.all()
    assert np.array_equal(state.active_indices(), np.arange(4))
    assert state.n == 4
    assert state.r == 2
