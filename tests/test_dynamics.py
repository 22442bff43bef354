import dataclasses
import warnings

import numpy as np
import pytest

from bandsim import dynamics, interference
from bandsim.allocation import REL_TOL, PoissonClock, run_to_convergence
from bandsim.dynamics import (DynamicsConfig, FitError, SimTrace,
                              StatisticsError, ensemble_mean_trace,
                              fit_exponential_decay, lambda_from_alpha,
                              predicted_variance, replica_streams,
                              run_ensemble, sample_on_grid,
                              simulate_time_varying, stability_margin,
                              steady_state_stats, time_scale)
from bandsim.interference import (InterferenceCache, aggregate_interference,
                                  all_band_one, uniform_random_assignment)
from bandsim.topology import (make_hexagonal_lattice,
                              make_uniform_linear_array)

from cache_state import cache_state


def _flat_trace(level: float, t_end: float = 10.0, n: int = 1,
                delta_t: float = 1.0) -> SimTrace:
    return SimTrace(times=np.array([0.0, t_end]),
                    aggregates=np.array([level, level]),
                    active_counts=np.array([n, n]),
                    n=n, delta_t=delta_t)


def _band_one(top, r):
    """The all-band-one start cache, every cluster active."""
    return InterferenceCache(top, all_band_one(top.n, r))


def test_config_validation():
    with pytest.raises(ValueError):
        DynamicsConfig(delta_t=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        DynamicsConfig(delta_t=0.1, horizon=0.0)
    with pytest.raises(ValueError):
        DynamicsConfig(delta_t=0.1, horizon=1.0, alpha=1.5)
    with pytest.raises(ValueError):
        DynamicsConfig(delta_t=0.1, horizon=1.0, replicas=0)
    cfg = DynamicsConfig(delta_t=0.01, horizon=2.0)
    assert time_scale(100, cfg.delta_t) == pytest.approx(1.0)


@pytest.mark.parametrize("horizon", [float("inf"), float("nan")])
def test_dynamics_config_rejects_non_finite_horizon(horizon):
    # an infinite horizon would never end the event loop
    with pytest.raises(ValueError, match="horizon must be finite"):
        DynamicsConfig(delta_t=0.1, horizon=horizon)


def test_lambda_from_alpha():
    # n^2 (1 - alpha) / (2 tau)
    assert lambda_from_alpha(0.9, 100, 1.0) == pytest.approx(500.0)
    assert lambda_from_alpha(1.0, 100, 1.0) == 0.0
    assert lambda_from_alpha(0.5, 10, 2.0) == pytest.approx(12.5)
    with pytest.raises(ValueError):
        lambda_from_alpha(0.9, 100, 0.0)


def test_stability_margin():
    assert stability_margin(1.0, 3.0) == 0.0
    # margin hits 1 exactly at alpha = 5/8 for rho = 3
    assert stability_margin(5.0 / 8.0, 3.0) == pytest.approx(1.0)
    assert stability_margin(0.9, 3.0) == pytest.approx(8.0 * 0.1 / 3.0)
    with pytest.raises(ValueError):
        stability_margin(0.9, 0.0)
    for alpha in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="alpha must lie in"):
            stability_margin(alpha, 3.0)


def test_predicted_variance_finite():
    # alpha=0.9 (lam=500 at tau=1, n=100), rho=3: margin 8*0.1/3 = 4/15
    pred = predicted_variance(2.0, 0.9, 3.0)
    assert pred.margin == pytest.approx(4.0 / 15.0)
    assert not pred.divergent
    # sigma = i_a^2 * margin / (1 - margin)
    assert pred.sigma_ss_sq == pytest.approx(4.0 * (4.0 / 15.0) / (11.0 / 15.0))
    assert pred.sigma_ss_sq == pytest.approx(4.0 * 0.36363636363636365)


def test_predicted_variance_divergent():
    # margin >= 1 pins the variance at +inf: alpha=0.625 (lam=3*100^2/16
    # at tau=1, n=100) is the boundary for rho=3; a fast rate warns of
    # nothing here, parse_config is the one place that flags it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = predicted_variance(1.0, 0.625, 3.0)
    assert pred.margin == pytest.approx(1.0)
    assert pred.divergent
    assert pred.sigma_ss_sq == np.inf
    with pytest.raises(ValueError):
        predicted_variance(1.0, -0.1)
    with pytest.raises(ValueError):
        predicted_variance(1.0, 1.1)


def test_replica_streams_deterministic_and_independent():
    s1, a1 = replica_streams(42)
    s2, a2 = replica_streams(42)
    assert s1.random(5) == pytest.approx(s2.random(5))
    assert a1.random(5) == pytest.approx(a2.random(5))
    s3, a3 = replica_streams(42)
    assert not np.allclose(s3.random(5), a3.random(5))


def test_simulate_trace_shape_and_snapshot():
    top = make_uniform_linear_array(10, 1.0)
    cfg = DynamicsConfig(delta_t=0.05, horizon=2.0)
    tr = simulate_time_varying(top, cfg, 3, _band_one(top, 2))
    assert tr.times[0] == 0.0
    assert tr.clusters[0] == -1
    assert tr.old_bands[0] == 0 and tr.new_bands[0] == 0
    assert tr.active_counts[0] == 10
    assert tr.n == 10
    assert time_scale(tr.n, tr.delta_t) == pytest.approx(0.5)
    assert tr.active_counts.dtype == np.int64
    assert tr.events == tr.times.size - 1
    assert tr.times[-1] <= 2.0
    assert np.all(np.diff(tr.times) > 0)
    # alpha = 1: everyone stays active and the trace ends converged
    assert np.all(tr.active_counts == 10)
    assert tr.final_bands is not None and tr.seed == 3


def test_simulate_deterministic_per_seed():
    top = make_uniform_linear_array(8, 1.0)
    cfg = DynamicsConfig(delta_t=0.1, horizon=3.0)
    a = simulate_time_varying(top, cfg, 11, _band_one(top, 2))
    b = simulate_time_varying(top, cfg, 11, _band_one(top, 2))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.aggregates, b.aggregates)
    assert np.array_equal(a.final_bands, b.final_bands)
    c = simulate_time_varying(top, cfg, 12, _band_one(top, 2))
    assert not np.array_equal(a.times, c.times)


def test_simulate_alpha_one_matches_static_engine():
    # with no churn the event loop replays the static Poisson dynamics
    top = make_uniform_linear_array(20, 1.0)
    cfg = DynamicsConfig(delta_t=0.05, horizon=10.0)
    tr = simulate_time_varying(top, cfg, 7, _band_one(top, 2))
    sched_rng, _ = replica_streams(7)
    state = InterferenceCache(top, all_band_one(20, 2), rng=sched_rng)
    state, records = run_to_convergence(state, PoissonClock(0.05))
    assert np.array_equal(tr.final_bands, state.bands)
    # event-by-event match over the shared prefix
    k = min(len(records), tr.events)
    assert k > 0
    assert np.array_equal(tr.clusters[1:k + 1],
                          [rec.cluster for rec in records[:k]])
    assert tr.aggregates[1:k + 1] == pytest.approx(
        [rec.aggregate_after for rec in records[:k]])


def _per_flip_reference(top, cfg, r, seed, initial):
    """The churn loop written out plainly: one scalar gap from the
    scheduling stream, one scalar pick uniform from its first spawned
    child and one flip row from the activity stream per event, one
    set_active per flip, the active set found afresh each event, the
    best-band rule on numpy, and the aggregate recomputed from scratch."""
    sched_rng, act_rng = replica_streams(seed)
    pick_rng = sched_rng.spawn(1)[0]
    cache = InterferenceCache(top, initial)
    rows = []
    t = 0.0
    while True:
        dt = float(sched_rng.exponential(cfg.delta_t))
        if t + dt > cfg.horizon:
            break
        t += dt
        for j in np.flatnonzero(act_rng.random(top.n) < 1.0 - cfg.alpha):
            cache.set_active(int(j), not cache.active[j])
        u = pick_rng.random()
        idx = np.flatnonzero(cache.active)
        if idx.size == 0:
            rows.append((t, -1, 0, 0, 0, 0.0))
            continue
        i = int(idx[int(u * idx.size)])
        powers = cache._band_power[i]
        old = int(cache.bands[i])
        best = int(np.argmin(powers))
        new = old if (powers[old - 1] - powers[best]
                      <= REL_TOL * powers[old - 1]) else best + 1
        cache.set_band(i, new)
        rows.append((t, i, old, new, idx.size, aggregate_interference(
            top, cache.assignment(), cache.active.copy())))
    return rows


@pytest.mark.parametrize("alpha", [0.99, 0.9, 0.5, 0.0])
def test_simulate_churn_matches_per_flip_reference(alpha):
    top = make_uniform_linear_array(30, 1.0)
    cfg = DynamicsConfig(delta_t=0.01, horizon=2.0, alpha=alpha)
    initial = uniform_random_assignment(30, 3, np.random.default_rng(2))
    for seed in (4, 5):
        tr = simulate_time_varying(top, cfg, seed,
                                   InterferenceCache(top, initial))
        rows = _per_flip_reference(top, cfg, 3, seed, initial)
        assert tr.events == len(rows) > 100
        times, clusters, olds, news, counts, aggs = map(np.array, zip(*rows))
        assert np.array_equal(tr.times[1:], times)
        assert np.array_equal(tr.clusters[1:], clusters)
        assert np.array_equal(tr.old_bands[1:], olds)
        assert np.array_equal(tr.new_bands[1:], news)
        assert np.array_equal(tr.active_counts[1:], counts)
        assert np.allclose(tr.aggregates[1:], aggs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,alpha", [(3, 0.5), (20, 0.9), (20, 1.0)])
def test_draw_block_size_changes_no_value(monkeypatch, n, alpha):
    top = make_uniform_linear_array(n, 1.0)
    cfg = DynamicsConfig(delta_t=0.01, horizon=1.5, alpha=alpha)

    def runs():
        tr = simulate_time_varying(top, cfg, 3, _band_one(top, 2))
        sched_rng, _ = replica_streams(3)
        cache = InterferenceCache(top, all_band_one(n, 2), rng=sched_rng)
        _, records = run_to_convergence(cache, PoissonClock(0.01))
        return tr, [(rec.time, rec.cluster, rec.new_band)
                    for rec in records]

    want_tr, want_records = runs()
    assert want_tr.events > 100
    for block in (1, 7, 64):
        monkeypatch.setattr(dynamics, "DRAW_BLOCK", block)
        for cells in (dynamics.AHEAD_CELLS, 1):
            # at one cell no read passes DRAW_BLOCK events, so a replica
            # reaches its horizon block by block
            monkeypatch.setattr(dynamics, "AHEAD_CELLS", cells)
            tr, records = runs()
            assert records == want_records
            for field in ("times", "aggregates", "active_counts", "clusters",
                          "old_bands", "new_bands", "final_bands"):
                assert np.array_equal(getattr(tr, field),
                                      getattr(want_tr, field)), field


def test_read_ahead_stays_within_the_cell_bound(monkeypatch):
    # about 6,000 events of 50 clusters: more cells than one read may span
    n = 50
    top = make_uniform_linear_array(n, 1.0)
    cfg = DynamicsConfig(delta_t=0.01, horizon=60.0, alpha=0.99)
    churn_block = dynamics._churn_block
    rows = []

    def spy(cache, act_rng, rate, k):
        rows.append(k)  # its flip draw is k x n uniforms
        return churn_block(cache, act_rng, rate, k)

    monkeypatch.setattr(dynamics, "_churn_block", spy)
    tr = simulate_time_varying(top, cfg, 9, _band_one(top, 2))
    assert tr.events == sum(rows)
    assert len(rows) >= 3
    assert max(rows) * n <= dynamics.AHEAD_CELLS
    # a bound past the horizon reads it all at once, with the same values
    rows.clear()
    monkeypatch.setattr(dynamics, "AHEAD_CELLS", 10 ** 9)
    unbounded = simulate_time_varying(top, cfg, 9, _band_one(top, 2))
    assert rows == [tr.events]
    for field in ("times", "aggregates", "active_counts", "clusters",
                  "new_bands", "final_bands"):
        assert np.array_equal(getattr(tr, field),
                              getattr(unbounded, field)), field
    # no read holds fewer than DRAW_BLOCK events, whatever the bound: at
    # 1000 cells every full read is 64 events of 50 clusters, 3200 cells
    rows.clear()
    monkeypatch.setattr(dynamics, "AHEAD_CELLS", 1000)
    capped = simulate_time_varying(top, cfg, 9, _band_one(top, 2))
    assert capped.events == sum(rows) == tr.events
    assert rows[:-1] == [dynamics.DRAW_BLOCK] * (len(rows) - 1)
    assert rows[-1] <= dynamics.DRAW_BLOCK
    assert dynamics.DRAW_BLOCK * n == 3200 > dynamics.AHEAD_CELLS


def test_pick_index_stays_below_the_active_count():
    # the largest uniform numpy draws is 1 - 2**-53
    u = 1.0 - 2.0 ** -53
    assert all(int(u * m) < m for m in range(1, 100_001))


def test_simulate_no_warning_at_slow_churn():
    # neither slow nor fast churn makes the simulation warn
    top = make_uniform_linear_array(5, 1.0)
    for alpha in (0.95, 0.5):
        cfg = DynamicsConfig(delta_t=0.1, horizon=0.5, alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            simulate_time_varying(top, cfg, 0, _band_one(top, 2))


def test_simulate_empty_active_rows():
    # alpha = 0 flips every cluster each event: the active set alternates
    # between everyone and no one
    top = make_uniform_linear_array(2, 1.0)
    cfg = DynamicsConfig(delta_t=0.05, horizon=3.0, alpha=0.0)
    tr = simulate_time_varying(top, cfg, 5, _band_one(top, 2))
    empty = tr.clusters == -1
    empty[0] = False
    assert empty.any()
    assert np.all(tr.aggregates[empty] == 0.0)
    assert np.all(tr.active_counts[empty] == 0)


def test_sample_on_grid_piecewise_constant():
    tr = SimTrace(times=np.array([0.0, 1.0, 2.0]),
                  aggregates=np.array([5.0, 3.0, 1.0]),
                  active_counts=np.array([2.0, 2.0, 2.0]), n=2, delta_t=1.0)
    got = sample_on_grid(tr, np.array([0.0, 0.5, 1.0, 1.999, 2.0, 5.0]))
    assert got == pytest.approx([5.0, 5.0, 3.0, 3.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        sample_on_grid(tr, np.array([-0.1]))


def test_ensemble_mean_trace():
    a = _flat_trace(2.0)
    b = _flat_trace(4.0)
    grid = np.arange(0.0, 10.0, 1.0)
    assert ensemble_mean_trace([a, b], grid) == pytest.approx(
        np.full(10, 3.0))
    with pytest.raises(ValueError):
        ensemble_mean_trace([], grid)


@pytest.mark.parametrize("alpha", [1.0, 0.99, 0.8])
@pytest.mark.parametrize("topo", ["ula", "hex"])
@pytest.mark.parametrize("converged", [False, True])
def test_run_ensemble_seed_layout(monkeypatch, topo, alpha, converged):
    # every replica runs bit for bit as a solo run on a start of its own
    # built the same way, and the one start they share is left as built
    top = (make_uniform_linear_array(24, 1.0) if topo == "ula"
           else make_hexagonal_lattice(4, 5, 1.0))
    r = 3
    asg = all_band_one(top.n, r)
    if converged:
        state = InterferenceCache(
            top, uniform_random_assignment(top.n, r, np.random.default_rng(4)),
            rng=np.random.default_rng(4))
        asg = run_to_convergence(state)[0].assignment()

    cfg = DynamicsConfig(delta_t=0.05, horizon=1.0, alpha=alpha, replicas=3)
    calls = []

    def spy(top, cfg, seed, initial):
        calls.append(((top, cfg, seed), initial, cache_state(initial)))
        return simulate_time_varying(top, cfg, seed, initial)

    # run_ensemble calls simulate_time_varying through its module global
    monkeypatch.setattr(dynamics, "simulate_time_varying", spy)
    traces = run_ensemble(top, cfg, 100, InterferenceCache(top, asg))
    solos = [simulate_time_varying(top, cfg, 100 + k,
                                   InterferenceCache(top, asg))
             for k in range(3)]
    assert [tr.seed for tr in traces] == [100, 101, 102]
    assert [args for args, _, _ in calls] == [
        (top, cfg, 100 + k) for k in range(3)]
    start = calls[0][1]
    assert all(s is start for _, s, _ in calls)
    assert all(state == cache_state(start) for _, _, state in calls)
    assert np.array_equal(start.bands, asg.bands)
    assert start.active.all() and start.time == 0.0
    for tr, solo in zip(traces, solos):
        for field in dataclasses.fields(SimTrace):
            got, want = getattr(tr, field.name), getattr(solo, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, field.name
                assert got.tobytes() == want.tobytes(), field.name
            else:
                assert got == want, field.name
    if alpha < 1.0:
        assert any((tr.active_counts < top.n).any() for tr in traces)


def test_simulate_rejects_a_foreign_start_cache():
    top = make_uniform_linear_array(5, 1.0)
    cfg = DynamicsConfig(delta_t=0.1, horizon=1.0)
    start = _band_one(top, 2)
    with pytest.raises(ValueError):
        simulate_time_varying(make_uniform_linear_array(5, 1.0), cfg, 0,
                              start)


def test_fit_recovers_exact_exponential():
    # mean(t) = i_a + (i_w - i_a) e^(-rho t / tau), tau = 1
    rho, i_a, i_w = 2.5, 10.0, 100.0
    t = np.linspace(0.0, 5.0, 501)
    mean = i_a + (i_w - i_a) * np.exp(-rho * t)
    assert fit_exponential_decay(t, mean, i_a, i_w, 1.0) == pytest.approx(
        rho, abs=1e-6)


def test_fit_uses_only_the_early_bracket():
    # noise below the floor must not perturb the estimate
    rho, i_a, i_w = 3.0, 0.0, 50.0
    t = np.linspace(0.0, 4.0, 401)
    agg = i_a + (i_w - i_a) * np.exp(-rho * t)
    floor_zone = (agg - i_a) / (i_w - i_a) <= 0.05
    agg[floor_zone] = i_a + 0.02 * (i_w - i_a)
    assert fit_exponential_decay(t, agg, i_a, i_w, 1.0) == pytest.approx(
        rho, abs=1e-6)


def test_fit_is_the_least_squares_slope():
    # a noisy decay that stays above the fit floor: the closed-form slope
    # agrees with a LAPACK fit
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 201)
    mean = 50.0 * np.exp(-2.0 * t) * np.exp(rng.normal(0.0, 0.05, t.size))
    slope = np.polyfit(t, np.log(mean / 50.0), 1)[0]
    assert fit_exponential_decay(t, mean, 0.0, 50.0, 4.0) == pytest.approx(
        -4.0 * slope, rel=1e-12)


def test_fit_error_cases():
    t = np.linspace(0.0, 1.0, 11)
    flat = np.full_like(t, 5.0)
    with pytest.raises(FitError):
        fit_exponential_decay(t, flat, 5.0, 5.0, 1.0)
    with pytest.raises(FitError):
        # bracket starts below the floor
        fit_exponential_decay(t, flat, 5.0, 500.0, 1.0)
    spike = np.array([100.0] + [0.0] * 10)
    with pytest.raises(FitError):
        fit_exponential_decay(t, spike, 0.0, 100.0, 1.0)


def test_steady_state_stats_hand_case():
    # replica means 1 and 3: grand mean 2, population variance 1, no
    # within-replica wiggle
    stats = steady_state_stats([_flat_trace(1.0), _flat_trace(3.0)],
                               warmup=0.0)
    assert stats.mean == pytest.approx(2.0)
    assert stats.variance == pytest.approx(1.0)
    assert stats.within == 0.0


def test_steady_state_stats_normalizes_by_n():
    stats = steady_state_stats([_flat_trace(10.0, n=5), _flat_trace(30.0, n=5)],
                               warmup=0.0)
    assert stats.mean == pytest.approx(4.0)
    assert stats.variance == pytest.approx(4.0)


def test_steady_state_stats_errors():
    with pytest.raises(StatisticsError):
        steady_state_stats([_flat_trace(1.0)], warmup=0.0)
    with pytest.raises(StatisticsError):
        steady_state_stats([_flat_trace(1.0), _flat_trace(2.0)], warmup=10.0)
    with pytest.raises(StatisticsError):
        steady_state_stats([_flat_trace(1.0, delta_t=20.0),
                            _flat_trace(2.0, delta_t=20.0)], warmup=0.0)


def test_quiescent_ensemble_has_zero_variance():
    # alpha = 1 from a shared converged assignment: nothing ever moves
    top = make_uniform_linear_array(10, 1.0)
    state = InterferenceCache(
        top, uniform_random_assignment(10, 2, np.random.default_rng(1)),
        rng=np.random.default_rng(1))
    state, _ = run_to_convergence(state)
    converged = state.assignment()
    cfg = DynamicsConfig(delta_t=0.05, horizon=2.0, alpha=1.0, replicas=4)
    traces = run_ensemble(top, cfg, 50, InterferenceCache(top, converged))
    stats = steady_state_stats(traces, warmup=0.5)
    assert stats.variance == 0.0
    assert stats.within == pytest.approx(0.0, abs=1e-20)
    assert stats.mean == pytest.approx(state.aggregate() / 10.0)
