"""Time-varying activity: Markov on/off churn over the update process.

Update events arrive as a network-wide Poisson process of rate 1/delta_t;
at every event each cluster's on/off state advances one step of a symmetric
two-state Markov chain (stay with probability alpha), applied to the cache
as one apply_flips update, then one uniformly chosen active cluster applies
the best-band rule.  The ensemble mean of the aggregate relaxes exponentially
with rate rho/tau (tau = N*delta_t), and in steady state the variance
follows a closed-form prediction gated by the stability margin
8*(1-alpha)/rho < 1.  The runners start every replica with all clusters
active, and the activity relaxes to the stationary half-active split only
with time constant delta_t/(2*(1-alpha)): at low switching rates a short
horizon ends well before it (about 91% active at t=1 for 1-alpha=0.001 and
delta_t=0.01).

A replica starts only from a start InterferenceCache: it runs a copy
(InterferenceCache.copy), bitwise the state a fresh build would give.  A
run builds each start once for every replica and ensemble that shares it,
so the O(N^2) build is not paid per replica.

Seed discipline: replica k of an ensemble uses base_seed + k; within one
replica, SeedSequence(seed).spawn(2) yields the scheduling stream and the
activity stream.  The scheduling stream draws the event gaps, and a child
spawned from it draws one pick uniform per event (see InterferenceCache);
the activity stream draws one uniform per cluster per event, the flip rows.
Each kind of draw comes from a stream of its own, so no block size changes
a value, and alpha=1 runs are event-for-event identical to the static
Poisson engine driven by the scheduling stream alone.

Neither the clock nor the churn reads the bands, so a replica reads its
events ahead in blocks, as many as the horizon is known to need: the
expected count up to the horizon plus four standard deviations of that
Poisson count, at least interference.DRAW_BLOCK, and at most
max(DRAW_BLOCK, AHEAD_CELLS // N) events.  A block's flip draw thus stays
within AHEAD_CELLS cells up to N = AHEAD_CELLS / DRAW_BLOCK = 2048; above
that a full block draws DRAW_BLOCK * N cells.  One block nearly always reaches
the horizon; one that falls short is followed by another sized the same
way.  The running sums of a block's gaps, cut at the horizon with one
searchsorted, give the event times, and the flip rows of its events,
XOR-accumulated onto the current mask, give every event's mask row, active
count, flipped clusters with their rows in the cache's signed band table,
and pick (the floor(u*m)-th active cluster).  Each event then hands its
flips and mask row to the cache and makes one apply_update call if it
found an active cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interference
from .allocation import UpdateRecord, apply_update
from .interference import InterferenceCache
from .topology import Topology

__all__ = [
    "DynamicsConfig",
    "SimTrace",
    "DynamicsPrediction",
    "FitError",
    "StatisticsError",
    "SteadyStateStats",
    "replica_streams",
    "replica_trace",
    "time_scale",
    "lambda_from_alpha",
    "stability_margin",
    "simulate_time_varying",
    "run_ensemble",
    "sample_on_grid",
    "ensemble_mean_trace",
    "fit_exponential_decay",
    "predicted_variance",
    "steady_state_stats",
]

DEFAULT_RHO = 3.0
# Switching rate 1 - alpha above which the near-equilibrium variance
# prediction is strained.
NEAR_EQUILIBRIUM_RATE = 0.1
# Fraction of the initial gap below which the decay fit stops trusting the
# ensemble mean (noise floor).
FIT_FLOOR = 0.05
# Cells (events x clusters) one read-ahead block of simulate_time_varying
# draws at most, 1 MiB of float64, while N <= AHEAD_CELLS / DRAW_BLOCK: a
# block never holds fewer than DRAW_BLOCK events, so above N = 2048 a full
# block draws DRAW_BLOCK * N cells.
AHEAD_CELLS = 1 << 17


class FitError(RuntimeError):
    """Decay fit impossible (degenerate or too-short bracket)."""


class StatisticsError(RuntimeError):
    """Not enough post-warmup samples for a variance estimate."""


def time_scale(n: int, delta_t: float) -> float:
    """tau = N*delta_t, the mean time between two updates of one cluster."""
    return n * delta_t


@dataclass
class DynamicsConfig:
    """Event-simulation parameters for one time-varying run."""

    delta_t: float
    horizon: float
    alpha: float = 1.0
    replicas: int = 1

    def __post_init__(self):
        if not (self.delta_t > 0):
            raise ValueError(f"delta_t must be > 0, got {self.delta_t}")
        if not (0 < self.horizon < math.inf):
            raise ValueError(f"horizon must be finite and > 0, got "
                             f"{self.horizon}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")


@dataclass(eq=False)
class SimTrace:
    """Aggregate-interference time series of one replica.

    Event rows: times[0] = 0 is the initial snapshot (cluster -1, bands 0);
    later rows record (post-event aggregate, active count) per event.  A
    cluster value of -1 after t=0 marks an event with an empty active set.
    """

    times: np.ndarray
    aggregates: np.ndarray
    active_counts: np.ndarray
    n: int
    delta_t: float
    clusters: np.ndarray | None = None
    old_bands: np.ndarray | None = None
    new_bands: np.ndarray | None = None
    final_bands: np.ndarray | None = None
    seed: int | None = None

    @property
    def events(self) -> int:
        return max(0, self.times.size - 1)


@dataclass
class DynamicsPrediction:
    """Steady-state prediction at a given operating level i_a."""

    margin: float
    sigma_ss_sq: float

    @property
    def divergent(self) -> bool:
        return self.margin >= 1.0


def replica_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(scheduling stream, activity stream) for one replica seed."""
    sched_seq, act_seq = np.random.SeedSequence(seed).spawn(2)
    return (np.random.Generator(np.random.PCG64(sched_seq)),
            np.random.Generator(np.random.PCG64(act_seq)))


def lambda_from_alpha(alpha: float, n: int, tau: float) -> float:
    """Poisson rate of on/off transitions in each direction."""
    if not (tau > 0):
        raise ValueError(f"tau must be > 0, got {tau}")
    return n * n * (1.0 - alpha) / (2.0 * tau)


def stability_margin(alpha: float, rho: float) -> float:
    """8*(1-alpha)/rho; below 1 the steady-state variance stays finite."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not (rho > 0):
        raise ValueError(f"rho must be > 0, got {rho}")
    return 8.0 * (1.0 - alpha) / rho


def simulate_time_varying(top: Topology, cfg: DynamicsConfig, seed: int,
                          initial: InterferenceCache) -> SimTrace:
    """Event-driven run over [0, horizon] with Markov activity churn.

    The replica runs a copy, on its scheduling stream, of the start cache
    initial, built on top and never written; its bands and activity are the
    start, and initial.r is the band count.  A copy runs bit for bit as a
    fresh build would.  A cluster switched off keeps its band and resumes
    with it.

    The activity relaxes toward the stationary half-active split with
    time constant delta_t/(2*(1-alpha)), so at low switching rates the
    split is not reached within a short horizon: at 1-alpha = 0.001 and
    delta_t = 0.01 (fig6's lowest rate) the constant is 5.0, and at a
    horizon of 1 about 91% of clusters are still active.  Deterministic
    per seed.
    """
    if initial.topology is not top:
        raise ValueError("initial cache was built on another topology")
    sched_rng, act_rng = replica_streams(seed)
    cache = initial.copy(sched_rng)
    n = top.n
    rate = 1.0 - cfg.alpha
    a0 = cache.aggregate()
    records = []
    active_counts = [int(cache.active.sum())]

    # most events one block may read: bounds its rows x N flip draw
    cap = max(interference.DRAW_BLOCK, AHEAD_CELLS // n)
    ran = rows = 0
    while ran == rows:
        # the events expected up to the horizon and four standard deviations
        # more (the count is Poisson), so one block nearly always suffices
        mean = (cfg.horizon - cache.time) / cfg.delta_t
        rows = min(cap, max(interference.DRAW_BLOCK,
                            math.ceil(mean + 4.0 * math.sqrt(mean))))
        # the events of the block that fall within the horizon
        times = cache.event_times(
            cfg.delta_t * cache.rng.standard_exponential(rows))
        ran = int(np.searchsorted(times, cfg.horizon, side="right"))
        if ran == 0:
            break
        masks, counts, picks, cols, flip_rows, ends = _churn_block(
            cache, act_rng, rate, ran)
        for e, t in enumerate(times[:ran].tolist()):
            cache.time = t
            lo, hi = ends[e], ends[e + 1]
            if hi > lo:
                cache.apply_flips(cols[lo:hi], flip_rows[lo:hi], masks[e])
            i = picks[e]
            records.append(apply_update(cache, i) if i >= 0
                           else UpdateRecord(t, -1, 0, 0, 0.0))
        active_counts += counts

    return replica_trace(records, a0, active_counts, n, cfg.delta_t,
                         final_bands=cache.bands.copy(), seed=seed)


def _churn_block(cache: InterferenceCache, act_rng: np.random.Generator,
                 rate: float, rows: int):
    """Activity and picks of the next `rows` events, from the cache's
    current mask: a cluster flips at an event when its uniform in that
    event's row of act_rng falls below rate (no draw when rate is 0).

    Returns (masks, counts, picks, cols, flip_rows, ends): masks[e] is the
    activity after event e's flips, counts[e] its active count and picks[e]
    its floor(u*m)-th active cluster for the event's pick uniform u (-1 when
    none is active); event e flips the clusters cols[ends[e]:ends[e+1]],
    and flip_rows holds each flip's row in the cache's signed band
    table: the cluster j where it turns on, j + N where it turns off.  The
    best-response steps never touch activity, so a whole block is read
    ahead of them.  A block without flips keeps the current mask (masks is
    then None) and picks through the cache's picks_of.
    """
    n = cache.n
    u = cache.pick_uniforms(rows)
    flips = act_rng.random((rows, n)) < rate if rate > 0.0 else None
    hits = np.flatnonzero(flips) if flips is not None else np.empty(0, int)
    if hits.size == 0:
        counts = [int(cache.active.sum())] * rows
        return None, counts, cache.picks_of(u), hits, None, [0] * (rows + 1)
    # XOR-accumulate the flip rows onto the current mask
    masks = np.bitwise_xor.accumulate(flips.view(np.uint8), axis=0).view(bool)
    masks ^= cache.active
    # flat positions e*n + j of the active clusters, row by row
    on = np.flatnonzero(masks)
    row_starts = np.arange(rows + 1) * n
    starts = np.searchsorted(on, row_starts)
    counts = np.diff(starts)
    nth = starts[:-1] + (u * counts).astype(np.int64)
    picks = np.append(on, -1)[nth] - row_starts[:-1]
    picks[counts == 0] = -1
    cols = hits % n
    flip_rows = np.where(masks.ravel()[hits], cols, cols + n)
    ends = np.searchsorted(hits, row_starts).tolist()
    return masks, counts.tolist(), picks.tolist(), cols, flip_rows, ends


def replica_trace(records: list[UpdateRecord], a0: float, active_counts,
                  n: int, delta_t: float, **fields) -> SimTrace:
    """SimTrace of one replica's events: a snapshot row at t=0 (aggregate
    a0, cluster -1, bands 0), then one row per record.  active_counts holds
    one count per row, the snapshot's first; `fields` go to SimTrace as
    they are."""
    return SimTrace(
        times=np.array([0.0] + [rec.time for rec in records]),
        aggregates=np.array([a0] + [rec.aggregate_after for rec in records]),
        active_counts=np.asarray(active_counts, dtype=np.int64),
        n=n, delta_t=delta_t,
        clusters=np.array([-1] + [rec.cluster for rec in records],
                          dtype=np.int64),
        old_bands=np.array([0] + [rec.old_band for rec in records],
                           dtype=np.int64),
        new_bands=np.array([0] + [rec.new_band for rec in records],
                           dtype=np.int64),
        **fields)


def run_ensemble(top: Topology, cfg: DynamicsConfig, base_seed: int,
                 initial: InterferenceCache) -> list[SimTrace]:
    """Independent replicas with seeds base_seed + k, k = 0..replicas-1.

    Each replica runs a copy of the start cache initial, which callers may
    share across ensembles.
    """
    return [simulate_time_varying(top, cfg, base_seed + k, initial)
            for k in range(cfg.replicas)]


def sample_on_grid(trace: SimTrace, grid: np.ndarray) -> np.ndarray:
    """Piecewise-constant (right-continuous) aggregate values at grid times."""
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid.min() < trace.times[0]):
        raise ValueError("grid extends before the trace start")
    pos = np.searchsorted(trace.times, grid, side="right") - 1
    return trace.aggregates[pos]


def ensemble_mean_trace(traces: list[SimTrace],
                        grid: np.ndarray) -> np.ndarray:
    """Mean aggregate over replicas at the times of a common grid."""
    if not traces:
        raise ValueError("empty ensemble")
    return np.mean([sample_on_grid(tr, grid) for tr in traces], axis=0)


def fit_exponential_decay(times: np.ndarray, mean: np.ndarray, i_a: float,
                          i_w: float, tau: float) -> float:
    """Relaxation-rate estimate rho_hat from an alpha=1 ensemble mean
    aggregate `mean` sampled at `times`.

    Least-squares line through log((mean(t) - i_a)/(i_w - i_a)) on the
    initial stretch where that bracket exceeds FIT_FLOOR; the slope is
    -rho_hat/tau, taken in closed form with math.fsum sums, so no LAPACK
    kernel moves its last bits.
    """
    if not (i_w > i_a):
        raise FitError(f"need i_w > i_a, got i_w={i_w}, i_a={i_a}")
    bracket = (mean - i_a) / (i_w - i_a)
    below = np.flatnonzero(bracket <= FIT_FLOOR)
    stop = below[0] if below.size else bracket.size
    if stop < 2:
        raise FitError(
            "degenerate trace: bracket is below the fit floor from the start")
    y = np.log(bracket[:stop])
    t = times[:stop]
    dt = t - math.fsum(t) / stop
    dy = y - math.fsum(y) / stop
    slope = math.fsum(dt * dy) / math.fsum(dt * dt)
    return float(-slope * tau)


def predicted_variance(i_a: float, alpha: float,
                       rho: float = DEFAULT_RHO) -> DynamicsPrediction:
    """Steady-state variance of the aggregate around level i_a.

    With m = stability_margin(alpha, rho), sigma_ss_sq = i_a^2*m/(1 - m)
    while m < 1; at or beyond the boundary it is +inf and the divergent
    flag is set.
    """
    margin = stability_margin(alpha, rho)
    sigma = (i_a * i_a * margin / (1.0 - margin) if margin < 1.0
             else math.inf)
    return DynamicsPrediction(margin=margin, sigma_ss_sq=sigma)


@dataclass
class SteadyStateStats:
    """Post-warmup statistics of the normalized aggregate.

    Per-replica time means are computed first on a common sampling grid, then
    pooled across the ensemble: variance is the population (ddof=0) variance
    of those per-replica means around the grand mean.  Scheduling noise that
    averages out within a replica is thereby removed; the activity-driven
    spread across replicas remains.  within (the mean per-replica time
    variance around each replica's own mean) is kept as a diagnostic.
    """

    mean: float
    variance: float
    within: float


def steady_state_stats(traces: list[SimTrace],
                       warmup: float) -> SteadyStateStats:
    """Post-warmup ensemble statistics on a regular sampling grid.

    Samples every event scale delta_t (of the first trace) from warmup up
    to, not including, the earliest last event of any replica; aggregates
    are normalized by N before pooling.
    """
    if len(traces) < 2:
        raise StatisticsError("need at least 2 replicas")
    t_end = min(float(tr.times[-1]) for tr in traces)
    if not (warmup < t_end):
        raise StatisticsError(
            f"warmup {warmup} leaves no samples before t_end {t_end}")
    grid = np.arange(warmup, t_end, traces[0].delta_t)
    if grid.size < 2:
        raise StatisticsError("fewer than 2 post-warmup samples per replica")
    n = traces[0].n
    rows = np.stack([sample_on_grid(tr, grid) / n for tr in traces])
    rep_means = rows.mean(axis=1)
    grand = float(rep_means.mean())
    within = float(np.mean(rows.var(axis=1)))
    between = float(np.mean((rep_means - grand) ** 2))
    return SteadyStateStats(mean=grand, variance=between, within=within)
