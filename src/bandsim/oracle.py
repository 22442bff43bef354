"""Ground truth and analytic bounds for band assignments.

Exhaustive search over r^N assignments (small N), structured reference
assignments (alternating along an array, 1:r reuse on lattices), the
zeta-function asymptotics of the optimal per-cluster interference, all
built once per topology as a `Reference`, and a per-replica report that
checks a converged assignment against that reference.

The 1:r reuse value is a near-optimal reference, never labeled optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import REL_TOL
from .interference import (Assignment, activity_mask,
                           aggregate_interference, weight_matrix,
                           worst_case_interference)
from .topology import Topology

__all__ = [
    "ORACLE_CAP",
    "OracleCapacityError",
    "alternating_assignment",
    "lattice_reuse_assignment",
    "brute_force_optimal",
    "riemann_zeta",
    "alternating_limit",
    "Reference",
    "reference",
    "BoundReport",
    "bound_report",
]

# Largest search space r^n_active the exhaustive oracle takes on.
ORACLE_CAP = 2 ** 20
# Float terms in one working array of the oracle: a scoring block of
# (head, tail) code pairs, or a chunk of (pair, code) terms in _pair_sums.
_BLOCK_TERMS = 2 ** 14
_ZETA_TERMS = 12
# B_2k / (2k)! for k = 1..7: the Euler-Maclaurin corrections of riemann_zeta.
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600,
                    1 / 47900160, -691 / 1307674368000, 1 / 74724249600)


class OracleCapacityError(ValueError):
    """Search space exceeds the exhaustive-search cap."""


def alternating_assignment(n: int, r: int) -> Assignment:
    """Bands cycling 1, 2, ..., r along the cluster index."""
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    return Assignment(np.arange(n, dtype=np.int64) % r + 1, r)


def lattice_reuse_assignment(rows: int, cols: int, r: int,
                             lattice: str = "rect") -> Assignment:
    """1:r frequency reuse on a rows x cols "rect" or "hex" lattice
    (row-major indexing).

    r=2 is the checkerboard.  r=4 tiles 2x2 blocks on rect; on hex it is
    the triangular 4-colouring, the blocks shifted one column every two
    rows.  Either way co-band clusters are at least 2d apart.  A
    near-optimal reference pattern, not a certified optimum.
    """
    if rows < 1 or cols < 1:
        raise ValueError("degenerate lattice size")
    if lattice not in ("rect", "hex"):
        raise ValueError(f"unknown lattice kind {lattice!r}")
    i, j = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    if r == 2:
        bands = (i + j) % 2 + 1
    elif r == 4:
        shift = i // 2 if lattice == "hex" else 0
        bands = 2 * (i % 2) + (j - shift) % 2 + 1
    else:
        raise ValueError(f"no 1:{r} reuse pattern defined (r must be 2 or 4)")
    return Assignment(bands.ravel().astype(np.int64), r)


def brute_force_optimal(top: Topology, act: np.ndarray | None, r: int
                        ) -> tuple[Assignment, float]:
    """Globally minimal aggregate over all r^n_active assignments.

    Inactive clusters are pinned to band 1 (they contribute nothing).
    Returns the lexicographically smallest minimizer.  Capped at
    ORACLE_CAP; raises OracleCapacityError beyond it, and ValueError on an
    activity mask of the wrong length, both before any work.

    The search is exact but visits only k^(m-1) of the r^m assignments of
    the m active clusters, with k = min(r, m):

    - Pinned band.  Band labels carry no physics.  Relabeling bands in the
      order of their first use maps every minimizer to a lexicographically
      smaller or equal one that puts the first active cluster on band 1
      and uses only bands 1..k.  So the search covers only those.
    - Split.  The active clusters split into a head H (the most significant
      digits, the pinned one included) and a tail L, so that
      agg = A_H[h] + A_L[l] + sum_b onehot_H(b) @ (2 W_HL) @ onehot_L(b)^T.
      A_H and A_L are pair sums within each part.  Head codes go in blocks
      of about _BLOCK_TERMS (2^14) (head, tail) pairs, each block costing
      k matrix products, and pair sums go in chunks of as many terms, so
      the working set stays fixed up to the cap: one call peaks at 0.65 MB
      traced at n=19 and 0.78 MB at n=20 (unit ULA, r=2).  Row-major order
      over (head, tail) is lexicographic order.
    - Tie re-scoring.  Every code within REL_TOL (1e-9) relative of the
      running minimum is kept and re-scored by one pairwise sum over all
      active pairs, the same sum for every code.  Assignments equal up to band
      labels then score bit-identically, and the lexicographically smallest
      of the exact minima is returned with that value.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    idx = np.flatnonzero(activity_mask(top, act))
    m = idx.size
    if r ** m > ORACLE_CAP:
        raise OracleCapacityError(
            f"{r}^{m} assignments exceed the cap of {ORACLE_CAP}")
    base = np.ones(top.n, dtype=np.int64)
    if m == 0:
        return Assignment(base, r), 0.0

    w = 2.0 * weight_matrix(top)[np.ix_(idx, idx)]
    bands = min(r, m)
    n_head = 1 + (m - 1) // 2
    # Head codes below bands^(n_head-1) keep the first cluster on digit 0.
    head_digits = _digits(np.arange(bands ** (n_head - 1)), n_head, bands)
    tail_digits = _digits(np.arange(bands ** (m - n_head)), m - n_head, bands)
    head_agg = _pair_sums(head_digits, w[:n_head, :n_head])
    tail_agg = _pair_sums(tail_digits, w[n_head:, n_head:])
    head_hot = [(head_digits == b).astype(float) for b in range(bands)]
    # cross[b][h, l]: coupling of head cluster h on band b to tail code l.
    cross = [w[:n_head, n_head:] @ (tail_digits == b).T
             for b in range(bands)]

    n_tail_codes = tail_agg.size
    block = max(1, _BLOCK_TERMS // n_tail_codes)
    best = math.inf
    kept = []
    for start in range(0, head_agg.size, block):
        rows = slice(start, start + block)
        agg = head_agg[rows, None] + tail_agg
        for b in range(bands):
            agg += head_hot[b][rows] @ cross[b]
        best = min(best, float(agg.min()))
        # rounding in the blocked sums is far below REL_TOL
        close = np.flatnonzero(agg.ravel() <= best * (1.0 + REL_TOL))
        kept.append(start * n_tail_codes + close)
    codes = np.concatenate(kept)
    digits = _digits(codes, m, bands)
    values = _pair_sums(digits, w)
    pos = int(np.argmin(values))
    base[idx] = digits[pos] + 1
    return Assignment(base, r), float(values[pos])


def _digits(codes: np.ndarray, width: int, r: int) -> np.ndarray:
    """Base-r digits of codes, most significant first, as (codes, width)."""
    place = r ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (codes[:, None] // place[None, :]) % r


def _pair_sums(digits: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of w[i, j] over the pairs i < j that share a digit, per row.

    Rows go in chunks of about _BLOCK_TERMS (pair, row) terms.  A chunk is
    one C-ordered array: a row of zeros, then one row of terms per pair in
    (i, j) order.  A running sum down its outer axis adds the pairs one at
    a time in that order, so a row's value does not depend on the other
    rows scored with it.  (np.add.reduce would do the same on two or more
    rows, but sums a single row pairwise, which changes its bits.)
    """
    i, j = np.triu_indices(digits.shape[1], k=1)
    w_pairs = w[i, j][:, None]
    chunk = max(1, _BLOCK_TERMS // max(1, i.size))
    sums = np.empty(digits.shape[0])
    for start in range(0, digits.shape[0], chunk):
        d = digits[start:start + chunk].T
        terms = np.zeros((i.size + 1, d.shape[1]))
        np.multiply(d[i] == d[j], w_pairs, out=terms[1:])
        sums[start:start + chunk] = np.add.accumulate(terms, out=terms)[-1]
    return sums


def riemann_zeta(eta: float) -> float:
    """zeta(eta) by Euler-Maclaurin summation.

    The first _ZETA_TERMS (12) terms are summed directly.  The rest is the
    tail integral minus half the last term, plus the Bernoulli corrections
    B_2..B_14.  The relative error is below 1e-15 for eta in [1.001, 10];
    diverges for eta <= 1.
    """
    if eta <= 1:
        raise ValueError(f"zeta({eta}) diverges (need eta > 1)")
    m = float(_ZETA_TERMS)
    parts = [j ** -eta for j in range(1, _ZETA_TERMS + 1)]
    parts += [m ** (1.0 - eta) / (eta - 1.0), -0.5 * m ** -eta]
    # B_2k/(2k)! * eta(eta+1)...(eta+2k-2) * m^(-eta-2k+1), k = 1..7
    rising = eta
    power = m ** (-eta - 1.0)
    for k, coeff in enumerate(_EULER_MACLAURIN, 1):
        parts.append(coeff * rising * power)
        rising *= (eta + 2 * k - 1) * (eta + 2 * k)
        power /= m * m
    return math.fsum(parts)


def alternating_limit(r: int, eta: float, p0: float = 1.0,
                      d: float = 1.0) -> float:
    """N -> infinity limit of the per-cluster aggregate of the alternating
    1:r pattern on a uniform linear array with spacing d:
    2*zeta(eta)*p0 / (r*d)^eta.

    Finite arrays approach it from below, since end clusters have co-band
    neighbours on one side only: at N=100, r=2, eta=2, d=p0=1 the
    alternating pattern gives 0.7676 per cluster against this value's
    0.8225.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not (d > 0) or not (p0 > 0):
        raise ValueError("need d > 0 and p0 > 0")
    return 2.0 * riemann_zeta(eta) * p0 / (r ** eta * d ** eta)


@dataclass(frozen=True, eq=False)
class Reference:
    """What every converged replica of one topology is scored against.

    asg, kind and aggregate describe the structured reference assignment
    (None without one).  i_o is the exhaustive optimum (i_o_kind "oracle")
    when r^n_active is within the oracle cap, else the reference aggregate
    ("reference"), else None.  ratio_cap is the paper's asymptotic cap on
    i_a / i_o, an N -> infinity bound that small arrays can exceed (a
    best-response fixed point of the r=2, eta=2 uniform line reaches
    i_a / i_o = 20/9 at n=4); limit is the N -> infinity per-cluster
    aggregate of the alternating pattern (1-D).
    act is a copy of the activity mask it was built with (None: all active).
    """

    top: Topology
    act: np.ndarray | None
    r: int
    asg: Assignment | None
    kind: str | None
    aggregate: float | None
    i_w: float
    i_o: float | None
    i_o_kind: str | None
    ratio_cap: float
    gap_convention: str
    limit: float | None


def reference(top: Topology, act: np.ndarray | None, r: int,
              d_ref: float | None = None,
              lattice: tuple[str, int, int] | None = None) -> Reference:
    """The bounds and references of one topology with r bands.

    The reference assignment is 1:r reuse on a `lattice` of (kind, rows,
    cols), kind "rect" or "hex", when r is 2 or 4, alternating on a 1-D
    array, else none.  The ratio cap is r^(eta-1), on a 1-D array scaled
    by its min/max adjacent gaps against d_ref (default: the mean adjacent
    gap), which is also the spacing of the N -> infinity limit.  The cap
    is asymptotic and is checked at every N, so bound_report can flag a
    small array's fixed point.
    """
    n = top.n
    if act is not None:  # checked before any work, kept apart from the caller
        act = activity_mask(top, act).copy()
    asg, kind, aggregate = None, None, None
    if lattice is not None and r in (2, 4):
        lattice_kind, rows, cols = lattice
        asg = lattice_reuse_assignment(rows, cols, r, lattice_kind)
        kind = f"reuse_1_{r}"
    elif top.dim == 1:
        asg, kind = alternating_assignment(n, r), "alternating"
    if asg is not None:
        aggregate = aggregate_interference(top, asg, act)
    try:
        _, i_o = brute_force_optimal(top, act, r)
        i_o_kind = "oracle"
    except OracleCapacityError:
        i_o = aggregate
        i_o_kind = None if aggregate is None else "reference"
    cap = r ** (top.eta - 1.0)
    gap_convention = "none (2-D: configuration-independent cap)"
    if top.dim == 1 and n >= 2:
        xs = np.sort(top.positions[:, 0])
        gaps = np.diff(xs)
        if d_ref is None:
            d_ref = float(xs[-1] - xs[0]) / (n - 1)
        cap /= (float(gaps.min()) / min(float(gaps.max()), d_ref)) ** top.eta
        gap_convention = "adjacent"
    limit = None
    if top.dim == 1 and top.eta > 1 and d_ref is not None and d_ref > 0:
        limit = alternating_limit(r, top.eta, top.p0, d_ref)
    return Reference(
        top=top, act=act, r=r, asg=asg, kind=kind,
        aggregate=aggregate, i_w=worst_case_interference(top, act),
        i_o=i_o, i_o_kind=i_o_kind, ratio_cap=cap,
        gap_convention=gap_convention, limit=limit)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One converged aggregate i_a checked against its topology's `ref`;
    ratio_ao, ratio_cap_ok and ordering_ok are None where i_o allows no
    check (ordering is checked only against the exhaustive oracle)."""

    ref: Reference
    i_a: float
    ratio_aw: float
    ratio_ao: float | None
    upper_bound_ok: bool
    ratio_cap_ok: bool | None
    ordering_ok: bool | None


def bound_report(ref: Reference, converged: Assignment) -> BoundReport:
    """Check a converged assignment against its topology's bounds and
    references.  Violations are reported via the *_ok flags, never raised;
    every comparison allows REL_TOL relative slack."""
    i_a = aggregate_interference(ref.top, converged, ref.act)
    ratio_ao, cap_ok, ordering_ok = None, None, None
    if ref.i_o is not None and ref.i_o > 0:
        ratio_ao = i_a / ref.i_o
        cap_ok = ratio_ao <= ref.ratio_cap * (1.0 + REL_TOL)
    if ref.i_o_kind == "oracle":
        ordering_ok = ref.i_o <= i_a * (1.0 + REL_TOL)
    return BoundReport(
        ref=ref, i_a=i_a,
        ratio_aw=i_a / ref.i_w if ref.i_w > 0 else math.nan,
        ratio_ao=ratio_ao,
        upper_bound_ok=bool(i_a <= ref.i_w / ref.r * (1.0 + REL_TOL)),
        ratio_cap_ok=cap_ok, ordering_ok=ordering_ok)
