"""Vectorized acceptance-test kernels (the hot path of Sec. 4).

The acceptance tests in :mod:`repro.core.acceptance` are exercised
thousands of times per histogram build (``FindLargest`` doubling +
binary search alone re-tests eight bucklets per probe).  This module
holds the batch implementations that make those tests cheap:

* :func:`subquadratic_test_vectorized` -- Sec. 4.2's early-exit test
  with *no* Python-level loop over left endpoints: the θ-boundary and
  the kθ-boundary of every left endpoint are found at once with
  ``np.searchsorted`` on the density's prefix-sum array, only the
  "interesting" (i, j) pairs in between are materialised as flat index
  arrays, and the small/q-acceptable predicates are evaluated in one
  shot.  Corollary 4.2's violation-size bound keeps the total window
  mass small, so the pair set stays near-linear in practice.
* :func:`pretest_dense_batch` -- Theorem 4.3's pretest for many
  candidate ranges at once (one ``np.maximum.reduceat`` pass instead of
  one Python call per bucklet).
* :func:`batch_slope_constraints` / :func:`slope_constraints` -- the
  α-feasibility constraints of the QVWH/value-based incremental
  builders, shared between dense (index-space) and non-dense
  (value-space) construction; :func:`interval_slope_bounds` is their
  per-interval form, which the chunked QVWH growth reduces per step.
* :class:`AcceptanceCache` -- a per-build memo for acceptance decisions
  and slope constraints, so ``FindLargest`` doubling/binary search and
  the classic QVWH and value-based α-bound loops never recompute an
  identical range.

Decision equivalence: the vectorized kernel reproduces the scalar
kernels' comparisons on the *same float64 values* (estimates are taken
from one shared ``alpha * width`` array, truths from the same int64
prefix sums), so its accept/reject decisions are bit-for-bit identical
to :func:`repro.core.acceptance.subquadratic_test` and
:func:`repro.core.acceptance.subquadratic_test_literal`; the property
suite asserts this on random densities.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.core.density import AttributeDensity

__all__ = [
    "subquadratic_test_vectorized",
    "acceptance_matrix_batch",
    "pretest_dense_batch",
    "batch_slope_constraints",
    "interval_slope_bounds",
    "slope_constraints",
    "slope_constraints_scalar",
    "value_slope_constraints_scalar",
    "count_slope_constraints_scalar",
    "AcceptanceCache",
    "KERNEL_NAMES",
    "PAIR_CHUNK",
    "MATRIX_STRATEGY_MAX",
]

# Valid values for HistogramConfig.kernel; "literal" is the Sec. 4.2
# prose rendering kept as the correctness oracle.
KERNEL_NAMES = ("vectorized", "literal")

# Upper bound on materialised (i, j) pairs per evaluation chunk; windows
# beyond this are processed in slices to bound peak memory.
PAIR_CHUNK = 1 << 22

# Buckets up to this many distinct values are decided by the dense
# all-pairs matrix strategy (a handful of broadcast operations on an
# n x n grid) instead of the searchsorted/flat-pair strategy.  The
# combined test's MaxSize is 300, so construction-time calls always take
# the matrix path; the boundary strategy exists for large explicit
# calls, where an n x n matrix would not fit in memory.
MATRIX_STRATEGY_MAX = 512


def _alpha_for(density: AttributeDensity, l: int, u: int) -> float:
    return density.f_plus(l, u) / (u - l)


def subquadratic_test_vectorized(
    density: AttributeDensity,
    l: int,
    u: int,
    theta: float,
    q: float,
    k: float = 8.0,
    alpha: Optional[float] = None,
) -> bool:
    """Sec. 4.2's early-exit test with no Python loop over left endpoints.

    Two strategies, both decision-identical to the scalar kernels:

    * small buckets (``u - l <= MATRIX_STRATEGY_MAX``, which covers every
      construction-time call thanks to MaxSize): evaluate all (i, j)
      pairs on one n x n broadcast grid, masking out the pairs the
      early-exit rule skips;
    * large buckets: locate every left endpoint's θ-boundary and
      kθ-boundary at once with ``np.searchsorted`` on the prefix-sum
      array (both boundaries are monotone in ``j``), materialise only
      the "interesting" pairs in between as flat index arrays, and
      evaluate the predicates in one shot.
    """
    if not 0 <= l < u <= density.n_distinct:
        raise IndexError(f"bucket [{l}, {u}) out of range")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if alpha is None:
        alpha = _alpha_for(density, l, u)
    if u - l <= MATRIX_STRATEGY_MAX:
        return _subquadratic_matrix(density.cumulative, l, u, theta, q, k, alpha)
    return _subquadratic_boundaries(density.cumulative, l, u, theta, q, k, alpha)


def _subquadratic_matrix(
    cum: np.ndarray, l: int, u: int, theta: float, q: float, k: float, alpha: float
) -> bool:
    """All-pairs broadcast strategy for small buckets.

    Grid cell (a, b) is the pair ``i = l + a``, ``j = l + b + 1``; cells
    below the diagonal (b < a) are padding.  The early-exit rule skips a
    pair exactly when some *earlier* right endpoint of the same row
    already had truth and estimate at or above kθ (both are monotone in
    ``j``, so everything after the first such endpoint is covered by
    Theorem 4.2); pairs with truth and estimate at most θ are acceptable
    by definition, so the θ-boundary needs no explicit mask.
    """
    n = u - l
    c = cum[l : u + 1]
    est_all = alpha * np.arange(1, n + 1, dtype=np.float64)
    t = (c[1:][None, :] - c[:-1][:, None]).astype(np.float64)
    offs = np.arange(n)
    w = offs[None, :] - offs[:, None]  # width - 1; negative below diagonal
    valid = w >= 0
    e = est_all[np.maximum(w, 0)]
    stop = k * theta
    done = (t >= stop) & (e >= stop) & valid
    skipped = (np.cumsum(done, axis=1) - done) > 0  # done strictly earlier
    small = (t <= theta) & (e <= theta)
    qacc = (t <= q * e) & (e <= q * t)
    return bool(np.all(small | qacc | skipped | ~valid))


def _subquadratic_boundaries(
    cum: np.ndarray, l: int, u: int, theta: float, q: float, k: float, alpha: float
) -> bool:
    """Boundary-search strategy for large buckets (see the dispatcher)."""
    n = u - l
    base = cum[l:u]
    lefts = np.arange(l, u, dtype=np.int64)
    sizes = u - lefts  # window length per left endpoint
    stop = k * theta

    # Estimates depend only on the width, so one ramp serves every i.
    est_all = alpha * np.arange(1, n + 1, dtype=np.float64)

    # θ-boundary: first window index m where truth > θ or estimate > θ.
    jt = np.searchsorted(cum, base + theta, side="right")
    start_truth = np.clip(jt - lefts - 1, 0, sizes)
    start_est = int(np.searchsorted(est_all, theta, side="right"))
    starts = np.minimum(start_truth, start_est)

    # kθ-boundary: first window index m where truth >= kθ AND est >= kθ.
    jd = np.searchsorted(cum, base + stop, side="left")
    done_truth = np.clip(jd - lefts - 1, 0, sizes)
    done_est = int(np.searchsorted(est_all, stop, side="left"))
    done_first = np.maximum(done_truth, done_est)
    ends = np.where(done_first < sizes, done_first + 1, sizes)

    counts = np.maximum(ends, starts) - starts
    counts[starts >= sizes] = 0
    active = counts > 0
    if not np.any(active):
        return True

    i_active = lefts[active]
    cnt = counts[active]
    st = starts[active]
    pair_cum = np.concatenate(([0], np.cumsum(cnt)))
    total = int(pair_cum[-1])

    # Evaluate the interesting pairs in bounded-memory chunks.
    chunk_lo = 0
    while chunk_lo < len(cnt):
        chunk_hi = chunk_lo
        while (
            chunk_hi < len(cnt)
            and pair_cum[chunk_hi + 1] - pair_cum[chunk_lo] <= PAIR_CHUNK
        ):
            chunk_hi += 1
        chunk_hi = max(chunk_hi, chunk_lo + 1)  # always take >= 1 endpoint
        c_cnt = cnt[chunk_lo:chunk_hi]
        c_total = int(c_cnt.sum())
        i_flat = np.repeat(i_active[chunk_lo:chunk_hi], c_cnt)
        ramp = np.arange(c_total, dtype=np.int64)
        offs = (
            ramp
            - np.repeat(np.cumsum(c_cnt) - c_cnt, c_cnt)
            + np.repeat(st[chunk_lo:chunk_hi], c_cnt)
        )
        j_flat = i_flat + 1 + offs
        t = (cum[j_flat] - cum[i_flat]).astype(np.float64)
        e = est_all[offs]
        small = (t <= theta) & (e <= theta)
        qacc = (t <= q * e) & (e <= q * t)
        if not np.all(small | qacc):
            return False
        chunk_lo = chunk_hi
    return True


@functools.lru_cache(maxsize=32)
def _pair_grids(m: int):
    """Shared read-only m x m index grids for the matrix strategies.

    Cell (a, c) is the pair with left-endpoint offset ``a`` and right
    endpoint ``a + c + 1``; entries below the diagonal are padding.
    Returns (row index, column index, upper-triangle mask, float widths).
    """
    offs = np.arange(m)
    a = offs[:, None]
    c = offs[None, :]
    triangle = c >= a
    widths = (np.maximum(c - a, 0) + 1).astype(np.float64)
    for grid in (a, c, triangle, widths):
        grid.setflags(write=False)
    return a, c, triangle, widths


def acceptance_matrix_batch(
    density: AttributeDensity,
    lowers: np.ndarray,
    uppers: np.ndarray,
    theta: float,
    q: float,
    k: float = 8.0,
    alphas: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sec. 4.2's test for a whole batch of small buckets in one shot.

    Stacks the per-bucket all-pairs grids of :func:`_subquadratic_matrix`
    into one ``B x m x m`` broadcast evaluation, so testing the eight
    bucklets of a ``FindLargest`` probe costs one numpy dispatch instead
    of eight.  Returns a boolean per bucket, each bit-for-bit identical
    to the per-bucket kernels.  Caller must keep ``m`` at or below
    :data:`MATRIX_STRATEGY_MAX` (construction does: MaxSize is 300).
    """
    lowers = np.asarray(lowers, dtype=np.int64)
    uppers = np.asarray(uppers, dtype=np.int64)
    d = density.n_distinct
    if lowers.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any(lowers < 0) or np.any(uppers > d) or np.any(lowers >= uppers):
        raise IndexError("batch contains an out-of-range or empty bucket")
    sizes = uppers - lowers
    m = int(sizes.max())
    if m > MATRIX_STRATEGY_MAX:
        raise ValueError(
            f"bucket of {m} distinct values exceeds the matrix strategy "
            f"bound {MATRIX_STRATEGY_MAX}"
        )
    cum = density.cumulative
    if alphas is None:
        alphas = (cum[uppers] - cum[lowers]) / sizes
    else:
        alphas = np.asarray(alphas, dtype=np.float64)
    a, c, triangle, widths = _pair_grids(m)
    lo = lowers[:, None, None]
    if int(sizes.min()) == m:
        # Uniform batch: every grid is a full upper triangle and no
        # gather index can leave the domain.
        valid = triangle
        t = (cum[lo + (c + 1)] - cum[lo + a]).astype(np.float64)
    else:
        # Clamp the padding cells of clipped buckets into range; `valid`
        # masks them out.
        valid = triangle & (c < sizes[:, None, None])
        t = (cum[np.minimum(lo + c + 1, d)] - cum[np.minimum(lo + a, d)]).astype(
            np.float64
        )
    e = alphas[:, None, None] * widths
    small = (t <= theta) & (e <= theta)
    qacc = (t <= q * e) & (e <= q * t)
    ok = small | qacc | ~valid
    if bool(ok.all()):
        return np.ones(lowers.size, dtype=bool)
    # Some pair fails outright; it only sinks its bucket if no earlier
    # right endpoint of the same row already reached the kθ-boundary.
    stop = k * theta
    done = (t >= stop) & (e >= stop) & valid
    skipped = (np.cumsum(done, axis=2) - done) > 0
    return (ok | skipped).all(axis=(1, 2))


def pretest_dense_batch(
    density: AttributeDensity,
    lowers: Sequence[int],
    uppers: Sequence[int],
    theta: float,
    q: float,
    alphas: Optional[Sequence[float]] = None,
    flexible_alpha: bool = False,
    totals: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Theorem 4.3's pretest for a batch of ranges ``[l_i, u_i)`` at once.

    Returns a boolean array: ``True`` means the cheap sufficient
    condition holds for that range (``False`` still means "run a real
    test").  Range extrema come from one ``np.maximum.reduceat`` /
    ``np.minimum.reduceat`` pass over interleaved boundaries instead of
    a Python call per range.  Once the density carries a
    :class:`~repro.core.density.DensityIndex`, extrema come from two
    sparse-table lookups per range instead (same exact integers, no
    frequency-array scan at all).  ``totals`` lets a caller that already
    cumulated each range (the builders all have) skip the recompute.
    """
    lowers = np.asarray(lowers, dtype=np.int64)
    uppers = np.asarray(uppers, dtype=np.int64)
    if lowers.shape != uppers.shape:
        raise ValueError("lowers and uppers must align")
    if lowers.size == 0:
        return np.zeros(0, dtype=bool)
    d = density.n_distinct
    if np.any(lowers < 0) or np.any(uppers > d) or np.any(lowers >= uppers):
        raise IndexError("batch contains an out-of-range or empty bucket")
    if totals is None:
        cum = density.cumulative
        totals = (cum[uppers] - cum[lowers]).astype(np.float64)
    else:
        totals = np.asarray(totals, dtype=np.float64)

    if density.has_index:
        index = density.ensure_index()
        fmax = index.range_max_batch(lowers, uppers).astype(np.float64)
        fmin = index.range_min_batch(lowers, uppers).astype(np.float64)
    else:
        # Interleave [l0, u0, l1, u1, ...]; even segments are the ranges,
        # odd segments are discarded.  reduceat indices must stay below the
        # array length, so only a batch whose upper bound touches the domain
        # end needs a sentinel element appended (copying the frequency array
        # on every call would dominate small batches).
        freqs = density.frequencies
        idx = np.empty(2 * lowers.size, dtype=np.int64)
        idx[0::2] = lowers
        idx[1::2] = uppers
        if int(uppers.max()) == d:
            fmax_src = np.concatenate((freqs, [0]))
            fmin_src = np.concatenate((freqs, [np.iinfo(np.int64).max]))
        else:
            fmax_src = fmin_src = freqs
        fmax = np.maximum.reduceat(fmax_src, idx)[0::2].astype(np.float64)
        fmin = np.minimum.reduceat(fmin_src, idx)[0::2].astype(np.float64)

    if flexible_alpha:
        balanced = fmax <= q * q * fmin
    else:
        if alphas is None:
            alphas = totals / (uppers - lowers)
        else:
            alphas = np.asarray(alphas, dtype=np.float64)
        balanced = (q * alphas >= fmax) & (alphas / q <= fmin)
    return (totals <= theta) | balanced


def batch_slope_constraints(
    truths: np.ndarray, widths: np.ndarray, theta: float, q: float
) -> Tuple[float, float]:
    """Vectorised α-feasibility constraints for one batch of intervals.

    Each query interval with truth ``F`` and width ``w`` constrains the
    estimation slope: ``F > θ`` forces ``F/(q w) <= α <= q F / w``;
    ``F <= θ`` only caps ``α w <= max(θ, q F)``.  Returns the combined
    (lower bound, upper bound) contribution of the batch.

    The divisions can round a bound onto the wrong side of the very
    inequality it encodes (e.g. ``lb = F/(q w)`` with ``q (lb w) < F``),
    which would let a grown bucket miss its q-guarantee by one ulp, so
    each bound is ulp-repaired until α = bound passes the *directly
    evaluated* acceptance comparison (same operation order as
    :func:`repro.core.qerror.theta_q_acceptable`: ``F <= q (α w)`` and
    ``α w <= q F`` / ``α w <= max(θ, q F)``).
    """
    big = truths > theta
    lb = 0.0
    ub = math.inf
    if np.any(big):
        bt = truths[big]
        bw = widths[big]
        lbs = bt / (q * bw)
        bad = q * (lbs * bw) < bt
        while np.any(bad):
            lbs[bad] = np.nextafter(lbs[bad], np.inf)
            bad = q * (lbs * bw) < bt
        ubs = q * bt / bw
        bad = ubs * bw > q * bt
        while np.any(bad):
            ubs[bad] = np.nextafter(ubs[bad], -np.inf)
            bad = ubs * bw > q * bt
        lb = float(np.max(lbs))
        ub = float(np.min(ubs))
    small = ~big
    if np.any(small):
        caps = np.maximum(theta, q * truths[small])
        sw = widths[small]
        ubs = caps / sw
        bad = ubs * sw > caps
        while np.any(bad):
            ubs[bad] = np.nextafter(ubs[bad], -np.inf)
            bad = ubs * sw > caps
        ub = min(ub, float(np.min(ubs)))
    return lb, ub


def interval_slope_bounds(
    truths: np.ndarray, widths: np.ndarray, theta: float, q: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-interval α bounds: the elementwise form of
    :func:`batch_slope_constraints`.

    Returns ``(lbs, ubs)`` with ``lbs`` 0.0 where ``F <= θ`` (no lower
    bound).  Each element runs the batch kernel's IEEE operations and
    ``nextafter`` repair, so the max of ``lbs`` and min of ``ubs`` over
    any set of intervals equal its (lb, ub) for that set bit for bit.
    ``q >= 1`` (as :class:`~repro.core.config.HistogramConfig`
    enforces) makes ``max(θ, q F)`` equal ``q F`` whenever ``F > θ``,
    so one cap serves both kinds of interval.
    """
    big = truths > theta
    lbs = truths / (q * widths)
    bad = big & (q * (lbs * widths) < truths)
    while bad.any():
        lbs[bad] = np.nextafter(lbs[bad], np.inf)
        bad[bad] = q * (lbs[bad] * widths[bad]) < truths[bad]
    caps = np.maximum(theta, q * truths)
    ubs = caps / widths
    bad = ubs * widths > caps
    while bad.any():
        ubs[bad] = np.nextafter(ubs[bad], -np.inf)
        bad[bad] = ubs[bad] * widths[bad] > caps[bad]
    return np.where(big, lbs, 0.0), ubs


def slope_constraints(
    cum: np.ndarray, i_low: int, j: int, theta: float, q: float
) -> Tuple[float, float]:
    """Index-space slope constraints from all intervals ``[i, j)``,
    ``i_low <= i < j`` (the QVWH α-bound loop body)."""
    truths = (cum[j] - cum[i_low:j]).astype(np.float64)
    widths = np.arange(j - i_low, 0, -1, dtype=np.float64)
    return batch_slope_constraints(truths, widths, theta, q)


def slope_constraints_scalar(
    cum: Sequence[int], i_low: int, j: int, theta: float, q: float
) -> Tuple[float, float]:
    """Pure-scalar :func:`slope_constraints` over Python-list prefix sums.

    The QVWH growth loop's first steps scan only a handful of intervals
    (step ``m`` at most ``m``), where one numpy dispatch costs far more
    than the arithmetic itself.  This mirror runs the *same* IEEE
    double operations in the same per-element order — including the
    ``nextafter`` ulp repair, which is an independent per-element fixed
    point — so its (lb, ub) is bit-identical to the batch kernel's.
    """
    cj = cum[j]
    lb = 0.0
    ub = math.inf
    for i in range(i_low, j):
        t = float(cj - cum[i])
        w = float(j - i)
        if t > theta:
            lo = t / (q * w)
            while q * (lo * w) < t:
                lo = math.nextafter(lo, math.inf)
            if lo > lb:
                lb = lo
            hi = q * t / w
            while hi * w > q * t:
                hi = math.nextafter(hi, -math.inf)
            if hi < ub:
                ub = hi
        else:
            qt = q * t
            cap = theta if theta > qt else qt
            hi = cap / w
            while hi * w > cap:
                hi = math.nextafter(hi, -math.inf)
            if hi < ub:
                ub = hi
    return lb, ub


def value_slope_constraints_scalar(
    cum: Sequence[int],
    values: Sequence[float],
    i_low: int,
    j: int,
    w_j: float,
    theta: float,
    q: float,
) -> Tuple[float, float]:
    """Scalar value-space frequency-slope constraints for intervals
    ``[x_i, w_j)``, ``i_low <= i < j`` (the value-based growth loop).

    Same contract as :func:`slope_constraints_scalar`, but widths live in
    value space (``w_j - x_i``) instead of index space.  Runs the exact
    IEEE double operations of :func:`batch_slope_constraints` per
    element, so the bounds are bit-identical to the batch kernel's.
    """
    cj = cum[j]
    lb = 0.0
    ub = math.inf
    for i in range(i_low, j):
        t = float(cj - cum[i])
        w = w_j - values[i]
        if t > theta:
            lo = t / (q * w)
            while q * (lo * w) < t:
                lo = math.nextafter(lo, math.inf)
            if lo > lb:
                lb = lo
            hi = q * t / w
            while hi * w > q * t:
                hi = math.nextafter(hi, -math.inf)
            if hi < ub:
                ub = hi
        else:
            qt = q * t
            cap = theta if theta > qt else qt
            hi = cap / w
            while hi * w > cap:
                hi = math.nextafter(hi, -math.inf)
            if hi < ub:
                ub = hi
    return lb, ub


def count_slope_constraints_scalar(
    values: Sequence[float],
    i_low: int,
    j: int,
    w_j: float,
    theta: float,
    q: float,
) -> Tuple[float, float]:
    """Scalar distinct-count-slope constraints: truths are the interval
    distinct counts ``j - i`` over value-space widths ``w_j - x_i``.

    Bit-identical to :func:`batch_slope_constraints` over the
    ``arange``/width arrays the classic value-based loop builds.
    """
    lb = 0.0
    ub = math.inf
    for i in range(i_low, j):
        t = float(j - i)
        w = w_j - values[i]
        if t > theta:
            lo = t / (q * w)
            while q * (lo * w) < t:
                lo = math.nextafter(lo, math.inf)
            if lo > lb:
                lb = lo
            hi = q * t / w
            while hi * w > q * t:
                hi = math.nextafter(hi, -math.inf)
            if hi < ub:
                ub = hi
        else:
            qt = q * t
            cap = theta if theta > qt else qt
            hi = cap / w
            while hi * w > cap:
                hi = math.nextafter(hi, -math.inf)
            if hi < ub:
                ub = hi
    return lb, ub


# Mantissa bits kept when bucketing α for cache keys: ranges re-tested
# by doubling/binary search recompute α as total/width, which is
# bit-identical, so 40 bits leaves a wide safety margin without ever
# conflating materially different slopes.
_ALPHA_KEY_BITS = 40


def _alpha_bucket(alpha: Optional[float]) -> Hashable:
    if alpha is None:
        return None
    if alpha == 0.0 or not math.isfinite(alpha):
        return alpha
    mantissa, exponent = math.frexp(alpha)
    return (int(round(mantissa * (1 << _ALPHA_KEY_BITS))), exponent)


class AcceptanceCache:
    """Per-build memo for acceptance decisions and slope constraints.

    ``FindLargest`` doubling + binary search and the QVWH α-bound loop
    repeatedly touch ranges they have already resolved (domain-clamped
    trailing bucklets recur across widths; the first right endpoint of
    each bucklet re-scans the window of the previous failure).  Keys
    are ``(l, u, theta, q, alpha-bucket)`` plus the test knobs; α is
    bucketed to 40 mantissa bits so recomputed-but-identical slopes hit.
    """

    def __init__(self) -> None:
        self._decisions: Dict[Tuple, bool] = {}
        self._constraints: Dict[Tuple, Tuple[float, float]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._decisions) + len(self._constraints)

    # -- acceptance decisions ---------------------------------------------

    def decision_key(
        self,
        l: int,
        u: int,
        theta: float,
        q: float,
        alpha: Optional[float],
        **knobs: Hashable,
    ) -> Tuple:
        return (l, u, theta, q, _alpha_bucket(alpha), tuple(sorted(knobs.items())))

    def lookup_decision(self, key: Tuple) -> Optional[bool]:
        found = self._decisions.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store_decision(self, key: Tuple, accepted: bool) -> bool:
        self._decisions[key] = accepted
        return accepted

    # -- slope constraints -------------------------------------------------

    def lookup_constraints(self, key: Tuple) -> Optional[Tuple[float, float]]:
        """Cached (lb, ub) for a constraint key, or ``None`` on a miss.

        Index-space keys are ``(i_low, j, theta, q)``; value-space
        callers prefix a tag (e.g. ``("value", ...)``) so the two key
        spaces can share one cache without colliding.
        """
        found = self._constraints.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store_constraints(
        self, key: Tuple, bounds: Tuple[float, float]
    ) -> Tuple[float, float]:
        self._constraints[key] = bounds
        return bounds

    def constraints(
        self, cum: np.ndarray, i_low: int, j: int, theta: float, q: float
    ) -> Tuple[float, float]:
        """Memoized :func:`slope_constraints`."""
        key = (i_low, j, theta, q)
        found = self.lookup_constraints(key)
        if found is not None:
            return found
        return self.store_constraints(key, slope_constraints(cum, i_low, j, theta, q))

    def __repr__(self) -> str:
        return (
            f"AcceptanceCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
