"""QVWH: variable-width bucklets via incremental construction
(paper Sec. 7.2, Fig. 6).

``GrowBucklet`` is the incremental engine: rather than re-testing
θ,q-acceptability from scratch for every candidate bucklet length, it
maintains a feasible interval ``[αLB, αUB]`` for the estimator slope α.
Each query interval visits the loop exactly once and contributes a
constraint derived from θ,q-acceptability of ``f̂+ = α (j - i)``:

* truth ``F > θ``: need ``F/q <= α w <= q F``, i.e.
  ``αLB >= F / (q w)`` and ``αUB <= q F / w``;
* truth ``F <= θ``: the acceptable α-set ``{α w <= θ} ∪ {F/q <= α w <=
  q F}`` collapses to the single interval ``α w <= max(θ, q F)``.

Growth stops when the current ``α = f+(l, j) / (j - l)`` leaves the
feasible interval.  With ``bounded_search`` the inner loop only scans
the left endpoints within the minimal-violation window of
Corollary 4.2 (computed from the most pessimistic -- smallest -- α seen
so far, so the window dominates the bound for every α the bucket has
taken); this is the ``incB`` family of the evaluation.

:func:`grow_bucklet` runs the first few growth steps -- where most
bucklets end -- one at a time over the column's Python-list prefix sums,
and resolves every later step a block at a time: one numpy pass computes
a whole block's slopes, running ``alpha_min``, windows, the constraints
of every interval the block's steps scan and the running ``[αLB, αUB]``,
then picks the first violating step.  Both phases run the batch kernel's
per-interval arithmetic and max/min are exact, so widths -- and the
``acceptance_tests``/``search_probes``/``intervals_scanned`` counters,
which stop at the violating step -- equal the step-at-a-time loop's.
That loop, Fig. 6 as written, is kept as
:func:`grow_bucklet_stepwise`: a reference with no production caller,
which the parity suite substitutes for :func:`grow_bucklet` to build
whole reference histograms.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.buckets import AtomicDenseBucket, VariableWidthBucket
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.core.kernels import (
    AcceptanceCache,
    interval_slope_bounds,
    slope_constraints,
    slope_constraints_scalar,
)
from repro.obs import NULL_TRACE

__all__ = [
    "grow_bucklet",
    "grow_bucklet_stepwise",
    "build_qvwh",
    "build_atomic_dense",
    "grow_span_buckets",
    "grow_span_atomic",
    "GrowStats",
]

# The 9-bit width fields cap seven of the eight bucklets at 511 values.
MAX_BOUNDED_BUCKLET = 511

# Chunked growth: the first _SCALAR_STEPS steps run
# one at a time (they scan at most 1 + 2 + ... + _SCALAR_STEPS intervals);
# then the first block resolves _FIRST_BLOCK steps, later blocks double up
# to _MAX_BLOCK, and a block is cut back so its ragged interval array
# stays within _ELEMENT_BUDGET entries.
_SCALAR_STEPS = 16
_FIRST_BLOCK = 16
_MAX_BLOCK = 512
_ELEMENT_BUDGET = 1 << 16


class GrowStats:
    """Work counter for construction instrumentation (Fig. 11's
    mechanism: the bounded search window -- and hence the number of
    query intervals each right endpoint scans -- is proportional to θ)."""

    def __init__(self) -> None:
        self.intervals_scanned = 0


def grow_bucklet(
    density: AttributeDensity,
    l: int,
    m_max: int,
    theta: float,
    q: float,
    bounded: bool = True,
    stats: Optional[GrowStats] = None,
    trace=NULL_TRACE,
) -> int:
    """Longest prefix ``[l, l + m)`` that stays θ,q-acceptable for f̂avg.

    Returns ``m`` with ``0 <= m <= m_max``; at least 1 whenever
    ``m_max >= 1`` (a single dense value always estimates itself
    exactly).  Bit-identical to :func:`grow_bucklet_stepwise`.

    The first :data:`_SCALAR_STEPS` steps run one at a time over the
    Python-list prefix sums (:func:`~repro.core.kernels.slope_constraints_scalar`):
    a step scans at most ``m`` intervals, and most bucklets end within a
    few steps, where a numpy pass costs more than the arithmetic.  Later
    steps are resolved a block at a time.  Steps ``m_a .. m_b`` of a
    block share every array operation: their slopes, the running
    ``alpha_min`` and Corollary 4.2 windows, one ragged (step, i) array
    of every interval the steps scan, the per-interval bounds
    (:func:`~repro.core.kernels.interval_slope_bounds`: the batch
    kernel's IEEE operations and ``nextafter`` repair), per-step max/min
    reductions and the running ``alpha_lb``/``alpha_ub``.  Max and min
    are exact, so every step sees the float64 bounds the sequential loop
    sees and the first violating step -- hence the width -- is
    identical.  Blocks double from :data:`_FIRST_BLOCK` steps, are cut
    back to :data:`_ELEMENT_BUDGET` intervals (never below one step), and
    the steps past a violation are discarded: counters only cover steps
    up to and including the violating one.
    """
    if m_max <= 0:
        return 0
    if not 0 <= l < density.n_distinct:
        raise IndexError(f"start {l} out of range")
    m_max = min(m_max, density.n_distinct - l)
    cum = density.ensure_index().cum_list
    base = cum[l]
    alpha_lb = 0.0
    alpha_ub = math.inf
    alpha_min = math.inf
    tests = 0
    scanned = 0
    try:
        with trace.timer("acceptance_tests"):
            for m in range(1, min(m_max, _SCALAR_STEPS) + 1):
                j = l + m
                alpha = float(cum[j] - base) / m
                if alpha < alpha_min:
                    alpha_min = alpha
                if bounded:
                    i_low = max(l, j - (math.ceil(2.0 * theta / alpha_min) + 3))
                else:
                    i_low = l
                tests += 1
                scanned += j - i_low
                lb_new, ub_new = slope_constraints_scalar(cum, i_low, j, theta, q)
                if lb_new > alpha_lb:
                    alpha_lb = lb_new
                if ub_new < alpha_ub:
                    alpha_ub = ub_new
                if alpha < alpha_lb or alpha > alpha_ub:
                    return m - 1
            cum = density.cumulative
            m_a = _SCALAR_STEPS + 1
            block = _FIRST_BLOCK
            while m_a <= m_max:
                ms = np.arange(m_a, min(m_a + block, m_max + 1), dtype=np.int64)
                js = l + ms
                alphas = (cum[js] - base).astype(np.float64) / ms
                mins = np.minimum(np.minimum.accumulate(alphas), alpha_min)
                if bounded:
                    # Float ceil is exact; a window past the bucklet start
                    # (even an astronomically wide one) clamps to ``l``.
                    windows = np.ceil(2.0 * theta / mins) + 3.0
                    lows = np.maximum(js - windows, l).astype(np.int64)
                else:
                    lows = np.full(ms.size, l, dtype=np.int64)
                counts = js - lows
                ends = np.cumsum(counts)
                steps = max(int(np.searchsorted(ends, _ELEMENT_BUDGET, "right")), 1)
                if steps < ms.size:
                    ms, js, alphas = ms[:steps], js[:steps], alphas[:steps]
                    mins, lows, counts, ends = (
                        mins[:steps], lows[:steps], counts[:steps], ends[:steps]
                    )
                starts = ends - counts
                j_flat = np.repeat(js, counts)
                i_flat = np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(
                    lows - starts, counts
                )
                truths = (cum[j_flat] - cum[i_flat]).astype(np.float64)
                widths = np.subtract(j_flat, i_flat, dtype=np.float64)
                lbs, ubs = interval_slope_bounds(truths, widths, theta, q)
                lb_run = np.maximum(
                    np.maximum.accumulate(np.maximum.reduceat(lbs, starts)), alpha_lb
                )
                ub_run = np.minimum(
                    np.minimum.accumulate(np.minimum.reduceat(ubs, starts)), alpha_ub
                )
                violated = (alphas < lb_run) | (alphas > ub_run)
                k = int(violated.argmax())
                if violated[k]:
                    tests += k + 1
                    scanned += int(ends[k])
                    return int(ms[k]) - 1
                tests += steps
                scanned += int(ends[-1])
                alpha_lb = float(lb_run[-1])
                alpha_ub = float(ub_run[-1])
                alpha_min = float(mins[-1])
                m_a += steps
                block = min(2 * block, _MAX_BLOCK)
        return m_max
    finally:
        if stats is not None:
            stats.intervals_scanned += scanned
        trace.count("acceptance_tests", tests)
        trace.count("search_probes", tests)
        trace.count("intervals_scanned", scanned)


def grow_bucklet_stepwise(
    density: AttributeDensity,
    l: int,
    m_max: int,
    theta: float,
    q: float,
    bounded: bool = True,
    stats: "GrowStats" = None,
    cache: AcceptanceCache = None,
    trace=NULL_TRACE,
) -> int:
    """Fig. 6's ``GrowBucklet`` one step at a time: the reference
    :func:`grow_bucklet` is held to (same width, same counters apart
    from ``search_probes``).

    A ``cache`` memoizes the per-(window, right endpoint) slope
    constraints, which recur when the next bucklet's first extension
    re-scans the window of the previous failure.
    """
    if m_max <= 0:
        return 0
    if not 0 <= l < density.n_distinct:
        raise IndexError(f"start {l} out of range")
    m_max = min(m_max, density.n_distinct - l)
    cum = density.cumulative
    base = int(cum[l])
    acceptance = trace.timer("acceptance_tests")

    alpha_lb = 0.0
    alpha_ub = math.inf
    alpha_min = math.inf
    tests = 0
    scanned = 0
    try:
        for m in range(1, m_max + 1):
            j = l + m
            total = float(cum[j] - base)
            alpha = total / m
            alpha_min = min(alpha_min, alpha)
            if bounded:
                # Corollary 4.2 window: minimal violations are narrower than
                # 2 theta n / f+ + 3 = 2 theta / alpha + 3.  Using the
                # smallest alpha the growing bucket has seen keeps the window
                # valid for every slope the bucket has taken.
                window = math.ceil(2.0 * theta / alpha_min) + 3
                i_low = max(l, j - window)
            else:
                i_low = l
            if stats is not None:
                stats.intervals_scanned += j - i_low
            tests += 1
            scanned += j - i_low
            with acceptance:
                if cache is not None:
                    lb_new, ub_new = cache.constraints(cum, i_low, j, theta, q)
                else:
                    lb_new, ub_new = slope_constraints(cum, i_low, j, theta, q)
            alpha_lb = max(alpha_lb, lb_new)
            alpha_ub = min(alpha_ub, ub_new)
            if alpha < alpha_lb or alpha > alpha_ub:
                return m - 1
        return m_max
    finally:
        trace.count("acceptance_tests", tests)
        trace.count("intervals_scanned", scanned)


def _grow_bucket(
    density: AttributeDensity,
    start: int,
    theta: float,
    q: float,
    bounded: bool,
    stats: GrowStats = None,
    trace=NULL_TRACE,
    stop: Optional[int] = None,
) -> Tuple[List[int], List[int], int]:
    """Grow one 8-bucklet bucket from ``start`` (Fig. 6's outer loop body).

    Returns (widths, bucklet totals, next start).  The first bucklet is
    unbounded; if it stays within 511 the *last* bucklet is the
    unbounded one instead, matching the 1F7x9 encoding's single open
    width.  ``stop`` caps growth at an arbitrary domain position (used
    by localized repair to rebuild a span of the full density in place).
    """
    d = density.n_distinct if stop is None else stop
    widths: List[int] = []
    totals: List[int] = []
    pos = start
    m0 = grow_bucklet(
        density, pos, d - pos, theta, q, bounded=bounded, stats=stats, trace=trace
    )
    m0 = max(m0, 1)
    widths.append(m0)
    totals.append(density.f_plus(pos, pos + m0))
    pos += m0
    first_open = m0 > MAX_BOUNDED_BUCKLET
    for index in range(1, 8):
        if pos >= d:
            widths.append(0)
            totals.append(0)
            continue
        last = index == 7
        if last and not first_open:
            cap = d - pos
        else:
            cap = min(MAX_BOUNDED_BUCKLET, d - pos)
        m = grow_bucklet(
            density, pos, cap, theta, q, bounded=bounded, stats=stats, trace=trace
        )
        m = max(m, 1) if cap >= 1 else 0
        widths.append(m)
        totals.append(density.f_plus(pos, pos + m))
        pos += m
    return widths, totals, pos


def build_qvwh(
    density: AttributeDensity,
    config: HistogramConfig = HistogramConfig(),
    stats: GrowStats = None,
    trace=None,
) -> Histogram:
    """Fig. 6's ``BuildQVWH``: incremental variable-width construction.

    Produces 128-bit QC16T8x6+1F7x9 buckets; the evaluation's ``V8Dinc``
    (``bounded_search=False``) and ``V8DincB`` (``True``) variants.
    ``trace`` (a :class:`repro.obs.Trace`) accumulates per-phase timings
    and counters; ``None`` disables instrumentation.
    """
    trace = trace if trace is not None else NULL_TRACE
    if not density.is_dense:
        raise ValueError("QVWH requires a dense (dictionary-code) domain")
    theta = config.resolve_theta(density.total)
    q = config.q
    d = density.n_distinct
    buckets: List[VariableWidthBucket] = []
    packing = trace.timer("packing")
    b = 0
    while b < d:
        widths, totals, b = _grow_bucket(
            density, b, theta, q, config.bounded_search, stats=stats, trace=trace
        )
        with packing:
            buckets.append(VariableWidthBucket.build(b - sum(widths), widths, totals))
    trace.count("buckets", len(buckets))
    kind = "V8DincB" if config.bounded_search else "V8Dinc"
    return Histogram(buckets, kind=kind, theta=theta, q=q, domain="code")


def build_atomic_dense(
    density: AttributeDensity,
    config: HistogramConfig = HistogramConfig(),
    trace=None,
) -> Histogram:
    """Atomic (bucklet-less) histograms: the ``1Dinc[B]`` variants.

    Each bucket is grown incrementally to the longest θ,q-acceptable
    range and stores a single 8-bit binary-q-compressed total.
    """
    trace = trace if trace is not None else NULL_TRACE
    if not density.is_dense:
        raise ValueError("atomic dense construction needs a dense domain")
    theta = config.resolve_theta(density.total)
    q = config.q
    d = density.n_distinct
    buckets: List[AtomicDenseBucket] = []
    packing = trace.timer("packing")
    b = 0
    while b < d:
        m = grow_bucklet(
            density, b, d - b, theta, q, bounded=config.bounded_search, trace=trace
        )
        m = max(m, 1)
        with packing:
            buckets.append(
                AtomicDenseBucket.build(b, b + m, density.f_plus(b, b + m))
            )
        b += m
    trace.count("buckets", len(buckets))
    kind = "1DincB" if config.bounded_search else "1Dinc"
    return Histogram(buckets, kind=kind, theta=theta, q=q, domain="code")


# -- span builders (localized repair) --------------------------------------


def grow_span_buckets(
    density: AttributeDensity,
    lo: int,
    hi: int,
    theta: float,
    q: float,
    bounded: bool = True,
    trace=NULL_TRACE,
) -> List[VariableWidthBucket]:
    """Variable-width buckets covering ``[lo, hi)`` of the *full* density.

    Produces exactly the buckets that building over the sliced
    sub-density ``[lo, hi)`` and shifting by ``lo`` would: the growth
    recurrence only reads cumulated-frequency differences inside the
    span, and the Corollary 4.2 window is clamped at the span start
    either way.  Running on the full density lets repair share the
    column's prefix index across damaged ranges instead of re-slicing
    and re-summing per range.
    """
    buckets: List[VariableWidthBucket] = []
    b = lo
    while b < hi:
        widths, totals, b = _grow_bucket(
            density, b, theta, q, bounded, trace=trace, stop=hi
        )
        buckets.append(VariableWidthBucket.build(b - sum(widths), widths, totals))
    return buckets


def grow_span_atomic(
    density: AttributeDensity,
    lo: int,
    hi: int,
    theta: float,
    q: float,
    bounded: bool = True,
    trace=NULL_TRACE,
) -> List[AtomicDenseBucket]:
    """Atomic buckets covering ``[lo, hi)`` of the *full* density
    (see :func:`grow_span_buckets`)."""
    buckets: List[AtomicDenseBucket] = []
    b = lo
    while b < hi:
        m = grow_bucklet(
            density, b, hi - b, theta, q, bounded=bounded, trace=trace
        )
        m = max(m, 1)
        buckets.append(AtomicDenseBucket.build(b, b + m, density.f_plus(b, b + m)))
        b += m
    return buckets
