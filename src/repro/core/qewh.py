"""QEWH: histograms with eight equi-width bucklets (paper Sec. 7.1, Fig. 5).

``BuildQEWH`` is the generate-and-test construction: starting at the
current bucket boundary it searches for the largest bucklet width ``m``
such that all eight bucklets of width ``m`` are individually
θ,q-acceptable (``FindLargest``: doubling followed by binary search,
using the combined acceptance test of Sec. 4.4).  Each bucket is encoded
as a 64-bit QC16T8x6 word.  This is the ``F8Dgt`` variant of the
evaluation.

:func:`build_qewh` always searches with
:func:`repro.core.search.find_largest_oracle`.  :func:`find_largest`
-- Fig. 5's loop over the batched per-probe test
:func:`_bucklets_acceptable` and its :class:`AcceptanceCache` -- is the
reference it is held to: it has no production caller, and the parity
suite builds whole reference histograms by substituting it for the
oracle search.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.compression.layouts import BucketLayout, QC16T8x6
from repro.core.acceptance import is_theta_q_acceptable, pretest_dense
from repro.core.buckets import EquiWidthBucket
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.core.kernels import (
    MATRIX_STRATEGY_MAX,
    AcceptanceCache,
    acceptance_matrix_batch,
    pretest_dense_batch,
)
from repro.core.search import AcceptanceOracle, find_largest_oracle
from repro.obs import NULL_TRACE

__all__ = ["find_largest", "build_qewh"]

# Probes whose stacked acceptance grid has at most this many cells go
# straight to the matrix kernel; bigger ones try the batch pretest first.
_DIRECT_MATRIX_CELLS = 4096


def _bucklets_acceptable(
    density: AttributeDensity,
    l: int,
    m: int,
    theta: float,
    q: float,
    config: HistogramConfig,
    n_bucklets: int = 8,
    max_bucklet_total: float = float("inf"),
    cache: Optional[AcceptanceCache] = None,
    trace=NULL_TRACE,
) -> bool:
    """True iff every one of the ``n_bucklets`` width-``m`` bucklets
    starting at ``l`` is θ,q-acceptable for its f̂avg estimator *and*
    its total fits the payload layout's compressible range.

    Bucklets clipped by the domain end are tested with the slope the
    estimator will actually use (bucklet total over the *unclipped*
    width ``m``).  The whole probe costs two batch dispatches: one
    shared pretest, then one stacked acceptance grid over whatever the
    pretest (and the ``cache``) cannot resolve.
    """
    d = density.n_distinct
    lowers = []
    uppers = []
    alphas = []
    totals = []
    for i in range(n_bucklets):
        lo = l + i * m
        hi = lo + m
        if lo >= d:
            break  # fully past the domain: empty, trivially acceptable
        clipped = min(hi, d)
        total = density.f_plus(lo, clipped)
        if total > max_bucklet_total:
            return False
        lowers.append(lo)
        uppers.append(clipped)
        alphas.append(total / m)
        totals.append(total)
    trace.count("acceptance_tests", len(lowers))
    # For probes whose stacked acceptance grid is tiny, running the
    # pretest first costs more dispatches than it can save -- and for
    # sizes within MaxSize the matrix decides identically (a certified
    # bucket is truly θ,q-acceptable, so every pair passes).  Larger
    # probes keep the pretest-first shortcut: one cheap batch often
    # certifies all eight bucklets and skips the O(m^2) grid.
    certified = None
    if (
        m > config.max_pretest_size
        or m > MATRIX_STRATEGY_MAX
        or len(lowers) * m * m > _DIRECT_MATRIX_CELLS
    ):
        certified = pretest_dense_batch(
            density, lowers, uppers, theta, q, alphas=alphas, totals=totals
        )
        if bool(certified.all()):
            return True
    # Combined-test semantics for the rest: an unpretested bucklet gets a
    # scalar-pretest appeal if the grid rejects it, an uncertified one
    # larger than MaxSize is rejected outright, and everything else goes
    # through the cache and then one stacked matrix evaluation.
    keys = []
    pending = []
    for position, (lo, clipped, alpha) in enumerate(zip(lowers, uppers, alphas)):
        if certified is not None and certified[position]:
            continue
        if clipped - lo > config.max_pretest_size:
            return False
        if cache is not None:
            key = cache.decision_key(
                lo, clipped, theta, q, alpha,
                k=8.0, max_size=config.max_pretest_size, flexible_alpha=False,
            )
            cached = cache.lookup_decision(key)
            if cached is not None:
                if not cached:
                    return False
                continue
            keys.append(key)
        else:
            keys.append(None)
        pending.append((lo, clipped, alpha))
    if not pending:
        return True
    if max(clipped - lo for lo, clipped, _ in pending) > MATRIX_STRATEGY_MAX:
        # MaxSize raised beyond the grid bound: fall back to one
        # (equivalent) kernel call per bucklet.
        return all(
            is_theta_q_acceptable(
                density, lo, clipped, theta, q,
                max_size=config.max_pretest_size, alpha=alpha, cache=cache,
            )
            for lo, clipped, alpha in pending
        )
    decisions = acceptance_matrix_batch(
        density,
        [lo for lo, _, _ in pending],
        [clipped for _, clipped, _ in pending],
        theta,
        q,
        alphas=[alpha for _, _, alpha in pending],
    )
    accepted = True
    for key, decision, (lo, clipped, alpha) in zip(keys, decisions, pending):
        decision = bool(decision)
        if not decision and certified is None:
            # The pretest was skipped; honour its (sufficient) verdict so
            # the decision matches the combined test bit-for-bit even if
            # rounding ever made the grid stricter than Theorem 4.3.
            decision = pretest_dense(density, lo, clipped, theta, q, alpha=alpha)
        if cache is not None:
            cache.store_decision(key, decision)
        accepted &= decision
    return accepted


def find_largest(
    density: AttributeDensity,
    l: int,
    theta: float,
    q: float,
    config: HistogramConfig,
    n_bucklets: int = 8,
    max_bucklet_total: float = float("inf"),
    cache: Optional[AcceptanceCache] = None,
    trace=NULL_TRACE,
) -> int:
    """Fig. 5's ``FindLargest``: the maximal bucklet width ``m`` at ``l``.

    Doubles ``m`` until some bucklet fails the acceptance test, then
    binary-searches the maximal acceptable width in between.  Width 1 is
    always acceptable on a dense domain (a single-value bucklet estimates
    itself exactly), so the result is at least 1.  A shared ``cache``
    answers any range the doubling/binary-search probes revisit without
    re-testing it.
    """
    d = density.n_distinct
    if not 0 <= l < d:
        raise IndexError(f"start {l} outside domain [0, {d})")
    acceptance = trace.timer("acceptance_tests")
    # A bucket never needs to reach past the domain end by more than one
    # bucklet's worth of padding.
    m_cap = max(1, math.ceil((d - l) / n_bucklets))
    # Width 1 is acceptable by construction: a single-value bucklet's
    # f̂avg answers its only query exactly.
    m_good = 1
    m_bad = m_cap + 1
    while m_good < m_cap:
        m_next = min(2 * m_good, m_cap)
        with acceptance:
            accepted = _bucklets_acceptable(
                density, l, m_next, theta, q, config, n_bucklets,
                max_bucklet_total, cache, trace,
            )
        if accepted:
            m_good = m_next
        else:
            m_bad = m_next
            break
    # Largest acceptable m in [m_good, m_bad).
    while m_bad - m_good > 1:
        mid = (m_good + m_bad) // 2
        with acceptance:
            accepted = _bucklets_acceptable(
                density, l, mid, theta, q, config, n_bucklets,
                max_bucklet_total, cache, trace,
            )
        if accepted:
            m_good = mid
        else:
            m_bad = mid
    return m_good


def build_qewh(
    density: AttributeDensity,
    config: HistogramConfig = HistogramConfig(),
    layout: BucketLayout = QC16T8x6,
    trace=None,
    cache: Optional[AcceptanceCache] = None,
) -> Histogram:
    """Fig. 5's ``BuildQEWH``: generate-and-test equi-width construction.

    ``layout`` selects the packed bucket format (default QC16T8x6); any
    simple layout of Table 3 works, e.g. QC16x4 for sixteen narrower
    bucklets or BQC8x8 for binary-q payloads.  ``trace`` (a
    :class:`repro.obs.Trace`) accumulates acceptance-test/packing phase
    timings and counters; ``None`` disables instrumentation.  The outer
    search runs through the O(1) sparse-table acceptance oracle
    (:mod:`repro.core.search`): the boundaries and certificates of
    :func:`find_largest`, far fewer kernel dispatches.  ``cache`` lets
    callers (the engine pipeline) share one :class:`AcceptanceCache`
    across builds over the same density.
    """
    trace = trace if trace is not None else NULL_TRACE
    if not density.is_dense:
        raise ValueError("QEWH requires a dense (dictionary-code) domain")
    theta = config.resolve_theta(density.total)
    q = config.q
    d = density.n_distinct
    n = layout.n_bucklets
    capacity = layout.max_bucklet_value()
    max_freq = int(density.frequencies.max())
    if max_freq > capacity:
        raise OverflowError(
            f"layout {layout.name} cannot represent a single-value frequency "
            f"of {max_freq} (range cap {capacity:.3g}); pick a layout with a "
            "larger base or wider fields"
        )
    buckets: List[EquiWidthBucket] = []
    if cache is None:
        cache = AcceptanceCache()
    packing = trace.timer("packing")
    oracle = AcceptanceOracle(density, theta, q, config, cache=cache)
    cum = oracle.cum
    b = 0
    warm = 0
    while b < d:
        m = find_largest_oracle(
            density, b, theta, q, config,
            n_bucklets=n, max_bucklet_total=capacity,
            cache=cache, trace=trace, oracle=oracle, warm=warm,
        )
        warm = m
        with packing:
            # Bucklet totals read off the Python-list prefix sums (no
            # per-bucklet numpy round trips).
            freqs = [
                cum[min(b + (i + 1) * m, d)] - cum[min(b + i * m, d)]
                for i in range(n)
            ]
            buckets.append(EquiWidthBucket.build(b, m, freqs, layout=layout))
        b += n * m
    trace.count("buckets", len(buckets))
    kind = "F8Dgt" if layout is QC16T8x6 else f"F{n}Dgt[{layout.name}]"
    return Histogram(buckets, kind=kind, theta=theta, q=q, domain="code")
