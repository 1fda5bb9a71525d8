"""Array-native bucket search: O(1) acceptance oracles + warm-started probing.

The generate-and-test construction (``FindLargest``, Fig. 5) spends its
life asking one question: *are all eight width-``m`` bucklets starting at
``l`` θ,q-acceptable?*  The reference search,
:func:`repro.core.qewh.find_largest`, answers each probe with a fresh
batch of kernel dispatches.  This module -- the production F8Dgt
search -- answers most probes without touching a kernel at all:

* :class:`AcceptanceOracle` resolves a single bucklet in O(1) from the
  column's :class:`~repro.core.density.DensityIndex` (prefix sums +
  sparse-table range max/min):

  - **certify**: Theorem 4.3's pretest — ``total <= θ`` or
    ``q·α >= max f`` and ``α/q <= min f`` — needs exactly the range
    total and the range extrema, all O(1) lookups;
  - **refute**: the width-1 pair at the range maximum (or minimum) is
    the *first* pair of its row in the Sec. 4.2 grid, so it is never
    skipped by the kθ-boundary rule; if it violates both the θ-box and
    the q-band, the grid must reject.  Checking the two extremal
    single-value pairs refutes in O(1);
  - everything in between ("ambiguous") falls through to the exact
    stacked matrix kernel, after consulting the shared
    :class:`~repro.core.kernels.AcceptanceCache`.

* :func:`find_largest_oracle` re-implements the doubling + binary
  search with the *same canonical probe schedule* as the reference
  :func:`repro.core.qewh.find_largest` — the doubling ladder
  ``min(2m, m_cap)`` and midpoints ``(good + bad) // 2`` — but evaluates
  the ladder in warm-started speculative chunks (bucket widths are
  locally correlated on real densities, so the previous bucket's
  accepted width predicts where the ladder stops) and resolves every
  ambiguous bucklet of a chunk in one stacked kernel dispatch.

Because each probe's decision is a pure function of its width — the
oracle reproduces the combined test ``pretest ∨ (size <= MaxSize ∧
grid)`` decision bit-for-bit, and the ladder/bisection arithmetic is
unchanged — the search returns *exactly* the width the reference search
returns, for every bucket, on every density.  The parity suite in
``tests/core/test_search.py`` enforces this by building whole reference
histograms with :func:`~repro.core.qewh.find_largest` substituted for
:func:`find_largest_oracle`.

Counters (flushed into the build trace, and from there into CLI
``--profile`` and the service's Prometheus export):

* ``search_probes``      — candidate widths evaluated;
* ``oracle_certified``   — bucklets accepted in O(1);
* ``oracle_refuted``     — bucklets rejected in O(1);
* ``oracle_grid_cells``  — bucklets that needed the exact kernel;
* ``acceptance_cache_hits`` — grid decisions answered by the cache.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.kernels import (
    MATRIX_STRATEGY_MAX,
    AcceptanceCache,
    acceptance_matrix_batch,
    subquadratic_test_vectorized,
)
from repro.obs import NULL_TRACE

__all__ = ["AcceptanceOracle", "find_largest_oracle"]

# A pending grid cell: (lower, clipped upper, estimation slope, cache key).
_Cell = Tuple[int, int, float, Optional[tuple]]
# A probe verdict: decided outright, or the cells only the grid can judge.
ProbeResult = Union[bool, List[_Cell]]


class AcceptanceOracle:
    """O(1) certify/refute decisions for the combined acceptance test.

    Bound to one (density, θ, q, config) tuple; share one instance per
    build so the sparse-table index, the Python-list prefix sums and the
    :class:`AcceptanceCache` are reused by every bucket.
    """

    __slots__ = (
        "density", "index", "cum", "d", "theta", "q",
        "max_size", "config", "cache",
        "probes", "tests", "certified", "refuted", "grid_cells", "cache_hits",
    )

    def __init__(
        self,
        density: AttributeDensity,
        theta: float,
        q: float,
        config: HistogramConfig,
        cache: Optional[AcceptanceCache] = None,
    ) -> None:
        self.density = density
        self.index = density.ensure_index()
        self.cum = self.index.cum_list
        self.d = density.n_distinct
        self.theta = float(theta)
        self.q = float(q)
        self.max_size = config.max_pretest_size
        self.config = config
        self.cache = cache
        # Tallied in the scalar hot loop, flushed per search call.
        self.probes = 0
        self.tests = 0
        self.certified = 0
        self.refuted = 0
        self.grid_cells = 0
        self.cache_hits = 0

    # -- O(1) per-bucklet decision ------------------------------------------

    def cell_decision(self, lo: int, clipped: int, alpha: float) -> Optional[bool]:
        """Combined-test verdict for one bucklet, or ``None`` for "ask
        the exact kernel".

        Mirrors ``pretest ∨ (size <= MaxSize ∧ grid)`` on the same
        float64 values the batch kernels see, so a non-``None`` answer
        is bit-identical to the reference search's.
        """
        theta = self.theta
        q = self.q
        total = float(self.cum[clipped] - self.cum[lo])
        if total <= theta:
            self.certified += 1
            return True
        index = self.index
        fmax = float(index.range_max(lo, clipped))
        fmin = float(index.range_min(lo, clipped))
        if q * alpha >= fmax and alpha / q <= fmin:
            self.certified += 1
            return True
        # Pretest failed; the combined test's MaxSize cut is next.
        if clipped - lo > self.max_size:
            self.refuted += 1
            return False
        # Width-1 pairs are first in their grid row, hence never skipped
        # by the kθ rule: an extremal single value that violates both the
        # θ-box and the q-band sinks the grid.
        if (fmax > theta or alpha > theta) and (fmax > q * alpha or alpha > q * fmax):
            self.refuted += 1
            return False
        if (fmin > theta or alpha > theta) and (fmin > q * alpha or alpha > q * fmin):
            self.refuted += 1
            return False
        return None

    # -- probe = one candidate width ----------------------------------------

    def probe(
        self, l: int, m: int, n_bucklets: int, max_bucklet_total: float
    ) -> ProbeResult:
        """Scalar verdict for one candidate width.

        ``False`` the moment any bucklet is refuted (the probe is a
        conjunction, so refutation order never changes its value);
        ``True`` when every bucklet certifies; otherwise the list of
        bucklets only the exact kernel can judge.
        """
        cum = self.cum
        index = self.index
        cache = self.cache
        d = self.d
        theta = self.theta
        q = self.q
        max_size = self.max_size
        self.probes += 1
        pending: Optional[List[_Cell]] = None
        cells = 0
        for i in range(n_bucklets):
            lo = l + i * m
            if lo >= d:
                break  # fully past the domain: empty, trivially acceptable
            clipped = lo + m
            if clipped > d:
                clipped = d
            total_int = cum[clipped] - cum[lo]
            if total_int > max_bucklet_total:
                self.tests += cells
                return False
            cells += 1
            total = float(total_int)
            if total <= theta:
                self.certified += 1
                continue
            # The estimation slope runs over the *unclipped* width, as in
            # the reference search (domain-clamped trailing bucklets).
            alpha = total_int / m
            fmax = float(index.range_max(lo, clipped))
            fmin = float(index.range_min(lo, clipped))
            if q * alpha >= fmax and alpha / q <= fmin:
                self.certified += 1
                continue
            if clipped - lo > max_size:
                self.refuted += 1
                self.tests += cells
                return False
            if (fmax > theta or alpha > theta) and (
                fmax > q * alpha or alpha > q * fmax
            ):
                self.refuted += 1
                self.tests += cells
                return False
            if (fmin > theta or alpha > theta) and (
                fmin > q * alpha or alpha > q * fmin
            ):
                self.refuted += 1
                self.tests += cells
                return False
            key = None
            if cache is not None:
                key = cache.decision_key(
                    lo, clipped, theta, q, alpha,
                    k=8.0, max_size=max_size, flexible_alpha=False,
                )
                cached = cache.lookup_decision(key)
                if cached is not None:
                    self.cache_hits += 1
                    if not cached:
                        self.tests += cells
                        return False
                    continue
            if pending is None:
                pending = []
            pending.append((lo, clipped, alpha, key))
        self.tests += cells
        return True if pending is None else pending

    def resolve(self, pending: Sequence[_Cell]) -> List[bool]:
        """Exact grid verdicts for ambiguous bucklets (one stacked
        dispatch; oversize bucklets use the boundary kernel)."""
        self.grid_cells += len(pending)
        density = self.density
        theta = self.theta
        q = self.q
        cache = self.cache
        verdicts: List[Optional[bool]] = [None] * len(pending)
        stacked: List[int] = []
        for pos, (lo, clipped, alpha, _key) in enumerate(pending):
            if clipped - lo > MATRIX_STRATEGY_MAX:
                # MaxSize raised past the matrix bound: the (equivalent)
                # boundary kernel decides this bucklet alone.
                verdicts[pos] = bool(
                    subquadratic_test_vectorized(
                        density, lo, clipped, theta, q, alpha=alpha
                    )
                )
            else:
                stacked.append(pos)
        if stacked:
            grid = acceptance_matrix_batch(
                density,
                [pending[pos][0] for pos in stacked],
                [pending[pos][1] for pos in stacked],
                theta,
                q,
                alphas=[pending[pos][2] for pos in stacked],
            )
            for pos, decision in zip(stacked, grid):
                verdicts[pos] = bool(decision)
        if cache is not None:
            for (lo, clipped, alpha, key), decision in zip(pending, verdicts):
                if key is not None:
                    cache.store_decision(key, decision)
        return verdicts  # type: ignore[return-value]

    def flush(self, trace) -> None:
        """Move the scalar-loop tallies into the build trace."""
        if self.probes:
            trace.count("search_probes", self.probes)
            self.probes = 0
        if self.tests:
            trace.count("acceptance_tests", self.tests)
            self.tests = 0
        if self.certified:
            trace.count("oracle_certified", self.certified)
            self.certified = 0
        if self.refuted:
            trace.count("oracle_refuted", self.refuted)
            self.refuted = 0
        if self.grid_cells:
            trace.count("oracle_grid_cells", self.grid_cells)
            self.grid_cells = 0
        if self.cache_hits:
            trace.count("acceptance_cache_hits", self.cache_hits)
            self.cache_hits = 0


def find_largest_oracle(
    density: AttributeDensity,
    l: int,
    theta: float,
    q: float,
    config: HistogramConfig,
    n_bucklets: int = 8,
    max_bucklet_total: float = float("inf"),
    cache: Optional[AcceptanceCache] = None,
    trace=NULL_TRACE,
    oracle: Optional[AcceptanceOracle] = None,
    warm: int = 0,
) -> int:
    """Oracle-driven ``FindLargest``: bit-identical to the reference
    :func:`repro.core.qewh.find_largest`.

    The canonical probe schedule — the doubling ladder
    ``m <- min(2m, m_cap)`` followed by ``(good + bad) // 2``
    bisection — is preserved exactly; since each probe's verdict is a
    pure function of its width, the first ladder failure (and hence
    every later midpoint) is independent of evaluation order.  ``warm``
    (the previous bucket's accepted width) only sizes the *speculative
    chunk*: how many ladder widths are evaluated per batch before
    checking for the first failure.
    """
    d = density.n_distinct
    if not 0 <= l < d:
        raise IndexError(f"start {l} outside domain [0, {d})")
    if oracle is None:
        oracle = AcceptanceOracle(density, theta, q, config, cache=cache)
    m_cap = max(1, math.ceil((d - l) / n_bucklets))
    if m_cap <= 1:
        return 1
    probe = oracle.probe
    m_good = 1
    m_bad = m_cap + 1
    speculate = 2 * warm if warm > 1 else 2
    with trace.timer("acceptance_tests"):
        while m_good < m_cap:
            # One speculative chunk of the canonical doubling ladder.
            chunk: List[int] = []
            width = m_good
            while True:
                width *= 2
                if width >= m_cap:
                    chunk.append(m_cap)
                    break
                chunk.append(width)
                if width >= speculate:
                    break
            statuses: List[ProbeResult] = []
            for width in chunk:
                status = probe(l, width, n_bucklets, max_bucklet_total)
                statuses.append(status)
                if status is False:
                    break  # wider widths cannot change the first failure
            pending_all: List[_Cell] = [
                cell
                for status in statuses
                if type(status) is list
                for cell in status
            ]
            grid = oracle.resolve(pending_all) if pending_all else []
            cursor = 0
            fail = -1
            for offset, status in enumerate(statuses):
                if type(status) is list:
                    span = len(status)
                    accepted = all(grid[cursor : cursor + span])
                    cursor += span
                else:
                    accepted = status
                if not accepted:
                    fail = offset
                    break
            if fail >= 0:
                m_bad = chunk[fail]
                if fail > 0:
                    m_good = chunk[fail - 1]
                break
            m_good = chunk[-1]
            speculate = m_good * 8
        while m_bad - m_good > 1:
            mid = (m_good + m_bad) // 2
            status = probe(l, mid, n_bucklets, max_bucklet_total)
            if type(status) is list:
                status = all(oracle.resolve(status))
            if status:
                m_good = mid
            else:
                m_bad = mid
    oracle.flush(trace)
    return m_good
