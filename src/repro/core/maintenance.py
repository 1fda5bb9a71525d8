"""Incremental histogram maintenance between delta merges.

Sec. 6.1.3's point: q-compressed numbers admit probabilistic increments
(Morris 1978, Flajolet 1985), so bucket totals can track inserts
*without* decompressing or rebuilding.  :class:`MaintainedHistogram`
wraps a built histogram with one Morris register per bucket:

* ``insert(code)`` routes a new row to its bucket's register;
  ``delete(code)`` records the reverse direction exactly (deletes come
  from the row store, so there is nothing to approximate);
* estimates blend the (exact-at-build-time) compressed payload with the
  register's estimate of post-build inserts net of recorded deletes;
* ``staleness()`` reports the churn fraction, the signal a system uses
  to schedule the next full rebuild (delta merge).

Alongside the probabilistic registers, exact per-bucket insert/delete
tallies are kept (two int64 per bucket -- cheap next to the payloads).
They cost nothing on the estimation path and buy the *repair* path
everything: :meth:`churned_buckets` names the only buckets whose θ,q
certificate can possibly have broken, and :meth:`failing_buckets`
re-runs the construction-time acceptance test on exactly those buckets
via :mod:`repro.core.repair`, so a serving layer can patch the broken
buckets (:func:`repro.core.repair.repair_histogram`) instead of
rebuilding the column.  :meth:`rebase` then carries the surviving
buckets' registers and tallies onto the repaired histogram.

The error guarantee degrades gracefully: the base histogram's θ,q bound
applies to the build-time population, and the added mass is approximated
with the Morris estimator's known relative standard deviation
``sqrt((base - 1) / 2)`` -- both surfaced in :meth:`error_profile`.

Limitations (inherent, not implementation gaps): inserts of *new*
distinct values outside the dictionary domain require a delta merge; the
per-bucket registers spread inserts uniformly within a bucket, so skewed
insert streams within one bucket degrade sub-bucket estimates until the
repair or rebuild -- the degradation the repair path exists to bound.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.compression.morris import MorrisCounter
from repro.core.histogram import Histogram

__all__ = ["MaintainedHistogram"]


class MaintainedHistogram:
    """A histogram plus per-bucket Morris registers for live inserts.

    Parameters
    ----------
    histogram:
        The base histogram (any code-domain kind).
    counter_base:
        Morris base for the registers; 1.1 matches the 8-bit
        q-compression of Table 1 (huge range, ~22 % relative std).
    rng:
        Randomness source for the probabilistic increments.
    """

    def __init__(
        self,
        histogram: Histogram,
        counter_base: float = 1.1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if histogram.domain != "code":
            raise ValueError("maintenance requires a code-domain histogram")
        self.histogram = histogram
        self._counter_base = float(counter_base)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._counters: List[MorrisCounter] = [
            MorrisCounter(base=counter_base, rng=self._rng)
            for _ in range(len(histogram))
        ]
        self._inserts = 0
        self._deletes = 0
        self._bucket_inserts = np.zeros(len(histogram), dtype=np.int64)
        self._bucket_deletes = np.zeros(len(histogram), dtype=np.int64)
        self._base_total = sum(
            bucket.total_estimate() for bucket in histogram.buckets
        )

    # -- updates --------------------------------------------------------

    def _check_domain(self, code: int) -> None:
        if not self.histogram.lo <= code < self.histogram.hi:
            raise ValueError(
                f"code {code} outside the histogram domain "
                f"[{self.histogram.lo}, {self.histogram.hi}); run a delta "
                "merge to extend the dictionary"
            )

    def insert(self, code: int) -> None:
        """Record one inserted row with dictionary code ``code``."""
        self._check_domain(code)
        index = self.histogram.bucket_index(code)
        self._counters[index].increment()
        self._bucket_inserts[index] += 1
        self._inserts += 1

    def insert_many(self, codes) -> None:
        """Record many inserted rows."""
        for code in codes:
            self.insert(int(code))

    def delete(self, code: int) -> None:
        """Record one deleted row with dictionary code ``code``.

        Deletes are exact (the row store names the departing code), so
        no register is involved: the tally is subtracted from the
        bucket's estimate directly, spread uniformly like inserts.
        """
        self._check_domain(code)
        index = self.histogram.bucket_index(code)
        self._bucket_deletes[index] += 1
        self._deletes += 1

    def delete_many(self, codes) -> None:
        """Record many deleted rows."""
        for code in codes:
            self.delete(int(code))

    def insert_counts(self, counts) -> int:
        """Record inserts given as per-code counts.

        ``counts[i]`` rows are recorded for code ``lo + i``.  The array
        may be shorter than the domain; it must not extend past ``hi``.
        Returns the number of rows recorded.  This is the bulk path the
        service's rebuild swap uses to replay inserts that arrived while
        a new histogram was being built.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-d array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        lo = int(self.histogram.lo)
        if lo + counts.size > self.histogram.hi:
            raise ValueError(
                f"counts cover codes up to {lo + counts.size}, outside the "
                f"histogram domain [{self.histogram.lo}, {self.histogram.hi})"
            )
        total = 0
        for offset in np.flatnonzero(counts):
            times = int(counts[offset])
            index = self.histogram.bucket_index(lo + int(offset))
            self._counters[index].increment(times)
            self._bucket_inserts[index] += times
            total += times
        self._inserts += total
        return total

    def delete_counts(self, counts) -> int:
        """Record deletes given as per-code counts (bulk :meth:`delete`).

        Same contract as :meth:`insert_counts`; the service's rebuild
        swap uses it to replay deletes that arrived during a build.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-d array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        lo = int(self.histogram.lo)
        if lo + counts.size > self.histogram.hi:
            raise ValueError(
                f"counts cover codes up to {lo + counts.size}, outside the "
                f"histogram domain [{self.histogram.lo}, {self.histogram.hi})"
            )
        total = 0
        for offset in np.flatnonzero(counts):
            times = int(counts[offset])
            index = self.histogram.bucket_index(lo + int(offset))
            self._bucket_deletes[index] += times
            total += times
        self._deletes += total
        return total

    # -- estimation -----------------------------------------------------

    def _bucket_net_added(self, index: int) -> float:
        """Morris insert estimate net of the exact delete tally."""
        return self._counters[index].estimate() - float(
            self._bucket_deletes[index]
        )

    def _bucket_edges(self) -> np.ndarray:
        """The base histogram's bucket edges: the compiled plan's array,
        or one built from the buckets when the histogram has no plan."""
        plan = self.histogram.plan()
        if plan is not None:
            return plan.bucket_edges
        return np.asarray(
            [b.lo for b in self.histogram.buckets] + [self.histogram.hi],
            dtype=np.float64,
        )

    def estimate(self, c1: float, c2: float) -> float:
        """Range estimate including post-build churn.

        The base payload answers for the build-time population; each
        overlapped bucket adds the covered fraction of its register's
        insert estimate net of its exact delete tally (both assumed
        uniform within a bucket).  The blend never goes below zero.
        """
        base = self.histogram.estimate(c1, c2)
        if self._inserts == 0 and self._deletes == 0:
            return base
        lo = max(float(c1), float(self.histogram.lo))
        hi = min(float(c2), float(self.histogram.hi))
        if hi <= lo:
            return base
        first = self.histogram.bucket_index(lo)
        last = self.histogram.bucket_index_exclusive(hi)
        buckets = self.histogram.buckets
        added = 0.0
        for index in range(first, last + 1):
            bucket = buckets[index]
            overlap = min(hi, bucket.hi) - max(lo, bucket.lo)
            if overlap <= 0:
                continue
            width = bucket.hi - bucket.lo
            added += self._bucket_net_added(index) * overlap / width
        return max(base + added, 0.0)

    def estimate_batch(self, c1s, c2s) -> np.ndarray:
        """Vector of :meth:`estimate` answers for paired endpoints.

        The base histogram answers through its compiled plan (integer
        endpoints keep their dtype, so codes reach the plan's per-code
        tables); the insert blend is itself a piecewise-linear
        cumulative function over the bucket edges (uniform spread within
        each bucket), so it too is one ``searchsorted`` + interpolation
        pass, in floats.
        """
        c1s = np.asarray(c1s)
        c2s = np.asarray(c2s)
        if c1s.shape != c2s.shape:
            raise ValueError("endpoint arrays must align")
        base = self.histogram.estimate_batch(c1s, c2s)
        if self._inserts == 0 and self._deletes == 0:
            return base
        c1s = c1s.astype(np.float64, copy=False)
        c2s = c2s.astype(np.float64, copy=False)
        edges = self._bucket_edges()
        # Cumulative net churn mass at each edge; registers re-read per
        # call because increments move them between calls.  The per-edge
        # partial sums can dip (delete-heavy buckets), which is exactly
        # the signed correction we want to interpolate.
        per_bucket = np.asarray(
            [c.estimate() for c in self._counters], dtype=np.float64
        ) - self._bucket_deletes.astype(np.float64)
        cum = np.concatenate(([0.0], np.cumsum(per_bucket)))

        def churn_cdf(x: np.ndarray) -> np.ndarray:
            x = np.clip(x, edges[0], edges[-1])
            k = np.clip(
                np.searchsorted(edges, x, side="right") - 1, 0, edges.size - 2
            )
            width = edges[k + 1] - edges[k]
            return cum[k] + (cum[k + 1] - cum[k]) * (x - edges[k]) / width

        added = churn_cdf(c2s) - churn_cdf(c1s)
        nonempty = base > 0.0
        return np.where(
            nonempty, np.maximum(base + added, 0.0), base
        )

    # -- rebuild signalling ----------------------------------------------

    @property
    def inserts_recorded(self) -> int:
        return self._inserts

    @property
    def deletes_recorded(self) -> int:
        return self._deletes

    @property
    def base_total(self) -> float:
        """Estimated total mass of the build-time population."""
        return self._base_total

    def morris_insert_total(self) -> float:
        """The registers' estimate of all post-build insert mass.

        This is the Morris-blended component of a maintained estimate
        (the exact insert count is known to :attr:`inserts_recorded`;
        what the *estimates* blend in is this probabilistic total) --
        surfaced so a serving layer can report its degradation ladder.
        """
        return float(
            sum(counter.estimate() for counter in self._counters)
        )

    def staleness(self) -> float:
        """Churned fraction: rows touched since the build over all rows.

        Deletes count as churn too -- a delete moves the truth away from
        the build-time payload exactly like an insert does.
        """
        churn = self._inserts + self._deletes
        total = self._base_total + churn
        return churn / total if total else 0.0

    def needs_rebuild(self, threshold: float = 0.2) -> bool:
        """True when the churn fraction exceeds ``threshold``."""
        if not 0 < threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        return self.staleness() > threshold

    # -- repair signalling ------------------------------------------------

    def churned_buckets(self) -> np.ndarray:
        """Indices of buckets with any recorded insert or delete.

        Only these can have a broken certificate: an untouched bucket
        still answers for exactly the population it was built on.
        """
        return np.flatnonzero(
            (self._bucket_inserts > 0) | (self._bucket_deletes > 0)
        )

    def bucket_churn(self) -> np.ndarray:
        """Exact per-bucket churn volume (inserts + deletes)."""
        return (self._bucket_inserts + self._bucket_deletes).copy()

    def failing_buckets(
        self, frequencies: np.ndarray, k: float = 8.0
    ) -> np.ndarray:
        """Churned buckets whose θ,q certificate breaks on current truth.

        ``frequencies`` are the current per-code counts over the full
        domain (zeros allowed; clamped to the paper's never-zero floor
        of 1 before testing).  Delegates the acceptance re-test to
        :func:`repro.core.repair.buckets_acceptable`, feeding it only
        :meth:`churned_buckets` -- the certificate cannot have moved
        anywhere else.
        """
        from repro.core.density import AttributeDensity
        from repro.core.repair import buckets_acceptable

        churned = self.churned_buckets()
        if churned.size == 0:
            return churned
        density = AttributeDensity(
            np.maximum(np.asarray(frequencies, dtype=np.int64), 1)
        )
        accepted = buckets_acceptable(self.histogram, density, churned, k=k)
        return churned[~accepted]

    def rebase(self, histogram: Histogram) -> "MaintainedHistogram":
        """A maintained wrapper for a *repaired* version of this histogram.

        Buckets the repair carried over unchanged (the same objects, per
        the :func:`repro.core.repair.repair_histogram` contract) keep
        their Morris registers and exact tallies; replaced buckets start
        clean -- their payloads were just rebuilt from current truth, so
        their churn is zero by definition.
        """
        carried = {
            id(bucket): index
            for index, bucket in enumerate(self.histogram.buckets)
        }
        fresh = MaintainedHistogram(
            histogram, counter_base=self._counter_base, rng=self._rng
        )
        for index, bucket in enumerate(histogram.buckets):
            old = carried.get(id(bucket))
            if old is None:
                continue
            fresh._counters[index] = self._counters[old]
            fresh._bucket_inserts[index] = self._bucket_inserts[old]
            fresh._bucket_deletes[index] = self._bucket_deletes[old]
        fresh._inserts = int(fresh._bucket_inserts.sum())
        fresh._deletes = int(fresh._bucket_deletes.sum())
        return fresh

    def error_profile(self) -> dict:
        """The error components of a maintained estimate."""
        counter = self._counters[0]
        return {
            "base_theta": self.histogram.theta,
            "base_q": self.histogram.q,
            "insert_relative_std": counter.relative_std(),
            "staleness": self.staleness(),
        }

    def __repr__(self) -> str:
        return (
            f"MaintainedHistogram(kind={self.histogram.kind!r}, "
            f"inserts={self._inserts}, deletes={self._deletes}, "
            f"staleness={self.staleness():.3f})"
        )
