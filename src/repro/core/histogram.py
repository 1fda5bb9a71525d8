"""The queryable histogram object.

A histogram is a sequence of buckets with increasing, adjoining
intervals.  Range estimates accumulate whole-bucket totals for fully
covered buckets (the cheap path Sec. 6.2 stores totals for) and partial
f̂avg estimates at the two fringes.  Estimates are never zero for
non-empty query ranges -- the paper never returns zero because that
invites unsound plan simplifications (Sec. 3).

Estimates are served through a lazily compiled plan
(:class:`repro.core.compiled.CompiledHistogram`) -- flat numpy arrays
built once per histogram (histograms are immutable, so the plan is
never invalidated).  The original bucket-walk implementations remain as
``estimate_interpreted`` / ``estimate_distinct_interpreted``: they are
the semantic reference the compiled path is tested against, and the
fallback for bucket types without a plan emitter.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence

import numpy as np

__all__ = ["Histogram"]


class Histogram:
    """An immutable sequence of buckets over one attribute.

    Parameters
    ----------
    buckets:
        Bucket objects (see :mod:`repro.core.buckets`) with adjoining
        ``[lo, hi)`` intervals in increasing order.
    kind:
        Display name of the construction variant, e.g. ``"F8Dgt"``.
    theta, q:
        The *inner* per-bucket parameters used at construction time; the
        Sec. 5 theorems translate them into whole-histogram guarantees.
    domain:
        ``"code"`` for dictionary-code domains (dense), ``"value"`` for
        value-based histograms.
    """

    def __init__(
        self,
        buckets: Sequence,
        kind: str,
        theta: float,
        q: float,
        domain: str = "code",
    ) -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket")
        if domain not in ("code", "value"):
            raise ValueError(f"unknown domain {domain!r}")
        for left, right in zip(buckets, buckets[1:]):
            if right.lo != left.hi:
                raise ValueError(
                    f"buckets must adjoin: [{left.lo}, {left.hi}) then "
                    f"[{right.lo}, {right.hi})"
                )
        self._buckets: List = list(buckets)
        self._lows = [b.lo for b in self._buckets]
        self.kind = kind
        self.theta = float(theta)
        self.q = float(q)
        self.domain = domain
        self._plan = None
        self._plan_failed = False

    def __getstate__(self) -> dict:
        # Plans hold large decoded arrays and recompile cheaply; keep
        # pickles (process-pool transfers, catalog files) plan-free.
        state = self.__dict__.copy()
        state["_plan"] = None
        state["_plan_failed"] = False
        return state

    # -- shape ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buckets)

    @property
    def buckets(self) -> List:
        return list(self._buckets)

    @property
    def lo(self) -> float:
        return self._buckets[0].lo

    @property
    def hi(self) -> float:
        return self._buckets[-1].hi

    def bucket_index(self, c: float) -> int:
        """Index of the bucket containing coordinate ``c`` (clamped)."""
        index = bisect.bisect_right(self._lows, c) - 1
        return min(max(index, 0), len(self._buckets) - 1)

    def bucket_index_exclusive(self, c: float) -> int:
        """Index of the last bucket with mass strictly below ``c``.

        The exclusive-upper companion of :meth:`bucket_index` for query
        upper endpoints: a ``c`` that lands exactly on a bucket boundary
        maps to the bucket *below* it.  This replaces the former
        ``bucket_index(hi - 1e-12)`` trick, which silently broke for
        domains past ~2**40 where ``hi - 1e-12 == hi``.
        """
        index = bisect.bisect_left(self._lows, c) - 1
        return min(max(index, 0), len(self._buckets) - 1)

    # -- estimation -----------------------------------------------------------

    def plan(self):
        """The compiled estimation plan, built on first use.

        Returns ``None`` when the histogram holds bucket types without a
        plan emitter; estimation then stays on the interpreted walk.
        """
        if self._plan is None and not self._plan_failed:
            from repro.core.compiled import CompiledHistogram, CompileError

            try:
                self._plan = CompiledHistogram.compile(self)
            except CompileError:
                self._plan_failed = True
        return self._plan

    def estimate(self, c1: float, c2: float) -> float:
        """Cardinality estimate for the range query ``[c1, c2)``.

        Clamps to the histogram's domain and never returns less than 1
        for a non-empty intersection with the domain.  Served by the
        compiled plan when available.
        """
        plan = self.plan()
        if plan is not None:
            return plan.estimate(c1, c2)
        return self.estimate_interpreted(c1, c2)

    def estimate_interpreted(self, c1: float, c2: float) -> float:
        """Reference bucket-walk implementation of :meth:`estimate`."""
        if c2 <= c1:
            return 0.0
        lo = max(float(c1), float(self.lo))
        hi = min(float(c2), float(self.hi))
        if hi <= lo:
            return 0.0
        first = self.bucket_index(lo)
        last = self.bucket_index_exclusive(hi)
        estimate = 0.0
        for index in range(first, last + 1):
            bucket = self._buckets[index]
            if lo <= bucket.lo and bucket.hi <= hi:
                estimate += bucket.total_estimate()
            else:
                estimate += bucket.estimate_range(lo, hi)
        return max(estimate, 1.0)

    def estimate_distinct(self, c1: float, c2: float) -> float:
        """Distinct-value estimate for ``[c1, c2)``.

        On a dense code domain this is the clipped range width; on a
        value domain the buckets' distinct-count fields are consulted.
        Served by the compiled plan when it carries distinct counts.
        """
        plan = self.plan()
        if plan is not None and plan.supports_distinct:
            return plan.estimate_distinct(c1, c2)
        return self.estimate_distinct_interpreted(c1, c2)

    def estimate_distinct_interpreted(self, c1: float, c2: float) -> float:
        """Reference bucket-walk implementation of :meth:`estimate_distinct`."""
        if c2 <= c1:
            return 0.0
        lo = max(float(c1), float(self.lo))
        hi = min(float(c2), float(self.hi))
        if hi <= lo:
            return 0.0
        if self.domain == "code":
            return max(hi - lo, 1.0)
        first = self.bucket_index(lo)
        last = self.bucket_index_exclusive(hi)
        estimate = 0.0
        for index in range(first, last + 1):
            bucket = self._buckets[index]
            if not hasattr(bucket, "estimate_distinct"):
                raise TypeError(
                    f"bucket type {type(bucket).__name__} stores no distinct counts"
                )
            estimate += bucket.estimate_distinct(lo, hi)
        return max(estimate, 1.0)

    def explain(self, c1: float, c2: float) -> List[dict]:
        """Per-bucket breakdown of :meth:`estimate` for debugging.

        Returns one record per overlapped bucket: its interval, whether
        the whole-bucket total path or the partial path answered, and the
        contribution.  The sum of contributions (clamped to >= 1) equals
        :meth:`estimate`.
        """
        if c2 <= c1:
            return []
        lo = max(float(c1), float(self.lo))
        hi = min(float(c2), float(self.hi))
        if hi <= lo:
            return []
        first = self.bucket_index(lo)
        last = self.bucket_index_exclusive(hi)
        out = []
        for index in range(first, last + 1):
            bucket = self._buckets[index]
            full = lo <= bucket.lo and bucket.hi <= hi
            contribution = (
                bucket.total_estimate() if full else bucket.estimate_range(lo, hi)
            )
            out.append(
                {
                    "bucket": index,
                    "lo": bucket.lo,
                    "hi": bucket.hi,
                    "path": "total" if full else "partial",
                    "contribution": contribution,
                }
            )
        return out

    def estimate_batch(self, c1s: np.ndarray, c2s: np.ndarray) -> np.ndarray:
        """Vector of estimates for paired query endpoints.

        One compiled-plan pass over the whole batch: searchsorted on the
        endpoint arrays (per-code table gathers for integer endpoints),
        a prefix-sum gather for fully covered bucket runs, and
        vectorized fringe interpolation.
        """
        c1s = np.asarray(c1s)
        c2s = np.asarray(c2s)
        if c1s.shape != c2s.shape:
            raise ValueError("endpoint arrays must align")
        plan = self.plan()
        if plan is not None:
            return plan.estimate_batch(c1s, c2s)
        return np.asarray(
            [
                self.estimate_interpreted(a, b)
                for a, b in zip(
                    c1s.astype(np.float64).tolist(), c2s.astype(np.float64).tolist()
                )
            ]
        )

    def estimate_distinct_batch(
        self, c1s: np.ndarray, c2s: np.ndarray
    ) -> np.ndarray:
        """Vector of distinct-value estimates for paired endpoints."""
        c1s = np.asarray(c1s, dtype=np.float64)
        c2s = np.asarray(c2s, dtype=np.float64)
        if c1s.shape != c2s.shape:
            raise ValueError("endpoint arrays must align")
        plan = self.plan()
        if plan is not None and plan.supports_distinct:
            return plan.estimate_distinct_batch(c1s, c2s)
        return np.asarray(
            [
                self.estimate_distinct_interpreted(a, b)
                for a, b in zip(c1s.tolist(), c2s.tolist())
            ]
        )

    # -- sizing ----------------------------------------------------------------

    def summary(self) -> dict:
        """Shape statistics for introspection and tooling.

        Bucket-width distribution, estimated total mass, bytes, and the
        per-bucket type census (interesting for mixed histograms).
        """
        widths = np.asarray(
            [b.hi - b.lo for b in self._buckets], dtype=np.float64
        )
        census: dict = {}
        for bucket in self._buckets:
            name = type(bucket).__name__
            census[name] = census.get(name, 0) + 1
        return {
            "kind": self.kind,
            "domain": self.domain,
            "buckets": len(self._buckets),
            "theta": self.theta,
            "q": self.q,
            "range": (float(self.lo), float(self.hi)),
            "size_bytes": self.size_bytes(),
            "estimated_rows": float(
                sum(b.total_estimate() for b in self._buckets)
            ),
            "bucket_width_min": float(widths.min()),
            "bucket_width_median": float(np.median(widths)),
            "bucket_width_max": float(widths.max()),
            "bucket_types": census,
        }

    def size_bits(self) -> int:
        """Total packed size, including per-bucket boundary storage."""
        return int(sum(b.size_bits for b in self._buckets))

    def size_bytes(self) -> int:
        return (self.size_bits() + 7) // 8

    def __repr__(self) -> str:
        return (
            f"Histogram(kind={self.kind!r}, buckets={len(self._buckets)}, "
            f"theta={self.theta}, q={self.q}, bytes={self.size_bytes()})"
        )
