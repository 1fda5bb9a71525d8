"""Table-level statistics management.

The paper's deployment builds a histogram per (worthy) column of every
table at delta-merge time.  :class:`StatisticsManager` packages that:
it applies the Sec. 8.2 worthiness filter, keeps exact per-value counts
for tiny domains, builds histograms for the rest, and answers
cardinality requests uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.core.config import HistogramConfig
from repro.core.histogram import Histogram
from repro.dictionary.column import DictionaryEncodedColumn
from repro.dictionary.table import Table

__all__ = ["ColumnStatistics", "StatisticsManager"]


@dataclass
class ColumnStatistics:
    """Statistics for one column: a histogram or exact small-domain counts."""

    column: DictionaryEncodedColumn
    histogram: Optional[Histogram] = None
    exact_counts: Optional[np.ndarray] = None

    @property
    def is_exact(self) -> bool:
        return self.exact_counts is not None

    def estimate_range(self, c1: int, c2: int) -> float:
        """Cardinality estimate for the code range ``[c1, c2)``."""
        if self.exact_counts is not None:
            d = self.exact_counts.size
            lo = min(max(int(c1), 0), d)
            hi = min(max(int(c2), lo), d)
            return float(self.exact_counts[lo:hi].sum())
        return self.histogram.estimate(float(c1), float(c2))

    def estimate_range_batch(self, c1s, c2s) -> np.ndarray:
        """Vector of :meth:`estimate_range` answers for paired endpoints.

        Exact columns answer from a cached exclusive prefix sum; the
        histogram path runs one compiled-plan pass over the batch.
        """
        c1s = np.asarray(c1s)
        c2s = np.asarray(c2s)
        if c1s.shape != c2s.shape:
            raise ValueError("endpoint arrays must align")
        if self.exact_counts is not None:
            cum = self.__dict__.get("_cum")
            if cum is None:
                cum = np.concatenate(([0], np.cumsum(self.exact_counts)))
                self.__dict__["_cum"] = cum
            d = self.exact_counts.size
            lo = np.clip(c1s.astype(np.int64), 0, d)
            hi = np.clip(c2s.astype(np.int64), lo, d)
            return (cum[hi] - cum[lo]).astype(np.float64)
        return self.histogram.estimate_batch(c1s, c2s)

    def estimate_distinct_range(self, c1: int, c2: int) -> float:
        """Distinct-value estimate for the code range ``[c1, c2)``."""
        if self.exact_counts is not None:
            d = self.exact_counts.size
            lo = min(max(int(c1), 0), d)
            hi = min(max(int(c2), lo), d)
            return float(np.count_nonzero(self.exact_counts[lo:hi]))
        return self.histogram.estimate_distinct(float(c1), float(c2))

    def estimate_distinct_range_batch(self, c1s, c2s) -> np.ndarray:
        """Vector of :meth:`estimate_distinct_range` answers.

        Exact columns answer from a cached prefix sum of the occupancy
        bitmap; the histogram path runs one compiled-plan distinct pass.
        """
        c1s = np.asarray(c1s)
        c2s = np.asarray(c2s)
        if c1s.shape != c2s.shape:
            raise ValueError("endpoint arrays must align")
        if self.exact_counts is not None:
            occupancy = self.__dict__.get("_distinct_cum")
            if occupancy is None:
                occupancy = np.concatenate(
                    ([0], np.cumsum(self.exact_counts > 0))
                )
                self.__dict__["_distinct_cum"] = occupancy
            d = self.exact_counts.size
            lo = np.clip(c1s.astype(np.int64), 0, d)
            hi = np.clip(c2s.astype(np.int64), lo, d)
            return (occupancy[hi] - occupancy[lo]).astype(np.float64)
        return self.histogram.estimate_distinct_batch(
            c1s.astype(np.float64), c2s.astype(np.float64)
        )

    def estimate_value_range(self, low: Any, high: Any) -> float:
        """Cardinality estimate for a value-space range ``[low, high)``."""
        if self.histogram is not None and self.histogram.domain == "value":
            return self.histogram.estimate(float(low), float(high))
        c1, c2 = self.column.dictionary.encode_range(low, high)
        return self.estimate_range(c1, c2)

    def size_bytes(self) -> int:
        if self.exact_counts is not None:
            return int(self.exact_counts.size * 8)
        return self.histogram.size_bytes()


class StatisticsManager:
    """Builds and serves statistics for every column of a table."""

    def __init__(
        self,
        kind: str = "V8DincB",
        config: HistogramConfig = HistogramConfig(),
    ) -> None:
        self.kind = kind
        self.config = config
        self._stats: Dict[str, Dict[str, ColumnStatistics]] = {}

    def build_for_table(
        self,
        table: Table,
        max_workers: Optional[int] = None,
        executor: str = "process",
    ) -> Dict[str, ColumnStatistics]:
        """(Re)build statistics for every column of ``table``.

        Columns failing the Sec. 8.2 worthiness filter get exact
        per-value counts (cheap: < 20 values or unique keys); the rest
        get histograms of the manager's kind.  ``max_workers > 1`` (or
        ``None`` with more than one worthy column) fans the histogram
        builds across a :mod:`repro.core.parallel` pool.
        """
        from repro.core.parallel import build_table_histograms

        histograms = build_table_histograms(
            table,
            config=self.config,
            kind=self.kind,
            max_workers=max_workers,
            executor=executor,
        )
        per_column: Dict[str, ColumnStatistics] = {}
        for column in table:
            if column.name in histograms:
                per_column[column.name] = ColumnStatistics(
                    column=column, histogram=histograms[column.name]
                )
            else:
                per_column[column.name] = ColumnStatistics(
                    column=column,
                    exact_counts=np.asarray(column.frequencies, dtype=np.int64),
                )
        self._stats[table.name] = per_column
        return per_column

    def set_statistics(self, table_name: str, column_name: str, stats) -> None:
        """Install externally built statistics for one column.

        The serving layer uses this to back a manager with live
        register-blended statistics instead of the static histograms
        :meth:`build_for_table` produces; anything implementing the
        :class:`ColumnStatistics` estimate interface (``estimate_range``,
        ``is_exact``) is accepted.
        """
        self._stats.setdefault(table_name, {})[column_name] = stats

    def has_table(self, table_name: str) -> bool:
        """True when statistics for ``table_name`` are already present."""
        return table_name in self._stats

    def statistics(self, table_name: str, column_name: str) -> ColumnStatistics:
        return self._stats[table_name][column_name]

    def estimate(
        self, table_name: str, column_name: str, low: Any, high: Any
    ) -> float:
        """Cardinality estimate for a value-range predicate."""
        return self.statistics(table_name, column_name).estimate_value_range(low, high)

    def total_size_bytes(self, table_name: str) -> int:
        return sum(s.size_bytes() for s in self._stats[table_name].values())

    def __repr__(self) -> str:
        tables = {name: len(columns) for name, columns in self._stats.items()}
        return f"StatisticsManager(kind={self.kind!r}, tables={tables})"
