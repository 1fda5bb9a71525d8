"""Seeded inputs for the benchmark: column tables and request streams.

Everything here is a pure function of the seed, so the same seed gives
byte-identical column files and request arrays.  The frequency families
mirror the mixes in ``repro.workloads.distributions`` (zipf, lognormal,
stepped, spiky, random walk, near-uniform) but are implemented here on
purpose: a later change to the program's own generators must not move
the benchmark's inputs.

Sizes are fixed per workload (``TABLES``); only the draws vary with the
seed.  Distinct counts of the ERP-like ``build`` table are stratified
log-uniform (one column per stratum), so seeds differ in detail but not
in the total work a build does.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

FAMILIES = ("uniform", "zipf", "lognormal", "random_walk", "stepped", "spiky")


@dataclass(frozen=True)
class TableSpec:
    """Shape of one generated table."""

    n_columns: int
    min_distinct: int
    max_distinct: int
    rows_per_column: int
    skew: float = 1.0  # >1 pulls the stratified distinct counts down


TABLES: Dict[str, TableSpec] = {
    # Fixed per-request cost dominates: columns only need several
    # buckets each; setup stays a few seconds.
    "point": TableSpec(16, 2000, 4000, 100_000),
    # Same shape as point: bulk differs in request shape, not data.
    "bulk": TableSpec(16, 2000, 4000, 100_000),
    # Skewed columns whose buckets the hot-code churn breaks.
    "churn": TableSpec(8, 2000, 4000, 75_000),
    # ERP-like: many columns, log-uniform distinct counts skewed small,
    # one large column; sized so one table build takes seconds.
    "build": TableSpec(48, 20, 15_000, 100_000, skew=1.6),
}


@dataclass
class Column:
    """One generated column: sorted distinct values and their counts."""

    name: str
    values: np.ndarray  # int64, strictly increasing
    freqs: np.ndarray  # int64, every entry >= 1

    @property
    def n_distinct(self) -> int:
        return int(self.values.size)

    @property
    def n_rows(self) -> int:
        return int(self.freqs.sum())

    def rows(self) -> np.ndarray:
        """The column as the server loads it: one entry per row."""
        return np.repeat(self.values, self.freqs)


# -- frequency families ------------------------------------------------------


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw per ``1/n`` stratum of (0, 1), shuffled.

    Feeding these through a heavy-tailed inverse CDF keeps the multiset
    of frequencies close to the distribution's quantiles on every seed
    (no seed draws a column of outliers); the seed still decides where
    each frequency lands.
    """
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def _family(rng: np.random.Generator, family: str, n: int, index: int) -> np.ndarray:
    if family == "uniform":
        level = 5 + (37 * index) % 190
        return rng.integers(max(1, int(level * 0.8)), int(level * 1.2) + 2, size=n)
    if family == "zipf":  # Zipf a=1.5 tail: Pareto with shape 0.5
        return np.minimum(np.floor((1.0 - _strata(rng, n)) ** -2.0), 50_000)
    if family == "lognormal":
        return np.exp(2.0 + 1.5 * rng.permutation(np.sort(rng.normal(size=n))))
    if family == "random_walk":
        level = np.cumsum(rng.normal(0.0, 0.15, size=n))
        level -= level.min()
        if level.max() > np.log(10_000.0):
            level *= np.log(10_000.0) / level.max()
        return np.exp(level + 0.5)
    if family == "stepped":
        n_steps = max(1, min(8, n))
        edges = np.linspace(0, n, n_steps + 1).round().astype(np.int64)
        levels = np.exp(3.0 * _strata(rng, n_steps))
        return np.repeat(levels, np.diff(edges))
    if family == "spiky":
        freqs = rng.integers(1, 5, size=n).astype(np.float64)
        spikes = rng.choice(n, size=max(1, n // 100), replace=False)
        freqs[spikes] = np.clip(1000.0 / (1.0 - _strata(rng, spikes.size)), 100, 100_000)
        return freqs
    raise ValueError(f"unknown family {family!r}")


def mixed_frequencies(rng: np.random.Generator, n: int, rows: int, index: int) -> np.ndarray:
    """Contiguous segments of different families plus rare spikes,
    scaled so the column holds about ``rows`` rows.

    The segment layout and families are a function of the column's
    ``index`` alone; the seed only draws the values inside them, so the
    histogram work a table needs does not swing between seeds.
    """
    n_segments = 1 + index % 4 if n >= 8 else 1
    bounds = np.linspace(0, n, n_segments + 1).round().astype(np.int64)
    freqs = np.empty(n, dtype=np.float64)
    for segment, (start, end) in enumerate(zip(bounds[:-1], bounds[1:])):
        family = FAMILIES[(index + 2 * segment) % len(FAMILIES)]
        freqs[start:end] = _family(rng, family, int(end - start), index)
    spikes = rng.choice(n, size=max(1, n // 500), replace=False)
    freqs[spikes] *= rng.uniform(20.0, 200.0, size=spikes.size)
    freqs = np.maximum(freqs, 1.0)
    freqs *= rows / freqs.sum()
    return np.maximum(np.floor(freqs), 1).astype(np.int64)


def scattered_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly increasing int64 values with irregular gaps (dense runs
    plus jumps), the shape of identifier and timestamp columns."""
    gaps = rng.choice([1, 2, 3, 10, 100, 5000], size=n, p=[0.55, 0.15, 0.10, 0.12, 0.06, 0.02])
    return np.cumsum(gaps).astype(np.int64)


def make_table(workload: str, seed: int) -> List[Column]:
    """The workload's table for ``seed``."""
    spec = TABLES[workload]
    rng = np.random.default_rng([seed, len(workload), sum(map(ord, workload))])
    log_lo, log_hi = np.log10(spec.min_distinct), np.log10(spec.max_distinct)
    strata = (np.arange(spec.n_columns) + rng.uniform(size=spec.n_columns)) / spec.n_columns
    columns = []
    for index, fraction in enumerate(strata):
        n = int(round(10 ** (log_lo + fraction**spec.skew * (log_hi - log_lo))))
        if index == spec.n_columns - 1 and spec.skew > 1.0:
            n = spec.max_distinct  # the one large column of an ERP schema
        freqs = mixed_frequencies(rng, n, spec.rows_per_column, index)
        columns.append(Column(f"c{index:02d}", scattered_values(rng, n), freqs))
    return columns


def write_table(columns: List[Column], directory: Path) -> None:
    """One ``.npy`` file of raw row values per column."""
    directory.mkdir(parents=True, exist_ok=True)
    for column in columns:
        np.save(directory / f"{column.name}.npy", column.rows())


# -- request streams -----------------------------------------------------------


def value_ranges(
    rng: np.random.Generator, column: Column, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` half-open value ranges ``[low, high)`` with log-uniform code
    widths, so answers span single values up to the whole column."""
    d = column.n_distinct
    c1 = rng.integers(0, d, size=n)
    width = np.floor(np.exp(rng.uniform(0.0, np.log(d), size=n))).astype(np.int64)
    c2 = np.minimum(c1 + np.maximum(width, 1), d)
    top = np.append(column.values, column.values[-1] + 1)
    return column.values[c1].astype(np.float64), top[c2].astype(np.float64)


def request_stream(
    workload: str, seed: int, columns: List[Column], n_per_column: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column range arrays stacked: ``(column index, lows, highs)``.

    Ordered column-major; ``point`` interleaves them at send time.
    """
    rng = np.random.default_rng([seed, 7, sum(map(ord, workload))])
    index, lows, highs = [], [], []
    for position, column in enumerate(columns):
        lo, hi = value_ranges(rng, column, n_per_column)
        index.append(np.full(n_per_column, position, dtype=np.int64))
        lows.append(lo)
        highs.append(hi)
    return np.concatenate(index), np.concatenate(lows), np.concatenate(highs)


def churn_stream(seed: int, columns: List[Column], n_batches: int, batch_rows: int):
    """Insert/delete batches of codes for the churn workload.

    Each batch targets one column (cycling) and is either an insert of
    rows skewed onto a few hot codes or a delete of rows drawn from the
    same hot codes.  Deletes only take rows the generator has inserted
    before, so no delete ever underflows the column.  Yields
    ``(column index, op, codes)``.
    """
    rng = np.random.default_rng([seed, 11])
    # Hot codes sit in fixed eighths of each column; the seed picks the
    # code inside each eighth.
    hot = [((np.arange(8) + rng.uniform(size=8)) * c.n_distinct / 8).astype(np.int64) for c in columns]
    weights = 1.0 / np.arange(1, 9) ** 1.2
    weights /= weights.sum()
    pending = [np.zeros(c.n_distinct, dtype=np.int64) for c in columns]
    for batch in range(n_batches):
        position = batch % len(columns)
        inserted = pending[position]
        if batch // len(columns) % 3 == 2 and inserted.sum() >= batch_rows:
            pool = np.repeat(np.arange(inserted.size), inserted)
            codes = rng.choice(pool, size=batch_rows, replace=False)
            np.subtract.at(inserted, codes, 1)
            yield position, "delete", codes
        else:
            codes = rng.choice(hot[position], size=batch_rows, p=weights)
            np.add.at(inserted, codes, 1)
            yield position, "insert", codes
