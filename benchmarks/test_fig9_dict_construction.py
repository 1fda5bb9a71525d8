"""Fig. 9: construction time on dictionary-encoded values, 5 bucket types.

Builds 1Dinc, 1DincB, F8Dgt, V8Dinc and V8DincB over every ERP and BW
column with the system θ and q = 2, and reports the construction-time
rank series.

Expected shapes (paper Sec. 8.4):
* bounded-search variants (B) at least as fast as their naive twins on
  the expensive columns, typically 1.1-2x;
* for cheap columns the fixed-width generate-and-test build is faster
  than the variable-width incremental build;
* for long-running columns the incremental V8D catches up / wins.

``test_construction_oracle_speedup`` adds the production-search floor:
on a heavy-tailed zipf column every dictionary variant's production
build must be bit-identical to its classic reference build (the paper's
searches substituted in, :mod:`tests.reference`) and -- armed via
``REPRO_BENCH_ASSERT_CONSTRUCTION=1``, the ``make smoke`` setting -- at
least 3x faster end to end (index build included).  ``test_table_build_pool`` reports (no floor) a whole ERP
table built serially and on the persistent process build pool, with
bit-identical output asserted.  ``BENCH_construction.json`` records the
timings and the machine (cores, python, numpy) so the perf trajectory
stays diffable across PRs.
"""

import os
import platform
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.builder import build_histogram
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.parallel import build_column_histograms, default_workers
from repro.core.serialize import serialize_histogram
from repro.experiments.harness import build_record, rank_series
from repro.experiments.report import format_table, summarize_series
from repro.workloads.erp import make_erp_dataset
from tests.reference import build_reference

KINDS = ("1Dinc", "1DincB", "F8Dgt", "V8Dinc", "V8DincB")

ASSERT_CONSTRUCTION = os.environ.get("REPRO_BENCH_ASSERT_CONSTRUCTION", "") == "1"

#: Conservative end-to-end floor for the armed assertion; the recorded
#: speedups run well above it (5x+ on warm caches), the floor just has
#: to hold on noisy CI boxes.
ORACLE_SPEEDUP_FLOOR = 3.0

ZIPF_CODES = 50_000
ZIPF_MOD = 10_000

TABLE_COLUMNS = 48
TABLE_MAX_DISTINCT = 15_000


def _machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@pytest.mark.parametrize("dataset", ["ERP", "BW"])
def test_fig9(dataset, erp_columns, bw_columns, paper_config, emit, benchmark):
    columns = erp_columns if dataset == "ERP" else bw_columns
    times = {kind: [] for kind in KINDS}
    for column in columns:
        for kind in KINDS:
            record = build_record(column, kind, paper_config)
            times[kind].append(record.microseconds)

    rows = []
    for kind in KINDS:
        series = rank_series(times[kind])
        quantiles = summarize_series(series)
        rows.append(
            [kind, len(series)]
            + [f"{value:.0f}" for value in quantiles]
            + [f"{sum(series):.0f}"]
        )
    text = format_table(
        ["kind", "#cols", "p50 us", "p90 us", "p99 us", "max us", "total us"], rows
    )
    # The paper's headline comparisons, measured over the slowest decile
    # (bounding only matters where search lengths get long).
    slow_n = max(len(columns) // 10, 1)
    naive_slow = sum(sorted(times["V8Dinc"])[-slow_n:])
    bounded_slow = sum(sorted(times["V8DincB"])[-slow_n:])
    text += (
        f"\nslowest-decile V8Dinc / V8DincB time ratio = "
        f"{naive_slow / bounded_slow:.2f} (paper: 1.1-2.0)"
    )
    emit(f"fig9_dict_construction_{dataset.lower()}", text)

    # Shape assertions.
    assert bounded_slow <= naive_slow * 1.05
    slow_1d = sum(sorted(times["1Dinc"])[-slow_n:])
    slow_1db = sum(sorted(times["1DincB"])[-slow_n:])
    assert slow_1db <= slow_1d * 1.05

    column = columns[len(columns) // 2]
    benchmark(lambda: build_record(column, "V8DincB", paper_config))


def _normalized_buckets(histogram):
    out = []
    for bucket in histogram.buckets:
        state = {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in vars(bucket).items()
        }
        out.append((type(bucket).__name__, state))
    return out


def test_construction_oracle_speedup(emit, emit_json):
    """Production search vs classic reference search: bit-identical,
    >= 3x end to end."""
    rng = np.random.default_rng(7)
    freqs = np.maximum(rng.zipf(1.3, size=ZIPF_CODES) % ZIPF_MOD, 1)
    config = HistogramConfig(theta=64.0, q=2.0)

    rows = []
    payload = {}
    speedups = {}
    for kind in KINDS:
        t0 = time.perf_counter()
        classic = build_reference(
            AttributeDensity(freqs.copy()), kind=kind, config=config
        )
        t1 = time.perf_counter()
        # Fresh density per attempt: the oracle side always pays its
        # one-time index build.  Best-of-2 shields the armed floor from
        # scheduler noise without re-running the (dominant) classic side.
        oracle_ms = float("inf")
        for _ in range(2):
            t2 = time.perf_counter()
            oracle = build_histogram(
                AttributeDensity(freqs.copy()), kind=kind, config=config
            )
            oracle_ms = min(oracle_ms, (time.perf_counter() - t2) * 1e3)
        assert _normalized_buckets(oracle) == _normalized_buckets(classic), (
            f"{kind}: oracle search changed the histogram"
        )
        classic_ms = (t1 - t0) * 1e3
        speedups[kind] = classic_ms / oracle_ms
        payload[kind] = {
            "classic_ms": round(classic_ms, 3),
            "oracle_ms": round(oracle_ms, 3),
            "speedup": round(speedups[kind], 2),
            "buckets": len(oracle.buckets),
        }
        rows.append(
            [kind, f"{classic_ms:.1f}", f"{oracle_ms:.1f}",
             f"{speedups[kind]:.2f}x", len(oracle.buckets)]
        )

    text = format_table(
        ["kind", "classic ms", "oracle ms", "speedup", "buckets"], rows
    )
    text += (
        f"\nzipf({ZIPF_CODES} codes, mod {ZIPF_MOD}), theta=64, q=2; "
        f"floor {ORACLE_SPEEDUP_FLOOR:.0f}x "
        f"({'armed' if ASSERT_CONSTRUCTION else 'observed only'})"
    )
    emit("construction_oracle_speedup", text)
    payload["floor"] = ORACLE_SPEEDUP_FLOOR
    payload["armed"] = ASSERT_CONSTRUCTION
    payload["machine"] = _machine()
    emit_json("construction", payload)

    if ASSERT_CONSTRUCTION:
        for kind in KINDS:
            assert speedups[kind] >= ORACLE_SPEEDUP_FLOOR, (
                f"{kind}: oracle speedup {speedups[kind]:.2f}x fell below "
                f"the {ORACLE_SPEEDUP_FLOOR:.0f}x construction floor"
            )


def test_table_build_pool(emit, emit_json):
    """A whole ERP table, serial vs the process build pool (reported only).

    The pool's first build pays worker start-up (``pool_cold_s``); the
    compared times are best-of-2 on a warm pool, as a serving process
    sees every build after its first.
    """
    columns = [
        SimpleNamespace(name=c.name, frequencies=c.dense.frequencies)
        for c in make_erp_dataset(
            n_columns=TABLE_COLUMNS, max_distinct=TABLE_MAX_DISTINCT
        )
    ]
    workers = default_workers()

    def timed(executor):
        start = time.perf_counter()
        built = build_column_histograms(
            columns, kind="V8DincB", max_workers=workers, executor=executor
        )
        return time.perf_counter() - start, built

    cold_s, pooled = timed("process")
    serial_s, serial = min((timed("serial") for _ in range(2)), key=lambda r: r[0])
    pool_s, pooled = min((timed("process") for _ in range(2)), key=lambda r: r[0])
    assert {n: serialize_histogram(h) for n, h in pooled.items()} == {
        n: serialize_histogram(h) for n, h in serial.items()
    }, "the build pool changed a histogram"

    distinct = sum(int(c.frequencies.size) for c in columns)
    text = format_table(
        ["columns", "distinct", "workers", "serial s", "pool s", "speedup", "cold s"],
        [[len(columns), distinct, workers, f"{serial_s:.3f}", f"{pool_s:.3f}",
          f"{serial_s / pool_s:.2f}x", f"{cold_s:.3f}"]],
    )
    text += "\nV8DincB, make_erp_dataset; reported only (no floor)"
    emit("construction_table_build", text)
    emit_json(
        "construction",
        {
            "table_build": {
                "columns": len(columns),
                "distinct": distinct,
                "kind": "V8DincB",
                "workers": workers,
                "serial_s": round(serial_s, 4),
                "pool_s": round(pool_s, 4),
                "pool_cold_s": round(cold_s, 4),
                "speedup": round(serial_s / pool_s, 2),
                "machine": _machine(),
            }
        },
    )
