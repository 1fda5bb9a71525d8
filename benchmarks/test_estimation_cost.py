"""Sec. 6.2's estimation-cost model, in miniature -- and the compiled
fast path that replaces it on the serving side.

The paper bounds the estimation time of a query spanning n whole
QC16T8x6 buckets plus two partial buckets at ``5.0 n + 16 * 168 ns``:
whole buckets cost one cheap binary-q total decompression each, the two
fringes up to 16 expensive general-base decompressions.  The Python
reproduction checks the *linearity in spanned buckets* on the
interpreted bucket walk (the paper's model describes exactly that walk;
the compiled plan is O(log n) in spanned buckets and would trivialize
the check) and that the compiled batch path beats the interpreted loop
by a wide margin -- the ``BENCH_estimation.json`` sidecar records the
trajectory, and ``REPRO_BENCH_ASSERT_SPEEDUP=1`` (set by ``make
bench-estimation``) turns the 10x floor into a hard assertion.  The
same switch arms a 2x floor for integer code endpoints (the per-code
table gathers) over float endpoints (the ``searchsorted`` chain) on one
code-domain plan.
"""

import os
import platform
import time

import numpy as np

from repro.core.buckets import EquiWidthBucket
from repro.core.builder import build_histogram
from repro.core.compiled import CompiledHistogram
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.experiments.report import format_table

ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP", "") == "1"


def _mean_time(histogram, queries, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for c1, c2 in queries:
            histogram.estimate_interpreted(c1, c2)
        best = min(best, time.perf_counter() - start)
    return best / len(queries)


def test_estimation_cost(emit, emit_json, benchmark):
    rng = np.random.default_rng(4)
    # A hostile density -> many buckets, so spans can be long.  Clipped
    # to the QC16T8x6 base range (largest base 1.4 reaches ~1.1e9 per
    # bucklet), as any realistic column is.
    freqs = np.clip(rng.zipf(1.3, size=20_000), 1, 10**7)
    density = AttributeDensity(freqs)
    histogram = build_histogram(
        density, kind="F8Dgt", config=HistogramConfig(q=2.0, theta=32)
    )
    n_buckets = len(histogram)
    edges = [bucket.lo for bucket in histogram.buckets] + [histogram.buckets[-1].hi]

    rows = []
    times = {}
    for span in (1, 4, 16, 64):
        if span + 2 >= n_buckets:
            break
        queries = []
        for _ in range(300):
            first = int(rng.integers(0, n_buckets - span - 1))
            # Aligned on bucket boundaries: pure total-decompression path.
            queries.append((float(edges[first]), float(edges[first + span])))
        times[span] = _mean_time(histogram, queries) * 1e6
        rows.append([span, f"{times[span]:.2f}"])
    text = format_table(["buckets spanned", "us/query"], rows)

    spans = sorted(times)
    widest, narrowest = spans[-1], spans[0]
    growth = times[widest] / times[narrowest]
    text += (
        f"\ncost growth {narrowest}->{widest} buckets: {growth:.1f}x "
        f"(linear model predicts <= {widest / narrowest}x)"
    )
    emit("estimation_cost", text)
    emit_json(
        "estimation",
        {
            "interpreted_cost": {
                "us_per_query_by_span": {str(s): times[s] for s in spans},
                "growth": growth,
                "n_buckets": n_buckets,
            }
        },
    )

    # Shape: cost grows with span but stays at-most-linear in it.
    assert times[widest] > times[narrowest]
    assert growth <= widest / narrowest * 1.5

    queries = [(float(edges[1]), float(edges[5]))] * 100
    benchmark(lambda: [histogram.estimate_interpreted(a, b) for a, b in queries])


def _best_of(callable_, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_compiled_batch_speedup(emit, emit_json):
    """The acceptance bar: compiled batch >= 10x the interpreted loop on
    a 10k-query batch over a 64-bucket histogram."""
    rng = np.random.default_rng(11)
    # Exactly 64 buckets, built directly so the count is not at the
    # mercy of a construction heuristic.
    n_buckets, bucklets, width = 64, 8, 4
    buckets = []
    for index in range(n_buckets):
        freqs = rng.integers(1, 2_000, size=bucklets)
        buckets.append(
            EquiWidthBucket.build(index * bucklets * width, width, freqs)
        )
    histogram = Histogram(buckets, kind="F8Dgt", theta=64.0, q=2.0)
    assert len(histogram) == 64

    n_queries = 10_000
    qs = rng.uniform(histogram.lo, histogram.hi, size=(n_queries, 2))
    lows, highs = np.minimum(qs[:, 0], qs[:, 1]), np.maximum(qs[:, 0], qs[:, 1])
    pairs = list(zip(lows.tolist(), highs.tolist()))

    plan = histogram.plan()
    interpreted_s = _best_of(
        lambda: [histogram.estimate_interpreted(a, b) for a, b in pairs],
        repeats=3,
    )
    scalar_plan_s = _best_of(
        lambda: [plan.estimate(a, b) for a, b in pairs], repeats=3
    )
    batch_s = _best_of(lambda: histogram.estimate_batch(lows, highs), repeats=5)

    # The speedup must not come from answering a different question.
    reference = np.asarray(
        [histogram.estimate_interpreted(a, b) for a, b in pairs]
    )
    np.testing.assert_allclose(
        histogram.estimate_batch(lows, highs), reference, rtol=1e-9
    )

    speedup_batch = interpreted_s / batch_s
    speedup_scalar = interpreted_s / scalar_plan_s
    stats = plan.stats()
    emit(
        "estimation_speedup",
        format_table(
            ["path", "s / 10k queries", "speedup"],
            [
                ["interpreted loop", f"{interpreted_s:.4f}", "1.0x"],
                ["compiled scalar loop", f"{scalar_plan_s:.4f}", f"{speedup_scalar:.1f}x"],
                ["compiled batch", f"{batch_s:.4f}", f"{speedup_batch:.1f}x"],
            ],
        ),
    )
    emit_json(
        "estimation",
        {
            "compiled_batch_speedup": {
                "n_queries": n_queries,
                "n_buckets": n_buckets,
                "interpreted_seconds": interpreted_s,
                "scalar_plan_seconds": scalar_plan_s,
                "batch_seconds": batch_s,
                "speedup_batch_vs_interpreted": speedup_batch,
                "speedup_scalar_vs_interpreted": speedup_scalar,
                "floor": 10.0,
                "plan_cells": stats["cells"],
                "plan_compile_seconds": stats["compile_seconds"],
            }
        },
    )

    assert speedup_batch > 1.0
    if ASSERT_SPEEDUP:
        assert speedup_batch >= 10.0, (
            f"compiled batch regressed: {speedup_batch:.1f}x < 10x floor"
        )


def test_code_table_kernel_speedup(emit, emit_json):
    """Integer code endpoints (per-code table gathers) against float
    endpoints (the ``searchsorted`` chain) on the same plan, same run,
    4096-range batches -- the serving path's frame size."""
    rng = np.random.default_rng(12)
    d = 2500
    freqs = np.minimum(rng.zipf(1.4, size=d), 10**6) * rng.integers(1, 50, size=d)
    histogram = build_histogram(AttributeDensity(freqs), kind="V8DincB")
    start = time.perf_counter()
    plan = CompiledHistogram.compile(histogram)
    compile_s = time.perf_counter() - start
    tables = plan._codes
    assert tables is not None

    n_ranges = 4096
    ends = rng.integers(-50, d + 50, size=(2, n_ranges))
    c1s, c2s = ends.min(axis=0), ends.max(axis=0)
    f1s, f2s = c1s.astype(np.float64), c2s.astype(np.float64)
    by_table = plan.estimate_batch(c1s, c2s)
    by_search = plan.estimate_batch(f1s, f2s)
    # The speedup must not come from answering a different question.
    assert np.array_equal(by_table.view(np.int64), by_search.view(np.int64))

    # Interleave the two kernels so host drift lands on both.
    table_s = search_s = float("inf")
    for _ in range(7):
        table_s = min(table_s, _best_of(lambda: plan.estimate_batch(c1s, c2s)))
        search_s = min(search_s, _best_of(lambda: plan.estimate_batch(f1s, f2s)))
    speedup = search_s / table_s
    n_codes = tables.fu.size
    table_bytes = sum(
        getattr(tables, field).nbytes
        for field in ("first", "last", "first_partial", "last_partial", "fu")
    )
    emit(
        "estimation_code_tables",
        format_table(
            ["endpoints", "us / 4096 ranges", "speedup"],
            [
                ["float (searchsorted)", f"{search_s * 1e6:.0f}", "1.0x"],
                ["int64 codes (tables)", f"{table_s * 1e6:.0f}", f"{speedup:.1f}x"],
            ],
        )
        + f"\n{n_codes} codes, {len(histogram)} buckets, "
        f"{table_bytes / n_codes:.0f} B per code, compile {compile_s * 1e3:.2f} ms",
    )
    emit_json(
        "estimation",
        {
            "code_table_kernel": {
                "n_ranges": n_ranges,
                "n_codes": int(n_codes),
                "n_buckets": len(histogram),
                "float_endpoint_seconds": search_s,
                "int_code_seconds": table_s,
                "speedup_int_vs_float": speedup,
                "floor": 2.0,
                "table_bytes_per_code": table_bytes / n_codes,
                "plan_compile_seconds": compile_s,
                "machine": {
                    "cores": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                },
            }
        },
    )
    if ASSERT_SPEEDUP:
        assert speedup >= 2.0, (
            f"code-table kernel regressed: {speedup:.1f}x < 2x floor"
        )
