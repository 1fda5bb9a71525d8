"""The compiled estimation fast path: parity with the interpreted
bucket walk, the decode-once guarantee, and the exclusive-upper bucket
index that replaced the ``hi - 1e-12`` epsilon hack."""

import pickle

import numpy as np
import pytest

from repro.compression.layouts import SIMPLE_LAYOUTS
from repro.core.buckets import (
    EquiWidthBucket,
    RawDenseBucket,
    RawNonDenseBucket,
    ValueAtomicBucket,
)
from repro.core.builder import HISTOGRAM_KINDS, build_histogram
from repro.core.compiled import COMPILE_COUNTERS, CompiledHistogram, CompileError
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.flexalpha import build_flexible_alpha
from repro.core.histogram import Histogram
from repro.core.mixed import build_mixed
from repro.core.valuebased import build_value_mixed
from repro.dictionary.column import DictionaryEncodedColumn

CONFIG = HistogramConfig(q=2.0, theta=16)


def _columns(rng):
    return {
        "zipf": DictionaryEncodedColumn.from_values(
            np.minimum(rng.zipf(1.5, size=5000), 2000), name="zipf"
        ),
        "uniform": DictionaryEncodedColumn.from_values(
            rng.integers(0, 400, size=5000), name="uniform"
        ),
    }


def _queries(histogram, rng, n=200):
    """Random queries plus every adversarial shape the plan special-cases."""
    lo, hi = histogram.lo, histogram.hi
    span = hi - lo
    qs = rng.uniform(lo - 0.05 * span, hi + 0.05 * span, size=(n, 2))
    pairs = list(zip(np.minimum(qs[:, 0], qs[:, 1]), np.maximum(qs[:, 0], qs[:, 1])))
    edges = [b.lo for b in histogram.buckets] + [hi]
    first = histogram.buckets[0]
    pairs += [
        (lo, hi),  # whole domain
        (lo - span, hi + span),  # superset of the domain
        (edges[0], edges[1]),  # exactly one bucket
        (edges[0], edges[min(3, len(edges) - 1)]),  # aligned run
        # Fringe-only: strictly inside the first bucket.
        (first.lo + (first.hi - first.lo) * 0.25, first.lo + (first.hi - first.lo) * 0.75),
        (hi - 0.5 * (hi - edges[-2]), hi),  # ends exactly at the domain top
        (hi, hi + 1.0),  # empty, at and past the top
        (lo - 2.0, lo),  # empty, below the bottom
        (lo + 0.3, lo + 0.3),  # zero-width
    ]
    if len(edges) > 2:
        pairs.append((edges[1], edges[2]))  # interior bucket, both edges aligned
    return pairs


def _assert_parity(histogram, rng, distinct=False):
    plan = histogram.plan()
    assert plan is not None, "every supported bucket type must compile"
    pairs = _queries(histogram, rng)
    lows = np.asarray([a for a, _ in pairs], dtype=np.float64)
    highs = np.asarray([b for _, b in pairs], dtype=np.float64)

    interpreted = np.asarray([histogram.estimate_interpreted(a, b) for a, b in pairs])
    scalar = np.asarray([plan.estimate(a, b) for a, b in pairs])
    batch = plan.estimate_batch(lows, highs)
    np.testing.assert_allclose(scalar, interpreted, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(batch, scalar)
    # And the histogram facade serves the same numbers.
    np.testing.assert_array_equal(histogram.estimate_batch(lows, highs), batch)

    if distinct:
        interpreted_d = np.asarray(
            [histogram.estimate_distinct_interpreted(a, b) for a, b in pairs]
        )
        scalar_d = np.asarray([histogram.estimate_distinct(a, b) for a, b in pairs])
        batch_d = histogram.estimate_distinct_batch(lows, highs)
        np.testing.assert_allclose(scalar_d, interpreted_d, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(batch_d, interpreted_d, rtol=1e-9, atol=1e-9)


class TestParityAllKinds:
    """Compiled == interpreted (rel tol 1e-9) for every registered kind
    and both a heavy-tailed and a uniform column."""

    @pytest.mark.parametrize("column_name", ["zipf", "uniform"])
    @pytest.mark.parametrize("kind", HISTOGRAM_KINDS)
    def test_registry_kind(self, kind, column_name, rng):
        column = _columns(rng)[column_name]
        histogram = build_histogram(column, kind=kind, config=CONFIG)
        _assert_parity(histogram, rng, distinct=True)

    def test_mixed(self, rng):
        # Smooth flanks around a chaotic core: forces both variable-width
        # and raw dense buckets into one histogram.
        left = np.full(1500, 20, dtype=np.int64)
        core = rng.integers(1, 10**6, size=120).astype(np.int64)
        right = np.full(1500, 30, dtype=np.int64)
        density = AttributeDensity(np.concatenate([left, core, right]))
        histogram = build_mixed(density, HistogramConfig(q=2.0, theta=8))
        assert any(isinstance(b, RawDenseBucket) for b in histogram.buckets)
        _assert_parity(histogram, rng, distinct=True)

    def test_value_mixed(self, rng):
        values = np.unique(rng.integers(0, 10**6, size=300)).astype(float)
        freqs = np.clip(np.maximum(rng.zipf(1.3, size=values.size), 1), 1, 10**6)
        density = AttributeDensity(freqs, values=values)
        histogram = build_value_mixed(density, HistogramConfig(q=2.0, theta=8))
        assert any(isinstance(b, RawNonDenseBucket) for b in histogram.buckets)
        _assert_parity(histogram, rng, distinct=True)

    def test_flexible_alpha(self, rng):
        freqs = np.minimum(rng.zipf(1.4, size=800), 500)
        histogram = build_flexible_alpha(AttributeDensity(freqs), CONFIG)
        _assert_parity(histogram, rng, distinct=True)

    @pytest.mark.parametrize("layout", SIMPLE_LAYOUTS, ids=lambda l: l.name)
    def test_every_packed_layout(self, layout, rng):
        buckets = []
        lo = 0
        for _ in range(6):
            freqs = rng.integers(1, 1500, size=layout.n_bucklets)
            buckets.append(EquiWidthBucket.build(lo, 3, freqs, layout=layout))
            lo = buckets[-1].hi
        histogram = Histogram(buckets, kind="F8Dgt", theta=64.0, q=2.0)
        _assert_parity(histogram, rng)

    def test_raw_non_dense_internal_gaps(self, rng):
        # Sparse raw values: the plan must emit zero-mass filler
        # segments between steps, and a query inside a gap reads zero.
        raw = RawNonDenseBucket.build([40, 47, 61, 90], [3, 5, 2, 8])
        buckets = [
            ValueAtomicBucket.build(0.0, raw.lo, 50, 10),
            raw,
            ValueAtomicBucket.build(raw.hi, 200.0, 80, 12),
        ]
        histogram = Histogram(buckets, kind="1VincB2", theta=64.0, q=2.0, domain="value")
        _assert_parity(histogram, rng, distinct=True)
        # A query inside a gap has zero fine mass; both paths clamp the
        # non-empty in-domain intersection to the 1.0 floor identically.
        assert raw.estimate_range(48.0, 61.0) == 0.0
        assert histogram.plan().estimate(48.0, 61.0) == histogram.estimate_interpreted(
            48.0, 61.0
        )


class TestCompiledSurface:
    def test_batch_matches_scalar_exactly(self, rng):
        column = _columns(rng)["zipf"]
        histogram = build_histogram(column, kind="V8DincB", config=CONFIG)
        plan = histogram.plan()
        pairs = _queries(histogram, rng, n=500)
        lows = np.asarray([a for a, _ in pairs])
        highs = np.asarray([b for _, b in pairs])
        scalar = np.asarray([plan.estimate(a, b) for a, b in pairs])
        np.testing.assert_array_equal(plan.estimate_batch(lows, highs), scalar)

    def test_plan_is_cached_and_stats_describe_it(self, rng):
        column = _columns(rng)["uniform"]
        histogram = build_histogram(column, kind="F8Dgt", config=CONFIG)
        plan = histogram.plan()
        assert histogram.plan() is plan
        stats = plan.stats()
        assert stats["buckets"] == len(histogram)
        assert stats["cells"] >= stats["buckets"]
        assert stats["compile_seconds"] >= 0.0
        assert stats["domain"] == "code"

    def test_unsupported_bucket_type_degrades_gracefully(self):
        class Oddball:
            lo, hi = 0, 4

            def total_estimate(self):
                return 4.0

            def estimate_range(self, c1, c2):
                return max(0.0, min(c2, 4.0) - max(c1, 0.0))

            size_bits = 64

        histogram = Histogram([Oddball()], kind="F8Dgt", theta=64.0, q=2.0)
        with pytest.raises(CompileError):
            CompiledHistogram.compile(histogram)
        assert histogram.plan() is None
        # The facade still answers via the interpreted walk.
        assert histogram.estimate(0.5, 3.5) == histogram.estimate_interpreted(0.5, 3.5)
        batch = histogram.estimate_batch(np.array([0.5]), np.array([3.5]))
        assert batch[0] == histogram.estimate_interpreted(0.5, 3.5)

    def test_pickle_drops_the_plan(self, rng):
        column = _columns(rng)["zipf"]
        histogram = build_histogram(column, kind="1DincB", config=CONFIG)
        histogram.plan()
        clone = pickle.loads(pickle.dumps(histogram))
        assert clone._plan is None and clone._plan_failed is False
        assert clone.estimate(10.0, 50.0) == histogram.estimate(10.0, 50.0)

    def test_code_domain_distinct_batch_is_range_width(self, rng):
        column = _columns(rng)["uniform"]
        histogram = build_histogram(column, kind="V8Dinc", config=CONFIG)
        lows = np.array([0.0, 10.0, histogram.hi - 1.0])
        highs = np.array([5.0, 10.0, histogram.hi + 20.0])
        expected = [histogram.estimate_distinct_interpreted(a, b) for a, b in zip(lows, highs)]
        np.testing.assert_allclose(
            histogram.estimate_distinct_batch(lows, highs), expected, rtol=1e-9
        )


class TestDecodeOnce:
    """Compilation reads payloads through the caching accessors, so each
    packed layout is decoded at most once per histogram lifetime."""

    def _fresh(self, rng):
        column = _columns(rng)["zipf"]
        return build_histogram(column, kind="F8Dgt", config=CONFIG)

    def test_compile_decodes_each_payload_exactly_once(self, rng):
        histogram = self._fresh(rng)
        before = COMPILE_COUNTERS.get("layout_decodes")
        plan = histogram.plan()
        decoded = COMPILE_COUNTERS.get("layout_decodes") - before
        assert decoded == len(histogram)
        # Nothing afterwards decodes again: not estimates, not a second
        # plan() call.
        histogram.estimate(histogram.lo + 0.5, histogram.hi - 0.5)
        histogram.estimate_batch(
            np.array([histogram.lo]), np.array([histogram.hi])
        )
        assert histogram.plan() is plan
        assert COMPILE_COUNTERS.get("layout_decodes") - before == decoded
        for bucket in histogram.buckets:
            assert bucket._bucklets is not None

    def test_predecoded_buckets_are_not_counted(self, rng):
        histogram = self._fresh(rng)
        # An interpreted fringe walk decodes every payload first ...
        for bucket in histogram.buckets:
            bucket.estimate_range(bucket.lo + 0.25, bucket.lo + 0.5)
        before = COMPILE_COUNTERS.get("layout_decodes")
        histogram.plan()
        # ... so compilation triggers zero additional decodes.
        assert COMPILE_COUNTERS.get("layout_decodes") == before

    def test_plans_compiled_counter_increments_once(self, rng):
        histogram = self._fresh(rng)
        before = COMPILE_COUNTERS.get("plans_compiled")
        histogram.plan()
        histogram.plan()
        histogram.estimate_batch(np.array([0.0]), np.array([1.0]))
        assert COMPILE_COUNTERS.get("plans_compiled") == before + 1


class TestExclusiveUpperIndex:
    """Regression for the ``bucket_index(hi - 1e-12)`` hack: at domains
    past ~2**40, ``hi - 1e-12 == hi`` and the old lookup walked one
    bucket too far."""

    def _huge(self):
        edge = float(2**41)
        buckets = [
            ValueAtomicBucket.build(0.0, edge, 1000, 500),
            ValueAtomicBucket.build(edge, float(2**42), 2000, 700),
        ]
        return Histogram(buckets, kind="1VincB2", theta=64.0, q=2.0, domain="value"), edge

    def test_epsilon_no_longer_representable(self):
        _, edge = self._huge()
        assert edge - 1e-12 == edge  # the hack's premise fails here

    def test_index_is_exclusive_at_bucket_edges(self):
        histogram, edge = self._huge()
        assert histogram.bucket_index_exclusive(edge) == 0
        assert histogram.bucket_index_exclusive(histogram.hi) == 1
        assert histogram.bucket_index_exclusive(1.0) == 0

    def test_estimate_and_explain_stop_at_the_right_bucket(self):
        histogram, edge = self._huge()
        # Totals round-trip through binary-q compression; the point is
        # that only the FIRST bucket contributes below the shared edge.
        first_total = histogram.buckets[0].total_estimate()
        assert histogram.estimate_interpreted(0.0, edge) == first_total
        assert histogram.estimate(0.0, edge) == first_total
        records = histogram.explain(0.0, edge)
        assert len(records) == 1  # the old hack walked into bucket 2
        assert records[0]["contribution"] == first_total
        assert records[0]["path"] == "total"
        whole = histogram.explain(0.0, histogram.hi)
        assert len(whole) == 2

    def test_compiled_parity_at_huge_domain(self):
        histogram, edge = self._huge()
        queries = [
            (0.0, edge),
            (edge, histogram.hi),
            (edge / 2, edge + (histogram.hi - edge) / 2),
            (0.0, histogram.hi),
        ]
        for a, b in queries:
            np.testing.assert_allclose(
                histogram.estimate(a, b),
                histogram.estimate_interpreted(a, b),
                rtol=1e-9,
            )


class TestPropertyParity:
    """Randomized CI property: compiled == interpreted over random
    densities and random queries, for every registered kind."""

    @pytest.mark.parametrize("kind", HISTOGRAM_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_density_random_queries(self, kind, seed):
        rng = np.random.default_rng(1000 * seed + hash(kind) % 1000)
        n = int(rng.integers(3, 400))
        freqs = rng.integers(1, 10_000, size=n)
        column = DictionaryEncodedColumn.from_values(
            np.repeat(np.arange(n), 1), name="prop"
        )
        density_column = DictionaryEncodedColumn.from_values(
            rng.choice(np.arange(n), size=4 * n, p=freqs / freqs.sum()), name="prop"
        )
        histogram = build_histogram(density_column, kind=kind, config=CONFIG)
        _assert_parity(histogram, rng, distinct=True)


class TestPlanPatch:
    """Splicing repaired bucket runs into an existing plan's tables."""

    def _repaired(self, rng, k=1):
        from repro.core.repair import repair_histogram

        base = rng.integers(1, 200, size=4000).astype(np.int64)
        histogram = build_histogram(AttributeDensity(base), kind="V8DincB")
        indices = np.linspace(2, len(histogram) - 3, num=k).astype(int)
        current = base.copy()
        for index in indices:
            current[int(histogram.buckets[index].lo)] += 100_000
        result = repair_histogram(histogram, current, indices.tolist())
        return histogram, result

    def test_patched_tables_match_full_recompile(self, rng):
        histogram, result = self._repaired(rng, k=3)
        old_plan = CompiledHistogram.compile(histogram)
        patched = old_plan.patch(result.histogram, result.ranges)
        recompiled = CompiledHistogram.compile(result.histogram)
        _, patched_tables = patched.export_tables()
        _, fresh_tables = recompiled.export_tables()
        assert sorted(patched_tables) == sorted(fresh_tables)
        for key in fresh_tables:
            np.testing.assert_allclose(
                patched_tables[key], fresh_tables[key], rtol=1e-12,
                err_msg=key,
            )

    def test_patched_estimates_match_recompile_exactly(self, rng):
        histogram, result = self._repaired(rng, k=2)
        patched = CompiledHistogram.compile(histogram).patch(
            result.histogram, result.ranges
        )
        recompiled = CompiledHistogram.compile(result.histogram)
        lows = rng.integers(0, 3900, size=400).astype(np.float64)
        highs = lows + rng.integers(1, 100, size=400)
        np.testing.assert_array_equal(
            patched.estimate_batch(lows, highs),
            recompiled.estimate_batch(lows, highs),
        )

    def test_rows_outside_the_patch_are_byte_identical(self, rng):
        histogram, result = self._repaired(rng, k=1)
        old_plan = CompiledHistogram.compile(histogram)
        patched = old_plan.patch(result.histogram, result.ranges)
        _, old_tables = old_plan.export_tables()
        _, new_tables = patched.export_tables()
        [range_] = result.ranges
        # Every fine-segment row before the splice point is an untouched
        # byte-for-byte copy of the old plan's row.
        splice = int(np.searchsorted(old_tables["range.seg_x"], range_.lo))
        assert splice > 0
        assert np.array_equal(
            old_tables["range.seg_x"][:splice], new_tables["range.seg_x"][:splice]
        )
        assert np.array_equal(
            old_tables["range.seg_base"][:splice], new_tables["range.seg_base"][:splice]
        )

    def test_patch_stats_and_counters(self, rng):
        histogram, result = self._repaired(rng, k=1)
        before = COMPILE_COUNTERS.snapshot().get("plans_patched", 0)
        patched = CompiledHistogram.compile(histogram).patch(
            result.histogram, result.ranges
        )
        stats = patched.stats()
        assert stats["patched_ranges"] == 1
        assert stats["patched_buckets"] >= 1
        assert COMPILE_COUNTERS.snapshot()["plans_patched"] == before + 1

    def test_patch_refuses_value_domain(self, rng):
        values = np.cumsum(rng.integers(1, 9, size=300)).astype(float)
        density = AttributeDensity(rng.integers(1, 40, size=300), values=values)
        histogram = build_histogram(density, kind="1VincB1")
        plan = CompiledHistogram.compile(histogram)
        with pytest.raises(CompileError):
            plan.patch(histogram, [type("R", (), {
                "lo": 0, "hi": 10, "old_span": (0, 0), "new_span": (0, 0),
            })()])

    def test_patch_refuses_empty_ranges(self, rng):
        base = rng.integers(1, 200, size=1000).astype(np.int64)
        histogram = build_histogram(AttributeDensity(base), kind="V8DincB")
        plan = CompiledHistogram.compile(histogram)
        with pytest.raises(CompileError):
            plan.patch(histogram, [])


CODE_KINDS = ("F8Dgt", "V8Dinc", "V8DincB", "1Dinc", "1DincB")


def _code_endpoints(plan, rng, n=2000):
    """Integer endpoints: random, out of domain, inverted, empty,
    single-code, full-domain and every bucket edge."""
    lo, hi = int(plan.lo), int(plan.hi)
    span = hi - lo
    pairs = rng.integers(lo - span // 10, hi + span // 10, size=(2, n))
    c1s, c2s = np.minimum(pairs[0], pairs[1]), np.maximum(pairs[0], pairs[1])
    edges = plan.bucket_edges.astype(np.int64)
    codes = rng.integers(lo, hi, size=64)
    extra = [
        (lo, hi),  # full domain
        (lo - 10**12, hi + 10**12),  # superset, far out of domain
        (hi, hi + 5),  # past the top
        (lo - 5, lo),  # below the bottom
        (hi + 3, lo - 3),  # inverted, straddling the domain
        (lo - 7, lo - 9),  # inverted, out of domain
    ]
    extra += [(int(c), int(c)) for c in codes[:16]]  # empty
    extra += [(int(c), int(c) + 1) for c in codes]  # single code
    extra += [(int(c) + 3, int(c)) for c in codes[:16]]  # inverted
    extra += [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]  # one bucket
    extra += [(int(e), hi) for e in edges] + [(lo, int(e)) for e in edges]
    c1s = np.concatenate((c1s, [a for a, _ in extra])).astype(np.int64)
    c2s = np.concatenate((c2s, [b for _, b in extra])).astype(np.int64)
    return c1s, c2s


def _assert_tables_match_search(plan, rng):
    """The table kernel returns the float kernel's bits for integer ranges."""
    assert plan._codes is not None
    c1s, c2s = _code_endpoints(plan, rng)
    by_table = plan.estimate_batch(c1s, c2s)
    by_search = plan.estimate_batch(c1s.astype(np.float64), c2s.astype(np.float64))
    assert by_table.dtype == np.float64
    assert np.array_equal(by_table.view(np.int64), by_search.view(np.int64))


class TestCodeTables:
    """Integer endpoints on code-domain plans are answered from per-code
    tables, bit-identical to the ``searchsorted`` chain on floats."""

    @pytest.mark.parametrize("column_name", ["zipf", "uniform"])
    @pytest.mark.parametrize("kind", CODE_KINDS)
    def test_every_code_kind(self, kind, column_name, rng):
        column = _columns(rng)[column_name]
        plan = build_histogram(column, kind=kind, config=CONFIG).plan()
        _assert_tables_match_search(plan, rng)

    def test_patched_plan(self, rng):
        histogram, result = TestPlanPatch()._repaired(rng, k=3)
        patched = CompiledHistogram.compile(histogram).patch(
            result.histogram, result.ranges
        )
        _assert_tables_match_search(patched, rng)

    def test_reattached_plan(self, rng):
        column = _columns(rng)["zipf"]
        plan = build_histogram(column, kind="V8DincB", config=CONFIG).plan()
        meta, arrays = plan.export_tables()
        copies = {key: np.frombuffer(array.tobytes()) for key, array in arrays.items()}
        attached = CompiledHistogram.from_tables(meta, copies)
        _assert_tables_match_search(attached, rng)
        c1s, c2s = _code_endpoints(plan, rng)
        assert np.array_equal(
            attached.estimate_batch(c1s, c2s).view(np.int64),
            plan.estimate_batch(c1s, c2s).view(np.int64),
        )

    def test_tables_are_not_exported(self, rng):
        plan = build_histogram(_columns(rng)["uniform"], kind="V8DincB").plan()
        _, arrays = plan.export_tables()
        assert sorted(arrays) == sorted(
            ["bucket_edges", "fine_global_left"]
            + [f"range.{field}" for field in (
                "bucket_cdf", "bucket_fine", "seg_x", "seg_base", "seg_slope"
            )]
        )

    def test_small_integer_dtypes_take_the_table_kernel(self, rng):
        plan = build_histogram(_columns(rng)["uniform"], kind="1DincB").plan()
        c1s, c2s = _code_endpoints(plan, rng)
        for dtype in (np.int8, np.int16, np.uint16, np.int32):
            info = np.iinfo(dtype)
            keep = (
                (np.minimum(c1s, c2s) >= info.min) & (np.maximum(c1s, c2s) <= info.max)
            )
            small1, small2 = c1s[keep].astype(dtype), c2s[keep].astype(dtype)
            np.testing.assert_array_equal(
                plan.estimate_batch(small1, small2),
                plan.estimate_batch(small1.astype(np.float64), small2.astype(np.float64)),
            )

    def test_value_domain_plans_have_no_tables(self, rng):
        values = np.cumsum(rng.integers(1, 9, size=300)).astype(float)
        density = AttributeDensity(rng.integers(1, 40, size=300), values=values)
        plan = CompiledHistogram.compile(build_histogram(density, kind="1VincB1"))
        assert plan._codes is None
        c1s = rng.integers(0, int(values[-1]), size=100)
        c2s = c1s + rng.integers(0, 50, size=100)
        np.testing.assert_array_equal(
            plan.estimate_batch(c1s, c2s),
            plan.estimate_batch(c1s.astype(np.float64), c2s.astype(np.float64)),
        )

    def test_domains_past_the_cap_keep_the_search(self, rng, monkeypatch):
        from repro.core import compiled

        histogram = build_histogram(_columns(rng)["uniform"], kind="V8DincB")
        monkeypatch.setattr(compiled, "MAX_TABLE_CODES", int(histogram.hi) - 1)
        plan = CompiledHistogram.compile(histogram)
        assert plan._codes is None
        c1s, c2s = _code_endpoints(plan, rng)
        np.testing.assert_array_equal(
            plan.estimate_batch(c1s, c2s),
            CompiledHistogram.compile(histogram).estimate_batch(
                c1s.astype(np.float64), c2s.astype(np.float64)
            ),
        )
