"""Incremental maintenance: Morris-backed insert tracking."""

import numpy as np
import pytest

from repro.core.builder import build_histogram
from repro.core.density import AttributeDensity
from repro.core.maintenance import MaintainedHistogram
from repro.core.qerror import qerror


def _maintained(rng, kind="V8DincB"):
    density = AttributeDensity(rng.integers(50, 70, size=500))
    histogram = build_histogram(density, kind=kind, theta=16)
    return density, MaintainedHistogram(
        histogram, counter_base=1.05, rng=np.random.default_rng(0)
    )


class TestInsertTracking:
    def test_no_inserts_is_identity(self, rng):
        density, maintained = _maintained(rng)
        for _ in range(50):
            a, b = sorted(rng.integers(0, 501, size=2))
            assert maintained.estimate(a, b) == maintained.histogram.estimate(a, b)

    def test_inserts_raise_estimates(self, rng):
        density, maintained = _maintained(rng)
        before = maintained.estimate(0, 500)
        maintained.insert_many(rng.integers(0, 500, size=20_000))
        after = maintained.estimate(0, 500)
        assert after > before

    def test_insert_mass_roughly_tracked(self, rng):
        density, maintained = _maintained(rng)
        n_inserts = 30_000
        maintained.insert_many(rng.integers(0, 500, size=n_inserts))
        added = maintained.estimate(0, 500) - maintained.histogram.estimate(0, 500)
        assert qerror(added, n_inserts) < 1.6

    def test_localised_inserts_land_in_their_buckets(self, rng, zipf_density):
        # A skewed density so the histogram has several buckets.
        histogram = build_histogram(zipf_density, kind="1DincB", theta=8)
        assert len(histogram) > 3
        maintained = MaintainedHistogram(
            histogram, counter_base=1.05, rng=np.random.default_rng(0)
        )
        maintained.insert_many(np.full(20_000, 1))  # all into one value
        bucket = histogram.buckets[histogram.bucket_index(1)]
        grown = maintained.estimate(bucket.lo, bucket.hi)
        base = histogram.estimate(bucket.lo, bucket.hi)
        assert grown > base + 10_000
        # A disjoint far-away bucket is unaffected.
        last = histogram.buckets[-1]
        assert maintained.estimate(last.lo, last.hi) == histogram.estimate(
            last.lo, last.hi
        )

    def test_out_of_domain_insert_raises(self, rng):
        _, maintained = _maintained(rng)
        with pytest.raises(ValueError):
            maintained.insert(10**6)


class TestDeleteTracking:
    def test_deletes_lower_estimates_exactly(self, rng):
        density, maintained = _maintained(rng)
        before = maintained.estimate(0, 500)
        maintained.delete_many(np.repeat(np.arange(100), 10))
        after = maintained.estimate(0, 500)
        # Deletes are exact (no Morris register): the drop is the count.
        assert before - after == pytest.approx(1000.0)
        assert maintained.deletes_recorded == 1000

    def test_delete_counts_mirrors_insert_counts(self, rng):
        density, maintained = _maintained(rng)
        counts = np.zeros(500, dtype=np.int64)
        counts[40:60] = 7
        maintained.delete_counts(counts)
        assert maintained.deletes_recorded == 140
        # The full-domain drop is exact; a sub-bucket range sees its
        # bucket's share (deleted mass spreads uniformly, like inserts).
        assert maintained.estimate(0, 500) == pytest.approx(
            maintained.histogram.estimate(0, 500) - 140
        )
        assert maintained.estimate(40, 60) < maintained.histogram.estimate(40, 60)

    def test_estimates_never_negative(self, rng):
        density, maintained = _maintained(rng)
        mass = maintained.histogram.estimate(0, 10)
        maintained.delete_many(np.repeat(np.arange(10), int(mass) * 3 // 10 + 50))
        assert maintained.estimate(0, 10) >= 0.0

    def test_staleness_counts_both_directions(self, rng):
        _, maintained = _maintained(rng)
        maintained.insert_many(rng.integers(0, 500, size=2000))
        grew = maintained.staleness()
        maintained.delete_many(rng.integers(0, 500, size=2000))
        assert maintained.staleness() > grew

    def test_out_of_domain_delete_raises(self, rng):
        _, maintained = _maintained(rng)
        with pytest.raises(ValueError):
            maintained.delete(10**6)
        with pytest.raises(ValueError):
            maintained.delete_many([1, 10**6])


class TestChurnTracking:
    def test_churned_buckets_flags_touched_only(self, rng):
        density, maintained = _maintained(rng)
        assert maintained.churned_buckets().size == 0
        histogram = maintained.histogram
        bucket = histogram.buckets[0]
        maintained.insert(int(bucket.lo))
        churned = maintained.churned_buckets()
        assert churned.tolist() == [0]
        churn = maintained.bucket_churn()
        assert churn[0] == 1 and churn.sum() == 1

    def test_failing_buckets_empty_when_clean(self, rng):
        density, maintained = _maintained(rng)
        assert maintained.failing_buckets(density.frequencies).size == 0

    def test_rebase_carries_counters_for_shared_buckets(self, rng):
        density, maintained = _maintained(rng)
        histogram = maintained.histogram
        maintained.insert_many(np.full(500, int(histogram.buckets[0].lo)))
        fresh = maintained.rebase(histogram)  # same buckets: all carried
        assert fresh.inserts_recorded == 500
        assert fresh.churned_buckets().tolist() == [0]
        # Blended estimates survive the rebase bit-for-bit.
        assert fresh.estimate(0, 500) == maintained.estimate(0, 500)


class TestChurnBlendBatch:
    def _zipf_maintained(self, zipf_density):
        histogram = build_histogram(zipf_density, kind="V8DincB", theta=16)
        return MaintainedHistogram(histogram, rng=np.random.default_rng(0))

    def test_blend_edges_are_the_bucket_edges(self, zipf_density):
        maintained = self._zipf_maintained(zipf_density)
        histogram = maintained.histogram
        from_buckets = np.asarray(
            [b.lo for b in histogram.buckets] + [histogram.hi], dtype=np.float64
        )
        edges = maintained._bucket_edges()
        assert edges is histogram.plan().bucket_edges
        assert np.array_equal(edges, from_buckets)

    def test_batch_matches_scalar_with_churn(self, rng, zipf_density):
        maintained = self._zipf_maintained(zipf_density)
        hi = int(maintained.histogram.hi)
        maintained.insert_many(rng.integers(0, hi, size=3000))
        maintained.delete_many(rng.integers(0, hi, size=200))
        c1s = rng.integers(-5, hi + 5, size=300)
        c2s = c1s + rng.integers(0, hi // 3, size=300)
        batch = maintained.estimate_batch(c1s, c2s)
        scalar = [maintained.estimate(float(a), float(b)) for a, b in zip(c1s, c2s)]
        np.testing.assert_allclose(batch, scalar, rtol=1e-9, atol=1e-9)
        # Integer codes and their float images blend to the same bits.
        floats = maintained.estimate_batch(c1s.astype(float), c2s.astype(float))
        assert np.array_equal(batch.view(np.int64), floats.view(np.int64))


class TestRebuildSignal:
    def test_staleness_grows(self, rng):
        _, maintained = _maintained(rng)
        assert maintained.staleness() == 0.0
        maintained.insert_many(rng.integers(0, 500, size=5000))
        assert 0 < maintained.staleness() < 1

    def test_needs_rebuild_threshold(self, rng):
        _, maintained = _maintained(rng)
        assert not maintained.needs_rebuild()
        maintained.insert_many(rng.integers(0, 500, size=60_000))
        assert maintained.needs_rebuild(threshold=0.2)

    def test_bad_threshold(self, rng):
        _, maintained = _maintained(rng)
        with pytest.raises(ValueError):
            maintained.needs_rebuild(threshold=0)

    def test_error_profile_fields(self, rng):
        _, maintained = _maintained(rng)
        profile = maintained.error_profile()
        assert profile["base_q"] == maintained.histogram.q
        assert profile["insert_relative_std"] == pytest.approx(
            np.sqrt(0.05 / 2), rel=1e-6
        )

    def test_value_domain_rejected(self, rng):
        values = np.cumsum(rng.integers(1, 9, size=300)).astype(float)
        density = AttributeDensity(rng.integers(1, 40, size=300), values=values)
        histogram = build_histogram(density, kind="1VincB1", theta=8)
        with pytest.raises(ValueError):
            MaintainedHistogram(histogram)
