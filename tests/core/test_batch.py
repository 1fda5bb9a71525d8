"""Batch estimation through compiled plans: equivalence and speed semantics.

``histogram.plan()`` (:class:`repro.core.compiled.CompiledHistogram`)
answers whole query arrays; its fine cumulative-mass segments
(``fine_segments()``) are what the join estimator integrates.
"""

import numpy as np
import pytest

from repro.core.builder import build_histogram
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.mixed import build_mixed
from repro.optimizer.join import estimate_equijoin
from repro.workloads.distributions import make_density

DENSE_KINDS = ["F8Dgt", "V8Dinc", "V8DincB", "1Dinc", "1DincB"]


@pytest.fixture
def hard_density():
    return make_density(np.random.default_rng(5), 2000, smooth_fraction=0.0)


class TestEquivalence:
    @pytest.mark.parametrize("kind", DENSE_KINDS)
    def test_partial_queries_match_object_path(self, kind, hard_density, rng):
        histogram = build_histogram(
            hard_density, kind=kind, config=HistogramConfig(q=2.0, theta=16)
        )
        compiled = histogram.plan()
        d = hard_density.n_distinct
        # Non-aligned queries take the bucklet path in both forms.
        for _ in range(300):
            a, b = sorted(rng.uniform(0, d, size=2))
            if b - a < 1e-9:
                continue
            object_path = histogram.estimate(a, b)
            batch_path = compiled.estimate(a, b)
            # Identical except where the object path uses compressed
            # whole-bucket totals; allow that payload slack.
            assert batch_path == pytest.approx(object_path, rel=0.2, abs=1.5)

    @pytest.mark.parametrize("kind", DENSE_KINDS)
    def test_batch_equals_scalar_loop(self, kind, hard_density, rng):
        histogram = build_histogram(
            hard_density, kind=kind, config=HistogramConfig(q=2.0, theta=16)
        )
        compiled = histogram.plan()
        d = hard_density.n_distinct
        c1s = rng.uniform(0, d, size=500)
        c2s = np.minimum(c1s + rng.uniform(0, d / 2, size=500), d)
        batch = compiled.estimate_batch(c1s, c2s)
        scalar = np.array([compiled.estimate(a, b) for a, b in zip(c1s, c2s)])
        assert np.allclose(batch, scalar)

    def test_mixed_histogram_compiles(self, rng):
        freqs = np.concatenate(
            [np.full(500, 10), rng.integers(1, 10**5, size=60), np.full(500, 10)]
        )
        histogram = build_mixed(
            AttributeDensity(freqs), HistogramConfig(q=2.0, theta=8)
        )
        compiled = histogram.plan()
        assert compiled.estimate(0, len(freqs)) > 0

    def test_guarantee_preserved(self, hard_density, rng):
        """Compiled estimates keep the whole-histogram guarantee."""
        from repro.core.qerror import qerror

        theta = 16
        histogram = build_histogram(
            hard_density, kind="V8DincB", config=HistogramConfig(q=2.0, theta=theta)
        )
        compiled = histogram.plan()
        cum = hard_density.cumulative
        d = hard_density.n_distinct
        worst = 1.0
        for _ in range(3000):
            c1, c2 = sorted(rng.integers(0, d + 1, size=2))
            if c1 == c2:
                continue
            truth = float(cum[c2] - cum[c1])
            estimate = compiled.estimate(float(c1), float(c2))
            if truth <= 4 * theta and estimate <= 4 * theta:
                continue
            worst = max(worst, qerror(estimate, truth))
        assert worst <= 3.0 * 1.4 ** 0.5


class TestSemantics:
    def test_out_of_domain_queries(self, hard_density):
        histogram = build_histogram(hard_density, kind="1DincB", theta=16)
        compiled = histogram.plan()
        assert compiled.estimate(-100, -50) == 0.0
        assert compiled.estimate(10, 5) == 0.0

    def test_never_zero_inside_domain(self, hard_density):
        histogram = build_histogram(hard_density, kind="1DincB", theta=16)
        compiled = histogram.plan()
        assert compiled.estimate(3.0, 3.5) >= 1.0

    def test_value_domain_rejected(self, rng):
        values = np.cumsum(rng.integers(1, 9, size=200)).astype(float)
        density = AttributeDensity(rng.integers(1, 30, size=200), values=values)
        histogram = build_histogram(density, kind="1VincB1", theta=8)
        # The join estimator -- the fine-segment consumer -- needs a
        # shared code domain.
        with pytest.raises(ValueError):
            estimate_equijoin(histogram, histogram)

    def test_monotone_cumulative_mass(self, hard_density):
        histogram = build_histogram(hard_density, kind="V8DincB", theta=16)
        edges, masses = histogram.plan().fine_segments()
        assert edges[0] == 0 and edges[-1] == hard_density.n_distinct
        assert np.all(np.diff(edges) >= 0)
        assert np.all(np.diff(masses) >= -1e-9)
        # Every stored bucklet total is within the payload compression
        # factor of its truth, hence so is the whole mass.
        slack = 1.4 ** 0.5
        assert hard_density.total / slack <= masses[-1] <= hard_density.total * slack

    def test_faster_than_object_path(self, hard_density, rng):
        import time

        histogram = build_histogram(hard_density, kind="F8Dgt", theta=16)
        compiled = histogram.plan()
        d = hard_density.n_distinct
        c1s = rng.integers(0, d, size=5000).astype(float)
        c2s = np.minimum(c1s + rng.integers(1, d, size=5000), d).astype(float)

        start = time.perf_counter()
        compiled.estimate_batch(c1s, c2s)
        batch_time = time.perf_counter() - start

        start = time.perf_counter()
        for a, b in zip(c1s[:500], c2s[:500]):
            histogram.estimate(a, b)
        object_time = (time.perf_counter() - start) * 10  # scale to 5000

        assert batch_time < object_time
