"""The vectorized acceptance-test kernels and the acceptance cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acceptance import (
    is_theta_q_acceptable,
    pretest_dense,
    subquadratic_test,
)
from repro.core.density import AttributeDensity
from repro.core.kernels import (
    AcceptanceCache,
    batch_slope_constraints,
    pretest_dense_batch,
    slope_constraints,
    subquadratic_test_vectorized,
)
from repro.core.qerror import theta_q_acceptable

small_freqs = st.lists(st.integers(1, 500), min_size=2, max_size=40)


class TestVectorizedSubquadratic:
    def test_uniform_is_acceptable(self, smooth_density):
        assert subquadratic_test_vectorized(smooth_density, 0, 200, theta=0, q=2.0)

    def test_spike_is_rejected(self, spiky_density):
        assert not subquadratic_test_vectorized(spiky_density, 0, 200, theta=10, q=2.0)

    def test_subrange_and_explicit_alpha(self, spiky_density):
        # Same dispatch surface as the scalar kernel: sub-ranges and an
        # overriding alpha must behave identically.
        for l, u in [(0, 40), (40, 130), (100, 200)]:
            for alpha in [None, 3.0, 50.0]:
                assert subquadratic_test_vectorized(
                    spiky_density, l, u, theta=10, q=2.0, alpha=alpha
                ) == subquadratic_test(spiky_density, l, u, theta=10, q=2.0, alpha=alpha)

    def test_out_of_range_raises(self, smooth_density):
        with pytest.raises(IndexError):
            subquadratic_test_vectorized(smooth_density, 0, 999, 0, 2.0)

    def test_k_must_be_positive(self, smooth_density):
        with pytest.raises(ValueError):
            subquadratic_test_vectorized(smooth_density, 0, 10, 0, 2.0, k=0)

    def test_small_k_shrinks_checked_window(self):
        # k < 1 makes the kθ-boundary precede the θ-boundary; both
        # kernels then check exactly one extension per left endpoint.
        density = AttributeDensity([5, 5, 400, 5, 5, 5])
        for theta in (0, 4, 20, 100):
            assert subquadratic_test_vectorized(
                density, 0, 6, theta, 2.0, k=0.5
            ) == subquadratic_test(density, 0, 6, theta, 2.0, k=0.5)

    def test_boundary_strategy_matches_matrix_strategy(self, monkeypatch, rng):
        # Force the large-bucket searchsorted strategy onto small inputs
        # and check it decides exactly like the matrix strategy.
        import repro.core.kernels as kernels

        for seed in range(30):
            local = np.random.default_rng(seed)
            freqs = local.integers(1, 400, size=int(local.integers(2, 120)))
            density = AttributeDensity(freqs)
            theta = float(local.integers(0, 100))
            q = float(local.uniform(1.0, 4.0))
            expected = subquadratic_test(density, 0, len(freqs), theta, q)
            assert kernels._subquadratic_matrix(
                density.cumulative, 0, len(freqs), theta, q, 8.0,
                density.f_plus(0, len(freqs)) / len(freqs),
            ) == expected
            monkeypatch.setattr(kernels, "MATRIX_STRATEGY_MAX", 0)
            got = subquadratic_test_vectorized(density, 0, len(freqs), theta, q)
            monkeypatch.undo()
            assert got == expected

    def test_chunked_evaluation_matches(self, monkeypatch, rng):
        # Force multi-chunk pair evaluation and check nothing changes.
        import repro.core.kernels as kernels

        freqs = rng.integers(1, 50, size=300)
        density = AttributeDensity(freqs)
        expected = subquadratic_test(density, 0, 300, theta=5, q=2.0)
        monkeypatch.setattr(kernels, "MATRIX_STRATEGY_MAX", 0)
        monkeypatch.setattr(kernels, "PAIR_CHUNK", 64)
        assert subquadratic_test_vectorized(density, 0, 300, theta=5, q=2.0) == expected

    @given(freqs=small_freqs, theta=st.integers(0, 150), q=st.floats(1.05, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_scalar_kernel(self, freqs, theta, q):
        density = AttributeDensity(freqs)
        n = len(freqs)
        assert subquadratic_test_vectorized(
            density, 0, n, theta, q
        ) == subquadratic_test(density, 0, n, theta, q)


class TestPretestBatch:
    def test_matches_scalar_pretest(self, rng):
        freqs = rng.integers(1, 300, size=120)
        density = AttributeDensity(freqs)
        lowers, uppers = [], []
        for _ in range(60):
            a, b = sorted(rng.integers(0, 121, size=2))
            if a == b:
                continue
            lowers.append(a)
            uppers.append(b)
        for theta, q in [(0, 2.0), (16, 1.5), (100, 3.0)]:
            batch = pretest_dense_batch(density, lowers, uppers, theta, q)
            for l, u, got in zip(lowers, uppers, batch):
                assert got == pretest_dense(density, l, u, theta, q)

    def test_flexible_alpha_variant(self, rng):
        freqs = rng.integers(1, 100, size=50)
        density = AttributeDensity(freqs)
        lowers = list(range(0, 40, 5))
        uppers = [l + 10 for l in lowers]
        batch = pretest_dense_batch(
            density, lowers, uppers, theta=4, q=2.0, flexible_alpha=True
        )
        for l, u, got in zip(lowers, uppers, batch):
            assert got == pretest_dense(density, l, u, 4, 2.0, flexible_alpha=True)

    def test_explicit_alphas(self):
        density = AttributeDensity([10, 10, 10, 10, 10, 10])
        # alpha = 10 satisfies the balanced condition; alpha = 1000 not.
        got = pretest_dense_batch(
            density, [0, 0], [6, 6], theta=0, q=2.0, alphas=[10.0, 1000.0]
        )
        assert list(got) == [True, False]

    def test_trailing_range_touches_domain_end(self):
        # u == d exercises the reduceat sentinel padding.
        density = AttributeDensity([1, 2, 3, 4, 5])
        got = pretest_dense_batch(density, [3], [5], theta=0, q=3.0)
        assert got[0] == pretest_dense(density, 3, 5, 0, 3.0)

    def test_empty_batch(self, smooth_density):
        assert pretest_dense_batch(smooth_density, [], [], 0, 2.0).size == 0

    def test_bad_batch_raises(self, smooth_density):
        with pytest.raises(IndexError):
            pretest_dense_batch(smooth_density, [5], [5], 0, 2.0)
        with pytest.raises(IndexError):
            pretest_dense_batch(smooth_density, [0], [999], 0, 2.0)
        with pytest.raises(ValueError):
            pretest_dense_batch(smooth_density, [0, 1], [5], 0, 2.0)


class TestSlopeConstraints:
    @given(
        data=st.lists(
            st.tuples(st.integers(1, 2_000), st.integers(1, 50)),
            min_size=1,
            max_size=25,
        ),
        theta=st.integers(0, 100),
        q=st.floats(1.0, 4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_bounds_are_admissible(self, data, theta, q):
        # Any alpha inside [lb, ub] -- including the repaired endpoints
        # themselves -- must make every interval theta,q-acceptable under
        # the directly evaluated comparisons.
        truths = np.asarray([t for t, _ in data], dtype=np.float64)
        widths = np.asarray([w for _, w in data], dtype=np.float64)
        lb, ub = batch_slope_constraints(truths, widths, float(theta), q)
        if lb > ub:
            return  # infeasible batch: nothing to admit
        for alpha in {lb, ub, (lb + ub) / 2.0} - {np.inf}:
            for truth, width in zip(truths, widths):
                assert theta_q_acceptable(alpha * width, truth, theta, q)

    def test_index_space_wrapper(self):
        density = AttributeDensity([4, 8, 2, 16, 1])
        cum = density.cumulative
        lb, ub = slope_constraints(cum, 0, 4, theta=2.0, q=2.0)
        truths = (cum[4] - cum[0:4]).astype(np.float64)
        widths = np.arange(4, 0, -1, dtype=np.float64)
        assert (lb, ub) == batch_slope_constraints(truths, widths, 2.0, 2.0)

    def test_small_intervals_only_cap(self):
        truths = np.asarray([3.0, 1.0])
        widths = np.asarray([2.0, 1.0])
        lb, ub = batch_slope_constraints(truths, widths, theta=10.0, q=2.0)
        assert lb == 0.0
        assert ub == pytest.approx(5.0)  # min(10/2, 10/1)


class TestAcceptanceCache:
    def test_decision_memoised(self, spiky_density):
        cache = AcceptanceCache()
        first = is_theta_q_acceptable(spiky_density, 0, 200, 10, 2.0, cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        second = is_theta_q_acceptable(spiky_density, 0, 200, 10, 2.0, cache=cache)
        assert first == second
        assert cache.hits == 1
        assert len(cache) == 1

    def test_distinct_parameters_get_distinct_keys(self):
        cache = AcceptanceCache()
        keys = {
            cache.decision_key(0, 8, 10.0, 2.0, None),
            cache.decision_key(0, 9, 10.0, 2.0, None),
            cache.decision_key(0, 8, 11.0, 2.0, None),
            cache.decision_key(0, 8, 10.0, 2.5, None),
            cache.decision_key(0, 8, 10.0, 2.0, 3.25),
            cache.decision_key(0, 8, 10.0, 2.0, None, k=4.0),
        }
        assert len(keys) == 6

    def test_recomputed_alpha_hits_same_bucket(self):
        cache = AcceptanceCache()
        total, width = 12345, 7
        a1 = total / width
        a2 = (total / width) * 1.0  # recomputed, bit-identical
        assert cache.decision_key(0, 7, 5.0, 2.0, a1) == cache.decision_key(
            0, 7, 5.0, 2.0, a2
        )

    def test_constraints_memoised(self):
        density = AttributeDensity([4, 8, 2, 16, 1])
        cache = AcceptanceCache()
        cum = density.cumulative
        first = cache.constraints(cum, 0, 4, 2.0, 2.0)
        second = cache.constraints(cum, 0, 4, 2.0, 2.0)
        assert first == second
        assert cache.hits == 1 and cache.misses == 1
        assert first == slope_constraints(cum, 0, 4, 2.0, 2.0)

    def test_unknown_kernel_rejected(self, smooth_density):
        # The combined test has one kernel; there is nothing to select.
        with pytest.raises(TypeError):
            is_theta_q_acceptable(smooth_density, 0, 10, 0, 2.0, kernel="magic")
