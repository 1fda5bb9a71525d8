"""Production searches: parity with the paper's reference searches, bit for bit.

Each variant's production search (the acceptance oracle for F8Dgt, the
chunked ``GrowBucklet`` for V8D/1D, the scalar-mirror value loop) must
be a pure performance substitution: for every variant and every density,
the produced histogram -- boundaries, payloads, certificates -- must
equal the reference build's (:mod:`tests.reference`) exactly, not just
approximately.  These tests pin that contract over fixed
heavy-tailed/uniform/ERP columns and under hypothesis-generated
densities, plus the ``repair_histogram`` span-rebuild path and the
:class:`DensityIndex` primitives it leans on.  ``TestChunkedGrowth``
holds the block-at-a-time ``GrowBucklet`` to the step-at-a-time loop:
same width and the same work counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import qvwh
from repro.core.builder import build_histogram
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity, DensityIndex
from repro.core.kernels import batch_slope_constraints, interval_slope_bounds
from repro.core.repair import buckets_acceptable, repair_histogram
from repro.core.search import AcceptanceOracle, find_largest_oracle
from repro.engine import build
from repro.obs import Trace
from tests.reference import build_reference, reference_searches

DICT_KINDS = ("F8Dgt", "V8Dinc", "V8DincB", "1Dinc", "1DincB")
VALUE_KINDS = ("1VincB1", "1VincB2")
ALL_KINDS = DICT_KINDS + VALUE_KINDS

small_freqs = st.lists(st.integers(1, 600), min_size=2, max_size=80)


def normalized(histogram):
    """Bucket-by-bucket state with numpy payloads made comparable."""
    out = []
    for bucket in histogram.buckets:
        state = {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in vars(bucket).items()
        }
        out.append((type(bucket).__name__, state))
    return out


def both_searches(freqs, kind, values=None, **config_kwargs):
    """(production, reference) builds of one column."""
    config = HistogramConfig(**config_kwargs)
    freqs = np.asarray(freqs, dtype=np.int64)
    production = build_histogram(
        AttributeDensity(freqs.copy(), values), kind=kind, config=config
    )
    reference = build_reference(
        AttributeDensity(freqs.copy(), values), kind=kind, config=config
    )
    return production, reference


def make_erp_freqs(n=4_000, seed=3):
    """ERP-shaped column: long runs of near-constant small frequencies
    punctuated by a few dominant codes (the shape of Sec. 8.1's data)."""
    rng = np.random.default_rng(seed)
    freqs = rng.integers(1, 4, size=n)
    spikes = rng.choice(n, size=n // 100, replace=False)
    freqs[spikes] = rng.integers(500, 20_000, size=spikes.size)
    return freqs


FIXED_DENSITIES = {
    "zipf": np.maximum(
        np.random.default_rng(7).zipf(1.3, size=6_000) % 3_000, 1
    ),
    "uniform": np.random.default_rng(5).integers(1, 200, size=5_000),
    "erp": make_erp_freqs(),
}


class TestDensityIndex:
    def test_range_extrema_match_slices(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(1, 10_000, size=777)
        density = AttributeDensity(freqs)
        index = density.ensure_index()
        for lo, hi in rng.integers(0, 777, size=(200, 2)):
            lo, hi = sorted((int(lo), int(hi)))
            if hi == lo:
                hi += 1
            if hi > 777:
                continue
            assert index.range_max(lo, hi) == int(freqs[lo:hi].max())
            assert index.range_min(lo, hi) == int(freqs[lo:hi].min())

    def test_batch_extrema_match_scalar(self):
        rng = np.random.default_rng(1)
        freqs = rng.integers(1, 1_000, size=513)
        index = AttributeDensity(freqs).ensure_index()
        lowers = rng.integers(0, 512, size=64).astype(np.int64)
        uppers = np.minimum(lowers + rng.integers(1, 300, size=64), 513).astype(np.int64)
        maxes = index.range_max_batch(lowers, uppers)
        mins = index.range_min_batch(lowers, uppers)
        for k in range(64):
            assert int(maxes[k]) == index.range_max(int(lowers[k]), int(uppers[k]))
            assert int(mins[k]) == index.range_min(int(lowers[k]), int(uppers[k]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_degenerate_sizes(self, n):
        freqs = np.arange(1, n + 1)
        index = AttributeDensity(freqs).ensure_index()
        assert index.range_max(0, n) == n
        assert index.range_min(0, n) == 1

    def test_index_is_cached_and_lazy(self):
        density = AttributeDensity([1, 2, 3])
        assert not density.has_index
        assert density.ensure_index() is density.ensure_index()
        assert density.has_index

    def test_values_list_requires_values(self):
        dense = DensityIndex(
            np.asarray([1, 2]), np.asarray([0, 1, 3])
        )
        with pytest.raises(ValueError):
            dense.values_list

    def test_rerouted_extrema_accessors(self):
        density = AttributeDensity([5, 1, 9, 2])
        assert density.max_frequency(0, 4) == 9  # pre-index: slice path
        density.ensure_index()
        assert density.max_frequency(0, 4) == 9  # post-index: table path
        assert density.min_frequency(1, 3) == 1


class TestConfig:
    """No option selects a search or a kernel: each variant has one."""

    def test_search_validation(self):
        with pytest.raises(TypeError):
            HistogramConfig(search="classic")

    def test_kernel_field_removed(self):
        with pytest.raises(TypeError):
            HistogramConfig(kernel="literal")

    def test_kernel_flag_removed(self, tmp_path, capsys):
        data = tmp_path / "c.npy"
        np.save(data, np.arange(1_000) % 37)
        with pytest.raises(SystemExit) as exit_info:
            main(["build-table", str(data), str(tmp_path / "cat"),
                  "--kernel", "literal"])
        assert exit_info.value.code == 2
        assert "--kernel" in capsys.readouterr().err


class TestReferenceSubstitution:
    def test_reference_builds_run_the_reference_searches(self):
        # Only the production searches count search probes (the oracle
        # also certifies); a reference build that still reported them
        # would be comparing production with itself.
        freqs = FIXED_DENSITIES["zipf"]
        for kind in ALL_KINDS:
            production = build(AttributeDensity(freqs), kind=kind, trace=True)
            with reference_searches():
                reference = build(AttributeDensity(freqs), kind=kind, trace=True)
            assert production.counters["search_probes"] > 0, kind
            assert "search_probes" not in reference.counters, kind
            assert reference.counters["acceptance_tests"] > 0, kind


class TestFixedDensityParity:
    @pytest.mark.parametrize("name", sorted(FIXED_DENSITIES))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_oracle_matches_classic(self, name, kind):
        freqs = FIXED_DENSITIES[name]
        values = None
        if kind in VALUE_KINDS:
            gaps = np.random.default_rng(9).integers(1, 7, size=freqs.size)
            values = np.cumsum(gaps).astype(np.float64)
        production, reference = both_searches(
            freqs, kind, values=values, theta=64.0, q=2.0
        )
        assert normalized(production) == normalized(reference)

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_value_kinds_on_dense_values(self, kind):
        # Value-based search over a dense ramp (values == codes).
        production, reference = both_searches(
            FIXED_DENSITIES["uniform"], kind, theta=32.0, q=2.0
        )
        assert normalized(production) == normalized(reference)


class TestPropertyParity:
    @given(freqs=small_freqs, theta=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_dict_kinds(self, freqs, theta):
        for kind in DICT_KINDS:
            production, reference = both_searches(
                freqs, kind, theta=float(theta), q=2.0
            )
            assert normalized(production) == normalized(reference), kind

    @given(
        freqs=small_freqs,
        theta=st.integers(0, 100),
        gap=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_kinds(self, freqs, theta, gap):
        values = np.arange(1, len(freqs) + 1, dtype=np.float64) * gap
        for kind in VALUE_KINDS:
            production, reference = both_searches(
                freqs, kind, values=values, theta=float(theta), q=2.0
            )
            assert normalized(production) == normalized(reference), kind


class TestFindLargestOracle:
    def test_shared_oracle_and_warm_start_change_nothing(self):
        density = AttributeDensity(FIXED_DENSITIES["zipf"])
        config = HistogramConfig(theta=64.0, q=2.0)
        oracle = AcceptanceOracle(density, 64.0, 2.0, config)
        cold = find_largest_oracle(
            density, 0, 64.0, 2.0, config, oracle=oracle, warm=0
        )
        warmed = find_largest_oracle(
            density, 0, 64.0, 2.0, config, oracle=oracle, warm=cold * 3 + 1
        )
        assert cold == warmed

    def test_counters_flow_through_traced_builds(self):
        freqs = FIXED_DENSITIES["zipf"]
        result = build(AttributeDensity(freqs), kind="F8Dgt", trace=True)
        counters = result.counters
        assert counters["search_probes"] > 0
        assert counters["oracle_certified"] > 0
        assert counters["oracle_refuted"] > 0
        assert counters["acceptance_tests"] > 0
        incremental = build(AttributeDensity(freqs), kind="V8DincB", trace=True)
        assert incremental.counters["search_probes"] > 0


class TestRepairParity:
    def test_repair_matches_classic_search(self):
        freqs = np.maximum(
            np.random.default_rng(11).zipf(1.3, size=5_000) % 2_500, 1
        )
        config = HistogramConfig(theta=64.0, q=2.0)
        histogram = build_histogram(
            AttributeDensity(freqs.copy()), kind="V8DincB", config=config
        )
        churned = freqs.copy()
        churned[1000:1200] = churned[1000:1200] * 9 + 5
        churned[3000:3050] = 1
        density = AttributeDensity(np.maximum(churned, 1))
        ok = buckets_acceptable(histogram, density, range(len(histogram.buckets)))
        failing = list(np.flatnonzero(~ok))
        assert failing, "churn recipe must break at least one bucket"
        repaired = repair_histogram(histogram, churned, failing, config=config)
        with reference_searches():
            reference = repair_histogram(histogram, churned, failing, config=config)
        assert normalized(repaired.histogram) == normalized(reference.histogram)
        assert repaired.splits == reference.splits


# -- chunked growth (qvwh.grow_bucklet) ---------------------------------------

plateau = st.tuples(st.integers(1, 40), st.integers(1, 60)).map(
    lambda shape: [shape[1]] * shape[0]
)
spike = st.integers(500, 50_000).map(lambda height: [height])
long_tail = st.tuples(st.integers(2, 120), st.floats(0.6, 2.5)).map(
    lambda shape: [
        max(1, int(3_000 / (rank + 1) ** shape[1])) for rank in range(shape[0])
    ]
)
shaped_freqs = st.lists(
    st.one_of(plateau, spike, long_tail), min_size=1, max_size=12
).map(lambda segments: [f for segment in segments for f in segment])


def grow_both(freqs, l, m_max, theta, q, bounded):
    """(width, intervals_scanned, trace counters) for both growth paths."""
    density = AttributeDensity(np.asarray(freqs, dtype=np.int64))
    out = []
    for grow in (qvwh.grow_bucklet, qvwh.grow_bucklet_stepwise):
        stats = qvwh.GrowStats()
        trace = Trace()
        width = grow(
            density, l, m_max, theta, q, bounded=bounded, stats=stats, trace=trace
        )
        out.append((width, stats.intervals_scanned, trace.root.counter_totals()))
    return out


def assert_same_growth(freqs, l, m_max, theta, q, bounded):
    (width, scanned, counters), (ref_width, ref_scanned, ref_counters) = grow_both(
        freqs, l, m_max, theta, q, bounded
    )
    assert width == ref_width
    assert scanned == ref_scanned
    assert counters["acceptance_tests"] == ref_counters["acceptance_tests"]
    assert counters["search_probes"] == ref_counters["acceptance_tests"]
    assert counters["intervals_scanned"] == ref_counters["intervals_scanned"]
    return width


class TestChunkedGrowth:
    """The block-at-a-time growth kernel against the step-at-a-time
    reference loop: same width, same work counters."""

    @given(
        freqs=shaped_freqs,
        start=st.floats(0.0, 0.99),
        stop=st.one_of(st.none(), st.floats(0.0, 1.0)),
        # Log-uniform from far below one row to past the column total:
        # windows from three intervals to the whole bucklet.
        theta_exp=st.one_of(st.just(None), st.floats(-6.0, 0.3)),
        q=st.sampled_from([1.1, 2.0, 4.0]),
        bounded=st.booleans(),
        m_max=st.sampled_from([1, 511, None]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_classic_loop(
        self, freqs, start, stop, theta_exp, q, bounded, m_max
    ):
        d = len(freqs)
        l = min(int(start * d), d - 1)
        # A stop-capped span (repair) limits growth to [l, stop).
        cap = d - l if stop is None else max(1, int(stop * (d - l)))
        m_max = cap if m_max is None else min(m_max, cap)
        theta = 0.0 if theta_exp is None else sum(freqs) * 10.0**theta_exp
        assert_same_growth(freqs, l, m_max, theta, q, bounded)

    @given(
        truths=st.lists(st.integers(0, 10**7), min_size=1, max_size=64),
        widths=st.lists(st.integers(1, 5_000), min_size=64, max_size=64),
        theta=st.sampled_from([0.0, 1.0, 37.5, 1e4]),
        q=st.sampled_from([1.1, 1.3, 2.0, 4.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_bounds_match_batch_kernel(self, truths, widths, theta, q):
        t = np.asarray(truths, dtype=np.float64)
        w = np.asarray(widths[: len(truths)], dtype=np.float64)
        lbs, ubs = interval_slope_bounds(t.copy(), w.copy(), theta, q)
        for k in range(t.size):
            lb, ub = batch_slope_constraints(t[k : k + 1], w[k : k + 1], theta, q)
            assert (lbs[k], ubs[k]) == (lb, ub)

    def test_interval_bounds_repair_rounding(self):
        # q = 1.1 rounds many raw bounds onto the wrong side of their own
        # inequality; every returned bound must pass the direct check.
        rng = np.random.default_rng(4)
        t = rng.integers(1, 10**6, size=4_000).astype(np.float64)
        w = rng.integers(1, 3_000, size=4_000).astype(np.float64)
        lbs, ubs = interval_slope_bounds(t, w, 0.0, 1.1)
        assert not np.any(1.1 * (lbs * w) < t)
        assert not np.any(ubs * w > 1.1 * t)
        assert np.any(1.1 * ((t / (1.1 * w)) * w) < t), "no bound needed repair"

    @pytest.mark.parametrize("budget", [None, 20])
    @pytest.mark.parametrize(
        "edge",
        [qvwh._SCALAR_STEPS, qvwh._SCALAR_STEPS + qvwh._FIRST_BLOCK],
        ids=["scalar-to-block", "block-to-block"],
    )
    def test_window_follows_smallest_alpha_across_blocks(
        self, monkeypatch, edge, budget
    ):
        # The slope bottoms out on the last step before a block edge and
        # jumps on the first step after it: the next block must size its
        # windows from the carried minimum (one interval wider here), also
        # when the element budget cuts blocks short.
        if budget is not None:
            monkeypatch.setattr(qvwh, "_ELEMENT_BUDGET", budget)
        freqs = [100] * (edge - 15) + [40] * 15 + [200] + [100] * 300
        width = assert_same_growth(freqs, 0, len(freqs), 150.0, 4.0, True)
        assert width > edge + 2 * qvwh._FIRST_BLOCK

    @pytest.mark.parametrize(
        "freqs",
        [
            # Rising: stops on the upper slope bound of the first values.
            [int(round(10 * 1.03**i)) for i in range(300)],
            # Falling to a plateau: stops on their lower slope bound.
            [int(v) for v in np.linspace(100, 20, 50).round()] + [20] * 1000,
        ],
        ids=["upper", "lower"],
    )
    def test_bounds_carry_across_blocks(self, freqs):
        # Gentle ramps never violate inside a Corollary 4.2 window; the
        # growth stops only on a bound set several blocks earlier.
        width = assert_same_growth(freqs, 0, len(freqs), 1.0, 4.0, True)
        assert qvwh._SCALAR_STEPS + 2 * qvwh._FIRST_BLOCK < width < len(freqs)

    @pytest.mark.parametrize("bounded", [True, False])
    def test_windows_wider_than_budget(self, monkeypatch, bounded):
        # Every window exceeds the element budget, so each block is cut
        # back to a single step.
        monkeypatch.setattr(qvwh, "_ELEMENT_BUDGET", 2)
        freqs = FIXED_DENSITIES["erp"][:600]
        width = assert_same_growth(freqs, 0, len(freqs), 2_000.0, 2.0, bounded)
        assert width > qvwh._SCALAR_STEPS + 2

    @pytest.mark.parametrize(
        "step",
        [
            qvwh._SCALAR_STEPS,  # last step run one at a time
            qvwh._SCALAR_STEPS + 1,  # first step of the first block
            qvwh._SCALAR_STEPS + qvwh._FIRST_BLOCK,  # last of the first block
            qvwh._SCALAR_STEPS + qvwh._FIRST_BLOCK + 1,  # first of the second
            qvwh._SCALAR_STEPS + 3 * qvwh._FIRST_BLOCK,  # last of the second
        ],
    )
    @pytest.mark.parametrize("bounded", [True, False])
    def test_violation_at_block_edges(self, step, bounded):
        # A plateau is acceptable at every width; the spike at position
        # ``step - 1`` makes growth step ``step`` the first violation.
        freqs = [10] * (step - 1) + [100_000] + [10] * 50
        width = assert_same_growth(freqs, 0, len(freqs), 1.0, 2.0, bounded)
        assert width == step - 1

    def test_repair_span_growth_matches_sliced_build(self):
        # grow_span_buckets over [lo, hi) of the full density equals a
        # build over the sliced sub-density, shifted by lo.
        freqs = FIXED_DENSITIES["zipf"][:3_000]
        lo, hi = 700, 2_300
        density = AttributeDensity(freqs)
        span = qvwh.grow_span_buckets(density, lo, hi, 64.0, 2.0)
        sliced = build_histogram(
            AttributeDensity(freqs[lo:hi]),
            kind="V8DincB",
            config=HistogramConfig(theta=64.0, q=2.0),
        )
        assert [b.lo - lo for b in span] == [b.lo for b in sliced.buckets]
        assert [b.payload for b in span] == [b.payload for b in sliced.buckets]
