"""Ordered dictionary: order preservation, dense codes, range mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.ordered import SORTED_SEARCH_MIN_KEYS, OrderedDictionary


class TestConstruction:
    def test_from_column_returns_dense_codes(self):
        dictionary, codes = OrderedDictionary.from_column([30, 10, 20, 10])
        assert dictionary.size == 3
        assert list(codes) == [2, 0, 1, 0]

    def test_rejects_unsorted_values(self):
        with pytest.raises(ValueError):
            OrderedDictionary(np.array([3, 1, 2]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            OrderedDictionary(np.array([1, 1, 2]))

    def test_string_values(self):
        dictionary, codes = OrderedDictionary.from_column(["b", "a", "c", "a"])
        assert dictionary.decode(0) == "a"
        assert list(codes) == [1, 0, 2, 0]


class TestEncodingIsOrderPreserving:
    @given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_code_order_matches_value_order(self, raw):
        dictionary, _ = OrderedDictionary.from_column(raw)
        values = dictionary.values
        for a in range(dictionary.size):
            for b in range(a + 1, min(a + 3, dictionary.size)):
                assert values[a] < values[b]
                assert dictionary.encode(values[a]) < dictionary.encode(values[b])

    def test_encode_decode_inverse(self):
        dictionary, _ = OrderedDictionary.from_column([5, 1, 9, 5])
        for code in range(dictionary.size):
            assert dictionary.encode(dictionary.decode(code)) == code

    def test_encode_missing_raises(self):
        dictionary, _ = OrderedDictionary.from_column([1, 3, 5])
        with pytest.raises(KeyError):
            dictionary.encode(2)

    def test_decode_out_of_range_raises(self):
        dictionary, _ = OrderedDictionary.from_column([1])
        with pytest.raises(IndexError):
            dictionary.decode(1)


class TestRangeMapping:
    def test_exact_boundaries(self):
        dictionary, _ = OrderedDictionary.from_column([10, 20, 30, 40])
        assert dictionary.encode_range(20, 40) == (1, 3)

    def test_absent_boundaries_snap(self):
        dictionary, _ = OrderedDictionary.from_column([10, 20, 30, 40])
        assert dictionary.encode_range(15, 35) == (1, 3)

    def test_empty_range(self):
        dictionary, _ = OrderedDictionary.from_column([10, 20])
        c1, c2 = dictionary.encode_range(12, 13)
        assert c1 == c2

    def test_range_outside_domain(self):
        dictionary, _ = OrderedDictionary.from_column([10, 20])
        assert dictionary.encode_range(-5, 100) == (0, 2)


    def test_infinite_bounds_are_open(self):
        dictionary, _ = OrderedDictionary.from_column([10, 20, 30])
        assert dictionary.encode_range(-np.inf, np.inf) == (0, 3)
        assert dictionary.encode_range(20, np.inf) == (1, 3)

    @pytest.mark.parametrize("low, high", [(10, np.nan), (np.nan, 30), (np.nan, np.nan)])
    def test_nan_endpoint_raises(self, low, high):
        dictionary, _ = OrderedDictionary.from_column([10, 20, 30])
        with pytest.raises(ValueError, match="NaN"):
            dictionary.encode_range(low, high)


def _plain_encode(values, lows, highs):
    """The reference translation: one unsorted ``searchsorted`` per side."""
    c1s = np.searchsorted(values, lows, side="left").astype(np.int64)
    c2s = np.searchsorted(values, highs, side="left").astype(np.int64)
    return c1s, np.maximum(c2s, c1s)


class TestSortedBatchTranslation:
    """``encode_range_batch`` (sorted above the key threshold, unsorted
    below it) returns exactly the codes of two plain ``searchsorted``
    calls."""

    @pytest.fixture
    def dictionary(self, rng):
        return OrderedDictionary(np.unique(rng.integers(0, 100_000, size=3000)))

    def _endpoints(self, dictionary, rng, n):
        values = dictionary.values.astype(np.float64)
        picks = rng.integers(0, values.size, size=(2, n))
        # Half exact entries, half strictly between neighbouring entries.
        lows = values[picks[0]] - rng.choice([0.0, 0.5], size=n)
        highs = values[picks[1]] + rng.choice([0.0, 0.5], size=n)
        if n >= 8:
            lows[:4] = lows[4:8]  # repeated endpoints
            highs[:4] = highs[4:8]
            lows[0], highs[1] = -np.inf, np.inf
            lows[2], highs[2] = highs[2], lows[2]  # inverted
        return lows, highs

    @pytest.mark.parametrize("n", [0, 1, SORTED_SEARCH_MIN_KEYS // 2, 4096])
    def test_matches_plain_searchsorted(self, dictionary, rng, n):
        lows, highs = self._endpoints(dictionary, rng, n)
        c1s, c2s = dictionary.encode_range_batch(lows, highs)
        ref1, ref2 = _plain_encode(dictionary.values, lows, highs)
        assert c1s.dtype == np.int64 and c2s.dtype == np.int64
        assert np.array_equal(c1s, ref1) and np.array_equal(c2s, ref2)

    def test_integer_endpoints_and_repeats(self, dictionary):
        values = dictionary.values
        lows = np.repeat(values[::300], 3)
        highs = lows + 1
        c1s, c2s = dictionary.encode_range_batch(lows, highs)
        ref1, ref2 = _plain_encode(values, lows, highs)
        assert np.array_equal(c1s, ref1) and np.array_equal(c2s, ref2)

    def test_matches_scalar_form(self, dictionary, rng):
        lows, highs = self._endpoints(dictionary, rng, 64)
        c1s, c2s = dictionary.encode_range_batch(lows, highs)
        assert [dictionary.encode_range(a, b) for a, b in zip(lows, highs)] == list(
            zip(c1s.tolist(), c2s.tolist())
        )

    def test_nan_endpoint_raises(self, dictionary):
        lows = np.array([1.0, 2.0, 3.0])
        for highs in (np.array([5.0, np.nan, 7.0]), np.array([np.nan] * 3)):
            with pytest.raises(ValueError, match="NaN"):
                dictionary.encode_range_batch(lows, highs)
            with pytest.raises(ValueError, match="NaN"):
                dictionary.encode_range_batch(highs, lows)

    def test_misaligned_arrays_raise(self, dictionary):
        with pytest.raises(ValueError, match="align"):
            dictionary.encode_range_batch(np.zeros(3), np.zeros(4))


class TestSizing:
    def test_numeric_size(self):
        dictionary = OrderedDictionary(np.array([1, 2, 3], dtype=np.int64))
        assert dictionary.size_bytes() == 3 * 8

    def test_string_size_counts_bytes(self):
        dictionary, _ = OrderedDictionary.from_column(["aa", "b"])
        assert dictionary.size_bytes() == (2 + 1) + (1 + 1)

    def test_values_view_is_readonly(self):
        dictionary = OrderedDictionary(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            dictionary.values[0] = 99
