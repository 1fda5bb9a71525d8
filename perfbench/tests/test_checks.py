"""The envelope checker accepts exact answers and rejects wrong ones."""

import numpy as np

from checks import check_envelope, exact_counts
from inputs import make_table, value_ranges


def _answers():
    column = make_table("point", 1)[0]
    lows, highs = value_ranges(np.random.default_rng(0), column, 2000)
    return exact_counts(column.values, column.freqs, lows, highs)


def test_exact_counts_match_a_row_scan():
    column = make_table("churn", 2)[1]
    rows = column.rows()
    lows, highs = value_ranges(np.random.default_rng(1), column, 50)
    expected = [np.count_nonzero((rows >= lo) & (rows < hi)) for lo, hi in zip(lows, highs)]
    assert exact_counts(column.values, column.freqs, lows, highs).tolist() == expected


def test_exact_answers_pass():
    truths = _answers()
    result = check_envelope(truths, truths, q=2.0, theta=40.0)
    assert result.violations == 0
    assert result.checked == truths.size
    assert result.qerror_max == 1.0


def test_perturbed_answers_are_rejected():
    truths = _answers()
    estimates = truths.copy()
    large = np.flatnonzero(truths > 1000)[:3]
    estimates[large] *= 10.0  # q-error 10 > q' = 6 at k = 3
    result = check_envelope(estimates, truths, q=2.0, theta=40.0)
    assert result.violations == large.size
    assert result.qerror_max == 10.0


def test_small_answers_inside_k_theta_are_acceptable():
    truths = np.array([10.0, 100.0, 119.0])
    estimates = np.array([100.0, 10.0, 0.0])  # all at most 3 * theta = 120
    assert check_envelope(estimates, truths, q=2.0, theta=40.0).violations == 0
    assert check_envelope(np.array([125.0]), np.array([10.0]), q=2.0, theta=40.0).violations == 1
