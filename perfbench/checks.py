"""Answer checks: exact counts from prefix sums and the certified envelope.

Theorem 5.2 of the paper: when every bucket is θ,q-acceptable and whole
buckets are estimated q-acceptably, the histogram's range estimates are
``(kθ, q + 2q/(k-2))``-acceptable for ``k >= 3``.  An answer ``f̂`` for a
true count ``f`` is θ',q'-acceptable when both are at most θ', or when
``max(f/f̂, f̂/f) <= q'``.  The benchmark checks every answer at ``k = 3``
with the per-column (q, θ) the server's ``explain`` op reports.

``qerror_max`` is taken over answers whose true count exceeds kθ: the
region the theorem bounds (the paper's Table 4 column for k = 3).
Below kθ a multi-bucket range has no guarantee, so a maximum taken
there is unbounded and seed-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.transfer import multi_bucket_guarantee

ENVELOPE_K = 3


def exact_counts(values: np.ndarray, freqs: np.ndarray, lows, highs) -> np.ndarray:
    """True row counts of ``[low, high)`` over a column's sorted distinct
    ``values`` with per-value ``freqs``."""
    cumulative = np.concatenate(([0], np.cumsum(freqs, dtype=np.int64)))
    c1 = np.searchsorted(values, np.asarray(lows), side="left")
    c2 = np.maximum(np.searchsorted(values, np.asarray(highs), side="left"), c1)
    return (cumulative[c2] - cumulative[c1]).astype(np.float64)


def qerrors(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Elementwise q-error ``max(f/f̂, f̂/f)``; 1 when both are 0 and
    infinite when exactly one is."""
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(estimates / truths, truths / estimates)
    ratio[(estimates == 0) & (truths == 0)] = 1.0
    return ratio


@dataclass
class EnvelopeResult:
    checked: int
    violations: int
    qerror_max: float  # over answers whose true count exceeds kθ
    over_threshold: int  # how many answers that maximum is taken over
    example: str = ""  # the first violation, for the report


def check_envelope(estimates, truths, q: float, theta: float) -> EnvelopeResult:
    """Check answers of one column against its (kθ, q') envelope."""
    theta_k, q_k = multi_bucket_guarantee(theta, q, ENVELOPE_K)
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    errors = qerrors(estimates, truths)
    large = (truths > theta_k) | (estimates > theta_k)
    bad = (large & (errors > q_k)) | ~np.isfinite(estimates)
    above = truths > theta_k
    first = np.flatnonzero(bad)[:1]
    return EnvelopeResult(
        checked=int(estimates.size),
        violations=int(bad.sum()),
        qerror_max=float(errors[above].max()) if above.any() else 1.0,
        over_threshold=int(above.sum()),
        example=(
            f"estimate {estimates[first[0]]:.6g} for true {truths[first[0]]:.6g} "
            f"outside ({theta_k:g}, {q_k:g})"
            if first.size
            else ""
        ),
    )


class EnvelopeTally:
    """Answers checked and violations, across columns and rounds."""

    def __init__(self) -> None:
        self.checked = 0
        self.violations = 0

    def add(self, result: EnvelopeResult) -> None:
        self.checked += result.checked
        self.violations += result.violations
