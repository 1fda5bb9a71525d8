"""Configuration for histogram construction.

The fields are the paper's construction parameters only: each variant
has exactly one production search, so there is no knob selecting a
search or a kernel.  The paper-literal searches are kept as reference
functions that tests substitute for the production ones
(:func:`repro.core.qewh.find_largest`,
:func:`repro.core.qvwh.grow_bucklet_stepwise`,
:func:`repro.core.valuebased.grow_value_bucket_stepwise`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["HistogramConfig", "DEFAULT_THETA_FACTOR"]

# The paper's system policy chooses theta = ceil(f * sqrt(|R|)) with a
# configurable f = 0.1 (Sec. 8.1).
DEFAULT_THETA_FACTOR = 0.1


@dataclass(frozen=True)
class HistogramConfig:
    """Construction parameters shared by all histogram builders.

    Parameters
    ----------
    q:
        Maximum q-error per bucket (the *inner* q).  The paper evaluates
        with q = 2.
    theta:
        The *inner* θ.  ``None`` selects the system policy
        ``ceil(theta_factor * sqrt(total_rows))``.
    theta_factor:
        The ``f`` of the system policy; any sub-linear function of the
        cumulated frequency works (Sec. 8.1).
    bounded_search:
        Apply the Sec. 4.5-4.7 search-length bounds during incremental
        construction (the ``incB`` variants).
    use_history:
        Apply the Sec. 4.7 recent-history skips (requires
        ``bounded_search``).
    max_pretest_size:
        The combined test's MaxSize: buckets larger than this are
        rejected when the cheap pretest fails (Sec. 4.4; paper uses 300).
    test_distinct:
        For value-based histograms: additionally require θ,q-acceptable
        *distinct-count* estimates (the 1VincB1 variant; 1VincB2 turns
        this off).
    """

    q: float = 2.0
    theta: Optional[float] = None
    theta_factor: float = DEFAULT_THETA_FACTOR
    bounded_search: bool = True
    use_history: bool = True
    max_pretest_size: int = 300
    test_distinct: bool = True

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.theta is not None and self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.theta_factor <= 0:
            raise ValueError("theta_factor must be positive")
        if self.max_pretest_size < 1:
            raise ValueError("max_pretest_size must be >= 1")

    def resolve_theta(self, total_rows: int) -> float:
        """The θ to use for a column with ``total_rows`` rows."""
        if self.theta is not None:
            return float(self.theta)
        return float(math.ceil(self.theta_factor * math.sqrt(max(total_rows, 0))))
