"""The paper's contribution: θ,q-acceptable histograms.

Public surface:

* :mod:`repro.core.qerror` -- the q-error metric and θ,q-acceptability.
* :mod:`repro.core.density` -- attribute densities (the histogram input).
* :mod:`repro.core.estimator` -- the f̂avg estimation function family.
* :mod:`repro.core.acceptance` -- the Sec. 4 acceptance tests.
* :mod:`repro.core.dynamic` -- dynamic-θ testing with history pruning.
* :mod:`repro.core.transfer` -- Sec. 5 bucket→histogram guarantees.
* :mod:`repro.core.buckets` / :mod:`repro.core.histogram` -- the bucket
  model and the queryable histogram object.
* :mod:`repro.core.qewh` / :mod:`repro.core.qvwh` /
  :mod:`repro.core.valuebased` -- the construction algorithms (the atomic
  1D builders share qvwh's incremental engine).  Each variant has one
  production search; the paper-literal searches
  (:func:`~repro.core.qewh.find_largest`,
  :func:`~repro.core.qvwh.grow_bucklet_stepwise`,
  :func:`~repro.core.valuebased.grow_value_bucket_stepwise`) stay as
  references the parity suite holds it to.
* :mod:`repro.core.builder` -- one-call build API with the system θ policy.
* :mod:`repro.core.kernels` -- vectorized acceptance-test kernels and the
  per-build :class:`~repro.core.kernels.AcceptanceCache`.
* :mod:`repro.core.compiled` -- frozen numpy estimation plans serving
  the read path (:class:`~repro.core.compiled.CompiledHistogram`).
* :mod:`repro.core.parallel` -- parallel multi-column construction with
  catalog bulk-loading.
* Extensions: :mod:`repro.core.mixed` (heterogeneous buckets),
  :mod:`repro.core.flexalpha` (Eq. 1 freedom),
  :mod:`repro.core.multidim` (2-D histograms),
  :mod:`repro.core.maintenance` (incremental inserts),
  :mod:`repro.core.serialize` and :mod:`repro.core.statistics`.
"""

from repro.core.qerror import qerror, q_acceptable, theta_q_acceptable
from repro.core.density import AttributeDensity
from repro.core.estimator import FAvgEstimator, AlphaEstimator
from repro.core.config import HistogramConfig
from repro.core.histogram import Histogram
from repro.core.builder import build_histogram, system_theta
from repro.core.serialize import deserialize_histogram, serialize_histogram
from repro.core.statistics import ColumnStatistics, StatisticsManager
from repro.core.advisor import StatisticsAdvisor
from repro.core.compiled import COMPILE_COUNTERS, CompiledHistogram, CompileError
from repro.core.catalog import StatisticsCatalog
from repro.core.flexalpha import build_flexible_alpha
from repro.core.kernels import AcceptanceCache
from repro.core.maintenance import MaintainedHistogram
from repro.core.mixed import build_mixed
from repro.core.multidim import Density2D, Histogram2D, build_histogram_2d
from repro.core.parallel import build_column_histograms, build_table_histograms

__all__ = [
    "AcceptanceCache",
    "build_column_histograms",
    "build_table_histograms",
    "StatisticsAdvisor",
    "CompiledHistogram",
    "COMPILE_COUNTERS",
    "CompileError",
    "StatisticsCatalog",
    "build_flexible_alpha",
    "MaintainedHistogram",
    "build_mixed",
    "Density2D",
    "Histogram2D",
    "build_histogram_2d",
    "qerror",
    "q_acceptable",
    "theta_q_acceptable",
    "AttributeDensity",
    "FAvgEstimator",
    "AlphaEstimator",
    "HistogramConfig",
    "Histogram",
    "build_histogram",
    "system_theta",
    "serialize_histogram",
    "deserialize_histogram",
    "ColumnStatistics",
    "StatisticsManager",
]
