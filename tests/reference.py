"""Reference builds: the paper-literal searches in place of production's.

Every histogram variant has one production search.  The searches the
paper writes down stay in the package as references with no production
caller, and :func:`reference_searches` swaps them in for the duration of
a ``with`` block by patching the module-level names the builders call:

* ``qewh.find_largest_oracle`` -> :func:`repro.core.qewh.find_largest`
  (Fig. 5's ``FindLargest`` over the batched per-probe test, sharing the
  build's :class:`~repro.core.kernels.AcceptanceCache`): ``F8Dgt``;
* ``qvwh.grow_bucklet`` -> :func:`repro.core.qvwh.grow_bucklet_stepwise`
  (Fig. 6's ``GrowBucklet`` one step at a time): ``V8Dinc[B]``,
  ``1Dinc[B]`` and the span builders of ``repair_histogram``;
* ``valuebased.grow_value_bucket`` ->
  :func:`repro.core.valuebased.grow_value_bucket_stepwise`:
  ``1VincB1`` / ``1VincB2``.

Builds inside the block are the reference histograms production builds
must equal bit for bit.  The ``GrowBucklet`` adapter owns one
:class:`AcceptanceCache` per density for its constraint memo (whose keys
name a range, not a column), so a reference build runs exactly the
step-at-a-time program with its cache.  Enter the block once per build
whose time is measured: a second build over the same density in one
block would start from a warm memo.
"""

from contextlib import contextmanager
from unittest import mock

from repro.core import qewh, qvwh, valuebased
from repro.core.builder import build_histogram
from repro.core.kernels import AcceptanceCache
from repro.obs import NULL_TRACE

__all__ = ["reference_searches", "build_reference"]


@contextmanager
def reference_searches():
    """Run the reference searches instead of the production ones."""
    caches = {}

    def constraint_cache(density):
        entry = caches.get(id(density))
        if entry is None or entry[0] is not density:
            entry = caches[id(density)] = (density, AcceptanceCache())
        return entry[1]

    def find_largest(
        density, l, theta, q, config, n_bucklets=8,
        max_bucklet_total=float("inf"), cache=None, trace=NULL_TRACE,
        oracle=None, warm=0,
    ):
        return qewh.find_largest(
            density, l, theta, q, config, n_bucklets, max_bucklet_total,
            cache=cache, trace=trace,
        )

    def grow_bucklet(
        density, l, m_max, theta, q, bounded=True, stats=None, trace=NULL_TRACE
    ):
        return qvwh.grow_bucklet_stepwise(
            density, l, m_max, theta, q, bounded=bounded, stats=stats,
            cache=constraint_cache(density), trace=trace,
        )

    def grow_value_bucket(
        density, start, theta, q, bounded=True, test_distinct=True,
        trace=NULL_TRACE, cache=None,
    ):
        return valuebased.grow_value_bucket_stepwise(
            density, start, theta, q, bounded=bounded,
            test_distinct=test_distinct, trace=trace,
        )

    with mock.patch.object(qewh, "find_largest_oracle", find_largest), \
            mock.patch.object(qvwh, "grow_bucklet", grow_bucklet), \
            mock.patch.object(valuebased, "grow_value_bucket", grow_value_bucket):
        yield


def build_reference(source, kind="V8DincB", config=None):
    """:func:`~repro.core.builder.build_histogram` through the reference
    searches."""
    with reference_searches():
        return build_histogram(source, kind=kind, config=config)
