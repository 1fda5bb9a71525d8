"""Kernel ablation: vectorized vs scalar acceptance testing.

Times the Sec. 4.2 sub-quadratic acceptance test on one 50k-distinct
density -- the batch kernel of :mod:`repro.core.kernels` against the
per-left-endpoint scalar loop and the paper-literal rendering -- and the
end-to-end effect on ``build_qewh``: the production build against
Fig. 5's ``find_largest`` probing one bucklet at a time through the
scalar loop (:func:`_scalar_probe`, local to this benchmark).

Expected shape: the vectorized kernel decides the same boolean at least
5x faster (in practice orders of magnitude: one ``searchsorted`` pass
replaces 50k Python iterations).  End-to-end the win depends on bucket
geometry, so two regimes are timed: an acceptance-heavy density whose
wide bucklets keep the O(m^2) stage busy (large speedup), and a
heavy-tailed zipf density whose tiny buckets are pure dispatch overhead
(parity is the honest expectation there).
"""

import time
from unittest import mock

import numpy as np

from repro.core import qewh
from repro.core.acceptance import (
    pretest_dense,
    subquadratic_test,
    subquadratic_test_literal,
    subquadratic_test_vectorized,
)
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.qewh import build_qewh
from repro.experiments.report import format_table
from repro.obs import NULL_TRACE
from tests.reference import reference_searches

N_DISTINCT = 50_000


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _scalar_probe(
    density, l, m, theta, q, config, n_bucklets=8,
    max_bucklet_total=float("inf"), cache=None, trace=NULL_TRACE,
):
    """``find_largest``'s probe with one combined test per bucklet: the
    dense pretest, the MaxSize cut, then the per-endpoint scalar loop,
    each decision memoized in the build's cache."""
    d = density.n_distinct
    bucklets = []
    for i in range(n_bucklets):
        lo = l + i * m
        if lo >= d:
            break
        clipped = min(lo + m, d)
        total = density.f_plus(lo, clipped)
        if total > max_bucklet_total:
            return False
        bucklets.append((lo, clipped, total / m))
    max_size = config.max_pretest_size
    for lo, clipped, alpha in bucklets:
        key = cache.decision_key(
            lo, clipped, theta, q, alpha,
            k=8.0, max_size=max_size, flexible_alpha=False,
        )
        decision = cache.lookup_decision(key)
        if decision is None:
            decision = pretest_dense(density, lo, clipped, theta, q, alpha=alpha) or (
                clipped - lo <= max_size
                and subquadratic_test(density, lo, clipped, theta, q, alpha=alpha)
            )
            cache.store_decision(key, decision)
        if not decision:
            return False
    return True


def _build_qewh_scalar(density, config):
    """``build_qewh`` searching with ``find_largest`` over :func:`_scalar_probe`."""
    with reference_searches(), mock.patch.object(
        qewh, "_bucklets_acceptable", _scalar_probe
    ):
        return build_qewh(density, config)


def test_kernel_speedup(emit, benchmark):
    # A gently varying 50k-value density: the test must scan every left
    # endpoint (no early rejection), which is the scalar loops' worst
    # case and the representative cost inside FindLargest.
    rng = np.random.default_rng(7)
    freqs = rng.integers(80, 121, size=N_DISTINCT)
    density = AttributeDensity(freqs)
    theta, q = 32.0, 2.0

    t_vec, r_vec = _best_of(
        lambda: subquadratic_test_vectorized(density, 0, N_DISTINCT, theta, q),
        repeats=3,
    )
    t_scalar, r_scalar = _best_of(
        lambda: subquadratic_test(density, 0, N_DISTINCT, theta, q), repeats=1
    )
    t_literal, r_literal = _best_of(
        lambda: subquadratic_test_literal(density, 0, N_DISTINCT, theta, q), repeats=1
    )
    assert r_vec == r_scalar == r_literal  # decision equivalence on the way

    rows = [
        ["vectorized", f"{t_vec * 1e3:.2f}", "1.0"],
        ["literal (scalar loop)", f"{t_scalar * 1e3:.2f}", f"{t_scalar / t_vec:.1f}"],
        ["literal (paper prose)", f"{t_literal * 1e3:.2f}", f"{t_literal / t_vec:.1f}"],
    ]
    text = (
        f"sub-quadratic acceptance test, one {N_DISTINCT}-distinct-value "
        f"density (theta={theta:g}, q={q:g}, accepted={r_vec})\n"
        + format_table(["kernel", "ms", "x slower than vectorized"], rows)
    )

    # End-to-end: the production build against the scalar-probe build, in
    # two regimes.  "wide": near-uniform frequencies with a large theta
    # give ~300-value bucklets where the pretest fails but acceptance
    # holds, so FindLargest spends its time inside the O(m^2) stage --
    # the kernel's home turf.  "zipf": a heavy-tailed density fragments
    # into ~6000 tiny buckets whose probes are dominated by per-call
    # dispatch, where the batch kernel can only aim for parity.
    wide = AttributeDensity(np.random.default_rng(11).integers(1, 61, size=N_DISTINCT))
    zipf = AttributeDensity(np.maximum(rng.zipf(1.3, size=N_DISTINCT) % 10_000, 1))
    end_to_end = []
    for label, dens, theta_b in [("wide", wide, 1000), ("zipf", zipf, 64)]:
        config = HistogramConfig(q=q, theta=theta_b)
        t_b_vec, h_v = _best_of(lambda: build_qewh(dens, config), repeats=2)
        t_b_lit, h_l = _best_of(
            lambda: _build_qewh_scalar(dens, config), repeats=1
        )
        assert len(h_v) == len(h_l)
        end_to_end.append((label, len(h_v), t_b_vec, t_b_lit))
    text += f"\n\nbuild_qewh end-to-end, {N_DISTINCT}-distinct densities:\n" + format_table(
        ["density", "buckets", "production ms", "scalar-probe ms", "speedup"],
        [
            [label, str(n), f"{tv * 1e3:.1f}", f"{tl * 1e3:.1f}", f"{tl / tv:.2f}x"]
            for label, n, tv, tl in end_to_end
        ],
    )
    emit("kernel_speedup", text)

    # The acceptance criterion: >= 5x on the 50k-value acceptance test,
    # a real end-to-end win on acceptance-heavy buckets, and no material
    # regression in the tiny-bucket regime.
    assert t_scalar / t_vec >= 5.0
    speedups = {label: tl / tv for label, _, tv, tl in end_to_end}
    assert speedups["wide"] >= 2.0
    assert speedups["zipf"] >= 0.7

    benchmark(lambda: subquadratic_test_vectorized(density, 0, N_DISTINCT, theta, q))
