"""Parallel multi-column histogram construction.

The paper's deployment rebuilds statistics for *every* worthy column of
a table at delta-merge time (Sec. 8.2); under heavy multi-column traffic
that is embarrassingly parallel work.  This module fans the per-column
``AttributeDensity`` construction + histogram build across a
``concurrent.futures`` pool and bulk-loads the results into a
:class:`~repro.core.catalog.StatisticsCatalog` with a single manifest
rewrite instead of one per ``put``.

Construction is CPU-bound Python, so threads share one GIL and a thread
pool builds no faster than a loop; ``executor="process"`` (the default)
runs on the process's *build pool*: one ``ProcessPoolExecutor`` per
(``os.getpid()``, width), created on first use and reused by every later
build, so a serving process pays worker start-up once rather than per
``build`` request.  Its workers come from a ``forkserver`` that has
already imported this module (``spawn`` where forkserver is unavailable,
or in a forked child whose parent started one), never from ``fork``: a
service builds while its event loop, connection and refresh threads
run, and forking a threaded process copies locks mid-use.  The pid key
gives a forked child its own pool; workers exit when their parent dies,
and :func:`shutdown_build_pools` stops them on a clean exit.  Columns are
submitted largest first, so the longest build starts at once instead of
setting the critical path at the end.

Columns cross the process boundary as (name, frequencies, values)
payloads and histograms come back serialized, so both the thread and the
process executor see identical, picklable traffic; results are
deterministic and independent of worker scheduling.  Each worker runs
the shared :mod:`repro.engine` pipeline, so the oracle bucket search
comes along for free: the worker's pipeline builds the column's
:class:`~repro.core.density.DensityIndex` during its ``density_scan``
span and threads one per-build :class:`~repro.core.kernels.AcceptanceCache`
through the search.  (Caches are keyed by in-column ranges, so they are
deliberately *not* shared across columns.)  With tracing requested, the
per-build phase/counter profile -- including ``search_probes``,
``oracle_certified``/``oracle_refuted`` and ``acceptance_cache_hits`` --
travels back beside the histogram bytes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.core.serialize import deserialize_histogram, serialize_histogram
from repro.dictionary.table import Table, histogram_worthy
from repro.core.catalog import StatisticsCatalog
from repro.engine import DEFAULT_PIPELINE, DEFAULT_REGISTRY, BuildRequest

__all__ = [
    "build_column_histograms",
    "build_table_histograms",
    "default_workers",
    "make_executor",
    "shutdown_build_pools",
    "submit_histogram_build",
    "EXECUTOR_KINDS",
]

EXECUTOR_KINDS = ("process", "thread", "serial")

# (name, frequencies, values-or-None, kind, config, trace?)
_Payload = Tuple[str, np.ndarray, Optional[np.ndarray], str, HistogramConfig, bool]

# name -> picklable BuildResult.profile() dict
PhaseSink = Callable[[str, Dict[str, object]], None]


def _build_one(payload: _Payload) -> Tuple[str, bytes, Optional[Dict[str, object]]]:
    """Worker body: density construction + pipeline build, serialized.

    Top-level (not a closure) so process pools can pickle it; the
    histogram travels back as its compact wire format, which is cheaper
    and sturdier than pickling bucket objects, and the profile (when
    tracing) as plain dicts.
    """
    name, frequencies, values, kind, config, trace = payload
    density = AttributeDensity(frequencies, values)
    result = DEFAULT_PIPELINE.build(
        BuildRequest(source=density, kind=kind, config=config, trace=trace, label=name)
    )
    profile = result.profile() if trace else None
    return name, serialize_histogram(result.histogram), profile


def _payload_for(
    column, kind: str, config: HistogramConfig, trace: bool = False
) -> _Payload:
    values = None
    if kind.startswith("1V"):
        values = np.asarray(column.dictionary.values, dtype=np.float64)
    return (
        column.name,
        np.asarray(column.frequencies, dtype=np.int64),
        values,
        kind,
        config,
        trace,
    )


# The build pools of this process, keyed by (pid, width): a forked child
# sees its parent's entries under the parent's pid and starts its own.
_POOLS: Dict[Tuple[int, int], ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()
# The process whose build pool started the forkserver.  A forked child
# inherits the stdlib's handle on that server, which it cannot manage
# (it is not the server's parent), so its own pools use spawn.
_FORKSERVER_OWNER: Optional[int] = None


def _renew_pools_lock() -> None:
    # Another thread may hold the lock at fork time; the child's copy
    # would then stay locked forever.
    global _POOLS_LOCK
    _POOLS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_renew_pools_lock)


def _pool_context():
    global _FORKSERVER_OWNER
    pid = os.getpid()
    if "forkserver" in multiprocessing.get_all_start_methods() and (
        _FORKSERVER_OWNER in (None, pid)
    ):
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
        _FORKSERVER_OWNER = pid
        return context
    return multiprocessing.get_context("spawn")


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit as soon as the parent process dies.

    A parent killed outright (SIGKILL, OOM) never shuts its pool down,
    and idle workers would otherwise wait on the task queue forever.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(0)

    threading.Thread(target=watch, name="build-pool-parent", daemon=True).start()


def _build_pool(workers: int) -> ProcessPoolExecutor:
    """This process's persistent build pool of ``workers`` processes."""
    key = (os.getpid(), workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _POOLS[key] = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_pool_context(),
                initializer=_exit_with_parent,
            )
        return pool


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    with _POOLS_LOCK:
        for key, held in list(_POOLS.items()):
            if held is pool:
                del _POOLS[key]
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_build_pools() -> None:
    """Stop this process's build pools and wait for their workers.

    Later builds start a fresh pool.  Interpreter exit stops the pools
    too; servers call this on shutdown so no worker outlives them.
    """
    pid = os.getpid()
    with _POOLS_LOCK:
        mine = [key for key in _POOLS if key[0] == pid]
        pools = [_POOLS.pop(key) for key in mine]
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def _resolve_executor(executor: str, n_jobs: int, max_workers: Optional[int]) -> str:
    if executor not in EXECUTOR_KINDS:
        raise ValueError(f"unknown executor {executor!r}; pick from {EXECUTOR_KINDS}")
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    # A pool is pure overhead for one job or one worker, and a daemonic
    # process (a fleet shard) may not start pool workers at all.
    if n_jobs <= 1 or max_workers == 1:
        return "serial"
    if executor == "process" and multiprocessing.current_process().daemon:
        return "serial"
    return executor


def build_column_histograms(
    columns: Iterable,
    kind: str = "V8DincB",
    config: HistogramConfig = HistogramConfig(),
    max_workers: Optional[int] = None,
    executor: str = "process",
    phase_sink: Optional[PhaseSink] = None,
) -> Dict[str, Histogram]:
    """Build one histogram per named column, fanned across a pool.

    Parameters
    ----------
    columns:
        ``DictionaryEncodedColumn``-likes (need ``name``,
        ``frequencies`` and -- for value-based kinds -- ``dictionary``).
    kind:
        Any of :data:`~repro.core.builder.HISTOGRAM_KINDS`.
    max_workers:
        Pool width; ``None`` is :func:`default_workers` (one per CPU).
    executor:
        ``"process"`` (default: construction is CPU-bound Python, so
        only processes scale; runs on this process's persistent build
        pool), ``"thread"`` or ``"serial"``.  One column,
        ``max_workers=1``, or ``"process"`` inside a daemonic process
        (which may not have children) builds serially, with no pool.
    phase_sink:
        When given, every build runs traced and ``phase_sink(name,
        profile)`` receives its per-phase timing/counter profile (the
        picklable :meth:`~repro.engine.BuildResult.profile` dict).
    """
    DEFAULT_REGISTRY.get(kind)  # fail fast with the canonical kind error
    trace = phase_sink is not None
    payloads: List[_Payload] = [_payload_for(c, kind, config, trace) for c in columns]
    names = [p[0] for p in payloads]
    if len(set(names)) != len(names):
        raise ValueError("columns must have unique names")
    mode = _resolve_executor(executor, len(payloads), max_workers)
    workers = max_workers or default_workers()
    # Largest column first: the longest build starts at once instead of
    # setting the critical path at the end (stable for equal sizes).
    ordered = sorted(payloads, key=lambda payload: -payload[1].size)
    if mode == "serial":
        results = map(_build_one, ordered)
    elif mode == "thread":
        with ThreadPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            results = list(pool.map(_build_one, ordered))
    else:
        pool = _build_pool(workers)
        try:
            results = list(pool.map(_build_one, ordered))
        except BrokenProcessPool:
            # A worker died; the next build starts a fresh pool.
            _discard_pool(pool)
            raise
    built = {name: (data, profile) for name, data, profile in results}
    histograms: Dict[str, Histogram] = {}
    for name in names:
        data, profile = built[name]
        histograms[name] = deserialize_histogram(data)
        if phase_sink is not None and profile is not None:
            phase_sink(name, profile)
    return histograms


def build_table_histograms(
    table: Table,
    config: HistogramConfig = HistogramConfig(),
    kind: str = "V8DincB",
    max_workers: Optional[int] = None,
    executor: str = "process",
    catalog: Optional[StatisticsCatalog] = None,
    phase_sink: Optional[PhaseSink] = None,
) -> Dict[str, Histogram]:
    """Build histograms for every worthy column of ``table`` in parallel.

    Applies the Sec. 8.2 worthiness filter (tiny and unique-key columns
    are skipped -- their statistics are exact counts, not histograms),
    fans the rest across the pool, and -- when a ``catalog`` is given --
    bulk-loads every result under ``table.name`` with one manifest
    rewrite.
    """
    worthy = [column for column in table if histogram_worthy(column)]
    histograms = build_column_histograms(
        worthy,
        kind=kind,
        config=config,
        max_workers=max_workers,
        executor=executor,
        phase_sink=phase_sink,
    )
    if catalog is not None:
        catalog.bulk_put(
            (table.name, name, histogram) for name, histogram in histograms.items()
        )
    return histograms


def make_executor(executor: str = "thread", max_workers: Optional[int] = None) -> Executor:
    """A standalone pool for callers that schedule builds themselves.

    The refresh scheduler of :mod:`repro.service.refresh` keeps one of
    these alive across rebuilds instead of paying pool startup per
    build.  ``executor`` is ``"process"`` or ``"thread"`` (``"serial"``
    has no pool; use :func:`build_column_histograms` for that).
    """
    if executor not in ("process", "thread"):
        raise ValueError(
            f"unknown executor {executor!r}; pick 'process' or 'thread'"
        )
    workers = max_workers or default_workers()
    if workers < 1:
        raise ValueError("max_workers must be >= 1")
    if executor == "process":
        return ProcessPoolExecutor(max_workers=workers)
    return ThreadPoolExecutor(max_workers=workers)


def submit_histogram_build(
    pool: Executor,
    name: str,
    frequencies: np.ndarray,
    values: Optional[np.ndarray] = None,
    kind: str = "V8DincB",
    config: HistogramConfig = HistogramConfig(),
    trace: bool = False,
):
    """Submit one column build to ``pool``; the future resolves to
    ``(name, serialized_bytes, profile_or_None)``.

    The payload crosses the worker boundary in the same picklable form
    :func:`build_column_histograms` uses, so process and thread pools
    behave identically; deserialize the result with
    :func:`repro.core.serialize.deserialize_histogram`.  With ``trace``
    the third element is the build's
    :meth:`~repro.engine.BuildResult.profile` dict.
    """
    DEFAULT_REGISTRY.get(kind)  # fail fast with the canonical kind error
    payload: _Payload = (
        name,
        np.asarray(frequencies, dtype=np.int64),
        None if values is None else np.asarray(values, dtype=np.float64),
        kind,
        config,
        trace,
    )
    return pool.submit(_build_one, payload)


def default_workers() -> int:
    """The pool width used when callers pass ``max_workers=None``."""
    return os.cpu_count() or 1
