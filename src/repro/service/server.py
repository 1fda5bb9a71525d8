"""The statistics service: request core + asyncio TCP front end.

:class:`StatisticsService` is the synchronous heart -- it owns the
store, the maintenance registry and the metrics, registers tables,
builds their statistics and answers requests.  The estimate path runs
through :class:`repro.query.estimator.CardinalityEstimator`, backed by a
:class:`~repro.core.statistics.StatisticsManager` whose worthy columns
are *live* register-blended statistics (so estimates include Morris
counts for post-build inserts) and whose unworthy columns keep exact
per-value counts, exactly as Sec. 8.2 prescribes.

:class:`StatisticsServer` puts that core behind one TCP endpoint that
speaks *two* wire formats, negotiated per connection by sniffing the
first two bytes: the frame magic (:data:`repro.service.frames.MAGIC`)
selects the length-prefixed binary protocol, anything else falls
through to JSON lines (one request object per line; see
:mod:`repro.service.protocol`) -- existing JSON clients keep working
unmodified.  JSON lines are one request at a time, so each JSON
connection is served by its own blocking thread that reads a line,
answers it and writes the answer, with no per-request hop.  Binary
frames run on a service-owned, explicitly sized thread pool
(``ServiceConfig.handler_threads``) so a slow estimate never stalls
the accept loop.  Binary connections pipeline: up to
``ServiceConfig.max_inflight`` frames per connection are served
concurrently (a semaphore pauses the reader beyond that), and responses carry the request's ``id`` so a client can
match them.  A malformed or failing request produces a structured
``{"ok": false}`` response (or ``OP_ERROR`` frame) -- the connection,
and every other client, keeps going; only frame-level desynchronization
(bad magic/version, oversized length, truncation) closes a connection,
and then only that one.

With ``ServiceConfig.estimator_workers > 0`` the server additionally
publishes every compiled plan into shared memory
(:class:`~repro.service.shm.SharedPlanDirectory`) and fans binary batch
frames out to an :class:`~repro.service.workers.EstimatorWorkerPool` of
estimator processes; a store listener republishes on every rebuild
(generation bump) and any pool failure falls back to the in-process
path, counted but never surfaced to the client.

Telemetry: every request resolves a ``request_id`` (client-supplied or a
server UUID) that is echoed in the response and stamped on every event
the request produces.  With request tracing enabled, a
:class:`~repro.obs.Trace` follows the request through the estimator, the
store and the build engine, and slow requests park their span tree in
the ``slow_log`` ring.  ``feedback`` requests feed the
:class:`~repro.service.drift.DriftTracker`, closing the loop from
observed q-errors back to priority rebuilds.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.core.catalog import StatisticsCatalog
from repro.core.compiled import COMPILE_COUNTERS
from repro.core.config import HistogramConfig
from repro.core.parallel import build_column_histograms
from repro.core.qerror import qerror
from repro.core.statistics import ColumnStatistics, StatisticsManager
from repro.dictionary.table import Table, histogram_worthy
from repro.obs import NULL_TRACE, EventJournal, Span
from repro.query.estimator import (
    CardinalityEstimate,
    CardinalityEstimator,
    method_of,
)
from repro.service.audit import AuditLedger, attribute_violation
from repro.service.config import ServiceConfig
from repro.service.drift import DriftTracker
from repro.service.export import build_info
from repro.service.frames import (
    FRAME_HEADER_SIZE,
    MAGIC,
    OP_ESTIMATE_BATCH,
    OP_ESTIMATE_DISTINCT_BATCH,
    OP_HELLO,
    OP_JSON,
    OP_JSON_RESPONSE,
    PROTOCOL_VERSION,
    FrameError,
    decode_json_body,
    decode_range_batch,
    encode_error_frame,
    encode_json_frame,
    encode_result_vector,
    parse_frame_header,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    decode_line,
    encode_line,
    error_response,
    ok_response,
    predicate_from_wire,
    predicates_from_wire,
)
from repro.service.refresh import ColumnRegister, MaintenanceRegistry
from repro.service.shm import SharedPlanDirectory, sweep_orphan_segments
from repro.service.store import StatisticsStore
from repro.service.telemetry import (
    MAX_REQUEST_ID_CHARS,
    ServiceTelemetry,
    resolve_request_id,
)
from repro.service.workers import EstimatorWorkerPool, WorkerPoolError

__all__ = [
    "RegisterStatistics",
    "StatisticsService",
    "StatisticsServer",
    "start_server_thread",
]


class RegisterStatistics:
    """Live column statistics backed by a maintenance register.

    Duck-types the :class:`~repro.core.statistics.ColumnStatistics`
    estimate interface; every call reads the register's *current*
    maintained histogram, so a background swap is visible to the very
    next estimate without rebuilding the estimator.
    """

    is_exact = False

    def __init__(self, register: ColumnRegister) -> None:
        self._register = register

    def estimate_range(self, c1: int, c2: int) -> float:
        return self._register.estimate(float(c1), float(c2))

    def estimate_range_batch(self, c1s, c2s) -> np.ndarray:
        return self._register.estimate_batch(c1s, c2s)

    def estimate_distinct_range(self, c1: int, c2: int) -> float:
        return self._register.estimate_distinct(float(c1), float(c2))

    def estimate_distinct_range_batch(self, c1s, c2s) -> np.ndarray:
        return self._register.estimate_distinct_batch(
            np.asarray(c1s, dtype=np.float64), np.asarray(c2s, dtype=np.float64)
        )

    def size_bytes(self) -> int:
        return self._register.histogram().size_bytes()

    # -- provenance --------------------------------------------------------

    def bucket_span(self, c1: int, c2: int) -> Optional[Tuple[int, int]]:
        """Inclusive bucket index span the code range ``[c1, c2)`` touches.

        The span the serving estimate integrated over: ``c1`` maps with
        the inclusive rule, the exclusive upper endpoint ``c2`` with
        ``bucket_index_exclusive`` so a range ending exactly on a bucket
        boundary does not claim the next bucket.
        """
        histogram = self._register.histogram()
        lo = histogram.bucket_index(int(c1))
        hi = histogram.bucket_index_exclusive(int(c2))
        return (int(lo), int(hi))

    def certified_bounds(self) -> Tuple[float, float]:
        """The register's certified ``(q, theta)`` envelope."""
        return self._register.certified_bounds()

    def plan_identity(self) -> str:
        """How the serving plan was produced (compiled/patched/interpreted).

        Uses the maintained histogram's own lazily-compiled plan -- the
        exact object the estimate path executes -- so the label is
        consistent with what answered, not with what the store caches.
        """
        return _register_plan_identity(self._register)


class StatisticsService:
    """Tables, statistics and the request operations of the service.

    Parameters
    ----------
    catalog_root:
        Directory for the backing :class:`StatisticsCatalog`.
    kind, config:
        Default histogram variant/parameters for builds.
    cache_capacity:
        LRU capacity of the serving store.
    build_executor, build_workers:
        Pool shape for whole-table builds (threads by default: a serving
        process should not fork a process pool per ``build`` request).
    counter_base:
        Morris base for the maintenance registers.
    seed:
        Seed for the registers' randomness (tests pin it).
    telemetry:
        Request telemetry policy (:class:`ServiceTelemetry` or the null
        twin).  The default keeps per-request tracing *off* but the
        slow-log ring live, so ``slow_log`` works out of the box at
        near-zero overhead.
    drift:
        Feedback drift tracker; defaults to a fresh
        :class:`DriftTracker` wired to the service journal.
    journal:
        Flight recorder (:class:`~repro.obs.EventJournal` or
        :data:`~repro.obs.NULL_JOURNAL`).  The default keeps a bounded
        in-memory event ring live; the null twin is the zero-overhead
        baseline the ``bench-obs`` floor measures against.
    audit:
        Estimate provenance ledger
        (:class:`~repro.service.audit.AuditLedger` or its null twin);
        defaults to a fresh bounded ledger.
    """

    def __init__(
        self,
        catalog_root: Path,
        kind: str = "V8DincB",
        config: HistogramConfig = HistogramConfig(),
        cache_capacity: int = 128,
        build_executor: str = "thread",
        build_workers: Optional[int] = None,
        counter_base: float = 1.05,
        seed: Optional[int] = None,
        telemetry=None,
        drift: Optional[DriftTracker] = None,
        journal=None,
        audit=None,
    ) -> None:
        self.kind = kind
        self.config = config
        self.store = StatisticsStore(
            StatisticsCatalog(Path(catalog_root)), capacity=cache_capacity
        )
        self.registry = MaintenanceRegistry()
        self.metrics = ServiceMetrics()
        self.telemetry = (
            telemetry
            if telemetry is not None
            else ServiceTelemetry(trace_requests=False)
        )
        self.journal = journal if journal is not None else EventJournal()
        self.audit = audit if audit is not None else AuditLedger()
        self.drift = (
            drift if drift is not None else DriftTracker(journal=self.journal)
        )
        self._build_executor = build_executor
        self._build_workers = build_workers
        self._counter_base = counter_base
        self._rng = np.random.default_rng(seed)
        self._lock = threading.RLock()
        self._tables: Dict[str, Table] = {}
        self._estimators: Dict[str, CardinalityEstimator] = {}
        #: Optional fan-out hook for the array estimate path.  The
        #: server installs a callable ``(table, column, c1s, c2s,
        #: distinct) -> values | None`` routing code-range batches to
        #: the estimator worker pool; ``None`` (or a
        #: :class:`WorkerPoolError`) falls back to the in-process path.
        self.array_backend: Optional[Callable[..., Optional[np.ndarray]]] = None
        #: Side-effect-free twin of :attr:`array_backend`: ``(table,
        #: column) -> bool``, True when the pool *would* serve the key
        #: right now.  ``explain`` uses it to report the serving path
        #: without dispatching a batch.
        self.array_backend_probe: Optional[Callable[[str, str], bool]] = None
        #: Per-(table, column, method) provenance envelope cache, keyed
        #: by store generation -- the certificate only changes when the
        #: generation bumps, so the estimate hot path pays one
        #: generation read and a dict hit, not an error_profile walk.
        self._prov_cache: Dict[
            Tuple[str, str, str], Tuple[int, Dict[str, Any]]
        ] = {}
        #: Single-column twin of :attr:`_prov_cache` holding the ready
        #: ``{"table.column": envelope}`` mapping the estimate hot loop
        #: hands straight to :meth:`AuditLedger.record`.
        self._note_cache: Dict[
            Tuple[str, str, str], Tuple[int, Dict[str, Dict[str, Any]]]
        ] = {}

    def close(self) -> None:
        """Flush and close telemetry sinks (the event log)."""
        self.telemetry.close()

    # -- table registration ------------------------------------------------

    def add_table(self, table: Table, build: bool = True) -> Dict[str, int]:
        """Register a table; by default build and publish its statistics."""
        with self._lock:
            self._tables[table.name] = table
        if build:
            return self.build(table.name)
        return {"built": 0, "exact": 0}

    def tables(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tables))

    # -- operations --------------------------------------------------------

    def build(
        self, table_name: str, kind: Optional[str] = None, trace=NULL_TRACE
    ) -> Dict[str, int]:
        """(Re)build statistics for every column of a registered table.

        Worthy columns get fresh histograms (fanned across the build
        pool), published through the store (generation bump) and wrapped
        in new maintenance registers; tiny/unique columns keep exact
        counts.  The estimate path picks the new statistics up
        atomically when the estimator is swapped at the end.

        A traced request grafts each column build's own span tree (which
        crossed the pool boundary as a profile dict) into its trace, so
        the slow log shows per-phase build timings end to end.
        """
        with self.metrics.track("build"):
            with self._lock:
                table = self._tables.get(table_name)
            if table is None:
                raise KeyError(f"unknown table {table_name!r}")
            kind = kind or self.kind
            worthy = [column for column in table if histogram_worthy(column)]

            def sink(name: str, profile: Dict[str, Any]) -> None:
                self.metrics.record_build_profile("build", profile)
                span_dict = profile.get("trace")
                if span_dict:
                    trace.attach(Span.from_dict(span_dict))

            histograms = build_column_histograms(
                worthy,
                kind=kind,
                config=self.config,
                max_workers=self._build_workers,
                executor=self._build_executor,
                phase_sink=sink,
            )
            manager = StatisticsManager(kind=kind, config=self.config)
            exact = 0
            for column in table:
                histogram = histograms.get(column.name)
                if histogram is not None:
                    self.store.put(table_name, column.name, histogram)
                    register = ColumnRegister(
                        table_name,
                        column.name,
                        np.asarray(column.frequencies, dtype=np.int64),
                        histogram,
                        counter_base=self._counter_base,
                        rng=np.random.default_rng(self._rng.integers(2**63)),
                    )
                    self.registry.register(register)
                    manager.set_statistics(
                        table_name, column.name, RegisterStatistics(register)
                    )
                else:
                    exact += 1
                    manager.set_statistics(
                        table_name,
                        column.name,
                        ColumnStatistics(
                            column=column,
                            exact_counts=np.asarray(
                                column.frequencies, dtype=np.int64
                            ),
                        ),
                    )
            estimator = CardinalityEstimator(table, manager, build=False)
            with self._lock:
                self._estimators[table_name] = estimator
            self.journal.emit(
                "build",
                table=table_name,
                kind=kind,
                built=len(histograms),
                exact=exact,
            )
            return {"built": len(histograms), "exact": exact}

    def publish_estimator(
        self, table_name: str, manager: StatisticsManager
    ) -> None:
        """Install a pre-built statistics manager for a registered table.

        The fleet cold-start path uses this: a restarting shard can
        serve bounded-sample statistics (``method_label = "sample"``)
        the moment its table data is loaded, swapping to real
        histograms when the background :meth:`build` completes -- the
        same atomic estimator swap that build performs.
        """
        with self._lock:
            table = self._tables.get(table_name)
            if table is None:
                raise KeyError(f"unknown table {table_name!r}")
            self._estimators[table_name] = CardinalityEstimator(
                table, manager, build=False
            )
        self.journal.emit("coldstart", table=table_name)

    def _estimator(self, table_name: str) -> CardinalityEstimator:
        with self._lock:
            estimator = self._estimators.get(table_name)
        if estimator is None:
            raise KeyError(
                f"no statistics served for table {table_name!r}; "
                "build it first"
            )
        return estimator

    def estimate(self, table_name: str, predicate) -> CardinalityEstimate:
        """Predicate cardinality via the served statistics."""
        with self.metrics.track("estimate"):
            return self._estimator(table_name).estimate(predicate)

    def estimate_batch(self, table_name: str, predicates, trace=NULL_TRACE) -> list:
        """One round-trip worth of predicate cardinalities.

        A single tracked operation answers the whole batch through the
        estimator's grouped-per-column compiled-plan path, amortizing
        both the request overhead and the Python dispatch.
        """
        with self.metrics.track("estimate_batch"):
            estimates = self._estimator(table_name).estimate_batch(
                predicates, trace=trace
            )
            self.metrics.incr("estimates_batched", len(estimates))
            return estimates

    def estimate_distinct_batch(
        self, table_name: str, predicates, trace=NULL_TRACE
    ) -> list:
        """Distinct-value estimates for a batch of single-column predicates."""
        with self.metrics.track("estimate_distinct_batch"):
            estimates = self._estimator(table_name).estimate_distinct_batch(
                predicates, trace=trace
            )
            self.metrics.incr("distinct_batched", len(estimates))
            return estimates

    def estimate_range_array(
        self,
        table_name: str,
        column_name: str,
        lows: np.ndarray,
        highs: np.ndarray,
        distinct: bool = False,
        request_id: Optional[str] = None,
    ) -> Tuple[np.ndarray, str]:
        """Range estimates for aligned endpoint arrays on one column.

        The binary transport's hot path: no predicate objects are ever
        materialized.  The value endpoints are translated to ``int64``
        code ranges in one ``searchsorted`` pass
        (:meth:`~repro.dictionary.ordered.OrderedDictionary.encode_range_batch`)
        and stay integers down to the compiled plan's per-code tables.
        They are answered either by the estimator worker pool (when the
        server installed :attr:`array_backend` and the pool serves this
        key's current generation) or by the same register-blended
        statistics the JSON path uses -- with zero pending inserts the
        two are bit-identical, and a pool failure silently falls back.

        Returns ``(values, method)``; empty value ranges are exact
        zeros, mirroring the predicate path's ``c2 <= c1`` rule.
        """
        op = "estimate_distinct_batch" if distinct else "estimate_batch"
        with self.metrics.track(op):
            with self._lock:
                table = self._tables.get(table_name)
            if table is None:
                raise KeyError(f"unknown table {table_name!r}")
            column = table.column(column_name)
            c1s, c2s = column.dictionary.encode_range_batch(
                np.asarray(lows), np.asarray(highs)
            )
            nonempty = c2s > c1s
            values: Optional[np.ndarray] = None
            # The pool serves published compiled plans, so a pool answer
            # is by construction a histogram answer.
            method = "histogram"
            via = "shm-worker-pool"
            backend = self.array_backend
            if backend is not None:
                try:
                    values = backend(table_name, column_name, c1s, c2s, distinct)
                except WorkerPoolError as error:
                    self.metrics.incr("worker_fallbacks")
                    # The pool journaled the failure; freeze the timeline
                    # around it so the bundle shows what led up to it.
                    self.freeze_bundle(
                        "worker-fallback",
                        table=table_name,
                        column=column_name,
                        error=str(error),
                    )
                    values = None
                else:
                    if values is not None:
                        self.metrics.incr("worker_batches")
            if values is None:
                via = "in-process"
                estimator = self._estimator(table_name)
                stats = estimator.manager.statistics(table_name, column_name)
                method = method_of(stats)
                batch_name = (
                    "estimate_distinct_range_batch"
                    if distinct
                    else "estimate_range_batch"
                )
                batch = getattr(stats, batch_name, None)
                if batch is not None:
                    values = np.asarray(batch(c1s, c2s), dtype=np.float64)
                else:
                    scalar = getattr(
                        stats,
                        "estimate_distinct_range" if distinct else "estimate_range",
                    )
                    values = np.asarray(
                        [
                            float(scalar(int(c1), int(c2)))
                            for c1, c2 in zip(c1s, c2s)
                        ],
                        dtype=np.float64,
                    )
            values = np.where(nonempty, values, 0.0)
            self.metrics.incr(
                "distinct_batched" if distinct else "estimates_batched",
                int(values.size),
            )
            if request_id is not None:
                self.audit_note(
                    request_id, table_name, {column_name: method}, via=via
                )
            return values, method

    def feedback(
        self,
        table_name: str,
        column_name: str,
        estimated: float,
        actual: float,
        estimate_request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Fold one observed true cardinality into drift + audit state.

        The column's certified (q, θ) come from its live register; a
        column without maintained statistics (exact counts) has no
        contract to drift from and is rejected -- unless the audit
        ledger holds provenance for ``estimate_request_id`` (a sampled
        cold-start answer has a certificate worth auditing even before
        the first build registers the column).

        With ``estimate_request_id`` the observation is also scored
        against the *certificate that answered it*: a violation is
        attributed to its cause (stale generation, patched plan,
        sampled cold start, or plain drift) and folded into the
        column's q-error SLO.  An SLO flip journals a ``drift`` event
        and freezes a debug bundle.
        """
        with self.metrics.track("feedback"):
            register = self.registry.get(table_name, column_name)
            provenance = self.audit.lookup(estimate_request_id)
            column_prov = (
                (provenance or {}).get(f"{table_name}.{column_name}")
                if provenance is not None
                else None
            )
            if register is None and column_prov is None:
                raise KeyError(
                    f"no maintained statistics for {table_name}.{column_name}"
                )
            if register is not None:
                certified_q, theta = register.certified_bounds()
                record = self.drift.observe(
                    table_name,
                    column_name,
                    float(estimated),
                    float(actual),
                    certified_q,
                    theta,
                )
            else:
                # Sampled cold start: no maintained contract to drift
                # from, but the sampling bound is still auditable.
                record = {
                    "qerror": _plain_qerror(float(estimated), float(actual)),
                    "certified_q": None,
                    "flagged": False,
                }
            self.metrics.incr("feedback_observations")
            if record["flagged"]:
                self.metrics.incr("feedback_flagged")
            if self.audit.enabled:
                record.update(
                    self._audit_feedback(
                        table_name, column_name, record, column_prov
                    )
                )
            return record

    def _audit_feedback(
        self,
        table_name: str,
        column_name: str,
        record: Dict[str, Any],
        column_prov: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Score one feedback record against its answering certificate."""
        generation = self.store.generation(table_name, column_name)
        cause = attribute_violation(column_prov, generation)
        if column_prov is not None:
            bound = column_prov.get("sampling_qerror_bound") or column_prov.get(
                "certified_q"
            )
        else:
            bound = None
        if bound is None:
            bound = record.get("certified_q")
        bound = float(bound) if bound else 0.0
        outcome = self.audit.observe(
            table_name, column_name, float(record["qerror"]), bound, cause
        )
        if outcome["violated"]:
            self.metrics.incr("audit_violations")
        if outcome["breached_now"]:
            self.journal.emit(
                "drift",
                table=table_name,
                column=column_name,
                cause=cause,
                qerror=float(record["qerror"]),
                bound=bound,
                slo="breached",
            )
            self.freeze_bundle(
                "slo-burn", table=table_name, column=column_name, cause=cause
            )
        return {
            "audited": column_prov is not None,
            "violated": outcome["violated"],
            "cause": outcome["cause"],
            "slo_ok": outcome["slo_ok"],
            "audit_bound": bound,
        }

    def slow_log(self, limit: Optional[int] = None) -> list:
        """Most recent slow-request records, newest first."""
        with self.metrics.track("slow_log"):
            return self.telemetry.slow_entries(limit)

    # -- provenance / audit / flight recorder ------------------------------

    def explain(
        self, table_name: str, predicate, request_id: Optional[str] = None
    ) -> Tuple[CardinalityEstimate, Dict[str, Any]]:
        """Estimate a predicate *and* attribute the answer end to end.

        The value is computed by the exact same translation and
        statistics call the ``estimate`` op uses (bit-consistent); the
        provenance layers service-level attribution on top of the
        estimator's: store generation, certified (θ, q) envelope, plan
        identity (compiled / patched-in-place / interpreted), the
        serving path (shm worker pool vs in-process), and the
        cold-start sampling bound when the answer came from a sample.
        """
        with self.metrics.track("explain"):
            estimator = self._estimator(table_name)
            estimate = estimator.explain(predicate)
            prov: Dict[str, Any] = dict(estimate.provenance or {})
            prov["table"] = table_name
            column = prov.get("column")
            if column is not None and not prov.get("empty"):
                prov["generation"] = self.store.generation(table_name, column)
                register = self.registry.get(table_name, column)
                if register is not None:
                    certified_q, theta = register.certified_bounds()
                    prov["certified_q"] = float(certified_q)
                    prov["theta"] = float(theta)
                    prov["plan"] = _register_plan_identity(register)
                elif prov.get("method") == "sample":
                    prov["plan"] = "sampled"
                    self._attach_sampling_bound(prov, table_name, column)
                else:
                    prov["plan"] = "exact"
                probe = self.array_backend_probe
                pooled = (
                    probe is not None
                    and prov.get("method") == "histogram"
                    and probe(table_name, column)
                )
                prov["via"] = "shm-worker-pool" if pooled else "in-process"
            if request_id is not None and column is not None:
                self.audit_note(
                    request_id,
                    table_name,
                    {column: estimate.method},
                    via=prov.get("via"),
                )
            return estimate, prov

    def _attach_sampling_bound(
        self, prov: Dict[str, Any], table_name: str, column: str
    ) -> None:
        """Add rate + Chernoff q-error bound for a sample-served column."""
        try:
            stats = self._estimator(table_name).manager.statistics(
                table_name, column
            )
        except KeyError:
            return
        rate = getattr(stats, "rate", None)
        bound_fn = getattr(stats, "qerror_bound", None)
        if rate is None or bound_fn is None:
            return
        prov["sampling_rate"] = float(rate)
        with self._lock:
            table = self._tables.get(table_name)
        if table is not None:
            try:
                theta = self.config.resolve_theta(table.column(column).n_rows)
                prov["theta"] = float(theta)
                prov["sampling_qerror_bound"] = float(bound_fn(theta))
            except (KeyError, ValueError):
                pass

    def audit_note(
        self,
        request_id: str,
        table_name: str,
        column_methods: Dict[str, str],
        via: Optional[str] = None,
    ) -> None:
        """Record which certificates answered a request, per column.

        Hot-path cost is one store-generation read plus a dict hit per
        column: the envelope (certified bounds, plan identity) is
        cached per (key, method) and keyed by generation, so it is
        rebuilt only when a put/repair/rebuild moves the key.
        """
        if not self.audit.enabled or not column_methods:
            return
        columns: Dict[str, Dict[str, Any]] = {}
        for column, method in column_methods.items():
            # Envelopes are immutable once cached (a generation bump
            # *replaces* the cache entry), so records share the object:
            # no per-request copy, and old records keep the envelope
            # that was in force when they were answered.
            envelope = self._audit_envelope(table_name, column, method)
            if via is not None:
                envelope = dict(envelope)
                envelope["via"] = via
            columns[f"{table_name}.{column}"] = envelope
        self.audit.record(request_id, columns)

    def audit_note_single(
        self, request_id: str, table_name: str, column: str, method: str
    ) -> None:
        """One-column :meth:`audit_note` tuned for the estimate hot loop.

        Caches the prepared ``{"table.column": envelope}`` mapping keyed
        by generation so the steady state is one lock-free generation
        read, one dict hit, and one ledger insert.
        """
        audit = self.audit
        if not audit.enabled:
            return
        generation = self.store.generation_read(table_name, column)
        cache_key = (table_name, column, method)
        cached = self._note_cache.get(cache_key)
        if cached is None or cached[0] != generation:
            envelope = self._audit_envelope(table_name, column, method)
            cached = (generation, {f"{table_name}.{column}": envelope})
            self._note_cache[cache_key] = cached
        audit.record(request_id, cached[1])

    def _audit_envelope(
        self, table_name: str, column: str, method: str
    ) -> Dict[str, Any]:
        generation = self.store.generation_read(table_name, column)
        cache_key = (table_name, column, method)
        cached = self._prov_cache.get(cache_key)
        if cached is not None and cached[0] == generation:
            return cached[1]
        envelope: Dict[str, Any] = {"method": method, "generation": generation}
        register = self.registry.get(table_name, column)
        if register is not None and method == "histogram":
            certified_q, theta = register.certified_bounds()
            envelope["certified_q"] = float(certified_q)
            envelope["theta"] = float(theta)
            envelope["plan"] = _register_plan_identity(register)
        elif method == "sample":
            envelope["plan"] = "sampled"
            self._attach_sampling_bound(envelope, table_name, column)
        else:
            envelope["plan"] = "exact"
        self._prov_cache[cache_key] = (generation, envelope)
        return envelope

    def freeze_bundle(self, reason: str, **details: Any) -> Optional[Dict[str, Any]]:
        """Freeze journal + metrics + slow log + audit into a debug bundle."""
        if not self.journal.enabled:
            return None
        return self.journal.freeze(
            reason,
            details=details,
            metrics=self.metrics.snapshot(),
            slow_log=self.telemetry.slow_entries(16),
            audit=self.audit.snapshot(),
        )

    def doctor(self) -> Dict[str, Any]:
        """The full debugging view: identity, timeline, bundles, audit."""
        with self.metrics.track("doctor"):
            return {
                "build_info": build_info(),
                "uptime_seconds": self.metrics.snapshot().get("uptime_seconds"),
                "journal": self.journal.events(),
                "journal_seq": self.journal.last_seq,
                "journal_counts": self.journal.counts(),
                "bundles": self.journal.bundles(),
                "audit": self.audit.snapshot(),
                "slow_log": self.telemetry.slow_entries(16),
                "metrics": self.metrics.snapshot(),
            }

    def insert(self, table_name: str, column_name: str, codes) -> Dict[str, Any]:
        """Route inserted rows to the column's maintenance register."""
        with self.metrics.track("insert"):
            register = self.registry.get(table_name, column_name)
            if register is None:
                raise KeyError(
                    f"no maintained statistics for {table_name}.{column_name}"
                )
            inserted = register.insert_many(np.atleast_1d(codes))
            self.metrics.incr("rows_inserted", inserted)
            return {"inserted": inserted, "staleness": register.staleness()}

    def delete(self, table_name: str, column_name: str, codes) -> Dict[str, Any]:
        """Route deleted rows to the column's maintenance register."""
        with self.metrics.track("delete"):
            register = self.registry.get(table_name, column_name)
            if register is None:
                raise KeyError(
                    f"no maintained statistics for {table_name}.{column_name}"
                )
            deleted = register.delete_many(np.atleast_1d(codes))
            self.metrics.incr("rows_deleted", deleted)
            return {"deleted": deleted, "staleness": register.staleness()}

    def invalidate(
        self, table: Optional[str] = None, column: Optional[str] = None
    ) -> int:
        """Bump store generations (drop cached deserialized histograms)."""
        with self.metrics.track("invalidate"):
            return self.store.invalidate(table, column)

    def status(self) -> Dict[str, Any]:
        """Metrics, cache counters and per-column maintenance state."""
        with self.metrics.track("status"):
            return self._snapshot()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``metrics`` op: the same snapshot under its own op counter.

        This is what :func:`repro.service.export.render_prometheus`
        renders.
        """
        with self.metrics.track("metrics"):
            return self._snapshot()

    def _snapshot(self) -> Dict[str, Any]:
        drift = self.drift.snapshot()
        flagged = {f"{t}.{c}" for t, c in self.drift.flagged()}
        columns = {}
        for (table, column), register in self.registry.items():
            state = register.status()
            state["generation"] = self.store.generation(table, column)
            key = f"{table}.{column}"
            observed = drift.get(key)
            if observed is not None:
                state["qerr_p99"] = observed["qerr_p99"]
                state["drift_flagged"] = key in flagged
            columns[key] = state
        return {
            "tables": list(self.tables()),
            "metrics": self.metrics.snapshot(),
            "cache": self.store.cache_stats(),
            "compile": COMPILE_COUNTERS.snapshot(),
            "columns": columns,
            "drift": drift,
            "audit": self.audit.snapshot(),
            "journal": self.journal.snapshot(),
            "build_info": build_info(),
        }

    # -- wire dispatch -----------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one wire request; always returns a response object.

        Telemetry wraps every dispatch: the resolved ``request_id`` is
        echoed in the response, the request trace (when tracing is on)
        follows the call into the estimator/store/engine, and the finish
        hook feeds the event log and the slow-log ring.
        """
        op = str(request.get("op") or "")
        request_id = resolve_request_id(request)
        trace = self.telemetry.begin(op, request_id)
        fields: Dict[str, Any] = {}
        start = perf_counter()
        try:
            response = self._dispatch(op, request, trace, fields, request_id)
        except Exception as error:  # noqa: BLE001 -- every failure is a response
            response = error_response(request, f"{type(error).__name__}: {error}")
        response["request_id"] = request_id
        self.telemetry.finish(
            trace,
            op=op,
            request_id=request_id,
            seconds=perf_counter() - start,
            ok=bool(response.get("ok")),
            fields=fields,
        )
        return response

    def _dispatch(
        self,
        op: str,
        request: Dict[str, Any],
        trace,
        fields: Dict[str, Any],
        request_id: str,
    ) -> Dict[str, Any]:
        if op == "ping":
            return ok_response(request, pong=True)
        if op == "estimate":
            predicate = predicate_from_wire(_require(request, "predicate"))
            table = _require(request, "table")
            estimate = self.estimate(table, predicate)
            column = getattr(predicate, "column", None)
            if column is not None:
                self.audit_note_single(request_id, table, column, estimate.method)
            fields.update(table=table, value=estimate.value, method=estimate.method)
            return ok_response(request, value=estimate.value, method=estimate.method)
        if op in ("estimate_batch", "estimate_distinct_batch"):
            predicates = predicates_from_wire(_require(request, "predicates"))
            table = _require(request, "table")
            batch = (
                self.estimate_batch
                if op == "estimate_batch"
                else self.estimate_distinct_batch
            )
            estimates = batch(table, predicates, trace=trace)
            column_methods = {
                predicate.column: estimate.method
                for predicate, estimate in zip(predicates, estimates)
                if getattr(predicate, "column", None) is not None
            }
            self.audit_note(request_id, table, column_methods)
            fields.update(table=table, batch=len(estimates))
            return ok_response(
                request,
                values=[estimate.value for estimate in estimates],
                methods=[estimate.method for estimate in estimates],
            )
        if op == "insert":
            codes = request.get("codes")
            if codes is None:
                codes = [_require(request, "code")]
            table = _require(request, "table")
            column = _require(request, "column")
            result = self.insert(table, column, codes)
            fields.update(table=table, column=column, inserted=result["inserted"])
            return ok_response(request, **result)
        if op == "delete":
            codes = request.get("codes")
            if codes is None:
                codes = [_require(request, "code")]
            table = _require(request, "table")
            column = _require(request, "column")
            result = self.delete(table, column, codes)
            fields.update(table=table, column=column, deleted=result["deleted"])
            return ok_response(request, **result)
        if op == "build":
            table = _require(request, "table")
            result = self.build(table, kind=request.get("kind"), trace=trace)
            fields.update(table=table, **result)
            return ok_response(request, **result)
        if op == "invalidate":
            count = self.invalidate(request.get("table"), request.get("column"))
            return ok_response(request, invalidated=count)
        if op == "feedback":
            table = _require(request, "table")
            column = _require(request, "column")
            record = self.feedback(
                table,
                column,
                _require(request, "estimated"),
                _require(request, "actual"),
                estimate_request_id=request.get("estimate_request_id"),
            )
            fields.update(table=table, column=column, qerror=record["qerror"])
            return ok_response(request, **record)
        if op == "explain":
            predicate = predicate_from_wire(_require(request, "predicate"))
            table = _require(request, "table")
            estimate, provenance = self.explain(
                table, predicate, request_id=request_id
            )
            fields.update(table=table, value=estimate.value, method=estimate.method)
            return ok_response(
                request,
                value=estimate.value,
                method=estimate.method,
                provenance=provenance,
            )
        if op == "audit":
            return ok_response(request, audit=self.audit.snapshot())
        if op == "journal":
            limit = request.get("limit")
            return ok_response(
                request,
                events=self.journal.events(
                    limit=int(limit) if limit is not None else None,
                    category=request.get("category"),
                    since_seq=request.get("since_seq"),
                ),
                seq=self.journal.last_seq,
            )
        if op == "doctor":
            return ok_response(request, report=self.doctor())
        if op == "slow_log":
            return ok_response(request, entries=self.slow_log(request.get("limit")))
        if op == "metrics":
            return ok_response(request, snapshot=self.metrics_snapshot())
        if op == "status":
            return ok_response(request, status=self.status())
        return error_response(request, f"unknown op {op!r}")


def _require(request: Dict[str, Any], field: str) -> Any:
    if field not in request:
        raise ValueError(f"request is missing field {field!r}")
    return request[field]


def _register_plan_identity(register: ColumnRegister) -> str:
    """Identity label of the plan a register's estimates execute."""
    plan = register.histogram().plan()
    if plan is None:
        return "interpreted"
    return plan.identity() if hasattr(plan, "identity") else "compiled"


def _plain_qerror(estimated: float, actual: float) -> float:
    """q-error without a θ carve-out (for columns with no register)."""
    value = qerror(estimated, actual)
    return 1e9 if math.isinf(value) else float(value)


class StatisticsServer:
    """Dual-transport TCP endpoint over a :class:`StatisticsService`.

    One port, two wire formats: the first two bytes of a connection
    select binary frames (frame magic) or JSON lines (anything else).
    The bytes are peeked, not consumed, so each transport reads its
    stream from the start.  A connection that has sent nothing waits on
    the event loop and holds no thread.

    JSON lines are strictly one request at a time, so a JSON connection
    is served by its own blocking thread (``repro-json-N``) from its
    first byte until it closes: read a line, ``handle()`` it, write the
    answer -- no event-loop or executor hop per request.  Binary
    connections pipeline, so they stay on the event loop and run their
    frames on a service-owned pool sized by ``config.handler_threads``.
    With ``config.estimator_workers > 0`` the server also owns a
    shared-plan directory and an estimator process pool fanning batch
    frames across cores.
    """

    def __init__(
        self,
        service: StatisticsService,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.config = config if config is not None else ServiceConfig()
        self._listener: Optional[socket.socket] = None
        self._accepting: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._plans: Optional[SharedPlanDirectory] = None
        self._pool: Optional[EstimatorWorkerPool] = None
        self._publish_lock = threading.Lock()
        # Graceful-shutdown state.  Requests currently executing on
        # either transport (JSON connection threads and the event loop
        # both count, hence the lock); the event-loop connection tasks
        # (sniffing or binary); and every JSON connection's socket with
        # the thread serving it.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._json_conns: Dict[socket.socket, threading.Thread] = {}
        self._json_lock = threading.Lock()
        self._json_ids = itertools.count(1)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    async def start(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.handler_threads,
            thread_name_prefix="repro-handler",
        )
        if self.config.estimator_workers > 0:
            self._start_fanout()
        self._listener = _listen(self.host, self.port)
        self._accepting = asyncio.get_running_loop().create_task(
            self._accept_loop(self._listener)
        )

    async def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (which cancels this)."""
        if self._accepting is None:
            await self.start()
        await self._accepting

    async def stop(self) -> None:
        """Shut down gracefully: drain, then tear down, then clean up.

        New connections stop immediately; requests already executing on
        either transport get up to ``config.drain_grace`` seconds to
        produce their responses.  Then the remaining event-loop
        connection tasks are cancelled and every JSON connection's
        socket is shut down, so its thread wakes and exits (joined when
        the drain succeeded).  The worker pool is stopped and the
        shared-memory plan directory unlinked *deterministically* here
        -- a SIGTERM'd ``repro serve`` leaves no orphan segments behind
        for the startup sweep to collect.
        """
        accepting, self._accepting = self._accepting, None
        if accepting is not None:
            accepting.cancel()
            await asyncio.gather(accepting, return_exceptions=True)
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        drained = await self._drain(self.config.drain_grace)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        self._conn_tasks.clear()
        with self._json_lock:
            # Under the lock: a thread deregisters before it closes its
            # socket, so every socket shut down here is still open.
            json_threads = list(self._json_conns.values())
            for sock in self._json_conns:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        if drained:
            # A drained server has idle JSON threads: each is leaving
            # its read loop, so waiting is brief.
            for thread in json_threads:
                thread.join()
        self.service.array_backend = None
        self.service.array_backend_probe = None
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.stop()
        plans, self._plans = self._plans, None
        if plans is not None:
            plans.close()
        executor, self._executor = self._executor, None
        if executor is not None:
            # A drained server has an idle pool: waiting is free and
            # guarantees every response was fully computed.  If the
            # grace expired, don't block shutdown on stuck requests.
            executor.shutdown(wait=drained)

    async def _drain(self, grace: float) -> bool:
        """Wait up to ``grace`` seconds for in-flight requests to finish."""
        if grace <= 0:
            return self._inflight == 0
        deadline = perf_counter() + grace
        while self._inflight and perf_counter() < deadline:
            await asyncio.sleep(0.01)
        if self._inflight:
            self.service.metrics.incr("shutdown_drain_expired")
            return False
        return True

    def _add_inflight(self, delta: int) -> None:
        with self._inflight_lock:
            self._inflight += delta

    # -- estimator fan-out -------------------------------------------------

    def _start_fanout(self) -> None:
        """Bring up shared plans + worker pool and wire the routing hook."""
        # A predecessor that crashed without cleanup may have leaked
        # segments; its pid is dead, so the sweep is safe.
        removed = sweep_orphan_segments()
        if removed:
            self.service.metrics.incr("shm_orphans_swept", len(removed))
        self._plans = SharedPlanDirectory(journal=self.service.journal)
        self._pool = EstimatorWorkerPool(
            self.config.estimator_workers, journal=self.service.journal
        )
        self._pool.start()
        for table, column in self.service.store.keys():
            self._publish_key(table, column)
        self._push_manifest()
        self.service.store.add_listener(self._on_store_put)
        self.service.array_backend = self._route_array_batch
        self.service.array_backend_probe = self._pool_serves

    def _publish_key(self, table: str, column: str) -> None:
        plans = self._plans
        if plans is None:
            return
        try:
            plan = self.service.store.plan(table, column)
        except KeyError:
            return
        if plan is None:
            return  # no compiled form; the in-process path serves it
        generation = self.service.store.generation(table, column)
        entry = plans.publish(table, column, generation, plan, allow_patch=True)
        action = entry.get("action")
        if action == "patched":
            self.service.metrics.incr("plan_patched_in_place")
        elif action == "published":
            self.service.metrics.incr("plan_republished")

    def _push_manifest(self) -> None:
        pool, plans = self._pool, self._plans
        if pool is None or plans is None:
            return
        try:
            pool.publish(plans.manifest())
        except WorkerPoolError:
            self.service.metrics.incr("worker_publish_failures")

    def _on_store_put(self, table: str, column: str, generation: int) -> None:
        """Store listener: republish a rebuilt key to every worker.

        Runs on the putting (build/rebuild) thread; serialized so two
        concurrent rebuilds cannot interleave manifest pushes.
        """
        with self._publish_lock:
            self._publish_key(table, column)
            self._push_manifest()

    def _route_array_batch(
        self,
        table: str,
        column: str,
        c1s: np.ndarray,
        c2s: np.ndarray,
        distinct: bool,
    ) -> Optional[np.ndarray]:
        """The service's ``array_backend``: pool when safe, else ``None``.

        The pool serves the *published base plan*, so it is only used
        when it holds the key's current store generation and (for
        cardinality estimates) the maintenance register has no pending
        inserts to blend -- exactly the condition under which the pool
        answer is bit-identical to the in-process one.
        """
        pool = self._pool
        if pool is None:
            return None
        generation = self.service.store.generation(table, column)
        if pool.served_generation(table, column) != generation:
            return None
        if not distinct:
            register = self.service.registry.get(table, column)
            if register is not None and register.staleness() > 0.0:
                return None
        return pool.estimate(table, column, c1s, c2s, distinct)

    def _pool_serves(self, table: str, column: str) -> bool:
        """Side-effect-free twin of :meth:`_route_array_batch` gating.

        Answers "would the worker pool serve this key right now?" without
        dispatching -- ``explain`` reports the serving path from it.
        """
        pool = self._pool
        if pool is None:
            return False
        generation = self.service.store.generation(table, column)
        if pool.served_generation(table, column) != generation:
            return False
        register = self.service.registry.get(table, column)
        return register is None or register.staleness() == 0.0

    # -- connection handling -----------------------------------------------

    async def _accept_loop(self, listener: socket.socket) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                sock, _ = await loop.sock_accept(listener)
            except (ConnectionAbortedError, InterruptedError):
                continue  # the peer gave up during the handshake
            except OSError:
                # Out of descriptors or buffers: back off, keep listening.
                await asyncio.sleep(_ACCEPT_RETRY_DELAY)
                continue
            # Answers are written whole, so Nagle's algorithm can only
            # hold back their last segment until the client's delayed
            # ACK (40 ms).  asyncio's transports skip this for sockets
            # whose ``proto`` is 0, as accepted ones are here.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            task = loop.create_task(self._handle_connection(sock))
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(self, sock: socket.socket) -> None:
        """Sniff a new connection's transport and hand it to its server."""
        owned: Optional[socket.socket] = sock  # closed here unless handed off
        try:
            first = await _sniff(sock)
            if not first:
                return
            if first == MAGIC:
                serve = (
                    self._serve_binary
                    if self.config.binary_enabled
                    else self._refuse_binary
                )
            elif self.config.json_enabled:
                if self._start_json_thread(sock):
                    owned = None
                return
            else:
                serve = self._refuse_json
            reader, writer = await asyncio.open_connection(sock=sock)
            try:
                await serve(reader, writer)
            finally:
                try:
                    writer.close()
                    await writer.wait_closed()
                except (OSError, RuntimeError):
                    # RuntimeError: the event loop closed under us during
                    # server shutdown; nothing left to flush.
                    pass
        except OSError:
            pass  # reset, broken pipe: only this connection ends
        except asyncio.CancelledError:
            # Only stop() cancels connection tasks (after the drain
            # grace); ending normally keeps the cancellation out of
            # asyncio's transport callbacks' logs.
            pass
        finally:
            if owned is not None:
                owned.close()

    async def _refuse_binary(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """JSON-only server: answer the first frame with one error frame.

        The frame is read first so closing does not reset the connection
        under the client's unread answer.
        """
        try:
            _, length = parse_frame_header(
                await reader.readexactly(FRAME_HEADER_SIZE)
            )
            if length <= self.config.max_frame_bytes:
                await reader.readexactly(length)
        except (asyncio.IncompleteReadError, FrameError):
            pass
        writer.write(encode_error_frame("server accepts JSON lines only"))
        await writer.drain()

    async def _refuse_json(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Binary-only server: answer the first line with one error line."""
        try:
            await reader.readline()
        except ValueError:
            pass  # longer than the stream limit; answer all the same
        writer.write(
            encode_line(
                error_response({}, "server requires the binary frame transport")
            )
        )
        await writer.drain()

    # -- JSON lines --------------------------------------------------------

    def _start_json_thread(self, sock: socket.socket) -> bool:
        """Give a JSON-lines connection its own thread; False if refused.

        A thread that cannot be started costs this connection one error
        line, not the server.
        """
        sock.setblocking(True)
        thread = threading.Thread(
            target=self._serve_json,
            args=(sock,),
            name=f"repro-json-{next(self._json_ids)}",
            daemon=True,
        )
        with self._json_lock:
            self._json_conns[sock] = thread
        try:
            thread.start()
        except RuntimeError as error:
            with self._json_lock:
                self._json_conns.pop(sock, None)
            self.service.metrics.incr("json_threads_refused")
            _refuse_now(sock, f"server cannot serve this connection: {error}")
            return False
        return True

    def _serve_json(self, sock: socket.socket) -> None:
        """Serve one JSON-lines connection on its own thread until it closes.

        A line longer than ``config.max_frame_bytes`` is read through its
        newline and discarded; it gets one error response and the
        connection stays usable.
        """
        metrics = self.service.metrics
        limit = self.config.max_frame_bytes
        stream = sock.makefile("rb", buffering=_JSON_READ_BUFFER)
        try:
            while True:
                line = stream.readline(limit + 1)
                if not line:
                    break
                start = perf_counter()
                size = len(line)
                oversized = size > limit and not line.endswith(b"\n")
                if oversized:
                    chunk = line
                    while chunk and not chunk.endswith(b"\n"):
                        chunk = stream.readline(_JSON_READ_BUFFER)
                        size += len(chunk)
                elif line.isspace():
                    continue
                # In-flight until the response is on the wire: a graceful
                # stop() drains accepted requests *and* their writes.
                self._add_inflight(1)
                try:
                    if oversized:
                        op = "error"
                        response = error_response(
                            {},
                            f"request line exceeds this server's "
                            f"{limit}-byte limit",
                        )
                    else:
                        try:
                            request = decode_line(line)
                        except Exception as error:
                            op = "error"
                            response = error_response({}, f"bad request: {error}")
                        else:
                            op = str(request.get("op") or "")
                            response = self.service.handle(request)
                    payload = encode_line(response)
                    sock.sendall(payload)
                finally:
                    self._add_inflight(-1)
                metrics.record_wire(
                    "json",
                    frames_in=1,
                    frames_out=1,
                    bytes_in=size,
                    bytes_out=len(payload),
                )
                metrics.observe_wire_latency("json", op, perf_counter() - start)
        except OSError:
            pass  # reset, broken pipe, or stop() shut the socket down
        finally:
            with self._json_lock:
                self._json_conns.pop(sock, None)
            stream.close()
            sock.close()

    # -- binary frames -----------------------------------------------------

    async def _serve_binary(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        semaphore = asyncio.Semaphore(self.config.max_inflight)
        write_lock = asyncio.Lock()
        pending: Set[asyncio.Task] = set()
        metrics = self.service.metrics
        try:
            while True:
                try:
                    header = await reader.readexactly(FRAME_HEADER_SIZE)
                except asyncio.IncompleteReadError:
                    break  # disconnect between (or inside) headers
                try:
                    opcode, length = parse_frame_header(header)
                    if length > self.config.max_frame_bytes:
                        raise FrameError(
                            f"frame body of {length} bytes exceeds this "
                            f"server's {self.config.max_frame_bytes}-byte limit"
                        )
                except FrameError as error:
                    drain = error.body_length
                    if error.recoverable and drain is not None:
                        # Unknown opcode with a trustworthy length:
                        # skip the body, answer, keep the connection.
                        try:
                            await reader.readexactly(drain)
                        except asyncio.IncompleteReadError:
                            break
                        await self._write_frame(
                            writer, write_lock, encode_error_frame(str(error))
                        )
                        metrics.incr("frame_errors_recovered")
                        continue
                    # Desynchronized stream: one framed error, then close.
                    await self._write_frame(
                        writer, write_lock, encode_error_frame(str(error))
                    )
                    metrics.incr("frame_errors_fatal")
                    break
                try:
                    body = await reader.readexactly(length) if length else b""
                except asyncio.IncompleteReadError:
                    break  # mid-frame disconnect
                await semaphore.acquire()
                task = asyncio.create_task(
                    self._run_frame(
                        opcode, body, writer, write_lock, semaphore
                    )
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    async def _write_frame(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: bytes,
    ) -> None:
        async with write_lock:
            writer.write(payload)
            await writer.drain()

    async def _run_frame(
        self,
        opcode: int,
        body: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        semaphore: asyncio.Semaphore,
    ) -> None:
        start = perf_counter()
        loop = asyncio.get_running_loop()
        # In-flight until the response frame is on the wire (see
        # ``_serve_json``): stop() waits for accepted frames to answer.
        self._add_inflight(1)
        try:
            try:
                op, payload = await loop.run_in_executor(
                    self._executor, self._dispatch_frame, opcode, body
                )
            except Exception as error:  # noqa: BLE001 -- every failure is a frame
                op = "error"
                payload = encode_error_frame(f"{type(error).__name__}: {error}")
            finally:
                semaphore.release()
            try:
                await self._write_frame(writer, write_lock, payload)
            except (ConnectionResetError, BrokenPipeError, OSError):
                return
        finally:
            self._add_inflight(-1)
        metrics = self.service.metrics
        metrics.record_wire(
            "binary",
            frames_in=1,
            frames_out=1,
            bytes_in=FRAME_HEADER_SIZE + len(body),
            bytes_out=len(payload),
        )
        metrics.observe_wire_latency("binary", op, perf_counter() - start)

    def _dispatch_frame(self, opcode: int, body: bytes) -> Tuple[str, bytes]:
        """Serve one binary frame (runs on the handler pool).

        Returns ``(op name, response frame bytes)``; every failure --
        protocol or service -- becomes an ``OP_ERROR`` frame so the
        connection survives anything short of desynchronization.
        """
        meta: Dict[str, Any] = {}
        try:
            if opcode == OP_HELLO:
                if body:
                    decode_json_body(body)  # validated, options reserved
                return "hello", encode_json_frame(
                    {
                        "ok": True,
                        "version": PROTOCOL_VERSION,
                        "server": "repro-statistics",
                        "ops": [
                            "hello",
                            "json",
                            "estimate_batch",
                            "estimate_distinct_batch",
                        ],
                    },
                    opcode=OP_HELLO,
                )
            if opcode == OP_JSON:
                request = decode_json_body(body)
                meta = request
                response = self.service.handle(request)
                return (
                    str(request.get("op") or "json"),
                    encode_json_frame(response, opcode=OP_JSON_RESPONSE),
                )
            if opcode in (OP_ESTIMATE_BATCH, OP_ESTIMATE_DISTINCT_BATCH):
                header, lows, highs = decode_range_batch(body)
                meta = header
                distinct = opcode == OP_ESTIMATE_DISTINCT_BATCH
                op = "estimate_distinct_batch" if distinct else "estimate_batch"
                table = header.get("table")
                column = header.get("column")
                if not isinstance(table, str) or not isinstance(column, str):
                    raise FrameError(
                        "array frame header needs string 'table' and 'column'",
                        recoverable=True,
                    )
                frame_request_id = header.get("request_id")
                values, method = self.service.estimate_range_array(
                    table,
                    column,
                    lows,
                    highs,
                    distinct=distinct,
                    request_id=(
                        str(frame_request_id)[:MAX_REQUEST_ID_CHARS]
                        if frame_request_id is not None
                        else None
                    ),
                )
                echo = {
                    key: header[key]
                    for key in ("id", "request_id")
                    if key in header
                }
                echo["method"] = method
                return op, encode_result_vector(values, echo)
            # OP_JSON_RESPONSE / OP_RESULT_VECTOR / OP_ERROR are
            # response opcodes; a client sending one is confused but
            # recoverable.
            raise FrameError(
                f"opcode 0x{opcode:02x} is not a request", recoverable=True
            )
        except FrameError as error:
            return "error", encode_error_frame(str(error), meta)
        except Exception as error:  # noqa: BLE001 -- every failure is a frame
            return "error", encode_error_frame(
                f"{type(error).__name__}: {error}", meta
            )


#: Read buffer of a JSON connection's stream; also the chunk size used
#: to discard the rest of an over-long line.
_JSON_READ_BUFFER = 1 << 16

#: Pause before accepting again after the listener failed (e.g. out of
#: file descriptors).
_ACCEPT_RETRY_DELAY = 0.1

#: How long a connection that sent one byte of the frame magic may take
#: to send the second before it is served as JSON lines.
_SNIFF_PATIENCE = 1.0


def _listen(host: str, port: int) -> socket.socket:
    """A non-blocking listening socket on ``(host, port)``.

    ``SO_REUSEADDR`` (set by :func:`socket.create_server` on POSIX), as
    ``asyncio.start_server`` does: a restarted shard rebinds its port
    while the old connections sit in TIME_WAIT.
    """
    family, _, _, _, address = socket.getaddrinfo(
        host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )[0]
    listener = socket.create_server(address, family=family, backlog=100)
    listener.setblocking(False)
    return listener


async def _sniff(sock: socket.socket) -> bytes:
    """A new connection's first two bytes, peeked and left unread.

    Returns ``b""`` when the peer closed without sending, and a single
    byte when it cannot start the frame magic (so it is JSON) or when
    the second byte has not come within ``_SNIFF_PATIENCE`` seconds.
    """
    loop = asyncio.get_running_loop()
    fd = sock.fileno()
    delay = waited = 0.0
    while True:
        readable = loop.create_future()
        loop.add_reader(fd, _wake, readable)
        try:
            await readable
        finally:
            loop.remove_reader(fd)
        try:
            first = sock.recv(2, socket.MSG_PEEK)
        except (BlockingIOError, InterruptedError):
            continue
        if len(first) == 2 or first != MAGIC[:1] or waited >= _SNIFF_PATIENCE:
            return first
        # Half a frame magic: the socket stays readable, so poll (with
        # backoff) for the second byte.  A peek cannot see a close behind
        # the byte, hence the patience bound.
        delay = min(2 * delay or 0.001, 0.05)
        await asyncio.sleep(delay)
        waited += delay


def _wake(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


def _refuse_now(sock: socket.socket, message: str) -> None:
    """Answer a blocking socket with one error line (the caller closes).

    Input already received is read first, so the close does not reset
    the connection under the client's unread answer.
    """
    try:
        while sock.recv(_JSON_READ_BUFFER, socket.MSG_DONTWAIT):
            pass
    except OSError:
        pass
    try:
        sock.sendall(encode_line(error_response({}, message)))
    except OSError:
        pass


class ServerHandle:
    """A server running on a dedicated event-loop thread."""

    def __init__(
        self,
        server: StatisticsServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def stop(self, timeout: float = 5.0) -> None:
        asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(
            timeout
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server_thread(
    service: StatisticsService,
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float = 10.0,
    config: Optional[ServiceConfig] = None,
) -> ServerHandle:
    """Start a :class:`StatisticsServer` on a background thread.

    Returns a handle exposing the bound ``address`` and ``stop()``;
    the default ``port=0`` binds an ephemeral port.  This is what the
    tests and the throughput benchmark use to host a real TCP server
    inside one process.  ``config`` shapes the runtime (handler pool,
    transports, estimator workers); the default serves both transports
    in-process.
    """
    server = StatisticsServer(service, host, port, config=config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: Dict[str, BaseException] = {}

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # noqa: BLE001 -- surfaced to the caller
            failure["error"] = error
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, name="statistics-server", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("statistics server did not start in time")
    if "error" in failure:
        raise RuntimeError("statistics server failed to start") from failure["error"]
    return ServerHandle(server, loop, thread)
