"""Multi-process estimator fan-out over shared-memory plans.

:class:`EstimatorWorkerPool` runs N estimator processes behind the
asyncio front end.  Workers never compile, pickle or copy a plan: they
attach the segments a :class:`~repro.service.shm.SharedPlanDirectory`
published and answer code-range batches straight off the shared
``bucket_cdf``/segment tables with
:meth:`~repro.core.compiled.CompiledHistogram.estimate_batch`.

The command channel is one duplex pipe per worker:

* ``("plans", manifest)`` -- (re)attach the published plan set.  A
  generation bump republishes under a new segment name; the worker
  attaches the new segment, then closes its mapping of the old one
  (which the publisher already unlinked).  The worker acks with its
  attached count so the parent can block until a publish is visible
  everywhere.
* ``("estimate", distinct, table, column, c1s, c2s)`` -- one batch of
  *code* ranges (the front end translates values through the ordered
  dictionary), sent in the caller's dtype so ``int64`` codes reach the
  plan's per-code tables exactly as they do in process; the answer is
  ``("ok", values)`` or ``("error", message)``.
* ``("stop",)`` -- close all mappings and exit.

Dispatch is round-robin with a per-worker lock, so concurrent handler
threads interleave cleanly across the pool.  Any transport-level
failure (a dead worker, a broken pipe) raises :class:`WorkerPoolError`;
the server catches it and falls back to the in-process path, counting
the fallback -- an estimate request never fails because a worker died.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import NULL_JOURNAL
from repro.service.shm import attach_plan

__all__ = ["EstimatorWorkerPool", "WorkerPoolError"]

_Key = Tuple[str, str]


class WorkerPoolError(RuntimeError):
    """A worker could not answer (crashed, stopped, or reported failure)."""


def _worker_main(conn) -> None:
    """Estimator process body: attach shared plans, answer code batches."""
    # key -> (generation, plan, segment)
    plans: Dict[_Key, Tuple[int, object, object]] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "stop":
                break
            if kind == "plans":
                manifest = message[1]
                try:
                    fresh: Dict[_Key, Tuple[int, object, object]] = {}
                    for entry in manifest:
                        key = (str(entry["table"]), str(entry["column"]))
                        generation = int(entry["generation"])
                        current = plans.get(key)
                        if current is not None and current[0] == generation:
                            fresh[key] = current
                            continue
                        plan, segment = attach_plan(entry)
                        fresh[key] = (generation, plan, segment)
                    # Close mappings that were replaced or dropped.
                    for key, (generation, _, segment) in plans.items():
                        kept = fresh.get(key)
                        if kept is None or kept[2] is not segment:
                            segment.close()
                    plans = fresh
                    conn.send(("ok", len(plans)))
                except Exception as error:  # noqa: BLE001 -- reported to parent
                    conn.send(("error", f"{type(error).__name__}: {error}"))
                continue
            if kind == "estimate":
                _, distinct, table, column, c1s, c2s = message
                held = plans.get((table, column))
                if held is None:
                    conn.send(("error", f"no shared plan for {table}.{column}"))
                    continue
                try:
                    plan = held[1]
                    if distinct:
                        values = plan.estimate_distinct_batch(c1s, c2s)
                    else:
                        values = plan.estimate_batch(c1s, c2s)
                    conn.send(("ok", np.ascontiguousarray(values, dtype=np.float64)))
                except Exception as error:  # noqa: BLE001 -- reported to parent
                    conn.send(("error", f"{type(error).__name__}: {error}"))
                continue
            conn.send(("error", f"unknown worker command {kind!r}"))
    finally:
        for _, _, segment in plans.values():
            try:
                segment.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


class _Worker:
    """Parent-side handle: process + pipe + call lock."""

    __slots__ = ("process", "conn", "lock")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()

    def call(self, message) -> Tuple[str, object]:
        with self.lock:
            try:
                self.conn.send(message)
                return self.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as error:
                raise WorkerPoolError(
                    f"estimator worker pid={self.process.pid} is gone: {error}"
                ) from error


class EstimatorWorkerPool:
    """N estimator processes serving shared compiled plans.

    Parameters
    ----------
    n_workers:
        Pool width; must be >= 1 (a pool of 0 is "no pool" -- callers
        keep the in-process path instead).
    context:
        ``multiprocessing`` start-method context.  The default fork
        context shares the parent's resource-tracker and is the fast
        path on Linux; plans are *not* inherited through fork -- workers
        always attach by segment name, so spawn contexts work too.
    journal:
        Flight recorder; every :class:`WorkerPoolError` this pool
        raises (a dead worker, a rejected manifest, a reported
        estimate failure) emits one ``worker-fallback`` event, so the
        timeline shows *why* the server fell back in-process.
    """

    def __init__(
        self, n_workers: int, context: Optional[str] = None, journal=NULL_JOURNAL
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._ctx = multiprocessing.get_context(context)
        self._n_workers = n_workers
        self.journal = journal
        self._workers: List[_Worker] = []
        self._rr = itertools.count()
        self._served: Dict[_Key, int] = {}
        self._lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._workers:
            return
        # Make sure the shared-memory resource tracker exists *before*
        # forking: children then share the parent's tracker, so their
        # attach-side registrations land in the same idempotent set the
        # publisher's unlink clears.  A child forced to spawn its own
        # tracker would warn about "leaked" segments it never owned.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        for index in range(self._n_workers):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn,),
                name=f"repro-estimator-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(_Worker(process, parent_conn))

    def stop(self, timeout: float = 5.0) -> None:
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                with worker.lock:
                    worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in workers:
            worker.process.join(timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout)
            try:
                worker.conn.close()
            except OSError:
                pass
        with self._lock:
            self._served.clear()

    def __enter__(self) -> "EstimatorWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    # -- plan distribution ------------------------------------------------

    def publish(self, manifest: List[Dict[str, object]]) -> None:
        """Push a plan manifest to every worker; blocks until all ack.

        After this returns, every worker answers from the published
        generations -- the barrier the generation-bump tests rely on.
        """
        if not self._workers:
            raise WorkerPoolError("worker pool is not started")
        for worker in self._workers:
            try:
                status, payload = worker.call(("plans", manifest))
            except WorkerPoolError as error:
                self.journal.emit("worker-fallback", stage="publish", error=str(error))
                raise
            if status != "ok":
                self.journal.emit(
                    "worker-fallback", stage="publish", error=str(payload)
                )
                raise WorkerPoolError(f"worker rejected plan manifest: {payload}")
        with self._lock:
            self._served = {
                (str(entry["table"]), str(entry["column"])): int(entry["generation"])
                for entry in manifest
            }

    def serves(self, table: str, column: str) -> bool:
        with self._lock:
            return (table, column) in self._served

    def served_generation(self, table: str, column: str) -> Optional[int]:
        with self._lock:
            return self._served.get((table, column))

    # -- estimation -------------------------------------------------------

    def estimate(
        self,
        table: str,
        column: str,
        c1s: np.ndarray,
        c2s: np.ndarray,
        distinct: bool = False,
    ) -> np.ndarray:
        """One code-range batch answered by the next worker in line."""
        if not self._workers:
            raise WorkerPoolError("worker pool is not started")
        worker = self._workers[next(self._rr) % len(self._workers)]
        try:
            status, payload = worker.call(
                (
                    "estimate",
                    bool(distinct),
                    table,
                    column,
                    np.ascontiguousarray(c1s),
                    np.ascontiguousarray(c2s),
                )
            )
        except WorkerPoolError as error:
            self.journal.emit(
                "worker-fallback",
                stage="estimate",
                table=table,
                column=column,
                error=str(error),
            )
            raise
        if status != "ok":
            self.journal.emit(
                "worker-fallback",
                stage="estimate",
                table=table,
                column=column,
                error=str(payload),
            )
            raise WorkerPoolError(str(payload))
        return payload  # type: ignore[return-value]
