"""Traced server launcher: ``repro serve`` with span-recording shims.

Usage (the benchmark runs it in place of ``python -m repro serve``)::

    python perfbench/traced_serve.py --spans-out spans.json serve DIR CATALOG ...

It wraps the public functions of each layer the benchmark reports with
shims that record ``(name, start, end, parent, request id, child time,
detail)`` per call, keeps the spans in memory (one list per thread), and
enters the same CLI ``main`` as ``python -m repro``.  When the server
shuts down the spans are written to ``--spans-out`` as JSON.  Nothing in
the program is modified on disk; the shims are installed in this
process only.

A span's parent is the innermost open span on the same thread, and its
request id is that of the outermost one, so a layer's self time is its
duration minus the time its children cover.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter_ns

_local = threading.local()
_threads: list = []  # every thread's span list
_threads_lock = threading.Lock()
_request_ids = itertools.count(1)


def _spans() -> list:
    spans = getattr(_local, "spans", None)
    if spans is None:
        spans = _local.spans = []
        _local.stack = []
        with _threads_lock:
            _threads.append((threading.get_ident(), spans))
    return spans


class _Span:
    """Context manager recording one span on the current thread."""

    __slots__ = ("name", "record")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> list:
        spans = _spans()
        stack = _local.stack
        if stack:
            parent = stack[-1]
            request_id = spans[parent][4]
        else:
            parent, request_id = -1, next(_request_ids)
        # [name, start_ns, end_ns, parent index, request id, child ns, detail]
        self.record = [self.name, 0, 0, parent, request_id, 0, None]
        spans.append(self.record)
        stack.append(len(spans) - 1)
        self.record[1] = perf_counter_ns()
        return self.record

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        record = self.record
        record[2] = end
        spans = _local.spans
        stack = _local.stack
        # A closed span becomes a tuple: the garbage collector stops
        # tracking it, so tens of thousands of kept spans do not make
        # every collection slower (that cost would land in the layers).
        spans[stack.pop()] = tuple(record)
        if stack:
            spans[stack[-1]][5] += end - record[1]


def _shim(name, func, detail=None):
    def wrapper(*args, **kwargs):
        with _Span(name) as record:
            result = func(*args, **kwargs)
            if detail is not None:
                record[6] = detail(args, kwargs, result)
            return result

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", name)
    wrapper.__doc__ = getattr(func, "__doc__", None)
    return wrapper


class _TimedContext:
    """Times the enter and exit halves of a context manager as spans."""

    __slots__ = ("_inner", "_name")

    def __init__(self, inner, name: str) -> None:
        self._inner = inner
        self._name = name

    def __enter__(self):
        with _Span(self._name):
            return self._inner.__enter__()

    def __exit__(self, *exc):
        with _Span(self._name):
            return self._inner.__exit__(*exc)


def _rows(args, kwargs, result):
    return int(result) if isinstance(result, int) else None


def _rows_inserted(args, kwargs, result):
    return int(result.get("inserted", 0)) if isinstance(result, dict) else None


def _handle_op(args, kwargs, result):
    return str(args[1].get("op") or "")


def _build_detail(args, kwargs, result):
    source = args[1].source
    freqs = getattr(source, "frequencies", None)
    return {
        "distinct": int(len(freqs)) if freqs is not None else 0,
        "counters": dict(result.counters),
    }


def install() -> None:
    """Wrap each reported layer's public functions with span shims."""
    from repro.core import compiled
    from repro.dictionary.ordered import OrderedDictionary
    from repro.engine.pipeline import BuildPipeline
    from repro.query.estimator import CardinalityEstimator
    from repro.service import audit, metrics, refresh, server, store

    def method(cls, attr, name, detail=None):
        setattr(cls, attr, _shim(name, getattr(cls, attr), detail))

    def function(module, attr, name):
        setattr(module, attr, _shim(name, getattr(module, attr)))

    method(OrderedDictionary, "encode_range_batch", "dictionary.encode_range_batch")
    plan = compiled.CompiledHistogram
    method(plan, "estimate_batch", "compiled.estimate_batch")
    method(plan, "patch", "compiled.patch")
    plan.compile = classmethod(_shim("compiled.compile", plan.compile.__func__))
    register = refresh.ColumnRegister
    method(register, "estimate", "refresh.register_estimate")
    method(register, "estimate_batch", "refresh.register_estimate")
    method(register, "insert_many", "refresh.insert_many", _rows)
    method(register, "delete_many", "refresh.delete_many", _rows)
    method(register, "failing_buckets", "refresh.failing_buckets")
    method(register, "repair", "refresh.repair")
    function(refresh, "repair_histogram", "repair.repair_histogram")
    method(CardinalityEstimator, "estimate", "estimator.estimate")
    service = server.StatisticsService
    method(service, "handle", "server.handle", _handle_op)
    method(service, "estimate_range_array", "server.estimate_range_array")
    method(service, "insert", "server.insert", _rows_inserted)
    method(service, "delete", "server.delete")
    method(service, "build", "server.build")
    for attr in ("audit_note", "audit_note_single"):
        method(service, attr, "server.bookkeeping")
    for attr in ("incr", "record_wire", "observe_wire_latency", "record_build_profile"):
        method(metrics.ServiceMetrics, attr, "server.bookkeeping")
    method(audit.AuditLedger, "record", "server.bookkeeping")
    track = metrics.ServiceMetrics.track
    metrics.ServiceMetrics.track = lambda self, op: _TimedContext(
        track(self, op), "server.bookkeeping"
    )
    function(server, "decode_line", "protocol.decode_line")
    function(server, "encode_line", "protocol.encode_line")
    function(server, "decode_range_batch", "frames.decode_range_batch")
    function(server, "encode_result_vector", "frames.encode_result_vector")
    function(server, "build_column_histograms", "parallel.build_column_histograms")
    method(BuildPipeline, "build", "engine.build", _build_detail)
    method(store.StatisticsStore, "put", "store.put")


def dump(path: Path) -> None:
    with _threads_lock:
        threads = [(ident, list(spans)) for ident, spans in _threads]
    path.write_text(json.dumps([{"thread": ident, "spans": spans} for ident, spans in threads]))


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: traced_serve.py --spans-out FILE serve ARGS...", file=sys.stderr)
        return 2
    out = Path(argv[1])
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
