"""Per-layer metrics from a traced window.

Inputs are the server's spans (written by ``traced_serve.py`` when the
server shuts down), the load generator's own timings of the same window
(client-side call spans), and the counters the ``metrics`` op returned.
A layer's self time is the sum over its spans of duration minus the
time covered by child spans on the same thread.  Layers a workload does
not exercise report 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

Metric = Tuple[float, str, int]  # value, unit, sample count

# Server ops whose client round trip ``wire.json.rtt_minus_handle_us``
# compares with the server's ``handle()`` span for the same op.
TIMED_JSON_OPS = ("estimate", "insert", "delete", "build")


class Layer:
    __slots__ = ("calls", "total_ns", "self_ns", "details")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.details: list = []


# Outermost spans of a request's path through the server; a span whose
# outermost ancestor is none of these ran on another thread for other
# work (pool builds, the refresh scheduler).
REQUEST_ROOTS = frozenset(
    (
        "server.handle",
        "server.estimate_range_array",
        "server.bookkeeping",
        "protocol.decode_line",
        "protocol.encode_line",
        "frames.decode_range_batch",
        "frames.encode_result_vector",
    )
)


def load_spans(path: Path) -> List[list]:
    """Every span, each extended with the name of its outermost ancestor."""
    spans = []
    for thread in json.loads(path.read_text()):
        records = thread["spans"]
        roots: List[str] = []
        for record in records:
            parent = record[3]
            roots.append(record[0] if parent < 0 else roots[parent])
            spans.append(list(record) + [roots[-1]])
    return spans


def aggregate(spans: List[list]) -> Dict[str, Layer]:
    layers: Dict[str, Layer] = defaultdict(Layer)
    for name, start, end, _parent, _request, child_ns, detail, _root in spans:
        if end == 0:
            continue  # still open at shutdown
        layer = layers[name]
        layer.calls += 1
        layer.total_ns += end - start
        layer.self_ns += end - start - child_ns
        if detail is not None:
            layer.details.append(detail)
    return layers


def handle_ns_by_op(spans: List[list]) -> Dict[str, List[int]]:
    by_op: Dict[str, List[int]] = defaultdict(list)
    for name, start, end, _parent, _request, _child, detail, _root in spans:
        if name == "server.handle" and end:
            by_op[detail].append(end - start)
    return by_op


def pool_efficiency(spans: List[list]) -> Tuple[float, int]:
    """Sum of per-column builds inside ``build_column_histograms`` over
    its wall time."""
    pools = [(s[1], s[2]) for s in spans if s[0] == "parallel.build_column_histograms" and s[2]]
    if not pools:
        return 0.0, 0
    busy = 0
    for name, start, end, *_ in spans:
        if name == "engine.build" and end and any(a <= start and end <= b for a, b in pools):
            busy += end - start
    return busy / sum(b - a for a, b in pools), len(pools)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans_path: Path, run, overhead_frac: float) -> Dict[str, Metric]:
    spans = load_spans(spans_path)
    layers = aggregate(spans)
    out: Dict[str, Metric] = {}

    def self_per_call(key: str, name: str, scale: float, unit: str) -> None:
        layer = layers.get(name) or Layer()
        value = layer.self_ns / layer.calls / scale if layer.calls else 0.0
        out[key] = (value, unit, layer.calls)

    def us(name):
        self_per_call(f"{name}.self_us", name, 1e3, "us")

    def ms(name):
        self_per_call(f"{name}.self_ms", name, 1e6, "ms")

    us("dictionary.encode_range_batch")
    us("compiled.estimate_batch")
    ms("compiled.compile")
    ms("compiled.patch")
    us("refresh.register_estimate")
    for name in ("refresh.insert_many", "refresh.delete_many"):
        layer = layers.get(name) or Layer()
        rows = sum(d for d in layer.details if d)
        value = layer.self_ns / 1e3 / (rows / 1e3) if rows else 0.0
        out[f"{name}.self_us_per_krow"] = (value, "us/krow", layer.calls)
    ms("refresh.failing_buckets")
    ms("refresh.repair")
    ms("repair.repair_histogram")
    us("estimator.estimate")
    us("server.handle")
    requests = layers["server.handle"].calls + layers["server.estimate_range_array"].calls
    bookkeeping = layers.get("server.bookkeeping") or Layer()
    out["server.bookkeeping_us"] = (
        bookkeeping.self_ns / 1e3 / requests if requests else 0.0, "us", requests
    )
    us("server.estimate_range_array")
    us("server.insert")
    ms("server.build")
    for name in (
        "protocol.decode_line",
        "protocol.encode_line",
        "frames.decode_range_batch",
        "frames.encode_result_vector",
    ):
        layer = layers.get(name) or Layer()
        out[f"{name}.us"] = (layer.self_ns / 1e3 / layer.calls if layer.calls else 0.0, "us", layer.calls)

    # Everything outside the server's own span: socket, event loop,
    # executor hop, client library.
    by_op = handle_ns_by_op(spans)
    json_ops = [op for op in TIMED_JSON_OPS if not (op == "estimate" and run.workload != "point")]
    if run.workload == "build":
        # The maintenance probe's ingest ops are not timed by the client.
        json_ops = ["build"]
    weighted, calls = 0.0, 0
    for op in json_ops:
        client = run.lat_ns.get(op, [])
        server = by_op.get(op, [])
        if client and server:
            weighted += len(client) * (_mean(client) - _mean(server))
            calls += len(client)
    out["wire.json.rtt_minus_handle_us"] = (weighted / calls / 1e3 if calls else 0.0, "us", calls)
    array = layers.get("server.estimate_range_array") or Layer()
    frames = run.lat_ns.get("estimate", []) if run.workload != "point" else []
    out["wire.binary.rtt_minus_array_us"] = (
        (_mean(frames) - array.total_ns / array.calls) / 1e3 if frames and array.calls else 0.0,
        "us",
        len(frames),
    )
    json_preds = run.preds if run.workload == "point" else 0
    binary_preds = run.preds - json_preds
    for transport, preds in (("json", json_preds), ("binary", binary_preds)):
        moved = run.wire[f"{transport}.bytes_in"] + run.wire[f"{transport}.bytes_out"]
        out[f"wire.bytes_per_pred.{transport}"] = (moved / preds if preds else 0.0, "B", preds)

    engine = layers.get("engine.build") or Layer()
    ms("engine.build")
    distinct = sum(d["distinct"] for d in engine.details)
    out["engine.us_per_distinct"] = (
        engine.self_ns / 1e3 / distinct if distinct else 0.0, "us", engine.calls
    )
    efficiency, pools = pool_efficiency(spans)
    out["parallel.pool_efficiency"] = (efficiency, "frac", pools)
    ms("store.put")

    counters: Dict[str, int] = defaultdict(int)
    for detail in engine.details:
        for key, value in detail["counters"].items():
            counters[key] += value
    table_builds = layers["server.build"].calls
    probes = counters["search_probes"]
    out["engine.search_probes"] = (
        probes / table_builds if table_builds else 0.0, "count", table_builds
    )
    resolved = counters["oracle_certified"] + counters["oracle_refuted"]
    out["engine.oracle_resolved_frac"] = (resolved / probes if probes else 0.0, "frac", probes)
    hits, tests = counters["acceptance_cache_hits"], counters["acceptance_tests"]
    out["engine.acceptance_cache_hit_frac"] = (
        hits / (hits + tests) if hits + tests else 0.0, "frac", hits + tests
    )
    out["engine.buckets"] = (
        counters["buckets"] / table_builds if table_builds else 0.0, "count", table_builds
    )

    repairs = run.counters["repairs"]
    rebuilds = run.counters["rebuilds_triggered"]
    out["refresh.repairs"] = (float(repairs), "count", 1)
    out["refresh.rebuilds_escalated"] = (float(run.counters["rebuilds_escalated"]), "count", 1)
    out["refresh.repair_frac"] = (
        repairs / (repairs + rebuilds) if repairs + rebuilds else 0.0, "frac", repairs + rebuilds
    )
    out["trace.overhead_frac"] = (overhead_frac, "frac", 2)
    return out


def share_table(spans_path: Path, loop: Tuple[int, int, int]) -> List[str]:
    """Self time per layer inside the main load loop.

    Request-path layers are shown as a share of the client's busy time
    over the loop; layers on other threads (pool builds, the refresh
    scheduler) as busy time per second of the loop's wall time.
    """
    start, end, client_ns = loop
    spans = [s for s in load_spans(spans_path) if s[2] and start <= s[1] and s[2] <= end]
    on_path = aggregate([s for s in spans if s[7] in REQUEST_ROOTS])
    elsewhere = aggregate([s for s in spans if s[7] not in REQUEST_ROOTS])
    lines = [f"{'request path (main loop)':<36} {'calls':>8} {'self ms':>10} {'share':>7}"]
    for name, layer in sorted(on_path.items(), key=lambda item: -item[1].self_ns):
        share = layer.self_ns / client_ns if client_ns else 0.0
        lines.append(f"{name:<36} {layer.calls:>8} {layer.self_ns / 1e6:>10.1f} {share:>7.1%}")
    outside = client_ns - sum(layer.self_ns for layer in on_path.values())
    share = outside / client_ns if client_ns else 0.0
    lines.append(f"{'(client, socket, loop, executor hop)':<36} {'':>8} {outside / 1e6:>10.1f} {share:>7.1%}")
    lines.append(f"{'other threads (main loop)':<36} {'calls':>8} {'self ms':>10} {'busy':>7}")
    for name, layer in sorted(elsewhere.items(), key=lambda item: -item[1].self_ns):
        busy = layer.self_ns / (end - start)
        lines.append(f"{name:<36} {layer.calls:>8} {layer.self_ns / 1e6:>10.1f} {busy:>7.1%}")
    return lines
