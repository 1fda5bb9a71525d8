"""Wire-path throughput: binary frames + fan-out vs JSON lines.

Two acceptance bars from the runtime rearchitecture:

* **batch throughput** -- the binary array transport must move
  ``estimate_batch`` predicates at >= 2x the JSON-lines rate measured
  in the same run (and is compared against the recorded
  ``BENCH_service.json`` baseline for the cross-PR trajectory).  Same
  predicates, same server, same batch size; the only variable is the
  wire format.
* **idle connections** -- the server must sustain at least 10x
  ``handler_threads`` open-but-idle connections while still answering
  requests promptly.  A connection that has sent nothing waits on the
  event loop and holds no thread; a JSON-lines connection gets its own
  thread only from its first byte, and binary frames share the
  ``handler_threads`` executor.

The assertions are armed by ``REPRO_BENCH_ASSERT_WIRE=1`` (the
``make bench-wire`` / ``make smoke`` path) so tier-1 never flakes on
timer noise.
"""

import json
import os
import socket
import time
from pathlib import Path

import numpy as np

from repro.dictionary.column import DictionaryEncodedColumn
from repro.dictionary.table import Table
from repro.experiments.report import format_table
from repro.service.client import BinaryStatisticsClient, StatisticsClient
from repro.service.config import ServiceConfig
from repro.service.server import StatisticsService, start_server_thread

ASSERT_WIRE = os.environ.get("REPRO_BENCH_ASSERT_WIRE", "") == "1"
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

N_ROWS = 50_000 if FULL else 4_000
N_PREDICATES = 10_000 if FULL else 2_000
BATCH_SIZE = 50  # matches the BENCH_service.json baseline batch size
HANDLER_THREADS = 8
IDLE_FLOOR_FACTOR = 10

BASELINE_PATH = Path(__file__).parent / "results" / "BENCH_service.json"


def _service(tmp_path):
    rng = np.random.default_rng(7)
    table = Table("bench")
    table.add_column(
        DictionaryEncodedColumn.from_values(
            rng.zipf(1.4, size=N_ROWS).clip(max=2_000), name="amount"
        )
    )
    service = StatisticsService(tmp_path / "catalog", seed=7)
    service.add_table(table)
    return service


def _baseline_batch_rate():
    try:
        recorded = json.loads(BASELINE_PATH.read_text())
        return float(recorded["estimate_batch_speedup"]["batch_per_second"])
    except (OSError, ValueError, KeyError):
        return None


def test_wire_batch_throughput(tmp_path, emit, emit_json):
    service = _service(tmp_path)
    rng = np.random.default_rng(17)
    lows = rng.integers(1, 1_500, size=N_PREDICATES).astype(float)
    highs = lows + 100

    handle = start_server_thread(
        service, config=ServiceConfig(handler_threads=HANDLER_THREADS)
    )
    try:
        address = handle.address
        with StatisticsClient(*address) as json_client:
            json_client.estimate_range_batch(
                "bench", "amount", lows[:8], highs[:8]
            )  # warm the plan cache off the clock
            start = time.perf_counter()
            json_values = []
            for offset in range(0, N_PREDICATES, BATCH_SIZE):
                chunk = json_client.estimate_range_batch(
                    "bench",
                    "amount",
                    lows[offset : offset + BATCH_SIZE],
                    highs[offset : offset + BATCH_SIZE],
                )
                json_values.extend(estimate.value for estimate in chunk)
            json_elapsed = time.perf_counter() - start

        with BinaryStatisticsClient(*address) as binary_client:
            binary_client.estimate_range_batch("bench", "amount", lows[:8], highs[:8])
            start = time.perf_counter()
            binary_values = []
            for offset in range(0, N_PREDICATES, BATCH_SIZE):
                binary_values.append(
                    binary_client.estimate_range_batch(
                        "bench",
                        "amount",
                        lows[offset : offset + BATCH_SIZE],
                        highs[offset : offset + BATCH_SIZE],
                    )
                )
            binary_elapsed = time.perf_counter() - start

            # Pipelined: every batch in flight before the first read.
            # The server dispatches frames concurrently, so responses
            # may interleave; the echoed frame id restores the order.
            start = time.perf_counter()
            frame_order = []
            for offset in range(0, N_PREDICATES, BATCH_SIZE):
                frame_order.append(
                    binary_client.send_range_batch(
                        "bench",
                        "amount",
                        lows[offset : offset + BATCH_SIZE],
                        highs[offset : offset + BATCH_SIZE],
                    )
                )
            by_id = {}
            for _ in frame_order:
                header, values = binary_client.recv_result_vector()
                by_id[header["id"]] = values
            pipelined_values = [by_id[frame_id] for frame_id in frame_order]
            pipelined_elapsed = time.perf_counter() - start
    finally:
        handle.stop()

    # All three paths answer the same predicates identically.
    binary_flat = np.concatenate(binary_values)
    np.testing.assert_allclose(binary_flat, json_values, rtol=1e-9)
    np.testing.assert_allclose(np.concatenate(pipelined_values), json_values, rtol=1e-9)

    # Bytes moved per predicate, per transport (the binary client made
    # two passes over the same predicates: request/response + pipelined).
    wire = service.metrics.wire_snapshot()["transports"]
    served = {"json": N_PREDICATES, "binary": 2 * N_PREDICATES}
    bytes_per_predicate = {
        transport: (counts["bytes_in"] + counts["bytes_out"]) / served[transport]
        for transport, counts in wire.items()
        if transport in served
    }

    json_rps = N_PREDICATES / json_elapsed
    binary_rps = N_PREDICATES / binary_elapsed
    pipelined_rps = N_PREDICATES / pipelined_elapsed
    speedup = binary_rps / json_rps
    pipelined_speedup = pipelined_rps / json_rps
    baseline = _baseline_batch_rate()

    rows = [
        [
            "json-lines estimate_batch",
            f"{json_rps:,.0f}",
            "1.0x",
            f"{bytes_per_predicate.get('json', 0):,.0f}",
        ],
        [
            "binary estimate_batch",
            f"{binary_rps:,.0f}",
            f"{speedup:.1f}x",
            f"{bytes_per_predicate.get('binary', 0):,.0f}",
        ],
        [
            "binary pipelined",
            f"{pipelined_rps:,.0f}",
            f"{pipelined_speedup:.1f}x",
            f"{bytes_per_predicate.get('binary', 0):,.0f}",
        ],
    ]
    if baseline is not None:
        rows.append(["BENCH_service.json baseline", f"{baseline:,.0f}", "--", "--"])
    emit(
        "wire_throughput",
        format_table(["path", "predicates/sec", "speedup", "bytes/pred"], rows),
    )
    emit_json(
        "wire",
        {
            "batch_throughput": {
                "n_predicates": int(N_PREDICATES),
                "batch_size": BATCH_SIZE,
                "json_per_second": json_rps,
                "binary_per_second": binary_rps,
                "binary_pipelined_per_second": pipelined_rps,
                "speedup_vs_json": speedup,
                "pipelined_speedup_vs_json": pipelined_speedup,
                "baseline_batch_per_second": baseline,
                "bytes_per_predicate": bytes_per_predicate,
                "floor": 2.0,
            }
        },
    )

    assert speedup > 1.0
    assert service.metrics.snapshot()["errors"] == {}
    if ASSERT_WIRE:
        best = max(speedup, pipelined_speedup)
        assert best >= 2.0, (
            f"binary wire path regressed: {best:.2f}x < 2x JSON-lines floor"
        )
        if baseline is not None:
            best_rps = max(binary_rps, pipelined_rps)
            assert best_rps >= 2.0 * baseline, (
                f"binary path {best_rps:,.0f}/s < 2x recorded baseline "
                f"{baseline:,.0f}/s"
            )


def test_idle_connection_capacity(tmp_path, emit, emit_json):
    """Hold 10x handler_threads idle connections; the server stays live."""
    service = _service(tmp_path)
    target = IDLE_FLOOR_FACTOR * HANDLER_THREADS
    handle = start_server_thread(
        service, config=ServiceConfig(handler_threads=HANDLER_THREADS)
    )
    idle = []
    try:
        for _ in range(target):
            sock = socket.create_connection(handle.address, timeout=5.0)
            idle.append(sock)
        # With every idle connection open, a working client still gets
        # prompt answers on both transports.
        start = time.perf_counter()
        with StatisticsClient(*handle.address) as client:
            assert client.ping()
        with BinaryStatisticsClient(*handle.address) as client:
            assert client.ping()
        probe_seconds = time.perf_counter() - start
    finally:
        for sock in idle:
            sock.close()
        handle.stop()

    emit(
        "wire_idle_connections",
        format_table(
            ["metric", "value"],
            [
                ["handler threads", str(HANDLER_THREADS)],
                ["idle connections held", str(len(idle))],
                ["probe round-trips (s)", f"{probe_seconds:.3f}"],
            ],
        ),
    )
    emit_json(
        "wire",
        {
            "idle_connections": {
                "handler_threads": HANDLER_THREADS,
                "held": len(idle),
                "floor_factor": IDLE_FLOOR_FACTOR,
                "probe_seconds": probe_seconds,
            }
        },
    )

    assert len(idle) >= target
    if ASSERT_WIRE:
        assert len(idle) >= IDLE_FLOOR_FACTOR * HANDLER_THREADS
        assert probe_seconds < 5.0
