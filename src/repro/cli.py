"""Command-line interface: build, inspect, query and serve histograms.

Usage::

    python -m repro build column.npy histogram.bin --kind V8DincB --q 2
    python -m repro build-table data_dir/ catalog_dir/ --table orders --workers 8
    python -m repro inspect histogram.bin
    python -m repro estimate histogram.bin 100 5000
    python -m repro analyze column.npy
    python -m repro serve data_dir/ catalog_dir/ --table orders --port 7443
    python -m repro serve data_dir/ catalog_dir/ --workers 4 --transport binary
    python -m repro query localhost:7443 --table orders --column amount 100 5000
    python -m repro query localhost:7443 --table orders --column amount 100 5000 --binary
    python -m repro query localhost:7443 --status
    python -m repro ingest localhost:7443 --table orders --column amount --rows 20000
    python -m repro metrics localhost:7443 --prometheus
    python -m repro slowlog localhost:7443 --limit 10

Column input formats:

* ``.npy`` -- a 1-d numpy array of raw (numeric) column values;
* ``.csv`` / ``.txt`` -- one numeric value per line (header lines that do
  not parse as numbers are skipped).
"""

from __future__ import annotations

import argparse
import sys
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.builder import HISTOGRAM_KINDS
from repro.core.config import HistogramConfig
from repro.core.histogram import Histogram
from repro.core.serialize import deserialize_histogram, serialize_histogram
from repro.core.transfer import exact_total_guarantee
from repro.dictionary.column import DictionaryEncodedColumn
from repro.engine import DEFAULT_PIPELINE, BuildRequest
from repro.experiments.report import format_table

__all__ = ["main", "load_column_values"]

# Histograms already deserialized by this process, keyed by (path,
# mtime, size) so an on-disk update is picked up.  ``estimate`` and
# ``inspect`` are frequently driven programmatically in a loop over one
# file (tests, notebooks); the cache turns every call after the first
# into a dictionary lookup.
_LOAD_CACHE_CAPACITY = 8
_load_cache: "OrderedDict[Tuple[str, int, int], Histogram]" = OrderedDict()


def _load_histogram(path: Path) -> Histogram:
    """Deserialize a histogram file with an in-memory LRU cache."""
    stat = path.stat()
    key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size)
    histogram = _load_cache.get(key)
    if histogram is None:
        histogram = deserialize_histogram(path.read_bytes())
        _load_cache[key] = histogram
        while len(_load_cache) > _LOAD_CACHE_CAPACITY:
            _load_cache.popitem(last=False)
    else:
        _load_cache.move_to_end(key)
    return histogram


def load_column_values(path: Path) -> np.ndarray:
    """Load raw column values from a .npy or line-per-value text file."""
    if not path.exists():
        raise FileNotFoundError(path)
    if path.suffix == ".npy":
        values = np.load(path)
        if values.ndim != 1:
            raise ValueError(f"{path}: expected a 1-d array, got shape {values.shape}")
        return values
    rows: List[float] = []
    with open(path) as handle:
        for line in handle:
            token = line.strip().split(",")[0]
            if not token:
                continue
            try:
                rows.append(float(token))
            except ValueError:
                continue  # header or junk line
    if not rows:
        raise ValueError(f"{path}: no numeric values found")
    return np.asarray(rows)


def _config_from_args(args: argparse.Namespace) -> HistogramConfig:
    return HistogramConfig(q=args.q, theta=args.theta)


def _profile_sidecar(histogram_path: Path) -> Path:
    """Where ``build --profile`` parks its profile for later ``inspect``."""
    return histogram_path.with_name(histogram_path.name + ".profile.json")


def _cmd_build(args: argparse.Namespace) -> int:
    values = load_column_values(Path(args.input))
    column = DictionaryEncodedColumn.from_values(values, name=Path(args.input).stem)
    result = DEFAULT_PIPELINE.build(
        BuildRequest(
            source=column,
            kind=args.kind,
            config=_config_from_args(args),
            trace=args.profile,
        )
    )
    histogram = result.histogram
    data = serialize_histogram(histogram)
    Path(args.output).write_bytes(data)
    ratio = 100.0 * histogram.size_bytes() / column.compressed_size_bytes()
    print(
        f"built {histogram.kind}: {len(histogram)} buckets, "
        f"{histogram.size_bytes()} bytes ({ratio:.2f}% of compressed column), "
        f"theta={histogram.theta:g}, q={histogram.q:g}"
    )
    print(f"wrote {len(data)} bytes to {args.output}")
    if args.profile:
        import json

        print()
        print(result.trace.format())
        print()
        print(result.format_phases())
        sidecar = _profile_sidecar(Path(args.output))
        sidecar.write_text(json.dumps(result.profile(), indent=2, sort_keys=True))
        print(f"profile: {sidecar}")
    return 0


def _load_table(source: Path, name: str):
    """A ``Table`` from a directory of column files (or one file)."""
    from repro.dictionary.table import Table

    if source.is_dir():
        files = sorted(
            path
            for path in source.iterdir()
            if path.suffix in (".npy", ".csv", ".txt")
        )
    else:
        files = [source]
    if not files:
        raise ValueError(f"{source}: no column files (.npy/.csv/.txt) found")
    table = Table(name)
    for path in files:
        values = load_column_values(path)
        table.add_column(DictionaryEncodedColumn.from_values(values, name=path.stem))
    return table


def _cmd_build_table(args: argparse.Namespace) -> int:
    import time

    from repro.core.catalog import StatisticsCatalog
    from repro.core.parallel import build_table_histograms, default_workers

    table = _load_table(Path(args.input), args.table)
    catalog = StatisticsCatalog(Path(args.catalog))
    workers = args.workers if args.workers else default_workers()
    profiles: "OrderedDict[str, dict]" = OrderedDict()
    sink = None
    if args.profile:
        sink = lambda name, profile: profiles.__setitem__(name, profile)  # noqa: E731
    start = time.perf_counter()
    histograms = build_table_histograms(
        table,
        config=_config_from_args(args),
        kind=args.kind,
        max_workers=workers,
        executor=args.executor,
        catalog=catalog,
        phase_sink=sink,
    )
    elapsed = time.perf_counter() - start
    skipped = len(table) - len(histograms)
    print(
        f"built {len(histograms)} {args.kind} histograms for table "
        f"{args.table!r} in {elapsed * 1e3:.1f} ms "
        f"({args.executor} x{workers})"
    )
    if skipped:
        print(f"skipped {skipped} unworthy column(s) (tiny domain or unique key)")
    print(f"catalog: {catalog.root} ({len(catalog)} entries, {catalog.size_bytes()} bytes)")
    if args.profile and profiles:
        phases: "OrderedDict[str, float]" = OrderedDict()
        counters: "OrderedDict[str, int]" = OrderedDict()
        for profile in profiles.values():
            for name, seconds in (profile.get("phases") or {}).items():
                phases[name] = phases.get(name, 0.0) + float(seconds)
            for name, amount in (profile.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + int(amount)
        print(f"phase totals across {len(profiles)} builds:")
        for name, seconds in sorted(phases.items(), key=lambda item: -item[1]):
            print(f"  {name:<20} {seconds * 1e3:10.3f} ms")
        if counters:
            rendered = "  ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            print(f"  counters: {rendered}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    histogram = _load_histogram(Path(args.histogram))
    print(f"kind:    {histogram.kind}")
    print(f"domain:  {histogram.domain}")
    print(f"buckets: {len(histogram)}")
    print(f"range:   [{histogram.lo:g}, {histogram.hi:g})")
    print(f"size:    {histogram.size_bytes()} bytes (packed accounting)")
    print(f"inner:   theta={histogram.theta:g}, q={histogram.q:g}")
    try:
        theta_out, q_out = exact_total_guarantee(histogram.theta, histogram.q, 4)
        print(
            f"guarantee (Cor. 5.3, k=4): estimates within factor {q_out:g} "
            f"whenever truth or estimate exceeds {theta_out:g} "
            "(plus bounded compression slack)"
        )
    except ValueError:
        pass
    sidecar = _profile_sidecar(Path(args.histogram))
    if sidecar.exists():
        import json

        profile = json.loads(sidecar.read_text())
        print(f"build profile ({profile.get('kind', '?')}, from {sidecar.name}):")
        print(f"  total                {float(profile.get('seconds', 0.0)) * 1e3:10.3f} ms")
        for name, seconds in sorted(
            (profile.get("phases") or {}).items(), key=lambda item: -item[1]
        ):
            print(f"  {name:<20} {float(seconds) * 1e3:10.3f} ms")
        counters = profile.get("counters") or {}
        if counters:
            rendered = "  ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            print(f"  counters: {rendered}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    histogram = _load_histogram(Path(args.histogram))
    if args.batch is not None:
        pairs = []
        for line_no, line in enumerate(
            Path(args.batch).read_text().splitlines(), start=1
        ):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                if len(parts) != 2:
                    raise ValueError
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise SystemExit(
                    f"{args.batch}:{line_no}: expected 'low high', got {line!r}"
                )
        lows = np.asarray([p[0] for p in pairs])
        highs = np.asarray([p[1] for p in pairs])
        for value in histogram.estimate_batch(lows, highs):
            print(f"{value:.6g}")
    else:
        if args.low is None or args.high is None:
            raise SystemExit("provide LOW and HIGH, or --batch FILE")
        estimate = histogram.estimate(args.low, args.high)
        print(f"{estimate:.6g}")
    if args.profile:
        plan = histogram.plan()
        if plan is None:
            print("plan: none (interpreted path; bucket type not compilable)")
        else:
            stats = plan.stats()
            print(
                f"plan: {stats['buckets']} buckets, {stats['cells']} cells, "
                f"compiled in {stats['compile_seconds'] * 1e3:.3f} ms, "
                f"{stats['layout_decodes']} layout decodes, "
                f"distinct={'yes' if stats['supports_distinct'] else 'no'}"
            )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.core.density import AttributeDensity
    from repro.experiments.validate import certify

    values = load_column_values(Path(args.input))
    column = DictionaryEncodedColumn.from_values(values, name=Path(args.input).stem)
    histogram = DEFAULT_PIPELINE.build(
        BuildRequest(source=column, kind=args.kind, config=_config_from_args(args))
    ).histogram
    report = certify(
        histogram,
        AttributeDensity.from_column(column),
        k=args.k,
        n_samples=args.samples,
    )
    print(report)
    mode = "exhaustive" if report.exhaustive else f"sampled ({report.n_queries} queries)"
    print(f"query enumeration: {mode}")
    return 0 if report.passed else 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    values = load_column_values(Path(args.input))
    column = DictionaryEncodedColumn.from_values(values, name=Path(args.input).stem)
    print(
        f"column: {column.n_rows} rows, {column.n_distinct} distinct, "
        f"{column.compressed_size_bytes()} compressed bytes"
    )
    config = _config_from_args(args)
    profile = getattr(args, "profile", False)
    rows = []
    for kind in HISTOGRAM_KINDS:
        result = DEFAULT_PIPELINE.build(
            BuildRequest(source=column, kind=kind, config=config, trace=profile)
        )
        histogram = result.histogram
        row = [
            kind,
            len(histogram),
            histogram.size_bytes(),
            f"{100.0 * histogram.size_bytes() / column.compressed_size_bytes():.2f}",
            f"{result.seconds * 1e3:.1f}",
        ]
        if profile:
            row.append(result.counters.get("acceptance_tests", 0))
            row.append(f"{result.phases.get('acceptance_tests', 0.0) * 1e3:.1f}")
        rows.append(row)
    headers = ["kind", "buckets", "bytes", "% of column", "build ms"]
    if profile:
        headers += ["accept tests", "accept ms"]
    print(format_table(headers, rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.parallel import shutdown_build_pools
    from repro.service.config import ServiceConfig
    from repro.service.refresh import RefreshScheduler
    from repro.service.server import StatisticsServer, StatisticsService
    from repro.service.telemetry import ServiceTelemetry

    table = _load_table(Path(args.input), args.table)
    telemetry = ServiceTelemetry(
        trace_requests=not args.no_trace,
        slow_ms=args.slow_ms,
        event_log=args.log_events,
    )
    service = StatisticsService(
        Path(args.catalog),
        kind=args.kind,
        config=_config_from_args(args),
        cache_capacity=args.cache_capacity,
        build_workers=args.build_workers or None,
        telemetry=telemetry,
    )
    built = service.add_table(table)
    print(
        f"table {args.table!r}: {built['built']} histograms, "
        f"{built['exact']} exact-count columns"
    )
    scheduler = RefreshScheduler(
        service.store,
        service.registry,
        threshold=args.staleness_threshold,
        interval=args.refresh_interval,
        kind=args.kind,
        config=service.config,
        metrics=service.metrics,
        drift=service.drift,
        repair=not args.no_repair,
        escalate_fraction=args.escalate_fraction,
        journal=service.journal,
        on_anomaly=lambda reason, event: service.freeze_bundle(reason, **event),
    )
    scheduler.start()
    runtime = ServiceConfig(
        handler_threads=args.handler_threads,
        estimator_workers=args.workers,
        transport=args.transport,
        max_inflight=args.max_inflight,
        drain_grace=args.drain_grace,
    )
    server = StatisticsServer(
        service, host=args.host, port=args.port, config=runtime
    )

    async def _serve() -> None:
        import signal

        await server.start()
        host, port = server.address
        # Graceful SIGTERM/SIGINT: stop accepting, stop the worker pools,
        # unlink shared-plan segments -- a supervisor's `kill` cleans up
        # immediately instead of leaning on the next startup sweep.
        # Installed before the address is announced, so a signal sent
        # the moment a wrapper sees it is handled, not fatal.
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, OSError, RuntimeError):
                pass
        # Flush so wrappers watching a pipe see the address immediately.
        print(
            f"serving statistics on {host}:{port} "
            f"(transport={runtime.transport}, "
            f"handlers={runtime.handler_threads}, "
            f"estimator workers={runtime.estimator_workers}; ctrl-c to stop)",
            flush=True,
        )
        try:
            await stop_requested.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        print("shutting down", flush=True)
        scheduler.stop()
        service.close()
        shutdown_build_pools()
    return 0


def _parse_address(address: str):
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import StatisticsClient
    from repro.service.export import render_prometheus

    host, port = _parse_address(args.address)
    with StatisticsClient(host, port, timeout=args.timeout) as client:
        snapshot = client.metrics()
    if args.prometheus:
        print(render_prometheus(snapshot), end="")
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_slowlog(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import StatisticsClient

    host, port = _parse_address(args.address)
    with StatisticsClient(host, port, timeout=args.timeout) as client:
        entries = client.slow_log(limit=args.limit)
    if not entries:
        print("slow log is empty")
        return 0
    for entry in entries:
        print(json.dumps(entry, sort_keys=True))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import BinaryStatisticsClient, StatisticsClient

    host, port = _parse_address(args.address)
    client_cls = BinaryStatisticsClient if args.binary else StatisticsClient
    with client_cls(host, port, timeout=args.timeout) as client:
        if args.status:
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.table is None or args.column is None:
            raise ValueError("--table and --column are required for an estimate")
        if args.low is None or args.high is None:
            raise ValueError("provide LOW and HIGH for an estimate")
        if args.binary:
            values = client.estimate_range_batch(
                args.table, args.column, [args.low], [args.high]
            )
            print(f"{float(values[0]):.6g} (binary)")
        else:
            estimate = client.estimate_range(
                args.table, args.column, args.low, args.high
            )
            print(f"{estimate.value:.6g} ({estimate.method})")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import BinaryStatisticsClient, StatisticsClient

    host, port = _parse_address(args.address)
    client_cls = BinaryStatisticsClient if args.binary else StatisticsClient
    with client_cls(host, port, timeout=args.timeout) as client:
        report = client.explain_range(args.table, args.column, args.low, args.high)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    provenance = report["provenance"]
    print(f"{report['value']:.6g} ({report['method']})")
    for key in (
        "table",
        "column",
        "generation",
        "plan",
        "via",
        "code_range",
        "bucket_span",
        "certified_q",
        "theta",
        "sampling_rate",
        "sampling_qerror_bound",
    ):
        if key in provenance:
            print(f"  {key}: {provenance[key]}")
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceError, StatisticsClient

    host, port = _parse_address(args.address)
    with StatisticsClient(host, port, timeout=args.timeout) as client:
        try:
            report = client.doctor()
        except ServiceError:
            # A supervisor control port: same line protocol, fleet op.
            report = client.call("fleet-doctor")["report"]
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 0
    info = report.get("build_info") or {}
    print(f"build: {info}")
    audit = report.get("audit") or {}
    breached = [
        key
        for key, slo in (audit.get("columns") or {}).items()
        if not slo.get("slo_ok", True)
    ]
    print(
        f"audit: {len((audit.get('columns') or {}))} column(s) scored, "
        f"{len(breached)} SLO breach(es)"
        + (f": {', '.join(sorted(breached))}" if breached else "")
    )
    bundles = report.get("bundles") or []
    print(f"bundles: {len(bundles)} frozen")
    for bundle in bundles:
        label = bundle.get("shard")
        prefix = f"shard {label} " if label is not None else ""
        print(f"  {prefix}reason={bundle.get('reason')} seq={bundle.get('seq')}")
    events = report.get("journal") or []
    print(f"journal: {len(events)} event(s)")
    for event in events[-args.tail:]:
        shard = event.get("shard")
        origin = f"[{shard}] " if shard is not None else ""
        detail = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "ts", "category", "shard")
        }
        print(f"  {origin}#{event.get('seq')} {event.get('category')}: {detail}")
    return 0


def _maintenance_state(status: dict, key: str) -> dict:
    """Per-column maintenance counters + global escalations from a status."""
    column = (status.get("columns") or {}).get(key) or {}
    counters = ((status.get("metrics") or {}).get("counters")) or {}
    state = {
        "staleness": float(column.get("staleness", 0.0)),
        "repairs": int(column.get("repairs", 0)),
        "repair_buckets": int(column.get("repair_buckets", 0)),
        "rebuilds": int(column.get("rebuilds", 0)),
        "deletes": int(column.get("deletes", 0)),
        "rebuilds_escalated": int(counters.get("rebuilds_escalated", 0)),
        "repairs_failed": int(counters.get("repairs_failed", 0)),
    }
    return state


def _report_ingest_events(before: dict, after: dict, rows_sent: int) -> None:
    """Print one line per maintenance event that fired since ``before``."""
    if after["repairs"] > before["repairs"]:
        buckets = after["repair_buckets"] - before["repair_buckets"]
        print(
            f"event: repair x{after['repairs'] - before['repairs']} "
            f"({buckets} bucket{'s' if buckets != 1 else ''}) "
            f"after {rows_sent} rows",
            flush=True,
        )
    if after["rebuilds"] > before["rebuilds"]:
        escalated = after["rebuilds_escalated"] - before["rebuilds_escalated"]
        suffix = " (escalated from repair)" if escalated > 0 else ""
        print(
            f"event: rebuild x{after['rebuilds'] - before['rebuilds']}"
            f"{suffix} after {rows_sent} rows",
            flush=True,
        )
    if after["repairs_failed"] > before["repairs_failed"]:
        print(
            f"event: repair failed x{after['repairs_failed'] - before['repairs_failed']} "
            f"after {rows_sent} rows",
            flush=True,
        )


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time

    from repro.service.client import StatisticsClient

    host, port = _parse_address(args.address)
    if args.input is not None:
        codes = load_column_values(Path(args.input)).astype(np.int64)
    else:
        rng = np.random.default_rng(args.seed)
        if args.hot_code is not None:
            # Skewed workload: all mass on one code -- the intra-bucket
            # degradation a localized repair exists to fix.
            codes = np.full(args.rows, int(args.hot_code), dtype=np.int64)
        else:
            codes = rng.integers(0, args.domain, size=args.rows, dtype=np.int64)
    if codes.size == 0:
        raise ValueError("nothing to ingest")
    key = f"{args.table}.{args.column}"
    op_name = "delete" if args.delete else "insert"
    with StatisticsClient(host, port, timeout=args.timeout) as client:
        state = _maintenance_state(client.status(), key)
        start_state = dict(state)
        sent = 0
        started = time.monotonic()
        for lo in range(0, codes.size, args.batch_size):
            batch = codes[lo : lo + args.batch_size]
            op = client.delete if args.delete else client.insert
            result = op(args.table, args.column, [int(c) for c in batch])
            sent += int(batch.size)
            fresh = _maintenance_state(client.status(), key)
            _report_ingest_events(state, fresh, sent)
            state = fresh
            print(
                f"{op_name} {sent}/{codes.size} rows "
                f"staleness={result['staleness']:.3f}",
                flush=True,
            )
            if args.pause > 0:
                time.sleep(args.pause)
        # Maintenance runs on the server's schedule; give the sweep a
        # window to act on what we just streamed before summarising.
        deadline = time.monotonic() + args.wait
        while time.monotonic() < deadline:
            fresh = _maintenance_state(client.status(), key)
            _report_ingest_events(state, fresh, sent)
            changed = fresh != state
            state = fresh
            if changed and state["staleness"] < args.settle_staleness:
                break
            time.sleep(min(0.2, args.wait))
        elapsed = time.monotonic() - started
    print(
        f"done: {sent} rows ({op_name}) in {elapsed:.2f}s; "
        f"repairs={state['repairs'] - start_state['repairs']} "
        f"repaired_buckets={state['repair_buckets'] - start_state['repair_buckets']} "
        f"rebuilds={state['rebuilds'] - start_state['rebuilds']} "
        f"escalated={state['rebuilds_escalated'] - start_state['rebuilds_escalated']} "
        f"staleness={state['staleness']:.3f}"
    )
    return 0


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.fleet import FleetConfig, FleetSupervisor

    table = _load_table(Path(args.input), args.table)
    config = FleetConfig(
        shards=args.shards,
        replication=args.replication,
        host=args.host,
        mode=args.mode,
        handler_threads=args.handler_threads,
        estimator_workers=args.workers,
        drain_grace=args.drain_grace,
        kind=args.kind,
        seed=args.seed,
        heartbeat_interval=args.heartbeat_interval,
        cold_start=not args.no_cold_start,
        sample_rate=args.sample_rate,
        control_port=args.control_port,
    )
    supervisor = FleetSupervisor(Path(args.catalog), [table], config)
    supervisor.start()
    host, port = supervisor.control_address
    # Flush so wrappers watching a pipe see the addresses immediately.
    print(f"fleet control on {host}:{port}", flush=True)
    for shard_id, (shard_host, shard_port) in sorted(supervisor.addresses().items()):
        print(f"  shard {shard_id} on {shard_host}:{shard_port}", flush=True)
    stop_requested = threading.Event()

    def _stop(signum, frame) -> None:  # noqa: ARG001 - signal signature
        stop_requested.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _stop)
        except (OSError, ValueError):
            pass
    try:
        stop_requested.wait()
    except KeyboardInterrupt:
        pass
    finally:
        print("shutting down fleet", flush=True)
        supervisor.stop()
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import StatisticsClient
    from repro.service.export import render_fleet_prometheus

    host, port = _parse_address(args.address)
    with StatisticsClient(host, port, timeout=args.timeout) as client:
        status = client.call("fleet-status")["status"]
    if args.prometheus:
        print(render_fleet_prometheus(status), end="")
    else:
        print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _cmd_fleet_query(args: argparse.Namespace) -> int:
    from repro.service.fleet import FleetClient

    host, port = _parse_address(args.address)
    with FleetClient.from_supervisor(host, port, timeout=args.timeout) as client:
        estimate = client.estimate_range(args.table, args.column, args.low, args.high)
        print(f"{estimate.value:.6g} ({estimate.method})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="theta,q-guaranteed histograms over ordered dictionaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_construction_options(command) -> None:
        command.add_argument("--q", type=float, default=2.0, help="max per-bucket q-error")
        command.add_argument(
            "--theta", type=float, default=None,
            help="inner theta (default: system policy)",
        )

    def add_profile_option(command) -> None:
        command.add_argument(
            "--profile", action="store_true",
            help="trace the build: per-phase timing and acceptance-test counts",
        )

    build = sub.add_parser("build", help="build a histogram from a column file")
    build.add_argument("input", help="column values (.npy or line-per-value text)")
    build.add_argument("output", help="output histogram file")
    build.add_argument("--kind", default="V8DincB", choices=HISTOGRAM_KINDS)
    add_construction_options(build)
    add_profile_option(build)
    build.set_defaults(func=_cmd_build)

    build_table = sub.add_parser(
        "build-table",
        help="build histograms for every column file in a directory, in parallel",
    )
    build_table.add_argument(
        "input", help="directory of column files (or a single column file)"
    )
    build_table.add_argument("catalog", help="statistics catalog directory")
    build_table.add_argument("--table", default="table", help="table name in the catalog")
    build_table.add_argument("--kind", default="V8DincB", choices=HISTOGRAM_KINDS)
    build_table.add_argument(
        "--workers", type=int, default=0, help="pool width (0 = one per CPU)"
    )
    build_table.add_argument(
        "--executor", default="process", choices=("process", "thread", "serial")
    )
    add_construction_options(build_table)
    add_profile_option(build_table)
    build_table.set_defaults(func=_cmd_build_table)

    inspect = sub.add_parser("inspect", help="summarise a histogram file")
    inspect.add_argument("histogram")
    inspect.set_defaults(func=_cmd_inspect)

    estimate = sub.add_parser("estimate", help="estimate a range [low, high)")
    estimate.add_argument("histogram")
    estimate.add_argument("low", type=float, nargs="?", default=None)
    estimate.add_argument("high", type=float, nargs="?", default=None)
    estimate.add_argument(
        "--batch",
        metavar="FILE",
        default=None,
        help="file of 'low high' pairs (one per line); answers the whole "
        "batch with one compiled-plan pass",
    )
    estimate.add_argument(
        "--profile",
        action="store_true",
        help="print compiled-plan statistics (buckets, cells, compile time)",
    )
    estimate.set_defaults(func=_cmd_estimate)

    analyze = sub.add_parser("analyze", help="compare every histogram kind on a column")
    analyze.add_argument("input")
    add_construction_options(analyze)
    add_profile_option(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    certify_cmd = sub.add_parser(
        "certify", help="build and verify the whole-histogram guarantee"
    )
    certify_cmd.add_argument("input")
    # Certification operates on dictionary-code domains.
    dense_kinds = [k for k in HISTOGRAM_KINDS if not k.startswith("1V")]
    certify_cmd.add_argument("--kind", default="V8DincB", choices=dense_kinds)
    add_construction_options(certify_cmd)
    certify_cmd.add_argument("--k", type=float, default=4.0, help="transfer scale")
    certify_cmd.add_argument(
        "--samples", type=int, default=50_000, help="query budget for large domains"
    )
    certify_cmd.set_defaults(func=_cmd_certify)

    serve = sub.add_parser(
        "serve",
        help="serve statistics over TCP with background staleness rebuilds",
    )
    serve.add_argument("input", help="directory of column files (or a single file)")
    serve.add_argument("catalog", help="statistics catalog directory")
    serve.add_argument("--table", default="table", help="table name to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    serve.add_argument("--kind", default="V8DincB", choices=HISTOGRAM_KINDS)
    serve.add_argument(
        "--workers", type=int, default=0,
        help="estimator worker processes serving shared compiled plans "
        "(0 = answer everything in-process)",
    )
    serve.add_argument(
        "--build-workers", type=int, default=0,
        help="build pool width: worker processes, started once and "
        "reused by every build, largest column first (0 = one per CPU; "
        "1 = build serially, no pool)",
    )
    serve.add_argument(
        "--handler-threads", type=int, default=8,
        help="binary-frame handler threads (each JSON-lines connection "
        "has its own thread)",
    )
    serve.add_argument(
        "--transport", default="auto", choices=("auto", "binary", "json"),
        help="wire formats accepted (auto negotiates per connection)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=32,
        help="per-connection cap on concurrently served binary frames",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="seconds to wait for in-flight requests on SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=128,
        help="LRU capacity of the serving store",
    )
    serve.add_argument(
        "--refresh-interval", type=float, default=2.0,
        help="staleness poll period, seconds",
    )
    serve.add_argument(
        "--staleness-threshold", type=float, default=0.2,
        help="churn fraction that triggers maintenance (repair or rebuild)",
    )
    serve.add_argument(
        "--no-repair", action="store_true",
        help="disable localized bucket repair (always rebuild whole columns)",
    )
    serve.add_argument(
        "--escalate-fraction", type=float, default=0.3,
        help="failing-bucket fraction beyond which repair escalates to a rebuild",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=50.0,
        help="latency threshold for the slow-request log, milliseconds",
    )
    serve.add_argument(
        "--log-events", metavar="FILE", default=None,
        help="append one JSON event line per request to FILE",
    )
    serve.add_argument(
        "--no-trace", action="store_true",
        help="disable per-request span trees (slow log keeps op/latency only)",
    )
    add_construction_options(serve)
    serve.set_defaults(func=_cmd_serve)

    metrics_cmd = sub.add_parser(
        "metrics", help="dump a running server's metrics snapshot"
    )
    metrics_cmd.add_argument("address", help="host:port of the server")
    metrics_cmd.add_argument(
        "--prometheus", action="store_true",
        help="render the Prometheus text exposition format instead of JSON",
    )
    metrics_cmd.add_argument("--timeout", type=float, default=10.0)
    metrics_cmd.set_defaults(func=_cmd_metrics)

    slowlog_cmd = sub.add_parser(
        "slowlog", help="print a running server's recent slow requests"
    )
    slowlog_cmd.add_argument("address", help="host:port of the server")
    slowlog_cmd.add_argument(
        "--limit", type=int, default=None, help="cap on entries (newest first)"
    )
    slowlog_cmd.add_argument("--timeout", type=float, default=10.0)
    slowlog_cmd.set_defaults(func=_cmd_slowlog)

    query = sub.add_parser("query", help="query a running statistics server")
    query.add_argument("address", help="host:port of the server")
    query.add_argument("low", type=float, nargs="?", default=None)
    query.add_argument("high", type=float, nargs="?", default=None)
    query.add_argument("--table", default=None)
    query.add_argument("--column", default=None)
    query.add_argument("--status", action="store_true", help="print server status")
    query.add_argument(
        "--binary", action="store_true",
        help="use the binary frame transport (array fast path for estimates)",
    )
    query.add_argument(
        "--timeout", type=float, default=10.0,
        help="socket timeout, seconds (connect and each response)",
    )
    query.set_defaults(func=_cmd_query)

    explain_cmd = sub.add_parser(
        "explain",
        help="estimate a range and print the answer's full provenance",
    )
    explain_cmd.add_argument("address", help="host:port of the server")
    explain_cmd.add_argument("low", type=float)
    explain_cmd.add_argument("high", type=float)
    explain_cmd.add_argument("--table", required=True)
    explain_cmd.add_argument("--column", required=True)
    explain_cmd.add_argument(
        "--binary", action="store_true",
        help="use the binary frame transport (explain rides its JSON channel)",
    )
    explain_cmd.add_argument(
        "--json", action="store_true", help="print the raw provenance object"
    )
    explain_cmd.add_argument("--timeout", type=float, default=10.0)
    explain_cmd.set_defaults(func=_cmd_explain)

    doctor_cmd = sub.add_parser(
        "doctor",
        help="pull a server's (or fleet's) debug bundle: journal, audit, bundles",
    )
    doctor_cmd.add_argument(
        "address", help="host:port of a server or a fleet control port"
    )
    doctor_cmd.add_argument(
        "--tail", type=int, default=20,
        help="journal events to print (newest last)",
    )
    doctor_cmd.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    doctor_cmd.add_argument("--timeout", type=float, default=10.0)
    doctor_cmd.set_defaults(func=_cmd_doctor)

    ingest = sub.add_parser(
        "ingest",
        help="stream rows into a served column and watch repair/rebuild events",
    )
    ingest.add_argument("address", help="host:port of the server")
    ingest.add_argument("--table", required=True)
    ingest.add_argument("--column", required=True)
    ingest.add_argument(
        "--input", default=None,
        help="codes to stream (.npy or line-per-value text); omit to generate",
    )
    ingest.add_argument(
        "--rows", type=int, default=10_000,
        help="generated workload size (ignored with --input)",
    )
    ingest.add_argument(
        "--domain", type=int, default=1000,
        help="generated codes are uniform over [0, DOMAIN)",
    )
    ingest.add_argument(
        "--hot-code", type=int, default=None,
        help="send every generated row to this one code (skewed workload)",
    )
    ingest.add_argument("--seed", type=int, default=None)
    ingest.add_argument(
        "--batch-size", type=int, default=2000,
        help="rows per insert/delete request",
    )
    ingest.add_argument(
        "--delete", action="store_true",
        help="stream deletes instead of inserts",
    )
    ingest.add_argument(
        "--pause", type=float, default=0.0,
        help="seconds to sleep between batches (lets maintenance interleave)",
    )
    ingest.add_argument(
        "--wait", type=float, default=5.0,
        help="seconds to watch for repair/rebuild events after the last batch",
    )
    ingest.add_argument(
        "--settle-staleness", type=float, default=0.05,
        help="stop waiting early once staleness drops below this",
    )
    ingest.add_argument("--timeout", type=float, default=10.0)
    ingest.set_defaults(func=_cmd_ingest)

    fleet = sub.add_parser(
        "fleet", help="run or inspect a sharded statistics fleet"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_serve = fleet_sub.add_parser(
        "serve",
        help="shard one table across N statistics servers with a control port",
    )
    fleet_serve.add_argument("input", help="directory of column files (or a single file)")
    fleet_serve.add_argument("catalog", help="root directory for per-shard catalogs")
    fleet_serve.add_argument("--table", default="table", help="table name to serve")
    fleet_serve.add_argument("--shards", type=int, default=4)
    fleet_serve.add_argument(
        "--replication", type=int, default=2,
        help="rendezvous owners per histogram-worthy column",
    )
    fleet_serve.add_argument("--host", default="127.0.0.1")
    fleet_serve.add_argument(
        "--control-port", type=int, default=0,
        help="fleet control port (0 picks an ephemeral port)",
    )
    fleet_serve.add_argument(
        "--mode", default="process", choices=("process", "thread"),
        help="shard isolation (process = one OS process per shard)",
    )
    fleet_serve.add_argument("--kind", default="V8DincB", choices=HISTOGRAM_KINDS)
    fleet_serve.add_argument("--seed", type=int, default=None)
    fleet_serve.add_argument(
        "--workers", type=int, default=0,
        help="estimator worker processes per shard",
    )
    fleet_serve.add_argument(
        "--handler-threads", type=int, default=4,
        help="binary-frame handler threads per shard",
    )
    fleet_serve.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="per-shard in-flight drain window on shutdown, seconds",
    )
    fleet_serve.add_argument(
        "--heartbeat-interval", type=float, default=0.5,
        help="supervisor liveness poll period, seconds (0 disables restarts)",
    )
    fleet_serve.add_argument(
        "--sample-rate", type=float, default=0.1,
        help="row sampling rate for cold-started replacement shards",
    )
    fleet_serve.add_argument(
        "--no-cold-start", action="store_true",
        help="restart shards with full histogram rebuilds (no sampled stand-in)",
    )
    fleet_serve.set_defaults(func=_cmd_fleet_serve)

    fleet_status = fleet_sub.add_parser(
        "status", help="merged cluster-wide status from the fleet control port"
    )
    fleet_status.add_argument("address", help="host:port of the fleet control port")
    fleet_status.add_argument(
        "--prometheus", action="store_true",
        help="render one cluster-wide Prometheus exposition with shard labels",
    )
    fleet_status.add_argument("--timeout", type=float, default=10.0)
    fleet_status.set_defaults(func=_cmd_fleet_status)

    fleet_query = fleet_sub.add_parser(
        "query", help="route one range estimate through the fleet client"
    )
    fleet_query.add_argument("address", help="host:port of the fleet control port")
    fleet_query.add_argument("low", type=float)
    fleet_query.add_argument("high", type=float)
    fleet_query.add_argument("--table", required=True)
    fleet_query.add_argument("--column", required=True)
    fleet_query.add_argument("--timeout", type=float, default=10.0)
    fleet_query.set_defaults(func=_cmd_fleet_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, OverflowError, OSError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
