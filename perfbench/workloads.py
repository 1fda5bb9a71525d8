"""The four workloads and the run loop that drives the server.

Every workload is a closed loop with one client: the caller is a query
optimizer that blocks on each estimate while it compiles a plan.  One
load-generator thread holds at most two connections (a JSON-lines one
and, where the workload needs it, a binary-frame one).

A run starts the real server (``python -m repro serve`` over the
generated ``.npy`` column files) as its own process ``WINDOWS`` times in
a row and splits ``--seconds`` of load between them.  ``setup_s`` is the
median of those set-ups, and the p99, server CPU and ``qerror_max`` are
medians of per-window values, so one server lifetime that a noisy neighbour slowed
cannot decide the run.  ``build_s``, which only ``build``'s main loop
exercises, is measured on the other workloads by two ``build`` ops at
the end of each window.  The traced window also ends with ingest batches
that leave the columns as they were (not on ``churn``, whose main loop
ingests) and, on ``build``, a maintenance probe, so the ingest and
maintenance layers have values in every traced run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from checks import EnvelopeTally, check_envelope, exact_counts
from inputs import Column, churn_stream, make_table, request_stream, value_ranges, write_table
from procs import ServerProcess

from repro.service.client import BinaryStatisticsClient, ServiceError, StatisticsClient

TABLE = "table"
# Server lifetimes per run; build's set-up is the longest, so it gets fewer.
WINDOWS = {"point": 4, "bulk": 4, "churn": 4, "build": 3}
BULK_BATCH = 4096
CHURN_BATCH = 64
CHURN_ROWS = 500
# Writes arrive on a schedule (the OLTP side does not wait for the
# optimizer); reads fill the time between them in a closed loop.
CHURN_WRITE_INTERVAL_S = 0.025
CHECK_BATCH = 1024
QERROR_SAMPLE = 256
BUILD_CHECK_FRAME = 128
PROBE_ROWS = 1000
PROBE_BATCHES = 25
PROBE_MIN_DISTINCT = 1000
PROBE_BUILDS = 2
QUIESCE_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 60.0
# Errors of one request: a typed refusal, a dead or stalled connection.
REQUEST_ERRORS = (ServiceError, OSError)

DEFAULT_THRESHOLD = 0.2  # the server's default --staleness-threshold
CHURN_THRESHOLD = 0.05
# On point and bulk a build is only the probe behind their build_s.  A
# one-worker build follows the speed of one core, as their estimate path
# does; the two-worker pool made it follow the slower of two vCPUs and
# swing with the host about half again as much as the estimates did,
# while building their 16 small columns no faster.
PROBE_BUILD_FLAGS = ["--build-workers", "1"]
SERVE_FLAGS: Dict[str, List[str]] = {
    "point": PROBE_BUILD_FLAGS,
    "bulk": PROBE_BUILD_FLAGS,
    # Short poll and low threshold: repair, escalation and rebuild run
    # against the foreground reads instead of once a minute.
    "churn": ["--refresh-interval", "0.02", "--staleness-threshold", str(CHURN_THRESHOLD)],
    "build": [],
}
# Added on the traced server only: a short poll so the maintenance
# probe's repairs start promptly.
TRACED_FLAGS: Dict[str, List[str]] = {"build": ["--refresh-interval", "0.2"]}
MAINTENANCE_COLUMNS = 2
MAINTENANCE_ROWS = 2000


class Run:
    """State and samples of one benchmark run of one workload."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int) -> None:
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.columns = make_table(workload, seed)
        self.by_name = {column.name: column for column in self.columns}
        self.cols_dir = work / "cols"
        write_table(self.columns, self.cols_dir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.windows = 0
        self.reset()

    def reset(self) -> None:
        """Drop every sample (between the untraced and traced halves)."""
        self.setup_s: List[float] = []
        self.lat_ns: Dict[str, List[int]] = defaultdict(list)
        # Predicates per estimate request, aligned with lat_ns["estimate"].
        self.estimate_preds: List[int] = []
        self.cpu_s = 0.0
        self.tally = EnvelopeTally()
        self.column_qerror: Dict[str, float] = {}
        self.column_seen: Dict[str, int] = {}
        self.insert_rows: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.counters: Counter = Counter()
        self.wire: Counter = Counter()
        self.hist_bytes = 0
        self.hist_distinct = 0
        self.hist_files = 0
        self.per_window: Dict[str, List[float]] = defaultdict(list)
        # (start ns, end ns, client busy ns) of the last main loop.
        self.loop = (0, 0, 0)

    @property
    def preds(self) -> int:
        """Predicates answered."""
        return sum(self.estimate_preds)

    # -- server lifetime --------------------------------------------------

    def start_server(self, spans_out: Optional[Path] = None) -> ServerProcess:
        self.windows += 1
        catalog = self.work / f"catalog{self.windows}"
        serve = ["serve", str(self.cols_dir), str(catalog), "--table", TABLE, "--port", "0"]
        serve += SERVE_FLAGS[self.workload]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro"] + serve
        else:
            serve += TRACED_FLAGS.get(self.workload, [])
            launcher = Path(__file__).resolve().parent / "traced_serve.py"
            argv = [sys.executable, str(launcher), "--spans-out", str(spans_out)] + serve
        server = ServerProcess(argv, self.env, self.root, self.work / f"server{self.windows}.log")
        self.catalog = catalog
        server.start()
        self.setup_s.append(server.setup_s)
        return server

    def fail(self, what: str, error: Exception, weight: int = 1) -> None:
        self.failed += weight
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {type(error).__name__}: {error}")

    # -- answer checking ---------------------------------------------------

    def envelopes(self, client) -> Dict[str, tuple]:
        """Per-column certified (q, θ) as the server's ``explain`` reports.

        A column served from exact counts has no certificate; its
        answers must be exact, which (q=1, θ=0) checks.
        """
        bounds = {}
        for column in self.columns:
            lo, hi = float(column.values[0]), float(column.values[-1] + 1)
            provenance = client.explain_range(TABLE, column.name, lo, hi)["provenance"]
            bounds[column.name] = (
                float(provenance.get("certified_q", 1.0)),
                float(provenance.get("theta", 0.0)),
            )
        return bounds

    def check(self, column: Column, answers, truths, bounds) -> None:
        """Check one column's answers; every answer outside the envelope
        counts as failed."""
        q, theta = bounds[column.name]
        result = check_envelope(answers, truths, q, theta)
        self.tally.add(result)
        # qerror_max looks at a fixed number of answers per column and
        # window, the first in stream order, so a faster program does
        # not see more answers and a larger maximum.
        seen = self.column_seen.get(column.name, 0)
        if seen < QERROR_SAMPLE:
            take = QERROR_SAMPLE - seen
            head = check_envelope(answers[:take], truths[:take], q, theta)
            self.column_seen[column.name] = seen + head.checked
            if head.over_threshold:
                worst = self.column_qerror.get(column.name, 1.0)
                self.column_qerror[column.name] = max(worst, head.qerror_max)
        self.attempted += result.checked
        self.failed += result.violations
        if result.violations and len(self.errors) < 5:
            self.errors.append(f"{column.name}: {result.violations} violations, e.g. {result.example}")

    def measure_catalog(self, catalog: Path) -> None:
        """``.hist`` bytes and the distinct values they cover."""
        for path in catalog.glob(f"{TABLE}.*.hist"):
            name = path.name[len(TABLE) + 1:].rsplit(".", 2)[0]
            self.hist_bytes += path.stat().st_size
            self.hist_distinct += self.by_name[name].n_distinct
            self.hist_files += 1

    def read_counters(self, client) -> None:
        snapshot = client.metrics()["metrics"]
        self.counters.update(snapshot.get("counters", {}))
        self.counters["errors"] += sum(snapshot.get("errors", {}).values())
        for transport, stats in snapshot.get("wire", {}).get("transports", {}).items():
            for key in ("bytes_in", "bytes_out", "frames_in"):
                self.wire[f"{transport}.{key}"] += int(stats.get(key, 0))

    # -- per-window statistics --------------------------------------------

    def mark(self) -> dict:
        return {
            "estimates": len(self.lat_ns["estimate"]),
            "preds": self.preds,
            "cpu_s": self.cpu_s,
        }

    def close_window(self, mark: dict) -> None:
        """Record this window's values for the per-window medians."""
        estimates = self.lat_ns["estimate"][mark["estimates"]:]
        preds = self.preds - mark["preds"]
        window = self.per_window
        if self.column_qerror:
            window["qerror_max"].append(max(self.column_qerror.values()))
        self.column_qerror = {}
        self.column_seen = {}
        if estimates:
            window["estimate_p99_us"].append(float(np.percentile(estimates, 99)) / 1e3)
            window["server_cpu_us_per_pred"].append((self.cpu_s - mark["cpu_s"]) * 1e6 / preds)

    # -- timed operations ---------------------------------------------------

    def timed_estimates(self, client, column: Column, lows, highs) -> Optional[np.ndarray]:
        """One binary frame of ranges; records its round trip."""
        start = time.perf_counter_ns()
        try:
            values = client.estimate_range_batch(TABLE, column.name, lows, highs)
        except REQUEST_ERRORS as error:
            self.attempted += len(lows)
            self.fail("estimate frame", error, len(lows))
            return None
        elapsed = time.perf_counter_ns() - start
        self.lat_ns["estimate"].append(elapsed)
        self.estimate_preds.append(len(lows))
        return values

    def timed_ingest(self, client, op: str, column: Column, codes: np.ndarray) -> bool:
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            getattr(client, op)(TABLE, column.name, codes.tolist())
        except REQUEST_ERRORS as error:
            self.fail(op, error)
            return False
        self.lat_ns[op].append(time.perf_counter_ns() - start)
        if op == "insert":
            self.insert_rows.append(len(codes))
        return True

    def timed_build(self, client) -> None:
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            client.build(TABLE)
        except REQUEST_ERRORS as error:
            self.fail("build", error)
            return
        self.lat_ns["build"].append(time.perf_counter_ns() - start)

    # -- probes ---------------------------------------------------------------

    def ingest_probe(self, client, window: int) -> None:
        """Insert batches then delete the same rows: net-zero churn, one
        batch per column in turn, so the ingest layers have values on
        every traced workload and no one column's insert cost or
        staleness decides them."""
        columns = [c for c in self.columns if c.n_distinct >= PROBE_MIN_DISTINCT]
        rng = np.random.default_rng([self.seed, 13, window])
        batches = []
        for index in range(PROBE_BATCHES):
            column = columns[index % len(columns)]
            batches.append((column, rng.integers(0, column.n_distinct, PROBE_ROWS)))
        for column, codes in batches:
            self.timed_ingest(client, "insert", column, codes)
        for column, codes in batches:
            self.timed_ingest(client, "delete", column, codes)


# -- main loops ------------------------------------------------------------------


def point_loop(run: Run, server, json_client, binary_client, seconds: float, window: int) -> None:
    """One ``estimate`` op with one range predicate per request, cycling
    over the columns."""
    per_column = 4096
    index, lows, highs = request_stream("point", run.seed + 7919 * window, run.columns, per_column)
    n_cols = len(run.columns)
    # Interleave: request i goes to column i % n_cols.
    order = (np.arange(index.size) % n_cols) * per_column + np.arange(index.size) // n_cols
    index, lows, highs = index[order], lows[order].tolist(), highs[order].tolist()
    names = [c.name for c in run.columns]
    answered = np.zeros(index.size, dtype=bool)
    answers = np.zeros(index.size)
    latencies, counts = run.lat_ns["estimate"], run.estimate_preds
    deadline = time.perf_counter() + seconds
    cpu = server.cpu_seconds()
    i = 0
    while time.perf_counter() < deadline:
        k = i % index.size
        i += 1
        start = time.perf_counter_ns()
        try:
            value = json_client.estimate_range(TABLE, names[index[k]], lows[k], highs[k]).value
        except REQUEST_ERRORS as error:
            run.attempted += 1
            run.fail("estimate", error)
            continue
        elapsed = time.perf_counter_ns() - start
        latencies.append(elapsed)
        counts.append(1)
        answered[k], answers[k] = True, value
    run.cpu_s += server.cpu_seconds() - cpu
    bounds = run.envelopes(json_client)
    lows, highs = np.asarray(lows), np.asarray(highs)
    for position, column in enumerate(run.columns):
        mask = answered & (index == position)
        truths = exact_counts(column.values, column.freqs, lows[mask], highs[mask])
        run.check(column, answers[mask], truths, bounds)


def bulk_loop(run: Run, server, json_client, binary_client, seconds: float, window: int) -> None:
    """Binary frames of ``BULK_BATCH`` ranges on one column per frame,
    cycling columns."""
    frames = []
    rng = np.random.default_rng([run.seed, 17, window])
    for _ in range(3):
        for column in run.columns:
            lows, highs = value_ranges(rng, column, BULK_BATCH)
            frames.append((column, lows, highs, exact_counts(column.values, column.freqs, lows, highs)))
    bounds = run.envelopes(binary_client)
    deadline = time.perf_counter() + seconds
    cpu = server.cpu_seconds()
    k = 0
    while time.perf_counter() < deadline:
        column, lows, highs, truths = frames[k % len(frames)]
        k += 1
        values = run.timed_estimates(binary_client, column, lows, highs)
        if values is not None:
            run.check(column, values, truths, bounds)
    run.cpu_s += server.cpu_seconds() - cpu


def churn_loop(run: Run, server, json_client, binary_client, seconds: float, window: int) -> None:
    """Insert and delete batches skewed onto hot codes over JSON, one
    every ``CHURN_WRITE_INTERVAL_S``, with batch-64 binary estimates in
    between; answers are checked once the write phase has quiesced.

    Every answer outside the (kθ, q') envelope fails the run.  Between
    maintenance passes a column serves register-blended answers, and
    pending inserts skewed onto a hot code inside one bucket can push a
    short range's estimate out of the envelope while total staleness is
    still under the threshold (see README.md, "Correctness").
    """
    truth = {c.name: c.freqs.copy() for c in run.columns}
    rng = np.random.default_rng([run.seed, 19, window])
    pool = [value_ranges(rng, c, 16 * CHURN_BATCH) for c in run.columns]
    stream = churn_stream(run.seed + 7919 * window, run.columns, 10**9, CHURN_ROWS)
    start = time.perf_counter()
    deadline = start + seconds
    cpu = server.cpu_seconds()
    writes = frame = 0
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= start + writes * CHURN_WRITE_INTERVAL_S:
            writes += 1
            position, op, codes = next(stream)
            column = run.columns[position]
            if run.timed_ingest(json_client, op, column, codes):
                np.add.at(truth[column.name], codes, 1 if op == "insert" else -1)
            continue
        target = frame % len(run.columns)
        offset = (frame // len(run.columns)) % 16 * CHURN_BATCH
        lows, highs = pool[target]
        run.timed_estimates(
            binary_client,
            run.columns[target],
            lows[offset:offset + CHURN_BATCH],
            highs[offset:offset + CHURN_BATCH],
        )
        frame += 1
    run.cpu_s += server.cpu_seconds() - cpu
    check_after_churn(run, json_client, binary_client, run.columns, truth, rng)


def check_after_churn(run: Run, json_client, binary_client, columns, truth, rng) -> None:
    """Once the server has quiesced, check ``CHECK_BATCH`` ranges per
    column against the running truth."""
    if not quiesce(run, json_client):
        return
    bounds = run.envelopes(json_client)
    for column in columns:
        lows, highs = value_ranges(rng, column, CHECK_BATCH)
        try:
            values = binary_client.estimate_range_batch(TABLE, column.name, lows, highs)
        except REQUEST_ERRORS as error:
            run.attempted += CHECK_BATCH
            run.fail("check frame", error, CHECK_BATCH)
            continue
        truths = exact_counts(column.values, truth[column.name], lows, highs)
        run.check(column, values, truths, bounds)


def quiesce(run: Run, client) -> bool:
    """Wait until every column's staleness is under the threshold and no
    rebuild is in flight; a timeout counts as a failed operation."""
    deadline = time.perf_counter() + QUIESCE_TIMEOUT_S
    while time.perf_counter() < deadline:
        status = client.status()
        counters = status["metrics"]["counters"]
        settled = counters.get("rebuilds_triggered", 0) == counters.get(
            "rebuilds_completed", 0
        ) + counters.get("rebuilds_failed", 0)
        stale = max(c["staleness"] for c in status["columns"].values())
        threshold = CHURN_THRESHOLD if run.workload == "churn" else DEFAULT_THRESHOLD
        if settled and stale < threshold:
            return True
        time.sleep(0.1)
    run.attempted += 1
    run.fail("quiesce", TimeoutError(f"still stale after {QUIESCE_TIMEOUT_S:.0f}s"))
    return False


def build_loop(run: Run, server, json_client, binary_client, seconds: float, window: int) -> None:
    """The ``build`` op, repeated; after each build every column's
    answers are checked, ``CHECK_BATCH`` ranges per column sent as
    frames of ``BUILD_CHECK_FRAME`` (enough frames per window for a
    per-window p99)."""
    rng = np.random.default_rng([run.seed, 23, window])
    frames = []
    for column in run.columns:
        lows, highs = value_ranges(rng, column, CHECK_BATCH)
        truths = exact_counts(column.values, column.freqs, lows, highs)
        for part in range(0, CHECK_BATCH, BUILD_CHECK_FRAME):
            piece = slice(part, part + BUILD_CHECK_FRAME)
            frames.append((column, lows[piece], highs[piece], truths[piece]))
    bounds = run.envelopes(json_client)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run.timed_build(json_client)
        cpu = server.cpu_seconds()
        for column, lows, highs, truths in frames:
            values = run.timed_estimates(binary_client, column, lows, highs)
            if values is not None:
                run.check(column, values, truths, bounds)
        run.cpu_s += server.cpu_seconds() - cpu


def maintenance_probe(run: Run, json_client, window: int) -> None:
    """Untimed hot-code churn on the build table's largest columns,
    run in the traced window only.

    Each column gets a little more churn than the staleness threshold,
    as skewed insert and delete batches, so the refresh scheduler
    re-tests, repairs or rebuilds it; the probe waits until it has.
    This puts the maintenance layers (churn ledger, acceptance re-test,
    repair, plan patch, escalated rebuild) into the traced run of
    ``build``, whose end-to-end metrics do not read it.  Answers after
    churn are checked on ``churn``.
    """
    columns = sorted(run.columns, key=lambda c: c.n_distinct)[-MAINTENANCE_COLUMNS:]
    rows = int(1.1 * DEFAULT_THRESHOLD * max(c.n_rows for c in columns))
    batches = len(columns) * (rows // MAINTENANCE_ROWS + 1)
    for position, op, codes in churn_stream(
        run.seed + 7919 * window, columns, batches, MAINTENANCE_ROWS
    ):
        run.attempted += 1
        try:
            getattr(json_client, op)(TABLE, columns[position].name, codes.tolist())
        except REQUEST_ERRORS as error:
            run.fail(op, error)
    quiesce(run, json_client)


LOOPS = {"point": point_loop, "bulk": bulk_loop, "churn": churn_loop, "build": build_loop}


def run_window(
    run: Run, seconds: float, window: int, spans_out: Optional[Path] = None, probes: bool = True
) -> None:
    """One server lifetime: set up, load, probe, read counters, stop.

    ``probes=False`` leaves out the probe builds (the untraced half of a
    traced run times the main loop alone).
    """
    server = run.start_server(spans_out)
    json_client = binary_client = None
    try:
        if window == 0:
            run.measure_catalog(run.catalog)
        json_client = StatisticsClient(server.host, server.port, timeout=CLIENT_TIMEOUT_S)
        if run.workload != "point":
            binary_client = BinaryStatisticsClient(
                server.host, server.port, timeout=CLIENT_TIMEOUT_S
            )
        mark = run.mark()
        start = time.perf_counter_ns()
        LOOPS[run.workload](run, server, json_client, binary_client, seconds, window)
        # CLOCK_MONOTONIC is shared with the server, so its spans can be
        # matched to this interval.
        run.loop = (start, time.perf_counter_ns(), sum(map(sum, run.lat_ns.values())))
        traced = spans_out is not None
        if traced and run.workload != "churn":
            run.ingest_probe(json_client, window)
        if probes and run.workload != "build":
            for _ in range(PROBE_BUILDS):
                run.timed_build(json_client)
        if traced and run.workload == "build":
            maintenance_probe(run, json_client, window)
        run.close_window(mark)
        run.read_counters(json_client)
    finally:
        for client in (json_client, binary_client):
            if client is not None:
                client.close()
        code = server.stop()
        if code not in (0, None):
            run.fail("server exit", RuntimeError(f"exit code {code}"))
