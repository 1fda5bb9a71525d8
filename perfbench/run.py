"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload churn --seed 1 --seconds 12 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced window and reports the per-layer metrics (see
``README.md`` in this directory).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every operation succeeded and every checked answer sat
inside its certified envelope.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("point", "bulk", "churn", "build")
DEADLINE_S = 170
RATE_BLOCKS = 16


class Abort(Exception):
    pass


def _raise_abort(signum, _frame):
    raise Abort(f"stopped by signal {signal.Signals(signum).name}")


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def blocked_rate(work, waits_ns, blocks: int = RATE_BLOCKS) -> float:
    """Throughput a blocked caller sees: the run's requests in ``blocks``
    consecutive blocks, each block's work over the sum of its round
    trips; median over blocks.  A stall counts in full in its block;
    only a stall confined to fewer than half the blocks leaves the
    median alone (the printed p99 shows those)."""
    size = len(waits_ns) // blocks
    if size == 0:
        return sum(work) * 1e9 / sum(waits_ns) if waits_ns else 0.0
    rates = [
        sum(work[i:i + size]) * 1e9 / sum(waits_ns[i:i + size])
        for i in range(0, size * blocks, size)
    ]
    return statistics.median(rates)


def end_to_end(run) -> dict:
    """Every end-to-end metric as ``name -> (value, unit, samples)``.

    Server CPU and ``qerror_max`` are medians of per-window values (see
    ``Run.close_window``); ``qerror_max`` is per window the largest
    q-error above kθ over every column's first ``QERROR_SAMPLE`` checked
    answers.
    """
    estimates = run.lat_ns.get("estimate", [])
    builds = run.lat_ns.get("build", [])

    def per_window(name):
        return _median(run.per_window.get(name, []))

    return {
        "setup_s": (statistics.median(run.setup_s), "s", len(run.setup_s)),
        "estimate_p50_us": (_percentile(estimates, 50) / 1e3, "us", len(estimates)),
        "server_cpu_us_per_pred": (per_window("server_cpu_us_per_pred"), "us", run.preds),
        "build_s": (statistics.median(builds) / 1e9 if builds else 0.0, "s", len(builds)),
        "hist_bytes_per_distinct": (
            run.hist_bytes / run.hist_distinct if run.hist_distinct else 0.0,
            "B",
            run.hist_files,
        ),
        "qerror_max": (per_window("qerror_max"), "ratio", len(run.per_window["qerror_max"])),
    }


def reported_only(run) -> dict:
    """Printed with the end-to-end metrics but not in ``BENCHMARK.json``:
    their ten-run spread on a small shared host exceeds any allowed
    bound (see README.md).  The ingest metrics exist where the main loop
    ingests, that is on ``churn``."""
    estimates = run.lat_ns.get("estimate", [])
    inserts = run.lat_ns.get("insert", [])
    out = {
        "estimate_p99_us": (_median(run.per_window.get("estimate_p99_us", [])), "us", len(estimates)),
        "estimate_preds_per_s": (blocked_rate(run.estimate_preds, estimates), "1/s", run.preds),
    }
    if inserts:
        out["ingest_p50_ms"] = (_percentile(inserts, 50) / 1e6, "ms", len(inserts))
        out["ingest_rows_per_s"] = (
            blocked_rate(run.insert_rows, inserts),
            "1/s",
            sum(run.insert_rows),
        )
    return out


def primary_ns(run) -> float:
    """Mean time of the workload's own unit of work (trace overhead base)."""
    lat = run.lat_ns
    if run.workload == "build":
        return statistics.fmean(lat["build"])
    if run.workload == "churn":
        batches = len(lat["insert"]) + len(lat["delete"])
        total = sum(lat["insert"]) + sum(lat["delete"]) + sum(lat["estimate"])
        return total / batches
    return statistics.fmean(lat["estimate"])


def counter_lines(run) -> list:
    """Server counters from the ``metrics`` op, each ratio with its base."""
    c = run.counters
    repairs, triggered = c["repairs"], c["rebuilds_triggered"]
    lines = [
        f"repairs={repairs} rebuilds_triggered={triggered} "
        f"rebuilds_escalated={c['rebuilds_escalated']} repairs_failed={c['repairs_failed']} "
        f"worker_fallbacks={c['worker_fallbacks']} server_errors={c['errors']}",
        f"repair_frac={repairs / (repairs + triggered) if repairs + triggered else 0.0:.3f} "
        f"(base: {repairs + triggered} maintenance actions)",
    ]
    for transport in ("json", "binary"):
        moved = run.wire[f"{transport}.bytes_in"] + run.wire[f"{transport}.bytes_out"]
        frames = run.wire[f"{transport}.frames_in"]
        lines.append(f"wire.{transport}: {moved} bytes over {frames} requests")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from layers import layer_metrics, share_table
    from procs import host_facts, stale_servers, steal_ticks
    from workloads import WINDOWS, Run, run_window

    stale = stale_servers()
    if stale:
        print("error: a repro server from an earlier run is still alive:", file=sys.stderr)
        for line in stale:
            print(f"  {line}", file=sys.stderr)
        return 3

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(signum, _raise_abort)
    signal.alarm(DEADLINE_S)
    facts = host_facts(ROOT)
    steal = steal_ticks()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        run = Run(ROOT, work, args.workload, args.seed)
        if args.trace:
            run_window(run, args.seconds / 2, 0, probes=False)
            untraced = primary_ns(run)
            run.reset()
            spans = work / "spans.json"
            run_window(run, args.seconds / 2, 1, spans_out=spans)
            overhead = primary_ns(run) / untraced - 1.0
            metrics = layer_metrics(spans, run, overhead)
            report = share_table(spans, run.loop)
        else:
            windows = WINDOWS[args.workload]
            for window in range(windows):
                run_window(run, args.seconds / windows, window)
            metrics = end_to_end(run)
            report = [
                f"{name:<44} {value:>14.6g} {unit:<8} (n={samples}; reported, not gated)"
                for name, (value, unit, samples) in reported_only(run).items()
            ]
    except Abort as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    facts["steal_ticks"] = steal_ticks() - steal
    facts["loadavg_end"] = os.getloadavg()[0]

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(facts, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit:<8} (n={samples})")
    failed_frac = run.failed / max(run.attempted, 1)
    print(f"{'failed_frac':<44} {failed_frac:>14.6g} {'frac':<8} (n={run.attempted})")
    print(
        f"envelope: {run.tally.checked} answers checked, {run.tally.violations} outside "
        "(kθ, q + 2q/(k-2)) at k=3"
    )
    for line in counter_lines(run) + report + run.errors:
        print(line)
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
