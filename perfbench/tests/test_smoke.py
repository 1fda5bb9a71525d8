"""Seconds-long runs of every workload through the real command."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seconds="1.5"):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    command += ["--seed", "3", "--seconds", seconds, "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout.strip().splitlines()


def test_benchmark_json_names_runnable_workloads():
    from run import WORKLOADS

    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


# After hot-code churn the server's register-blended answers can fall
# outside the certified envelope (README.md, "Correctness"); churn's
# check counts every such answer as failed, so its run fails until the
# program is fixed.
KNOWN_DEFECT = pytest.mark.xfail(
    reason="blended answers after hot-code churn can leave the envelope", strict=False
)


@pytest.mark.parametrize(
    "workload", ["point", "bulk", pytest.param("churn", marks=KNOWN_DEFECT), "build"]
)
def test_end_to_end_smoke(workload):
    lines = _run(workload, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    failed_frac = [line for line in lines if line.startswith("failed_frac")]
    assert failed_frac and float(failed_frac[0].split()[1]) == 0.0


def test_traced_smoke_reports_every_layer_metric():
    result = json.loads(_run("build", 1, seconds="3")[-1])
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
