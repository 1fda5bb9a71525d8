"""Table builds on the persistent process pool.

A service builds on one pool of worker processes per process, started by
the first build and reused by every later one.  These tests pin that the
pool persists across ``build`` ops, serves concurrent builds from two
connections, and that no worker outlives ``python -m repro serve``,
however it ends.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.service.client import StatisticsClient
from repro.service.server import StatisticsService, start_server_thread

pytestmark = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task").exists(), reason="reads /proc"
)


def descendants(pid):
    """Every live descendant of ``pid``, from /proc/<pid>/task/*/children."""
    found = set()
    stack = [pid]
    while stack:
        for task in Path(f"/proc/{stack.pop()}/task").glob("*"):
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            for child in map(int, children):
                if child not in found:
                    found.add(child)
                    stack.append(child)
    return found


def running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.fixture
def pooled_service(tmp_path, served_table):
    service = StatisticsService(tmp_path / "catalog", seed=1234, build_workers=2)
    service.add_table(served_table, build=False)
    return service


def test_consecutive_builds_reuse_worker_processes(pooled_service):
    pooled_service.build("orders")
    workers = descendants(os.getpid())
    assert workers, "the first build starts the pool"
    pooled_service.build("orders")
    assert descendants(os.getpid()) == workers


def test_concurrent_builds_on_two_connections(pooled_service):
    handle = start_server_thread(pooled_service)
    results, errors = [], []
    barrier = threading.Barrier(2)

    def build():
        try:
            with StatisticsClient(*handle.address, timeout=60.0) as client:
                barrier.wait()
                results.append(client.build("orders"))
        except Exception as error:  # noqa: BLE001 -- reported below
            errors.append(error)

    try:
        threads = [threading.Thread(target=build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90.0)
    finally:
        handle.stop()
    assert not any(thread.is_alive() for thread in threads), "a build hung"
    assert not errors
    assert [(r["built"], r["exact"]) for r in results] == [(2, 1), (2, 1)]


@pytest.mark.parametrize(
    "signum, exit_code",
    # SIGTERM shuts the pool down; after SIGKILL the workers notice their
    # parent is gone and exit on their own.
    [(signal.SIGTERM, 0), (signal.SIGKILL, -signal.SIGKILL)],
)
def test_no_worker_outlives_serve(tmp_path, signum, exit_code):
    columns = tmp_path / "cols"
    columns.mkdir()
    rng = np.random.default_rng(5)
    np.save(columns / "amount.npy", rng.integers(1, 500, size=20_000))
    np.save(columns / "region.npy", rng.zipf(1.5, size=20_000) % 3000)
    np.save(columns / "flag.npy", rng.integers(0, 2, size=20_000))
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [
        sys.executable, "-m", "repro", "serve", str(columns), str(tmp_path / "cat"),
        "--port", "0", "--build-workers", "2",
    ]
    server = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    try:
        deadline = time.monotonic() + 120.0
        for line in server.stdout:
            if line.startswith("serving statistics on"):
                break
            assert time.monotonic() < deadline, "server did not come up"
        else:
            pytest.fail(f"server exited early with {server.wait()}")
        children = descendants(server.pid)
        assert children, "the startup build runs on the process pool"
        server.send_signal(signum)
        assert server.wait(timeout=60.0) == exit_code
        deadline = time.monotonic() + 20.0
        while any(running(pid) for pid in children):
            assert time.monotonic() < deadline, (
                f"survived the server: {sorted(p for p in children if running(p))}"
            )
            time.sleep(0.05)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
