"""Server processes and host facts.

The server under test always runs as its own process, in its own
process group, with a parent-death signal armed, so it cannot outlive
the load generator: :meth:`ServerProcess.stop` kills the whole group on
every exit path, and the kernel kills it if the load generator itself
dies.  :func:`stale_servers` finds servers an earlier, aborted run left
behind, which would otherwise steal CPU from this one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_PR_SET_PDEATHSIG = 1
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_ADDRESS_PREFIX = "serving statistics on "


def _arm_parent_death_signal() -> None:
    """Runs in the child between fork and exec."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def stale_servers() -> List[str]:
    """``pid: cmdline`` of every live ``repro serve`` process but ours."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        words = [arg.decode(errors="replace") for arg in argv if arg]
        launcher = any(word.endswith("traced_serve.py") for word in words)
        if "serve" in words and ("repro" in words or launcher):
            found.append(f"{entry.name}: {' '.join(words)}")
    return found


class ServerProcess:
    """One ``repro serve`` process; ``setup_s`` is spawn-to-address."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cwd: Path, log: Path) -> None:
        self.argv = list(argv)
        self.env = env
        self.cwd = cwd
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self.setup_s = 0.0

    def start(self, timeout: float = 120.0) -> None:
        with open(self.log, "wb") as stderr:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv,
                cwd=self.cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                start_new_session=True,
                preexec_fn=_arm_parent_death_signal,
            )
        pending = b""
        deadline = start + timeout
        fd = self.proc.stdout.fileno()
        while True:
            wait = deadline - time.perf_counter()
            if wait <= 0:
                raise TimeoutError(f"server printed no address within {timeout:.0f}s")
            ready, _, _ = select.select([fd], [], [], wait)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before serving; "
                    f"stderr: {self.log.read_text(errors='replace')[-2000:]}"
                )
            pending += chunk
            for line in pending.decode(errors="replace").splitlines():
                if line.startswith(_ADDRESS_PREFIX):
                    self.setup_s = time.perf_counter() - start
                    address = line[len(_ADDRESS_PREFIX):].split()[0]
                    host, _, port = address.rpartition(":")
                    self.host, self.port = host, int(port)
                    return

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def stop(self, grace: float = 15.0) -> int:
        """SIGTERM the process group, SIGKILL it after ``grace``; waits."""
        proc = self.proc
        if proc is None:
            return 0
        self.proc = None
        try:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGTERM)
                try:
                    proc.wait(grace)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            else:
                # The leader is gone; reap any children left in its group.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        finally:
            proc.stdout.close()
        return proc.returncode


# -- host facts ---------------------------------------------------------------


def steal_ticks() -> int:
    """Aggregate CPU steal ticks since boot (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def source_digest(src: Path) -> str:
    """blake2b over the program's source files, stable across checkouts."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "n/a (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return out.stdout.strip() or "n/a"


def host_facts(root: Path) -> Dict[str, object]:
    import numpy

    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": cpu_max.read_text().strip() if cpu_max.exists() else "n/a",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "src_digest": source_digest(root / "src"),
        "loadavg_start": os.getloadavg()[0],
        "executable": Path(sys.executable).name,
    }
