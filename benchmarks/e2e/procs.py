"""Fresh processes: CLI runs timed from spawn to exit, and serve daemons.

Every child runs from the checkout root with ``src`` first on its
``PYTHONPATH``, writes its output to files under the run's work directory
(so no pipe can fill and stall it), and is always waited for.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: The checkout root: ``benchmarks/e2e`` lives two levels below it.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: A child (or a daemon's start) taking longer than this is stuck: the
#: slowest ones take a few seconds on the 2-CPU host.
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


@dataclass(frozen=True)
class Proc:
    """One finished child process."""

    code: int
    wall_s: float
    stdout: str
    stderr: str
    #: Peak resident set of the child itself (``ru_maxrss`` from ``wait4``).
    maxrss_mb: float


class Runner:
    """Starts children with output captured under ``work``."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = child_env()
        self._count = 0

    def log_paths(self, stem: str) -> tuple[Path, Path]:
        """Fresh stdout/stderr file paths for one child."""
        self._count += 1
        return (
            self.work / f"{stem}-{self._count}.out",
            self.work / f"{stem}-{self._count}.err",
        )

    def python(self, argv: list[str]) -> Proc:
        """Run ``python argv`` to completion; wall time from spawn to reap."""
        out_path, err_path = self.log_paths("proc")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Proc(proc.returncode, wall, stdout, stderr, usage.ru_maxrss / 1024.0)

    def cli(self, *args: str) -> Proc:
        """One ``repro-cars`` command in a fresh interpreter."""
        return self.python(["-m", "repro.cli", *args])


def free_port() -> int:
    """A loopback port nothing listens on right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def _stats_ok(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/stats")
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()


class Daemon:
    """One ``repro-cars serve --workers 1`` process on a free loopback port."""

    def __init__(self, runner: Runner, trace: Path, days: int) -> None:
        self.runner = runner
        self.trace = trace
        self.days = days
        self.port = 0
        self.proc: subprocess.Popen[bytes] | None = None

    def start(self) -> float:
        """Spawn and wait for the first 200 on ``GET /stats``; returns the seconds.

        A daemon that exits before answering (another process took the port
        between probe and bind) is retried on a new port, up to three times.
        """
        for _ in range(3):
            self.port = free_port()
            out_path, err_path = self.runner.log_paths("serve")
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                start = time.perf_counter()
                self.proc = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.cli", "serve",
                        "--trace", str(self.trace), "--days", str(self.days),
                        "--workers", "1", "--port", str(self.port),
                    ],
                    stdout=out,
                    stderr=err,
                    env=self.runner.env,
                    cwd=ROOT,
                )
            while self.proc.poll() is None:
                if _stats_ok(self.port):
                    return time.perf_counter() - start
                if time.perf_counter() - start > CHILD_TIMEOUT_S:
                    self.stop()
                    raise TimeoutError(f"serve did not answer within {CHILD_TIMEOUT_S:.0f} s")
                time.sleep(0.005)
        raise RuntimeError(f"serve exited with {self.proc.returncode if self.proc else '?'}")

    def vmhwm_mb(self) -> float:
        """The daemon's peak resident set so far (``VmHWM``)."""
        if self.proc is None:
            raise RuntimeError("daemon not started")
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT, as an operator's Ctrl-C; kill after 30 s; always reap."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@contextmanager
def apart(daemon: Daemon) -> Iterator[None]:
    """Run the calling thread (and threads it starts) and the daemon on two CPUs.

    Keeps the load generator's Python from competing with the daemon's for
    one core, and keeps the scheduler from moving either mid-window, which
    otherwise makes sub-millisecond latencies depend on where threads land.
    With fewer than two CPUs available nothing is pinned.
    """
    mine = os.sched_getaffinity(0)
    cpus = sorted(mine)
    if len(cpus) < 2 or daemon.proc is None:
        yield
        return
    for task in Path(f"/proc/{daemon.proc.pid}/task").iterdir():
        os.sched_setaffinity(int(task.name), {cpus[-1]})
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mine)
