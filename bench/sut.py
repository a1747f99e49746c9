"""The system under test as a subprocess, and what ``/proc`` says of it.

``ServeProcess`` owns one ``python -m repro serve`` child: it starts it
with the shipped defaults, waits for ``serving on HOST:PORT``, and on
exit makes sure the process (and its worker tree) is gone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from bench import SRC

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as f:
            return f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None  # the process ended between listing and reading


def tree_pids(root: int) -> list[int]:
    """*root* and every live descendant."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents.setdefault(int(fields[1]), []).append(int(entry))
    out, queue = [], [root]
    while queue:
        pid = queue.pop()
        out.append(pid)
        queue.extend(parents.get(pid, ()))
    return out


def hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mib(pids) -> float:
    return sum(hwm_mib(pid) for pid in pids)


def cpu_seconds(pids) -> float:
    """User+system CPU consumed so far by *pids*."""
    total = 0.0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def wait_until_idle(pids, quiet_s: float = 0.3, timeout: float = 30.0) -> float:
    """Block until *pids* burn no CPU for *quiet_s*; returns the wait.

    In process mode an ack means journaled, not parsed: after a bulk
    phase the workers still have a backlog to parse, and a latency
    probe started on top of it measures the backlog, not the ack path.
    """
    started = time.monotonic()
    pids = list(pids)
    before = cpu_seconds(pids)
    while time.monotonic() - started < timeout:
        time.sleep(quiet_s)
        after = cpu_seconds(pids)
        if after - before < 2.0 / _TICKS:
            break
        before = after
    return time.monotonic() - started


class ServeProcess:
    """One ``python -m repro serve Drain DIR --protocol v2`` child."""

    def __init__(self, data_dir: str, isolation: str):
        self.data_dir = data_dir
        self.isolation = isolation
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self.output: list[tuple[float, str]] = []

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "Drain",
                self.data_dir, "--protocol", "v2",
                "--isolation", self.isolation,
            ],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on "):
                self.host, _, port = line.split()[-1].rpartition(":")
                self.port = int(port)
                return
        self.close()
        raise RuntimeError("serve did not print `serving on HOST:PORT`")

    def pids(self) -> list[int]:
        return tree_pids(self.proc.pid)

    def terminate(self, timeout: float = 120.0) -> dict:
        """SIGTERM, then read stdout to EOF and wait for the exit.

        Returns ``stop_s`` (SIGTERM -> the ``shutdown requested;
        draining`` line), ``exit_s`` (SIGTERM -> process exit) and the
        exit code; stdout lines are kept in :attr:`output`.
        """
        sent = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        stop_s = None
        watchdog = time.monotonic() + timeout
        for line in self.proc.stdout:
            now = time.perf_counter() - sent
            self.output.append((now, line.rstrip("\n")))
            if stop_s is None and line.startswith("shutdown requested"):
                stop_s = now
            if time.monotonic() > watchdog:
                break
        try:
            code = self.proc.wait(timeout=max(1.0, watchdog - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.close()
            code = -signal.SIGKILL
        return {
            "stop_s": stop_s,
            "exit_s": time.perf_counter() - sent,
            "returncode": code,
        }

    def close(self) -> None:
        """Make sure the server and every worker it forked are gone."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            for pid in self.pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # exited between listing and killing
        self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    def __enter__(self) -> "ServeProcess":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
