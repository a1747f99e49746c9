"""Forked children: one per repetition (or ladder), alone in it.

Caches, GC state and peak RSS must not leak between repetitions, so
nothing is measured in the process that asked for it.  The main process
imports the program once (1.9 s of numpy/scipy imports) and forks a
*workload process*; that one generates the workload's input and forks a
child per repetition.  The driver's time cap leaves 30 s per
invocation; paying import + generation in every repetition would leave
half of a 15 s run for timed work.  A repetition starts from the state of
a fresh interpreter that has imported ``repro`` and built its input —
whatever ran before it — with its own address space and ``VmHWM``.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import sys
import time
import traceback

#: A job that has not ended by now is killed (driver cap: 180 s a run).
JOB_TIMEOUT_S = 150.0


class RepFailed(RuntimeError):
    pass


def run(call, workdir: str) -> dict:
    """``call(workdir)`` with a fresh scratch directory, removed after."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return call(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_forked(label: str, call, workdir: str,
               timeout: float = JOB_TIMEOUT_S, leader: bool = True) -> dict:
    """Fork, run ``call(workdir)`` in the child and read its JSON result
    from a pipe.  A *leader* child heads its own process group, which
    is killed when it is done, so that nothing it started (a ``serve``,
    shard workers, its own forked repetitions) outlives it."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if leader:
                os.setsid()
            os.close(read_fd)
            payload = json.dumps({**run(call, workdir), "pid": os.getpid()})
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:  # noqa: BLE001 - reported, then the child ends
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RepFailed(f"{label}: no result in {timeout} s")
                if select.select([pipe], [], [], remaining)[0]:
                    chunk = os.read(pipe.fileno(), 1 << 20)
                    if not chunk:
                        break
                    chunks.append(chunk)
    finally:
        try:
            if leader:
                os.killpg(pid, signal.SIGKILL)
            else:
                os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already exited
        _, status = os.waitpid(pid, 0)
    if not chunks:
        raise RepFailed(
            f"{label}: child ended with status {status} and no result"
        )
    return json.loads(b"".join(chunks))
