"""Goldens for the recovery schedules of the three supervision stacks.

Each scenario drives one stack through a fixed fault script and pins
two things: the ``(unit, entry, attempt, status)`` sequence the stack
books, and the exact sleep schedule it asks its injected ``sleep`` for.

* ``ParserSupervisor`` — the unit is the ``parse`` call, the entry the
  chain entry's name.
* ``ChunkedParallelParser`` — the unit is the chunk index, the entry
  ``pool`` for a worker-pool try and ``in-process`` for the last
  resort; the attempt is the chunk's running count.
* ``ShardSupervisor`` — the unit is the tenant, the entry ``worker``,
  the attempt the worker life that died.

The goldens are data: a change to a recovery loop that moves any
sequence or any sleep fails here, whatever else it keeps green.  They
were recorded when each stack had its own status words; the one
outcome vocabulary that replaced them renames statuses only through
:data:`RENAMED`.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from certify import FAST, conn_lines
from repro.common.errors import BudgetExceededError
from repro.common.types import LogRecord
from repro.observability import Telemetry
from repro.parsers import make_parser
from repro.parsers.parallel import ChunkedParallelParser
from repro.resilience import (
    ChunkFault,
    FlakyFactory,
    ParserSupervisor,
    ProcessFault,
    RetryPolicy,
)
from repro.resilience.faults import PROC_EXIT, PROC_HANG, PROC_KILL
from repro.service import ShardSupervisor

_iplom = partial(make_parser, "IPLoM")


def _records(n: int) -> list[LogRecord]:
    return [
        LogRecord(content=f"request {i} served in {i * 3} ms")
        for i in range(n)
    ]


class _Recorder:
    """An injectable clock and sleep that only move when slept."""

    def __init__(self, real: bool = False) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []
        self._real = real

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds
        if self._real:
            time.sleep(seconds)


class _BudgetBlown:
    """A parser whose every parse breaches a hard budget."""

    name = "budget"

    def parse(self, records):
        raise BudgetExceededError("memory over its hard limit")


# ----------------------------------------------------------------------
# The goldens
# ----------------------------------------------------------------------

GOLDEN = {
    "supervisor-flaky": (
        [
            (0, "IPLoM", 1, "error"),
            (0, "IPLoM", 2, "error"),
            (0, "IPLoM", 3, "ok"),
        ],
        [0.1, 0.2],
    ),
    "supervisor-hang": (
        [
            (0, "slow", 1, "timeout"),
            (0, "slow", 2, "timeout"),
            (0, "IPLoM", 1, "ok"),
        ],
        [0.01],
    ),
    "supervisor-breaker": (
        [
            (0, "bad", 1, "error"),
            (0, "bad", 2, "error"),
            (0, "IPLoM", 1, "ok"),
            (1, "bad", 0, "skipped"),
            (1, "IPLoM", 1, "ok"),
        ],
        [0.01],
    ),
    "supervisor-budget": (
        [
            (0, "A", 1, "budget"),
            (0, "B", 1, "ok"),
        ],
        [],
    ),
    "chunks-raise": (
        [
            (0, "pool", 1, "ok"),
            (1, "pool", 1, "error"),
            (2, "pool", 1, "ok"),
            (1, "pool", 2, "ok"),
        ],
        [0.05],
    ),
    # Only the faulted chunk: whether the broken pool also takes its
    # neighbour down depends on which worker finished first.
    "chunks-exit": (
        [
            (0, "pool", 1, "error"),
            (0, "pool", 2, "ok"),
        ],
        [0.05],
    ),
    "chunks-hang": (
        [
            (0, "pool", 1, "ok"),
            (1, "pool", 1, "timeout"),
            (1, "pool", 2, "ok"),
        ],
        [0.05],
    ),
    "chunks-rescued": (
        [
            (0, "pool", 1, "ok"),
            (1, "pool", 1, "error"),
            (2, "pool", 1, "ok"),
            (1, "pool", 2, "error"),
            (1, "in-process", 3, "fallback-ok"),
        ],
        [0.05],
    ),
    "shard-kill-exit-hang": (
        [
            ("t", "worker", 1, "signal"),
            ("t", "worker", 2, "exit"),
            ("t", "worker", 3, "hung"),
        ],
        [0.05, 0.1, 0.2],
    ),
}


#: Old status word → the shared vocabulary's.  Applied to the goldens
#: above; nothing else about them may change.
RENAMED = {
    "fallback-ok": "ok",
    "signal": "error",
    "exit": "error",
    "hung": "timeout",
}


def _renamed(golden):
    booked, sleeps = golden
    return [
        (unit, entry, attempt, RENAMED.get(status, status))
        for unit, entry, attempt, status in booked
    ], sleeps


# ----------------------------------------------------------------------
# The scripts
# ----------------------------------------------------------------------


def _supervise(chain, calls=1, **kwargs):
    clock = _Recorder()
    supervisor = ParserSupervisor(
        chain, sleep=clock.sleep, clock=clock, **kwargs
    )
    booked = []
    for call in range(calls):
        outcome = supervisor.parse(_records(40))
        booked += [
            (call, a.parser, a.attempt, a.status)
            for a in outcome.report.attempts
        ]
    return booked, clock.sleeps


def _chunks(fault, n=60, max_chunk_attempts=3, chunk_timeout=None, only=None):
    clock = _Recorder()
    parser = ChunkedParallelParser(
        _iplom,
        chunk_size=20,
        workers=2,
        max_chunk_attempts=max_chunk_attempts,
        chunk_timeout=chunk_timeout,
        fault=fault,
        sleep=clock.sleep,
    )
    parser.parse(_records(n))
    booked = [
        (a.unit, a.parser, a.attempt, a.status)
        for a in parser.last_recovery.attempts
        if only is None or a.unit in only
    ]
    return booked, clock.sleeps


def _shard(tmp_path):
    clock = _Recorder(real=True)
    telemetry = Telemetry.create(trace_id="t")
    faults = (
        ProcessFault(PROC_KILL, at_record=5, lives=(1,)),
        ProcessFault(PROC_EXIT, at_record=25, lives=(2,), exit_code=3),
        ProcessFault(PROC_HANG, at_record=45, lives=(3,), hang_seconds=30.0),
    )
    supervisor = ShardSupervisor(
        "t", str(tmp_path), partial(make_parser, "Drain"),
        parser_name="Drain", telemetry=telemetry, checkpoint_every=10,
        faults=faults, sleep=clock.sleep, **FAST,
    )
    for line in conn_lines(60):
        supervisor.submit(LogRecord(content=line))
    assert supervisor.drain()["restarts"] == 3
    booked = [
        (a.unit, a.parser, a.attempt, a.status)
        for a in supervisor.report.attempts
    ]
    return booked, clock.sleeps


SCRIPTS = {
    "supervisor-flaky": lambda _: _supervise(
        [("IPLoM", FlakyFactory(_iplom, fail_times=2))],
        retry=RetryPolicy(attempts=3, base_delay=0.1, backoff=2.0),
    ),
    "supervisor-hang": lambda _: _supervise(
        [
            ("slow", FlakyFactory(_iplom, fail_times=99, hang_seconds=0.5)),
            ("IPLoM", _iplom),
        ],
        timeout=0.05,
        retry=RetryPolicy(attempts=2, base_delay=0.01),
    ),
    "supervisor-breaker": lambda _: _supervise(
        [("bad", FlakyFactory(_iplom, fail_times=99)), ("IPLoM", _iplom)],
        calls=2,
        retry=RetryPolicy(attempts=3, base_delay=0.01),
        breaker_threshold=2,
        breaker_reset=60.0,
    ),
    "supervisor-budget": lambda _: _supervise(
        [("A", _BudgetBlown), ("B", _iplom)],
        retry=RetryPolicy(attempts=3, base_delay=0.5),
    ),
    "chunks-raise": lambda _: _chunks(
        ChunkFault(chunks=(1,), attempts=1, mode="raise")
    ),
    "chunks-exit": lambda _: _chunks(
        ChunkFault(chunks=(0,), attempts=1, mode="exit"), n=40, only={0}
    ),
    "chunks-hang": lambda _: _chunks(
        ChunkFault(chunks=(1,), attempts=1, mode="hang", hang_seconds=5.0),
        n=40,
        chunk_timeout=0.5,
    ),
    "chunks-rescued": lambda _: _chunks(
        ChunkFault(chunks=(1,), attempts=99, mode="raise"),
        max_chunk_attempts=2,
    ),
    "shard-kill-exit-hang": _shard,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_recovery_schedule_matches_golden(name, tmp_path):
    assert SCRIPTS[name](tmp_path) == _renamed(GOLDEN[name])
