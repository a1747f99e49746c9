"""Both shard hosts run one scripted session each; the results are pinned.

The thread host (:class:`~repro.service.shard.TenantShard`) and the
process host (:class:`~repro.service.workers.ShardSupervisor`) put the
same front before a tenant's engine: the v1 replay-from-start skip,
the v2 :class:`~repro.service.protocol.DeliveryFront`, ``submit`` and
``submit_seq``.  Each script below runs once per host, and this file
pins, per host:

* per step: the ``(outcome, high)`` pair, ``seen`` (the next stream
  index the front hands out) and ``pending`` (the thread host's
  engine miss buffer, the process host's uncheckpointed outbox);
* the drain summary;
* the sha256 of every artifact left in the tenant directory;
* the signatures of the surface both hosts share.

Scripts:

* **v1** — a fresh life takes 20 lines, checkpoints, takes 5 more and
  is killed; a second life on the same host replays all 30 lines from
  the start, skips to the checkpoint and drains.
* **v2** — a duplicate, a gap held back and then released, an
  unsequenced line, a checkpoint, two more lines and a kill; the
  other host resumes, suppresses a resend and drains.

The kill is a stand-in for SIGKILL: a thread host is dropped with no
checkpoint and no drain; a process host has its worker stopped and
is fenced, the same path a blown drain deadline takes.
"""

import hashlib
import inspect
import os

import pytest

from certify import Host
from repro.common.types import LogRecord
from repro.service import IngestionService, ShardSupervisor, TenantShard

HOSTS = ("thread", "process")
OTHER = {"thread": "process", "process": "thread"}


def _line(i: int) -> LogRecord:
    return LogRecord(content=f"conn from host{i % 5} port {i}")


def _digests(data_dir: str) -> dict[str, str]:
    tenant_dir = os.path.join(data_dir, "t")
    digests = {}
    for name in sorted(os.listdir(tenant_dir)):
        with open(os.path.join(tenant_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()[:16]
    return digests


def run_v1(kind: str, data_dir: str) -> dict:
    first = Host(kind, data_dir, exactly_once=False)
    steps = [first.shard.submit(_line(i)) for i in range(20)]
    first.checkpoint()
    steps += [first.shard.submit(_line(i)) for i in range(20, 25)]
    life1 = first.state()
    first.kill()
    second = Host(kind, data_dir, exactly_once=False)
    steps += [second.shard.submit(_line(i)) for i in range(30)]
    life2 = second.state()
    summary = second.shard.drain()
    return {
        "steps": _runs(steps),
        "states": [life1, life2],
        "summary": _summary(summary, data_dir),
        "digests": _digests(data_dir),
    }


def run_v2(kind: str, data_dir: str) -> dict:
    first = Host(kind, data_dir, exactly_once=True)
    steps = []

    def seq(host, number):
        outcome, high = host.shard.submit_seq(_line(number), "c", number)
        steps.append((f"seq {number}", outcome, high, *host.state()))

    for number in (1, 2, 3, 4):
        seq(first, number)
    seq(first, 3)  # a duplicate
    seq(first, 6)  # a gap, held back
    seq(first, 5)  # fills it: 5 and 6 are released
    outcome = first.shard.submit(LogRecord(content="unsequenced line"))
    steps.append(("plain", outcome, None, *first.state()))
    first.checkpoint()
    steps.append(("checkpoint", None, None, *first.state()))
    for number in (7, 8):
        seq(first, number)
    first.kill()
    second = Host(OTHER[kind], data_dir, exactly_once=True)
    steps.append(("resume", None, None, *second.state()))
    seq(second, 8)  # a resend of an acked line
    seq(second, 9)
    summary = second.shard.drain()
    return {
        "steps": steps,
        "summary": _summary(summary, data_dir),
        "digests": _digests(data_dir),
    }


def _runs(outcomes: list[str]) -> list[tuple[str, int]]:
    """Run-length form of an outcome sequence."""
    runs: list[list] = []
    for outcome in outcomes:
        if runs and runs[-1][0] == outcome:
            runs[-1][1] += 1
        else:
            runs.append([outcome, 1])
    return [tuple(run) for run in runs]


def _summary(summary: dict, data_dir: str) -> dict:
    summary = dict(summary)
    if summary.get("manifest"):
        summary["manifest"] = os.path.relpath(summary["manifest"], data_dir)
    return summary


_V1_SUMMARY = {
    "tenant": "t", "seen": 30, "accepted": 10, "lines": 30, "events": 1,
    "quarantined": 0, "breaker_open": False,
    "manifest": os.path.join("t", "out.manifest.json"),
}
_V2_SUMMARY = {
    "tenant": "t", "seen": 10, "accepted": 3, "lines": 10, "events": 2,
    "quarantined": 0, "breaker_open": False,
    "manifest": os.path.join("t", "out.manifest.json"),
}
_PROCESS = {"restarts": 0, "isolation": "process"}

#: Both hosts leave the same bytes behind.  The record log holds one
#: frame per record, so its bytes do not depend on when either host
#: checkpointed.
DIGESTS_V1 = {
    "out.checkpoint.json": "34c3b621c1011701",
    "out.checkpoint.records.jsonl": "619fbf534e6ab95a",
    "out.events": "75af602ee7936723",
    "out.manifest.json": "67dbe309f2df5939",
    "out.structured": "835a4751b442d13c",
}
DIGESTS_V2 = {
    "out.checkpoint.json": "caf7fb2c42531b9c",
    "out.checkpoint.records.jsonl": "5a8adc439ed01c70",
    "out.events": "9424483ebb77abde",
    "out.manifest.json": "738f8c139b20720c",
    "out.structured": "c87fdbd108e84020",
}

GOLDEN_V1 = {
    "thread": {
        "steps": [("accepted", 25), ("replayed", 20), ("accepted", 10)],
        "states": [(25, 25), (30, 30)],
        "summary": _V1_SUMMARY,
        "digests": DIGESTS_V1,
    },
    "process": {
        "steps": [("accepted", 25), ("replayed", 20), ("accepted", 10)],
        "states": [(25, 5), (30, 10)],
        "summary": {**_V1_SUMMARY, **_PROCESS},
        "digests": DIGESTS_V1,
    },
}

#: ``(step, outcome, high, seen, pending)`` up to the kill; the two
#: hosts differ only in what ``pending`` counts.
_V2_FIRST_LIFE = [
    ("seq 1", "accepted", 1, 1),
    ("seq 2", "accepted", 2, 2),
    ("seq 3", "accepted", 3, 3),
    ("seq 4", "accepted", 4, 4),
    ("seq 3", "duplicate", 4, 4),
    ("seq 6", "pending", 4, 4),
    ("seq 5", "accepted", 6, 6),
    ("plain", "accepted", None, 7),
    ("checkpoint", None, None, 7),
    ("seq 7", "accepted", 7, 8),
    ("seq 8", "accepted", 8, 9),
]
_V2_SECOND_LIFE = [
    ("resume", None, None, 9),
    ("seq 8", "duplicate", 8, 9),
    ("seq 9", "accepted", 9, 10),
]
#: ``pending`` per step: the engine's miss buffer on the thread host,
#: the outbox a checkpoint has not yet covered on the process host.
_PENDING = {
    "thread": [1, 2, 3, 4, 4, 4, 6, 7, 7, 8, 9],
    "process": [1, 2, 3, 4, 4, 4, 6, 7, 0, 1, 2],
}
_RESUMED_PENDING = {"thread": [9, 9, 10], "process": [2, 2, 3]}


def _v2_steps(kind: str) -> list[tuple]:
    return [
        (*step, pending)
        for step, pending in zip(_V2_FIRST_LIFE, _PENDING[kind])
    ] + [
        (*step, pending)
        for step, pending in zip(
            _V2_SECOND_LIFE, _RESUMED_PENDING[OTHER[kind]]
        )
    ]


GOLDEN_V2 = {
    "thread": {
        "steps": _v2_steps("thread"),
        "summary": {**_V2_SUMMARY, **_PROCESS},
        "digests": DIGESTS_V2,
    },
    "process": {
        "steps": _v2_steps("process"),
        "summary": _V2_SUMMARY,
        "digests": DIGESTS_V2,
    },
}


@pytest.mark.parametrize("kind", HOSTS)
def test_v1_session(kind, tmp_path):
    assert run_v1(kind, str(tmp_path)) == GOLDEN_V1[kind]


@pytest.mark.parametrize("kind", HOSTS)
def test_v2_session_resumed_under_the_other_host(kind, tmp_path):
    assert run_v2(kind, str(tmp_path)) == GOLDEN_V2[kind]


SURFACE = {
    "IngestionService": (
        "(data_dir: 'str', factory, *, "
        "parser_name: 'str' = 'parser', "
        "admission: 'AdmissionController | None' = None, "
        "telemetry=None, io=None, isolation: 'str' = 'thread', "
        "protocol: 'str' = 'v1', "
        "worker_kwargs: 'dict | None' = None, on_checkpoint=None, "
        "**shard_kwargs) -> 'None'"
    ),
    "ShardSupervisor": (
        "(tenant: 'str', data_dir: 'str', factory, *, "
        "parser_name: 'str' = 'parser', telemetry=None, io=None, "
        "watchdog: 'float' = 5.0, "
        "heartbeat_interval: 'float' = 0.2, "
        "checkpoint_every: 'int' = 500, "
        "poison_threshold: 'int' = 3, fence_threshold: 'int' = 5, "
        "drain_timeout: 'float' = 60.0, term_grace: 'float' = 2.0, "
        "faults=(), clock=<built-in function monotonic>, "
        "sleep=<built-in function sleep>, on_checkpoint=None, "
        "exactly_once: 'bool' = False, **shard_kwargs) -> 'None'"
    ),
    "ShardSupervisor.checkpoint": "(self) -> 'None'",
    "ShardSupervisor.drain": "(self) -> 'dict'",
    "ShardSupervisor.submit": "(self, record: 'LogRecord') -> 'str'",
    "ShardSupervisor.submit_seq": (
        "(self, record: 'LogRecord', client: 'str', "
        "seq: 'int') -> 'tuple[str, int]'"
    ),
    "TenantShard": (
        "(tenant: 'str', data_dir: 'str', factory, *, "
        "parser_name: 'str' = 'parser', "
        "flush_policy: 'str' = 'prefix', flush_size: 'int' = 200, "
        "cache_capacity: 'int' = 512, "
        "max_pending: 'int | None' = None, "
        "overflow: 'str' = 'block', "
        "budget: 'ResourceBudget | None' = None, "
        "ladder: 'DegradationLadder | None' = None, "
        "check_every: 'int' = 100, breaker_threshold: 'int' = 5, "
        "exactly_once: 'bool' = False, telemetry=None, "
        "io=None) -> 'None'"
    ),
    "TenantShard.checkpoint": "(self) -> 'None'",
    "TenantShard.drain": "(self) -> 'dict'",
    "TenantShard.submit": "(self, record: 'LogRecord') -> 'str'",
    "TenantShard.submit_seq": (
        "(self, record: 'LogRecord', client: 'str', "
        "seq: 'int') -> 'tuple[str, int]'"
    ),
}


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_surface_signature(name):
    owner, _, method = name.partition(".")
    target = {
        "TenantShard": TenantShard,
        "ShardSupervisor": ShardSupervisor,
        "IngestionService": IngestionService,
    }[owner]
    if method:
        target = getattr(target, method)
    assert str(inspect.signature(target)) == SURFACE[name]
