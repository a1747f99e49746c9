"""A tenant's parser that cannot deliver: one breaker, in the checkpoint.

The contracts tested here, on both shard hosts where the host matters:

* **A crash streak counts flushes.**  A cache hit neither adds to it
  nor resets it; a flush that succeeds resets it.
* **A crash streak steps the ladder first.**  A budgeted tenant steps
  to the next rung (trigger ``crash``) after ``breaker_threshold``
  crashed flushes; only the floor rung, or an unbudgeted tenant,
  opens the breaker.
* **A crashed delta flush keeps its batch**, so the next flush, on the
  same rung or the next one, parses it.
* **The breaker is checkpoint state.**  A tenant cut and resumed
  quarantines exactly what the uncut run quarantined.
* **``drain`` never raises a tenant's parser error.**  A tenant whose
  breaker opened on crashes, or whose ``finalize`` raised, writes its
  checkpoint, record log, quarantine and manifest, and no outputs.

CI replays this file under the fault-injection job's seed ×
stream-parser matrix (``REPRO_FAULT_SEED``, ``REPRO_STREAM_PARSER``).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import pytest

import certify
from certify import FAST, Crashing, conn_lines
from repro.cli import main
from repro.common.types import LogRecord
from repro.degradation import DegradationLadder, LadderRung, ResourceBudget
from repro.observability import Telemetry
from repro.parsers import make_parser
from repro.resilience import FlakyFactory, read_jsonl_payloads
from repro.service import IngestionService, TenantShard
from repro.service.shard import (
    ACCEPTED,
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    QUARANTINE_NAME,
    QUARANTINED,
    REASON_BREAKER,
    REASON_CRASH,
)

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "13"))
STREAM_PARSER = os.environ.get("REPRO_STREAM_PARSER", "IPLoM")
HOSTS = ("thread", "process")

#: What a tripped tenant's directory holds after drain: no outputs.
TRIPPED_FILES = sorted([
    CHECKPOINT_NAME, "out.checkpoint.records.jsonl", MANIFEST_NAME,
    QUARANTINE_NAME,
])


@dataclass(frozen=True)
class CrashingRung(LadderRung):
    """A rung whose flush parser always raises."""

    def build_parser(self):
        return Crashing()


class BreaksAfterFirst:
    """Parses its first flush with *STREAM_PARSER*, then always raises."""

    name = "BreaksAfterFirst"

    def __init__(self):
        self.parses = 0

    def parse(self, records):
        self.parses += 1
        if self.parses > 1:
            raise RuntimeError("flush parser broke")
        return make_parser(STREAM_PARSER).parse(records)


def _service(tmp_path, host, parser=Crashing, telemetry=None, **kwargs):
    return IngestionService(
        str(tmp_path), parser, isolation=host, telemetry=telemetry,
        worker_kwargs=dict(FAST) if host == "process" else None, **kwargs,
    )


def _quarantine(tmp_path) -> list[tuple[str, str]]:
    path = os.path.join(str(tmp_path), "t", QUARANTINE_NAME)
    return [
        (record["reason"], record["detail"])
        for record in read_jsonl_payloads(path)
    ]


def _structured_rows(tmp_path) -> list[str]:
    path = os.path.join(str(tmp_path), "t", "out.structured")
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


@pytest.mark.parametrize("host", HOSTS)
def test_tripped_tenant_drains_without_outputs(host, tmp_path):
    service = _service(tmp_path, host, **certify.crash_kwargs())
    for line in conn_lines(12):
        service.submit_line(f"t\t{line}")
    summary = service.drain()["tenants"]["t"]
    assert summary["breaker_open"]
    assert summary["seen"] == 12 and summary["quarantined"] == 12
    assert summary.get("restarts", 0) == 0, "a drain that raised killed it"
    assert sorted(os.listdir(tmp_path / "t")) == TRIPPED_FILES
    assert main(["verify-run", summary["manifest"]]) == 0
    reasons = [reason for reason, _ in _quarantine(tmp_path)]
    assert reasons == [REASON_CRASH] * 2 + [REASON_BREAKER] * 10


@pytest.mark.parametrize("cut", sorted({6, 1 + FAULT_SEED % 11}))
@pytest.mark.parametrize("host", HOSTS)
def test_resumed_tenant_keeps_its_crash_count_and_trip(
    host, cut, tmp_path
):
    """Cut after *cut* lines (before the trip too, when the crash count
    alone must survive) and resumed on the same host."""
    records = [LogRecord(content=line) for line in conn_lines(12)]
    uncut = certify.Host("thread", str(tmp_path / "uncut"), crash=True)
    for record in records:
        uncut.shard.submit(record)
    uncut.shard.drain()
    first = certify.Host(host, str(tmp_path / "cut"), crash=True)
    for record in records[:cut]:
        first.shard.submit(record)
    first.checkpoint()
    first.kill()
    second = certify.Host(host, str(tmp_path / "cut"), crash=True)
    for record in records:  # the v1 source replays from the start
        second.shard.submit(record)
    assert second.shard.drain()["breaker_open"]
    want = _quarantine(tmp_path / "uncut")
    assert [reason for reason, _ in want] == (
        [REASON_CRASH] * 2 + [REASON_BREAKER] * 10
    )
    assert _quarantine(tmp_path / "cut") == want


@pytest.mark.parametrize("host", HOSTS)
def test_crash_streak_steps_the_ladder_and_parses_the_stranded_batch(
    host, tmp_path
):
    telemetry = Telemetry.create(trace_id="t")
    service = _service(
        tmp_path, host, parser=Crashing, telemetry=telemetry,
        parser_name="LKE", budget=ResourceBudget.of(queue_depth=100_000),
        ladder=DegradationLadder([CrashingRung("LKE"), LadderRung("Drain")]),
        flush_size=5, breaker_threshold=2,
    )
    for i in range(20):
        service.submit_line(f"t\tevent kind{i} happened on node{i}")
    summary = service.drain()["tenants"]["t"]
    # The flushes at the fifth and sixth lines crash on LKE; the step
    # to Drain comes after the second, and the next flush parses the
    # batch both left buffered.
    assert not summary["breaker_open"]
    assert summary["lines"] == 20 and summary["accepted"] == 18
    rows = _structured_rows(tmp_path)
    assert len(rows) == 20
    assert not any("PENDING" in row for row in rows)
    assert [reason for reason, _ in _quarantine(tmp_path)] == (
        [REASON_CRASH] * 2
    )
    steps = telemetry.events.of_kind("ladder_step")
    assert [(s["from"], s["to"], s["trigger"]) for s in steps] == [
        ("LKE", "Drain", "crash")
    ]


def test_crash_streak_on_the_floor_rung_opens_the_breaker(tmp_path):
    service = _service(
        tmp_path, "thread", parser_name="LKE",
        budget=ResourceBudget.of(queue_depth=100_000),
        ladder=DegradationLadder([CrashingRung("LKE")]),
        flush_size=5, breaker_threshold=2,
    )
    for i in range(20):
        service.submit_line(f"t\tevent kind{i} happened on node{i}")
    summary = service.drain()["tenants"]["t"]
    assert summary["breaker_open"]
    assert sorted(os.listdir(tmp_path / "t")) == TRIPPED_FILES
    assert [reason for reason, _ in _quarantine(tmp_path)] == (
        [REASON_CRASH] * 2 + [REASON_BREAKER] * 14
    )


def test_crashed_delta_flush_keeps_its_batch(tmp_path):
    shard = TenantShard(
        "t", str(tmp_path),
        FlakyFactory(functools.partial(make_parser, STREAM_PARSER)),
        flush_policy="delta", flush_size=5,
    )
    outcomes = [
        shard.submit(LogRecord(content=f"event kind{i} happened on node{i}"))
        for i in range(10)
    ]
    assert outcomes == [ACCEPTED] * 4 + [QUARANTINED] + [ACCEPTED] * 5
    summary = shard.drain()
    assert summary["lines"] == 10 and not summary["breaker_open"]
    rows = _structured_rows(tmp_path)
    assert len(rows) == 10
    assert not any("PENDING" in row for row in rows), "a batch was stranded"


def test_cache_hits_neither_add_to_nor_reset_the_crash_streak(tmp_path):
    shard = TenantShard(
        "t", str(tmp_path), BreaksAfterFirst, flush_policy="delta",
        flush_size=1, breaker_threshold=2,
    )
    learned = LogRecord(content="session opened for user root")
    outcomes = [
        shard.submit(learned),  # the one flush that succeeds
        shard.submit(LogRecord(content="disk sda1 failed hard")),
        shard.submit(learned),  # a hit between the two crashes
        shard.submit(LogRecord(content="fan 3 stopped spinning")),
    ]
    assert outcomes == [ACCEPTED, QUARANTINED, ACCEPTED, QUARANTINED]
    assert shard.breaker_open


@pytest.mark.parametrize("host", HOSTS)
def test_finalize_that_raises_opens_the_breaker(host, tmp_path):
    # No flush before drain: the finalize is the parser's first parse.
    service = _service(tmp_path, host, flush_size=100)
    for line in conn_lines(12):
        service.submit_line(f"t\t{line}")
    summary = service.drain()["tenants"]["t"]
    assert summary["breaker_open"] and summary["lines"] == 12
    # Nothing was quarantined, so no quarantine file either.
    assert sorted(os.listdir(tmp_path / "t")) == [
        name for name in TRIPPED_FILES if name != QUARANTINE_NAME
    ]
    assert main(["verify-run", summary["manifest"]]) == 0
