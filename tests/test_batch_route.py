"""One route for every entry point: a chunk equals its lines one by one.

The service routes a v2 chunk, a v1 chunk and a replayed chunk through
one router, which splits the chunk per tenant under one hold of the
service lock and hands each shard its lines as one batch; the shard
steps the batch entry by entry.  Feeding one stream as one chunk and
as one line per call must therefore be indistinguishable:

* the same outcome per line (and, under v2, the same final ack
  watermark per tenant);
* the same journal bytes before drain, the same service and tenant
  quarantine records, and the same drained artifact digests;
* one ``repro_tenant_ingest_latency_seconds`` observation per line
  fed, either way.

The stream holds what makes a batch interesting: duplicates,
reorders, a gap that never fills, invalid tenant keys, unsequenced
lines on a v2 host, an admission rate limit under an injected clock,
and a flush parser that crashes inside a batch (so the crash streak
opens the breaker part-way through it).

Two satellites of the same change live here too: a drain takes its
framed record counts from the writers' pins (it decodes nothing it
just wrote), and ``replay_lines`` still stops at a line boundary when
a shutdown guard trips inside a chunk.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time

import pytest

from certify import FAST
from repro.observability import Telemetry
from repro.parsers import make_parser
from repro.resilience import durability
from repro.resilience.durability import CODEC_FRAMED, load_manifest
from repro.service import IngestionService, replay_lines
from repro.service import server as server_module
from repro.service.admission import AdmissionController
from repro.service.protocol import JOURNAL_NAME
from repro.service.server import SERVICE_QUARANTINE_NAME
from repro.service.shard import MANIFEST_NAME
from repro.service.signals import ShutdownGuard, ShutdownRequested

CLIENT = "edge-1"
HOSTS = ("thread", "process")
#: Outcome tags of a line that reached ``_feed`` on a thread host.
FED = ("accepted", "rejected", "quarantined", "breaker")
#: A flush holding a line with this text raises.
MARKER = "boom"
LATENCY = "repro_tenant_ingest_latency_seconds"


class CrashesOnMarker:
    """Drain, except that a flush holding a marked line raises."""

    name = "CrashesOnMarker"

    def parse(self, records):
        if any(MARKER in record.content for record in records):
            raise RuntimeError("flush parser crashed on a marked line")
        return make_parser("Drain").parse(records)


def _content(tenant: str, n: int) -> str:
    """alpha's lines and beta's first five share two templates; beta's
    sixth is marked, and from there every line is a new shape (a miss),
    so every flush holds the marked line until the breaker opens."""
    if tenant == "beta" and n >= 6:
        return " ".join([MARKER if n == 6 else "event", str(n)] + ["x"] * n)
    return f"conn from host{n % 3} port {n} by {tenant}"


#: Per-tenant arrival orders: duplicates, reorders, and alpha's 12
#: waits for an 11 that never comes.
V2_ORDER = {
    "alpha": [1, 2, 2, 4, 3, 5, 6, 7, 9, 8, 10, 12, 13],
    "beta": [1, 3, 2, 4, 5, 5, 6, 7, 8, 9, 10, 11],
}
#: Lines no router may pass on, in either wire format.
GARBAGE_V1 = ["no tab here", "bad/key\tcontent", "x" * 65 + "\tlong", "\tx"]
GARBAGE_V2 = [
    "alpha\tno sequence number", "0 alpha\tsequence zero",
    "x7 beta\tnot a number", "14 bad/key\tcontent", "15 notab",
    "\u00b2 alpha\ta digit int() refuses",
]


def _interleave(*streams: list[str]) -> list[str]:
    merged = itertools.zip_longest(*streams)
    return [line for group in merged for line in group if line is not None]


def v1_lines() -> list[str]:
    alpha = [f"alpha\t{_content('alpha', n)}" for n in range(1, 15)]
    beta = [f"beta\t{_content('beta', n)}" for n in range(1, 13)]
    return _interleave(alpha, beta, GARBAGE_V1)


def v2_lines() -> list[str]:
    alpha, beta = (
        [f"{n} {tenant}\t{_content(tenant, n)}" for n in V2_ORDER[tenant]]
        for tenant in ("alpha", "beta")
    )
    return _interleave(alpha, beta, GARBAGE_V2)


def _service(root, host: str, protocol: str = "v1") -> IngestionService:
    """A clocked rate limit, a marker-crashing parser, a small delta
    flush: the breaker opens three flushes after beta's sixth line."""
    return IngestionService(
        str(root), CrashesOnMarker, parser_name="Drain", isolation=host,
        protocol=protocol, telemetry=Telemetry.create(),
        worker_kwargs=dict(FAST) if host == "process" else None,
        admission=AdmissionController(
            rate=20.0, burst=6.0, clock=itertools.count(0, 0.01).__next__
        ),
        flush_policy="delta", flush_size=2, breaker_threshold=3,
    )


def _files(directory: str) -> dict[str, bytes]:
    if not os.path.isdir(directory):
        return {}
    files = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                files[name] = handle.read()
    return files


def _observe(service: IngestionService, root) -> dict:
    """Everything the two ways of feeding must agree on."""
    journals = {
        tenant: _files(os.path.join(str(root), tenant)).get(JOURNAL_NAME)
        for tenant in service.tenants()
    }
    summary = service.drain()
    service.telemetry.metrics.collect()
    latency = service.telemetry.metrics.get(LATENCY)
    return {
        "submitted": service.submitted,
        "journals": journals,
        "latency_counts": {
            tenant: latency.labels(tenant=tenant).count
            for tenant in service.tenants()
        },
        "service_quarantine": _files(str(root))[SERVICE_QUARANTINE_NAME],
        "tenants": {
            tenant: {
                name: hashlib.sha256(data).hexdigest()
                for name, data in _files(
                    os.path.join(str(root), tenant)
                ).items()
            }
            for tenant in summary["tenants"]
        },
    }


def _fed(results, host: str) -> dict[str, int]:
    """Lines that reached a tenant's engine, from per-line results."""
    fed: dict[str, int] = {}
    for outcome, tenant, _ in results:
        if outcome in (FED if host == "thread" else ("accepted",)):
            fed[tenant] = fed.get(tenant, 0) + 1
    return fed


def _acks(results) -> dict[str, int]:
    acks: dict[str, int] = {}
    for _, tenant, high in results:
        if high is not None:
            acks[tenant] = max(high, acks.get(tenant, 0))
    return acks


def test_v2_chunk_equals_its_lines_on_the_thread_host(tmp_path):
    runs = {}
    for way in ("chunk", "lines"):
        root = tmp_path / way
        service = _service(root, "thread", protocol="v2")
        if way == "chunk":
            results, errors = service.submit_lines_v2(v2_lines(), CLIENT)
            assert errors == []
            plain, errors = service.submit_lines(v1_lines())
            assert errors == []
        else:
            results = [
                service.submit_line_v2(line, CLIENT) for line in v2_lines()
            ]
            plain = [
                (service.submit_line(line), None, None)
                for line in v1_lines()
            ]
        watermarks = {
            tenant: service.shard(tenant)._front.high(CLIENT)
            for tenant in service.tenants()
        }
        runs[way] = {
            "outcomes": [outcome for outcome, _, _ in results + plain],
            "acks": _acks(results),
            "watermarks": watermarks,
            **_observe(service, root),
        }
        # Fed: every sequence up to the watermark (an arrival that
        # fills a gap feeds the held-back lines with it), plus the
        # unsequenced lines that reached the engine.
        fed = dict(watermarks)
        for line, (outcome, _, _) in zip(v1_lines(), plain):
            if outcome in FED:
                tenant = line.partition("\t")[0]
                fed[tenant] = fed.get(tenant, 0) + 1
        assert runs[way]["latency_counts"] == fed
    chunk, lines = runs["chunk"], runs["lines"]
    assert chunk == lines
    # The stream exercised what it claims to.
    outcomes = set(chunk["outcomes"])
    assert {"duplicate", "pending", "protocol", "rate", "quarantined",
            "breaker", "accepted"} <= outcomes
    assert chunk["acks"] == chunk["watermarks"] == {"alpha": 7, "beta": 8}
    assert all(chunk["journals"].values())


@pytest.mark.parametrize("host", HOSTS)
def test_v1_chunk_equals_its_lines(host, tmp_path):
    runs = {}
    for way in ("chunk", "lines"):
        root = tmp_path / way
        service = _service(root, host)
        if way == "chunk":
            results, errors = service.submit_lines(v1_lines())
            assert errors == []
        else:
            results = [
                (service.submit_line(line), line.partition("\t")[0], None)
                for line in v1_lines()
            ]
        runs[way] = {
            "outcomes": [outcome for outcome, _, _ in results],
            **_observe(service, root),
        }
        assert runs[way]["latency_counts"] == _fed(
            [r for r in results if r[0] != "protocol"], host
        )
    assert runs["chunk"] == runs["lines"]
    # A process host answers "accepted" for what it enqueues; its
    # worker's crashes and breaker show in the quarantine digests.
    shown = {"protocol", "rate", "accepted"} | (
        {"quarantined", "breaker"} if host == "thread" else set()
    )
    assert shown <= set(runs["chunk"]["outcomes"])
    assert runs["chunk"]["journals"] == {"alpha": None, "beta": None}
    assert "out.quarantine.jsonl" in runs["chunk"]["tenants"]["beta"]


@pytest.mark.parametrize("host", HOSTS)
def test_replay_chunks_equal_its_lines(host, tmp_path, monkeypatch):
    lines = v1_lines()
    runs = {}
    for way in ("chunk", "lines"):
        root = tmp_path / way
        service = _service(root, host)
        if way == "chunk":
            outcomes = replay_lines(service, lines)
        else:
            outcomes = {}
            for line in lines:
                for tag, count in replay_lines(service, [line]).items():
                    outcomes[tag] = outcomes.get(tag, 0) + count
        runs[way] = {"outcomes": outcomes, **_observe(service, root)}
    assert runs["chunk"] == runs["lines"]
    # Several chunks, the last one short, route as one chunk does.
    monkeypatch.setattr(server_module, "REPLAY_CHUNK", 5)
    service = _service(tmp_path / "chunks", host)
    outcomes = replay_lines(service, lines)
    assert {"outcomes": outcomes, **_observe(service, tmp_path / "chunks")} \
        == runs["chunk"]
    fed = sum(runs["chunk"]["outcomes"].get(tag, 0) for tag in FED)
    assert sum(runs["chunk"]["latency_counts"].values()) == fed


@pytest.mark.parametrize("host", HOSTS)
def test_replay_guard_trips_inside_a_chunk(host, tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "REPLAY_CHUNK", 4)
    service = _service(tmp_path, host)
    guard = ShutdownGuard()
    k = 6  # not a multiple of the chunk

    def lines():
        for n, line in enumerate(
            f"alpha\t{_content('alpha', i)}" for i in range(10)
        ):
            if n == k:
                guard.signum = 15  # SIGTERM, noted between lines
            yield line

    with pytest.raises(ShutdownRequested):
        replay_lines(service, lines(), guard=guard)
    assert service.submitted == k
    assert service.drain()["tenants"]["alpha"]["seen"] == k


@pytest.mark.parametrize("host", HOSTS)
def test_drain_decodes_nothing_it_wrote(host, tmp_path, monkeypatch):
    """A drain counts framed records from the writers' pins: no
    ``scan_framed`` call, in this process or a worker, lands while it
    runs, and every pinned count is what a fresh scan finds."""
    calls = tmp_path / "scan_calls"
    real_scan = durability.scan_framed

    def spy(data):
        with open(calls, "a") as handle:
            handle.write(f"{time.monotonic()}\n")
        return real_scan(data)

    # Patched before the service exists, so forked workers inherit it.
    monkeypatch.setattr(durability, "scan_framed", spy)
    root = tmp_path / "data"
    service = _service(root, host)
    replay_lines(service, v1_lines())
    started = time.monotonic()
    service.drain()
    ended = time.monotonic()
    stamps = calls.read_text().split() if calls.exists() else []
    assert not [s for s in stamps if started <= float(s) <= ended]
    framed = 0
    for tenant in ("alpha", "beta"):
        tenant_dir = os.path.join(str(root), tenant)
        manifest = load_manifest(os.path.join(tenant_dir, MANIFEST_NAME))
        for name, entry in manifest["artifacts"].items():
            if entry["codec"] != CODEC_FRAMED:
                continue
            framed += 1
            with open(os.path.join(tenant_dir, name), "rb") as handle:
                data = handle.read()
            records, valid = real_scan(data)
            assert (entry["records"], entry["bytes"]) == (
                len(records), valid
            ) == (len(records), len(data))
    assert framed == 3  # two record logs and beta's quarantine
