"""Unit and integration tests for the multi-tenant ingestion service.

Covers the per-tenant failure domain (:class:`TenantShard`), the
admission layer (token buckets + global budget valve), the tenant
router and TCP front end, graceful-shutdown signal plumbing, the
replay/at-least-once resume contract, and the streaming engine's
single-writer concurrency tripwire (including ``reconfigure`` racing
the overflow paths, the degradation ladder's step-down hook).

Connection-fault injection and the noisy-neighbor isolation
certification live in ``test_service_faults.py``.
"""

import json
import os
import signal
import threading

import pytest

from certify import (
    FakeClock,
    budget_kwargs,
    compare,
    conn_lines,
    factory,
    tagged,
    tenant_lines,
    wait_for,
)
from repro.cli import main
from repro.common.errors import (
    BudgetExceededError,
    CheckpointError,
    ConcurrencyError,
    ValidationError,
)
from repro.common.types import LogRecord
from repro.degradation import (
    BudgetMonitor,
    DegradationLadder,
    LadderRung,
    ResourceBudget,
)
from repro.parsers import make_parser
from repro.service import (
    AdmissionController,
    IngestionService,
    LineServer,
    ShutdownRequested,
    TenantShard,
    TokenBucket,
    graceful_signals,
    replay_lines,
)
from repro.service.admission import CAUSE_RATE, CAUSE_SAMPLED, CAUSE_SHED
from repro.service.shard import (
    ACCEPTED,
    BREAKER,
    QUARANTINED,
    REASON_BREAKER,
    REASON_BUDGET,
    REASON_CRASH,
    REPLAYED,
)
from repro.service.signals import ShutdownGuard
from repro.streaming import StreamingParser


def _record(content: str) -> LogRecord:
    return LogRecord(content=content)


class CrashingParser:
    """A parser whose ``parse`` always explodes (tenant-fault stand-in)."""

    name = "Crashing"

    def parse(self, records):
        raise RuntimeError("synthetic parser crash")


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        for _ in range(3):
            bucket.try_take()
        clock.now = 1.0  # +2 tokens
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.now = 100.0
        assert [bucket.try_take() for _ in range(3)] == [True, True, False]

    def test_validation(self):
        with pytest.raises(ValidationError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValidationError):
            TokenBucket(rate=1, burst=0)


class TestAdmissionController:
    def test_rate_cause(self):
        clock = FakeClock()
        controller = AdmissionController(rate=1.0, burst=1.0, clock=clock)
        assert controller.admit("a") == (True, None)
        assert controller.admit("a") == (False, CAUSE_RATE)
        # A different tenant has its own bucket.
        assert controller.admit("b") == (True, None)

    def test_soft_breach_samples_noisiest_only(self):
        monitor = BudgetMonitor(
            ResourceBudget.of(queue_depth=10), queue_probe=lambda: 7.0
        )
        controller = AdmissionController(
            monitor=monitor, check_every=64, sample_keep=2
        )
        # 64 admissions make "noisy" the undisputed window leader and
        # trigger the regrade that grades the breach as soft.
        for _ in range(64):
            controller.admit("noisy")
        # Measured inside one regrade window (admissions 65..84): the
        # cached pressure state cannot flip mid-measurement.
        noisy = [controller.admit("noisy")[1] for _ in range(10)]
        quiet = [controller.admit("quiet")[1] for _ in range(10)]
        assert CAUSE_SAMPLED in noisy
        # Sampling admits 1 in sample_keep, never zero.
        assert noisy.count(None) == 5
        assert quiet == [None] * 10

    def test_hard_breach_sheds_noisiest_only(self):
        monitor = BudgetMonitor(
            ResourceBudget.of(queue_depth=10), queue_probe=lambda: 25.0
        )
        controller = AdmissionController(monitor=monitor, check_every=64)
        for _ in range(64):
            controller.admit("noisy")
        outcomes = [controller.admit("noisy")[1] for _ in range(10)]
        assert outcomes == [CAUSE_SHED] * 10
        assert controller.admit("quiet") == (True, None)

    def test_pressure_events_audit_trail(self):
        depth = {"value": 0.0}
        monitor = BudgetMonitor(
            ResourceBudget.of(queue_depth=10),
            queue_probe=lambda: depth["value"],
        )
        controller = AdmissionController(monitor=monitor, check_every=1)
        controller.admit("a")
        assert controller.pressure_events == []
        depth["value"] = 25.0
        controller.admit("a")
        depth["value"] = 0.0
        controller.admit("a")
        levels = [event["level"] for event in controller.pressure_events]
        assert levels == ["hard", None]

    def test_decay_forgives_quieted_tenant(self):
        monitor = BudgetMonitor(
            ResourceBudget.of(queue_depth=10), queue_probe=lambda: 25.0
        )
        controller = AdmissionController(
            monitor=monitor, check_every=1, decay=0.5
        )
        for _ in range(6):
            controller.admit("was-noisy")
        # was-noisy goes silent; steady keeps talking and the decayed
        # window hands it the "noisiest" crown within a few checks.
        for _ in range(12):
            controller.admit("steady")
        assert controller.admit("was-noisy") == (True, None)

    def test_validation(self):
        with pytest.raises(ValidationError):
            AdmissionController(check_every=0)
        with pytest.raises(ValidationError):
            AdmissionController(sample_keep=1)
        with pytest.raises(ValidationError):
            AdmissionController(decay=1.0)


class TestSignals:
    def test_exit_code_convention(self):
        assert ShutdownRequested(signal.SIGINT).exit_code == 130
        assert ShutdownRequested(signal.SIGTERM).exit_code == 143
        assert "SIGTERM" in str(ShutdownRequested(signal.SIGTERM))

    def test_guard_check_raises_only_when_requested(self):
        guard = ShutdownGuard()
        guard.check()  # no-op
        guard.signum = signal.SIGTERM
        assert guard.requested
        with pytest.raises(ShutdownRequested) as excinfo:
            guard.check()
        assert excinfo.value.exit_code == 143

    def test_cooperative_mode_notes_signal_without_raising(self):
        with graceful_signals() as guard:
            os.kill(os.getpid(), signal.SIGINT)
            # The handler ran (no KeyboardInterrupt, no raise) and only
            # flagged the guard.
            assert guard.signum == signal.SIGINT

    def test_immediate_mode_raises_from_handler(self):
        with pytest.raises(ShutdownRequested):
            with graceful_signals(immediate=True):
                os.kill(os.getpid(), signal.SIGTERM)

    def test_handlers_restored_after_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_signals():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


class TestTenantShard:
    def test_accept_and_drain_artifacts(self, tmp_path):
        shard = TenantShard("alpha", str(tmp_path), factory())
        for i in range(30):
            outcome = shard.submit(
                _record(f"Connection from 10.0.0.{i % 5} established")
            )
            assert outcome == ACCEPTED
        summary = shard.drain()
        assert summary["lines"] == 30
        assert summary["accepted"] == 30
        assert not summary["breaker_open"]
        base = tmp_path / "alpha"
        assert (base / "out.events").exists()
        assert (base / "out.structured").exists()
        assert (base / "out.checkpoint.json").exists()
        assert (base / "out.manifest.json").exists()
        # Idempotent: a second drain returns the same summary object.
        assert shard.drain() is summary

    def test_manifest_keys_are_relative(self, tmp_path):
        shard = TenantShard("alpha", str(tmp_path), factory())
        shard.submit(_record("Connection established"))
        shard.drain()
        manifest = json.loads(
            (tmp_path / "alpha" / "out.manifest.json").read_text()
        )
        for key in manifest["artifacts"]:
            assert not os.path.isabs(key)
            assert "/" not in key

    def test_screen_reject_lands_in_tenant_quarantine(self, tmp_path):
        shard = TenantShard("alpha", str(tmp_path), factory())
        assert shard.submit(_record("clean line")) == ACCEPTED
        assert shard.submit(_record("bad \x00 bytes")) == "rejected"
        assert len(shard.quarantine) == 1
        assert not shard.breaker_open

    def test_crash_flood_trips_breaker(self, tmp_path):
        shard = TenantShard(
            "alpha",
            str(tmp_path),
            CrashingParser,
            flush_policy="delta",
            flush_size=1,  # every miss flushes (and crashes) immediately
            breaker_threshold=3,
        )
        outcomes = [shard.submit(_record(f"boom {i}")) for i in range(5)]
        assert outcomes == [
            QUARANTINED, QUARANTINED, QUARANTINED, BREAKER, BREAKER,
        ]
        assert shard.breaker_open
        summary = shard.drain()
        assert summary["breaker_open"]
        assert summary["quarantined"] == 5
        reasons = [
            payload["reason"]
            for payload in _framed_payloads(
                tmp_path / "alpha" / "out.quarantine.jsonl"
            )
        ]
        assert reasons.count(REASON_CRASH) == 3
        assert reasons.count(REASON_BREAKER) == 2

    def test_budget_exhaustion_trips_immediately(self, tmp_path):
        shard = TenantShard("alpha", str(tmp_path), factory())

        class ExhaustedSession:
            def feed(self, record):
                raise BudgetExceededError("memory budget exhausted")

        shard._session = ExhaustedSession()
        assert shard.submit(_record("x")) == BREAKER
        assert shard.breaker_open
        assert REASON_BUDGET in shard.breaker_reason or "budget" in (
            shard.breaker_reason or ""
        )

    def test_budgeted_requires_ladder(self, tmp_path):
        with pytest.raises(ValidationError):
            TenantShard(
                "alpha",
                str(tmp_path),
                factory(),
                budget=ResourceBudget.of(memory_mb=512),
            )

    def test_replay_resume_no_dup_no_loss(self, tmp_path):
        first = TenantShard("alpha", str(tmp_path), factory())
        lines = [f"Connection from 10.0.0.{i % 4} closed" for i in range(12)]
        for line in lines:
            first.submit(_record(line))
        first.drain()

        resumed = TenantShard("alpha", str(tmp_path), factory())
        assert resumed.resumed
        # The at-least-once source replays from the beginning: the
        # already-consumed prefix is skipped, the tail is accepted.
        outcomes = [resumed.submit(_record(line)) for line in lines]
        assert outcomes == [REPLAYED] * 12
        extra = [f"Verification succeeded for blk_{i}" for i in range(5)]
        assert [resumed.submit(_record(l)) for l in extra] == [ACCEPTED] * 5
        summary = resumed.drain()
        assert summary["seen"] == 17
        assert summary["lines"] == 17
        events = (tmp_path / "alpha" / "out.structured").read_text()
        assert len(events.splitlines()) == 17

    def test_resume_rolls_back_quarantine_appended_after_empty_checkpoint(
        self, tmp_path
    ):
        lines = [f"Connection from 10.0.0.{i} closed" for i in range(4)]
        bad = "bad \x00 bytes"
        first = TenantShard("alpha", str(tmp_path), factory())
        for line in lines:
            first.submit(_record(line))
        first.checkpoint()  # the quarantine is still empty here
        assert first.submit(_record(bad)) == "rejected"
        first.quarantine.close()  # crash: no drain, no further checkpoint

        resumed = TenantShard("alpha", str(tmp_path), factory())
        assert resumed.resumed
        outcomes = [resumed.submit(_record(l)) for l in lines + [bad]]
        assert outcomes == [REPLAYED] * 4 + ["rejected"]
        resumed.drain()
        quarantined = _framed_payloads(
            tmp_path / "alpha" / "out.quarantine.jsonl"
        )
        assert len(quarantined) == 1

    def test_budgeted_shard_resumes_on_its_rung(self, tmp_path):
        lines = [_record(line) for line in conn_lines(60)]

        def shard(label):
            return TenantShard(
                "t", str(tmp_path / label), factory(), **budget_kwargs()
            )

        calm = shard("calm")
        for record in lines:
            calm.submit(record)
        calm.drain()
        first = shard("cut")
        for record in lines[:25]:
            first.submit(record)
        assert first.stats()["rung"] == "Drain"  # stepped at line 20
        first.checkpoint()
        first.quarantine.close()  # crash: no drain
        resumed = shard("cut")
        assert resumed.stats()["rung"] == "Drain"
        assert [resumed.submit(r) for r in lines[:25]] == [REPLAYED] * 25
        for record in lines[25:]:
            resumed.submit(record)
        resumed.drain()
        compare(tmp_path / "cut", tmp_path / "calm", ["t"])

    @pytest.mark.parametrize(
        "resume",
        [
            dict(parser_name="LKE", flush_policy="delta"),
            dict(
                budget_kwargs(),
                ladder=DegradationLadder(
                    [LadderRung("LKE"), LadderRung("IPLoM")]
                ),
            ),
        ],
        ids=["no-budget", "other-rungs"],
    )
    def test_resume_off_the_saved_ladder_is_refused(self, tmp_path, resume):
        first = TenantShard("t", str(tmp_path), factory(), **budget_kwargs())
        first.submit(_record("x"))
        first.drain()
        with pytest.raises(CheckpointError, match="ladder"):
            TenantShard("t", str(tmp_path), factory(), **resume)


def _framed_payloads(path):
    """Decode a length+CRC framed JSONL quarantine file to payload dicts."""
    from repro.resilience.durability import read_jsonl_payloads

    return read_jsonl_payloads(str(path))


class TestIngestionService:
    def test_routing_and_protocol_rejects(self, tmp_path):
        service = IngestionService(str(tmp_path), factory())
        assert service.submit_line("alpha\tConnection established") == ACCEPTED
        assert service.submit_line("no tab in this line") == "protocol"
        assert service.submit_line("bad/key\tcontent") == "protocol"
        assert service.submit_line(("x" * 65) + "\tcontent") == "protocol"
        assert service.submitted == 4
        assert service.tenants() == ["alpha"]
        summary = service.drain()
        assert summary["protocol_rejects"] == 3
        assert (tmp_path / "service.quarantine.jsonl").exists()

    def test_replay_lines_counts_outcomes(self, tmp_path):
        service = IngestionService(str(tmp_path), factory())
        outcomes = replay_lines(
            service,
            tagged(tenant_lines("alpha", 10) + tenant_lines("beta", 10))
            + ["garbage"],
        )
        assert outcomes == {"accepted": 20, "protocol": 1}
        summary = service.drain()
        assert set(summary["tenants"]) == {"alpha", "beta"}

    def test_replay_guard_stops_at_line_boundary(self, tmp_path):
        service = IngestionService(str(tmp_path), factory())
        guard = ShutdownGuard()

        def lines():
            yield "alpha\tfirst line"
            yield "alpha\tsecond line"
            guard.signum = signal.SIGTERM
            yield "alpha\tchecked before submit, never fed"
            yield "alpha\tnever reached"

        with pytest.raises(ShutdownRequested):
            replay_lines(service, lines(), guard=guard)
        # Every shard is still coherent and drainable.
        summary = service.drain()
        assert summary["tenants"]["alpha"]["lines"] == 2

    def test_adopt_existing_resumes_all_tenants(self, tmp_path):
        first = IngestionService(str(tmp_path), factory())
        replay_lines(
            first, tagged(tenant_lines("alpha", 8) + tenant_lines("beta", 6))
        )
        first.drain()

        second = IngestionService(str(tmp_path), factory())
        assert second.adopt_existing() == ["alpha", "beta"]
        # beta receives nothing this life but is still finalized.
        replay_lines(second, tagged(
            tenant_lines("alpha", 8) + tenant_lines("alpha", 4, start=8)
        ))
        summary = second.drain()
        assert summary["tenants"]["alpha"]["lines"] == 12
        assert summary["tenants"]["beta"]["lines"] == 6

    def test_admission_wired_through_submit(self, tmp_path):
        clock = FakeClock()
        service = IngestionService(
            str(tmp_path),
            factory(),
            admission=AdmissionController(rate=1.0, burst=2.0, clock=clock),
        )
        outcomes = [
            service.submit_line(f"alpha\tline {i}") for i in range(4)
        ]
        assert outcomes == [ACCEPTED, ACCEPTED, "rate", "rate"]

    def test_checkpoint_all(self, tmp_path):
        service = IngestionService(str(tmp_path), factory())
        replay_lines(
            service, tagged(tenant_lines("alpha", 5) + tenant_lines("beta", 5))
        )
        service.checkpoint_all()
        assert (tmp_path / "alpha" / "out.checkpoint.json").exists()
        assert (tmp_path / "beta" / "out.checkpoint.json").exists()

    def test_crashing_tenant_never_escapes_submit(self, tmp_path):
        service = IngestionService(
            str(tmp_path),
            CrashingParser,
            flush_policy="delta",
            flush_size=1,
            breaker_threshold=2,
        )
        for i in range(4):
            outcome = service.submit_line(f"alpha\tboom {i}")
            assert outcome in (QUARANTINED, BREAKER)
        summary = service.drain()
        assert summary["tenants"]["alpha"]["breaker_open"]


class TestLineServer:
    def test_tcp_round_trip_with_partial_line(self, tmp_path):
        import socket as socketlib

        service = IngestionService(str(tmp_path), factory())
        with LineServer(service) as server:
            conn = socketlib.create_connection(
                (server.host, server.port), timeout=5
            )
            payload = "".join(
                line + "\n" for line in tagged(tenant_lines("alpha", 20))
            )
            conn.sendall(payload.encode())
            conn.sendall(b"beta\tdangling fragment without newline")
            conn.close()
            wait_for(lambda: service.submitted >= 20)
        summary = service.drain()
        assert summary["tenants"]["alpha"]["lines"] == 20
        # The dangling fragment became a protocol quarantine record,
        # not a tenant record and not a crash.
        assert summary["protocol_rejects"] == 1

    def test_multibyte_utf8_split_across_recv_chunks(self, tmp_path):
        """A codepoint torn across two TCP segments parses cleanly.

        The server splits the *byte* buffer on newlines and decodes
        whole lines only, so a chunk boundary landing mid-codepoint
        must never mojibake or quarantine the line.
        """
        import socket as socketlib
        import time

        service = IngestionService(str(tmp_path), factory())
        line = (
            "alpha\tConnection from host-καλημέρα "
            "port 9999 established\n"
        ).encode("utf-8")
        # Split inside the two-byte κ (0xCE 0xBA).
        cut = line.index("κ".encode("utf-8")) + 1
        with LineServer(service) as server:
            conn = socketlib.create_connection(
                (server.host, server.port), timeout=5
            )
            conn.sendall(line[:cut])
            # Let the first fragment land as its own recv chunk.
            time.sleep(0.3)
            conn.sendall(line[cut:])
            conn.close()
            wait_for(lambda: service.submitted >= 1)
        summary = service.drain()
        assert summary["tenants"]["alpha"]["lines"] == 1
        assert summary["protocol_rejects"] == 0
        events = (tmp_path / "alpha" / "out.events").read_text(
            encoding="utf-8"
        )
        assert "καλημέρα" in events

    def test_mid_line_disconnect_quarantined_with_tcp_origin(
        self, tmp_path
    ):
        """The dangling bytes of a dead connection carry provenance:
        the quarantine record's source is the ``tcp:host:port`` peer,
        so an operator can tell which client keeps tearing lines."""
        import socket as socketlib

        from repro.resilience import read_jsonl_payloads

        service = IngestionService(str(tmp_path), factory())
        with LineServer(service) as server:
            conn = socketlib.create_connection(
                (server.host, server.port), timeout=5
            )
            conn.sendall(tagged(tenant_lines("alpha", 1))[0].encode() + b"\n")
            conn.sendall("beta\ttorn at byte ¢".encode("utf-8")[:-1])
            conn.close()
            # Wait for the quarantine record itself: the routed first
            # line says nothing about when the reader reaches EOF.
            wait_for(lambda: len(service.quarantine) >= 1)
        summary = service.drain()
        assert summary["protocol_rejects"] == 1
        payloads = read_jsonl_payloads(
            str(tmp_path / "service.quarantine.jsonl")
        )
        assert len(payloads) == 1
        assert payloads[0]["reason"] == "protocol"
        assert payloads[0]["source"].startswith("tcp:")
        assert "torn at byte" in payloads[0]["preview"]

    def test_reset_outcomes_split_by_ingestion(self, tmp_path):
        """A peer resetting before any complete line counts as
        ``reset``; one resetting after data was routed counts as
        ``reset_after_data`` — the two must not conflate."""
        import socket as socketlib
        import struct

        from repro.observability import Telemetry

        telemetry = Telemetry.create()
        service = IngestionService(
            str(tmp_path), factory(), telemetry=telemetry
        )

        def rst_close(conn) -> None:
            conn.setsockopt(
                socketlib.SOL_SOCKET,
                socketlib.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            conn.close()

        def outcome_count(outcome: str) -> float:
            return telemetry.metrics.value(
                "repro_service_connections_total", outcome=outcome
            )

        def await_outcome(outcome: str) -> None:
            wait_for(lambda: outcome_count(outcome) >= 1)

        with LineServer(service) as server:
            # Reset with zero lines routed.
            conn = socketlib.create_connection(
                (server.host, server.port), timeout=5
            )
            rst_close(conn)
            await_outcome("reset")

            # Reset after a complete line was ingested.
            conn = socketlib.create_connection(
                (server.host, server.port), timeout=5
            )
            conn.sendall(tagged(tenant_lines("alpha", 1))[0].encode() + b"\n")
            wait_for(lambda: service.submitted >= 1)
            rst_close(conn)
            await_outcome("reset_after_data")
        assert outcome_count("reset") == 1
        assert outcome_count("reset_after_data") == 1
        service.drain()

    def test_stop_wakes_the_accept_thread(self, tmp_path):
        """``stop()`` must not sit out its join timeout: closing the
        listening socket alone leaves ``accept()`` asleep."""
        import socket as socketlib
        import time

        service = IngestionService(str(tmp_path), factory())
        idle = LineServer(service)
        idle.start()
        started = time.monotonic()
        idle.stop()
        assert time.monotonic() - started < 1.5
        assert not idle._accept_thread.is_alive()

        used = LineServer(service)
        used.start()
        conn = socketlib.create_connection((used.host, used.port), timeout=5)
        conn.sendall(tagged(tenant_lines("alpha", 1))[0].encode() + b"\n")
        wait_for(lambda: service.submitted >= 1)
        conn.close()
        started = time.monotonic()
        used.stop()
        assert time.monotonic() - started < 1.5
        assert not used._accept_thread.is_alive()
        service.drain()

    def test_finished_connections_are_pruned(self, tmp_path):
        import socket as socketlib

        service = IngestionService(str(tmp_path), factory())
        server = LineServer(service)
        server.start()
        try:
            for index in range(200):
                conn = socketlib.create_connection(
                    (server.host, server.port), timeout=5
                )
                line = tagged(tenant_lines("alpha", 1, start=index))[0]
                conn.sendall(line.encode() + b"\n")
                conn.close()
            wait_for(lambda: service.submitted >= 200 and not server._conns)
            assert service.submitted == 200
            assert len(server._conns) == 0
            # Connections still open at stop() are joined, then closed.
            live = [
                socketlib.create_connection(
                    (server.host, server.port), timeout=5
                )
                for _ in range(2)
            ]
            wait_for(lambda: len(server._conns) >= 2)
            threads = list(server._conns.values())
            assert len(threads) == 2
        finally:
            server.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert server._conns == {}
        for conn in live:
            conn.close()
        service.drain()

    def test_cli_serve_replay_mode(self, tmp_path, capsys):
        replay = tmp_path / "replay.log"
        replay.write_text(
            "".join(
                line + "\n"
                for line in tagged(
                    tenant_lines("alpha", 15) + tenant_lines("beta", 15)
                )
            )
        )
        data = tmp_path / "data"
        code = main(
            [
                "serve", "Drain", str(data),
                "--replay", str(replay),
                "--manifest-out", str(tmp_path / "run.manifest.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accepted=30" in out
        assert (data / "alpha" / "out.manifest.json").exists()
        assert (data / "beta" / "out.manifest.json").exists()
        assert main(
            ["verify-run", str(data / "alpha" / "out.manifest.json")]
        ) == 0

    def test_cli_serve_rejects_drain_after_with_replay(self, tmp_path):
        code = main(
            [
                "serve", "Drain", str(tmp_path / "d"),
                "--replay", "nope.log", "--drain-after", "5",
            ]
        )
        assert code == 2


class TestSingleWriterTripwire:
    """The engine's cross-thread entry detector (documented contract)."""

    def test_cross_thread_entry_raises_deterministically(self):
        in_flush = threading.Event()
        release = threading.Event()

        class BlockingParser:
            name = "Blocking"

            def __init__(self):
                self._inner = make_parser("Passthrough")

            def parse(self, records):
                in_flush.set()
                release.wait(timeout=10)
                return self._inner.parse(records)

        engine = StreamingParser(
            BlockingParser, flush_policy="delta", flush_size=2
        )
        errors = []

        def feeder():
            engine.feed(_record("miss one"))
            engine.feed(_record("miss two"))  # triggers the blocking flush

        thread = threading.Thread(target=feeder)
        thread.start()
        try:
            assert in_flush.wait(timeout=10)
            with pytest.raises(ConcurrencyError):
                engine.feed(_record("from the wrong thread"))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not errors
        # The owning thread is gone: this thread may use the engine now.
        engine.feed(_record("miss one"))

    def test_tripwire_releases_when_feed_raises(self):
        def refuse(line_no, record, slot):
            raise RuntimeError("downstream refused the assignment")

        engine = StreamingParser(
            lambda: make_parser("Passthrough"), flush_size=1
        )
        engine.feed(_record("known line"))  # learned; the repeat is a hit
        engine.on_assign = refuse
        with pytest.raises(RuntimeError):
            engine.feed(_record("known line"))  # raises on feed's hit path
        assert engine._busy_thread is None and engine._busy_depth == 0
        with pytest.raises(RuntimeError):
            engine.feed(_record("novel line"))  # raises inside feed -> flush
        assert engine._busy_thread is None and engine._busy_depth == 0
        # Nothing is left held: another thread may enter.
        engine.on_assign = None
        worker = threading.Thread(target=engine.feed, args=(_record("x"),))
        worker.start()
        worker.join(timeout=10)
        assert engine.counters.lines == 4

    def test_same_thread_reentrancy_is_fine(self):
        engine = StreamingParser(
            lambda: make_parser("Drain"), flush_policy="delta", flush_size=4
        )
        # feed -> flush -> finalize all nest on one thread without
        # tripping the guard.
        result = engine.parse(
            [_record(f"Connection from 10.0.0.{i}") for i in range(16)]
        )
        assert len(result.records) == 16

    def test_shard_lock_is_the_sanctioned_serialization(self, tmp_path):
        """Concurrent stress: many threads, one shard, exact accounting."""
        shard = TenantShard(
            "alpha",
            str(tmp_path),
            lambda: make_parser("Drain"),
            flush_size=32,
        )
        n_threads, per_thread = 6, 150
        failures = []

        def worker(worker_id: int):
            try:
                for i in range(per_thread):
                    outcome = shard.submit(
                        _record(
                            f"Connection from 10.0.{worker_id}.{i % 7} "
                            "established"
                        )
                    )
                    assert outcome == ACCEPTED
            except Exception as error:  # noqa: BLE001 - collected below
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []
        assert shard.seen == n_threads * per_thread
        summary = shard.drain()
        assert summary["lines"] == n_threads * per_thread


class TestReconfigureRacingOverflow:
    """``reconfigure`` while the pending buffer is mid-overflow.

    The degradation ladder calls ``reconfigure`` at step-down time
    with records still buffered; every overflow mode must stay
    coherent through the parser swap, which changes nothing else.
    """

    def _miss(self, i: int) -> LogRecord:
        return _record(f"unique miss token-{i} payload-{i * 37}")

    def test_block_mode_reconfigure_with_pending(self):
        engine = StreamingParser(
            lambda: make_parser("Drain"),
            flush_policy="delta",
            flush_size=100,
            max_pending=4,
            overflow="block",
        )
        for i in range(3):
            engine.feed(self._miss(i))
        assert engine.pending_count == 3
        applied = engine.reconfigure(lambda: make_parser("SLCT"))
        assert "flush_parser" in applied
        # Pending survives the swap; overflow still blocks (flushes).
        for i in range(3, 10):
            assert engine.feed(self._miss(i)) >= 0
        engine.finalize()
        assert len(engine.result().records) == 10

    def test_shed_mode_counts_survive_step_down(self):
        engine = StreamingParser(
            lambda: make_parser("Drain"),
            flush_policy="delta",
            flush_size=100,
            max_pending=2,
            overflow="shed",
        )
        outcomes = [engine.feed(self._miss(i)) for i in range(6)]
        shed_before = outcomes.count(-1)
        assert shed_before == 4  # buffer holds 2, the rest shed
        # Step down mid-overflow: the buffer and the shed policy stay.
        engine.reconfigure(lambda: make_parser("IPLoM"))
        after = [engine.feed(self._miss(i)) for i in range(6, 12)]
        assert after == [-1] * 6
        assert engine.counters.shed == 10
        engine.finalize()
        # Everything the engine admitted is in the result; shed lines
        # are gone by policy, not by corruption.
        admitted = len([o for o in outcomes + after if o >= 0])
        assert len(engine.result().records) == admitted

    def test_ladder_step_down_shape(self):
        """The exact call shape DegradationLadder uses at step-down."""
        engine = StreamingParser(
            lambda: make_parser("Drain"),
            flush_policy="delta",
            flush_size=64,
            cache_capacity=256,
            max_pending=8,
            overflow="block",
        )
        for i in range(5):
            engine.feed(self._miss(i))
        applied = engine.reconfigure(lambda: make_parser("SLCT"))
        assert applied == {"flush_parser": "SLCT"}
        # The shape is untouched: the buffer still blocks at 8, and
        # nothing already buffered was lost.
        outcomes = [engine.feed(self._miss(i)) for i in range(5, 9)]
        assert all(outcome >= 0 for outcome in outcomes)
        assert (engine.flush_size, engine.cache.capacity) == (64, 256)
        engine.finalize()
        assert len(engine.result().records) == 9
