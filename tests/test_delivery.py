"""Exactly-once ingestion certification: wire protocol v2 end to end.

Four layers of the delivery contract:

* **Wire format + dedup state** — HELLO/ACK/data-line round trips,
  :class:`DeliveryWindow` watermark/holdback semantics, and the shape
  of a seeded :class:`NetworkFault` schedule (disjoint windows, all
  kinds).
* **Durable client spool** — :class:`DurableSender` spools before it
  wires, rebuilds sequence counters from a recovered spool, resends
  the unacked suffix, and raises :class:`DeliveryError` (exit 4 at the
  CLI) when the flush deadline expires with lines still spooled.
* **Bind retry** — both TCP front ends (:class:`LineServer` and
  :class:`TelemetryServer`) absorb an ``EADDRINUSE`` race with bounded
  backoff, exactly the respawn window the exactly-once story creates.
* **Certification** — the chunked wire path converges to a calm run
  through a seeded storm and a killed connection; a storm plus a
  whole-service SIGKILL, resumed under either host, are rows of the
  certification matrix (``tests/certify.py``).

The fault schedule is seeded; CI sweeps ``REPRO_NET_SEED`` so
different partition/half-close/duplicate/reorder/ack-drop scripts all
certify the same invariants.
"""

import json
import os
import shutil
import signal
import socket

import pytest

import certify
from certify import FAST, NET_SEED, factory, tenant_lines, wait_for
from repro.cli import main
from repro.common.errors import DeliveryError, ValidationError
from repro.common.types import LogRecord
from repro.common.net import bind_with_retry, retry_eaddrinuse
from repro.observability import Telemetry, TelemetryServer
from repro.resilience import (
    NET_KINDS,
    NetworkFault,
    fault_schedule,
)
from repro.resilience.durability import read_jsonl_payloads
from repro.resilience.faults import NET_PARTITION, FaultyIO, IoFault
from repro.service import (
    DurableSender,
    IngestionService,
    LineServer,
    ShardSupervisor,
)
from repro.service.protocol import (
    DUPLICATE,
    JOURNAL_NAME,
    PENDING,
    BatchJournal,
    DeliveryFront,
    DeliveryWindow,
    ack_line,
    data_line,
    hello_line,
    parse_ack,
    parse_data,
    parse_hello,
)
from repro.service.workers import STATE_FENCED

#: CI's durability matrix sets REPRO_IO_SEED; it picks where a spool
#: write fails.
IO_SEED = int(os.environ.get("REPRO_IO_SEED", "7"))


class TestWireFormat:
    def test_hello_round_trip(self):
        assert parse_hello("HELLO v2 sender-1") == "sender-1"
        assert parse_hello(
            hello_line("a.b-c_9").decode().rstrip("\n")
        ) == "a.b-c_9"

    def test_hello_rejects_garbage(self):
        assert parse_hello("HELLO v1 sender") is None
        assert parse_hello("HELLO v2") is None
        assert parse_hello("HELLO v2 bad/id") is None
        assert parse_hello("alpha\tplain v1 line") is None
        with pytest.raises(ValidationError):
            hello_line("no spaces allowed here!")

    def test_data_line_round_trip(self):
        encoded = data_line(7, "alpha", "pkt received")
        assert encoded == b"7 alpha\tpkt received\n"
        seq, payload = parse_data(encoded.decode().rstrip("\n"))
        assert seq == 7
        assert payload == "alpha\tpkt received"

    def test_data_rejects_unsequenced(self):
        assert parse_data("alpha\tno seq here") is None
        assert parse_data("0 alpha\tzero is not a sequence") is None
        assert parse_data("x7 alpha\tnot a digit") is None

    def test_ack_round_trip(self):
        assert parse_ack(ack_line("beta", 41).decode().rstrip("\n")) == (
            "beta",
            41,
        )
        assert parse_ack("ACK beta") is None
        assert parse_ack("NAK beta 3") is None
        assert parse_ack("ACK beta x") is None
        assert parse_ack("ACK beta \u00b2") is None  # a digit int() refuses


class TestDeliveryWindow:
    def test_in_order_release_advances_watermark(self):
        window = DeliveryWindow()
        for seq in (1, 2, 3):
            status, released = window.observe(seq, f"p{seq}")
            assert status == "release"
            assert released == [(seq, f"p{seq}")]
        assert window.high == 3

    def test_duplicates_suppressed(self):
        window = DeliveryWindow()
        window.observe(1, "a")
        assert window.observe(1, "a") == (DUPLICATE, [])
        window.observe(3, "c")  # held back
        assert window.observe(3, "c") == (DUPLICATE, [])

    def test_gap_held_back_and_released_in_order(self):
        window = DeliveryWindow()
        assert window.observe(2, "b") == (PENDING, [])
        assert window.observe(4, "d") == (PENDING, [])
        status, released = window.observe(1, "a")
        assert status == "release"
        # 1 releases itself and the now-contiguous 2; 4 still waits.
        assert released == [(1, "a"), (2, "b")]
        assert window.high == 2
        status, released = window.observe(3, "c")
        assert released == [(3, "c"), (4, "d")]
        assert window.high == 4
        assert window.pending == 0

    def test_holdback_bound_drops_unacked(self):
        window = DeliveryWindow(holdback=2)
        window.observe(10, "x")
        window.observe(11, "y")
        # Past the bound: classified pending but NOT buffered — the
        # client never got an ack, so it resends.
        assert window.observe(12, "z") == (PENDING, [])
        assert window.pending == 2

    def test_advance_covers_held_sequences(self):
        window = DeliveryWindow()
        window.observe(3, "c")
        window.advance(5)
        assert window.high == 5
        assert window.pending == 0
        assert window.observe(3, "c") == (DUPLICATE, [])

    def test_validation(self):
        with pytest.raises(ValidationError):
            DeliveryWindow(high=-1)
        with pytest.raises(ValidationError):
            DeliveryWindow(holdback=0)
        with pytest.raises(ValidationError):
            DeliveryWindow().observe(0, "x")


class TestDeliveryFrontRecovery:
    def _record(self, index: int) -> LogRecord:
        return LogRecord(content=f"line {index}")

    def test_backlog_windows_and_next_index_from_a_killed_life(
        self, tmp_path
    ):
        # A life that checkpointed at position 3 (client a through
        # seq 2, client b through 1) and was killed before the prune:
        # the journal still holds entries the checkpoint covers.
        journal = BatchJournal(str(tmp_path / JOURNAL_NAME))
        deliveries = [
            ("a", 1), ("b", 1), ("a", 2), ("a", 3), None, ("b", 2),
        ]
        for index, delivery in enumerate(deliveries):
            journal.append(index, self._record(index), delivery)
        journal.close()
        intact = os.path.getsize(tmp_path / JOURNAL_NAME)
        with open(tmp_path / JOURNAL_NAME, "ab") as handle:
            handle.write(b"torn mid-append by the SIGK")

        front = DeliveryFront(str(tmp_path), 3, {"a": 2, "b": 1})
        assert os.path.getsize(tmp_path / JOURNAL_NAME) == intact
        assert [
            (index, record.content, delivery)
            for index, record, delivery in front.backlog
        ] == [
            (3, "line 3", ("a", 3)), (4, "line 4", None),
            (5, "line 5", ("b", 2)),
        ]
        assert (front.high("a"), front.high("b")) == (3, 2)
        assert front.high("never-seen") == 0
        assert front.next_index == 6

        # Resends of the backlog are duplicates; new work takes the
        # next index and is on disk before admit_all returns.
        assert front.admit_all([(self._record(3), 3)], "a") == (
            [DUPLICATE], []
        )
        assert front.high("a") == 3
        firsts, entries = front.admit_all([(self._record(6), 3)], "b")
        assert (firsts, front.high("b")) == ([0], 3)
        assert [(i, d) for i, _, d in entries] == [(6, ("b", 3))]
        assert read_jsonl_payloads(str(tmp_path / JOURNAL_NAME))[-1][
            "index"
        ] == 6
        front.close()

    def test_the_journal_keeps_none_of_the_recovered_entries(
        self, tmp_path
    ):
        # The front keeps only the entries past the checkpoint; the
        # 990 it covers must not stay decoded in the journal.
        journal = BatchJournal(str(tmp_path / JOURNAL_NAME))
        journal.extend(
            (index, self._record(index), ("c", index + 1))
            for index in range(1000)
        )
        journal.close()
        front = DeliveryFront(str(tmp_path), 990, {"c": 990})
        assert [index for index, _, _ in front.backlog] == list(
            range(990, 1000)
        )
        held = [
            name
            for owner in (front._journal, front._journal._log)
            for name, value in vars(owner).items()
            if isinstance(value, list) and value
        ]
        assert held == []
        front.close()

    def test_gap_is_held_then_released_in_sequence_order(self, tmp_path):
        front = DeliveryFront(str(tmp_path), 0, {})
        assert front.admit_all([(self._record(2), 2)], "a") == ([PENDING], [])
        assert front.high("a") == 0
        assert not os.path.exists(tmp_path / JOURNAL_NAME), "held ≠ owned"
        firsts, entries = front.admit_all([(self._record(1), 1)], "a")
        assert (firsts, front.high("a")) == ([0], 2)
        assert [(i, r.content, d) for i, r, d in entries] == [
            (0, "line 1", ("a", 1)), (1, "line 2", ("a", 2)),
        ]
        # An unsequenced line is owned and indexed, never acked.
        assert front.admit_all([(self._record(9), 0)]) == (
            [0], [(2, self._record(9), None)]
        )
        front.prune(entries[1:])
        front.close()
        assert [e[0] for e in DeliveryFront(str(tmp_path), 0, {}).backlog] == [1]
        front.remove()
        assert not os.path.exists(tmp_path / JOURNAL_NAME)


class TestNetworkFaultSchedule:
    def test_deterministic_for_a_seed(self):
        assert fault_schedule(NetworkFault, NET_SEED) == (
            fault_schedule(NetworkFault, NET_SEED)
        )

    def test_different_seeds_differ(self):
        assert fault_schedule(NetworkFault, 7) != fault_schedule(
            NetworkFault, 101
        )

    def test_disjoint_windows_and_full_kind_coverage(self):
        schedule = fault_schedule(NetworkFault, NET_SEED, n=5, span=200)
        assert len(schedule) == 5
        positions = [fault.at_line for fault in schedule]
        assert positions == sorted(positions)
        for index, fault in enumerate(schedule):
            assert index * 40 <= fault.at_line < (index + 1) * 40
        # With n >= len(NET_KINDS) every fault family is exercised.
        assert {fault.kind for fault in schedule} == set(NET_KINDS)

    def test_fault_validation(self):
        with pytest.raises(ValidationError):
            NetworkFault(kind="gremlin", at_line=0)
        with pytest.raises(ValidationError):
            NetworkFault(kind=NET_PARTITION, at_line=-1)
        with pytest.raises(ValidationError):
            NetworkFault(kind=NET_PARTITION, at_line=0, cut_fraction=1.5)

    def test_sender_rejects_colliding_script(self, tmp_path):
        faults = [
            NetworkFault(kind=NET_PARTITION, at_line=3),
            NetworkFault(kind=NET_PARTITION, at_line=3),
        ]
        with pytest.raises(ValidationError):
            DurableSender(
                "127.0.0.1", 1, "c", str(tmp_path / "s.jsonl"), faults=faults
            )


class TestDurableSenderSpool:
    def test_send_spools_without_a_connection(self, tmp_path):
        spool = str(tmp_path / "spool.jsonl")
        sender = DurableSender("127.0.0.1", 1, "client-a", spool)
        assert sender.send("alpha", "one") == 1
        assert sender.send("alpha", "two") == 2
        assert sender.send("beta", "uno") == 1
        assert sender.spool_depth == 3
        assert os.path.exists(spool)

    def test_an_ack_int_refuses_is_ignored_as_torn(self, tmp_path):
        sender = DurableSender(
            "127.0.0.1", 1, "client-a", str(tmp_path / "spool.jsonl")
        )
        sender.send("alpha", "one")
        sender._handle_ack("ACK alpha \u00b2")
        assert sender.spool_depth == 1
        sender._handle_ack("ACK alpha 1")
        assert sender.spool_depth == 0

    def test_recovery_rebuilds_sequences_conservatively(self, tmp_path):
        spool = str(tmp_path / "spool.jsonl")
        first = DurableSender("127.0.0.1", 1, "client-a", spool)
        first.send("alpha", "one")
        first.send("alpha", "two")
        first.close()
        # A fresh sender over the same spool: everything is unacked
        # (the watermark died with the process) and the per-tenant
        # sequence counters continue, never restart.
        second = DurableSender("127.0.0.1", 1, "client-a", spool)
        assert second.spool_depth == 2
        assert second.send("alpha", "three") == 3

    def test_flush_deadline_raises_delivery_error(self, tmp_path):
        # A port from a just-closed listener: nothing is there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        sender = DurableSender(
            "127.0.0.1",
            dead_port,
            "client-a",
            str(tmp_path / "spool.jsonl"),
            base_backoff=0.01,
            max_backoff=0.05,
        )
        sender.send("alpha", "stranded line")
        with pytest.raises(DeliveryError):
            sender.flush(timeout=0.3)
        # The line survives the failed flush, safe in the spool.
        assert sender.spool_depth == 1

    def test_validates_client_id(self, tmp_path):
        with pytest.raises(ValidationError):
            DurableSender(
                "127.0.0.1", 1, "bad id!", str(tmp_path / "s.jsonl")
            )
        sender = DurableSender(
            "127.0.0.1", 1, "ok", str(tmp_path / "s.jsonl")
        )
        with pytest.raises(ValidationError):
            sender.send("alpha", "two\nlines")

    def test_flush_delivers_and_compacts(self, tmp_path):
        telemetry = Telemetry.create()
        service = IngestionService(
            str(tmp_path / "data"),
            factory(),
            protocol="v2",
            telemetry=telemetry,
        )
        with LineServer(service) as server:
            sender = DurableSender(
                server.host,
                server.port,
                "client-a",
                str(tmp_path / "spool.jsonl"),
            )
            for tenant, content in tenant_lines("alpha", 12):
                sender.send(tenant, content)
            summary = sender.flush(timeout=30.0)
            sender.close()
        assert summary["delivered"] == 12
        assert sender.spool_depth == 0
        # Acks were counted server-side, and the shard consumed
        # exactly the unique stream.
        assert telemetry.metrics.value("repro_delivery_acked_total") >= 1
        drained = service.drain()
        assert drained["tenants"]["alpha"]["lines"] == 12

    def test_crashed_client_resend_is_suppressed(self, tmp_path):
        """The heart of exactly-once: a client that lost its ack state
        resends everything; the restored windows drop every byte."""
        telemetry = Telemetry.create()
        service = IngestionService(
            str(tmp_path / "data"),
            factory(),
            protocol="v2",
            telemetry=telemetry,
        )
        spool = str(tmp_path / "spool.jsonl")
        crashed = str(tmp_path / "crashed.jsonl")
        with LineServer(service) as server:
            first = DurableSender(
                server.host, server.port, "client-a", spool
            )
            for tenant, content in tenant_lines("alpha", 10):
                first.send(tenant, content)
            # Snapshot the spool *before* the flush compacts it: this
            # is the exact disk state a client killed before its acks
            # arrived would recover from.
            shutil.copy(spool, crashed)
            first.flush(timeout=30.0)
            first.close()

            second = DurableSender(
                server.host, server.port, "client-a", crashed
            )
            assert second.spool_depth == 10
            summary = second.flush(timeout=30.0)
            second.close()
        assert summary["delivered"] == 10
        suppressed = telemetry.metrics.value(
            "repro_delivery_duplicates_suppressed_total", tenant="alpha"
        )
        assert suppressed == 10
        drained = service.drain()
        assert drained["tenants"]["alpha"]["lines"] == 10


    def test_second_life_after_a_clean_flush_continues_the_sequence(
        self, tmp_path
    ):
        """A fully acked flush compacts every entry away; the floor
        frame it leaves keeps the next process over the same spool and
        client id from restarting at 1, where the server's window
        would drop fresh lines as duplicates (10 + 5 sent, 10 kept)."""
        service = IngestionService(
            str(tmp_path / "data"), factory(), protocol="v2"
        )
        spool = str(tmp_path / "spool.jsonl")
        with LineServer(service) as server:
            for start, count in ((0, 10), (10, 5)):
                with DurableSender(
                    server.host, server.port, "client-a", spool
                ) as life:
                    assert life.spool_depth == 0
                    for tenant, content in tenant_lines(
                        "alpha", count, start
                    ):
                        life.send(tenant, content)
                    assert life.flush(timeout=30.0)["delivered"] == count
        assert service.drain()["tenants"]["alpha"]["lines"] == 15
        assert [
            p.get("floor") for p in read_jsonl_payloads(spool)
        ] == [16]


class TestSpoolWriteFailure:
    """A send whose spool write fails takes nothing: it raises, the
    spool keeps no byte of it and its sequence is not used, so the
    next send reuses it and the server's window sees no hole."""

    @pytest.mark.parametrize("kind", ["enospc", "torn", "eio"])
    def test_failed_spool_write_burns_no_sequence(self, tmp_path, kind):
        from repro.service.client import _spool_frame

        lines = tenant_lines("alpha", 5)
        first = len(_spool_frame("alpha", 1, lines[0][1]))
        second = len(_spool_frame("alpha", 2, lines[1][1]))
        # REPRO_IO_SEED picks where in the second frame the write fails.
        at = first + IO_SEED % second
        io = FaultyIO([IoFault(kind, at_bytes=at, path_contains="spool")])
        spool = str(tmp_path / "spool.jsonl")
        service = IngestionService(
            str(tmp_path / "data"), factory(), protocol="v2"
        )
        with LineServer(service) as server:
            sender = DurableSender(
                server.host, server.port, "client-a", spool, io=io
            )
            returned = [sender.send(*lines[0])]
            with pytest.raises(OSError):
                sender.send(*lines[1])
            assert io.fired
            returned += [sender.send(*line) for line in lines[1:]]
            assert returned == [1, 2, 3, 4, 5]
            spooled = [("alpha", seq, content) for seq, (_, content)
                       in zip(returned, lines)]
            with DurableSender(
                "127.0.0.1", 1, "client-b", spool
            ) as recovered:
                assert recovered.unacked() == spooled
                assert recovered._seq == {"alpha": 6}
            assert sender.flush(timeout=10.0)["delivered"] == 5
            sender.close()
        summary = service.drain()["tenants"]["alpha"]
        assert (summary["seen"], summary["lines"]) == (5, 5)


class TestSpoolDepthGauge:
    """Satellite: the depth gauge is an O(1) count, not a spool scan."""

    def _sender(self, tmp_path, telemetry=None):
        return DurableSender(
            "127.0.0.1", 1, "client-a", str(tmp_path / "spool.jsonl"),
            telemetry=telemetry,
        )

    def test_send_and_ack_never_scan_the_spool(self, tmp_path):
        scans = []

        class Counting(DurableSender):
            def unacked(self):
                scans.append(True)
                return super().unacked()

        sender = Counting(
            "127.0.0.1", 1, "client-a", str(tmp_path / "spool.jsonl"),
            telemetry=Telemetry.create(),
        )
        scans.clear()  # recovery may index the spool once
        for tenant, content in tenant_lines("alpha", 50):
            sender.send(tenant, content)
        for high in range(1, 51):
            sender._handle_ack(f"ACK alpha {high}")
        assert scans == []
        assert sender.spool_depth == 0

    def test_gauge_tracks_unacked_through_sends_acks_and_compaction(
        self, tmp_path
    ):
        telemetry = Telemetry.create()
        sender = self._sender(tmp_path, telemetry)

        def check() -> int:
            depth = len(sender.unacked())
            assert sender.spool_depth == depth
            assert telemetry.metrics.value(
                "repro_delivery_spool_depth"
            ) == depth
            return depth

        for tenant, content in tenant_lines("alpha", 6):
            sender.send(tenant, content)
        for tenant, content in tenant_lines("beta", 4):
            sender.send(tenant, content)
        assert check() == 10
        sender._handle_ack("ACK alpha 2")
        assert check() == 8
        sender._handle_ack("ACK alpha 2")  # cumulative acks repeat
        sender._handle_ack("ACK alpha 1")  # ...and arrive stale
        sender._handle_ack("ACK gamma 9")  # a tenant never spooled
        sender._handle_ack("ACK alp")  # torn
        assert check() == 8
        sender.send("alpha", "interleaved with the acks")
        sender._handle_ack("ACK beta 99")  # beyond anything spooled
        assert check() == 5
        sender._compact()
        assert check() == 5
        sender._handle_ack("ACK alpha 7")
        assert check() == 0
        sender.close()
        # Recovery: the compacted spool's five lines, all unacked again.
        recovered = self._sender(tmp_path, Telemetry.create())
        assert recovered.spool_depth == len(recovered.unacked()) == 5


class _RecordingSocket:
    """Socket proxy that keeps every ``sendall`` payload, in order."""

    def __init__(self, sock, writes: list) -> None:
        self._sock = sock
        self._writes = writes

    def sendall(self, payload: bytes) -> None:
        self._writes.append(payload)
        self._sock.sendall(payload)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _RecordingSender(DurableSender):
    """Records each socket write and each per-line ``_transmit``."""

    def __init__(self, *args, **kwargs) -> None:
        self.writes: list[bytes] = []
        #: Transmission indices that went through the per-line seam.
        self.per_line: list[int] = []
        super().__init__(*args, **kwargs)

    def _connect(self):
        sock = super()._connect()
        self._sock = _RecordingSocket(sock, self.writes)
        return self._sock

    def _transmit(self, payload: bytes) -> None:
        self.per_line.append(self._tx_index)
        super()._transmit(payload)


class _RefuseWindow:
    """Admission stub: refuses admissions ``first..last`` (1-based)."""

    def __init__(self, first: int, last: int) -> None:
        self.first, self.last = first, last
        self.calls = 0

    def admit(self, tenant: str):
        self.calls += 1
        if self.first <= self.calls <= self.last:
            return False, "shed"
        return True, None

    def describe(self) -> str:
        return "admission: test stub"


class TestChunkedWirePath:
    """The v2 wire path moves whole chunks under the same ack contract."""

    LINES = tenant_lines("alpha", 70) + tenant_lines("beta", 50)

    def _service(self, data_dir, telemetry=None, **kwargs):
        return IngestionService(
            str(data_dir), factory(), protocol="v2",
            telemetry=telemetry, **kwargs,
        )

    def _matches_calm(self, data_dir, calm_root) -> None:
        certify.compare(
            data_dir, certify.calm_run(calm_root, self.LINES),
            ["alpha", "beta"],
        )

    def test_calm_flush_sends_each_line_exactly_once(self, tmp_path):
        telemetry = Telemetry.create()
        service = self._service(tmp_path / "data", telemetry)
        with LineServer(service) as server:
            sender = _RecordingSender(
                server.host, server.port, "client-a",
                str(tmp_path / "spool.jsonl"),
            )
            for tenant, content in self.LINES:
                sender.send(tenant, content)
            summary = sender.flush(timeout=30.0)
            sender.close()
        assert summary["delivered"] == len(self.LINES)
        assert summary["resends"] == summary["delivered"]
        for tenant in ("alpha", "beta"):
            assert telemetry.metrics.value(
                "repro_delivery_duplicates_suppressed_total", tenant=tenant
            ) == 0
        # The whole suffix left in one joined write.
        assert len(sender.writes) == 1
        assert sender.writes[0].count(b"\n") == len(self.LINES)
        assert sender.per_line == []
        # Far fewer ack frames than lines: one per tenant per chunk.
        acked = telemetry.metrics.value("repro_delivery_acked_total")
        assert 2 <= acked < len(self.LINES) / 4
        drained = service.drain()
        assert drained["tenants"]["alpha"]["lines"] == 70
        assert drained["tenants"]["beta"]["lines"] == 50

    def test_ack_frames_are_per_chunk_and_follow_ownership(self, tmp_path):
        """Raw socket: two tenants' lines in one write.  Each ack read
        must already be backed by the ownership journal — the ack =
        durable-ownership contract, checked at the instant of the ack."""
        data = tmp_path / "data"
        service = self._service(data)
        counts = {"alpha": 70, "beta": 50}
        seqs = dict.fromkeys(counts, 0)
        payload = b""
        for tenant, content in self.LINES:
            seqs[tenant] += 1
            payload += data_line(seqs[tenant], tenant, content)

        def journaled(tenant: str) -> set[int]:
            return {
                entry["seq"]
                for entry in read_jsonl_payloads(
                    str(data / tenant / "out.journal.jsonl")
                )
                if entry.get("client") == "raw-client"
            }

        frames: list[tuple[str, int]] = []
        with LineServer(service) as server:
            conn = socket.create_connection(
                (server.host, server.port), timeout=10
            )
            conn.sendall(hello_line("raw-client"))
            reader = conn.makefile("rb")
            assert reader.readline() == b"OK v2\n"
            conn.sendall(payload)
            last = dict.fromkeys(counts, 0)
            while last != counts:
                tenant, high = parse_ack(reader.readline().decode().rstrip())
                frames.append((tenant, high))
                assert high >= last[tenant]
                assert set(range(1, high + 1)) <= journaled(tenant)
                last[tenant] = high
            conn.close()
        assert len(frames) < len(self.LINES) / 4
        service.drain()

    def test_stall_window_resends_lines_refused_without_ack(self, tmp_path):
        telemetry = Telemetry.create()
        # Admissions 6..12 are refused: no ownership, so no ack.
        service = self._service(
            tmp_path / "data", telemetry, admission=_RefuseWindow(6, 12)
        )
        lines = tenant_lines("alpha", 12)
        with LineServer(service) as server:
            with DurableSender(
                server.host, server.port, "client-a",
                str(tmp_path / "spool.jsonl"),
            ) as sender:
                for tenant, content in lines:
                    sender.send(tenant, content)
                summary = sender.flush(timeout=30.0)
        # One transmit of all 12, then — a stall window later — exactly
        # the 7 still unacked; nothing was sent that the server had.
        assert summary == {"delivered": 12, "resends": 19, "reconnects": 0}
        assert telemetry.metrics.value(
            "repro_delivery_duplicates_suppressed_total", tenant="alpha"
        ) == 0
        assert service.drain()["tenants"]["alpha"]["lines"] == 12

    @pytest.mark.parametrize("seed", [7, 101])
    def test_joined_writes_leave_the_fault_index_space_alone(
        self, tmp_path, seed, calm_root
    ):
        schedule = fault_schedule(
            NetworkFault, seed, n=5, span=len(self.LINES)
        )
        scripted = {fault.at_line: fault for fault in schedule}
        service = self._service(tmp_path / "faulted")
        with LineServer(service) as server:
            sender = _RecordingSender(
                server.host, server.port, "certified-client",
                str(tmp_path / "faulted.spool.jsonl"),
                faults=schedule, base_backoff=0.01, max_backoff=0.05,
            )
            for tenant, content in self.LINES:
                sender.send(tenant, content)
            summary = sender.flush(timeout=60.0)
            sender.close()
        assert summary["delivered"] == len(self.LINES)
        # Every fault whose index was reached fired once, at its index
        # (the first pass alone covers the whole schedule's span).
        fired = [index for index in sender.per_line if index in scripted]
        assert fired == sorted(scripted)
        assert max(scripted) < sender._tx_index
        # The per-line seam carried nothing else, except the line that
        # follows a reorder hold (the hold rides out behind it).
        followers = {
            index + 1
            for index, fault in scripted.items()
            if fault.kind == "reorder"
        }
        assert set(sender.per_line) <= set(scripted) | followers
        # ...so everything between faults left as joined writes, and a
        # faulted line never shared a write with its neighbours.
        joined = [w for w in sender.writes if w.count(b"\n") > 1]
        assert joined
        for fault in schedule:
            if fault.kind == "duplicate":
                assert any(
                    w.count(b"\n") == fault.repeats
                    and w == w[: len(w) // fault.repeats] * fault.repeats
                    for w in sender.writes
                )
        assert any(not w.endswith(b"\n") for w in sender.writes)  # a cut
        service.drain()
        self._matches_calm(tmp_path / "faulted", calm_root)

    def test_connection_killed_before_owed_acks_converges(
        self, tmp_path, calm_root
    ):
        telemetry = Telemetry.create()
        service = self._service(tmp_path / "killed", telemetry)
        sender_box = []
        real_submit = service.submit_lines_v2
        owned = []

        def kill_before_acks(texts, client, origin="<stream>"):
            results = real_submit(texts, client, origin)
            if len(owned) < 10 <= len(owned) + len(texts):
                # The chunk's batches committed: ten or more lines are
                # owned, and none of this chunk's acks is written yet.
                sender_box[0]._sock.shutdown(socket.SHUT_RDWR)
            owned.extend(texts)
            return results

        service.submit_lines_v2 = kill_before_acks
        with LineServer(service) as server:
            sender = DurableSender(
                server.host, server.port, "certified-client",
                str(tmp_path / "killed.spool.jsonl"),
                base_backoff=0.01, max_backoff=0.05,
            )
            sender_box.append(sender)
            for tenant, content in self.LINES:
                sender.send(tenant, content)
            summary = sender.flush(timeout=60.0)
            sender.close()
        assert summary["delivered"] == len(self.LINES)
        assert summary["resends"] > len(self.LINES)
        suppressed = sum(
            telemetry.metrics.value(
                "repro_delivery_duplicates_suppressed_total", tenant=tenant
            )
            for tenant in ("alpha", "beta")
        )
        assert suppressed >= 9
        drained = service.drain()
        assert drained["tenants"]["alpha"]["lines"] == 70
        assert drained["tenants"]["beta"]["lines"] == 50
        self._matches_calm(tmp_path / "killed", calm_root)

    def test_sends_after_compaction_append_to_the_rewritten_spool(
        self, tmp_path
    ):
        spool = str(tmp_path / "spool.jsonl")
        sender = DurableSender("127.0.0.1", 1, "client-a", spool)
        for tenant, content in tenant_lines("alpha", 5):
            sender.send(tenant, content)
        sender._handle_ack("ACK alpha 3")
        sender._compact()
        assert [p["seq"] for p in read_jsonl_payloads(spool)] == [4, 5]
        # The append handle must follow the rename, not the old inode.
        assert sender.send("alpha", "six") == 6
        assert sender.send("beta", "uno") == 1
        on_disk = [
            (p["tenant"], p["seq"]) for p in read_jsonl_payloads(spool)
        ]
        assert on_disk == [
            ("alpha", 4), ("alpha", 5), ("alpha", 6), ("beta", 1)
        ]
        expected = sender.unacked()
        sender.close()
        recovered = DurableSender("127.0.0.1", 1, "client-a", spool)
        assert recovered.unacked() == expected
        assert recovered.send("alpha", "seven") == 7


class TestBindRetry:
    """Satellite: both TCP front ends absorb the EADDRINUSE race."""

    def _occupy(self) -> tuple[socket.socket, int]:
        occupier = socket.socket()
        occupier.bind(("127.0.0.1", 0))
        occupier.listen(1)
        return occupier, occupier.getsockname()[1]

    def test_line_server_retries_occupied_port(self, tmp_path):
        occupier, port = self._occupy()
        released = []

        def sleep(_delay: float) -> None:
            # The previous life's socket goes away while we back off.
            if not released:
                occupier.close()
                released.append(True)

        service = IngestionService(str(tmp_path), factory())
        server = LineServer(service, port=port, sleep=sleep)
        try:
            server.start()
            assert server.port == port
            assert released, "start() never needed the retry path"
        finally:
            server.stop()
            if not released:
                occupier.close()

    def test_line_server_exhausts_retries_honestly(self, tmp_path):
        occupier, port = self._occupy()
        try:
            service = IngestionService(str(tmp_path), factory())
            server = LineServer(
                service, port=port, bind_retries=2, sleep=lambda _d: None
            )
            with pytest.raises(OSError):
                server.start()
        finally:
            occupier.close()

    def test_telemetry_server_retries_occupied_port(self):
        occupier, port = self._occupy()
        released = []

        def sleep(_delay: float) -> None:
            if not released:
                occupier.close()
                released.append(True)

        telemetry = Telemetry.create()
        server = TelemetryServer(
            telemetry.metrics, port=port, sleep=sleep
        )
        try:
            server.start()
            assert released, "start() never needed the retry path"
        finally:
            server.stop()
            if not released:
                occupier.close()

    def test_bind_with_retry_propagates_other_errors(self):
        calls = []
        with pytest.raises(OSError):
            # An unroutable host address fails immediately — only the
            # EADDRINUSE race is retried.
            bind_with_retry(
                "256.256.256.256", 0, sleep=lambda d: calls.append(d)
            )
        assert calls == []

    def test_retry_eaddrinuse_backs_off_exponentially(self):
        import errno

        delays = []
        attempts = []

        def attempt():
            attempts.append(True)
            if len(attempts) < 4:
                raise OSError(errno.EADDRINUSE, "in use")
            return "bound"

        result = retry_eaddrinuse(
            attempt, retries=5, backoff=0.1, sleep=delays.append
        )
        assert result == "bound"
        assert delays == [0.1, 0.2, 0.4]


class TestV2Service:
    def test_v1_client_still_ingests_on_v2_server(self, tmp_path):
        service = IngestionService(
            str(tmp_path), factory(), protocol="v2"
        )
        with LineServer(service) as server:
            conn = socket.create_connection(
                (server.host, server.port), timeout=5
            )
            payload = "".join(
                f"{tenant}\t{content}\n"
                for tenant, content in tenant_lines("alpha", 15)
            )
            conn.sendall(payload.encode())
            conn.close()
            certify.wait_for(lambda: service.submitted >= 15)
        summary = service.drain()
        # Fire-and-forget lines route verbatim: no acks, no loss.
        assert summary["tenants"]["alpha"]["lines"] == 15
        assert summary["protocol_rejects"] == 0

    def test_submit_seq_requires_v2(self, tmp_path):
        service = IngestionService(str(tmp_path), factory())
        with pytest.raises(ValidationError):
            service.submit_line_v2("1 alpha\tline", "client-a")

    def test_unsequenced_v2_line_quarantined(self, tmp_path):
        service = IngestionService(
            str(tmp_path), factory(), protocol="v2"
        )
        outcome, tenant, high = service.submit_line_v2(
            "alpha\tforgot the sequence", "client-a", "tcp:test"
        )
        assert (outcome, tenant, high) == ("protocol", None, None)
        service.drain()
        payloads = read_jsonl_payloads(
            str(tmp_path / "service.quarantine.jsonl")
        )
        assert payloads[0]["reason"] == "protocol"

    def test_cli_rejects_replay_with_v2(self, tmp_path):
        code = main(
            [
                "serve", "Drain", str(tmp_path / "d"),
                "--replay", "nope.log", "--protocol", "v2",
            ]
        )
        assert code == 2


class TestJournalWriteFailure:
    """A journal commit that fails takes nothing: the line is not
    acked, so its resend is admitted, and no torn frame is left in
    front of later appends (DESIGN §14)."""

    def _service(self, data_dir, host, io=None):
        return IngestionService(
            str(data_dir), factory(), protocol="v2", isolation=host,
            io=io, worker_kwargs=dict(FAST) if host == "process" else None,
        )

    def _send(self, service, seq):
        """One line as an honest client sends it: returns its ack
        (``None`` if the commit raised)."""
        try:
            _, _, high = service.submit_line_v2(
                f"{seq} alpha\tconn from host1 port {seq}", "c"
            )
        except OSError:
            return None
        return high

    def _kill(self, service) -> None:
        """The SIGKILL stand-in: no checkpoint, no drain."""
        shard = service.shard("alpha")
        if isinstance(shard, ShardSupervisor):
            shard._abandon()
            wait_for(lambda: shard.state == STATE_FENCED)
        else:
            shard._front.close()

    @pytest.mark.parametrize("host", ["thread", "process"])
    def test_eio_on_the_journal_acks_nothing(self, tmp_path, host):
        io = FaultyIO([IoFault("eio", at_bytes=0, path_contains="journal")])
        service = self._service(tmp_path, host, io)
        assert self._send(service, 1) is None
        # Seq 1 is not owned, so nothing past it may be acked...
        assert [self._send(service, seq) for seq in range(2, 6)] == [0] * 4
        # ...and its resend is admitted, releasing the held 2..5.
        assert self._send(service, 1) == 5
        assert service.drain()["tenants"]["alpha"]["lines"] == 5

    @pytest.mark.parametrize("host", ["thread", "process"])
    def test_torn_journal_write_loses_no_acked_line(self, tmp_path, host):
        io = FaultyIO(
            [IoFault("torn", at_bytes=200, path_contains="journal")]
        )
        service = self._service(tmp_path, host, io)
        acked = 0
        for seq in range(1, 7):
            acked = max(acked, self._send(service, seq) or 0)
        assert acked == 1  # seq 2 tore; 3..6 wait behind it, unacked
        # The client resends the unacked suffix; it lands behind seq 1,
        # not behind the torn bytes.
        for seq in range(acked + 1, 7):
            acked = max(acked, self._send(service, seq) or 0)
        assert acked == 6
        self._kill(service)
        # Everything is acked, so the client resends nothing.
        resumed = self._service(tmp_path, host)
        assert resumed.adopt_existing() == ["alpha"]
        assert resumed.drain()["tenants"]["alpha"]["lines"] == 6


class TestExactlyOnceCertification:
    """Faulted + SIGKILLed runs converge to calm ones: rows of the
    certification matrix (``tests/certify.py``), run under the ids
    they had before it."""

    def test_thread_isolation_converges(self, tmp_path, calm_root):
        certify.certify("thread-v2-service-sigkill", tmp_path, calm_root)

    def test_process_isolation_converges(self, tmp_path, calm_root):
        certify.certify("process-v2-service-sigkill", tmp_path, calm_root)

    @pytest.mark.parametrize(
        "row",
        ["thread-v2-service-sigkill-resume-process",
         "process-v2-service-sigkill-resume-thread"],
        ids=["thread-then-process", "process-then-thread"],
    )
    def test_resume_under_the_other_isolation_converges(
        self, tmp_path, row, calm_root
    ):
        """One front, one journal file: what either host acked before
        the SIGKILL, the other replays."""
        certify.certify(row, tmp_path, calm_root)


class TestSendCLI:
    def _write_input(self, path, pairs) -> None:
        path.write_text(
            "".join(f"{tenant}\t{content}\n" for tenant, content in pairs)
        )

    def test_round_trip_with_metrics(self, tmp_path, capsys):
        data = tmp_path / "data"
        batch = tmp_path / "batch.log"
        self._write_input(batch, tenant_lines("alpha", 8))
        with certify.serving(data, "--protocol", "v2") as (proc, port):
            code = main(
                [
                    "send", "127.0.0.1", str(port), str(batch),
                    "--client-id", "cli-client",
                    "--spool", str(tmp_path / "spool.jsonl"),
                    "--metrics-out", str(tmp_path / "send.json"),
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "delivered 8 line(s) as cli-client" in out
            serve_out = certify.stop(proc, signal.SIGTERM)
        assert proc.returncode == 0, serve_out
        samples = json.loads(
            (tmp_path / "send.json").read_text()
        )["samples"]
        assert samples.get("repro_delivery_spool_depth") == 0.0
        assert "repro_delivery_resend_total" in samples
        assert (data / "alpha" / "out.manifest.json").exists()

    def test_interrupted_send_exits_4_then_resumes(self, tmp_path, capsys):
        # No server: the flush deadline expires, exit 4, spool intact.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        batch = tmp_path / "batch.log"
        self._write_input(batch, tenant_lines("alpha", 5))
        spool = tmp_path / "spool.jsonl"
        code = main(
            [
                "send", "127.0.0.1", str(dead_port), str(batch),
                "--spool", str(spool), "--timeout", "0.3",
            ]
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err
        assert spool.exists()

        # A server appears; rerunning with no input finishes the
        # delivery from the spool alone.
        data = tmp_path / "data"
        with certify.serving(data, "--protocol", "v2") as (proc, port):
            code = main(
                [
                    "send", "127.0.0.1", str(port),
                    "--spool", str(spool),
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "recovered 5 unacknowledged line(s)" in out
            assert "delivered 5 line(s)" in out
            serve_out = certify.stop(proc, signal.SIGTERM)
        assert proc.returncode == 0, serve_out
        structured = (data / "alpha" / "out.structured").read_text()
        assert len(structured.splitlines()) == 5

    def test_malformed_input_exits_3(self, tmp_path, capsys):
        batch = tmp_path / "batch.log"
        batch.write_text("no tab on this line\n")
        code = main(
            [
                "send", "127.0.0.1", "1", str(batch),
                "--spool", str(tmp_path / "spool.jsonl"),
            ]
        )
        assert code == 3
        assert "expected tenant<TAB>content" in capsys.readouterr().err
