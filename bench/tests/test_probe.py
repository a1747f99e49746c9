import queue
import socket

import pytest

from repro.service.protocol import ack_line, parse_data

from bench.probe import AckBook, PacedProbe, schedule


def test_schedule_runs_stages_back_to_back():
    plan = schedule([(4, 1.0), (2, 1.0)])
    assert [stage for _, stage in plan] == [0, 0, 0, 0, 1, 1]
    assert [due for due, _ in plan] == [0.0, 0.25, 0.5, 0.75, 1.0, 1.5]


def test_ack_book_maps_cumulative_acks_to_lines():
    book = AckBook(["a", "b", "a", "a", "b"])
    assert book.seq == [1, 1, 2, 3, 2]  # per-tenant, 1-based, offer order
    assert book.ack("a", 2, now=10.0) == 2
    assert book.acked_at == [10.0, None, 10.0, None, None]
    assert book.ack("a", 2, now=11.0) == 0  # cumulative acks repeat
    assert book.ack("a", 1, now=11.0) == 0  # and may arrive stale
    assert book.ack("b", 2, now=12.0) == 2
    assert book.ack("a", 99, now=13.0) == 1  # never past what was offered
    assert book.ack("stranger", 1, now=14.0) == 0
    assert book.acked_at == [10.0, 12.0, 10.0, 13.0, 12.0]
    assert book.acked == 5


class FakeClock:
    """Time moves only when the probe sleeps (or a test advances it)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class StubSocket:
    """Acks every data line it is sent, like a v2 server with no work."""

    def __init__(self, clock=None, stall_at=None, stall_s=0.0):
        self.acks: queue.Queue = queue.Queue()
        self.sent: list[tuple[float, int, str]] = []
        self.clock = clock
        self.stall_at = stall_at
        self.stall_s = stall_s

    def settimeout(self, _):
        pass

    def sendall(self, payload: bytes):
        seq, v1 = parse_data(payload.decode().rstrip("\n"))
        if self.stall_at == len(self.sent):
            self.clock.sleep(self.stall_s)  # the wire blocks the sender
        self.sent.append((self.clock() if self.clock else 0.0, seq, v1))
        self.acks.put(ack_line(v1.split("\t")[0], seq))

    def recv(self, _):
        try:
            return self.acks.get(timeout=0.05)
        except queue.Empty:
            raise socket.timeout from None


def _pairs(n):
    return [("t0" if i % 3 else "t1", f"line {i}") for i in range(n)]


def test_paced_probe_hits_its_schedule_on_a_stub_socket():
    clock = FakeClock()
    sock = StubSocket(clock)
    probe = PacedProbe(
        sock, _pairs(30), [(10, 2.0), (20, 0.5)],
        clock=clock, sleep=clock.sleep, grace=5.0,
    )
    stages = probe.run()
    origin = 100.05
    sent_times = [at for at, _, _ in sock.sent]
    wanted = [origin + due for due, _ in schedule([(10, 2.0), (20, 0.5)])]
    assert sent_times == pytest.approx(wanted)
    assert [(s.rate, s.offered, s.acked) for s in stages] == [
        (10, 20, 20), (20, 10, 10),
    ]
    assert max(stages[0].late_ms + stages[1].late_ms) == pytest.approx(0.0, abs=1e-6)
    # per-tenant sequence numbers are 1-based and in offer order
    t1 = [seq for _, seq, v1 in sock.sent if v1.startswith("t1\t")]
    assert t1 == list(range(1, len(t1) + 1))


def test_paced_probe_reports_lateness_and_charges_it_to_queued_lines():
    clock = FakeClock()
    # Sending line 5 blocks for 0.35 s: lines 5..8 (due every 0.1 s) go
    # out late, and each is timed from when it was DUE.
    sock = StubSocket(clock, stall_at=5, stall_s=0.35)
    probe = PacedProbe(
        sock, _pairs(12), [(10, 1.2)], clock=clock, sleep=clock.sleep, grace=5.0
    )
    (stage,) = probe.run()
    assert stage.acked == 12
    late = stage.late_ms
    assert late[:5] == pytest.approx([0.0] * 5, abs=1e-6)
    assert late[5:9] == pytest.approx([350.0, 250.0, 150.0, 50.0], abs=1e-6)
    assert late[9:] == pytest.approx([0.0] * 3, abs=1e-6)
    # an ack can only arrive after the send, so due->ack >= due->sent
    assert all(a >= b - 1e-6 for a, b in zip(stage.latencies_ms, late))


def test_probe_refuses_a_schedule_it_has_no_lines_for():
    with pytest.raises(ValueError):
        PacedProbe(StubSocket(), _pairs(3), [(10, 1.0)])
