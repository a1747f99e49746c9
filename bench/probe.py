"""Open-loop protocol-v2 probe: paced sender + cumulative-ack reader.

One connection, two threads.  The sender offers lines on a fixed
schedule regardless of how the server keeps up (an open loop: its queue
can grow); every line is timed from the moment it was *due*, so a stall
charges the lines queued behind it.  The reader maps each cumulative
``ACK <tenant> <high>`` back to the lines it covers.  Socket options are
the defaults, as in the shipped ``DurableSender``.
"""

from __future__ import annotations

import bisect
import socket
import threading
import time
from dataclasses import dataclass

from repro.service.protocol import data_line, hello_line, parse_ack

#: How long after the last send the reader keeps waiting for acks.
ACK_GRACE_S = 15.0


def schedule(stages) -> list[tuple[float, int]]:
    """(due offset in seconds, stage index) per line, stages back to back.

    A stage ``(rate, seconds)`` offers ``int(rate * seconds)`` lines,
    one every ``1/rate`` s.
    """
    out, start = [], 0.0
    for index, (rate, seconds) in enumerate(stages):
        out.extend((start + i / rate, index) for i in range(int(rate * seconds)))
        start += seconds
    return out


class AckBook:
    """Cumulative ``ACK tenant high`` -> the time each line was acked.

    Sequence numbers are per tenant and 1-based in offer order, so ack
    ``high`` for a tenant covers that tenant's first ``high`` lines.
    """

    def __init__(self, tenants: list[str]):
        self._lines: dict[str, list[int]] = {}
        self.seq: list[int] = []
        for index, tenant in enumerate(tenants):
            mine = self._lines.setdefault(tenant, [])
            mine.append(index)
            self.seq.append(len(mine))
        self._covered = dict.fromkeys(self._lines, 0)
        self.acked_at: list[float | None] = [None] * len(tenants)
        self.acked = 0

    def ack(self, tenant: str, high: int, now: float) -> int:
        """Record one ack; returns how many lines it newly covers."""
        mine = self._lines.get(tenant)
        if mine is None:
            return 0
        covered = self._covered[tenant]
        new = min(high, len(mine)) - covered
        if new <= 0:
            return 0  # cumulative acks repeat; only progress counts
        for index in mine[covered:covered + new]:
            self.acked_at[index] = now
        self._covered[tenant] = covered + new
        self.acked += new
        return new


@dataclass
class StageResult:
    rate: float
    offered: int
    acked: int
    latencies_ms: list[float]  # due -> ack, acked lines only
    late_ms: list[float]  # due -> actually sent
    backlog_growth: float  # unacked lines gained per second of stage


def connect(host: str, port: int, client_id: str, timeout: float = 10.0):
    """TCP connect + ``HELLO v2`` handshake; returns the socket."""
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.sendall(hello_line(client_id))
        reply = b""
        while b"\n" not in reply:
            chunk = sock.recv(256)
            if not chunk:
                break
            reply += chunk
        if not reply.startswith(b"OK v2"):
            raise RuntimeError(f"server refused protocol v2: {reply[:64]!r}")
    except BaseException:
        sock.close()
        raise
    return sock


class PacedProbe:
    """Offer *pairs* (tenant, content) over *sock* on *stages*' schedule."""

    def __init__(self, sock, pairs, stages, *, clock=time.perf_counter,
                 sleep=time.sleep, grace=ACK_GRACE_S):
        self.sock = sock
        self.stages = tuple(stages)
        self.plan = schedule(self.stages)
        if len(pairs) < len(self.plan):
            raise ValueError(
                f"schedule offers {len(self.plan)} lines, got {len(pairs)}"
            )
        self.pairs = pairs[:len(self.plan)]
        self.book = AckBook([tenant for tenant, _ in self.pairs])
        self.clock = clock
        self.sleep = sleep
        self.grace = grace
        self.sent_at: list[float] = []
        self._done = threading.Event()

    def _read_acks(self) -> None:
        buffer = b""
        self.sock.settimeout(0.1)
        while self.book.acked < len(self.pairs) and not self._done.is_set():
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            now = self.clock()
            if not chunk:
                return
            *lines, buffer = (buffer + chunk).split(b"\n")
            for raw in lines:
                parsed = parse_ack(raw.decode("utf-8", errors="replace"))
                if parsed is not None:
                    self.book.ack(parsed[0], parsed[1], now)

    def run(self) -> list[StageResult]:
        payloads = [
            data_line(self.book.seq[i], tenant, content)
            for i, (tenant, content) in enumerate(self.pairs)
        ]
        reader = threading.Thread(target=self._read_acks, name="probe-acks")
        reader.start()
        origin = self.clock() + 0.05
        try:
            for payload, (offset, _) in zip(payloads, self.plan):
                due = origin + offset
                while True:
                    wait = due - self.clock()
                    if wait <= 0:
                        break
                    self.sleep(wait)
                self.sock.sendall(payload)
                self.sent_at.append(self.clock())
            reader.join(timeout=self.grace)
        finally:
            self._done.set()
            reader.join()
        return self._results(origin)

    def _results(self, origin: float) -> list[StageResult]:
        acked_sorted = sorted(
            at for at in self.book.acked_at if at is not None
        )

        def outstanding(at: float) -> int:
            sent = bisect.bisect_right(self.sent_at, at)
            return sent - bisect.bisect_right(acked_sorted, at)

        results, start = [], origin
        for index, (rate, seconds) in enumerate(self.stages):
            lines = [i for i, (_, s) in enumerate(self.plan) if s == index]
            latencies = [
                (self.book.acked_at[i] - (origin + self.plan[i][0])) * 1e3
                for i in lines
                if self.book.acked_at[i] is not None
            ]
            late = [
                (self.sent_at[i] - (origin + self.plan[i][0])) * 1e3
                for i in lines
                if i < len(self.sent_at)
            ]
            end = start + seconds
            results.append(
                StageResult(
                    rate=rate,
                    offered=len(lines),
                    acked=len(latencies),
                    latencies_ms=latencies,
                    late_ms=late,
                    backlog_growth=(outstanding(end) - outstanding(start))
                    / seconds,
                )
            )
            start = end
        return results
