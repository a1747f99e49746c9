"""Durable exactly-once log sender: the client half of protocol v2.

:class:`DurableSender` is the producer-side contract that makes the
server's delivery guarantee end-to-end: every line is **spooled before
it is wired** — appended, framed, to a local JSONL spool through the
durability layer — and removed from the unacked set only when a
cumulative ``ACK`` covers its sequence number.  The consequences:

* a server crash, a dropped connection, or a lost ack never loses a
  line — the unacked suffix is resent, in sequence order, on the next
  :meth:`flush` or by a fresh sender recovered from the same spool;
* resends are *safe* because the server's per-(client, tenant)
  :class:`~repro.service.protocol.DeliveryWindow` suppresses
  duplicates — the client errs toward resending, the server dedups;
* a client process crash loses nothing: the spool survives, sequence
  counters rebuild from it, and recovery conservatively treats every
  spooled line as unacked (the ack watermark is in-memory state);
* a clean exit loses nothing either: compaction leaves a per-tenant
  sequence *floor* frame wherever it removed a tenant's last entry, so
  the next process over the same spool continues the numbering — a
  restart at 1 would be dropped as duplicates by the server's window.

Reconnects back off exponentially with jitter, capped at
``max_backoff`` — a thundering herd of senders re-finding a restarted
server spreads out instead of synchronizing.

The sender also *enacts* :class:`~repro.resilience.faults.NetworkFault`
scripts (partition, half-close, duplicate-delivery, reorder-within-
window, ack-drop) so the certification harness can drive a seeded
storm through a client that is honestly trying to deliver — the
faulted run must still converge to exactly-once server-side effects.
"""

from __future__ import annotations

import random
import socket
import time
from bisect import bisect_right
from json.encoder import encode_basestring_ascii as _json_str

from repro.common.errors import DeliveryError, ValidationError
from repro.resilience.durability import (
    DurableJsonlWriter,
    RealIO,
    frame_bytes,
    frame_record,
)
from repro.resilience.faults import (
    NET_ACK_DROP,
    NET_DUPLICATE,
    NET_HALF_CLOSE,
    NET_PARTITION,
    NET_REORDER,
)
from repro.service.protocol import (
    CLIENT_ID_RE,
    data_line,
    hello_line,
    parse_ack,
)

#: Ack-wait quantum; :meth:`DurableSender.flush` resends after four of
#: these pass with no watermark advancing.
DEFAULT_ACK_POLL = 0.05

#: Most lines joined into one socket write: large enough that a write
#: costs nothing per line, small enough that acks are drained between
#: writes so neither peer ever fills the other's buffer.
_JOIN_LINES = 512


def _spool_frame(tenant: str, seq: int, content: str) -> bytes:
    """``frame_record({"tenant", "seq", "content"})``, in one pass."""
    return frame_bytes(
        f'{{"content": {_json_str(content)}, "seq": {seq}, '
        f'"tenant": {_json_str(tenant)}}}'.encode()
    )


class DurableSender:
    """Spool-backed exactly-once sender for the v2 line front end.

    Args:
        host / port: the :class:`~repro.service.server.LineServer`
            endpoint (which must be serving protocol v2).
        client_id: stable identity keying the server's dedup windows;
            reuse the same id over the same spool across restarts.
        spool_path: framed-JSONL spool file; created on first send,
            recovered (torn tail truncated) when it already exists.
        connect_timeout: per-attempt TCP connect deadline.
        base_backoff / max_backoff: reconnect backoff shape; the delay
            doubles per consecutive failure with multiplicative jitter
            in [0.5, 1.0], capped at *max_backoff*.
        faults: :class:`~repro.resilience.faults.NetworkFault` script,
            keyed by transmission index (every wire transmission —
            including resends — counts).
        telemetry: optional; publishes ``repro_delivery_spool_depth``
            and ``repro_delivery_resend_total``.
        io: durability seam for the spool writes.
        rng: randomness source for backoff jitter (injectable).
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str,
        spool_path: str,
        *,
        connect_timeout: float = 5.0,
        base_backoff: float = 0.05,
        max_backoff: float = 1.0,
        faults=(),
        telemetry=None,
        io: RealIO | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if not CLIENT_ID_RE.match(client_id):
            raise ValidationError(
                f"invalid client id {client_id[:64]!r} "
                "(expected [A-Za-z0-9._-]{1,64})"
            )
        self.host = host
        self.port = port
        self.client_id = client_id
        self.spool_path = spool_path
        self.connect_timeout = connect_timeout
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self.telemetry = telemetry
        self._io = io or RealIO()
        self._rng = rng or random.Random()
        self.script = {fault.at_line: fault for fault in faults}
        if len(self.script) != len(tuple(faults)):
            raise ValidationError(
                "network fault script has two faults on one "
                "transmission; use disjoint at_line values"
            )
        #: Spooled entries in send order: (tenant, seq, content).
        self._entries: list[tuple[str, int, str]] = []
        #: The spooled sequences per tenant, ascending, so an ack's
        #: coverage is two bisects and the unacked count stays O(1).
        self._spooled: dict[str, list[int]] = {}
        self._unacked = 0
        #: Next sequence to assign, per tenant (1-based).
        self._seq: dict[str, int] = {}
        #: Highest cumulative ack received, per tenant.
        self._acked: dict[str, int] = {}
        #: Wire-transmission counter (fault script index space).
        self._tx_index = 0
        #: Reorder fault: one payload held back for the next send.
        self._held: bytes | None = None
        #: Ack-drop fault: acks left to discard client-side.
        self._drop_acks = 0
        self.resends = 0
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._rxbuf = b""
        #: The caller of :meth:`send` is the spool's retry.
        self._spool = DurableJsonlWriter(spool_path, retries=0, io=self._io)
        for payload in self._spool.recovered:
            tenant = payload.get("tenant", "")
            if not tenant:
                continue  # a foreign frame; skip, never invent
            # A compaction floor frame only moves the counter.
            floor = int(payload.get("floor", 0))
            seq = int(payload.get("seq", 0))
            if seq >= 1:
                self._entries.append((tenant, seq, payload.get("content", "")))
            self._seq[tenant] = max(self._seq.get(tenant, 1), floor, seq + 1)
        # The ack watermark was in-memory state of the dead process,
        # so everything spooled counts as unacked — the server's
        # windows absorb the over-resend.
        self._reindex()

    # -- spool ---------------------------------------------------------

    def _reindex(self) -> None:
        """Rebuild the per-tenant index and the unacked count."""
        self._spooled = {}
        for tenant, seq, _ in self._entries:
            self._spooled.setdefault(tenant, []).append(seq)
        for seqs in self._spooled.values():
            seqs.sort()
        self._unacked = len(self.unacked())

    def _compact(self) -> None:
        """Rewrite the spool to exactly the unacked entries.

        A tenant whose newest sequence is not among them gets a floor
        frame (``{"tenant", "floor": next sequence}``): recovery reads
        it into the sequence counter and never into the entries.
        """
        self._entries = self.unacked()
        self._reindex()
        frames = [
            frame_record({"tenant": tenant, "floor": next_seq})
            for tenant, next_seq in self._seq.items()
            if self._spooled.get(tenant, (0,))[-1] < next_seq - 1
        ]
        frames.extend(
            _spool_frame(tenant, seq, content)
            for tenant, seq, content in self._entries
        )
        self._spool.rewrite(frames)
        self._publish_depth()

    def _publish_depth(self) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_delivery_spool_depth"
            ).set(float(self._unacked))

    def _count_resend(self, n: int) -> None:
        self.resends += n
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_delivery_resend_total"
            ).inc(n)

    def unacked(self) -> list[tuple[str, int, str]]:
        """Spooled entries not yet covered by a cumulative ack."""
        return [
            entry for entry in self._entries
            if entry[1] > self._acked.get(entry[0], 0)
        ]

    @property
    def spool_depth(self) -> int:
        return self._unacked

    # -- connection ----------------------------------------------------

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
            self._sock = None
        self._rxbuf = b""

    def _connect(self) -> socket.socket:
        """One connect + HELLO handshake attempt; raises on failure."""
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        try:
            # Both ends write whole chunks, so coalescing small writes
            # only delays the acks (Nagle + delayed ACK).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(hello_line(self.client_id))
            reply = b""
            while b"\n" not in reply:
                chunk = sock.recv(256)
                if not chunk:
                    raise DeliveryError(
                        "server closed during protocol negotiation "
                        "(is it serving protocol v2?)"
                    )
                reply += chunk
                if len(reply) > 256:
                    break
            if not reply.startswith(b"OK v2"):
                raise DeliveryError(
                    f"server refused protocol v2 "
                    f"(reply: {reply[:64]!r})"
                )
        except (OSError, DeliveryError):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            raise
        self._sock = sock
        self._rxbuf = b""
        return sock

    def _ensure_connected(self, deadline: float | None) -> socket.socket:
        """Connect with capped-jitter backoff until *deadline*."""
        if self._sock is not None:
            return self._sock
        failures = 0
        while True:
            try:
                sock = self._connect()
            except (OSError, DeliveryError) as error:
                failures += 1
                delay = min(
                    self.max_backoff,
                    self.base_backoff * (2 ** (failures - 1)),
                ) * (0.5 + self._rng.random() / 2)
                if (
                    deadline is not None
                    and time.monotonic() + delay >= deadline
                ):
                    raise DeliveryError(
                        f"could not reach {self.host}:{self.port} "
                        f"before the flush deadline "
                        f"({failures} attempt(s); last: {error})"
                    ) from error
                time.sleep(delay)
                continue
            if failures:
                self.reconnects += 1
            return sock

    # -- wire ----------------------------------------------------------

    def _transmit(self, payload: bytes) -> None:
        """Send one encoded data line, enacting any scheduled fault.

        Raises ``OSError`` upward when the connection dies (including
        death *caused by* a partition/half-close fault) — the caller
        marks the connection down and the line stays spooled.
        """
        sock = self._sock
        if sock is None:  # pragma: no cover - callers ensure connected
            raise OSError("not connected")
        fault = self.script.get(self._tx_index)
        self._tx_index += 1
        held, self._held = self._held, None
        if fault is None:
            sock.sendall(payload)
            if held is not None:
                sock.sendall(held)
            return
        if fault.kind == NET_PARTITION:
            cut = max(1, int(len(payload) * fault.cut_fraction))
            try:
                sock.sendall(payload[:cut])
            finally:
                self._drop()
            raise OSError("partition: connection dropped mid-line")
        if fault.kind == NET_HALF_CLOSE:
            cut = max(1, int(len(payload) * fault.cut_fraction))
            try:
                sock.sendall(payload[:cut])
                sock.shutdown(socket.SHUT_WR)
            finally:
                self._drop()
            raise OSError("half-close: write side closed mid-line")
        if fault.kind == NET_DUPLICATE:
            sock.sendall(payload * fault.repeats)
        elif fault.kind == NET_REORDER:
            # Deliver this line *after* its successor: hold it back.
            # If nothing follows before a flush, the flush resend
            # releases it — the line is spooled either way.
            self._held = payload
        else:  # ack-drop: the line goes out, the replies get eaten
            self._drop_acks += fault.drop_acks
            sock.sendall(payload)
        if held is not None:
            sock.sendall(held)

    def _transmit_suffix(self) -> None:
        """Send every unacked line once, in spool order.

        Fault-free runs leave as joined writes of up to ``_JOIN_LINES``
        lines; a line whose transmission index is scripted, or that
        follows a reorder hold, goes through :meth:`_transmit` alone,
        so the fault script's index space is one per line either way.
        Acks that arrived meanwhile are consumed between writes.
        """
        pending = self.unacked()
        sent = 0
        while sent < len(pending) and self._sock is not None:
            next_fault = min(
                (at for at in self.script if at >= self._tx_index),
                default=self._tx_index + _JOIN_LINES,
            )
            run = min(_JOIN_LINES, next_fault - self._tx_index)
            if self._held is not None or run == 0:
                tenant, seq, content = pending[sent]
                self._transmit(data_line(seq, tenant, content))
                run = 1
            else:
                chunk = pending[sent:sent + run]
                run = len(chunk)
                self._sock.sendall(
                    b"".join(
                        data_line(seq, tenant, content)
                        for tenant, seq, content in chunk
                    )
                )
                self._tx_index += run
            sent += run
            self._count_resend(run)
            self._read_acks(0.0)
        if self._held is not None and self._sock is not None:
            # A trailing reorder hold has no successor to ride behind;
            # release it now.
            held, self._held = self._held, None
            self._sock.sendall(held)

    def _handle_ack(self, text: str) -> None:
        if self._drop_acks > 0:
            self._drop_acks -= 1
            return
        parsed = parse_ack(text)
        if parsed is None:
            return  # torn or foreign line; the next ack supersedes it
        tenant, high = parsed
        low = self._acked.get(tenant, 0)
        if high > low:
            self._acked[tenant] = high
            seqs = self._spooled.get(tenant, ())
            self._unacked -= bisect_right(seqs, high) - bisect_right(seqs, low)
            self._publish_depth()

    def _read_acks(self, timeout: float) -> int:
        """One read of at most *timeout* seconds (0: whatever is there).

        Every complete line received goes to :meth:`_handle_ack`;
        returns how many did.  A closed or failed connection is
        dropped, which :meth:`flush` repairs by reconnecting.
        """
        sock = self._sock
        if sock is None:
            return 0
        sock.settimeout(timeout)
        try:
            chunk = sock.recv(65536)
        except (BlockingIOError, socket.timeout):
            chunk = None
        except OSError:
            chunk = b""
        if chunk == b"":
            self._drop()
            return 0
        # Writes wait as long as a connect does, not as long as a poll.
        sock.settimeout(self.connect_timeout)
        if chunk is None:
            return 0
        *lines, self._rxbuf = (self._rxbuf + chunk).split(b"\n")
        for raw in lines:
            self._handle_ack(raw.decode("utf-8", errors="replace"))
        return len(lines)

    def poll(self, timeout: float = 0.0) -> int:
        """Drain available acks; returns how many were processed.

        Blocks up to *timeout* for the first bytes (``timeout=0``: not
        at all), then consumes whatever else has already arrived.
        """
        processed = got = self._read_acks(max(0.0, timeout))
        while got:
            got = self._read_acks(0.0)
            processed += got
        return processed

    # -- public surface ------------------------------------------------

    def send(self, tenant: str, content: str) -> int:
        """Spool one line durably, then transmit it best-effort.

        Returns the sequence number assigned.  Never blocks on the
        network beyond a single send attempt and never raises on a
        dead connection — the line is already safe in the spool and
        :meth:`flush` (or a recovered sender) will deliver it.  A
        failed spool write raises
        :class:`~repro.common.errors.ArtifactWriteError` with nothing
        spooled and no sequence taken: the next send reuses it.
        """
        if "\n" in content or "\t" in tenant:
            raise ValidationError(
                "content must be a single line and the tenant key "
                "must not contain tabs"
            )
        seq = self._seq.get(tenant, 1)
        self._spool.extend([_spool_frame(tenant, seq, content)])
        self._seq[tenant] = seq + 1
        self._entries.append((tenant, seq, content))
        self._spooled.setdefault(tenant, []).append(seq)
        if seq > self._acked.get(tenant, 0):
            self._unacked += 1
        self._publish_depth()
        if self._sock is not None:
            try:
                self._transmit(data_line(seq, tenant, content))
            except OSError:
                self._drop()
            self.poll(0.0)
        return seq

    def flush(self, timeout: float = 30.0) -> dict:
        """Deliver every unacked line or die trying; returns a summary.

        A connection carries the unacked suffix once, in sequence
        order; after that the flush only waits for acks, and returns
        the moment the spool is clear.  The suffix is sent again only
        over a new connection (reconnects back off with capped jitter)
        or when a stall window — ``DEFAULT_ACK_POLL * 4`` — passes with
        no watermark advancing, which is what recovers lines the
        server refused without an ack and acks lost in flight.  On
        success the spool is compacted and the summary is
        ``{"delivered": n, "resends": n, "reconnects": n}``.  Raises
        :class:`~repro.common.errors.DeliveryError` when *timeout*
        expires first; the unacked lines remain spooled.
        """
        deadline = time.monotonic() + timeout
        goal = len(self._entries)
        stall = DEFAULT_ACK_POLL * 4
        progress_at = time.monotonic()
        while self._unacked:
            now = time.monotonic()
            if now >= deadline:
                raise DeliveryError(
                    f"flush deadline expired with {self._unacked} "
                    f"line(s) unacknowledged (spool: {self.spool_path})"
                )
            if self._sock is None or now - progress_at >= stall:
                try:
                    self._ensure_connected(deadline)
                    self._transmit_suffix()
                except OSError:
                    self._drop()
                progress_at = time.monotonic()
                continue
            before = self._unacked
            self._read_acks(min(deadline, progress_at + stall) - now)
            if self._unacked < before:
                progress_at = time.monotonic()
        self._compact()
        return {
            "delivered": goal,
            "resends": self.resends,
            "reconnects": self.reconnects,
        }

    def close(self) -> None:
        self._drop()
        self._spool.close()

    def __enter__(self) -> "DurableSender":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
