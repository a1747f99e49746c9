"""Delivery layer for exactly-once ingestion: wire protocol v2.

The v1 line protocol (``tenant<TAB>content\\n``) is fire-and-forget:
a server crash after ``recv`` silently drops lines, and a client that
retries re-ingests duplicates.  Protocol v2 closes that hop with three
cooperating pieces, all in this module:

* **Wire format.**  A v2 connection opens with a capability
  handshake — the client sends ``HELLO v2 <client_id>`` and the
  server answers ``OK v2`` — after which every data line carries a
  per-tenant monotonic sequence number::

      <seq> <tenant>\\t<content>\\n

  and the server answers with *cumulative* acknowledgements::

      ACK <tenant> <high>\\n

  where ``high`` is the highest contiguous sequence the server
  durably owns for that (client, tenant) stream.  A first line that
  is not a ``HELLO`` falls back to protocol v1 verbatim, so v1
  clients keep working against a v2 server unchanged (they simply get
  no acks, and no delivery guarantee).

* **:class:`DeliveryWindow`** — the per-(client, tenant) dedup state:
  a highest-contiguous-sequence watermark plus a bounded sparse
  holdback of out-of-order arrivals.  Duplicates (retries, duplicated
  packets, resends after a lost ack) are suppressed; gaps are held
  back and released *in sequence order* once the missing line
  arrives, so reordering on the wire never reorders the bytes a
  tenant's artifacts are built from.  Only the watermark persists in
  checkpoints — held-back lines were never acked, so the client
  resends them.

* **:class:`BatchJournal`** — the framed-JSONL ownership journal.  A
  line is *owned* — and therefore ackable — once appended here: the
  journal survives a ``SIGKILL`` and is replayed into the engine on
  resume.

* **:class:`DeliveryFront`** — one tenant's exactly-once front: dedup
  → index for a batch of arrivals, then one all-or-nothing journal
  commit over the tenant's single ``out.journal.jsonl``, and recovery
  of the acked-but-uncheckpointed suffix at start.

* **:class:`FrontStage`** — the front both shard hosts
  (:class:`~repro.service.shard.TenantShard` inline,
  :class:`~repro.service.workers.ShardSupervisor` across the process
  boundary) are built on: ``submit``/``submit_seqs``, the v1 replay
  skip, and the :class:`DeliveryFront` from construction to fence.

Acks are cumulative, so the ack channel is idempotent and lossy-safe:
a dropped ack is repaired by the next one, and a resend triggered by
a lost ack collapses in the window.
"""

from __future__ import annotations

import contextlib
import os
import re

from repro.common.errors import ValidationError
from repro.common.types import LogRecord
from repro.resilience.durability import (
    RealIO,
    atomic_write_text,
    frame_bytes,
    json_or_null as _json_or_null,
    json_str as _json_str,
    recover_jsonl,
)

#: Supported wire protocols for the line front end.
PROTOCOL_V1 = "v1"
PROTOCOL_V2 = "v2"
PROTOCOLS = (PROTOCOL_V1, PROTOCOL_V2)

#: Client ids are path-safe, like tenant keys (they key checkpoint
#: state and journal metadata).
CLIENT_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Delivery outcome tags (beside the shard/service outcome tags).
DUPLICATE = "duplicate"
PENDING = "pending"
#: A v1 record a resumed host already holds: the source replays from
#: the start, and the front skips it up to the checkpoint.
REPLAYED = "replayed"

#: Handshake reply lines.
OK_LINE = b"OK v2\n"
ERR_LINE = b"ERR unsupported-protocol\n"

#: Default bound on a window's out-of-order holdback buffer.
DEFAULT_HOLDBACK = 512

#: Basename of a tenant's ownership journal (protocol v2 only; a v1
#: service writes none).
JOURNAL_NAME = "out.journal.jsonl"


def hello_line(client_id: str) -> bytes:
    """The v2 capability-negotiation opener a client sends."""
    if not CLIENT_ID_RE.match(client_id):
        raise ValidationError(
            f"invalid client id {client_id[:64]!r} "
            "(expected [A-Za-z0-9._-]{1,64})"
        )
    return f"HELLO v2 {client_id}\n".encode("utf-8")


def parse_hello(text: str) -> str | None:
    """The client id of a well-formed ``HELLO v2`` line, else ``None``."""
    parts = text.rstrip("\r").split(" ")
    if len(parts) != 3 or parts[0] != "HELLO" or parts[1] != PROTOCOL_V2:
        return None
    if not CLIENT_ID_RE.match(parts[2]):
        return None
    return parts[2]


def data_line(seq: int, tenant: str, content: str) -> bytes:
    """One encoded v2 data line (sequence-tagged v1 payload)."""
    return f"{seq} {tenant}\t{content}\n".encode("utf-8")


def parse_data(text: str) -> tuple[int, str] | None:
    """Split a v2 data line into ``(seq, v1_payload)``; ``None`` if torn.

    The payload half is *exactly* a v1 line (``tenant<TAB>content``),
    so tenant-key validation stays in one place — the service's v1
    router — and a v2 reject quarantines with the same provenance.
    """
    seq_text, sep, payload = text.partition(" ")
    if not sep or not seq_text.isdigit():
        return None
    seq = int(seq_text)
    if seq < 1:
        return None
    return seq, payload


def ack_line(tenant: str, high: int) -> bytes:
    """One encoded cumulative acknowledgement."""
    return f"ACK {tenant} {high}\n".encode("utf-8")


def parse_ack(text: str) -> tuple[str, int] | None:
    """Split an ``ACK`` line into ``(tenant, high)``; ``None`` if torn."""
    parts = text.rstrip("\r").split(" ")
    if len(parts) != 3 or parts[0] != "ACK" or not parts[2].isdigit():
        return None
    return parts[1], int(parts[2])


class DeliveryWindow:
    """Per-(client, tenant) exactly-once dedup window.

    Tracks ``high`` — the highest sequence such that every sequence
    ``1..high`` has been released downstream — plus a bounded sparse
    holdback of out-of-order arrivals.  :meth:`observe` classifies one
    arrival:

    * ``duplicate`` — at or below the watermark, or already held
      back; the payload is dropped (this is the suppression that
      makes retries idempotent);
    * ``release`` — the next contiguous sequence; it and any
      now-contiguous held-back successors are returned *in sequence
      order* for ingestion, and the watermark advances past them;
    * ``pending`` — a gap; the payload is held back (or, past the
      holdback bound, dropped unacked — the client resends it).

    Only ``high`` is checkpointed: held-back payloads were never
    acknowledged, so crash recovery costs nothing but a resend.
    """

    def __init__(self, high: int = 0, holdback: int = DEFAULT_HOLDBACK) -> None:
        if high < 0:
            raise ValidationError(f"high must be >= 0, got {high}")
        if holdback < 1:
            raise ValidationError(f"holdback must be >= 1, got {holdback}")
        self.high = high
        self.holdback = holdback
        self._pending: dict[int, object] = {}

    @property
    def pending(self) -> int:
        """Held-back out-of-order arrivals (awaiting the gap line)."""
        return len(self._pending)

    def observe(self, seq: int, payload) -> tuple[str, list[tuple[int, object]]]:
        """Classify one arrival; returns ``(status, released)``.

        *released* is non-empty only for ``release``, and lists
        ``(seq, payload)`` pairs in strictly increasing sequence
        order — the exact order the engine must ingest them.
        """
        if seq < 1:
            raise ValidationError(f"sequence must be >= 1, got {seq}")
        if seq <= self.high or seq in self._pending:
            return DUPLICATE, []
        if seq != self.high + 1:
            if len(self._pending) < self.holdback:
                self._pending[seq] = payload
            return PENDING, []
        released = [(seq, payload)]
        self.high = seq
        while self.high + 1 in self._pending:
            self.high += 1
            released.append((self.high, self._pending.pop(self.high)))
        return "release", released

    def advance(self, seq: int) -> None:
        """Declare sequences through *seq* released (journal replay)."""
        if seq > self.high:
            self.high = seq
            for held in [s for s in self._pending if s <= seq]:
                del self._pending[held]


class BatchJournal:
    """Framed-JSONL journal of records not yet covered by a checkpoint.

    Records append *before* dispatch and are pruned (by atomic
    rewrite) when a checkpoint covers them — so the owner always
    holds, durably, exactly the records a restart must replay,
    including the one in flight at the crash.

    Entries are ``(index, record, delivery)`` triples where *index*
    is the tenant-global stream position and *delivery* is ``None``
    (a v1 line) or ``(client_id, seq)`` — the metadata that lets a
    resume rebuild its :class:`DeliveryWindow` watermarks past the
    checkpoint.

    Appends share one handle, opened on first use.  :meth:`extend`
    writes a batch and flushes it once, all or nothing: an entry
    outlives a ``SIGKILL`` the moment it returns (the ack boundary;
    it is not fsynced, see DESIGN §14), and a failed write or flush
    truncates the file back to where the batch began.  ``reset`` and
    ``remove`` close the handle first, and the next append reopens
    the file the rewrite left behind.

    With ``recover=True`` — how :class:`DeliveryFront` opens it — the
    surviving entries of a previous life are parsed (torn tail
    truncated) and exposed as :attr:`recovered`.  The default starts
    from an empty file.
    """

    def __init__(
        self, path: str, io: RealIO | None = None, *, recover: bool = False
    ) -> None:
        self.path = path
        self._io = io or RealIO()
        #: Append handle, opened by the first append after
        #: construction, :meth:`reset` or :meth:`remove`.
        self._handle = None
        recovery = recover_jsonl(path, io=self._io)
        self.recovered: list[tuple[int, LogRecord, tuple | None]] = []
        if recover:
            self.recovered = sorted(
                (self._thaw(payload) for payload in recovery.records),
                key=lambda entry: entry[0],
            )
        else:
            self.reset(())

    @staticmethod
    def _frame(index: int, record: LogRecord, delivery=None) -> bytes:
        """``frame_record`` of the entry's payload, in one pass."""
        client = seq = ""
        if delivery is not None:
            client = f'"client": {_json_str(delivery[0])}, '
            seq = f'"seq": {delivery[1]}, '
        return frame_bytes(
            f'{{{client}"content": {_json_str(record.content)}, '
            f'"index": {index}, {seq}'
            f'"session_id": {_json_or_null(record.session_id)}, '
            f'"timestamp": {_json_or_null(record.timestamp)}, '
            f'"truth_event": {_json_or_null(record.truth_event)}}}'
            .encode()
        )

    @staticmethod
    def _thaw(payload: dict) -> tuple[int, LogRecord, tuple | None]:
        record = LogRecord(
            content=payload.get("content", ""),
            timestamp=payload.get("timestamp"),
            session_id=payload.get("session_id"),
            truth_event=payload.get("truth_event"),
        )
        delivery = None
        if payload.get("client") is not None:
            delivery = (payload["client"], int(payload.get("seq", 0)))
        return int(payload.get("index", 0)), record, delivery

    def extend(self, entries) -> None:
        """Write *entries* and flush them once, all or nothing: a
        failure drops the handle and truncates the file, through the
        io seam, back to where the batch began before it re-raises.

        Not thread-safe, and must not interleave with :meth:`reset`
        (see :class:`DeliveryFront`, which states the invariant).
        """
        if not entries:
            return
        if self._handle is None:
            self._handle = self._io.open(self.path, "ab")
        start = self._handle.tell()
        try:
            self._io.write(
                self._handle, b"".join([self._frame(*e) for e in entries])
            )
            self._io.flush(self._handle)
        except Exception:
            # Closing flushes the buffer; the truncate takes it off.
            with contextlib.suppress(OSError):
                self.close()
            self._io.truncate(self.path, start)
            raise

    def append(self, index: int, record: LogRecord, delivery=None) -> None:
        """Write + flush one entry: a batch of one."""
        self.extend([(index, record, delivery)])

    def close(self) -> None:
        """Give the append handle back; the file stays for a resume."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def reset(self, entries) -> None:
        """Atomically rewrite the journal to exactly *entries*.

        Entries are ``(index, record)`` pairs or
        ``(index, record, delivery)`` triples.
        """
        text = b"".join(
            self._frame(*entry) for entry in entries
        ).decode("utf-8")
        # The rewrite renames a new file into place; an append handle
        # held across it would keep writing to the unlinked one.
        self.close()
        atomic_write_text(self.path, text, io=self._io)

    def remove(self) -> None:
        self.close()
        try:
            os.unlink(self.path)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class DeliveryFront:
    """One tenant's exactly-once front: dedup → index → journal.

    Composes one :class:`DeliveryWindow` per client, the tenant
    stream's index allocator and the :class:`BatchJournal` over
    ``<directory>/out.journal.jsonl`` — the same file whichever host
    runs the engine, so a tenant killed under one isolation mode
    resumes under the other.

    Construction recovers the previous life from the checkpoint's
    *position* and *watermarks* (client → highest acknowledged
    sequence): journal entries below *position* are inside the
    checkpoint and ignored; the rest are :attr:`backlog`, in index
    order — acked, so no client resends them and the host must feed
    them before anything new.  The windows advance over the backlog
    and :attr:`next_index` starts past it.

    Not thread-safe.  **One critical section:** the host runs
    :meth:`admit_all`, :meth:`prune` and :meth:`remove` under a single
    lock, or a commit racing a prune's rename appends to the inode it
    replaces — an acked sequence owned by neither the journal nor,
    until the next checkpoint, the engine.
    """

    def __init__(
        self, directory: str, position: int, watermarks: dict, io=None
    ) -> None:
        self._windows = {
            client: DeliveryWindow(high=int(high))
            for client, high in watermarks.items()
        }
        self._journal = BatchJournal(
            os.path.join(directory, JOURNAL_NAME), io=io, recover=True
        )
        #: ``(index, record, delivery)`` entries owned past *position*.
        self.backlog = [
            entry for entry in self._journal.recovered
            if entry[0] >= position
        ]
        for _, _, delivery in self.backlog:
            if delivery is not None:
                self._window(delivery[0]).advance(delivery[1])
        #: Stream position the next admitted record takes.
        self.next_index = (
            self.backlog[-1][0] + 1 if self.backlog else position
        )

    def _window(self, client: str) -> DeliveryWindow:
        window = self._windows.get(client)
        if window is None:
            window = self._windows[client] = DeliveryWindow()
        return window

    def high(self, client: str) -> int:
        """*client*'s cumulative acknowledgement watermark."""
        return self._window(client).high

    def admit(
        self, record: LogRecord, client: str | None = None, seq: int = 0
    ) -> tuple[str, int | None, list[tuple]]:
        """Take ownership of one arrival: a batch of one."""
        return self.admit_all([(record, seq)], client)[0]

    def admit_all(
        self, arrivals, client: str | None = None
    ) -> list[tuple[str, int | None, list[tuple]]]:
        """Take ownership of one client's ``(record, seq)`` arrivals,
        all or nothing: one ``(status, high, entries)`` per arrival.

        *status* is the window's verdict (``duplicate`` / ``pending`` /
        ``release``), *high* the watermark to acknowledge, *entries*
        the ``(index, record, (client, seq))`` triples the arrival
        released, in sequence order.  The batch is journaled with one
        write + flush (the commit) before this returns, so whatever
        the caller then acks or feeds, a ``SIGKILL`` replays.  A failed
        commit rewinds the window and :attr:`next_index` and re-raises:
        nothing of the batch is owned, so resends are admitted.  With
        no *client* the records are v1 lines on a v2 host: never
        deduplicated or acked, but indexed and journaled, because a
        resumed worker treats a hole in the journal's indices as a
        lost record.
        """
        window = None if client is None else self._window(client)
        undo = self.next_index, window and (window.high, dict(window._pending))
        results, entries = [], []
        for record, seq in arrivals:
            if window is None:
                status, high, released = "release", None, [(None, record)]
            else:
                status, released = window.observe(seq, record)
                high = window.high
            fresh = [
                (self.next_index + offset, rrecord,
                 None if client is None else (client, rseq))
                for offset, (rseq, rrecord) in enumerate(released)
            ]
            self.next_index += len(fresh)
            entries += fresh
            results.append((status, high, fresh))
        try:
            self._journal.extend(entries)
        except Exception:
            self.next_index = undo[0]
            if window is not None:
                window.high, window._pending = undo[1]
            raise
        return results

    def prune(self, survivors) -> None:
        """A checkpoint landed: rewrite the journal to *survivors*."""
        self._journal.reset(survivors)

    def close(self) -> None:
        """Give the handle back; the file stays for the next life."""
        self._journal.close()

    def remove(self) -> None:
        """Drained: everything owned is inside the final checkpoint."""
        self._journal.remove()


class FrontStage:
    """The one front both shard hosts put before their engine.

    Under v1 it hands out indices from 0 each life — the source
    replays from the start — and answers ``replayed`` below the
    checkpoint position; it retires a journal a v2 life left, so acked
    but uncheckpointed v2 lines do not survive a v1 life (DESIGN §14).
    Under v2 it runs a :class:`DeliveryFront` from the checkpoint's
    position and watermarks and hands its backlog over first.

    A host supplies ``_lock`` (the front's one critical section) and
    :meth:`_deliver`, the way a released batch of ``(index, record,
    delivery)`` entries reaches its engine: inline on the thread host,
    into the worker's outbox on the process host.  :meth:`submit_seqs`
    is the one v2 path: it delivers a batch only after the batch's
    journal commit, and :meth:`submit_seq` is its batch of one.
    """

    def _open_front(
        self, directory: str, position: int, watermarks: dict,
        exactly_once: bool, io=None,
    ) -> None:
        self._skip = position
        self._next_index = 0
        self._front: DeliveryFront | None = None
        if not exactly_once:
            try:
                os.unlink(os.path.join(directory, JOURNAL_NAME))
            except FileNotFoundError:
                pass
            return
        self._front = DeliveryFront(directory, position, watermarks, io=io)
        if self._front.backlog:
            # Acked, so no client resends it: fed before anything new.
            self._deliver(self._front.backlog)

    @property
    def seen(self) -> int:
        """Stream index the next arrival takes (replayed ones count)."""
        if self._front is not None:
            return self._front.next_index
        return self._next_index

    @property
    def resumed(self) -> bool:
        return self._skip > 0

    def _refusal(self) -> str | None:
        """An outcome tag that turns every arrival away, or ``None``."""
        return None

    def _deliver(self, entries: list[tuple]) -> list[str]:
        """Take released entries to the engine; returns their outcome
        tags."""
        raise NotImplementedError

    def submit(self, record: LogRecord) -> str:
        """Take one unsequenced record; returns its outcome tag.

        A v2 host indexes and journals it like its acked neighbours,
        but never deduplicates or acks it.
        """
        with self._lock:
            refusal = self._refusal()
            if refusal is not None:
                return refusal
            if self._front is not None:
                return self._deliver(self._front.admit(record)[2])[0]
            index = self._next_index
            self._next_index += 1
            if index < self._skip:
                return REPLAYED
            return self._deliver([(index, record, None)])[0]

    def submit_seq(
        self, record: LogRecord, client: str, seq: int
    ) -> tuple[str, int]:
        """Take one sequence-tagged record: a batch of one."""
        outcomes, high = self.submit_seqs([(record, seq)], client)
        return outcomes[0], high

    def submit_seqs(
        self, arrivals: list[tuple[LogRecord, int]], client: str
    ) -> tuple[list[str], int]:
        """Take ``(record, seq)`` arrivals exactly once (protocol v2).

        Returns ``(outcomes, high)``: one ``duplicate``, ``pending`` or
        record tag per arrival, and the client's cumulative ack
        watermark.  Under one hold of the lock (so concurrent
        connections append in index order) the front admits and
        commits the batch; only then are its entries delivered.  A
        failed commit raises with nothing delivered or ackable.
        """
        if self._front is None:
            raise ValidationError(
                "sequence-tagged submit requires an exactly-once "
                "host (protocol v2)"
            )
        with self._lock:
            refusal = self._refusal()
            if refusal is not None:
                return [refusal] * len(arrivals), self._front.high(client)
            admitted = self._front.admit_all(arrivals, client)
            tags = self._deliver(
                [entry for _, _, entries in admitted for entry in entries]
            )
            outcomes, at = [], 0
            for status, _, entries in admitted:
                outcomes.append(tags[at] if entries else status)
                at += len(entries)
            return outcomes, self._front.high(client)

    def _front_checkpointed(self, survivors=()) -> None:
        """A checkpoint landed: keep *survivors* journaled (under the
        lock)."""
        if self._front is not None:
            self._front.prune(survivors)

    def _front_drained(self) -> None:
        if self._front is not None:
            self._front.remove()

    def _front_fenced(self) -> None:
        if self._front is not None:
            self._front.close()
