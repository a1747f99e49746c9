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

import os
import re
from itertools import groupby

from repro.common.errors import ValidationError
from repro.common.types import LogRecord
from repro.resilience.durability import (
    DurableJsonlWriter,
    RealIO,
    frame_bytes,
    json_or_null as _json_or_null,
    json_str as _json_str,
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
_SEQ = ', "seq": %d'


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
    if not sep or not (seq_text.isascii() and seq_text.isdigit()):
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
    if len(parts) != 3 or parts[0] != "ACK" or not (
        parts[2].isascii() and parts[2].isdigit()
    ):
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
    """The ownership journal's entry format over one framed writer.

    Records not yet covered by a checkpoint are journaled *before*
    dispatch and pruned (by atomic rewrite) when a checkpoint covers
    them, so the owner always holds, durably, exactly the records a
    restart must replay, including the one in flight at the crash.

    Entries are ``(index, record, delivery)`` triples where *index*
    is the tenant-global stream position and *delivery* is ``None``
    (a v1 line) or ``(client_id, seq)`` — the metadata that lets a
    resume rebuild its :class:`DeliveryWindow` watermarks past the
    checkpoint.

    The file is a :class:`~repro.resilience.durability.DurableJsonlWriter`
    with ``retries=0``: :meth:`extend` is one all-or-nothing write and
    flush (the ack boundary; never fsynced, see DESIGN §14), and a
    failure raises with nothing of the batch on disk — the client's
    resend is the retry.

    With ``recover=True`` — how :class:`DeliveryFront` opens it — the
    surviving entries of a previous life are parsed (torn tail
    truncated) and exposed as :attr:`recovered`.  The default starts
    from an empty file.
    """

    def __init__(
        self, path: str, io: RealIO | None = None, *, recover: bool = False
    ) -> None:
        self._log = DurableJsonlWriter(path, retries=0, io=io)
        self.recovered: list[tuple[int, LogRecord, tuple | None]] = []
        if recover:
            self.recovered = sorted(
                (self._thaw(payload) for payload in self._log.recover()),
                key=lambda entry: entry[0],
            )
        else:
            self.reset(())

    @staticmethod
    def _frame(index: int, record: LogRecord, delivery=None) -> bytes:
        return BatchJournal._frames([(index, record, delivery)])[0]

    @staticmethod
    def _frames(entries) -> list[bytes]:
        """``frame_record`` of each entry's payload; a run of entries
        sharing client and header fields encodes those once."""
        frames = []
        for (client, *header), run in groupby(entries, lambda e: (
            e[2] and e[2][0], e[1].session_id, e[1].timestamp,
            e[1].truth_event,
        )):
            head = "{" if client is None else (
                f'{{"client": {_json_str(client)}, '
            )
            tail = "".join(
                f', "{key}": {_json_or_null(value)}' for key, value
                in zip(("session_id", "timestamp", "truth_event"), header)
            ) + "}"
            frames += [frame_bytes((
                f'{head}"content": {_json_str(record.content)}, '
                f'"index": {index}'
                + ("" if delivery is None else _SEQ % delivery[1]) + tail
            ).encode()) for index, record, delivery in run]
        return frames

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
        """Journal *entries* all or nothing (see the class docstring).

        Not thread-safe, and must not interleave with :meth:`reset`
        (see :class:`DeliveryFront`, which states the invariant).
        """
        self._log.extend(self._frames(entries))

    def append(self, index: int, record: LogRecord, delivery=None) -> None:
        """Journal one entry: a batch of one."""
        self.extend([(index, record, delivery)])

    def close(self) -> None:
        """Give the append handle back; the file stays for a resume."""
        self._log.close()

    def reset(self, entries) -> None:
        """Atomically rewrite the journal to exactly *entries*:
        ``(index, record)`` pairs or ``(index, record, delivery)``
        triples."""
        self._log.rewrite(self._frames((*e, None)[:3] for e in entries))

    def remove(self) -> None:
        self._log.remove()


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

    def admit_all(
        self, arrivals, client: str | None = None
    ) -> tuple[list, list[tuple]]:
        """Take ownership of one client's ``(record, seq)`` arrivals,
        all or nothing: returns ``(firsts, entries)``, the released
        ``(index, record, (client, seq))`` triples in index order and
        per arrival the position of the first entry it released, or
        the window's verdict (``duplicate`` / ``pending``).

        The batch is journaled with one write + flush (the commit)
        before this returns, so whatever the caller then acks or
        feeds, a ``SIGKILL`` replays.  A failed commit rewinds the
        window and :attr:`next_index` and re-raises: nothing of the
        batch is owned, so resends are admitted.  With no *client* the
        records are v1 lines on a v2 host: never deduplicated or acked,
        but indexed and journaled, because a resumed worker treats a
        hole in the journal's indices as a lost record.
        """
        window = None if client is None else self._window(client)
        start = self.next_index
        undo = window and (window.high, dict(window._pending))
        if window is None or not window._pending and [
            seq for _, seq in arrivals
        ] == list(range(window.high + 1, window.high + 1 + len(arrivals))):
            entries = [
                (start + offset, record, window and (client, seq))
                for offset, (record, seq) in enumerate(arrivals)
            ]
            firsts = list(range(len(entries)))
            if window is not None:
                window.high += len(entries)
        else:
            firsts, entries = [], []
            for record, seq in arrivals:
                status, released = window.observe(seq, record)
                firsts.append(len(entries) if released else status)
                entries += [
                    (start + len(entries) + offset, rrecord, (client, rseq))
                    for offset, (rseq, rrecord) in enumerate(released)
                ]
        self.next_index = start + len(entries)
        try:
            self._journal.extend(entries)
        except Exception:
            self.next_index = start
            if window is not None:
                window.high, window._pending = undo
            raise
        return firsts, entries

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
    into the worker's outbox on the process host.  :meth:`submit_many`
    and :meth:`submit_seqs` (v2: delivered only after its commit) take
    batches; :meth:`submit` and :meth:`submit_seq` batches of one.
    """

    def _open_front(
        self, directory: str, position: int, watermarks: dict,
        exactly_once: bool, io=None,
    ) -> None:
        self._skip = position
        self._next_index = 0
        self._front: DeliveryFront | None = None
        if not exactly_once:
            DurableJsonlWriter(os.path.join(directory, JOURNAL_NAME)).remove()
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
        """Take one unsequenced record: a batch of one."""
        return self.submit_many([record])[0]

    def submit_many(self, records: list[LogRecord]) -> list[str]:
        """Take unsequenced records, one outcome tag each; a v2 host
        journals them, but never deduplicates or acks them."""
        with self._lock:
            refusal = self._refusal()
            if refusal is not None:
                return [refusal] * len(records)
            if self._front is not None:
                return self._deliver(
                    self._front.admit_all([(r, 0) for r in records])[1]
                )
            start = self._next_index
            self._next_index += len(records)
            replayed = min(len(records), max(0, self._skip - start))
            return [REPLAYED] * replayed + self._deliver([
                (start + offset, record, None)
                for offset, record in enumerate(records[replayed:], replayed)
            ])

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
            firsts, released = self._front.admit_all(arrivals, client)
            tags = self._deliver(released)
            return [
                first if isinstance(first, str) else tags[first]
                for first in firsts
            ], self._front.high(client)

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
