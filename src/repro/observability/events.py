"""A structured event log: one interleaved timeline per run.

Quarantine records, degradation ladder steps, fallback attempts,
checkpoint saves — before this layer each subsystem kept its own audit
trail in its own shape.  :class:`EventLog` gives them one append-only
sequence of dicts with a shared envelope::

    {"seq": 12, "t": 3.81, "kind": "ladder_step", ...payload}

Any object exposing ``to_record() -> dict`` (``DegradationEvent``,
``FailureReport``, ``QuarantineRecord``) can be emitted directly with
:meth:`EventLog.record`; ad-hoc events go through :meth:`EventLog.emit`.
The log persists as length+CRC32-framed JSONL (see
:mod:`repro.resilience.durability`) so the ``report`` subcommand — or
plain ``grep``, the JSON payload stays on the line — can reconstruct
what happened in order, and a timeline torn by a crash recovers to
its last complete event instead of ending in garbage.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.common.errors import ValidationError
from repro.resilience.durability import DurableJsonlWriter


class EventLog:
    """Append-only, sequence-numbered timeline of structured events.

    Args:
        clock: relative-seconds time source (injectable for tests).
            Timestamps are seconds since the log's creation.
        path: optional JSONL file; events are appended (framed, via
            the durable writer) as they arrive so a crashed run still
            leaves its timeline behind.  An existing file is appended
            to — timelines accumulate across a run's lives — after
            its torn tail, if any, is recovered.
        io: IO seam for fault injection (defaults to the real thing).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        path: str | None = None,
        io=None,
    ) -> None:
        self._clock = clock
        self._epoch = clock()
        self._writer = (
            None if path is None else DurableJsonlWriter(path, io=io)
        )
        self._seq = 0
        # Supervisor monitor threads (one per tenant), the alert
        # ticker, and connection threads all emit into one timeline;
        # the lock keeps sequence numbers unique and frames unsplit.
        self._emit_lock = threading.Lock()
        self.events: list[dict] = []

    def emit(self, kind: str, **fields) -> dict:
        """Append one event; returns the enveloped dict. Thread-safe."""
        if not kind:
            raise ValidationError("event kind must be non-empty")
        for reserved in ("seq", "t", "kind"):
            if reserved in fields:
                raise ValidationError(
                    f"field {reserved!r} is part of the event envelope"
                )
        with self._emit_lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "t": round(self._clock() - self._epoch, 6),
                "kind": kind,
            }
            event.update(fields)
            self.events.append(event)
            if self._writer is not None:
                self._writer.append(event)
        return event

    def record(self, obj) -> dict:
        """Emit an object carrying its own ``to_record()`` shape.

        The record must provide a ``kind`` key — that is the common
        contract ``DegradationEvent.to_record()`` and
        ``FailureReport.to_record()`` satisfy.
        """
        payload = obj.to_record()
        kind = payload.pop("kind", None)
        if kind is None:
            raise ValidationError(
                f"{type(obj).__name__}.to_record() must include 'kind'"
            )
        return self.emit(kind, **payload)

    def close(self) -> None:
        """Fsync the timeline and give its handle back."""
        if self._writer is not None:
            try:
                self._writer.sync()
            finally:
                self._writer.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def of_kind(self, kind: str) -> list[dict]:
        return [event for event in self.events if event["kind"] == kind]

    def describe(self) -> str:
        if not self.events:
            return "event log: empty"
        kinds: dict[str, int] = {}
        for event in self.events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        parts = ", ".join(
            f"{count} {kind}" for kind, count in sorted(kinds.items())
        )
        return f"event log: {len(self.events)} events ({parts})"


def load_events(path: str) -> list[dict]:
    """Read back an event log (used by ``repro report``).

    Accepts both the framed format the log writes and legacy plain
    JSONL files.
    """
    from repro.resilience.durability import read_jsonl_payloads

    return read_jsonl_payloads(path)
