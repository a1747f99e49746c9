"""Per-record error policies and the quarantine sink.

Production log pipelines cannot afford to die on the first dirty line:
the paper's Finding 6 shows that even a 4% parsing error rate on
critical events degrades PCA mining by an order of magnitude, so the
interesting question is never *whether* input is dirty but *what to do*
with the dirty part while the clean part keeps flowing.  This module
supplies the shared answer used by :mod:`repro.datasets.loader`,
:class:`~repro.streaming.engine.StreamingParser`, and the
``repro supervise`` CLI:

* an :class:`ErrorPolicy` — ``raise`` (fail fast, the historical
  behavior), ``skip`` (drop silently but count), or ``quarantine``
  (divert to a sink with full provenance); and
* a :class:`QuarantineSink` that collects :class:`QuarantineRecord`
  entries in memory and, when given a path, appends them as JSON lines
  so a human (or a replay job) can inspect exactly what was rejected,
  where it came from, and why.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, dataclass
from collections.abc import Iterable, Iterator

from repro.common.errors import DatasetError, ValidationError
from repro.common.types import LogRecord
from repro.resilience.durability import (
    DurableJsonlWriter,
    RealIO,
    read_jsonl_payloads,
)

#: The three per-record error policies, in escalating tolerance order.
ERROR_POLICIES = ("raise", "skip", "quarantine")

#: Reason tags used across the hardened ingestion paths.
REASON_UNDECODABLE = "undecodable"
REASON_OVERSIZED = "oversized"
REASON_UNPRINTABLE = "unprintable"
REASON_PARSE_FAILURE = "parse-failure"

#: What the screen rejects: C0 controls other than tab/newline/return,
#: and the replacement character lossy decoding leaves behind.
_UNPRINTABLE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffd]")

#: How much of a rejected line is preserved in its quarantine record.
_PREVIEW_CHARS = 200


@dataclass(frozen=True)
class QuarantineRecord:
    """Provenance of one rejected input record.

    Attributes:
        source: originating file path, or ``"<stream>"`` for in-memory
            record streams.
        line_no: 0-based line (or record) index within the source.
        byte_offset: byte position of the line start in the source
            file; ``-1`` when the source is not a file.
        reason: machine-readable reason tag (one of the ``REASON_*``
            constants).
        detail: human-readable explanation (exception message, size
            overflow, ...).
        preview: best-effort text preview of the rejected payload,
            decoded with ``errors="replace"`` and truncated.
    """

    source: str
    line_no: int
    byte_offset: int
    reason: str
    detail: str
    preview: str

    def to_record(self) -> dict:
        """Structured-event-log shape (common ``kind`` envelope), the
        same contract as ``FailureReport.to_record`` and
        ``DegradationEvent.to_record``."""
        return {"kind": "quarantine", **asdict(self)}


def preview_text(payload: bytes | str) -> str:
    """Best-effort printable preview of a rejected payload."""
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8", errors="replace")
    return payload[:_PREVIEW_CHARS]


class QuarantineSink:
    """Collects quarantined records; optionally persists them durably.

    Args:
        path: when given, every quarantined record is also appended to
            this file as one length+CRC32-framed JSON line (created
            lazily on the first record, so an untouched sink leaves no
            file).  Persistence goes through
            :class:`~repro.resilience.durability.DurableJsonlWriter`:
            a pre-existing file has its torn tail recovered before the
            first append, and a failed append is rolled back and
            retried once; a second failure raises
            :class:`~repro.common.errors.ArtifactWriteError`.  The file
            is fsynced at :meth:`close`.
        io: IO seam for fault injection (defaults to the real thing).

    The sink always keeps records in memory too, so tests and the CLI
    can report counts without re-reading the file.  With a *telemetry*
    handle attached, every addition is counted by reason in the metrics
    registry and emitted onto the structured event timeline, where it
    interleaves with ladder steps and fallback reports.
    """

    def __init__(
        self,
        path: str | None = None,
        telemetry=None,
        io: "RealIO | None" = None,
    ) -> None:
        self.path = path
        self.telemetry = telemetry
        self.records: list[QuarantineRecord] = []
        self._writer = None if path is None else DurableJsonlWriter(
            path, io=io, telemetry=telemetry
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[QuarantineRecord]:
        return iter(self.records)

    def add(self, record: QuarantineRecord) -> None:
        self.records.append(record)
        if self._writer is not None:
            self._writer.append(asdict(record))
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_quarantine_records_total"
            ).labels(reason=record.reason).inc()
            self.telemetry.events.record(record)

    def offset(self) -> tuple[int, int]:
        """``(bytes, records)`` durably framed on disk so far.

        This is what checkpoints record: a resume truncates the file
        back to this offset so re-fed records do not duplicate.  A
        sink with a path reports the on-disk state (a file it has not
        appended to yet is recovered first), not the in-memory count.
        """
        return (0, 0) if self._writer is None else self._writer.offset()

    def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.sync()
            finally:
                self._writer.close()

    def __enter__(self) -> "QuarantineSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def reasons(self) -> dict[str, int]:
        """Count of quarantined records per reason tag."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return counts

    def describe(self) -> str:
        if not self.records:
            return "quarantine: empty"
        parts = ", ".join(
            f"{count} {reason}" for reason, count in sorted(self.reasons().items())
        )
        where = f" -> {self.path}" if self.path else ""
        return f"quarantine: {len(self.records)} records ({parts}){where}"

    @staticmethod
    def read(path: str) -> list[QuarantineRecord]:
        """Load a quarantine file back into records.

        Accepts both the framed format the sink writes and legacy
        plain JSONL.
        """
        if not os.path.exists(path):
            raise DatasetError(f"quarantine file not found: {path}")
        return [
            QuarantineRecord(**payload)
            for payload in read_jsonl_payloads(path)
        ]


class ErrorPolicy:
    """One per-record error policy plus the sink it diverts into.

    Args:
        mode: ``"raise"``, ``"skip"``, or ``"quarantine"``.
        sink: destination for quarantined records; an in-memory
            :class:`QuarantineSink` is created when omitted.

    The ``skipped`` counter includes quarantined records — it counts
    every record that did *not* reach the downstream consumer.
    """

    def __init__(
        self, mode: str = "raise", sink: QuarantineSink | None = None
    ) -> None:
        if mode not in ERROR_POLICIES:
            raise ValidationError(
                f"error policy must be one of {ERROR_POLICIES}, got {mode!r}"
            )
        self.mode = mode
        self.sink = sink if sink is not None else QuarantineSink()
        self.skipped = 0

    @classmethod
    def coerce(
        cls, policy: "ErrorPolicy | str", sink: QuarantineSink | None = None
    ) -> "ErrorPolicy":
        """Accept either a policy object or a bare mode string."""
        if isinstance(policy, ErrorPolicy):
            return policy
        return cls(policy, sink=sink)

    def handle(
        self,
        *,
        source: str,
        line_no: int,
        byte_offset: int,
        reason: str,
        detail: str,
        payload: bytes | str,
        error: Exception | None = None,
    ) -> None:
        """Apply the policy to one bad record.

        ``raise`` mode raises a :class:`DatasetError` carrying the
        provenance (chained to *error* when given); the other modes
        return normally so the caller can continue with the next
        record.
        """
        if self.mode == "raise":
            message = (
                f"{reason} record at {source}:{line_no}"
                f" (byte offset {byte_offset}): {detail}"
            )
            raise DatasetError(message) from error
        self.skipped += 1
        if self.mode == "quarantine":
            self.sink.add(
                QuarantineRecord(
                    source=source,
                    line_no=line_no,
                    byte_offset=byte_offset,
                    reason=reason,
                    detail=detail,
                    preview=preview_text(payload),
                )
            )


def is_clean_content(content: str, max_len: int | None = None) -> str | None:
    """Reason tag when *content* should be rejected, else ``None``.

    Rejects contents carrying control characters (anything below
    U+0020 except plain whitespace, plus the Unicode replacement
    character left behind by lossy decoding) and, when *max_len* is
    given, contents longer than *max_len* characters.
    """
    if max_len is not None and len(content) > max_len:
        return REASON_OVERSIZED
    if _UNPRINTABLE.search(content) is not None:
        return REASON_UNPRINTABLE
    return None


def screen_records(
    records: Iterable[LogRecord],
    policy: ErrorPolicy | str = "raise",
    *,
    source: str = "<stream>",
    max_len: int | None = None,
    sink: QuarantineSink | None = None,
) -> Iterator[LogRecord]:
    """Yield only records whose content passes :func:`is_clean_content`.

    The record-level twin of the loader's byte-level hardening: use it
    on in-memory streams (generators, already-loaded datasets) where
    byte offsets do not exist.  Rejected records are handled by
    *policy*, with the stream index standing in for the line number.
    """
    policy = ErrorPolicy.coerce(policy, sink=sink)
    for index, record in enumerate(records):
        reason = is_clean_content(record.content, max_len=max_len)
        if reason is None:
            yield record
            continue
        policy.handle(
            source=source,
            line_no=index,
            byte_offset=-1,
            reason=reason,
            detail=(
                f"content length {len(record.content)} exceeds {max_len}"
                if reason == REASON_OVERSIZED
                else "content contains control or replacement characters"
            ),
            payload=record.content,
        )
