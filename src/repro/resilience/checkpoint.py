"""Checkpoint/resume for streaming parse sessions.

A streaming run killed mid-stream should not have to start over: the
engine's mutable state (slot table, template cache, miss buffer,
retained assignments) plus the live mining accumulator serialize to a
single JSON checkpoint file, and a fresh engine restored from it —
fed the *remaining* records — finalizes to the same result as an
uninterrupted run.  Under the ``prefix`` flush policy that identity is
byte-exact (same ``.events`` / ``.structured`` output), because the
final full re-parse sees the identical record sequence either way; the
resilience test suite certifies it with the equivalence harness.

The file format is versioned JSON written through the durability
layer's full crash-consistency sequence — temp file, ``fsync`` of the
temp file *before* ``os.replace``, then ``fsync`` of the parent
directory — so a crash (or power loss) during checkpointing leaves
the previous checkpoint intact and a completed rename actually
sticks.  Code-valued engine parameters (the parser factory,
preprocessor, callbacks) are not serialized — the resume path takes
them as arguments and the saved configuration is cross-checked against
the rebuilt engine, failing with
:class:`~repro.common.errors.CheckpointError` on any mismatch.

Checkpoints also carry the byte/record offsets of the run's
append-mode JSONL artifacts (quarantine sinks) at save time, keyed by
path relative to the checkpoint's directory, so a resume can reconcile
those files — truncating records written after
the checkpoint that the replayed stream will re-emit — via
:func:`~repro.resilience.durability.reconcile_jsonl`.  One is the
checkpoint's own **record log** (:func:`record_log_path`): a save
appends the records retained since the last one and fsyncs them
before it renames the checkpoint, so the JSON never holds the history.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import CheckpointError
from repro.common.types import LogRecord
from repro.resilience.durability import (
    DurableJsonlWriter,
    RealIO,
    atomic_write_text,
    frame_bytes,
    json_or_null,
    json_str,
    reconcile_jsonl,
    scan_framed,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mining.event_matrix import EventMatrixAccumulator
    from repro.parsers.base import ParserFactory
    from repro.parsers.preprocess import Preprocessor
    from repro.streaming.engine import StreamingParser

#: Bump when the checkpoint schema changes incompatibly.
#: v2: engine config gained backpressure fields (max_pending/overflow).
#: v3: added per-artifact JSONL offsets for resume reconciliation.
#: v4: retained records moved from the engine state to the record log.
CHECKPOINT_VERSION = 4


@dataclass
class StreamCheckpoint:
    """One serialized stream position.

    Attributes:
        version: schema version (must equal :data:`CHECKPOINT_VERSION`).
        parser: registry name of the wrapped batch parser; a resume
            under another parser is refused (see :func:`load_checkpoint`).
        source: where the stream came from (path or dataset spec), so
            a resume can rebuild the same record iterator.
        records_consumed: how many records were pulled from the source
            iterator — including ones the engine's error policy
            rejected — i.e. how many a resume must skip.
        engine: :meth:`~repro.streaming.engine.StreamingParser.checkpoint_state`
            snapshot.
        accumulator: live mining accumulator snapshot, or ``None``.
        artifacts: ``{path: {"bytes": int, "records": int}}`` offsets
            of the run's append-mode JSONL artifacts at save time,
            used by resume to truncate post-checkpoint records the
            replayed stream re-emits.
        delivery: exactly-once delivery state (protocol v2), or
            ``None``: ``{"clients": {client_id: high}}`` — the
            highest-contiguous acknowledged sequence per client, so a
            resumed shard suppresses resends of lines it already
            owns.  Optional and backward-compatible (older
            checkpoints simply lack it), so no version bump.
        records / record_log: what :func:`load_checkpoint` read back.
    """

    version: int
    parser: str
    source: str | None
    records_consumed: int
    engine: dict
    accumulator: dict | None = None
    artifacts: dict = field(default_factory=dict)
    delivery: dict | None = None
    records: list = field(default_factory=list, repr=False)
    record_log: tuple | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        data = {
            "version": self.version,
            "parser": self.parser,
            "source": self.source,
            "records_consumed": self.records_consumed,
            "engine": self.engine,
            "accumulator": self.accumulator,
            "artifacts": self.artifacts,
        }
        if self.delivery is not None:
            data["delivery"] = self.delivery
        return data


def _note_checkpoint_op(
    telemetry, op: str, path: str, seconds: float, **fields
) -> None:
    """Count one checkpoint save/load and put it on the timeline."""
    telemetry.metrics.get("repro_checkpoint_ops_total").labels(op=op).inc()
    telemetry.metrics.get("repro_checkpoint_seconds").labels(op=op).observe(
        seconds
    )
    telemetry.events.emit(
        "checkpoint", op=op, path=path, seconds=round(seconds, 6), **fields
    )


def save_checkpoint(
    path: str,
    engine: "StreamingParser",
    *,
    records_consumed: int,
    parser: str,
    source: str | None = None,
    accumulator: "EventMatrixAccumulator | None" = None,
    artifacts: dict | None = None,
    delivery: dict | None = None,
    io: "RealIO | None" = None,
    telemetry=None,
) -> StreamCheckpoint:
    """Snapshot *engine* (and optional accumulator) to *path* atomically.

    After one append, flush and fsync of the record log, the write
    goes through :func:`atomic_write_text` (temp file, fsync, rename,
    parent-dir fsync), so a crash — even a power loss — at any point
    leaves the previous checkpoint or the new one, each with its log
    records, never a torn hybrid.  Returns the in-memory
    :class:`StreamCheckpoint` that was written.  With *telemetry*, the
    save is counted, its latency observed, and a ``checkpoint`` event
    lands on the timeline.
    """
    started = time.perf_counter()
    artifacts = dict(artifacts or {}, **_append_record_log(path, engine, io))
    checkpoint = StreamCheckpoint(
        version=CHECKPOINT_VERSION,
        parser=parser,
        source=source,
        records_consumed=records_consumed,
        engine=engine.checkpoint_state(),
        accumulator=accumulator.state() if accumulator is not None else None,
        artifacts=artifacts,
        delivery=dict(delivery) if delivery else None,
    )
    try:
        atomic_write_text(
            path, json.dumps(checkpoint.to_dict()), io=io, retries=1
        )
    except OSError as error:  # ArtifactWriteError is one too
        raise CheckpointError(
            f"could not write checkpoint to {path}: {error}"
        ) from error
    if telemetry is not None:
        _note_checkpoint_op(
            telemetry,
            "save",
            path,
            time.perf_counter() - started,
            records_consumed=records_consumed,
        )
    return checkpoint


def record_log_path(path: str) -> str:
    """``out.checkpoint.json`` → ``out.checkpoint.records.jsonl``."""
    return os.path.splitext(path)[0] + ".records.jsonl"


def _append_record_log(path: str, engine, io) -> dict:
    """Cut the record log of checkpoint *path* back to its pin, append
    what *engine* retained since, and fsync; returns the new pin.

    No retry: a failed save keeps the previous checkpoint, and the
    next save cuts back to its pin."""
    log, size, count = engine.record_log or (None, 0, 0)
    if log != record_log_path(path):
        log, size, count = record_log_path(path), 0, 0
    writer = DurableJsonlWriter(log, retries=0, io=io)
    try:
        writer.cut((size, count))
        writer.extend([
            frame_bytes(
                f"[{json_str(r.content)}, {json_or_null(r.timestamp)}, "
                f"{json_or_null(r.session_id)}, "
                f"{json_or_null(r.truth_event)}]".encode()
            )
            for r in engine.retained_records(count)
        ])
        writer.sync()
    except OSError as error:
        raise CheckpointError(
            f"could not write record log {log}: {error}"
        ) from error
    finally:
        writer.close()
    engine.record_log = pin = (log, *writer.offset())
    return {os.path.basename(log): {"bytes": pin[1], "records": pin[2]}}


def load_checkpoint(
    path: str, telemetry=None, *, parser: str
) -> StreamCheckpoint:
    """Read and validate a checkpoint file and its record log.

    Raises :class:`~repro.common.errors.CheckpointError` when the file
    is missing, is not valid JSON, lacks required fields, or was
    written by an incompatible schema version or another *parser*, or
    when its record log holds fewer intact records than it pins.
    """
    started = time.perf_counter()
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"could not read checkpoint {path}: {error}"
        ) from error
    if not isinstance(data, dict):
        raise CheckpointError(
            f"checkpoint {path} does not hold a JSON object"
        )
    version = data.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema version {version!r}; "
            f"this runtime reads version {CHECKPOINT_VERSION}"
        )
    try:
        checkpoint = StreamCheckpoint(
            version=version,
            parser=data["parser"],
            source=data.get("source"),
            records_consumed=data["records_consumed"],
            engine=data["engine"],
            accumulator=data.get("accumulator"),
            artifacts=data.get("artifacts") or {},
            delivery=data.get("delivery"),
        )
    except KeyError as error:
        raise CheckpointError(
            f"checkpoint {path} is missing required field {error}"
        ) from error
    if checkpoint.parser != parser:
        raise CheckpointError(
            f"checkpoint {path} was written by parser "
            f"{checkpoint.parser!r}; it cannot resume under {parser!r}"
        )
    log = record_log_path(path)
    pin = checkpoint.artifacts.get(os.path.basename(log), {})
    try:
        with open(log, "rb") as handle:
            frames, valid = scan_framed(handle.read(pin["bytes"]))
    except (OSError, KeyError):  # missing log or pin
        frames, valid = [], -1
    if (valid, len(frames)) != (pin.get("bytes"), pin.get("records")):
        raise CheckpointError(
            f"record log {log} holds {len(frames)} intact record(s) of "
            f"the {pin.get('records')} checkpoint {path} pins"
        )
    checkpoint.records = [LogRecord(*frame) for frame in frames]
    checkpoint.record_log = (log, pin["bytes"], pin["records"])
    if telemetry is not None:
        _note_checkpoint_op(
            telemetry,
            "load",
            path,
            time.perf_counter() - started,
            records_consumed=checkpoint.records_consumed,
        )
    return checkpoint


def restore_streaming_parser(
    checkpoint: StreamCheckpoint,
    factory: "ParserFactory",
    *,
    preprocessor: "Preprocessor | None" = None,
    error_policy=None,
    quarantine=None,
    max_record_len: int | None = None,
    source_label: str = "<stream>",
    telemetry=None,
) -> "StreamingParser":
    """Build a fresh engine positioned exactly at *checkpoint*.

    The engine configuration is taken from the checkpoint itself; the
    caller supplies only the code-valued pieces (factory,
    preprocessor, error policy) — which must be equivalent to the ones
    the checkpointed run used for the resumed result to match.
    """
    from repro.streaming.engine import StreamingParser

    config = checkpoint.engine.get("config")
    if not isinstance(config, dict):
        raise CheckpointError("checkpoint lacks an engine configuration")
    try:  # a key it lacks is caught by restore_state's config check
        engine = StreamingParser(
            factory, **config, preprocessor=preprocessor,
            error_policy=error_policy, quarantine=quarantine,
            max_record_len=max_record_len, source_label=source_label,
            telemetry=telemetry,
        )
    except TypeError as error:
        raise CheckpointError(
            f"checkpoint engine configuration is unusable: {error}"
        ) from error
    engine.restore_state(checkpoint.engine, checkpoint.records)
    engine.record_log = checkpoint.record_log
    return engine


def artifact_offsets(sink, checkpoint_path: str) -> dict:
    """The ``{path: {"bytes", "records"}}`` pin of *sink* for a checkpoint.

    A resume truncates the artifact back to it, so records appended
    after the checkpoint are not duplicated when they are re-fed.  An
    empty sink is pinned too: its zero offset is what rolls back
    records first appended after the checkpoint.  The path is relative
    to the directory of *checkpoint_path*, so the checkpoint does not
    depend on where the run's directory sits.
    """
    if sink is None or sink.path is None:
        return {}
    path = os.path.relpath(
        sink.path, os.path.dirname(checkpoint_path) or os.curdir
    )
    bytes_written, records_written = sink.offset()
    return {path: {"bytes": bytes_written, "records": records_written}}


def resume_streaming_parser(
    path: str,
    factory: "ParserFactory",
    *,
    parser: str,
    io: "RealIO | None" = None,
    telemetry=None,
    **engine_kwargs,
) -> "tuple[StreamCheckpoint, StreamingParser]":
    """Load *path*, roll pinned artifacts (the log too) back, restore.

    *engine_kwargs* go to :func:`restore_streaming_parser`.
    """
    checkpoint = load_checkpoint(path, telemetry=telemetry, parser=parser)
    for artifact_path, offsets in checkpoint.artifacts.items():
        reconcile_jsonl(
            os.path.join(os.path.dirname(path), artifact_path),
            offsets["bytes"],
            io=io,
            telemetry=telemetry,
        )
    engine = restore_streaming_parser(
        checkpoint, factory, telemetry=telemetry, **engine_kwargs
    )
    return checkpoint, engine


def restore_accumulator(
    checkpoint: StreamCheckpoint,
) -> "EventMatrixAccumulator | None":
    """Rebuild the live mining accumulator saved in *checkpoint*."""
    if checkpoint.accumulator is None:
        return None
    from repro.mining.event_matrix import EventMatrixAccumulator

    accumulator = EventMatrixAccumulator()
    accumulator.restore_state(checkpoint.accumulator)
    return accumulator
