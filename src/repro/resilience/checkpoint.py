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
append-mode JSONL artifacts (quarantine sinks) at save time, so a
resume can reconcile those files — truncating records written after
the checkpoint that the replayed stream will re-emit — via
:func:`~repro.resilience.durability.reconcile_jsonl`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import ArtifactWriteError, CheckpointError
from repro.resilience.durability import RealIO, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mining.event_matrix import EventMatrixAccumulator
    from repro.parsers.base import ParserFactory
    from repro.parsers.preprocess import Preprocessor
    from repro.streaming.engine import StreamingParser

#: Bump when the checkpoint schema changes incompatibly.
#: v2: engine config gained backpressure fields (max_pending/overflow).
#: v3: added per-artifact JSONL offsets for resume reconciliation.
CHECKPOINT_VERSION = 3


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
    """

    version: int
    parser: str
    source: str | None
    records_consumed: int
    engine: dict
    accumulator: dict | None = None
    artifacts: dict = field(default_factory=dict)
    delivery: dict | None = None

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

    The write goes through :func:`atomic_write_text` (temp file,
    fsync, rename, parent-dir fsync), so a crash — even a power loss —
    at any point leaves either the previous checkpoint or the new one,
    never a torn hybrid.  Returns the in-memory
    :class:`StreamCheckpoint` that was written.  With *telemetry*, the
    save is counted, its latency observed, and a ``checkpoint`` event
    lands on the timeline.
    """
    started = time.perf_counter()
    checkpoint = StreamCheckpoint(
        version=CHECKPOINT_VERSION,
        parser=parser,
        source=source,
        records_consumed=records_consumed,
        engine=engine.checkpoint_state(),
        accumulator=accumulator.state() if accumulator is not None else None,
        artifacts=dict(artifacts or {}),
        delivery=dict(delivery) if delivery else None,
    )
    try:
        atomic_write_text(
            path, json.dumps(checkpoint.to_dict()), io=io, retries=1
        )
    except (OSError, ArtifactWriteError) as error:
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


def load_checkpoint(
    path: str, telemetry=None, *, parser: str
) -> StreamCheckpoint:
    """Read and validate a checkpoint file.

    Raises :class:`~repro.common.errors.CheckpointError` when the file
    is missing, is not valid JSON, lacks required fields, or was
    written by an incompatible schema version or another *parser*.
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
    try:
        engine = StreamingParser(
            factory,
            flush_policy=config["flush_policy"],
            flush_size=config["flush_size"],
            cache_capacity=config["cache_capacity"],
            exact_capacity=config["exact_capacity"],
            max_flush_retries=config["max_flush_retries"],
            retain=config["retain"],
            max_pending=config.get("max_pending"),
            overflow=config.get("overflow", "block"),
            preprocessor=preprocessor,
            error_policy=error_policy,
            quarantine=quarantine,
            max_record_len=max_record_len,
            source_label=source_label,
            telemetry=telemetry,
        )
    except KeyError as error:
        raise CheckpointError(
            f"checkpoint engine configuration is missing {error}"
        ) from error
    engine.restore_state(checkpoint.engine)
    return engine


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
