"""Fault-tolerant parsing runtime: supervision, quarantine, checkpoints.

The paper's Finding 6 quantifies why robustness is not optional: a 4%
parsing error rate on critical events degrades downstream PCA mining
by an order of magnitude.  A production pipeline therefore has to
*contain* faults instead of dying on them.  This package is that
containment layer, in four parts:

* :mod:`~repro.resilience.quarantine` — per-record error policies
  (``raise`` / ``skip`` / ``quarantine``) and the provenance-carrying
  quarantine sink shared by the dataset loader and the streaming
  engine;
* :mod:`~repro.resilience.supervisor` — :class:`ParserSupervisor`,
  which runs parses under wall-clock deadlines with
  exponential-backoff retries and a configurable fallback chain (e.g.
  LKE → IPLoM → SLCT), recording every attempt in a
  :class:`FailureReport`;
* :mod:`~repro.resilience.checkpoint` — serialize a streaming
  session's full state so a killed run resumes mid-stream and
  finalizes to the identical (prefix-policy: byte-identical) result;
* :mod:`~repro.resilience.faults` — a deterministic, seeded
  fault-injection harness (corrupt records, crashing/stalling
  parsers) plus one seeded scheduler,
  :func:`fault_schedule`, for IO, worker-process, and network fault
  scripts, so every recovery path above is exercised by tests and the
  ``repro supervise`` / ``stream --faults --io-faults`` / ``serve
  --proc-faults`` / ``send --net-faults`` CLI;
* :mod:`~repro.resilience.durability` — crash-consistent artifact IO:
  atomic whole-file writes (temp + fsync + rename + dir fsync),
  length+CRC32-framed JSONL whose one writer,
  :class:`DurableJsonlWriter`, is the only code that recovers a torn
  tail or rolls a file back to a checkpoint's pin, and run-end
  integrity manifests checked by ``repro verify-run``.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    StreamCheckpoint,
    artifact_offsets,
    load_checkpoint,
    record_log_path,
    restore_accumulator,
    restore_streaming_parser,
    resume_streaming_parser,
    save_checkpoint,
)
from repro.resilience.durability import (
    AtomicWriter,
    DurableJsonlWriter,
    ManifestReport,
    RealIO,
    RunManifest,
    atomic_write_text,
    diff_manifests,
    ensure_artifact,
    load_manifest,
    read_jsonl_payloads,
    verify_manifest,
)
from repro.resilience.faults import (
    FaultyIO,
    FlakyFactory,
    InjectedFault,
    IoFault,
    NET_KINDS,
    NetworkFault,
    ProcessFault,
    corrupt_raw_file,
    corrupt_records,
    crash_storm_schedule,
    fault_schedule,
)
from repro.resilience.quarantine import (
    ERROR_POLICIES,
    ErrorPolicy,
    QuarantineRecord,
    QuarantineSink,
    is_clean_content,
    screen_records,
)
from repro.resilience.supervisor import (
    Attempt,
    FailureReport,
    ParserSupervisor,
    RetryPolicy,
    SupervisedResult,
    run_with_deadline,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "StreamCheckpoint",
    "artifact_offsets",
    "load_checkpoint",
    "record_log_path",
    "restore_accumulator",
    "restore_streaming_parser",
    "resume_streaming_parser",
    "save_checkpoint",
    "AtomicWriter",
    "DurableJsonlWriter",
    "ManifestReport",
    "RealIO",
    "RunManifest",
    "atomic_write_text",
    "diff_manifests",
    "ensure_artifact",
    "load_manifest",
    "read_jsonl_payloads",
    "verify_manifest",
    "FaultyIO",
    "FlakyFactory",
    "InjectedFault",
    "IoFault",
    "NET_KINDS",
    "NetworkFault",
    "ProcessFault",
    "corrupt_raw_file",
    "corrupt_records",
    "crash_storm_schedule",
    "fault_schedule",
    "ERROR_POLICIES",
    "ErrorPolicy",
    "QuarantineRecord",
    "QuarantineSink",
    "is_clean_content",
    "screen_records",
    "Attempt",
    "FailureReport",
    "ParserSupervisor",
    "RetryPolicy",
    "SupervisedResult",
    "run_with_deadline",
]
