"""Long-running multi-tenant ingestion service.

The paper evaluates parsers on offline corpora; the production shape
this repo grows toward is a service holding many concurrent tenants,
where the failure domain is no longer "one run" but "one tenant among
many".  This package lifts the per-stream machinery built by earlier
layers — supervision, budgets, quarantine, checkpoints, durable
manifests — into that shape:

* :mod:`~repro.service.shard` — :class:`TenantShard`, one tenant's
  isolated failure domain: own engine+cache, quarantine, checkpoint,
  optional budget/ladder, circuit breaker;
* :mod:`~repro.service.workers` — :class:`ShardSupervisor`, the same
  shard behind a process boundary: watchdog, restart, careful replay,
  poison diversion, fencing;
* :mod:`~repro.service.admission` — per-tenant token buckets plus a
  global budget valve that samples/sheds the noisiest tenant first;
* :mod:`~repro.service.server` — the tenant router
  (:class:`IngestionService`), the threaded TCP line front end
  (:class:`LineServer`), and the in-process replay adapter;
* :mod:`~repro.service.signals` — SIGINT/SIGTERM →
  :class:`ShutdownRequested`, so an interrupted run finalizes through
  the same path as a clean one;
* :mod:`~repro.service.protocol` — wire protocol v2: sequence-tagged
  lines, cumulative acks, and :class:`DeliveryFront` — per-client
  :class:`DeliveryWindow` dedup plus the ownership
  :class:`BatchJournal`, and ``FrontStage``, the one front both kinds
  of shard are built on;
* :mod:`~repro.service.client` — :class:`DurableSender`, the
  spool-backed exactly-once producer.

The drain protocol is the contract everything hangs off: stop
accepting, flush every shard through the prefix policy (byte-identical
to batch), finalize per-tenant checkpoints and manifests, exit 0.
"""

from repro.service.admission import AdmissionController, TokenBucket
from repro.service.client import DurableSender
from repro.service.protocol import (
    BatchJournal,
    DeliveryFront,
    DeliveryWindow,
    PROTOCOL_V1,
    PROTOCOL_V2,
    PROTOCOLS,
)
from repro.service.server import (
    ISOLATION_MODES,
    ISOLATION_PROCESS,
    ISOLATION_THREAD,
    IngestionService,
    LineServer,
    REASON_PROTOCOL,
    replay_lines,
)
from repro.service.shard import (
    REASON_BREAKER,
    REASON_BUDGET,
    REASON_CRASH,
    REASON_POISON,
    TenantShard,
)
from repro.service.signals import ShutdownRequested, graceful_signals
from repro.service.workers import (
    ShardSupervisor,
    ShardWorker,
    WorkerSpec,
    supervisor_status,
)

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "DurableSender",
    "DeliveryFront",
    "DeliveryWindow",
    "PROTOCOL_V1",
    "PROTOCOL_V2",
    "PROTOCOLS",
    "ISOLATION_MODES",
    "ISOLATION_PROCESS",
    "ISOLATION_THREAD",
    "IngestionService",
    "LineServer",
    "REASON_PROTOCOL",
    "replay_lines",
    "REASON_BREAKER",
    "REASON_BUDGET",
    "REASON_CRASH",
    "REASON_POISON",
    "TenantShard",
    "ShutdownRequested",
    "graceful_signals",
    "BatchJournal",
    "ShardSupervisor",
    "ShardWorker",
    "WorkerSpec",
    "supervisor_status",
]
