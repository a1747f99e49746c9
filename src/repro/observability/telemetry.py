"""The `Telemetry` facade: one handle threaded through the runtime.

Every instrumented constructor takes ``telemetry=None``; the default
keeps the uninstrumented fast path at a single ``is None`` guard (the
< 3 % regression budget of ISSUE 4).  When a run wants measurement it
builds one :class:`Telemetry` and passes it everywhere — the CLI does
this for ``stream`` / ``supervise`` / ``soak``:

    telemetry = Telemetry.create()
    parser = StreamingParser(factory, telemetry=telemetry)
    ...
    export_metrics(telemetry.metrics, "run.prom")
    telemetry.tracer.export("run.jsonl")

The facade also pre-registers the runtime's metric schema (see
DESIGN.md §8 for the naming scheme) so exporters always emit the full
family list with ``# HELP`` text, even for families that never fired.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.observability.events import EventLog
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.observability.tracing import Tracer


class Telemetry:
    """Bundles the three telemetry surfaces of one run."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        tracer: Tracer,
        events: EventLog,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.events = events
        _register_schema(metrics)

    @classmethod
    def create(
        cls,
        trace_id: str = "run",
        clock: Callable[[], float] = time.monotonic,
        clock_us: Callable[[], int] | None = None,
        events_path: str | None = None,
        io=None,
    ) -> "Telemetry":
        """A fully-wired telemetry handle with shared defaults.

        *io* is the durability layer's IO seam — passed to the event
        log's durable writer so injected IO faults reach the timeline
        artifact too.
        """
        tracer = (
            Tracer(trace_id=trace_id)
            if clock_us is None
            else Tracer(trace_id=trace_id, clock_us=clock_us)
        )
        return cls(
            metrics=MetricsRegistry(clock=clock),
            tracer=tracer,
            events=EventLog(clock=clock, path=events_path, io=io),
        )

    def close(self) -> None:
        self.events.close()


def _register_schema(metrics: MetricsRegistry) -> None:
    """Declare the runtime's metric families up front.

    Registration is idempotent (same kind + labels returns the
    existing family), so instrumented components may re-declare the
    families they touch without conflict.
    """
    # Streaming engine ---------------------------------------------------
    metrics.counter(
        "repro_stream_lines_total", "Records accepted by the engine"
    )
    metrics.counter(
        "repro_stream_flushes_total", "Pending-buffer flushes (chunks parsed)"
    )
    metrics.counter(
        "repro_stream_outliers_total", "Lines the flush parser left unmatched"
    )
    metrics.counter(
        "repro_stream_rejected_total", "Records rejected by screening"
    )
    metrics.counter(
        "repro_stream_shed_total", "Records dropped by overflow backpressure"
    )
    metrics.gauge("repro_stream_events", "Distinct event templates discovered")
    metrics.gauge("repro_stream_pending", "Records buffered awaiting a flush")
    metrics.histogram(
        "repro_stream_flush_seconds",
        "Per-chunk flush latency",
        buckets=DEFAULT_LATENCY_BUCKETS,
    )
    metrics.histogram(
        "repro_stream_flush_size_records",
        "Records handed to the flush parser per chunk",
        buckets=DEFAULT_SIZE_BUCKETS,
    )
    metrics.gauge(
        "repro_run_elapsed_seconds", "Wall-clock duration of the session"
    )
    # Template cache -----------------------------------------------------
    metrics.counter(
        "repro_cache_hits_total",
        "Cache hits by kind (exact memo vs template probe)",
        labelnames=("kind",),
    )
    metrics.counter("repro_cache_misses_total", "Cache misses")
    metrics.counter("repro_cache_evictions_total", "LRU template evictions")
    metrics.counter(
        "repro_cache_resizes_total", "Live capacity changes", ("direction",)
    )
    # Resilience ---------------------------------------------------------
    metrics.counter(
        "repro_quarantine_records_total",
        "Records quarantined, by reason",
        labelnames=("reason",),
    )
    metrics.counter(
        "repro_checkpoint_ops_total",
        "Checkpoint saves and loads",
        labelnames=("op",),
    )
    metrics.histogram(
        "repro_checkpoint_seconds",
        "Checkpoint save/load latency",
        labelnames=("op",),
        buckets=DEFAULT_LATENCY_BUCKETS,
    )
    metrics.counter(
        "repro_artifact_writes_total",
        "Durable artifact writes by kind and outcome",
        labelnames=("kind", "outcome"),
    )
    metrics.counter(
        "repro_jsonl_recovered_bytes_total",
        "Torn-tail bytes truncated by JSONL recovery",
    )
    metrics.counter(
        "repro_supervisor_attempts_total",
        "Supervised attempts (parses, chunk tries) by chain entry and outcome",
        labelnames=("parser", "status"),
    )
    metrics.counter(
        "repro_supervisor_retries_total",
        "Retries scheduled after failed attempts",
        labelnames=("parser",),
    )
    metrics.counter(
        "repro_breaker_transitions_total",
        "Circuit-breaker state entries",
        labelnames=("parser", "state"),
    )
    # Degradation --------------------------------------------------------
    metrics.counter(
        "repro_budget_breaches_total",
        "Budget breaches observed",
        labelnames=("dimension", "level"),
    )
    metrics.counter(
        "repro_ladder_steps_total",
        "Degradation ladder steps by trigger",
        labelnames=("trigger",),
    )
    metrics.gauge(
        "repro_ladder_position", "Current ladder rung index (0 = top)"
    )
    # Service (multi-tenant ingestion) -----------------------------------
    metrics.counter(
        "repro_service_lines_total",
        "Lines a tenant's engine consumed, across service lives "
        "(the engine's own count, as repro_tenant_lines_total)",
        labelnames=("tenant",),
    )
    metrics.counter(
        "repro_service_rejected_total",
        "Lines refused before reaching a shard, by cause",
        labelnames=("tenant", "cause"),
    )
    metrics.counter(
        "repro_service_breaker_total",
        "Tenant circuit-breaker transitions",
        labelnames=("tenant", "state"),
    )
    metrics.counter(
        "repro_service_connections_total",
        "Front-end connections by outcome",
        labelnames=("outcome",),
    )
    metrics.gauge(
        "repro_service_tenants", "Tenant shards currently materialized"
    )
    metrics.gauge(
        "repro_service_queue_depth",
        "Pending records summed across all tenant shards",
    )
    # Live telemetry plane (per-tenant SLOs + alerts) --------------------
    metrics.counter(
        "repro_tenant_lines_total",
        "Lines parsed per tenant, synced live from the owning shard",
        labelnames=("tenant",),
    )
    metrics.counter(
        "repro_tenant_cache_hits_total",
        "Template-cache hits per tenant by kind (exact/template)",
        labelnames=("tenant", "kind"),
    )
    metrics.counter(
        "repro_tenant_cache_misses_total",
        "Template-cache misses per tenant",
        labelnames=("tenant",),
    )
    metrics.counter(
        "repro_tenant_quarantined_total",
        "Records quarantined per tenant (all reasons)",
        labelnames=("tenant",),
    )
    metrics.gauge(
        "repro_tenant_events",
        "Distinct event templates discovered per tenant",
        labelnames=("tenant",),
    )
    metrics.histogram(
        "repro_tenant_ingest_latency_seconds",
        "End-to-end per-record ingest latency (enqueue to parsed)",
        labelnames=("tenant",),
        buckets=DEFAULT_LATENCY_BUCKETS,
    )
    metrics.histogram(
        "repro_tenant_queue_wait_seconds",
        "Time records spend queued before the shard worker dequeues them",
        labelnames=("tenant",),
        buckets=DEFAULT_LATENCY_BUCKETS,
    )
    metrics.gauge(
        "repro_tenant_error_budget_remaining",
        "Fraction of the SLO error budget left in the slow window",
        labelnames=("tenant",),
    )
    metrics.counter(
        "repro_alerts_total",
        "Alert state transitions by rule",
        labelnames=("rule", "state"),
    )
    metrics.gauge(
        "repro_alerts_active", "Alert instances currently firing"
    )
    # Process isolation (shard workers + supervision) --------------------
    metrics.counter(
        "repro_shard_restarts_total",
        "Worker restarts by tenant and death status",
        labelnames=("tenant", "status"),
    )
    metrics.counter(
        "repro_shard_poison_records_total",
        "Records diverted to quarantine as poison pills",
        labelnames=("tenant",),
    )
    metrics.gauge(
        "repro_worker_heartbeat_age_seconds",
        "Seconds since the supervisor last heard from a worker",
        labelnames=("tenant",),
    )
    metrics.gauge(
        "repro_shard_queue_depth",
        "Journaled records awaiting a worker checkpoint, per tenant",
        labelnames=("tenant",),
    )
    metrics.gauge(
        "repro_shard_state",
        "Supervisor lifecycle state (one-hot per tenant)",
        labelnames=("tenant", "state"),
    )
    # Exactly-once delivery (wire protocol v2) ---------------------------
    metrics.counter(
        "repro_delivery_acked_total",
        "Cumulative ACK frames sent to v2 clients "
        "(one per tenant per received chunk)",
    )
    metrics.counter(
        "repro_delivery_duplicates_suppressed_total",
        "Sequence-tagged lines dropped by the per-tenant dedup window",
        labelnames=("tenant",),
    )
    metrics.gauge(
        "repro_delivery_spool_depth",
        "Client-side spooled lines not yet acknowledged",
    )
    metrics.counter(
        "repro_delivery_resend_total",
        "Spooled lines retransmitted by a flush or reconnect",
    )
