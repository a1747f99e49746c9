"""One tenant's isolated parsing domain inside the ingestion service.

A :class:`TenantShard` is the thread host of a tenant: the front
stage (:class:`~repro.service.protocol.FrontStage`) feeds its engine
inline.  It owns everything whose failure must stay inside the
tenant: a :class:`~repro.streaming.engine.StreamingParser` (with
its own :class:`~repro.streaming.cache.TemplateCache`), a
:class:`~repro.resilience.quarantine.QuarantineSink`, a checkpoint
file, optionally a per-tenant
:class:`~repro.degradation.budget.ResourceBudget` +
:class:`~repro.degradation.ladder.DegradationLadder` (via
:class:`~repro.degradation.runtime.DegradedSession`), and a circuit
breaker.  The shard serializes all engine access behind its own lock —
that lock *is* the single-writer ownership the lock-free engine
demands (see :mod:`repro.streaming.cache`), and the engine's
``ConcurrencyError`` tripwire enforces it.

Isolation invariants:

* a parser crash inside ``feed``/flush quarantines the record and
  counts a consecutive failure; ``breaker_threshold`` consecutive
  failures trip the breaker, after which every further line is
  quarantined with reason ``breaker-open`` — the engine is never
  touched again until drain;
* an exhausted per-tenant budget
  (:class:`~repro.common.errors.BudgetExceededError`) trips the
  breaker immediately;
* nothing in this module reaches outside the tenant's directory, so a
  tripped tenant cannot perturb a neighbor's bytes.

Replay/at-least-once contract: every entry reaches the engine
through :meth:`TenantShard.step`, on either host, which answers an
index below the restored ``position`` ``replayed``, so a source that
replays from the beginning produces no duplicates and loses nothing.
Per-tenant stats reach a registry through :func:`sync_tenant_stats`
on either host.

Drain writes the standard ``.events``/``.structured`` outputs through
the engine's prefix finalize (byte-identical to a batch parse), saves
a final checkpoint pinning the quarantine offsets, and commits a
per-tenant :class:`~repro.resilience.durability.RunManifest` — written
last, inside the tenant directory, with artifact keys relative to it,
so two runs of the same stream diff cleanly via ``verify-run
--against``.
"""

from __future__ import annotations

import functools
import os
import threading
import time

from repro.common.errors import BudgetExceededError, ValidationError
from repro.common.types import LogRecord
from repro.datasets.loader import write_parse_result
from repro.degradation.budget import BudgetMonitor, ResourceBudget
from repro.degradation.ladder import DegradationLadder
from repro.degradation.runtime import DegradedSession
from repro.observability.metrics import DEFAULT_LATENCY_BUCKETS, Histogram
from repro.observability.tracing import SPAN_TENANT_DRAIN
from repro.resilience.checkpoint import (
    artifact_offsets,
    resume_streaming_parser,
    save_checkpoint,
)
from repro.resilience.durability import (
    CODEC_FRAMED,
    CODEC_LINES,
    CODEC_OPAQUE,
    RunManifest,
)
from repro.resilience.quarantine import QuarantineRecord, QuarantineSink
from repro.service.protocol import REPLAYED, FrontStage
from repro.streaming.engine import StreamingParser
from repro.streaming.session import ParseSession

#: Quarantine reason tags specific to the service layer.
REASON_BREAKER = "breaker-open"
REASON_BUDGET = "budget-exhausted"
REASON_CRASH = "parser-crash"
REASON_POISON = "poison-pill"

#: Outcome tags returned by :meth:`TenantShard.submit` and
#: :meth:`TenantShard.step` (``replayed`` is the front's).
ACCEPTED = "accepted"
REJECTED = "rejected"
QUARANTINED = "quarantined"
BREAKER = "breaker"
GAP = "gap"

#: Artifact basenames inside every tenant directory.
STEM = "out"
CHECKPOINT_NAME = f"{STEM}.checkpoint.json"
QUARANTINE_NAME = f"{STEM}.quarantine.jsonl"
MANIFEST_NAME = f"{STEM}.manifest.json"


#: Per-tenant SLO histograms: :meth:`TenantShard.stats` key → family.
TENANT_HISTOGRAMS = (
    ("latency", "repro_tenant_ingest_latency_seconds"),
    ("queue_wait", "repro_tenant_queue_wait_seconds"),
)


def sync_tenant_stats(metrics, marks: dict, tenant: str, stats: dict) -> None:
    """Sync one tenant's :meth:`TenantShard.stats` into *metrics*.

    The one writer of the per-tenant families, whether *stats* was
    read from a live shard (thread host) or shipped home by a worker
    (process host); *marks* is the caller's high-water dict (see
    :meth:`MetricsRegistry.sync_high_water`).
    """
    sync = functools.partial(metrics.sync_high_water, marks, tenant=tenant)
    sync("repro_service_lines_total", "lines", stats.get("lines"))
    sync("repro_tenant_lines_total", "tenant_lines", stats.get("lines"))
    for kind in ("exact", "template"):
        sync(
            "repro_tenant_cache_hits_total", f"{kind}_hits",
            stats.get(f"{kind}_hits"), kind=kind,
        )
    sync("repro_tenant_cache_misses_total", "misses", stats.get("misses"))
    sync(
        "repro_tenant_quarantined_total", "quarantined",
        stats.get("quarantined"),
    )
    metrics.get("repro_tenant_events").labels(tenant=tenant).set(
        float(stats.get("events") or 0)
    )
    for key, name in TENANT_HISTOGRAMS:
        if stats.get(key) is not None:
            metrics.get(name).labels(tenant=tenant).sync_state(stats[key])


class TenantShard(FrontStage):
    """Supervised per-tenant parsing shard with its own failure domain.

    Args:
        tenant: tenant key (also the directory name under *data_dir*).
        data_dir: service data root; the shard owns
            ``data_dir/tenant/``.
        factory: zero-argument parser factory for the flush parser
            (ignored when *ladder* is given — rungs build their own).
        parser_name: registry name recorded in checkpoints/manifests.
        flush_policy / flush_size / cache_capacity / max_pending /
            overflow: engine shape (prefix policy by default, which is
            what makes drained outputs byte-identical to batch).
        budget: optional per-tenant resource envelope; requires
            *ladder* (the shard degrades before it dies) and runs the
            engine under a
            :class:`~repro.degradation.runtime.DegradedSession` with
            the delta policy.
        ladder: rung order for the budgeted mode.
        breaker_threshold: consecutive ``feed`` crashes that trip the
            circuit breaker.
        exactly_once: open the front's v2 side
            (:class:`~repro.service.protocol.FrontStage`):
            :meth:`submit_seq` deduplicates per client and journals
            every released record *before* the engine feeds it (the
            durable-ownership point an ack certifies), and
            construction feeds the acked suffix past the checkpoint
            while the restored watermarks suppress client resends.
            An exactly-once resume starts *at* the checkpoint position
            (clients resend only the unacked suffix), unlike the v1
            replay-from-start contract.
        telemetry / io: observability handle and IO seam, both
            optional.
    """

    def __init__(
        self,
        tenant: str,
        data_dir: str,
        factory,
        *,
        parser_name: str = "parser",
        flush_policy: str = "prefix",
        flush_size: int = 200,
        cache_capacity: int = 512,
        max_pending: int | None = None,
        overflow: str = "block",
        budget: ResourceBudget | None = None,
        ladder: DegradationLadder | None = None,
        check_every: int = 100,
        breaker_threshold: int = 5,
        exactly_once: bool = False,
        telemetry=None,
        io=None,
    ) -> None:
        if breaker_threshold < 1:
            raise ValidationError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        if budget is not None and ladder is None:
            raise ValidationError(
                "a budgeted shard needs a degradation ladder "
                "(it must be able to shed fidelity before it trips)"
            )
        if exactly_once and budget is not None:
            raise ValidationError(
                "exactly-once delivery requires checkpoint resume, "
                "which budgeted shards do not support"
            )
        self.tenant = tenant
        self.dir = os.path.join(data_dir, tenant)
        os.makedirs(self.dir, exist_ok=True)
        self.parser_name = parser_name
        self.telemetry = telemetry
        self.io = io
        self.breaker_threshold = breaker_threshold
        self.checkpoint_path = os.path.join(self.dir, CHECKPOINT_NAME)
        self.quarantine_path = os.path.join(self.dir, QUARANTINE_NAME)
        self.manifest_path = os.path.join(self.dir, MANIFEST_NAME)
        self.quarantine = QuarantineSink(
            self.quarantine_path, telemetry=telemetry, io=io
        )
        self._lock = threading.Lock()
        #: Records consumed across all lives: the next index to feed.
        self.position = 0
        self.accepted = 0
        self.breaker_open = False
        self.breaker_reason: str | None = None
        self._failures = 0
        self._budgeted = budget is not None
        self._drained: dict | None = None
        # ``_ack_high`` is the checkpointed view of the delivery
        # front's windows — highest acknowledged sequence per client —
        # mirrored from the ``delivery`` metadata on every fed record,
        # whether the front is this shard's own or the supervisor's.
        self._ack_high: dict[str, int] = {}
        # SLO histograms, kept only when someone reads them.
        self._latency = self._queue_wait = None
        if telemetry is not None:
            self._latency = Histogram(DEFAULT_LATENCY_BUCKETS)
            self._queue_wait = Histogram(DEFAULT_LATENCY_BUCKETS)
        # High-water marks for the read-time per-tenant counter sync
        # (engine counters are the source of truth; the registry child
        # catches up by delta at collect time).
        self._published: dict[str, float] = {}
        self._publish_lock = threading.Lock()

        resuming = os.path.exists(self.checkpoint_path)
        delivery_state: dict | None = None
        if self._budgeted:
            if resuming:
                raise ValidationError(
                    f"tenant {tenant!r} has a checkpoint but the service "
                    "is budgeted; budgeted shards (delta policy, live "
                    "ladder state) do not support resume — clear the "
                    "tenant directory or drop the budget"
                )
            monitor = BudgetMonitor(budget)
            self._session = DegradedSession(
                ladder if ladder is not None else DegradationLadder(),
                monitor,
                check_every=check_every,
                track_matrix=False,
                error_policy="quarantine",
                quarantine=self.quarantine,
                telemetry=telemetry,
                max_pending=max_pending,
                overflow=overflow,
                source_label=f"tenant:{tenant}",
            )
            self.engine = self._session.engine
        elif resuming:
            checkpoint, self.engine = resume_streaming_parser(
                self.checkpoint_path,
                factory,
                parser=parser_name,
                io=io,
                error_policy="quarantine",
                quarantine=self.quarantine,
                source_label=f"tenant:{tenant}",
                telemetry=telemetry,
            )
            self._session = ParseSession(self.engine, track_matrix=False)
            self.position = checkpoint.records_consumed
            delivery_state = checkpoint.delivery
        else:
            self.engine = StreamingParser(
                factory,
                flush_policy=flush_policy,
                flush_size=flush_size,
                cache_capacity=cache_capacity,
                max_pending=max_pending,
                overflow=overflow,
                error_policy="quarantine",
                quarantine=self.quarantine,
                source_label=f"tenant:{tenant}",
                telemetry=telemetry,
            )
            self._session = ParseSession(self.engine, track_matrix=False)

        for client, high in (delivery_state or {}).get("clients", {}).items():
            self._ack_high[client] = int(high)
        self._open_front(
            self.dir, self.position, self._ack_high, exactly_once, io
        )

        if telemetry is not None:
            telemetry.metrics.register_collector(
                self._collect_tenant_metrics
            )

    # ------------------------------------------------------------------

    def _collect_tenant_metrics(self) -> None:
        """Read-time sync of per-tenant SLO families (thread mode).

        Registered as a registry collector so any scrape or
        ``value()`` read sees live engine counters without the shard
        pushing on its hot path.  Serialized by its own lock — two
        concurrent scrapes must not double-apply a delta — and never
        takes the shard lock, so a scrape cannot stall ingest.
        """
        with self._publish_lock:
            sync_tenant_stats(
                self.telemetry.metrics, self._published, self.tenant,
                self.stats(),
            )

    def stats(self) -> dict:
        """Cumulative counters and SLO histogram states as plain data
        (a worker ships this home)."""
        counters = self.engine.counters
        stats = {
            "lines": counters.lines,
            "events": counters.events,
            "pending": self.pending,
            "quarantined": len(self.quarantine),
            "accepted": self.accepted,
            "position": self.position,
            "exact_hits": counters.exact_hits,
            "template_hits": counters.template_hits,
            "misses": counters.misses,
        }
        for key, histogram in (
            ("latency", self._latency), ("queue_wait", self._queue_wait)
        ):
            if histogram is not None and histogram.count:
                stats[key] = histogram.state()
        return stats

    @property
    def pending(self) -> int:
        """Engine miss-buffer depth (the global queue probe sums these)."""
        return self.engine.pending_count

    @property
    def state(self) -> str:
        """Lifecycle state, as ``/healthz`` and the status line show it."""
        return "breaker" if self.breaker_open else "alive"

    def _quarantine(
        self, record: LogRecord, index: int, reason: str, detail: str
    ) -> None:
        self.quarantine.add(
            QuarantineRecord(
                source=f"tenant:{self.tenant}",
                line_no=index,
                byte_offset=-1,
                reason=reason,
                detail=detail,
                preview=record.content[:200],
            )
        )

    def _trip(self, reason: str) -> None:
        self.breaker_open = True
        self.breaker_reason = reason
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_service_breaker_total"
            ).labels(tenant=self.tenant, state="open").inc()
            self.telemetry.events.emit(
                "tenant_breaker", tenant=self.tenant, reason=reason
            )

    # ------------------------------------------------------------------

    def submit(self, record: LogRecord, delivery=None) -> str:
        """Feed one record through the tenant's failure domain.

        Returns an outcome tag: ``accepted`` (parsed or buffered),
        ``replayed`` (skipped — a resumed shard already holds it),
        ``rejected`` (the engine's screen or backpressure refused it;
        already quarantined/counted by the engine), ``quarantined``
        (this feed crashed the parser; the record is in quarantine),
        or ``breaker`` (the circuit breaker is open).  Never raises on
        tenant-attributable faults — that is the isolation contract.

        *delivery*, a ``(client_id, seq)`` pair, is mirrored into the
        checkpointed watermarks.
        """
        if delivery is not None:
            with self._lock:
                self._mirror_ack(delivery)
        return super().submit(record)

    def _deliver(self, entries: list[tuple]) -> str:
        """The thread host feeds a released batch inline."""
        return [self.step(*entry) for entry in entries][0]

    def step(
        self, index: int, record: LogRecord, delivery=None,
        enqueued_at: float | None = None,
    ) -> str:
        """Take one ``(index, record, delivery)`` entry a front released.

        An *index* below :attr:`position` is ``replayed``; one above it
        is a ``gap``, refused; the one at it is fed and gets a
        :meth:`submit` tag.  *enqueued_at* is the process host's
        enqueue stamp (``time.monotonic``): latency counts from it.
        The caller holds the lock or is the worker's one thread.
        """
        if index != self.position:
            return REPLAYED if index < self.position else GAP
        self.position += 1
        if delivery is not None:
            self._mirror_ack(delivery)
        if self._latency is None:
            return self._feed(record, index)
        started = time.monotonic()
        if enqueued_at is None:
            enqueued_at = started
        else:
            self._queue_wait.observe(max(0.0, started - enqueued_at))
        outcome = self._feed(record, index)
        self._latency.observe(max(0.0, time.monotonic() - enqueued_at))
        return outcome

    def _mirror_ack(self, delivery) -> None:
        """Fold a fed record's ``(client, seq)`` into the watermarks."""
        client, seq = delivery
        if seq > self._ack_high.get(client, 0):
            self._ack_high[client] = seq

    def _feed(self, record: LogRecord, index: int) -> str:
        if self.breaker_open:
            self._quarantine(
                record,
                index,
                REASON_BREAKER,
                f"circuit breaker open: {self.breaker_reason}",
            )
            return BREAKER
        try:
            line_no = self._session.feed(record)
        except BudgetExceededError as error:
            self._trip(f"budget exhausted: {error}")
            self._quarantine(record, index, REASON_BUDGET, str(error))
            return BREAKER
        except Exception as error:  # noqa: BLE001 - isolation boundary
            self._failures += 1
            self._quarantine(
                record,
                index,
                REASON_CRASH,
                f"{type(error).__name__}: {error}",
            )
            if self._failures >= self.breaker_threshold:
                self._trip(
                    f"{self._failures} consecutive parser crashes "
                    f"(last: {type(error).__name__}: {error})"
                )
            return QUARANTINED
        self._failures = 0
        if line_no < 0:
            return REJECTED
        self.accepted += 1
        return ACCEPTED

    def poison(
        self, record: LogRecord, detail: str, delivery=None
    ) -> str:
        """Divert one record to quarantine *instead of* feeding it.

        The supervisor calls this for a record whose replay killed the
        worker ``poison_threshold`` consecutive times: the record gets
        ``poison:<tenant>`` provenance, the stream position advances
        past it (so the checkpoint and any later replay skip it), and
        the engine never sees it again.  *delivery* mirrors the
        ``(client_id, seq)`` metadata into the checkpointed watermarks
        exactly as :meth:`submit` does — a poisoned line was still
        acknowledged, so its sequence must not regress on restart.
        """
        with self._lock:
            index = self.position
            self.position += 1
            if delivery is not None:
                self._mirror_ack(delivery)
            self.quarantine.add(
                QuarantineRecord(
                    source=f"poison:{self.tenant}",
                    line_no=index,
                    byte_offset=-1,
                    reason=REASON_POISON,
                    detail=detail,
                    preview=record.content[:200],
                )
            )
            if self.telemetry is not None:
                self.telemetry.metrics.get(
                    "repro_shard_poison_records_total"
                ).labels(tenant=self.tenant).inc()
                self.telemetry.events.emit(
                    "poison_record",
                    tenant=self.tenant,
                    index=index,
                    detail=detail,
                )
            return QUARANTINED

    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Persist the engine position + quarantine offsets, atomically."""
        with self._lock:
            self._checkpoint_locked()
            self._front_checkpointed()  # everything journaled is fed

    def _delivery_state(self) -> dict | None:
        """Checkpoint-ready acknowledgement watermarks (sorted, stable)."""
        if not self._ack_high:
            return None
        return {"clients": dict(sorted(self._ack_high.items()))}

    def _checkpoint_locked(self) -> None:
        save_checkpoint(
            self.checkpoint_path,
            self.engine,
            records_consumed=self.position,
            parser=self.parser_name,
            source=f"tenant:{self.tenant}",
            artifacts=artifact_offsets(
                self.quarantine, self.checkpoint_path
            ),
            delivery=self._delivery_state(),
            io=self.io,
            telemetry=self.telemetry,
        )

    def drain(self) -> dict:
        """Finalize, write outputs + checkpoint + manifest; idempotent.

        The engine keeps accepting ``feed`` after ``finalize`` — a
        resumed service restores the drained checkpoint and simply
        continues — so drain is a durable pause, not a terminal state.
        """
        with self._lock:
            if self._drained is not None:
                return self._drained
            span = None
            if self.telemetry is not None:
                span = self.telemetry.tracer.start(
                    SPAN_TENANT_DRAIN, tenant=self.tenant
                )
            if self._budgeted:
                report = self._session.finalize()
                result = report.result
            else:
                result = self._session.finalize()
            artifacts: list[tuple[str, str]] = []
            if result is not None:
                events_path, structured_path = write_parse_result(
                    result, os.path.join(self.dir, STEM), io=self.io
                )
                artifacts.append((events_path, CODEC_LINES))
                artifacts.append((structured_path, CODEC_LINES))
            self._checkpoint_locked()
            # A clean tenant directory holds only manifest-covered
            # files.
            self._front_drained()
            artifacts.append((self.checkpoint_path, CODEC_OPAQUE))
            self.quarantine.close()
            if os.path.exists(self.quarantine_path):
                artifacts.append((self.quarantine_path, CODEC_FRAMED))
            manifest = RunManifest(
                run={"tenant": self.tenant, "parser": self.parser_name}
            )
            for path, codec in artifacts:
                manifest.add(path, codec=codec)
            manifest.write(self.manifest_path, io=self.io)
            counters = self.engine.counters
            summary = {
                "tenant": self.tenant,
                "seen": self.position,
                "accepted": self.accepted,
                "lines": counters.lines,
                "events": counters.events,
                "quarantined": len(self.quarantine),
                "breaker_open": self.breaker_open,
                "manifest": self.manifest_path,
            }
            if span is not None:
                span.attrs.update(
                    lines=counters.lines, events=counters.events
                )
                self.telemetry.tracer.finish(span)
            self._drained = summary
            return summary

    def describe(self) -> str:
        counters = self.engine.counters
        state = "open" if self.breaker_open else "closed"
        return (
            f"{self.tenant}: {counters.lines} lines, "
            f"{counters.events} events, {len(self.quarantine)} "
            f"quarantined, breaker {state}"
        )
