"""One tenant's isolated parsing domain inside the ingestion service.

A :class:`TenantShard` owns everything whose failure must stay inside
the tenant: a :class:`~repro.streaming.engine.StreamingParser` (with
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

Replay/at-least-once contract: every submitted record bumps ``seen``
*before* anything else; a shard restored from a checkpoint skips
records until ``seen`` catches up with the checkpoint's
``records_consumed``, so a source that replays from the beginning
produces no duplicates and loses nothing.

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
from repro.observability.tracing import SPAN_TENANT_DRAIN
from repro.resilience.checkpoint import (
    load_checkpoint,
    restore_streaming_parser,
    save_checkpoint,
)
from repro.resilience.durability import (
    CODEC_FRAMED,
    CODEC_LINES,
    CODEC_OPAQUE,
    RunManifest,
    reconcile_jsonl,
)
from repro.resilience.quarantine import QuarantineRecord, QuarantineSink
from repro.service.protocol import DeliveryFront
from repro.streaming.engine import StreamingParser
from repro.streaming.session import ParseSession

#: Quarantine reason tags specific to the service layer.
REASON_BREAKER = "breaker-open"
REASON_BUDGET = "budget-exhausted"
REASON_CRASH = "parser-crash"
REASON_POISON = "poison-pill"

#: Outcome tags returned by :meth:`TenantShard.submit`.
ACCEPTED = "accepted"
REPLAYED = "replayed"
REJECTED = "rejected"
QUARANTINED = "quarantined"
BREAKER = "breaker"

#: Artifact basenames inside every tenant directory.
STEM = "out"
CHECKPOINT_NAME = f"{STEM}.checkpoint.json"
QUARANTINE_NAME = f"{STEM}.quarantine.jsonl"
MANIFEST_NAME = f"{STEM}.manifest.json"


def sync_tenant_counters(
    metrics, marks: dict, tenant: str, stats: dict
) -> None:
    """Delta-sync one tenant's :meth:`TenantShard.stats` into *metrics*.

    The one writer of the per-tenant SLO counter families, whether
    *stats* was read from a live shard (thread mode) or shipped home
    by a worker (process mode); *marks* is the caller's high-water
    dict (see :meth:`MetricsRegistry.sync_high_water`).
    """
    sync = functools.partial(metrics.sync_high_water, marks, tenant=tenant)
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


class TenantShard:
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
        exactly_once: host a
            :class:`~repro.service.protocol.DeliveryFront` inline
            (protocol v2): :meth:`submit_seq` deduplicates per client
            and journals every released record *before* the engine
            feeds it (the durable-ownership point an ack certifies),
            and construction replays the front's backlog — the acked
            suffix past the checkpoint — while the restored
            watermarks suppress client resends.  An exactly-once
            resume starts *at* the checkpoint position (clients
            resend only the unacked suffix), unlike the v1
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
        self.seen = 0
        self.accepted = 0
        self._skip = 0
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
        self._front: DeliveryFront | None = None
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
            checkpoint = load_checkpoint(
                self.checkpoint_path, telemetry=telemetry, parser=parser_name
            )
            for path, offsets in checkpoint.artifacts.items():
                reconcile_jsonl(
                    path, offsets["bytes"], io=io, telemetry=telemetry
                )
            self.engine = restore_streaming_parser(
                checkpoint,
                factory,
                error_policy="quarantine",
                quarantine=self.quarantine,
                source_label=f"tenant:{tenant}",
                telemetry=telemetry,
            )
            self._session = ParseSession(self.engine, track_matrix=False)
            self._skip = checkpoint.records_consumed
            self.seen = 0
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
        if exactly_once:
            self._front = DeliveryFront(
                self.dir, self._skip, self._ack_high, io=io
            )
            # v2 sources resend only the unacked suffix (the windows
            # identify it); nobody replays from record 0.
            self.seen = self._skip
            # The backlog was acked — the client will not resend it —
            # so feeding it here is what makes the ack a durable
            # promise across SIGKILL.
            for _, record, delivery in self._front.backlog:
                self._submit_locked(record, delivery)

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
            sync_tenant_counters(
                self.telemetry.metrics, self._published, self.tenant,
                self.stats(),
            )

    def stats(self) -> dict:
        """Cumulative counters as plain data (a worker ships this home)."""
        counters = self.engine.counters
        return {
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

    @property
    def pending(self) -> int:
        """Engine miss-buffer depth (the global queue probe sums these)."""
        return self.engine.pending_count

    @property
    def resumed(self) -> bool:
        return self._skip > 0

    @property
    def state(self) -> str:
        """Lifecycle state, as ``/healthz`` and the status line show it."""
        return "breaker" if self.breaker_open else "alive"

    @property
    def position(self) -> int:
        """Global stream position: records consumed across all lives."""
        return max(self._skip, self.seen)

    def fast_forward(self) -> None:
        """Declare that the source resumes *at* the checkpoint position.

        The default replay contract expects the source to replay from
        the beginning (``seen`` catches up with ``_skip`` one record
        at a time).  A supervisor that journals in-flight records
        replays only the suffix *after* the checkpoint — it calls this
        so ``submit`` treats the next record as position ``_skip``
        instead of position 0.
        """
        with self._lock:
            self.seen = max(self.seen, self._skip)

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

        *delivery* is the ``(client_id, seq)`` pair of a record a
        :class:`~repro.service.protocol.DeliveryFront` released — the
        supervisor's, riding a feed message; it is mirrored into the
        checkpointed watermarks.  On an exactly-once shard an
        unsequenced (v1) record passes through the shard's own front
        first, so it is journaled like its acked neighbours.
        """
        with self._lock:
            if self._front is not None:
                self._front.admit(record)
            return self._submit_locked(record, delivery)

    def submit_seq(
        self, record: LogRecord, client: str, seq: int
    ) -> tuple[str, int]:
        """Feed one sequence-tagged record exactly once (protocol v2).

        The front classifies the arrival: duplicates are suppressed,
        gaps are held back, and releases are journaled (the
        durable-ownership point) then fed in sequence order.  Returns
        ``(outcome, high)`` where *outcome* is ``duplicate``,
        ``pending`` or this record's :meth:`submit` tag and *high* is
        the cumulative acknowledgement watermark the caller sends
        back to the client — by the time it is returned, every
        sequence it covers is either in the checkpointed engine or in
        the ownership journal.
        """
        if self._front is None:
            raise ValidationError(
                "sequence-tagged submit requires an exactly-once "
                "shard (protocol v2)"
            )
        with self._lock:
            outcome, high, entries = self._front.admit(record, client, seq)
            for _, rrecord, delivery in entries:
                result = self._submit_locked(rrecord, delivery)
                if delivery[1] == seq:
                    outcome = result
            return outcome, high

    def _mirror_ack(self, delivery) -> None:
        """Fold a fed record's ``(client, seq)`` into the watermarks."""
        client, seq = delivery
        if seq > self._ack_high.get(client, 0):
            self._ack_high[client] = seq

    def _submit_locked(self, record: LogRecord, delivery=None) -> str:
        if delivery is not None:
            self._mirror_ack(delivery)
        index = self.seen
        self.seen += 1
        if self.seen <= self._skip:
            return REPLAYED
        if self.breaker_open:
            self._quarantine(
                record,
                index,
                REASON_BREAKER,
                f"circuit breaker open: {self.breaker_reason}",
            )
            return BREAKER
        try:
            fed_at = time.perf_counter()
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
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_tenant_ingest_latency_seconds"
            ).labels(tenant=self.tenant).observe(
                max(0.0, time.perf_counter() - fed_at)
            )
        if line_no < 0:
            return REJECTED
        self.accepted += 1
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_service_lines_total"
            ).labels(tenant=self.tenant).inc()
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
            index = self.seen
            self.seen += 1
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

    def _delivery_state(self) -> dict | None:
        """Checkpoint-ready acknowledgement watermarks (sorted, stable)."""
        if not self._ack_high:
            return None
        return {"clients": dict(sorted(self._ack_high.items()))}

    def _checkpoint_locked(self) -> None:
        artifacts = {}
        q_bytes, q_records = self.quarantine.offset()
        if q_bytes or q_records:
            artifacts[self.quarantine_path] = {
                "bytes": q_bytes,
                "records": q_records,
            }
        save_checkpoint(
            self.checkpoint_path,
            self.engine,
            records_consumed=max(self._skip, self.seen),
            parser=self.parser_name,
            source=f"tenant:{self.tenant}",
            artifacts=artifacts,
            delivery=self._delivery_state(),
            io=self.io,
            telemetry=self.telemetry,
        )
        if self._front is not None:
            # Every journaled record is now inside the checkpoint
            # (admit is immediately followed by the engine feed the
            # checkpoint just captured) — prune to empty.
            self._front.prune(())

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
            if self._front is not None:
                # Fully captured by the final checkpoint; a clean
                # tenant directory holds only manifest-covered files.
                self._front.remove()
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
                "seen": max(self._skip, self.seen),
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
