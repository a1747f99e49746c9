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
breaker, which is checkpoint state like the rest.  The shard
serializes all engine access behind its own lock — that lock *is* the
single-writer ownership the lock-free engine demands (see
:mod:`repro.streaming.cache`), and the engine's ``ConcurrencyError``
tripwire enforces it.

Isolation invariants:

* a parser crash inside ``feed``/flush quarantines the record and
  counts one crashed flush (a cache hit neither adds to the streak
  nor resets it; a flush that succeeds resets it);
  ``breaker_threshold`` crashed flushes in a row step a budgeted
  shard's ladder (trigger ``crash``), and on the floor rung, or on an
  unbudgeted shard, open the breaker, after which every further line
  is quarantined with reason ``breaker-open`` — the engine is never
  touched again, and drain does not finalize it;
* an exhausted per-tenant budget
  (:class:`~repro.common.errors.BudgetExceededError`) opens the
  breaker immediately;
* nothing in this module reaches outside the tenant's directory, so a
  tripped tenant cannot perturb a neighbor's bytes.

Replay/at-least-once contract: every entry reaches the engine
through :meth:`TenantShard.step_many`, on either host, which answers an
index below the restored ``position`` ``replayed``, so a source that
replays from the beginning produces no duplicates and loses nothing.
Per-tenant stats reach a registry through :func:`sync_tenant_stats`
on either host.

Drain writes the standard ``.events``/``.structured`` outputs through
the engine's prefix finalize (byte-identical to a batch parse) — none
when the parser crashed, and a ``finalize`` that raises opens the
breaker instead of leaving ``drain`` — saves
a final checkpoint pinning its record log and quarantine, commits a
per-tenant :class:`~repro.resilience.durability.RunManifest` — written
last, inside the tenant directory, with artifact keys relative to it,
so two runs of the same stream diff cleanly via ``verify-run
--against``.
"""

from __future__ import annotations

import copy
import functools
import os
import threading
import time

from repro.common.errors import BudgetExceededError, ValidationError
from repro.common.types import LogRecord
from repro.datasets.loader import write_parse_result
from repro.degradation.budget import BudgetMonitor, ResourceBudget
from repro.degradation.ladder import TRIGGER_CRASH, DegradationLadder
from repro.degradation.runtime import DegradedSession
from repro.observability.metrics import DEFAULT_LATENCY_BUCKETS, Histogram
from repro.observability.tracing import SPAN_TENANT_DRAIN
from repro.resilience.checkpoint import (
    artifact_offsets,
    record_log_path,
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
            (a budgeted shard builds it from its ladder's rung).
        parser_name: registry name recorded in checkpoints/manifests.
        flush_policy / flush_size / cache_capacity / max_pending /
            overflow: engine shape (prefix policy by default, which is
            what makes drained outputs byte-identical to batch).
        budget: optional per-tenant resource envelope; requires
            *ladder* (the shard degrades before it dies).  The delta
            engine is fed through a
            :class:`~repro.degradation.runtime.DegradedSession`, so
            until a breach it writes what an unbudgeted delta shard
            writes.
        ladder: rung order for the budgeted mode, copied per shard; a
            step swaps only the flush parser.
        breaker_threshold: consecutive crashed flushes that step a
            budgeted shard's ladder, or on its floor rung (or
            unbudgeted) open the circuit breaker.
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
        #: Consecutive crashed flushes, and the engine's flush count at
        #: the last one: a later successful flush ends the streak.
        self._failures = self._crash_mark = 0
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

        #: This shard's own copy of the ladder (``None`` unbudgeted):
        #: its position is checkpoint state.
        self.ladder = copy.deepcopy(ladder) if budget is not None else None
        if self.ladder is not None:
            factory, flush_policy = self.ladder.current.build_parser, "delta"
        engine_kwargs = dict(
            error_policy="quarantine",
            quarantine=self.quarantine,
            source_label=f"tenant:{tenant}",
            telemetry=telemetry,
        )
        delivery_state: dict | None = None
        if os.path.exists(self.checkpoint_path):
            checkpoint, self.engine = resume_streaming_parser(
                self.checkpoint_path,
                factory,
                parser=parser_name,
                ladder=self.ladder,
                io=io,
                **engine_kwargs,
            )
            self.position = checkpoint.records_consumed
            delivery_state = checkpoint.delivery
            breaker = checkpoint.breaker or {}
            self._failures = breaker.get("crashes", 0)
            self._crash_mark = self.engine.counters.flushes
            self.breaker_reason = breaker.get("reason")
            self.breaker_open = self.breaker_reason is not None
        else:
            self.engine = StreamingParser(
                factory, flush_policy=flush_policy, flush_size=flush_size,
                cache_capacity=cache_capacity, max_pending=max_pending,
                overflow=overflow, **engine_kwargs,
            )
        self._session = (
            ParseSession(self.engine, track_matrix=False) if budget is None
            else DegradedSession(
                self.engine, self.ladder, BudgetMonitor(budget),
                check_every=check_every, track_matrix=False,
            )
        )

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
            "rung": self.ladder and self.ladder.current.parser,
            "breaker": self.breaker_reason,
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

    def step(
        self, index: int, record: LogRecord, delivery=None,
        enqueued_at: float | None = None,
    ) -> str:
        """Take one entry a front released: a batch of one."""
        return self.step_many([(index, record, delivery)], enqueued_at)[0]

    def step_many(
        self, entries: list[tuple], enqueued_at: float | None = None
    ) -> list[str]:
        """Take ``(index, record, delivery)`` entries a front released.

        An *index* below :attr:`position` is ``replayed``; one above it
        is a ``gap``, refused; the one at it is fed and tagged
        ``accepted``, ``rejected`` (screen or backpressure),
        ``quarantined`` (its feed crashed the parser) or ``breaker``,
        never raising for a tenant's fault, and its *delivery* is
        mirrored into the checkpointed watermarks.  Latency runs from
        the previous entry's end (the first's: *enqueued_at*, the
        process host's enqueue stamp, or the batch start).  The caller
        holds the lock or is the worker's one thread.
        """
        outcomes, acked = [], {}
        feed, clock, latency = self._feed, time.monotonic, self._latency
        if latency is not None:
            mark = clock()
            if enqueued_at is not None:
                self._queue_wait.observe(max(0.0, mark - enqueued_at))
                mark = enqueued_at
        for index, record, delivery in entries:
            if index != self.position:
                outcomes.append(REPLAYED if index < self.position else GAP)
                continue
            self.position += 1
            if delivery is not None:  # a client's seqs rise with index
                acked[delivery[0]] = delivery[1]
            outcomes.append(feed(record, index))
            if latency is not None:
                now = clock()
                latency.observe(max(0.0, now - mark))
                mark = now
        for delivery in acked.items():
            self._mirror_ack(delivery)
        return outcomes

    _deliver = step_many  # the thread host steps a released batch inline

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
            self._crash_mark = self.engine.counters.flushes
            self._quarantine(
                record,
                index,
                REASON_CRASH,
                f"{type(error).__name__}: {error}",
            )
            if self._failures < self.breaker_threshold:
                return QUARANTINED
            if self.ladder is not None and not self.ladder.exhausted:
                self._session.step_down(TRIGGER_CRASH)
                self._failures = 0
            else:
                self._trip(
                    f"{self._failures} consecutive parser crashes "
                    f"(last: {type(error).__name__}: {error})"
                )
            return QUARANTINED
        if self._failures and self.engine.counters.flushes > self._crash_mark:
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
        It runs in the worker, whose telemetry never leaves it: the
        supervisor counts the diversion and emits ``poison_diverted``.
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
            return QUARANTINED

    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Persist the engine position + quarantine offsets, atomically."""
        with self._lock:
            self._checkpoint_locked()
            self._front_checkpointed()  # everything journaled is fed

    def _breaker_state(self) -> dict | None:
        """Checkpoint-ready breaker state; ``None`` for a shard whose
        parser never crashed and whose breaker is closed."""
        if not (self._failures or self.breaker_open):
            return None
        state = {"crashes": self._failures}
        if self.breaker_open:
            state["reason"] = self.breaker_reason
        return state

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
            ladder=self.ladder,
            breaker=self._breaker_state(),
            io=self.io,
            telemetry=self.telemetry,
        )

    def drain(self) -> dict:
        """Finalize, write outputs + checkpoint + manifest; idempotent.

        The engine keeps accepting ``feed`` after ``finalize`` — a
        resumed service restores the drained checkpoint and simply
        continues — so drain is a durable pause, not a terminal state.
        A breaker opened on crashes skips ``finalize``, and a raising
        one opens it: either way only the outputs are left out.
        """
        with self._lock:
            if self._drained is not None:
                return self._drained
            span = None
            if self.telemetry is not None:
                span = self.telemetry.tracer.start(
                    SPAN_TENANT_DRAIN, tenant=self.tenant
                )
            result = None
            if self._failures < self.breaker_threshold:
                try:
                    result = self._session.finalize()
                except Exception as error:  # noqa: BLE001 - isolation
                    if not self.breaker_open:
                        self._trip(
                            f"finalize crashed: {type(error).__name__}: "
                            f"{error}"
                        )
            artifacts: list[tuple] = []
            if result is not None:
                events_path, structured_path = write_parse_result(
                    result, os.path.join(self.dir, STEM), io=self.io
                )
                artifacts.append((events_path, CODEC_LINES, None))
                artifacts.append((structured_path, CODEC_LINES, None))
            self._checkpoint_locked()
            # A clean tenant directory holds only manifest-covered
            # files.
            self._front_drained()
            # Framed logs count from their writers' pins, not a decode.
            artifacts += [
                (self.checkpoint_path, CODEC_OPAQUE, None),
                (record_log_path(self.checkpoint_path), CODEC_FRAMED,
                 self.engine.record_log[1:]),
            ]
            self.quarantine.close()
            if os.path.exists(self.quarantine_path):
                pin = self.quarantine.offset()
                artifacts.append((self.quarantine_path, CODEC_FRAMED, pin))
            manifest = RunManifest(
                run={"tenant": self.tenant, "parser": self.parser_name}
            )
            for path, codec, pin in artifacts:
                manifest.add(path, codec=codec, pin=pin)
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
