"""Process-isolated tenant shards: worker subprocesses + supervision.

PR 7's :class:`~repro.service.shard.TenantShard` isolates tenants
*logically* — private engine, cache, quarantine, checkpoint — but every
shard still shares one interpreter, so a wedged parser or a hard crash
takes all tenants down together.  This module makes the failure domain
physical:

* :class:`ShardWorker` — runs in a **subprocess** and owns the actual
  ``TenantShard``.  It consumes records from a bounded
  ``multiprocessing`` queue, heartbeats between records, checkpoints
  every ``checkpoint_every`` records, and on drain finalizes the
  tenant's artifacts before exiting 0.  Worker-side spans ship home as
  plain dicts and are adopted by the parent tracer, exactly like
  :class:`~repro.parsers.parallel.ChunkedParallelParser` workers.
* :class:`ShardSupervisor` — the process host: the same front stage
  as ``TenantShard`` (:class:`~repro.service.protocol.FrontStage`),
  feeding an outbox instead of an engine.  A monitor thread tracks
  heartbeats (watchdog deadline → declare hung → stop), books each
  death in the shared outcome vocabulary, and restarts crashed
  workers with :class:`~repro.resilience.supervisor.RetryPolicy`
  exponential backoff, resuming from the shard's own checkpoint.

Correctness hangs on three pieces of bookkeeping:

* **The outbox.**  Every record waits in the supervisor's in-memory
  outbox until the worker acknowledges a checkpoint covering it.  A
  restarted worker restores the checkpoint and the supervisor replays
  exactly the outbox suffix.  A feed message carries a batch of
  contiguous outbox entries, each with its global record index; the
  shard's per-entry step skips indices below its restored position,
  so replay after an un-acked checkpoint produces no duplicates and a
  gap is a detectable protocol violation.  Under protocol v2 the
  front's journal carries the outbox across *service* lives; v1
  journals nothing.
* **Careful replay and poison pills.**  After a death the supervisor
  replays one record at a time, each awaiting an explicit ``done``
  ack, so the record in flight when the worker dies again is known
  *exactly*.  A record whose replay kills the worker
  ``poison_threshold`` consecutive times is diverted to quarantine
  with ``poison:<tenant>`` provenance
  (:meth:`~repro.service.shard.TenantShard.poison`) instead of
  crash-looping the shard.
* **The fence.**  Every death is booked as an
  :class:`~repro.resilience.supervisor.Attempt` — ``timeout`` for a
  hung worker or a blown drain deadline, ``error`` (with the signal or
  exit code) for the rest — and counts one more consecutive death;
  completing a careful replay (or diverting a poison pill) resets the
  count.  A shard that keeps dying on *distinct* records therefore
  reaches ``fence_threshold`` deaths in a row and is fenced: no
  further restarts, neighbors unaffected.

All deadlines here — watchdog, drain, restart backoff, status — are
``time.monotonic`` based with injectable clocks, so they survive
wall-clock steps (see ``tests/test_workers.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal as signal_module
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.types import LogRecord
from repro.observability.events import EventLog
from repro.observability.metrics import MetricsRegistry, merge_histogram_states
from repro.observability.telemetry import Telemetry
from repro.observability.tracing import Tracer
from repro.resilience.checkpoint import load_checkpoint
from repro.resilience.supervisor import (
    STATUS_ERROR,
    STATUS_TIMEOUT,
    Attempt,
    FailureReport,
    RetryPolicy,
    stop_process,
)
from repro.service.protocol import REPLAYED, FrontStage
from repro.service.shard import (
    ACCEPTED,
    CHECKPOINT_NAME,
    GAP,
    TENANT_HISTOGRAMS,
    TenantShard,
    sync_tenant_stats,
)

#: One more outcome tag beside the shard's: the shard is fenced and no
#: longer accepts records.
FENCED = "fenced"

#: Supervisor lifecycle states (one-hot on ``repro_shard_state``).
STATE_STARTING = "starting"
STATE_RUNNING = "running"
STATE_REPLAYING = "replaying"
STATE_DRAINING = "draining"
STATE_RESTARTING = "restarting"
STATE_DRAINED = "drained"
STATE_FENCED = "fenced"
SUPERVISOR_STATES = (
    STATE_STARTING,
    STATE_RUNNING,
    STATE_REPLAYING,
    STATE_DRAINING,
    STATE_RESTARTING,
    STATE_DRAINED,
    STATE_FENCED,
)

#: Worker root span name (adopted into the parent trace).
SPAN_SHARD_WORKER = "shard_worker"

#: Most contiguous outbox entries one ``feed`` message carries: the
#: pickle, the pipe write and the lock round trip are paid per message.
_FEED_BATCH = 64

#: Records in flight to a worker before the monitor's ``put`` blocks.
_QUEUE_RECORDS = 512

#: Backoff between worker restarts (only ``delay`` is consulted; the
#: fence threshold, not ``attempts``, bounds the retries).
_RESTART_BACKOFF = RetryPolicy(base_delay=0.05, backoff=2.0, max_delay=1.0)

#: Longest the monitor blocks on the results queue once it has nothing
#: left to send; bounds how late it notices a submit, a drain request,
#: a dead worker or a passed watchdog deadline.
_POLL = 0.02


def _mp_context():
    """Fork where available (fast restarts), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker incarnation needs, as picklable plain data.

    A fresh spec is built per life (the ``life`` number gates
    :class:`~repro.resilience.faults.ProcessFault` scripts), so the
    worker never inherits parent state beyond the two queues.
    """

    tenant: str
    data_dir: str
    factory: object
    parser_name: str = "parser"
    flush_policy: str = "prefix"
    flush_size: int = 200
    cache_capacity: int = 512
    max_pending: int | None = None
    overflow: str = "block"
    breaker_threshold: int = 5
    check_every: int = 100
    checkpoint_every: int = 500
    heartbeat_interval: float = 0.2
    life: int = 1
    faults: tuple = ()
    trace_context: dict | None = None


class _SteppedShard(TenantShard):
    """A worker's shard.  Its front is the supervisor's, across the
    process boundary, so it opens none of its own — it leaves the
    journal that front holds alone — and is fed only by :meth:`step`."""

    def _open_front(self, *_args) -> None:
        self._front = None


class ShardWorker:
    """Worker-side owner of one tenant's :class:`TenantShard`.

    Runs the message loop of one incarnation: restore the shard from
    its checkpoint, announce ``ready``, then consume ``feed``/
    ``poison``/``checkpoint``/``drain`` messages until drained.
    Heartbeats are sent from the loop itself — a worker wedged inside
    a parse stops heartbeating, which is exactly what the parent
    watchdog needs to see.
    """

    def __init__(self, spec: WorkerSpec, inbox, outbox) -> None:
        self.spec = spec
        self.inbox = inbox
        self.outbox = outbox
        self.tracer: Tracer | None = None
        self.telemetry = None
        self._root = None
        # serialize_new cursor: spans already shipped to the parent.
        self._span_cursor = 0

    # -- lifecycle -----------------------------------------------------

    def _build_shard(self) -> TenantShard:
        spec = self.spec
        if spec.trace_context is not None:
            self.tracer = Tracer.from_worker_context(spec.trace_context)
            self.telemetry = Telemetry(
                MetricsRegistry(), self.tracer, EventLog()
            )
            self._root = self.tracer.start_root(
                SPAN_SHARD_WORKER, tenant=spec.tenant, life=spec.life
            )
        return _SteppedShard(
            spec.tenant,
            spec.data_dir,
            spec.factory,
            parser_name=spec.parser_name,
            flush_policy=spec.flush_policy,
            flush_size=spec.flush_size,
            cache_capacity=spec.cache_capacity,
            max_pending=spec.max_pending,
            overflow=spec.overflow,
            breaker_threshold=spec.breaker_threshold,
            check_every=spec.check_every,
            telemetry=self.telemetry,
        )

    def _new_spans(self) -> list[dict]:
        """Finished spans not yet shipped home (continuous sync)."""
        if self.tracer is None:
            return []
        spans, self._span_cursor = self.tracer.serialize_new(
            self._span_cursor
        )
        return spans

    def _checkpointed(self, shard: TenantShard) -> None:
        """Ship a checkpoint's position home, with stats and spans."""
        self.outbox.put(
            ("checkpointed", shard.position, shard.stats(), self._new_spans())
        )

    def run(self) -> int:
        """The incarnation's message loop; returns the exit code."""
        spec = self.spec
        # The parent coordinates shutdown through the drain protocol; a
        # terminal Ctrl-C must not kill workers out from under it.
        try:
            signal_module.signal(
                signal_module.SIGINT, signal_module.SIG_IGN
            )
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass
        for fault in spec.faults:
            if fault.fires_at_start(spec.life):
                fault.fire()
        shard = self._build_shard()
        self.outbox.put(("ready", spec.life, shard.position))
        last_heartbeat = time.monotonic()
        fed_since_checkpoint = 0
        while True:
            try:
                message = self.inbox.get(timeout=spec.heartbeat_interval)
            except queue.Empty:
                self.outbox.put(("hb", shard.stats()))
                last_heartbeat = time.monotonic()
                continue
            kind = message[0]
            if kind == "feed":
                _, entries, confirm = message
                for index, record, enqueued_at, delivery in entries:
                    if index == shard.position:
                        for fault in spec.faults:
                            if fault.should_fire(index, spec.life):
                                fault.fire()
                    # CLOCK_MONOTONIC is comparable across processes on
                    # the same boot, so the parent's enqueue stamp
                    # prices the queue hop end to end.
                    outcome = shard.step(index, record, delivery, enqueued_at)
                    if outcome == GAP:
                        # A record the journal should have replayed
                        # never arrived: refuse to parse past the hole.
                        self.outbox.put(("gap", shard.position, index))
                        return 1
                    if outcome != REPLAYED:
                        fed_since_checkpoint += 1
                    if confirm:
                        self.outbox.put(("done", index, outcome))
                    # Cadence is per record, so a checkpoint lands at
                    # the same stream position wherever the batch
                    # boundaries happened to fall.
                    if fed_since_checkpoint >= spec.checkpoint_every:
                        shard.checkpoint()
                        fed_since_checkpoint = 0
                        self._checkpointed(shard)
                    now = time.monotonic()
                    if now - last_heartbeat >= spec.heartbeat_interval:
                        self.outbox.put(("hb", shard.stats()))
                        last_heartbeat = now
            elif kind == "poison":
                _, index, record, detail, delivery = message
                if index == shard.position:
                    shard.poison(record, detail, delivery=delivery)
                    # Pin the diversion durably before acking, so a
                    # crash right here cannot resurrect the pill.
                    shard.checkpoint()
                    fed_since_checkpoint = 0
                self.outbox.put(("poisoned", index))
                self._checkpointed(shard)
            elif kind == "checkpoint":
                shard.checkpoint()
                fed_since_checkpoint = 0
                self._checkpointed(shard)
            elif kind == "drain":
                for fault in spec.faults:
                    if fault.should_fire_at_drain(spec.life):
                        fault.fire()
                summary = shard.drain()
                spans: list[dict] = []
                if self.tracer is not None:
                    self._root.attrs.update(
                        lines=summary["lines"], events=summary["events"]
                    )
                    self.tracer.finish(self._root)
                    # Only the spans not already shipped on checkpoint
                    # acks — repeated adoption must never duplicate.
                    spans = self._new_spans()
                self.outbox.put(
                    ("drained", summary, spans, shard.stats())
                )
                self.outbox.close()
                self.outbox.join_thread()
                return 0
            else:  # pragma: no cover - future protocol growth
                self.outbox.put(("gap", -1, -1))
                return 1


def shard_worker_main(spec: WorkerSpec, inbox, outbox) -> None:
    """Module-level process target (picklable under spawn)."""
    sys.exit(ShardWorker(spec, inbox, outbox).run())


class ShardSupervisor(FrontStage):
    """Parent-side supervised handle for one process-isolated tenant.

    The process host: the front stage of :class:`TenantShard`, while
    the real shard lives in a worker subprocess.  A monitor thread
    owns the entire worker lifecycle — spawn, heartbeat watchdog,
    dispatch, death classification, backoff restart, careful replay,
    poison diversion, fencing, drain — so ``submit`` from connection
    threads only appends to the outbox.

    Args:
        watchdog: seconds without any worker message before the
            worker is declared hung and terminated.
        heartbeat_interval: worker-side heartbeat cadence (must be
            well under *watchdog*).
        checkpoint_every: records between worker checkpoints — the
            journal prune cadence and the replay-window bound.
        poison_threshold: consecutive careful-replay deaths on one
            record before it is diverted to quarantine.
        fence_threshold: consecutive deaths (without a completed
            replay between) before the shard is fenced.
        drain_timeout: drain deadline; on expiry the worker is
            escalated SIGTERM → SIGKILL and the shard fenced.
        term_grace: seconds between SIGTERM and SIGKILL.
        faults: :class:`~repro.resilience.faults.ProcessFault` script
            shipped into every worker life (chaos harness).
        clock / sleep: injectable monotonic time sources.
    """

    def __init__(
        self,
        tenant: str,
        data_dir: str,
        factory,
        *,
        parser_name: str = "parser",
        telemetry=None,
        io=None,
        watchdog: float = 5.0,
        heartbeat_interval: float = 0.2,
        checkpoint_every: int = 500,
        poison_threshold: int = 3,
        fence_threshold: int = 5,
        drain_timeout: float = 60.0,
        term_grace: float = 2.0,
        faults=(),
        clock=time.monotonic,
        sleep=time.sleep,
        budget=None,
        ladder=None,
        on_checkpoint=None,
        exactly_once: bool = False,
        **shard_kwargs,
    ) -> None:
        if budget is not None or ladder is not None:
            raise ValidationError(
                "per-tenant budgets/ladders are thread-isolation only: "
                "a budgeted shard cannot resume from a checkpoint, so "
                "it cannot survive the restarts process isolation exists "
                "to provide"
            )
        if watchdog <= heartbeat_interval:
            raise ValidationError(
                f"watchdog ({watchdog}s) must exceed the heartbeat "
                f"interval ({heartbeat_interval}s)"
            )
        if poison_threshold < 1:
            raise ValidationError(
                f"poison_threshold must be >= 1, got {poison_threshold}"
            )
        if fence_threshold < 1:
            raise ValidationError(
                f"fence_threshold must be >= 1, got {fence_threshold}"
            )
        self.tenant = tenant
        self.data_dir = data_dir
        self.dir = os.path.join(data_dir, tenant)
        os.makedirs(self.dir, exist_ok=True)
        self.factory = factory
        self.parser_name = parser_name
        self.telemetry = telemetry
        self.io = io
        self.watchdog = watchdog
        self.heartbeat_interval = heartbeat_interval
        self.checkpoint_every = checkpoint_every
        self.poison_threshold = poison_threshold
        self.fence_threshold = fence_threshold
        self.drain_timeout = drain_timeout
        self.term_grace = term_grace
        self.faults = tuple(faults)
        self.shard_kwargs = dict(shard_kwargs)
        self._clock = clock
        self._sleep = sleep
        self._mp = _mp_context()

        self._lock = threading.Lock()
        # A torn checkpoint, or another parser's, refuses the shard here.
        position, watermarks = 0, {}
        checkpoint_path = os.path.join(self.dir, CHECKPOINT_NAME)
        if os.path.exists(checkpoint_path):
            checkpoint = load_checkpoint(checkpoint_path, parser=parser_name)
            position = checkpoint.records_consumed
            watermarks = (checkpoint.delivery or {}).get("clients", {})
        # (index, record, enqueued_at monotonic stamp, delivery meta)
        # quadruples; delivery is None for v1 lines.
        self._outbox: list[tuple[int, LogRecord, float, tuple | None]] = []
        self._open_front(self.dir, position, watermarks, exactly_once, io)
        self._acked = self._skip
        self._sent_through = self._skip
        self._mode_careful = False
        self._careful_high = self._skip
        self._in_flight: int | None = None
        self._kill_counts: dict[int, int] = {}
        self._poisoned: dict[int, str] = {}
        self.state = STATE_STARTING
        self.restarts = 0
        self.life = 0
        self._deaths_in_row = 0
        #: Every worker death, booked in the shared vocabulary.
        self.report = FailureReport()
        self._drain_requested = False
        self._drained_summary: dict | None = None
        self._checkpoint_requested = False
        self._abandoned = False
        self._last_seen = clock()
        self._stats: dict = {}
        # Last cumulative value synced into the parent registry, per
        # stat key.  Worker counters restore from the checkpoint and
        # re-climb after a restart, so only positive deltas count and
        # the high-water mark guards against replay regressions.
        self._synced: dict[str, float] = {}
        # SLO histograms accumulate across worker lives: each life's
        # local histograms restart at zero, so the last state a dead
        # life shipped folds into a base the live state merges onto.
        self._hist_base: dict[str, dict | None] = dict.fromkeys(
            key for key, _ in TENANT_HISTOGRAMS
        )
        self._hist_live = dict(self._hist_base)
        self._on_checkpoint = on_checkpoint
        self._done = threading.Event()
        self._spawned = threading.Event()
        if telemetry is not None:
            telemetry.metrics.register_collector(self._collect_metrics)
        self._thread = threading.Thread(
            target=self._run, name=f"shard-supervisor-{tenant}", daemon=True
        )
        self._thread.start()
        # A shard that exists has a worker: the first life is forked
        # before the constructor returns, not whenever its supervisor
        # next wins the GIL from the submitter (which left 2-4 of four
        # tenants' workers running at the end of a 4k-line replay).
        self._spawned.wait()

    # -- public surface, beside the front stage's ----------------------

    @property
    def breaker_open(self) -> bool:
        return self.state == STATE_FENCED

    @property
    def pending(self) -> int:
        """Records submitted but not yet checkpoint-covered."""
        return len(self._outbox)

    def heartbeat_age(self) -> float:
        return max(0.0, self._clock() - self._last_seen)

    def _refusal(self) -> str | None:
        return FENCED if self.state == STATE_FENCED else None

    def _deliver(self, entries: list[tuple]) -> str:
        """The process host appends a released batch to the outbox."""
        # Raw monotonic, not the injectable clock: the worker compares
        # the stamp with its own time.monotonic() to price queue wait
        # and end-to-end latency.
        enqueued_at = time.monotonic()
        self._outbox.extend(
            (index, record, enqueued_at, delivery)
            for index, record, delivery in entries
        )
        return ACCEPTED

    def checkpoint(self) -> None:
        """Request an out-of-band worker checkpoint (asynchronous)."""
        with self._lock:
            self._checkpoint_requested = True

    def begin_drain(self) -> None:
        """Ask the worker to drain, without waiting for it.

        Lets :meth:`IngestionService.drain` start every tenant's
        drain before it collects the first summary.
        """
        with self._lock:
            self._drain_requested = True

    def drain(self) -> dict:
        """Drain the worker; escalate SIGTERM → SIGKILL on the deadline."""
        self.begin_drain()
        if not self._done.wait(timeout=self.drain_timeout):
            self._abandon()
            self._done.wait(timeout=self.term_grace + 5.0)
        with self._lock:
            if self._drained_summary is None:  # pragma: no cover - fallback
                self._drained_summary = self._fenced_summary()
            return self._drained_summary

    def describe(self) -> str:
        stats = dict(self._stats)
        return (
            f"{self.tenant}: {stats.get('lines', 0)} lines, "
            f"{stats.get('events', 0)} events, "
            f"{stats.get('quarantined', 0)} quarantined, "
            f"state {self.state}, {self.restarts} restart(s)"
        )

    # -- internals -----------------------------------------------------

    def _collect_metrics(self) -> None:
        metrics = self.telemetry.metrics
        metrics.get("repro_worker_heartbeat_age_seconds").labels(
            tenant=self.tenant
        ).set(self.heartbeat_age())
        metrics.get("repro_shard_queue_depth").labels(
            tenant=self.tenant
        ).set(float(len(self._outbox)))
        for state in SUPERVISOR_STATES:
            metrics.get("repro_shard_state").labels(
                tenant=self.tenant, state=state
            ).set(1.0 if state == self.state else 0.0)

    def _sync_stats(self, stats: dict) -> None:
        """Fold a worker stats message into the parent registry, live.

        This is the continuous half of the telemetry plane: it runs on
        every heartbeat and checkpoint ack, so a mid-run scrape sees
        per-tenant lines, cache traffic, quarantines, and SLO
        histograms without waiting for drain.
        """
        self._stats = stats
        if self.telemetry is None:
            return
        stats = dict(stats)
        for key in self._hist_base:
            if stats.get(key) is not None:
                self._hist_live[key] = stats[key]
            stats[key] = merge_histogram_states(
                self._hist_base[key], self._hist_live[key]
            )
        sync_tenant_stats(
            self.telemetry.metrics, self._synced, self.tenant, stats
        )

    def _emit(self, kind: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.events.emit(kind, tenant=self.tenant, **fields)

    def _book_death(self, status: str, error: str) -> Attempt:
        death = Attempt(
            "worker", self.life, status, error=error, unit=self.tenant
        )
        self.report.attempts.append(death)
        self.restarts += 1
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_shard_restarts_total"
            ).labels(tenant=self.tenant, status=status).inc()
        return death

    def _spawn(self):
        self.life += 1
        trace_context = None
        if self.telemetry is not None:
            trace_context = self.telemetry.tracer.worker_context(
                prefix=f"{self.tenant}-l{self.life}-"
            )
        spec = WorkerSpec(
            tenant=self.tenant,
            data_dir=self.data_dir,
            factory=self.factory,
            parser_name=self.parser_name,
            checkpoint_every=self.checkpoint_every,
            heartbeat_interval=self.heartbeat_interval,
            life=self.life,
            faults=self.faults,
            trace_context=trace_context,
            **self.shard_kwargs,
        )
        # A message carries up to _FEED_BATCH records, so the bound
        # stays one on *records* in flight.
        inbox = self._mp.Queue(_QUEUE_RECORDS // _FEED_BATCH)
        results = self._mp.Queue()
        process = self._mp.Process(
            target=shard_worker_main,
            args=(spec, inbox, results),
            name=f"shard-{self.tenant}-{self.life}",
            daemon=True,
        )
        process.start()
        self._last_seen = self._clock()
        return process, inbox, results

    def _dispatch(self, inbox) -> None:
        """Ship every outbox entry the inbox will take, in batches.

        Careful replay and poison diversion stay one record per
        message, each awaiting its ack, so the record in flight when
        the worker dies is known exactly.
        """
        while True:
            with self._lock:
                if self._in_flight is not None:
                    return
                offset = self._sent_through - self._acked
                if offset >= len(self._outbox):
                    return
                index = self._outbox[offset][0]
                careful = (
                    self._mode_careful and index < self._careful_high
                )
                detail = self._poisoned.get(index)
                single = careful or detail is not None
                batch = self._outbox[
                    offset:offset + (1 if single else _FEED_BATCH)
                ]
            if detail is not None:
                _, record, _, delivery = batch[0]
                message = ("poison", index, record, detail, delivery)
            else:
                message = ("feed", batch, careful)
            try:
                inbox.put_nowait(message)
            except queue.Full:
                return
            with self._lock:
                self._sent_through = batch[-1][0] + 1
                if single:
                    self._in_flight = index

    def _maybe_finish_replay(self) -> None:
        """Careful region fully acknowledged → back to normal mode."""
        if self._mode_careful and self._sent_through >= self._careful_high:
            self._mode_careful = False
            self._deaths_in_row = 0
            if self.state == STATE_REPLAYING:
                self.state = STATE_RUNNING

    def _prune(self, position: int) -> None:
        with self._lock:
            if position <= self._acked:
                return
            drop = position - self._acked
            del self._outbox[:drop]
            self._acked = position
            self._sent_through = max(self._sent_through, position)
            for index in [i for i in self._kill_counts if i < position]:
                del self._kill_counts[index]
            for index in [i for i in self._poisoned if i < position]:
                del self._poisoned[index]
            self._front_checkpointed(
                (index, record, delivery)
                for index, record, _, delivery in self._outbox
            )

    def _handle_message(self, message, process) -> str | None:
        kind = message[0]
        self._last_seen = self._clock()
        if kind == "ready":
            with self._lock:
                self._sent_through = self._acked
                self._in_flight = None
                if self._mode_careful and self._careful_high <= self._acked:
                    self._mode_careful = False
                self.state = (
                    STATE_REPLAYING if self._mode_careful else STATE_RUNNING
                )
            return None
        if kind == "hb":
            self._sync_stats(message[1])
            return None
        if kind == "done":
            _, index, _outcome = message
            with self._lock:
                if self._in_flight == index:
                    self._in_flight = None
                self._maybe_finish_replay()
            return None
        if kind == "poisoned":
            _, index = message
            with self._lock:
                if self._in_flight == index:
                    self._in_flight = None
                was_pending = self._poisoned.pop(index, None)
                self._kill_counts.pop(index, None)
                if was_pending is not None:
                    self._deaths_in_row = 0
                self._maybe_finish_replay()
            if was_pending is not None:
                if self.telemetry is not None:
                    self.telemetry.metrics.get(
                        "repro_shard_poison_records_total"
                    ).labels(tenant=self.tenant).inc()
                self._emit("poison_diverted", index=index)
            return None
        if kind == "checkpointed":
            _, position, stats, spans = message
            self._sync_stats(stats)
            if self.telemetry is not None and spans:
                self.telemetry.tracer.adopt(spans)
            self._prune(position)
            if self._on_checkpoint is not None:
                try:
                    self._on_checkpoint(self.tenant, position)
                except Exception:  # pragma: no cover - callback bug
                    pass  # a status hook must never kill the monitor
            return None
        if kind == "gap":
            _, expected, got = message
            self._emit("worker_protocol_violation", expected=expected, got=got)
            stop_process(process, self.term_grace)
            return self._fence("protocol gap")
        if kind == "drained":
            _, summary, spans, stats = message
            self._sync_stats(stats)
            if self.telemetry is not None and spans:
                self.telemetry.tracer.adopt(spans)
            self._prune(self.seen)
            with self._lock:
                self._front_drained()
            process.join(timeout=self.term_grace + 5.0)
            if process.is_alive():  # pragma: no cover - stuck exit
                stop_process(process, self.term_grace)
            summary = dict(summary)
            summary["restarts"] = self.restarts
            summary["isolation"] = "process"
            with self._lock:
                self.state = STATE_DRAINED
                self._drained_summary = summary
            self._emit("worker_drained", restarts=self.restarts)
            self._done.set()
            return "drained"
        return None  # pragma: no cover - unknown message

    def _fence(self, why: str) -> str:
        with self._lock:
            self.state = STATE_FENCED
            if self._drained_summary is None:
                self._drained_summary = self._fenced_summary()
            # Submits are refused from here on.
            self._front_fenced()
        self._emit("worker_fenced", reason=why, restarts=self.restarts)
        self._done.set()
        return "fenced"

    def _fenced_summary(self) -> dict:
        stats = dict(self._stats)
        return {
            "tenant": self.tenant,
            "fenced": True,
            "isolation": "process",
            "seen": self.seen,
            "accepted": stats.get("accepted", 0),
            "lines": stats.get("lines", 0),
            "events": stats.get("events", 0),
            "quarantined": stats.get("quarantined", 0),
            "breaker_open": True,
            "restarts": self.restarts,
            "manifest": None,
        }

    def _abandon(self) -> None:
        """Drain deadline expired: stop supervising, escalate, fence."""
        self._abandoned = True
        self._book_death(
            STATUS_TIMEOUT, f"drain deadline of {self.drain_timeout}s exceeded"
        )

    def _handle_death(self, process, hung: bool) -> str:
        process.join(timeout=1.0)
        code = process.exitcode
        if hung:
            death = self._book_death(
                STATUS_TIMEOUT, f"no message for {self.watchdog}s (watchdog)"
            )
        elif code is not None and code < 0:
            death = self._book_death(STATUS_ERROR, f"killed by signal {-code}")
        else:
            death = self._book_death(STATUS_ERROR, f"exit code {code}")
        with self._lock:
            # Worker SLO histograms are per-life: fold the dead life's
            # last report into the base so the replacement's fresh
            # histogram stacks on top instead of erasing history.
            for key in self._hist_base:
                self._hist_base[key] = merge_histogram_states(
                    self._hist_base[key], self._hist_live[key]
                )
                self._hist_live[key] = None
            self._deaths_in_row += 1
            killer = self._in_flight
            self._in_flight = None
            self._mode_careful = True
            self._careful_high = self._acked + len(self._outbox)
            self.state = STATE_RESTARTING
            if killer is not None:
                count = self._kill_counts.get(killer, 0) + 1
                self._kill_counts[killer] = count
                if count >= self.poison_threshold:
                    self._poisoned[killer] = (
                        f"record killed the worker {count} consecutive "
                        f"time(s) (last: {death.error})"
                    )
        self._emit(
            "worker_exit",
            life=self.life,
            status=death.status,
            error=death.error,
            exitcode=code,
            killer=killer,
        )
        if self._deaths_in_row >= self.fence_threshold:
            return self._fence(
                f"{self._deaths_in_row} consecutive deaths "
                f"(last: {death.error})"
            )
        delay = _RESTART_BACKOFF.delay(min(self._deaths_in_row, 16))
        if delay > 0:
            self._sleep(delay)
        self._emit("worker_restart", life=self.life + 1, backoff=delay)
        return "restart"

    def _run_one_life(self) -> str:
        try:
            process, inbox, results = self._spawn()
        finally:
            self._spawned.set()
        ready = False
        drain_sent = False
        ckpt_outstanding = False
        hung = False
        exited = False
        # Seconds to block for the next result.  Zero while results
        # are queued (read them all, then send); _POLL once everything
        # sendable has been sent.
        wait = 0.0
        try:
            while True:
                if self._abandoned:
                    stop_process(process, self.term_grace)
                    return self._fence("drain deadline exceeded")
                try:
                    message = results.get(block=wait > 0, timeout=wait)
                except queue.Empty:
                    message = None
                except (EOFError, OSError):  # pragma: no cover
                    message = None
                if message is not None:
                    wait = 0.0
                    if message[0] == "ready":
                        ready = True
                    elif message[0] == "checkpointed":
                        ckpt_outstanding = False
                    verdict = self._handle_message(message, process)
                    if verdict is not None:
                        return verdict
                    continue
                if exited:
                    break
                if not process.is_alive():
                    # Its last message can land after the read above
                    # came up empty: read the queue out before this
                    # exit is booked as a crash.
                    exited = True
                    wait = 0.0
                    continue
                deadline = self.watchdog
                if drain_sent:
                    deadline = max(self.watchdog, self.drain_timeout)
                if self._clock() - self._last_seen > deadline:
                    hung = True
                    stop_process(process, self.term_grace)
                    break
                wait = _POLL
                if not ready:
                    continue
                self._dispatch(inbox)
                with self._lock:
                    fully_dispatched = (
                        self._sent_through
                        >= self._acked + len(self._outbox)
                        and self._in_flight is None
                        and not self._mode_careful
                    )
                    # Drain only once every record is *acknowledged*
                    # by a worker checkpoint — sending drain on mere
                    # dispatch would extend the watchdog deadline over
                    # a worker that is actually hung mid-record.
                    fully_acked = (
                        fully_dispatched
                        and self._acked >= self.seen
                    )
                    want_drain = self._drain_requested and not drain_sent
                    want_checkpoint = fully_dispatched and (
                        self._checkpoint_requested
                        or (
                            want_drain
                            and not fully_acked
                            and not ckpt_outstanding
                        )
                    )
                    if want_checkpoint:
                        self._checkpoint_requested = False
                if want_drain and fully_acked:
                    try:
                        inbox.put_nowait(("drain",))
                        drain_sent = True
                        with self._lock:
                            self.state = STATE_DRAINING
                    except queue.Full:  # pragma: no cover - retried
                        pass
                elif want_checkpoint:
                    try:
                        inbox.put_nowait(("checkpoint",))
                        ckpt_outstanding = True
                    except queue.Full:  # pragma: no cover - retried
                        with self._lock:
                            self._checkpoint_requested = True
            # Worker died (or was terminated as hung).
            return self._handle_death(process, hung)
        finally:
            inbox.close()
            results.close()
            inbox.cancel_join_thread()
            results.cancel_join_thread()

    def _run(self) -> None:
        try:
            while True:
                verdict = self._run_one_life()
                if verdict in ("drained", "fenced"):
                    return
        except Exception as error:  # pragma: no cover - supervisor bug
            self._emit(
                "supervisor_error",
                error=f"{type(error).__name__}: {error}",
            )
            self._fence(f"supervisor error: {type(error).__name__}")


def supervisor_status(service) -> dict:
    """Per-tenant one-line supervisor status, registry-derived.

    Reads restart counts and queue depths from the service's metrics
    registry (falling back to live handles only for the lifecycle
    state, which the registry mirrors one-hot in
    ``repro_shard_state``), and renders the ``serve
    --status-interval`` line.
    """
    telemetry = service.telemetry
    tenants: dict[str, dict] = {}
    for tenant in service.tenants():
        shard = service.shard(tenant)
        restarts = 0.0
        queue_depth = float(shard.pending)
        lines = 0.0
        quarantined = 0.0
        heartbeat_age = 0.0
        if telemetry is not None:
            registry = service.telemetry.metrics
            restarts = sum(
                registry.value(
                    "repro_shard_restarts_total",
                    tenant=tenant,
                    status=status,
                )
                for status in (STATUS_ERROR, STATUS_TIMEOUT)
            )
            registry_depth = registry.value(
                "repro_shard_queue_depth", tenant=tenant
            )
            if registry_depth:
                queue_depth = registry_depth
            lines = registry.value(
                "repro_tenant_lines_total", tenant=tenant
            )
            quarantined = registry.value(
                "repro_tenant_quarantined_total", tenant=tenant
            )
            heartbeat_age = registry.value(
                "repro_worker_heartbeat_age_seconds", tenant=tenant
            )
        tenants[tenant] = {
            "state": shard.state,
            "restarts": int(restarts),
            "queue": int(queue_depth),
            "lines": int(lines),
            "quarantined": int(quarantined),
            "heartbeat_age": round(heartbeat_age, 3),
        }
    line = "supervisor: " + (
        " | ".join(
            f"{tenant} {info['state']} "
            f"r={info['restarts']} q={info['queue']}"
            for tenant, info in sorted(tenants.items())
        )
        or "no tenants"
    )
    return {"tenants": tenants, "line": line}
