"""The incremental parse engine: cache hits stream, misses batch-flush.

:class:`StreamingParser` consumes :class:`~repro.common.types.LogRecord`
streams one record at a time.  Each line is first matched against the
:class:`~repro.streaming.cache.TemplateCache`; a hit assigns the line
immediately in O(tokens).  Misses accumulate in a bounded buffer and,
once ``flush_size`` of them are waiting, are parsed together by the
wrapped *batch* parser — whatever the *factory* builds: any parser from
:mod:`repro.parsers.registry`, or anything else with a ``parse()``
(``functools.partial(ChunkedParallelParser, factory, ...)`` is how a
caller asks for the paper's §V chunked flushes; the engine has no
parallel mode of its own).  Templates the flush discovers are merged
back into the cache, so the next occurrence of each event is a cache
hit.

Two flush policies trade fidelity against cost, mirroring the
exact/approximate split already documented for
:class:`~repro.parsers.parallel.ChunkedParallelParser`:

* ``flush_policy="delta"`` (production) parses **only the buffered
  misses**.  Flush cost is O(misses), and with ``retain=False`` the
  cache and miss buffer are the only per-line state, so memory stays
  bounded no matter how long the stream runs.  The result *converges
  toward* the batch result — helped by outlier retry (lines a flush
  refuses to cluster are re-buffered and re-flushed with later misses,
  up to ``max_flush_retries``) and subsumption merge (a flush-learned
  template that strictly generalizes an earlier one absorbs it, and
  previous assignments are remapped) — but the paper's parsers are
  global algorithms whose decisions depend on corpus-wide frequencies
  (SLCT's support, IPLoM's partition goodness, LKE's estimated
  threshold), so delta streaming is approximate by nature, exactly
  like every online parser in the literature.
* ``flush_policy="prefix"`` (certified) re-parses the **entire
  retained prefix** on every flush and replaces the model and all
  per-line assignments with that authoritative result, so after
  :meth:`finalize` the engine's output is *identical* to one batch
  ``parse()`` over the whole stream — template set, event numbering
  and per-line assignments — which is the property
  :mod:`repro.streaming.equivalence` certifies.  The cache still earns
  its keep: it absorbs repetitive lines so flushes fire only on
  novelty, bounding how often the O(prefix) re-parse runs.  Requires
  ``retain=True``.

The engine's per-event state (the *slot table*) is permanent and small
— one entry per distinct template string ever learned — so an evicted
template re-learned later maps back to its original slot and event.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence

from repro.common.errors import (
    CheckpointError,
    ConcurrencyError,
    ParserConfigurationError,
)
from repro.common.tokenize import render_template, tokenize
from repro.common.types import EventTemplate, LogRecord, ParseResult
from repro.observability.tracing import SPAN_CHUNK, SPAN_PARSER_CALL
from repro.parsers.base import LogParser, ParserFactory
from repro.parsers.preprocess import Preprocessor
from repro.resilience.quarantine import (
    ErrorPolicy,
    QuarantineSink,
    REASON_PARSE_FAILURE,
    is_clean_content,
)
from repro.streaming.cache import TemplateCache

#: Internal slot markers for lines not (yet) assigned to an event.
OUTLIER_SLOT = -1
PENDING_SLOT = -2

#: Event id reported in snapshots for lines still awaiting a flush.
PENDING_EVENT_ID = "PENDING"

#: Overflow modes for bounded ingest (``max_pending``).
OVERFLOW_MODES = ("block", "shed", "sample")


_CROSS_THREAD = (
    "StreamingParser.{} called from thread {} while thread {} is inside "
    "the engine; engines are single-writer — give each thread its own "
    "engine or serialize access (as TenantShard does)"
)


def _single_writer(method):
    """Enforce the engine's single-writer ownership contract.

    The engine and its :class:`~repro.streaming.cache.TemplateCache`
    are deliberately lock-free: exactly one thread may mutate a given
    engine at a time (the service layer serializes per tenant shard).
    This decorator is the enforcement half — a cheap, best-effort
    tripwire that raises :class:`~repro.common.errors.ConcurrencyError`
    when a second thread enters ``feed``/``flush``/``finalize``/
    ``reconfigure`` while another thread is still inside.  Same-thread
    reentrancy (``feed`` → ``flush``) is allowed via depth counting.
    It is a detector, not a lock: two perfectly interleaved writers can
    slip past it, which is why the contract is ownership, not locking.
    ``feed`` carries the same lines inline — a wrapper frame per line
    is a measurable share of a cache hit.
    """

    def wrapper(self, *args, **kwargs):
        me = threading.get_ident()
        owner = self._busy_thread
        if owner is not None and owner != me:
            raise ConcurrencyError(
                _CROSS_THREAD.format(method.__name__, me, owner)
            )
        self._busy_thread = me
        self._busy_depth += 1
        try:
            return method(self, *args, **kwargs)
        finally:
            self._busy_depth -= 1
            if self._busy_depth <= 0:
                self._busy_depth = 0
                self._busy_thread = None

    wrapper.__name__ = method.__name__
    wrapper.__qualname__ = method.__qualname__
    wrapper.__doc__ = method.__doc__
    return wrapper


@dataclass
class _Pending:
    """One buffered cache miss awaiting a flush."""

    line_no: int
    record: LogRecord
    flush_record: LogRecord
    tokens: tuple[str, ...]
    tries: int = 0


@dataclass(frozen=True)
class StreamingCounters:
    """Per-stage counters of one streaming parse."""

    lines: int
    exact_hits: int
    template_hits: int
    misses: int
    flushes: int
    evictions: int
    outliers: int
    pending: int
    events: int
    rejected: int = 0
    shed: int = 0

    @property
    def hits(self) -> int:
        return self.exact_hits + self.template_hits

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0


class StreamingParser(LogParser):
    """Incremental parser: template-cache fast path + batched flushes.

    Args:
        factory: zero-argument callable building the batch parser used
            to cluster flushed cache misses.
        flush_policy: ``"delta"`` flushes only the buffered misses
            (fast, approximate); ``"prefix"`` re-parses the whole
            retained prefix on each flush, making the finalized result
            identical to a single batch parse (requires ``retain``).
        flush_size: cache misses buffered before a flush is forced.
        cache_capacity: LRU capacity of the template cache.
        exact_capacity: LRU capacity of the exact-signature memo.
        max_flush_retries: how many flushes a line may go through
            before it is declared a permanent outlier.
        retain: keep records and per-line assignments so
            :meth:`result` can build a full
            :class:`~repro.common.types.ParseResult`.  ``False`` keeps
            only per-event counts — bounded memory for arbitrarily
            long streams.
        preprocessor: optional domain-knowledge preprocessing, applied
            once per line before cache matching *and* flushing (do not
            also give one to the factory's parser).
        error_policy: per-record fault handling — ``None`` (default)
            preserves the historical behavior (a crashing preprocessor
            propagates, dirty content flows through); ``"raise"`` /
            ``"skip"`` / ``"quarantine"`` (or an
            :class:`~repro.resilience.quarantine.ErrorPolicy`) screens
            every record: undecodable/unprintable or oversized content
            and preprocessor crashes are handled per the policy and
            the record never enters the stream (``feed`` returns -1).
        quarantine: sink receiving rejected records under the
            ``quarantine`` policy (in-memory sink by default).
        max_record_len: content length cap enforced by the screen
            (``None`` = no cap).
        max_pending: backpressure bound on the miss buffer.  ``None``
            (default) keeps the historical unbounded-producer behavior;
            otherwise a cache miss arriving while ``max_pending``
            misses are already buffered is handled per *overflow*, so a
            producer can never outrun the flush parser without the
            engine noticing.
        overflow: what to do with a miss that hits the ``max_pending``
            bound — ``"block"`` flushes the buffer synchronously before
            admitting the line (the producer pays the flush latency,
            memory stays bounded); ``"shed"`` drops the line (counted
            in ``counters.shed``, ``feed`` returns -1); ``"sample"``
            admits every ``overflow_sample_keep``-th overflowing miss
            and sheds the rest, preserving a census of novel lines
            under sustained overload.
        overflow_sample_keep: with ``overflow="sample"``, admit one of
            every this-many overflowing misses.
        on_assign: callback ``(line_no, record, slot)`` fired when a
            line first receives an event slot (``OUTLIER_SLOT`` for
            permanent outliers).
        on_remap: callback ``(old_slot, new_slot)`` fired when a
            subsumption merge folds one event into another.
        source_label: the ``source`` stamped on quarantine records the
            screen rejects — multi-tenant callers set it to the
            tenant's identity so quarantined garbage keeps provenance.
        telemetry: optional
            :class:`~repro.observability.telemetry.Telemetry` handle.
            When set, the engine registers a metrics collector syncing
            its counters (lines, flushes, cache hits/misses/evictions,
            outliers, backpressure) into the registry, records a
            ``chunk`` + ``parser_call`` span pair plus latency/size
            histograms per flush.  The default ``None`` keeps the
            per-line fast path untouched — flushes pay one ``is None``
            check.
    """

    name = "Streaming"

    def __init__(
        self,
        factory: ParserFactory,
        *,
        flush_policy: str = "delta",
        flush_size: int = 512,
        cache_capacity: int = 4096,
        exact_capacity: int = 8192,
        max_flush_retries: int = 3,
        retain: bool = True,
        preprocessor: Preprocessor | None = None,
        error_policy: ErrorPolicy | str | None = None,
        quarantine: QuarantineSink | None = None,
        max_record_len: int | None = None,
        max_pending: int | None = None,
        overflow: str = "block",
        overflow_sample_keep: int = 2,
        on_assign: Callable[[int, LogRecord, int], None] | None = None,
        on_remap: Callable[[int, int], None] | None = None,
        source_label: str = "<stream>",
        telemetry=None,
    ) -> None:
        super().__init__(preprocessor=preprocessor)
        if flush_size < 1:
            raise ParserConfigurationError(
                f"flush_size must be >= 1, got {flush_size}"
            )
        if max_flush_retries < 1:
            raise ParserConfigurationError(
                f"max_flush_retries must be >= 1, got {max_flush_retries}"
            )
        if flush_policy not in ("delta", "prefix"):
            raise ParserConfigurationError(
                f"flush_policy must be 'delta' or 'prefix', got {flush_policy!r}"
            )
        if flush_policy == "prefix" and not retain:
            raise ParserConfigurationError(
                "flush_policy='prefix' re-parses the retained prefix and "
                "therefore requires retain=True"
            )
        if overflow not in OVERFLOW_MODES:
            raise ParserConfigurationError(
                f"overflow must be one of {OVERFLOW_MODES}, got {overflow!r}"
            )
        if max_pending is not None and max_pending < 1:
            raise ParserConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if overflow_sample_keep < 1:
            raise ParserConfigurationError(
                f"overflow_sample_keep must be >= 1, got {overflow_sample_keep}"
            )
        self.factory = factory
        self.flush_policy = flush_policy
        self.flush_size = flush_size
        self.cache_capacity = cache_capacity
        self.exact_capacity = exact_capacity
        self.max_flush_retries = max_flush_retries
        self.retain = retain
        self.error_policy = (
            ErrorPolicy.coerce(error_policy, sink=quarantine)
            if error_policy is not None
            else None
        )
        self.max_record_len = max_record_len
        self.max_pending = max_pending
        self.overflow = overflow
        self.overflow_sample_keep = overflow_sample_keep
        self.on_assign = on_assign
        self.on_remap = on_remap
        self.source_label = source_label
        self.telemetry = telemetry
        #: Single-writer tripwire state (see :func:`_single_writer`).
        self._busy_thread: int | None = None
        self._busy_depth = 0
        self._flush_parser: LogParser = factory()
        if telemetry is not None:
            # What this engine synced; two collects must not apply one
            # delta twice.
            self._published: dict[str, float] = {}
            self._publish_lock = threading.Lock()
            telemetry.metrics.register_collector(self._collect_metrics)
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget all stream state (slot table, cache, buffers)."""
        self.cache = TemplateCache(
            capacity=self.cache_capacity,
            exact_capacity=self.exact_capacity,
        )
        self._slot_templates: list[str] = []
        self._template_to_slot: dict[str, int] = {}
        self._redirect: dict[int, int] = {}
        self._pending: list[_Pending] = []
        self._n_lines = 0
        self._flushes = 0
        self._outliers = 0
        self._records: list[LogRecord] = []
        #: ``(path, bytes, n)``: a checkpoint record log holds _records[:n].
        self.record_log: tuple[str, int, int] | None = None
        self._assignments: list[int] = []
        self._slot_counts: Counter[int] = Counter()
        #: prefix policy: preprocessed records for the full re-parse.
        self._flush_records: list[LogRecord] = []
        #: prefix policy: slots of the latest authoritative result, in
        #: its event order (None before the first flush).
        self._active_slots: list[int] | None = None
        self._lines_since_flush = 0
        self._fed = 0
        self._rejected = 0
        self._shed = 0
        self._overflowed = 0

    @property
    def counters(self) -> StreamingCounters:
        return StreamingCounters(
            lines=self._n_lines,
            exact_hits=self.cache.exact_hits,
            template_hits=self.cache.template_hits,
            misses=self.cache.misses,
            flushes=self._flushes,
            evictions=self.cache.evictions,
            outliers=self._outliers,
            pending=len(self._pending),
            events=self.n_events,
            rejected=self._rejected,
            shed=self._shed,
        )

    @property
    def n_events(self) -> int:
        """Distinct live events discovered so far (merges collapsed)."""
        if self.flush_policy == "prefix":
            return len(self._active_slots or ())
        return len(self._slot_templates) - len(self._redirect)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def fed(self) -> int:
        """Records offered to :meth:`feed`, rejected and shed ones too."""
        return self._fed

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------

    def feed(self, record: LogRecord) -> int:
        """Consume one record; returns its line number in the stream.

        The line is assigned immediately on a cache hit; otherwise it
        joins the miss buffer (flushed automatically at
        ``flush_size``) and is assigned during a later flush.  With an
        ``error_policy`` configured, records failing the screen
        (unprintable/oversized content, crashing preprocessor) are
        handled per the policy and never enter the stream: ``feed``
        returns ``-1`` for them instead of a line number.  Likewise a
        miss shed by backpressure (``max_pending`` reached under the
        ``shed``/``sample`` overflow modes) returns ``-1`` and is
        counted in ``counters.shed``.
        """
        me = threading.get_ident()  # _single_writer, inline
        owner = self._busy_thread
        if owner is not None and owner != me:
            raise ConcurrencyError(_CROSS_THREAD.format("feed", me, owner))
        self._busy_thread = me
        self._busy_depth += 1
        try:
            stream_index = self._fed
            self._fed += 1
            content, flush_record = record.content, record
            if self.error_policy is not None:
                if self.preprocessor is not None:
                    try:
                        content, flush_record = self._prepare(record)
                    except Exception as error:  # noqa: BLE001 - policy-routed
                        self._reject(
                            record,
                            stream_index,
                            REASON_PARSE_FAILURE,
                            f"{type(error).__name__}: {error}",
                            error,
                        )
                        return -1
                reason = is_clean_content(content, self.max_record_len)
                if reason is not None:
                    self._reject(
                        record,
                        stream_index,
                        reason,
                        f"content of length {len(content)} rejected by screen",
                        None,
                    )
                    return -1
            elif self.preprocessor is not None:
                content, flush_record = self._prepare(record)
            tokens = content.split()  # tokenize(), minus the call
            slot = self.cache.match(tokens)
            if (
                slot is None
                and self.max_pending is not None
                and len(self._pending) >= self.max_pending
            ):
                # Backpressure: the miss buffer is full, so the producer
                # has outrun the flush parser.  Block drains now (the
                # producer pays the latency); shed/sample drop the line
                # before it enters any per-line state.
                if self.overflow == "block":
                    self.flush()
                else:
                    self._overflowed += 1
                    admit = (
                        self.overflow == "sample"
                        and self._overflowed % self.overflow_sample_keep == 0
                    )
                    if not admit:
                        self._shed += 1
                        return -1
            line_no = self._n_lines
            self._n_lines += 1
            if slot is not None and self._redirect:
                slot = self._resolve(slot)
            if self.retain:
                self._records.append(record)
                self._assignments.append(
                    PENDING_SLOT if slot is None else slot
                )
            if self.flush_policy == "prefix":
                self._flush_records.append(flush_record)
            self._lines_since_flush += 1
            if slot is not None:  # _assign, inline
                self._slot_counts[slot] += 1
                if self.on_assign is not None:
                    self.on_assign(line_no, record, slot)
            else:
                self._pending.append(
                    _Pending(line_no, record, flush_record, tuple(tokens))
                )
                if len(self._pending) >= self.flush_size:
                    self.flush()
            return line_no
        finally:
            self._busy_depth -= 1
            if self._busy_depth <= 0:
                self._busy_depth = 0
                self._busy_thread = None

    def feed_many(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.feed(record)

    @_single_writer
    def flush(self) -> None:
        """Run the batch parser now, on the policy's scope.

        Delta policy parses the buffered misses; prefix policy
        re-parses everything streamed so far and adopts that result
        wholesale.
        """
        if self.flush_policy == "prefix":
            if self._n_lines:
                self._flush_prefix()
            return
        if not self._pending:
            return
        batch = self._pending
        # A flush parser that raises leaves the batch buffered, so the
        # next flush (or the next rung's parser) still parses it.
        result = self._parse_flush(
            [entry.flush_record for entry in batch], scope="delta"
        )
        self._pending = []
        self._flushes += 1
        slot_of = {
            event.event_id: self._integrate_template(event.template)
            for event in result.events
        }
        for entry, event_id in zip(batch, result.assignments):
            if event_id != ParseResult.OUTLIER_EVENT_ID:
                slot = self._resolve(slot_of[event_id])
                self.cache.remember_exact(" ".join(entry.tokens), slot)
                self._assign(entry.line_no, entry.record, slot)
                continue
            # Flush declined the line: maybe a template learned in this
            # very flush covers it now; otherwise retry or give up.
            entry.tries += 1
            slot = self.cache.match(entry.tokens)
            if slot is not None:
                self._assign(entry.line_no, entry.record, self._resolve(slot))
            elif entry.tries >= self.max_flush_retries:
                self._outliers += 1
                self._assign(entry.line_no, entry.record, OUTLIER_SLOT)
            else:
                self._pending.append(entry)

    def _flush_prefix(self) -> None:
        """Re-parse the full prefix; adopt its result as ground truth.

        Every flush-discovered template keeps (or gets) a permanent
        slot, and :attr:`_active_slots` records the authoritative
        result's event order so :meth:`result` reproduces the batch
        numbering exactly.  The cache is rebuilt to hold precisely the
        authoritative template set.
        """
        result = self._parse_flush(list(self._flush_records), scope="prefix")
        self._flushes += 1
        self._pending = []
        self._lines_since_flush = 0
        slot_of: dict[str, int] = {}
        active: list[int] = []
        for event in result.events:
            slot = self._template_to_slot.get(event.template)
            if slot is None:
                slot = len(self._slot_templates)
                self._slot_templates.append(event.template)
                self._template_to_slot[event.template] = slot
            slot_of[event.event_id] = slot
            if slot not in active:
                active.append(slot)
        self._active_slots = active
        self._slot_counts = Counter()
        self._outliers = 0
        assignments: list[int] = []
        for event_id in result.assignments:
            if event_id == ParseResult.OUTLIER_EVENT_ID:
                slot = OUTLIER_SLOT
                self._outliers += 1
            else:
                slot = slot_of[event_id]
            assignments.append(slot)
            self._slot_counts[slot] += 1
        self._assignments = assignments
        self.cache.clear_templates()
        for slot in active:
            self.cache.insert(
                slot, tuple(tokenize(self._slot_templates[slot]))
            )

    @_single_writer
    def finalize(self) -> None:
        """Flush until every streamed line has its final assignment.

        Prefix policy: one last full re-parse if anything arrived since
        the previous flush, which is what makes the finalized result
        identical to batch parsing.  Delta policy: flush (with retries)
        until the miss buffer drains.
        """
        if self.flush_policy == "prefix":
            if self._pending or self._lines_since_flush:
                self.flush()
            return
        while self._pending:
            self.flush()

    # ------------------------------------------------------------------
    # Live reconfiguration (graceful degradation)
    # ------------------------------------------------------------------

    @_single_writer
    def reconfigure(self, factory: ParserFactory) -> dict:
        """Swap the flush parser mid-stream.

        The degradation runtime's step-down hook: the slot table,
        per-line assignments, the cache and the miss buffer all survive
        untouched — only the parser that clusters *future* flushes
        changes, so a downgrade can never corrupt what was already
        parsed.  Returns the change applied, which the ladder records
        as the :class:`DegradationEvent`'s actions.
        """
        self.factory = factory
        self._flush_parser = factory()
        return {
            "flush_parser": getattr(
                self._flush_parser, "name", type(self._flush_parser).__name__
            )
        }

    # ------------------------------------------------------------------
    # Batch-contract interface
    # ------------------------------------------------------------------

    def parse(self, records: Sequence[LogRecord]) -> ParseResult:
        """One-shot contract of §II-C: stream *records* and finalize.

        Resets any previous stream state first, so a StreamingParser
        can be reused like any batch parser.
        """
        if not self.retain:
            raise ParserConfigurationError(
                "parse() needs retain=True (unretained engines do not "
                "keep per-line assignments)"
            )
        self.reset()
        self.feed_many(records)
        self.finalize()
        return self.result()

    def _cluster(self, token_lists):  # pragma: no cover - parse() overridden
        raise NotImplementedError("StreamingParser overrides parse() directly")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _live_slots(self) -> list[int]:
        """Slots backing current events, in event-numbering order.

        Prefix policy uses the latest authoritative result's own event
        order (so numbering matches batch output); delta policy uses
        discovery order with merged slots collapsed.
        """
        if self.flush_policy == "prefix":
            return list(self._active_slots or ())
        return [
            slot
            for slot in range(len(self._slot_templates))
            if slot not in self._redirect
        ]

    def event_ids(self) -> dict[int, str]:
        """Map live slots to their final ``E<n>`` event ids."""
        return {
            slot: f"E{index + 1}"
            for index, slot in enumerate(self._live_slots())
        }

    def events(self) -> list[EventTemplate]:
        """The current event table, in event-numbering order."""
        ids = self.event_ids()
        return [
            EventTemplate(event_id=ids[slot], template=self._slot_templates[slot])
            for slot in self._live_slots()
        ]

    def iter_assigned(self) -> Iterable[tuple[LogRecord, int]]:
        """Yield ``(record, slot)`` for every already-assigned line.

        Lines still pending a flush are skipped.  Requires
        ``retain=True``; used to rebuild live mining state after a
        prefix flush rewrites history.
        """
        if not self.retain:
            raise ParserConfigurationError(
                "iter_assigned() needs retain=True"
            )
        for record, slot in zip(self._records, self._assignments):
            if slot != PENDING_SLOT:
                yield record, slot

    def event_label(self, slot: int) -> str:
        """Final event id for *slot* (outlier/pending markers included)."""
        if slot == OUTLIER_SLOT:
            return ParseResult.OUTLIER_EVENT_ID
        if slot == PENDING_SLOT:
            return PENDING_EVENT_ID
        return self.event_ids()[self._resolve(slot)]

    def result(self) -> ParseResult:
        """Build the ParseResult over everything streamed so far.

        Lines still in the miss buffer are reported as
        :data:`PENDING_EVENT_ID`; call :meth:`finalize` first for a
        final result.  Requires ``retain=True``.
        """
        if not self.retain:
            raise ParserConfigurationError(
                "result() needs retain=True; use counters/event streams "
                "in unretained mode"
            )
        ids = self.event_ids()
        events = [
            EventTemplate(event_id=ids[slot], template=self._slot_templates[slot])
            for slot in self._live_slots()
        ]
        assignments = []
        for slot in self._assignments:
            if slot == OUTLIER_SLOT:
                assignments.append(ParseResult.OUTLIER_EVENT_ID)
            elif slot == PENDING_SLOT:
                assignments.append(PENDING_EVENT_ID)
            else:
                assignments.append(ids[self._resolve(slot)])
        return ParseResult(
            events=events,
            assignments=assignments,
            records=list(self._records),
        )

    def event_counts(self) -> dict[str, int]:
        """Lines per final event id (works in unretained mode too)."""
        counts: Counter[str] = Counter()
        for slot, count in self._slot_counts.items():
            counts[self.event_label(slot)] += count
        return dict(counts)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint_config(self) -> dict:
        """The constructor parameters a resuming engine must match.

        Code-valued parameters (factory, preprocessor, callbacks) are
        deliberately absent — they cannot be serialized safely, so the
        resumer must supply equivalent ones; see
        :mod:`repro.resilience.checkpoint`.
        """
        return {
            "flush_policy": self.flush_policy,
            "flush_size": self.flush_size,
            "cache_capacity": self.cache_capacity,
            "exact_capacity": self.exact_capacity,
            "max_flush_retries": self.max_flush_retries,
            "retain": self.retain,
            "max_pending": self.max_pending,
            "overflow": self.overflow,
        }

    def checkpoint_state(self) -> dict:
        """JSON-ready snapshot of the entire mutable stream state.

        Everything :meth:`reset` initializes but the retained records
        (the checkpoint's record log holds those) is captured — slot
        table, redirects, miss buffer, assignments, cache (in LRU
        order), counters — so a restored engine continues exactly here.
        """
        return {
            "config": self.checkpoint_config(),
            "slot_templates": list(self._slot_templates),
            "template_to_slot": dict(self._template_to_slot),
            "redirect": [[old, new] for old, new in self._redirect.items()],
            "pending": [
                {
                    "line_no": entry.line_no,
                    "tries": entry.tries,
                    "record": entry.record.to_dict(),
                    "flush_record": entry.flush_record.to_dict(),
                    "tokens": list(entry.tokens),
                }
                for entry in self._pending
            ],
            "n_lines": self._n_lines,
            "flushes": self._flushes,
            "outliers": self._outliers,
            "fed": self._fed,
            "rejected": self._rejected,
            "shed": self._shed,
            "overflowed": self._overflowed,
            "assignments": list(self._assignments),
            "slot_counts": [
                [slot, count] for slot, count in self._slot_counts.items()
            ],
            "active_slots": (
                list(self._active_slots)
                if self._active_slots is not None
                else None
            ),
            "lines_since_flush": self._lines_since_flush,
            "cache": self.cache.state(),
        }

    def retained_records(self, start: int) -> list[LogRecord]:
        """The retained records from stream line *start* on."""
        return self._records[start:]

    def restore_state(self, state: dict, records=()) -> None:
        """Adopt a :meth:`checkpoint_state` snapshot and its *records*,
        recomputing flush records through :meth:`_prepare`.  The
        engine must have been constructed with the same
        configuration the snapshot records (the factory and
        preprocessor are the caller's responsibility); a mismatch
        raises :class:`~repro.common.errors.CheckpointError` because a
        silently different configuration would break the resumed
        stream's equivalence guarantee.
        """
        config = self.checkpoint_config()
        saved = state["config"]
        if config != saved:
            diffs = ", ".join(
                f"{key}: saved={saved.get(key)!r} engine={config[key]!r}"
                for key in sorted(set(config) | set(saved))
                if config.get(key) != saved.get(key)
            )
            raise CheckpointError(
                f"engine configuration does not match checkpoint ({diffs})"
            )
        self._slot_templates = list(state["slot_templates"])
        self._template_to_slot = {
            template: int(slot)
            for template, slot in state["template_to_slot"].items()
        }
        self._redirect = {
            int(old): int(new) for old, new in state["redirect"]
        }
        self._pending = [
            _Pending(
                line_no=entry["line_no"],
                record=LogRecord.from_dict(entry["record"]),
                flush_record=LogRecord.from_dict(entry["flush_record"]),
                tokens=tuple(entry["tokens"]),
                tries=entry["tries"],
            )
            for entry in state["pending"]
        ]
        self._n_lines = state["n_lines"]
        self._flushes = state["flushes"]
        self._outliers = state["outliers"]
        self._fed = state["fed"]
        self._rejected = state["rejected"]
        self._shed = state.get("shed", 0)
        self._overflowed = state.get("overflowed", 0)
        self._records = list(records)
        self._assignments = list(state["assignments"])
        self._slot_counts = Counter(
            {int(slot): count for slot, count in state["slot_counts"]}
        )
        self._flush_records = []
        if self.flush_policy == "prefix":
            self._flush_records = [
                self._prepare(record)[1] for record in records
            ] if self.preprocessor is not None else list(records)
        self._active_slots = (
            list(state["active_slots"])
            if state["active_slots"] is not None
            else None
        )
        self._lines_since_flush = state["lines_since_flush"]
        self.cache.restore(state["cache"])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _parse_flush(self, records: list[LogRecord], scope: str) -> ParseResult:
        """Run the flush parser, recording the chunk when instrumented.

        Each flush is one ``chunk`` span; the parser invocation inside
        is a ``parser_call`` span (a flush parser that traces its own
        work, e.g. a telemetry-carrying ``ChunkedParallelParser``,
        nests its spans under it).
        """
        if self.telemetry is None:
            return self._flush_parser.parse(records)
        tracer = self.telemetry.tracer
        started = time.perf_counter()
        with tracer.span(
            SPAN_CHUNK, scope=scope, size=len(records), flush=self._flushes + 1
        ):
            with tracer.span(
                SPAN_PARSER_CALL,
                parser=getattr(
                    self._flush_parser,
                    "name",
                    type(self._flush_parser).__name__,
                ),
                records=len(records),
            ):
                result = self._flush_parser.parse(records)
        elapsed = time.perf_counter() - started
        metrics = self.telemetry.metrics
        metrics.get("repro_stream_flush_seconds").observe(elapsed)
        metrics.get("repro_stream_flush_size_records").observe(len(records))
        return result

    def _collect_metrics(self) -> None:
        """Sync the engine's own counters into the metrics registry.

        Collector pattern: the hot path keeps its existing plain-int
        counters as the source of truth; this runs only when the
        registry is read (export, snapshot, summary), so instrumenting
        costs the fast path nothing.  Each engine adds only its change
        since its last collect (counters by high-water mark, as
        :func:`~repro.service.shard.sync_tenant_stats` does), so the
        engines of a thread-host service sum instead of the last one
        collected winning.
        """
        metrics, marks, cache = (
            self.telemetry.metrics, self._published, self.cache
        )
        with self._publish_lock:
            for name, value in (
                ("repro_stream_lines_total", self._n_lines),
                ("repro_stream_flushes_total", self._flushes),
                ("repro_stream_outliers_total", self._outliers),
                ("repro_stream_rejected_total", self._rejected),
                ("repro_stream_shed_total", self._shed),
                ("repro_cache_misses_total", cache.misses),
                ("repro_cache_evictions_total", cache.evictions),
            ):
                metrics.sync_high_water(marks, name, name, value)
            for kind in ("exact", "template"):
                metrics.sync_high_water(
                    marks, "repro_cache_hits_total", kind,
                    getattr(cache, f"{kind}_hits"), kind=kind,
                )
            for gauge, value in (
                ("repro_stream_events", self.n_events),
                ("repro_stream_pending", len(self._pending)),
            ):
                metrics.get(gauge).inc(value - marks.get(gauge, 0))
                marks[gauge] = value

    def _prepare(self, record: LogRecord) -> tuple[str, LogRecord]:
        """Preprocessed content + the record handed to flushes."""
        content = self.preprocessor(record.content)
        return content, LogRecord(
            content=content,
            timestamp=record.timestamp,
            session_id=record.session_id,
            truth_event=record.truth_event,
        )

    def _reject(
        self,
        record: LogRecord,
        stream_index: int,
        reason: str,
        detail: str,
        error: Exception | None,
    ) -> None:
        """Route one screened-out record through the error policy."""
        self._rejected += 1
        assert self.error_policy is not None
        self.error_policy.handle(
            source=self.source_label,
            line_no=stream_index,
            byte_offset=-1,
            reason=reason,
            detail=detail,
            payload=record.content,
            error=error,
        )

    def _resolve(self, slot: int) -> int:
        """Follow (and compress) redirect chains from merged events."""
        root = slot
        while root in self._redirect:
            root = self._redirect[root]
        while slot in self._redirect and self._redirect[slot] != root:
            self._redirect[slot], slot = root, self._redirect[slot]
        return root

    def _assign(self, line_no: int, record: LogRecord, slot: int) -> None:
        if self.retain:
            self._assignments[line_no] = slot
        self._slot_counts[slot] += 1
        if self.on_assign is not None:
            self.on_assign(line_no, record, slot)

    def _integrate_template(self, template: str) -> int:
        """Fold one flush-discovered template into the slot table/cache.

        Exact re-discoveries reuse their permanent slot (that is what
        makes eviction harmless).  A template subsumed by a cached one
        maps onto the more general event; a template that strictly
        generalizes cached ones absorbs them via redirect.
        """
        existing = self._template_to_slot.get(template)
        if existing is not None:
            slot = self._resolve(existing)
            self.cache.insert(slot, tuple(tokenize(self._slot_templates[slot])))
            return slot
        tokens = tuple(tokenize(template))
        general = self.cache.find_generalizer(tokens)
        if general is not None:
            slot = self._resolve(general)
            self._template_to_slot[template] = slot
            return slot
        slot = len(self._slot_templates)
        self._slot_templates.append(render_template(tokens))
        self._template_to_slot[template] = slot
        for specific in self.cache.find_specializations(tokens):
            specific = self._resolve(specific)
            if specific != slot:
                self._merge_slots(specific, slot)
        self.cache.insert(slot, tokens)
        return slot

    def _merge_slots(self, old: int, new: int) -> None:
        self._redirect[old] = new
        self.cache.remove(old)
        self._slot_counts[new] += self._slot_counts.pop(old, 0)
        if self.on_remap is not None:
            self.on_remap(old, new)
