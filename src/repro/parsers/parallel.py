"""Chunked parallel parsing — the paper's §V "Distributed Log Parsing".

The paper's Finding 3 is that clustering-based parsers do not scale and
"parallelization is a promising direction".  This module implements the
simplest such design: split the input into chunks, parse each chunk
independently (in worker processes when ``workers > 1``), and merge
clusters whose templates coincide.

The merge is exact for parsers whose templates are deterministic
functions of a cluster's members (SLCT, IPLoM) and approximate for the
randomized clustering parsers — the trade-off the paper's discussion
anticipates.

Dispatch is **supervised** and has one path: every chunk parse is a
:func:`_run_chunk` call behind a :class:`~concurrent.futures.Future`
(already resolved when there is no pool).  A chunk whose worker raises,
dies (broken pool), or exceeds ``chunk_timeout`` is re-dispatched into
a fresh pool with exponential backoff, and after
``max_chunk_attempts`` worker tries the chunk is parsed in-process as
a last resort — so one bad worker (or one poisoned chunk of input)
degrades throughput instead of killing the whole parse.  Every attempt
is recorded in :attr:`ChunkedParallelParser.last_recovery`; only when
the in-process fallback itself fails does
:class:`~repro.common.errors.WorkerCrashError` propagate.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.common.errors import ParserConfigurationError, WorkerCrashError
from repro.common.types import EventTemplate, LogRecord, ParseResult
from repro.observability.tracing import SPAN_PARSER_CALL, Tracer
from repro.parsers.base import LogParser, ParserFactory

#: Chunk attempt status tags.
CHUNK_OK = "ok"
CHUNK_ERROR = "error"
CHUNK_TIMEOUT = "timeout"
CHUNK_FALLBACK = "fallback-ok"

#: The re-dispatch delay after the n-th failed wave is
#: ``min(BACKOFF_MAX, BACKOFF_BASE * 2**(n-1))`` seconds.
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0


def _run_chunk(
    factory: ParserFactory,
    records: list[LogRecord],
    chunk_index: int,
    attempt: int,
    fault,
    in_process: bool,
    trace_context: dict | None,
) -> tuple[ParseResult, list[dict]]:
    """Parse one chunk, firing any scheduled injected fault first.

    *fault* is anything with ``should_fire(chunk_index, attempt,
    in_process)`` / ``fire(chunk_index, attempt)`` — in practice a
    :class:`~repro.resilience.faults.ChunkFault` — and is consulted
    here, inside the (possibly worker-side) call, so crashes happen
    exactly where real ones would.

    With a *trace_context* (the dispatcher's serialized tracer context:
    same trace id, parent span id, collision-free id prefix) the parse
    is timed where it runs, as a ``parser_call`` span on a throwaway
    tracer, and the finished spans ride home as plain dicts beside the
    result for the dispatcher to
    :meth:`~repro.observability.tracing.Tracer.adopt`; untraced, the
    span list is empty.  Must stay module-level (picklable).
    """
    parser = factory()
    tracer = span = None
    if trace_context is not None:
        tracer = Tracer.from_worker_context(trace_context)
        span = tracer.start_root(
            SPAN_PARSER_CALL,
            parser=getattr(parser, "name", type(parser).__name__),
            chunk=chunk_index,
            attempt=attempt,
            records=len(records),
            in_process=in_process,
        )
    if fault is not None and fault.should_fire(chunk_index, attempt, in_process):
        fault.fire(chunk_index, attempt)
    result = parser.parse(records)
    if tracer is None:
        return result, []
    tracer.finish(span)
    return result, tracer.serialize()


@dataclass(frozen=True)
class ChunkAttempt:
    """One dispatch of one chunk."""

    chunk: int
    attempt: int
    status: str
    error: str | None = None

    def describe(self) -> str:
        tail = f": {self.error}" if self.error else ""
        return f"chunk {self.chunk} attempt {self.attempt}: {self.status}{tail}"


@dataclass
class ChunkRecoveryReport:
    """Every chunk attempt of one :meth:`ChunkedParallelParser.parse`."""

    attempts: list[ChunkAttempt] = field(default_factory=list)

    @property
    def failures(self) -> list[ChunkAttempt]:
        return [
            a
            for a in self.attempts
            if a.status in (CHUNK_ERROR, CHUNK_TIMEOUT)
        ]

    @property
    def redispatched_chunks(self) -> set[int]:
        """Chunks that needed more than one attempt."""
        return {a.chunk for a in self.attempts if a.attempt > 1}

    @property
    def fallback_chunks(self) -> set[int]:
        """Chunks rescued by the in-process fallback."""
        return {a.chunk for a in self.attempts if a.status == CHUNK_FALLBACK}

    def describe(self) -> str:
        if not self.failures:
            return "all chunks parsed on first dispatch"
        lines = [a.describe() for a in self.attempts]
        summary = (
            f"{len(self.failures)} failed attempts, "
            f"{len(self.redispatched_chunks)} chunks re-dispatched, "
            f"{len(self.fallback_chunks)} rescued in-process"
        )
        return "\n".join([*lines, summary])


class ChunkedParallelParser(LogParser):
    """Parse chunks independently and merge equal templates.

    Args:
        factory: builds the underlying parser for each chunk.
        chunk_size: lines per chunk (the final chunk may be smaller).
        workers: worker processes; 1 parses chunks sequentially
            in-process (useful for tests and for measuring the merge
            overhead in isolation).
        max_chunk_attempts: dispatches a chunk gets before the
            in-process fallback (each failed wave backs off
            exponentially, see :data:`BACKOFF_BASE`).
        chunk_timeout: per-chunk wall-clock deadline in seconds; a
            chunk still running past it is treated as hung, its worker
            abandoned, and the chunk re-dispatched.  ``None`` waits
            forever (the historical behavior).
        fault: optional injected-fault schedule (see
            :class:`~repro.resilience.faults.ChunkFault`), consulted
            inside every chunk parse.
        sleep: injectable sleep for tests.
        telemetry: optional
            :class:`~repro.observability.telemetry.Telemetry` handle.
            When set, every chunk dispatch is counted by outcome and
            every successful chunk parse ships a ``parser_call`` span,
            recorded where the parse ran and adopted under the span
            open at dispatch time.
    """

    name = "Chunked"

    def __init__(
        self,
        factory: ParserFactory,
        chunk_size: int = 10_000,
        workers: int = 1,
        *,
        max_chunk_attempts: int = 3,
        chunk_timeout: float | None = None,
        fault=None,
        sleep: Callable[[float], None] = time.sleep,
        telemetry=None,
    ) -> None:
        super().__init__(preprocessor=None)
        if chunk_size < 1:
            raise ParserConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if workers < 1:
            raise ParserConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        if max_chunk_attempts < 1:
            raise ParserConfigurationError(
                f"max_chunk_attempts must be >= 1, got {max_chunk_attempts}"
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ParserConfigurationError(
                f"chunk_timeout must be > 0, got {chunk_timeout}"
            )
        self.factory = factory
        self.chunk_size = chunk_size
        self.workers = workers
        self.max_chunk_attempts = max_chunk_attempts
        self.chunk_timeout = chunk_timeout
        self.fault = fault
        self._sleep = sleep
        self.telemetry = telemetry
        #: Monotonic dispatch counter — worker tracer id prefixes are
        #: derived from it so span ids never collide across flushes.
        self._dispatches = 0
        #: Recovery report of the most recent :meth:`parse` call.
        self.last_recovery: ChunkRecoveryReport | None = None

    def parse(self, records: Sequence[LogRecord]) -> ParseResult:
        records = list(records)
        chunks = [
            records[start : start + self.chunk_size]
            for start in range(0, len(records), self.chunk_size)
        ]
        report = ChunkRecoveryReport()
        self.last_recovery = report
        if not chunks:
            return ParseResult(events=[], assignments=[], records=[])
        return self._merge(records, self._dispatch(chunks, report))

    # ------------------------------------------------------------------
    # Supervised dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self, chunks: list[list[LogRecord]], report: ChunkRecoveryReport
    ) -> list[ParseResult]:
        """Parse every chunk, surviving worker crashes and hangs.

        The pool is disposable — one per wave — and that *is* the crash
        containment: a wave poisoned by a dead or hung worker cannot
        leak into the next, because on exit its pool is shut down
        without waiting, abandoning any still-running (hung) workers
        exactly like
        :func:`~repro.resilience.supervisor.run_with_deadline` abandons
        an overrunning thread.
        """
        in_process = self.workers == 1 or len(chunks) == 1
        results: list[ParseResult | None] = [None] * len(chunks)
        attempts = [0] * len(chunks)
        pending = list(range(len(chunks)))
        wave = 0
        while pending:
            wave += 1
            pool = (
                None
                if in_process
                else ProcessPoolExecutor(max_workers=self.workers)
            )
            try:
                futures = {}
                for index in pending:
                    attempts[index] += 1
                    futures[index] = self._submit(
                        pool, index, chunks[index], attempts[index]
                    )
                for index in pending:
                    results[index] = self._collect(
                        futures[index], index, attempts[index], report
                    )
            finally:
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
            failed = [index for index in pending if results[index] is None]
            pending = []
            for index in failed:
                if attempts[index] < self.max_chunk_attempts:
                    pending.append(index)
                    continue
                # Last resort: parse the chunk in this process.  Escapes
                # a poisoned worker environment entirely; injected
                # faults marked ``worker_only`` deliberately do not fire
                # here.  A failure now is a genuine parser bug on this
                # input.
                attempts[index] += 1
                future = self._submit(
                    None, index, chunks[index], attempts[index]
                )
                results[index] = self._collect(
                    future, index, attempts[index], report, ok=CHUNK_FALLBACK
                )
                if results[index] is None:
                    raise WorkerCrashError(
                        f"chunk {index} failed its in-process fallback "
                        f"after {attempts[index]} attempts:\n"
                        f"{report.describe()}"
                    ) from future.exception()
            if pending:
                self._sleep(min(BACKOFF_MAX, BACKOFF_BASE * 2 ** (wave - 1)))
        return results

    def _submit(
        self,
        pool: ProcessPoolExecutor | None,
        index: int,
        chunk: list[LogRecord],
        attempt: int,
    ) -> Future:
        """Start one chunk parse; without a pool it runs here, now."""
        context = None
        if self.telemetry is not None:
            self._dispatches += 1
            context = self.telemetry.tracer.worker_context(
                prefix=f"w{self._dispatches}-"
            )
        args = (
            self.factory, chunk, index, attempt, self.fault, pool is None,
            context,
        )
        future: Future = Future()
        try:
            if pool is not None:
                # Raises when an earlier worker of this wave already
                # broke the pool: that is this chunk's failed attempt.
                return pool.submit(_run_chunk, *args)
            future.set_result(_run_chunk(*args))
        except Exception as error:  # noqa: BLE001 - booked by _collect
            future.set_exception(error)
        return future

    def _collect(
        self,
        future: Future,
        index: int,
        attempt: int,
        report: ChunkRecoveryReport,
        ok: str = CHUNK_OK,
    ) -> ParseResult | None:
        """Wait for one chunk and book the attempt; ``None`` = failed."""
        result, status, error = None, ok, None
        try:
            result, spans = future.result(timeout=self.chunk_timeout)
        except FuturesTimeoutError:
            status = CHUNK_TIMEOUT
            error = f"no result within {self.chunk_timeout}s; worker abandoned"
        except Exception as exc:  # noqa: BLE001 - retried
            status, error = CHUNK_ERROR, f"{type(exc).__name__}: {exc}"
        else:
            if spans:
                self.telemetry.tracer.adopt(spans)
        report.attempts.append(
            ChunkAttempt(chunk=index, attempt=attempt, status=status, error=error)
        )
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_parallel_chunk_attempts_total"
            ).labels(status=status).inc()
        return result

    @staticmethod
    def _merge(
        records: list[LogRecord], results: list[ParseResult]
    ) -> ParseResult:
        """Merge chunk results; identical templates become one event."""
        template_to_id: dict[str, str] = {}
        events: list[EventTemplate] = []
        assignments: list[str] = []
        for result in results:
            local_map: dict[str, str] = {}
            for event in result.events:
                if event.template not in template_to_id:
                    merged_id = f"E{len(events) + 1}"
                    template_to_id[event.template] = merged_id
                    events.append(
                        EventTemplate(
                            event_id=merged_id, template=event.template
                        )
                    )
                local_map[event.event_id] = template_to_id[event.template]
            for event_id in result.assignments:
                assignments.append(
                    local_map.get(event_id, ParseResult.OUTLIER_EVENT_ID)
                )
        return ParseResult(
            events=events, assignments=assignments, records=records
        )

    def _cluster(self, token_lists):  # pragma: no cover - parse() overridden
        raise NotImplementedError(
            "ChunkedParallelParser overrides parse() directly"
        )
