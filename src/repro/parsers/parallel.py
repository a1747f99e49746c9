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

Dispatch is **supervised** on the one attempt loop,
:func:`~repro.resilience.supervisor.run_chain`: each chunk walks a
two-entry chain — ``max_chunk_attempts`` tries in a fresh worker pool
per wave, then one in-process try — so one bad worker (or one poisoned
chunk of input) degrades throughput instead of killing the parse.
Every attempt is booked in :attr:`ChunkedParallelParser.last_recovery`;
only a failed in-process try raises
:class:`~repro.common.errors.WorkerCrashError`.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from collections.abc import Callable, Sequence

from repro.common.errors import ParserConfigurationError, WorkerCrashError
from repro.common.types import EventTemplate, LogRecord, ParseResult
from repro.observability.tracing import SPAN_PARSER_CALL, Tracer
from repro.parsers.base import LogParser, ParserFactory
from repro.resilience.supervisor import (
    ChainEntry,
    FailureReport,
    RetryPolicy,
    run_chain,
    stop_process,
)


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


class ChunkedParallelParser(LogParser):
    """Parse chunks independently and merge equal templates.

    Args:
        factory: builds the underlying parser for each chunk.
        chunk_size: lines per chunk (the final chunk may be smaller).
        workers: worker processes; 1 parses chunks sequentially
            in-process (useful for tests and for measuring the merge
            overhead in isolation).
        max_chunk_attempts: worker tries a chunk gets before the
            in-process last resort (each failed wave backs off per
            the default :class:`RetryPolicy`).
        chunk_timeout: per-chunk wall-clock deadline in seconds; a
            chunk still running past it is booked ``timeout``, its
            wave's workers are stopped (SIGTERM, then SIGKILL), and
            the chunk is retried.  ``None`` waits forever.
        fault: optional injected-fault schedule (see
            :class:`~repro.resilience.faults.ChunkFault`), consulted
            inside every chunk parse.
        sleep: injectable sleep for tests.
        telemetry: optional
            :class:`~repro.observability.telemetry.Telemetry` handle.
            When set, every chunk try is counted on
            ``repro_supervisor_attempts_total`` (its chain entry,
            ``pool`` or ``in-process``, as the parser) and every
            successful chunk parse ships a ``parser_call`` span,
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
        self._dispatches = 0
        #: Recovery report of the most recent :meth:`parse` call.
        self.last_recovery: FailureReport | None = None

    def parse(self, records: Sequence[LogRecord]) -> ParseResult:
        records = list(records)
        chunks = [
            records[start : start + self.chunk_size]
            for start in range(0, len(records), self.chunk_size)
        ]
        report = FailureReport()
        self.last_recovery = report
        pooled = self.workers > 1 and len(chunks) > 1
        last = self.max_chunk_attempts + 1
        chain = [
            ChainEntry(
                "pool" if pooled else "in-process",
                self.max_chunk_attempts,
                partial(self._wave, chunks, pooled),
            ),
            # The last resort escapes a poisoned worker environment
            # (faults marked ``worker_only`` do not fire here), so a
            # failure now is a genuine parser bug on this input.
            ChainEntry(
                "in-process", 1, partial(self._wave, chunks, False),
                first=last,
            ),
        ]
        done = run_chain(
            range(len(chunks)), chain, report, retry=RetryPolicy(),
            sleep=self._sleep, telemetry=self.telemetry,
        )
        results = []
        for index in range(len(chunks)):
            if index not in done:
                raise WorkerCrashError(
                    f"chunk {index} failed its in-process fallback after "
                    f"{last} attempts:\n{report.describe()}"
                )
            result, spans = done[index]
            if spans:
                self.telemetry.tracer.adopt(spans)
            results.append(result)
        return self._merge(records, results)

    @contextmanager
    def _wave(self, chunks, pooled: bool, indices: list[int], attempt: int):
        """One try of every chunk in *indices*, in a fresh pool or here.

        The pool is disposable — one per wave — and that *is* the crash
        containment: a dead or hung worker cannot leak into the next
        wave.  A wave that leaves a try unsettled (timed out) stops its
        workers, so a hung one does not run on.
        """
        jobs = []
        for index in indices:
            context = None
            if self.telemetry is not None:
                # Worker tracer id prefixes come from a monotonic
                # dispatch count, so span ids never collide.
                self._dispatches += 1
                context = self.telemetry.tracer.worker_context(
                    prefix=f"w{self._dispatches}-"
                )
            jobs.append(partial(
                _run_chunk, self.factory, chunks[index], index, attempt,
                self.fault, not pooled, context,
            ))
        if not pooled:
            yield jobs
            return
        pool = ProcessPoolExecutor(self.workers)
        futures = []
        try:
            for job in jobs:
                try:
                    futures.append(pool.submit(job))
                except BrokenExecutor as error:
                    # An earlier worker of this wave broke the pool:
                    # that is this chunk's failed try.
                    futures.append(Future())
                    futures[-1].set_exception(error)
            yield [
                partial(future.result, self.chunk_timeout)
                for future in futures
            ]
        finally:
            hung = []
            if not all(future.done() for future in futures):
                # The executor has no public handle on its workers.
                hung = list(pool._processes.values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in hung:
                stop_process(process)

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
