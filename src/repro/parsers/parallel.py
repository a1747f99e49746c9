"""Chunked parallel parsing — the paper's §V "Distributed Log Parsing".

The paper's Finding 3 is that clustering-based parsers do not scale and
"parallelization is a promising direction".  This module implements the
simplest such design: split the input into chunks, parse each chunk
independently (in one process pool per parse when ``workers > 1``), and
merge clusters whose templates coincide.

The merge is exact for parsers whose templates are deterministic
functions of a cluster's members (SLCT, IPLoM) and approximate for the
randomized clustering parsers — the trade-off the paper's discussion
anticipates.

A chunk that fails fails the parse, as any parser's error does: the
parser's own exception propagates, or ``BrokenProcessPool`` when a
worker died.  Retries and an in-process fallback are the caller's to
compose, by wrapping the chunked parser in
:class:`~repro.resilience.supervisor.ParserSupervisor`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from collections.abc import Sequence

from repro.common.errors import ParserConfigurationError
from repro.common.types import EventTemplate, LogRecord, ParseResult
from repro.observability.tracing import SPAN_PARSER_CALL, Tracer
from repro.parsers.base import LogParser, ParserFactory


def _run_chunk(
    factory: ParserFactory,
    records: list[LogRecord],
    chunk_index: int,
    in_process: bool,
    trace_context: dict | None,
) -> tuple[ParseResult, list[dict]]:
    """Parse one chunk.

    With a *trace_context* (the dispatcher's serialized tracer context:
    same trace id, parent span id, collision-free id prefix) the parse
    is timed where it runs, as a ``parser_call`` span on a throwaway
    tracer, and the finished spans ride home as plain dicts beside the
    result for the dispatcher to
    :meth:`~repro.observability.tracing.Tracer.adopt`; untraced, the
    span list is empty.  Must stay module-level (picklable).
    """
    parser = factory()
    if trace_context is None:
        return parser.parse(records), []
    tracer = Tracer.from_worker_context(trace_context)
    span = tracer.start_root(
        SPAN_PARSER_CALL,
        parser=getattr(parser, "name", type(parser).__name__),
        chunk=chunk_index,
        records=len(records),
        in_process=in_process,
    )
    result = parser.parse(records)
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
        telemetry: optional
            :class:`~repro.observability.telemetry.Telemetry` handle.
            When set, every chunk parse ships a ``parser_call`` span,
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
        self.factory = factory
        self.chunk_size = chunk_size
        self.workers = workers
        self.telemetry = telemetry
        self._dispatches = 0

    def parse(self, records: Sequence[LogRecord]) -> ParseResult:
        records = list(records)
        chunks = [
            records[start : start + self.chunk_size]
            for start in range(0, len(records), self.chunk_size)
        ]
        pooled = self.workers > 1 and len(chunks) > 1
        jobs = [
            partial(
                _run_chunk, self.factory, chunk, index, not pooled,
                self._trace_context(),
            )
            for index, chunk in enumerate(chunks)
        ]
        if pooled:
            pool = ProcessPoolExecutor(self.workers)
            try:
                futures = [pool.submit(job) for job in jobs]
                outcomes = [future.result() for future in futures]
            finally:
                # A failed chunk fails the parse: queued chunks never start.
                pool.shutdown(cancel_futures=True)
        else:
            outcomes = [job() for job in jobs]
        results = []
        for result, spans in outcomes:
            if spans:
                self.telemetry.tracer.adopt(spans)
            results.append(result)
        return self._merge(records, results)

    def _trace_context(self) -> dict | None:
        if self.telemetry is None:
            return None
        # Worker tracer id prefixes come from a monotonic dispatch
        # count, so span ids never collide.
        self._dispatches += 1
        return self.telemetry.tracer.worker_context(
            prefix=f"w{self._dispatches}-"
        )

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
