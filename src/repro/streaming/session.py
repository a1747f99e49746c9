"""Parse sessions: timed streaming runs with live mining integration.

A :class:`ParseSession` drives a :class:`~repro.streaming.engine.StreamingParser`
over a record stream and adds what the engine itself deliberately does
not track: wall-clock throughput, periodic progress reporting, and a
live session-by-event count matrix
(:class:`~repro.mining.event_matrix.EventMatrixAccumulator`) updated
the moment each line is assigned — so PCA anomaly detection can run on
a snapshot at any point without re-parsing the stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro.common.errors import ValidationError

from repro.common.types import LogRecord, ParseResult
from repro.mining.event_matrix import EventCountMatrix, EventMatrixAccumulator
from repro.observability.report import format_stream_summary
from repro.observability.tracing import SPAN_PARSE_RUN
from repro.streaming.engine import StreamingCounters, StreamingParser


def _factory_name(factory) -> str:
    """Best-effort parser name for the run span's ``parser`` attribute.

    ``functools.partial`` wrappers (the CLI's idiom) would otherwise
    stringify as ``partial``; reach through to the bound parser name
    when one is visible in the partial's arguments.
    """
    bound_args = getattr(factory, "args", None)
    if bound_args and isinstance(bound_args[0], str):
        return bound_args[0]
    inner = getattr(factory, "func", factory)
    return getattr(inner, "__name__", type(factory).__name__)


@dataclass(frozen=True)
class SessionCounters:
    """Engine counters plus this life's wall-clock throughput.

    ``fed`` counts the lines this life of the session fed: a resumed
    engine's ``stream.lines`` also counts the lines it restored, which
    took no time in this life.
    """

    stream: StreamingCounters
    elapsed_seconds: float
    fed: int

    @property
    def lines_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.fed / self.elapsed_seconds

    def describe(self) -> str:
        """One human-readable progress line (used by the CLI).

        Delegates to the shared observability formatter so this line
        and registry-derived summaries cannot drift apart.
        """
        s = self.stream
        return format_stream_summary(
            lines=s.lines,
            events=s.events,
            exact_hits=s.exact_hits,
            template_hits=s.template_hits,
            misses=s.misses,
            flushes=s.flushes,
            lines_per_second=self.lines_per_second,
            rejected=s.rejected,
            shed=s.shed,
        )


class ParseSession:
    """One streaming parse run: engine + clock + live event matrix.

    Args:
        parser: the streaming engine to drive.  Its ``on_assign`` /
            ``on_remap`` hooks are claimed by the session.
        track_matrix: maintain a live
            :class:`EventMatrixAccumulator` keyed by each record's
            ``session_id`` (records without one are skipped, as in
            :func:`~repro.mining.event_matrix.build_event_matrix`).
    """

    def __init__(
        self, parser: StreamingParser, track_matrix: bool = True
    ) -> None:
        self.parser = parser
        self.accumulator = EventMatrixAccumulator() if track_matrix else None
        #: Clock reads bracketing the run; elapsed is derived on read
        #: (see :meth:`_elapsed`), so ``feed`` reads no clock.
        self._started: float | None = None
        self._finished: float | None = None
        #: Lines a resumed engine restored: not fed, so not timed.
        self._restored = parser.counters.lines
        self.telemetry = parser.telemetry
        self._run_span = None
        if self.telemetry is not None:
            self.telemetry.metrics.register_collector(self._collect_metrics)
        parser.on_assign = self._on_assign
        parser.on_remap = self._on_remap

    def _collect_metrics(self) -> None:
        counters = self.counters()
        metrics = self.telemetry.metrics
        metrics.get("repro_run_elapsed_seconds").set(counters.elapsed_seconds)
        metrics.get("repro_run_lines").set(counters.fed)

    # ------------------------------------------------------------------

    def _on_assign(self, line_no: int, record: LogRecord, slot: int) -> None:
        if self.accumulator is not None and record.session_id:
            self.accumulator.add(record.session_id, slot)

    def _on_remap(self, old_slot: int, new_slot: int) -> None:
        if self.accumulator is not None:
            self.accumulator.remap(old_slot, new_slot)

    # ------------------------------------------------------------------

    def feed(self, record: LogRecord) -> int:
        if self._started is None:
            self._started = time.perf_counter()
            if self.telemetry is not None:
                self._run_span = self.telemetry.tracer.start(
                    SPAN_PARSE_RUN, parser=_factory_name(self.parser.factory)
                )
        return self.parser.feed(record)

    def consume(
        self,
        records: Iterable[LogRecord],
        report_every: int | None = None,
        report: Callable[[SessionCounters], None] | None = None,
    ) -> None:
        """Feed a whole stream, optionally reporting progress.

        ``report`` (default: print the counters' describe line) fires
        after every ``report_every`` lines.
        """
        if report is None:
            report = lambda counters: print(counters.describe())  # noqa: E731
        for record in records:
            line_no = self.feed(record)
            if report_every and (line_no + 1) % report_every == 0:
                report(self.counters())
        return None

    def finalize(self) -> ParseResult | None:
        """Flush everything; returns the ParseResult in retained mode."""
        if self._started is None:
            self._started = time.perf_counter()
        self.parser.finalize()
        self._finished = time.perf_counter()
        if self._run_span is not None:
            counters = self.parser.counters
            self._run_span.attrs["lines"] = counters.lines
            self._run_span.attrs["events"] = counters.events
            self.telemetry.tracer.finish(self._run_span)
            self._run_span = None
        if self.parser.retain:
            return self.parser.result()
        return None

    # ------------------------------------------------------------------

    def _elapsed(self) -> float:
        """Wall clock since the first ``feed``: live mid-stream, frozen
        by :meth:`finalize` (0 before the first feed)."""
        if self._started is None:
            return 0.0
        return (self._finished or time.perf_counter()) - self._started

    def counters(self) -> SessionCounters:
        stream = self.parser.counters
        return SessionCounters(
            stream=stream,
            elapsed_seconds=self._elapsed(),
            fed=stream.lines - self._restored,
        )

    def snapshot(self) -> ParseResult:
        """The incremental ParseResult right now (retained mode).

        Lines still buffered appear with the ``PENDING`` pseudo event
        id; :meth:`finalize` resolves them.
        """
        return self.parser.result()

    def matrix(self) -> EventCountMatrix:
        """Materialize the live session-by-event count matrix.

        Under the prefix flush policy each flush rewrites history, so
        the matrix is rebuilt from the engine's current assignments
        rather than from the (now stale) live accumulator.
        """
        if self.accumulator is None:
            raise ValidationError("session was created with track_matrix=False")
        if self.parser.flush_policy == "prefix":
            accumulator = EventMatrixAccumulator()
            for record, slot in self.parser.iter_assigned():
                if record.session_id:
                    accumulator.add(record.session_id, slot)
            return accumulator.build(self.parser.event_label)
        return self.accumulator.build(self.parser.event_label)
