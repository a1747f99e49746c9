"""Hierarchical spans for the parsing pipeline.

A :class:`Tracer` records where a run spent its time as a tree of
spans following the pipeline's natural shape::

    parse_run                  one session (ParseSession / DegradedSession)
      chunk                    one flush of the streaming engine, or one
                               dispatched chunk of ChunkedParallelParser
        parser_call            one invocation of an underlying parser
                               (flush parse, fallback attempt, worker call)

plus zero-duration *instant* events for state changes (ladder rung
steps).

Spans cross the ``ChunkedParallelParser`` process boundary by value:
the parent serializes a :meth:`Tracer.worker_context`, the worker
builds its own throwaway tracer from it (span ids drawn from a
per-chunk prefix so they cannot collide with the parent's), and ships
its finished spans back with the parse result for the parent to
:meth:`Tracer.adopt`.  Timestamps come from ``time.time_ns() // 1000``
(wall-clock microseconds) so parent and worker clocks are comparable;
tests inject a fake clock for exact assertions.

Export formats:

* **JSONL** — one span dict per line, stable field order, greppable.
* **Chrome trace_event** — a ``{"traceEvents": [...]}`` JSON document
  of ``ph: "X"`` complete events loadable in ``chrome://tracing`` /
  Perfetto.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.common.errors import DatasetError, ValidationError

#: Span names used by the runtime (callers may add their own).
SPAN_PARSE_RUN = "parse_run"
SPAN_CHUNK = "chunk"
SPAN_PARSER_CALL = "parser_call"
SPAN_SERVICE_DRAIN = "service_drain"
SPAN_TENANT_DRAIN = "tenant_drain"


def _wall_clock_us() -> int:
    return time.time_ns() // 1000


@dataclass
class Span:
    """One timed operation in the pipeline tree."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_us: int
    end_us: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_us(self) -> int | None:
        if self.end_us is None:
            return None
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start_us=data["start_us"],
            end_us=data.get("end_us"),
            attrs=dict(data.get("attrs", {})),
        )


class _SpanHandle:
    """Context manager closing its span on exit (error status on raise)."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and "status" not in self.span.attrs:
            self.span.attrs["status"] = "error"
            self.span.attrs["error"] = exc_type.__name__
        self.tracer.finish(self.span)


class Tracer:
    """Builds and collects spans for one run.

    Args:
        trace_id: identifier stamped on every span; defaults to
            ``"run"`` (one tracer per run — there is no ambient
            global).
        clock_us: microsecond timestamp source.  The default is wall
            clock so spans from forked workers line up with the
            parent's; inject a counter in tests.
        id_prefix: prefix for generated span ids.  Worker tracers get
            a per-chunk prefix (``w3-``) so ids stay unique across the
            process boundary without coordination.
    """

    def __init__(
        self,
        trace_id: str = "run",
        clock_us: Callable[[], int] = _wall_clock_us,
        id_prefix: str = "s",
    ) -> None:
        self.trace_id = trace_id
        self._clock_us = clock_us
        self._id_prefix = id_prefix
        self._next_id = 0
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    # -- span lifecycle -------------------------------------------------

    def _new_id(self) -> str:
        self._next_id += 1
        return f"{self._id_prefix}{self._next_id}"

    def start(
        self, name: str, parent: Span | None = None, **attrs
    ) -> Span:
        """Open a span.  Without an explicit parent, nests under the
        innermost span still open on this tracer's stack."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            trace_id=self.trace_id,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_us=self._clock_us(),
            attrs=dict(attrs),
        )
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> Span:
        if span.end_us is not None:
            raise ValidationError(
                f"span {span.span_id} ({span.name}) already finished"
            )
        span.end_us = self._clock_us()
        if span in self._stack:
            self._stack.remove(span)
        self.spans.append(span)
        return span

    def span(self, name: str, parent: Span | None = None, **attrs):
        """``with tracer.span("chunk", size=n) as s: ...``"""
        return _SpanHandle(self, self.start(name, parent=parent, **attrs))

    def instant(self, name: str, parent: Span | None = None, **attrs) -> Span:
        """A zero-duration marker (a rung change)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        now = self._clock_us()
        span = Span(
            trace_id=self.trace_id,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_us=now,
            end_us=now,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- process-boundary propagation ----------------------------------

    def worker_context(self, prefix: str, parent: Span | None = None) -> dict:
        """A picklable context for a worker-side tracer.

        The worker's spans parent under ``parent`` (default: current
        innermost open span) and draw ids from ``prefix`` so they never
        collide with this tracer's.
        """
        if parent is None:
            parent = self.current
        return {
            "trace_id": self.trace_id,
            "parent_id": parent.span_id if parent is not None else None,
            "prefix": prefix,
        }

    @classmethod
    def from_worker_context(
        cls, context: dict, clock_us: Callable[[], int] = _wall_clock_us
    ) -> "Tracer":
        """Build the worker-side tracer; its root spans adopt the
        parent id carried in the context."""
        tracer = cls(
            trace_id=context["trace_id"],
            clock_us=clock_us,
            id_prefix=context["prefix"],
        )
        tracer._root_parent = context.get("parent_id")  # type: ignore[attr-defined]
        return tracer

    def start_root(self, name: str, **attrs) -> Span:
        """Worker-side: open a span under the propagated parent."""
        parent_id = getattr(self, "_root_parent", None)
        span = self.start(name, **attrs)
        if span.parent_id is None:
            span.parent_id = parent_id
        return span

    def serialize(self) -> list[dict]:
        """Finished spans as plain dicts (picklable / JSON-able)."""
        return [span.to_dict() for span in self.spans]

    def serialize_new(self, cursor: int) -> tuple[list[dict], int]:
        """Finished spans appended since *cursor*, plus the new cursor.

        The incremental form of :meth:`serialize` for continuous
        cross-process shipping: a shard worker that sends spans on
        every checkpoint ack (not just at drain) keeps the cursor so
        repeated adoption by the parent never duplicates a span.
        """
        end = len(self.spans)
        return [span.to_dict() for span in self.spans[cursor:end]], end

    def adopt(self, serialized: list[dict]) -> None:
        """Fold spans shipped back from a worker into this tracer."""
        for data in serialized:
            self.spans.append(Span.from_dict(data))

    # -- export ---------------------------------------------------------

    def _closed_spans(self) -> list[Span]:
        return sorted(
            (s for s in self.spans if s.end_us is not None),
            key=lambda s: (s.start_us, s.span_id),
        )

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(span.to_dict(), sort_keys=True)
            for span in self._closed_spans()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome(self) -> str:
        """Chrome ``trace_event`` JSON (complete ``ph: "X"`` events)."""
        events = []
        for span in self._closed_spans():
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append(
                {
                    "name": span.name,
                    "cat": span.trace_id,
                    "ph": "X",
                    "ts": span.start_us,
                    "dur": span.duration_us,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return json.dumps({"traceEvents": events}, indent=2)

    def export(self, path: str, fmt: str = "jsonl", *, io=None) -> None:
        """Write the trace atomically (temp file, fsync, rename), so a
        crash mid-export cannot leave a torn trace file behind."""
        if fmt == "jsonl":
            text = self.to_jsonl()
        elif fmt == "chrome":
            text = self.to_chrome()
        else:
            raise ValidationError(
                f"unknown trace format {fmt!r} (expected jsonl or chrome)"
            )
        from repro.resilience.durability import atomic_write_text

        atomic_write_text(path, text, io=io)


def load_jsonl_spans(path: str) -> list[Span]:
    """Read back a JSONL trace export (used by ``repro report``).

    A line that is not a span (a ``--trace-format chrome`` export, say)
    is a data error: :class:`~repro.common.errors.DatasetError`.
    """
    spans = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                try:
                    spans.append(Span.from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError) as error:
                    raise DatasetError(
                        f"{path}:{number}: not a JSONL trace span ({error})"
                    ) from error
    return spans
