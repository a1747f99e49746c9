"""Bench-owned spans: recorded around calls *into* the program.

Spans live in memory (name, start, end, parent, run id) and are written
as Chrome ``trace_event`` JSON when the benchmark ends.  The program's
own tracer (``repro.observability``) is not involved: an untraced run
and a traced run execute identical program code, and the difference in
``lines_per_s`` between them is the cost of these spans alone.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs a
    ``nullcontext`` per call site."""

    def __init__(self, run: str, enabled: bool = True, clock=time.perf_counter):
        self.run = run
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, attrs)

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict):
        span = Span(
            len(self.spans), name, self.clock(), 0.0,
            self._stack[-1] if self._stack else None, self.run, attrs,
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def to_records(self) -> list[dict]:
        return [
            {
                "id": s.span_id, "name": s.name, "start": s.start,
                "end": s.end, "parent": s.parent, "run": s.run,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


def self_times(records: list[dict]) -> dict[int, float]:
    """Per span id: duration minus the part of the span's interval its
    child spans cover (overlapping children are not counted twice)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in records:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"])
            )
    out = {}
    for record in records:
        covered = 0.0
        cursor = record["start"]
        for start, end in sorted(children.get(record["id"], ())):
            start = max(start, cursor)
            end = min(end, record["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[record["id"]] = (record["end"] - record["start"]) - covered
    return out


def by_name(records: list[dict]) -> dict[str, dict]:
    """Total and self seconds and call count per span name."""
    selfs = self_times(records)
    table: dict[str, dict] = {}
    for record in records:
        row = table.setdefault(
            record["name"], {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        row["total_s"] += record["end"] - record["start"]
        row["self_s"] += selfs[record["id"]]
        row["calls"] += 1
    return table


def write_chrome_trace(path: str, records: list[dict]) -> None:
    """One ``X`` event per span; runs become Chrome 'processes'."""
    runs = sorted({record["run"] for record in records})
    origin = min((record["start"] for record in records), default=0.0)
    events = [
        {
            "name": "process_name", "ph": "M", "pid": index, "tid": 0,
            "args": {"name": run},
        }
        for index, run in enumerate(runs)
    ]
    for record in records:
        events.append(
            {
                "name": record["name"],
                "ph": "X",
                "pid": runs.index(record["run"]),
                "tid": 0,
                "ts": (record["start"] - origin) * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "args": {
                    **record["attrs"],
                    "span_id": record["id"],
                    "parent": record["parent"],
                },
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
