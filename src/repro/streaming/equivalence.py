"""Parser-equivalence harness: does streaming agree with batch?

The streaming engine is only trustworthy if feeding a dataset through
it line by line produces the *same parse* as handing the whole dataset
to the underlying batch parser at once — same template set, same
per-line event assignment.  This module makes that property checkable:

* :func:`template_assignments` canonicalizes a
  :class:`~repro.common.types.ParseResult` into per-line template
  strings, erasing the arbitrary ``E<n>`` numbering that legitimately
  differs between two parses of the same data;
* :func:`compare_stream_to_batch` runs both paths over the same
  records and returns an :class:`EquivalenceReport` with the template
  sets, the mismatching line indices, and an agreement ratio.

The report powers both ``tests/test_streaming_equivalence.py`` and the
CLI's ``repro stream --verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.common.types import LogRecord, ParseResult
from repro.parsers.base import ParserFactory
from repro.streaming.engine import StreamingParser


def template_assignments(result: ParseResult) -> list[str]:
    """Per-line assigned *template string* (``OUTLIER`` kept verbatim).

    Comparing template strings instead of event ids makes two parses
    comparable even though each numbers its events independently.
    """
    by_id = {event.event_id: event.template for event in result.events}
    return [
        by_id.get(event_id, ParseResult.OUTLIER_EVENT_ID)
        for event_id in result.assignments
    ]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one streaming-vs-batch comparison."""

    parser: str
    lines: int
    batch_templates: frozenset[str]
    stream_templates: frozenset[str]
    mismatched_lines: tuple[int, ...]

    @property
    def templates_equal(self) -> bool:
        return self.batch_templates == self.stream_templates

    @property
    def agreement(self) -> float:
        """Fraction of lines assigned identically (1.0 when empty)."""
        if not self.lines:
            return 1.0
        return 1.0 - len(self.mismatched_lines) / self.lines

    @property
    def equivalent(self) -> bool:
        return self.templates_equal and not self.mismatched_lines

    def describe(self) -> str:
        if self.equivalent:
            return (
                f"{self.parser}: streaming == batch on {self.lines} lines "
                f"({len(self.batch_templates)} templates)"
            )
        only_batch = sorted(self.batch_templates - self.stream_templates)
        only_stream = sorted(self.stream_templates - self.batch_templates)
        return (
            f"{self.parser}: {len(self.mismatched_lines)} of {self.lines} "
            f"lines disagree (agreement {self.agreement:.3%}); "
            f"templates only in batch: {only_batch[:5]}; "
            f"only in stream: {only_stream[:5]}"
        )


def diff_results(
    parser_name: str,
    batch: ParseResult,
    stream: ParseResult,
) -> EquivalenceReport:
    """Diff two canonicalized parses of the same record sequence."""
    batch_lines = template_assignments(batch)
    stream_lines = template_assignments(stream)
    mismatched = tuple(
        i
        for i, (a, b) in enumerate(zip(batch_lines, stream_lines))
        if a != b
    )
    return EquivalenceReport(
        parser=parser_name,
        lines=len(batch.records),
        batch_templates=frozenset(e.template for e in batch.events),
        stream_templates=frozenset(e.template for e in stream.events),
        mismatched_lines=mismatched,
    )


def compare_stream_to_batch(
    factory: ParserFactory,
    records: Sequence[LogRecord],
    *,
    flush_policy: str = "prefix",
    flush_size: int = 512,
    cache_capacity: int = 4096,
    max_flush_retries: int = 3,
) -> EquivalenceReport:
    """Parse *records* both ways and diff the canonicalized results.

    Defaults to the engine's ``prefix`` flush policy — the certified
    mode whose finalized output is identical to batch by construction,
    so any mismatch the report shows is an engine bug.  Pass
    ``flush_policy="delta"`` to *measure* how far the fast approximate
    mode drifts instead (its ``agreement`` is then a quality metric,
    not a pass/fail bit).
    """
    records = list(records)
    batch_parser = factory()
    batch = batch_parser.parse(records)
    streaming = StreamingParser(
        factory,
        flush_policy=flush_policy,
        flush_size=flush_size,
        cache_capacity=cache_capacity,
        max_flush_retries=max_flush_retries,
    )
    stream = streaming.parse(records)
    return diff_results(batch_parser.name, batch, stream)
