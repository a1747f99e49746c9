"""The abstract log parser and the standard input/output contract.

A concrete parser implements :meth:`LogParser._cluster`, which maps the
(possibly preprocessed) token lists to integer cluster labels plus one
template per cluster.  The base class handles preprocessing, outlier
labeling, event-id assignment, and assembly of the
:class:`~repro.common.types.ParseResult`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.common.errors import ParserConfigurationError, ValidationError
from repro.common.tokenize import WILDCARD, render_template, tokenize
from repro.common.types import EventTemplate, LogRecord, ParseResult
from repro.parsers.preprocess import Preprocessor

#: Cluster label a parser uses for lines it refuses to cluster.
OUTLIER = -1


@dataclass
class Clustering:
    """Raw output of a parser's clustering stage.

    Attributes:
        labels: one integer per input line; ``OUTLIER`` (-1) marks
            unclustered lines, other values index ``templates``.
        templates: token-list template for each cluster label
            ``0..len-1``.
    """

    labels: list[int]
    templates: list[list[str]]

    def __post_init__(self) -> None:
        for label in self.labels:
            if label != OUTLIER and not 0 <= label < len(self.templates):
                raise ValidationError(f"cluster label {label} out of range")


class LogParser(abc.ABC):
    """Base class for all log parsers (standard contract of §II-C)."""

    #: Short name used in tables and the CLI; subclasses override.
    name = "abstract"

    def __init__(self, preprocessor: Preprocessor | None = None) -> None:
        self.preprocessor = preprocessor

    def parse(self, records: Sequence[LogRecord]) -> ParseResult:
        """Parse raw *records* into events + structured logs.

        Preprocessing (if configured) rewrites message contents before
        clustering; assignments still line up 1:1 with the input
        records, so downstream evaluation and mining are unaffected by
        whether preprocessing ran.
        """
        records = list(records)
        contents = [record.content for record in records]
        if self.preprocessor is not None:
            contents = [self.preprocessor(content) for content in contents]
        token_lists = [tokenize(content) for content in contents]
        clustering = self._cluster(token_lists)
        if len(clustering.labels) != len(records):
            raise ParserConfigurationError(
                f"{self.name}: clustering returned {len(clustering.labels)} "
                f"labels for {len(records)} records"
            )
        events = [
            EventTemplate(
                event_id=f"E{index + 1}",
                template=render_template(template),
            )
            for index, template in enumerate(clustering.templates)
        ]
        assignments = [
            ParseResult.OUTLIER_EVENT_ID
            if label == OUTLIER
            else events[label].event_id
            for label in clustering.labels
        ]
        return ParseResult(
            events=events, assignments=assignments, records=records
        )

    def parse_contents(self, contents: Sequence[str]) -> ParseResult:
        """Convenience: parse bare message strings."""
        return self.parse([LogRecord(content=c) for c in contents])

    @abc.abstractmethod
    def _cluster(self, token_lists: list[list[str]]) -> Clustering:
        """Cluster tokenized messages; see :class:`Clustering`."""

    @staticmethod
    def _wildcard_template(length: int) -> list[str]:
        """An all-wildcard template of the given token length."""
        return [WILDCARD] * length


#: A zero-argument callable building a fresh parser (must be picklable
#: when it crosses a process boundary: a module-level function or a
#: functools.partial over picklable arguments).
ParserFactory = Callable[[], LogParser]
