"""Event count matrix construction (§III-B step 2).

Parsed results are grouped by session (the HDFS block id): each row of
the matrix is one session, each column one event type, and cell
``Y[i, j]`` counts how many times event ``j`` occurred in session ``i``.
The matrix is built in one pass over the structured logs, exactly as
the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Hashable

import numpy as np

from repro.common.errors import MiningError
from repro.common.types import ParseResult


@dataclass(frozen=True)
class EventCountMatrix:
    """A session-by-event count matrix with row/column identities."""

    matrix: np.ndarray  # shape (n_sessions, n_events), float64
    session_ids: tuple[str, ...]
    event_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        n_rows, n_cols = self.matrix.shape
        if n_rows != len(self.session_ids):
            raise MiningError(
                f"matrix has {n_rows} rows but {len(self.session_ids)} "
                f"session ids"
            )
        if n_cols != len(self.event_ids):
            raise MiningError(
                f"matrix has {n_cols} columns but {len(self.event_ids)} "
                f"event ids"
            )

    @property
    def n_sessions(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_events(self) -> int:
        return self.matrix.shape[1]

    def row(self, session_id: str) -> np.ndarray:
        return self.matrix[self.session_ids.index(session_id)]


def build_event_matrix(result: ParseResult) -> EventCountMatrix:
    """Build the session-by-event count matrix from a parse result.

    Sessions are identified by each record's ``session_id``; records
    with an empty session id are skipped (they belong to no request).
    Event columns cover every event id occurring in the assignments —
    including the outlier pseudo-event if the parser produced one,
    because misparsed lines land there and their effect on mining is
    precisely what RQ3 measures.
    """
    session_index: dict[str, int] = {}
    event_index: dict[str, int] = {}
    rows: list[int] = []
    columns: list[int] = []
    for record, event_id in zip(result.records, result.assignments):
        session_id = record.session_id
        if not session_id:
            continue
        rows.append(session_index.setdefault(session_id, len(session_index)))
        columns.append(event_index.setdefault(event_id, len(event_index)))
    if not session_index:
        raise MiningError(
            "no records carry a session id; cannot build an event matrix"
        )
    n_sessions, n_events = len(session_index), len(event_index)
    cells = np.array(rows, dtype=np.intp) * n_events + np.array(
        columns, dtype=np.intp
    )
    # Whole counts are exact in float64: same cells as ``+= 1.0`` each.
    matrix = (
        np.bincount(cells, minlength=n_sessions * n_events)
        .reshape(n_sessions, n_events)
        .astype(float)
    )
    return EventCountMatrix(
        matrix=matrix,
        session_ids=tuple(session_index),
        event_ids=tuple(event_index),
    )


class EventMatrixAccumulator:
    """Incrementally built session-by-event counts for streaming parses.

    The streaming engine assigns lines one at a time and may later
    *merge* two events when a flush discovers that one template
    generalizes another.  The accumulator therefore counts by opaque
    event *keys* (the engine's slots) and supports
    :meth:`remap` — folding one key's column into another — so the
    live matrix always reflects the engine's current event table.
    Keys are translated to event-id column labels only at
    :meth:`build` time.
    """

    def __init__(self) -> None:
        #: event key -> (session id -> count); column-major so a remap
        #: touches exactly two columns.
        self._columns: dict[Hashable, dict[str, float]] = {}
        #: session ids in first-appearance order (the row order).
        self._sessions: dict[str, None] = {}

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    @property
    def n_keys(self) -> int:
        return len(self._columns)

    def add(self, session_id: str, event_key: Hashable, count: float = 1.0) -> None:
        """Count one occurrence of *event_key* in *session_id*.

        Records without a session id are skipped, matching
        :func:`build_event_matrix`.
        """
        if not session_id:
            return
        self._sessions.setdefault(session_id, None)
        column = self._columns.setdefault(event_key, {})
        column[session_id] = column.get(session_id, 0.0) + count

    def remap(self, old_key: Hashable, new_key: Hashable) -> None:
        """Fold *old_key*'s column into *new_key* (event merge)."""
        old_column = self._columns.pop(old_key, None)
        if old_column is None:
            return
        column = self._columns.setdefault(new_key, {})
        for session_id, count in old_column.items():
            column[session_id] = column.get(session_id, 0.0) + count

    def state(self) -> dict:
        """JSON-ready snapshot for streaming checkpoints.

        Event keys survive a JSON round-trip unchanged for the keys
        the streaming engine actually uses (integer slots).
        """
        return {
            "sessions": list(self._sessions),
            "columns": [
                [key, sorted(column.items())]
                for key, column in self._columns.items()
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the accumulator from a :meth:`state` snapshot."""
        self._sessions = {session_id: None for session_id in state["sessions"]}
        self._columns = {
            key: {session_id: count for session_id, count in column}
            for key, column in state["columns"]
        }

    def build(
        self, label_of: Callable[[Hashable], str] | None = None
    ) -> EventCountMatrix:
        """Materialize the current counts as an :class:`EventCountMatrix`.

        ``label_of`` translates event keys into column labels (e.g. the
        streaming engine's final ``E<n>`` ids); by default keys are
        stringified.  Raises :class:`MiningError` when no record carried
        a session id, matching :func:`build_event_matrix`.
        """
        if not self._sessions:
            raise MiningError(
                "no records carry a session id; cannot build an event matrix"
            )
        if label_of is None:
            label_of = str
        session_row = {
            session_id: row for row, session_id in enumerate(self._sessions)
        }
        event_ids = tuple(label_of(key) for key in self._columns)
        matrix = np.zeros((len(session_row), len(event_ids)), dtype=float)
        for column_no, column in enumerate(self._columns.values()):
            for session_id, count in column.items():
                matrix[session_row[session_id], column_no] += count
        return EventCountMatrix(
            matrix=matrix,
            session_ids=tuple(session_row),
            event_ids=event_ids,
        )
