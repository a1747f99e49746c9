"""The batch path's C-level passes against the per-item loops they replaced.

SLCT's two passes and the event-matrix fill each run as a handful of
C calls; the bodies they replaced live on here as the references, so a
parser or mining edit that changes output fails before any experiment
runs (Drain's twin is in ``test_drain.py``).
"""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import MiningError
from repro.common.types import LogRecord, ParseResult
from repro.mining.event_matrix import build_event_matrix
from repro.mining.verification import event_sequences
from repro.parsers import Slct
from repro.parsers.base import OUTLIER


def _reference_slct(token_lists, support):
    """SLCT by the per-position definition: one vocabulary lookup per
    (position, word) of every line."""
    vocabulary = Counter()
    for tokens in token_lists:
        for position, word in enumerate(tokens):
            vocabulary[(position, word)] += 1
    candidates = defaultdict(list)
    for line_no, tokens in enumerate(token_lists):
        frequent = frozenset(
            (position, word)
            for position, word in enumerate(tokens)
            if vocabulary[(position, word)] >= support
        )
        candidates[(len(tokens), frequent)].append(line_no)
    labels, templates = [OUTLIER] * len(token_lists), []
    for (length, frequent), members in candidates.items():  # first-seen order
        if len(members) < support or not frequent:
            continue
        template = ["*"] * length
        for position, word in frequent:
            template[position] = word
        for line_no in members:
            labels[line_no] = len(templates)
        templates.append(template)
    return labels, templates


_WORDS = st.sampled_from(["a", "b", "c", "*", "7"])
_CORPUS = st.lists(st.lists(_WORDS, max_size=4), max_size=30)


@given(
    corpus=_CORPUS,
    support=st.sampled_from([0.05, 0.3, 0.99, 1, 2, 5]),  # fraction or count
    longest=st.lists(_WORDS, min_size=5, max_size=7),
)
@example(corpus=[], support=0.5, longest=[])  # the empty input
@example(corpus=[[], []], support=2, longest=[])  # no frequent pair: outliers
@settings(max_examples=300, deadline=None)
def test_slct_is_the_per_position_definition(corpus, support, longest):
    if longest:  # one line longer than any other, somewhere inside
        corpus = corpus[:3] + [longest] + corpus[3:]
    parser = Slct(support=support)
    clustering = parser._cluster([list(tokens) for tokens in corpus])
    assert (clustering.labels, clustering.templates) == _reference_slct(
        corpus, parser._absolute_support(len(corpus))
    )


def _reference_matrix(result):
    """One ``StructuredLog`` and one ``+= 1.0`` per record."""
    sessions, events, cells = {}, {}, []
    for structured in result.structured():
        if not structured.record.session_id:
            continue
        row = sessions.setdefault(structured.record.session_id, len(sessions))
        cells.append((row, events.setdefault(structured.event_id, len(events))))
    matrix = np.zeros((len(sessions), len(events)), dtype=float)
    for row, column in cells:
        matrix[row, column] += 1.0
    return matrix, tuple(sessions), tuple(events)


_SESSIONS = st.sampled_from(["", "s1", "s2", "s3"])
_EVENTS = st.sampled_from(["E1", "E2", "E3", ParseResult.OUTLIER_EVENT_ID])


@given(lines=st.lists(st.tuples(_SESSIONS, _EVENTS), max_size=40))
@example(lines=[("", "E1"), ("s2", "OUTLIER"), ("s1", "E1"), ("s2", "OUTLIER")])
@settings(max_examples=300, deadline=None)
def test_event_matrix_is_the_per_record_matrix(lines):
    result = ParseResult(
        assignments=[event_id for _, event_id in lines],
        records=[LogRecord(content="x", session_id=s) for s, _ in lines],
    )
    if not any(session_id for session_id, _ in lines):
        with pytest.raises(MiningError):
            build_event_matrix(result)
        assert event_sequences(result) == {}
        return
    matrix, session_ids, event_ids = _reference_matrix(result)
    counts = build_event_matrix(result)
    assert counts.matrix.dtype == np.float64
    assert counts.matrix.shape == matrix.shape
    assert np.array_equal(counts.matrix, matrix)
    # Row/column order is first appearance; sessionless rows are skipped
    # and the outlier pseudo-event keeps its column.
    assert (counts.session_ids, counts.event_ids) == (session_ids, event_ids)
    assert event_sequences(result) == {
        session_id: tuple(e for s, e in lines if s == session_id)
        for session_id in session_ids
    }
