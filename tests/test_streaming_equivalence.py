"""Parser-equivalence harness: streaming must agree with batch.

The certified ``prefix`` flush policy is checked for *exact* identity
(template set + per-line assignments) across all four paper parsers on
the three synthetic datasets.  The fast ``delta`` policy is checked
for exact identity wherever the underlying algorithm is scale-free,
and for bounded drift where it is not — the paper's parsers are global
algorithms (SLCT's corpus-wide support, IPLoM's partition goodness,
LKE/LogSig's data-dependent seeding), so delta streaming is
approximate by nature.
"""

import subprocess
import sys
from functools import partial

import pytest

from repro.common.types import LogRecord, ParseResult
from repro.datasets import (
    generate_dataset,
    generate_hdfs_sessions,
    get_dataset_spec,
)
from repro.mining import build_event_matrix
from repro.parsers import make_parser
from repro.parsers.base import OUTLIER, Clustering, LogParser
from repro.streaming import (
    PENDING_EVENT_ID,
    ParseSession,
    StreamingParser,
    compare_stream_to_batch,
)

SEED = 11
DATASETS = ["HDFS", "Proxifier", "BGL"]

#: (parser, params-builder, dataset size, flush size).  LKE/LogSig get
#: smaller samples because their clustering is quadratic in unique
#: messages, as in the paper's own evaluation setup.
PARSER_CASES = [
    ("SLCT", lambda spec: {"support": 0.01}, 1500, 500),
    ("IPLoM", lambda spec: {}, 1500, 500),
    ("LKE", lambda spec: {"seed": 1}, 500, 150),
    (
        "LogSig",
        lambda spec: {"seed": 1, "groups": len(spec.bank.templates)},
        500,
        150,
    ),
    ("Drain", lambda spec: {}, 1500, 500),
]


def _case(parser_name, dataset):
    name, params_of, size, flush = next(
        case for case in PARSER_CASES if case[0] == parser_name
    )
    spec = get_dataset_spec(dataset)
    factory = partial(make_parser, name, **params_of(spec))
    records = generate_dataset(spec, size, seed=SEED).records
    return factory, records, flush


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("parser_name", [c[0] for c in PARSER_CASES])
def test_prefix_streaming_identical_to_batch(parser_name, dataset):
    factory, records, flush = _case(parser_name, dataset)
    report = compare_stream_to_batch(
        factory, records, flush_policy="prefix", flush_size=flush
    )
    assert report.equivalent, report.describe()


def test_prefix_certification_has_no_parallel_mode():
    # Chunked flushes broke prefix batch-identity (25k BGL lines: 71 /
    # 34 / 47 mismatched for SLCT / IPLoM / Drain), so the engine has no
    # such switch — a caller who wants §V passes a ChunkedParallelParser
    # factory — and does not even load the module.
    factory, records, _flush = _case("SLCT", "HDFS")
    with pytest.raises(TypeError):
        StreamingParser(factory, flush_policy="prefix", workers=2)
    with pytest.raises(TypeError):
        compare_stream_to_batch(factory, records, workers=2)
    probe = (
        "import sys; import repro.streaming.engine; "
        "sys.exit('repro.parsers.parallel' in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)


class _FirstTokenParser(LogParser):
    """Deterministic, scale-free stub: cluster by (first token, length).

    Its decisions never depend on corpus-wide statistics, so even the
    approximate delta policy must reproduce batch output exactly —
    this isolates the engine's bookkeeping from parser instability.
    """

    name = "FirstToken"

    def _cluster(self, token_lists):
        groups: dict[tuple[str, int], int] = {}
        labels = []
        templates = []
        for tokens in token_lists:
            key = (tokens[0], len(tokens))
            if key not in groups:
                groups[key] = len(templates)
                templates.append([tokens[0]] + ["*"] * (len(tokens) - 1))
            labels.append(groups[key])
        return Clustering(labels=labels, templates=templates)


@pytest.mark.parametrize("dataset", DATASETS)
def test_delta_streaming_exact_for_scale_free_parser(dataset):
    records = generate_dataset(get_dataset_spec(dataset), 1500, seed=SEED).records
    report = compare_stream_to_batch(
        _FirstTokenParser, records, flush_policy="delta", flush_size=300
    )
    assert report.equivalent, report.describe()


@pytest.mark.parametrize("dataset", DATASETS)
def test_delta_streaming_drift_bounded_for_drain(dataset):
    # Drain is deterministic but not scale-free under delta flushing:
    # each flush's fresh tree sees only that flush's cache misses, so
    # its templates generalize less than the full-corpus batch tree's.
    # The prefix policy (above) is exact; delta drift stays bounded.
    records = generate_dataset(get_dataset_spec(dataset), 1500, seed=SEED).records
    report = compare_stream_to_batch(
        partial(make_parser, "Drain"),
        records,
        flush_policy="delta",
        flush_size=300,
    )
    assert report.agreement > 0.7, report.describe()


def test_delta_streaming_exact_for_drain_on_proxifier():
    # Proxifier's small event bank converges within one flush, so even
    # delta-flushed Drain reproduces the batch parse exactly.
    records = generate_dataset(
        get_dataset_spec("Proxifier"), 1500, seed=SEED
    ).records
    report = compare_stream_to_batch(
        partial(make_parser, "Drain"),
        records,
        flush_policy="delta",
        flush_size=300,
    )
    assert report.equivalent, report.describe()


def test_delta_streaming_exact_on_stable_combo():
    # Pinned from the tuning grid: IPLoM's partitioning is stable on
    # Proxifier's small event bank, so even delta flushing converges
    # to the batch result.
    spec = get_dataset_spec("Proxifier")
    records = generate_dataset(spec, 2000, seed=SEED).records
    report = compare_stream_to_batch(
        partial(make_parser, "IPLoM"),
        records,
        flush_policy="delta",
        flush_size=500,
    )
    assert report.equivalent, report.describe()


def test_delta_streaming_drift_is_bounded():
    spec = get_dataset_spec("HDFS")
    records = generate_dataset(spec, 2000, seed=SEED).records
    report = compare_stream_to_batch(
        partial(make_parser, "IPLoM"),
        records,
        flush_policy="delta",
        flush_size=500,
    )
    assert report.agreement > 0.85, report.describe()


class _NoSingletonParser(LogParser):
    """Stub that refuses singleton groups, like support-based parsers."""

    name = "NoSingleton"

    def _cluster(self, token_lists):
        counts: dict[tuple[str, int], int] = {}
        for tokens in token_lists:
            key = (tokens[0], len(tokens))
            counts[key] = counts.get(key, 0) + 1
        groups: dict[tuple[str, int], int] = {}
        labels = []
        templates = []
        for tokens in token_lists:
            key = (tokens[0], len(tokens))
            if counts[key] < 2:
                labels.append(OUTLIER)
                continue
            if key not in groups:
                groups[key] = len(templates)
                templates.append([tokens[0]] + ["*"] * (len(tokens) - 1))
            labels.append(groups[key])
        return Clustering(labels=labels, templates=templates)


def test_outlier_retry_recovers_rare_events():
    # Each event appears once per flush; only by re-buffering refused
    # lines across flushes does the pair ever meet in one batch.
    engine = StreamingParser(
        _NoSingletonParser, flush_size=2, max_flush_retries=3
    )
    lines = ["alpha one", "beta one", "alpha two", "beta two"]
    for content in lines:
        engine.feed(LogRecord(content=content))
    engine.finalize()
    result = engine.result()
    assert ParseResult.OUTLIER_EVENT_ID not in result.assignments
    assert result.assignments[0] == result.assignments[2]
    assert result.assignments[1] == result.assignments[3]


def test_snapshot_reports_pending_then_finalize_resolves():
    engine = StreamingParser(_FirstTokenParser, flush_size=100)
    engine.feed(LogRecord(content="alpha one"))
    snapshot = engine.result()
    assert snapshot.assignments == [PENDING_EVENT_ID]
    engine.finalize()
    assert PENDING_EVENT_ID not in engine.result().assignments


def test_live_matrix_matches_batch_matrix():
    dataset = generate_hdfs_sessions(80, seed=SEED)
    engine = StreamingParser(
        partial(make_parser, "IPLoM"), flush_policy="prefix", flush_size=300
    )
    session = ParseSession(engine)
    session.consume(dataset.records, report=lambda c: None)
    result = session.finalize()
    live = session.matrix()
    batch = build_event_matrix(result)

    # Compare as (session, event-template) -> count dictionaries so
    # column order and event numbering cannot mask a real difference.
    def cells(matrix, template_of):
        out = {}
        for i, sid in enumerate(matrix.session_ids):
            for j, eid in enumerate(matrix.event_ids):
                count = matrix.matrix[i, j]
                if count:
                    out[(sid, template_of[eid])] = count
        return out

    templates = {e.event_id: e.template for e in result.events}
    templates[ParseResult.OUTLIER_EVENT_ID] = ParseResult.OUTLIER_EVENT_ID
    assert cells(live, templates) == cells(batch, templates)


def test_unretained_delta_keeps_no_per_line_state():
    engine = StreamingParser(
        _FirstTokenParser, flush_size=64, retain=False
    )
    records = generate_dataset(get_dataset_spec("BGL"), 3000, seed=SEED).records
    for record in records:
        engine.feed(record)
    engine.finalize()
    assert engine.counters.lines == 3000
    assert engine.counters.pending == 0
    assert sum(engine.event_counts().values()) == 3000
    assert engine._records == [] and engine._assignments == []


def test_warmed_cache_hit_rate_exceeds_90_percent_on_bgl():
    engine = StreamingParser(
        partial(make_parser, "IPLoM"), flush_size=512, retain=False
    )
    spec = get_dataset_spec("BGL")
    for record in generate_dataset(spec, 20_000, seed=7).records:
        engine.feed(record)
    engine.finalize()
    assert engine.counters.hit_rate > 0.90
