"""Tests for the deterministic fault-injection harness and recovery paths."""

from __future__ import annotations

import multiprocessing
import os
from functools import partial

import pytest

from repro.common.errors import DatasetError
from repro.common.types import LogRecord
from repro.datasets import (
    generate_dataset,
    get_dataset_spec,
    read_raw_log,
    write_raw_log,
)
from repro.parsers import LogParser, make_parser
from repro.parsers.parallel import ChunkedParallelParser
from repro.resilience import (
    FlakyFactory,
    InjectedFault,
    ParserSupervisor,
    QuarantineSink,
    RetryPolicy,
    corrupt_raw_file,
    corrupt_records,
)
from repro.resilience.faults import KIND_BINARY, KIND_TRUNCATED
from repro.streaming import StreamingParser

#: CI replays this suite under a matrix of fault seeds; every assertion
#: below that uses FAULT_SEED must hold for *any* seed (assertions tied
#: to one specific corruption draw keep their own literal seeds).
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "13"))

#: CI also replays the suite with different stream parsers; every fault
#: path below must recover identically no matter which backend parses.
STREAM_PARSER = os.environ.get("REPRO_STREAM_PARSER", "IPLoM")


def _records(n=60):
    return [LogRecord(content=f"request {i} served in {i * 3} ms") for i in range(n)]


def _parser_factory():
    return make_parser(STREAM_PARSER)


# ----------------------------------------------------------------------
# Record corruption
# ----------------------------------------------------------------------


class TestCorruptRecords:
    def test_same_seed_same_corruption(self):
        a = [
            r.content
            for r in corrupt_records(_records(), seed=FAULT_SEED, every=5)
        ]
        b = [
            r.content
            for r in corrupt_records(_records(), seed=FAULT_SEED, every=5)
        ]
        assert a == b

    def test_different_seed_differs(self):
        a = [
            r.content
            for r in corrupt_records(_records(), seed=FAULT_SEED, every=5)
        ]
        b = [
            r.content
            for r in corrupt_records(_records(), seed=FAULT_SEED + 1, every=5)
        ]
        assert a != b

    def test_every_kth_record_is_touched(self):
        originals = _records(20)
        mutated = list(corrupt_records(originals, seed=1, every=4))
        changed = [
            i
            for i, (orig, new) in enumerate(zip(originals, mutated))
            if orig.content != new.content
        ]
        assert changed == [3, 7, 11, 15, 19]

    def test_binary_kind_injects_control_bytes(self):
        mutated = list(
            corrupt_records(_records(4), seed=1, every=2, kinds=[KIND_BINARY])
        )
        assert "\x00" in mutated[1].content

    def test_oversized_kind_pads_past_limit(self):
        mutated = list(
            corrupt_records(
                _records(2), seed=1, every=2, kinds=["oversized"], oversize_to=100
            )
        )
        assert len(mutated[1].content) > 100

    def test_truncated_kind_stays_printable(self):
        mutated = list(
            corrupt_records(_records(2), seed=1, every=2, kinds=[KIND_TRUNCATED])
        )
        victim = mutated[1].content
        assert victim == _records(2)[1].content[: len(victim)]

    def test_metadata_is_preserved(self):
        records = [
            LogRecord(content="x" * 10, session_id="s9", truth_event="E1")
        ]
        mutated = list(corrupt_records(records, seed=1, every=1))
        assert mutated[0].session_id == "s9"
        assert mutated[0].truth_event == "E1"

    def test_rejects_bad_parameters(self):
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            list(corrupt_records(_records(), seed=1, every=0))
        with pytest.raises(ValidationError):
            list(corrupt_records(_records(), seed=1, every=2, kinds=["nope"]))


class TestCorruptRawFile:
    def test_corrupts_bytes_and_loader_quarantines(self, tmp_path):
        src = str(tmp_path / "clean.log")
        dst = str(tmp_path / "dirty.log")
        write_raw_log(_records(40), src)
        count = corrupt_raw_file(src, dst, seed=FAULT_SEED, every=10)
        assert count == 4
        sink = QuarantineSink()
        loaded = read_raw_log(
            dst, policy="quarantine", quarantine=sink, max_line_bytes=50_000
        )
        # Every corrupted line is either undecodable or oversized.
        assert len(loaded) + len(sink) == 40
        assert len(sink) == 4
        assert set(sink.reasons()) <= {"undecodable", "oversized"}
        # Byte offsets point at real line starts in the dirty file.
        with open(dst, "rb") as handle:
            data = handle.read()
        for record in sink:
            assert record.byte_offset == 0 or (
                data[record.byte_offset - 1 : record.byte_offset] == b"\n"
            )

    def test_same_seed_same_file(self, tmp_path):
        src = str(tmp_path / "clean.log")
        write_raw_log(_records(30), src)
        a, b = str(tmp_path / "a.log"), str(tmp_path / "b.log")
        corrupt_raw_file(src, a, seed=FAULT_SEED, every=7)
        corrupt_raw_file(src, b, seed=FAULT_SEED, every=7)
        assert open(a, "rb").read() == open(b, "rb").read()


# ----------------------------------------------------------------------
# Streaming engine screening
# ----------------------------------------------------------------------


class TestEngineErrorPolicies:
    def _engine(self, **kwargs):
        return StreamingParser(
            _parser_factory, flush_policy="prefix", flush_size=16, **kwargs
        )

    def test_quarantine_policy_matches_clean_only_parse(self):
        clean = _records(40)
        dirty = list(
            corrupt_records(
                clean, seed=FAULT_SEED, every=8, kinds=[KIND_BINARY]
            )
        )
        sink = QuarantineSink()
        engine = self._engine(error_policy="quarantine", quarantine=sink)
        for record in dirty:
            engine.feed(record)
        engine.finalize()
        survivors = [r for d, r in zip(dirty, clean) if "\x00" not in d.content]
        assert engine.counters.rejected == 40 - len(survivors)
        assert len(sink) == engine.counters.rejected
        # The dirty records never entered the stream: result matches a
        # batch parse of the surviving records alone.
        reference = _parser_factory().parse(
            [d for d in dirty if "\x00" not in d.content]
        )
        assert (
            engine.result().events_file_lines()
            == reference.events_file_lines()
        )

    def test_feed_returns_minus_one_for_rejected(self):
        engine = self._engine(error_policy="skip")
        assert engine.feed(LogRecord(content="fine line")) == 0
        assert engine.feed(LogRecord(content="bad\x00line")) == -1
        assert engine.feed(LogRecord(content="fine again")) == 1
        assert engine.counters.rejected == 1

    def test_raise_policy_propagates(self):
        engine = self._engine(error_policy="raise")
        with pytest.raises(DatasetError):
            engine.feed(LogRecord(content="bad\x00line"))

    def test_max_record_len_enforced(self):
        engine = self._engine(error_policy="skip", max_record_len=50)
        assert engine.feed(LogRecord(content="x" * 51)) == -1
        assert engine.counters.rejected == 1

    def test_no_policy_keeps_legacy_behavior(self):
        engine = self._engine()
        # Without a policy nothing is screened: dirty content streams
        # straight through, exactly as before the hardening existed.
        assert engine.feed(LogRecord(content="bad\x00line")) == 0
        assert engine.counters.rejected == 0


# ----------------------------------------------------------------------
# Flaky parser factories
# ----------------------------------------------------------------------


class TestFlakyFactory:
    def test_fails_exactly_n_times_then_recovers(self, toy_records):
        factory = FlakyFactory(_parser_factory, fail_times=2)
        with pytest.raises(InjectedFault):
            factory().parse(toy_records)
        with pytest.raises(InjectedFault):
            factory().parse(toy_records)
        result = factory().parse(toy_records)
        assert result.assignments

    def test_reports_inner_name_by_default(self):
        assert FlakyFactory(_parser_factory)().name == STREAM_PARSER
        assert FlakyFactory(_parser_factory, name="X")().name == "X"


# ----------------------------------------------------------------------
# Worker-crash recovery by composition: the chunked parser fails, the
# supervisor retries and falls back
# ----------------------------------------------------------------------


def _no_sleep(_seconds):
    return None


class _DiesInWorkers(LogParser):
    """Exits hard in any process but *home*; parses normally at home."""

    def __init__(self, home: int) -> None:
        super().__init__(preprocessor=None)
        self._home = home
        self._inner = _parser_factory()
        self.name = self._inner.name

    def parse(self, records):
        if os.getpid() != self._home:
            os._exit(13)
        return self._inner.parse(records)

    def _cluster(self, token_lists):  # pragma: no cover - parse() overridden
        raise NotImplementedError


class TestChunkedUnderSupervision:
    def test_dead_worker_falls_back_to_the_in_process_parse(self):
        records = _records(60)
        factory = partial(_DiesInWorkers, os.getpid())
        baseline = ChunkedParallelParser(factory, 20, 1).parse(records)
        before = {p.pid for p in multiprocessing.active_children()}
        supervisor = ParserSupervisor(
            [
                ("pool", partial(ChunkedParallelParser, factory, 20, 2)),
                ("in-process", partial(ChunkedParallelParser, factory, 20, 1)),
            ],
            retry=RetryPolicy(attempts=1),
            sleep=_no_sleep,
        )
        outcome = supervisor.parse(records)
        assert outcome.result.assignments == baseline.assignments
        assert outcome.result.events == baseline.events
        assert [
            (a.parser, a.attempt, a.status) for a in outcome.report.attempts
        ] == [("pool", 1, "error"), ("in-process", 1, "ok")]
        assert "BrokenProcessPool" in outcome.report.attempts[0].error
        alive = {p.pid for p in multiprocessing.active_children()} - before
        assert alive == set()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_chunk_raises_its_own_exception(self, workers):
        parser = ChunkedParallelParser(
            FlakyFactory(_parser_factory, fail_times=99), 20, workers
        )
        with pytest.raises(InjectedFault, match="injected crash"):
            parser.parse(_records(60))


@pytest.mark.parametrize("dataset", ["HDFS", "BGL"])
def test_end_to_end_faulted_stream_matches_clean_subset(dataset, tmp_path):
    """Acceptance: corrupt stream + quarantine == batch parse of survivors."""
    records = generate_dataset(get_dataset_spec(dataset), 300, seed=9).records
    dirty = list(
        corrupt_records(
            records,
            seed=FAULT_SEED,
            every=25,
            kinds=[KIND_BINARY, "oversized"],
        )
    )
    sink = QuarantineSink(str(tmp_path / "q.jsonl"))
    engine = StreamingParser(
        _parser_factory,
        flush_policy="prefix",
        flush_size=64,
        error_policy="quarantine",
        quarantine=sink,
        max_record_len=2000,
    )
    for record in dirty:
        engine.feed(record)
    engine.finalize()
    sink.close()
    assert engine.counters.rejected > 0
    assert os.path.exists(str(tmp_path / "q.jsonl"))
    survivors = [
        r
        for r in dirty
        if "\x00" not in r.content and len(r.content) <= 2000
    ]
    reference = _parser_factory().parse(survivors)
    assert (
        engine.result().events_file_lines() == reference.events_file_lines()
    )
