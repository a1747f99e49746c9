"""Tests for the deterministic fault-injection harness and recovery paths."""

from __future__ import annotations

import multiprocessing
import os
import time
from functools import partial

import pytest

from repro.common.errors import DatasetError, WorkerCrashError
from repro.common.types import LogRecord
from repro.datasets import (
    generate_dataset,
    get_dataset_spec,
    read_raw_log,
    write_raw_log,
)
from repro.observability import Telemetry
from repro.parsers import make_parser
from repro.parsers.parallel import ChunkedParallelParser
from repro.resilience import (
    ChunkFault,
    FlakyFactory,
    InjectedFault,
    QuarantineSink,
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
# Worker-crash recovery in chunked dispatch
# ----------------------------------------------------------------------


def _no_sleep(_seconds):
    return None


class TestChunkRecovery:
    def _baseline(self, records, chunk_size=20):
        return ChunkedParallelParser(
            _parser_factory, chunk_size=chunk_size
        ).parse(records)

    def test_raise_fault_is_redispatched(self):
        records = _records(60)
        baseline = self._baseline(records)
        parser = ChunkedParallelParser(
            _parser_factory,
            chunk_size=20,
            workers=2,
            fault=ChunkFault(chunks=(1,), attempts=1, mode="raise"),
            sleep=_no_sleep,
        )
        result = parser.parse(records)
        assert result.events_file_lines() == baseline.events_file_lines()
        report = parser.last_recovery
        assert {a.unit for a in report.attempts if a.attempt > 1} == {1}
        assert len(report.failures) == 1
        assert "InjectedFault" in report.failures[0].error

    def test_dead_worker_process_is_survived(self):
        # mode="exit" hard-kills the worker mid-chunk: the pool breaks,
        # the wave fails, and a fresh pool parses the chunk cleanly.
        records = _records(60)
        baseline = self._baseline(records)
        parser = ChunkedParallelParser(
            _parser_factory,
            chunk_size=20,
            workers=2,
            fault=ChunkFault(chunks=(0,), attempts=1, mode="exit"),
            sleep=_no_sleep,
        )
        result = parser.parse(records)
        assert result.events_file_lines() == baseline.events_file_lines()
        assert any(a.attempt > 1 for a in parser.last_recovery.attempts)

    def test_hung_worker_is_abandoned_on_timeout(self):
        records = _records(40)
        baseline = self._baseline(records)
        parser = ChunkedParallelParser(
            _parser_factory,
            chunk_size=20,
            workers=2,
            chunk_timeout=0.5,
            fault=ChunkFault(
                chunks=(1,), attempts=1, mode="hang", hang_seconds=30.0
            ),
            sleep=_no_sleep,
        )
        result = parser.parse(records)
        assert result.events_file_lines() == baseline.events_file_lines()
        timeouts = [
            a for a in parser.last_recovery.attempts if a.status == "timeout"
        ]
        assert len(timeouts) == 1
        assert "deadline" in timeouts[0].error

    def test_timed_out_wave_stops_its_hung_worker(self):
        # A 30 s hang must not outlive the parse: the timed-out wave's
        # workers are stopped (SIGTERM, then SIGKILL), not left running.
        before = {p.pid for p in multiprocessing.active_children()}
        parser = ChunkedParallelParser(
            _parser_factory,
            chunk_size=20,
            workers=2,
            chunk_timeout=0.5,
            fault=ChunkFault(
                chunks=(1,), attempts=1, mode="hang", hang_seconds=30.0
            ),
            sleep=_no_sleep,
        )
        parser.parse(_records(40))
        time.sleep(2.0)
        alive = {p.pid for p in multiprocessing.active_children()} - before
        assert alive == set()

    def test_persistent_fault_falls_back_in_process(self):
        records = _records(60)
        baseline = self._baseline(records)
        parser = ChunkedParallelParser(
            _parser_factory,
            chunk_size=20,
            workers=2,
            max_chunk_attempts=2,
            fault=ChunkFault(chunks=(2,), attempts=99, mode="raise"),
            sleep=_no_sleep,
        )
        result = parser.parse(records)
        assert result.events_file_lines() == baseline.events_file_lines()
        report = parser.last_recovery
        rescued = {a.unit for a in report.attempts if a.parser == "in-process"}
        assert rescued == {2}
        assert "winner: in-process" in report.describe()

    def test_fault_that_survives_fallback_raises_worker_crash(self):
        records = _records(40)
        parser = ChunkedParallelParser(
            _parser_factory,
            chunk_size=20,
            workers=1,
            max_chunk_attempts=2,
            fault=ChunkFault(
                chunks=(0,), attempts=99, mode="raise", worker_only=False
            ),
            sleep=_no_sleep,
        )
        with pytest.raises(WorkerCrashError, match="in-process fallback"):
            parser.parse(records)

    def test_fault_schedule_is_deterministic(self):
        fault = ChunkFault(chunks=(0, 2), attempts=2, mode="raise")
        assert fault.should_fire(0, 1, in_process=False)
        assert fault.should_fire(2, 2, in_process=False)
        assert not fault.should_fire(2, 3, in_process=False)
        assert not fault.should_fire(1, 1, in_process=False)
        assert not fault.should_fire(0, 1, in_process=True)  # worker_only

    @pytest.mark.parametrize("mode", ["raise", "exit", "hang"])
    def test_recovery_books_the_same_attempts_traced_and_untraced(self, mode):
        # One _run_chunk and one attempt loop serve every dispatch, so
        # telemetry can only add spans and counters: the recovery report
        # cannot diverge between a traced and an untraced parse.  Every
        # chunk is sabotaged, so no outcome hangs on which worker a
        # broken pool caught mid-chunk.
        records = _records(40)
        baseline = self._baseline(records)

        def run(telemetry):
            parser = ChunkedParallelParser(
                _parser_factory,
                chunk_size=20,
                workers=2,
                max_chunk_attempts=2,
                chunk_timeout=0.25 if mode == "hang" else None,
                fault=ChunkFault(
                    chunks=(0, 1), attempts=2, mode=mode, hang_seconds=3.0
                ),
                sleep=_no_sleep,
                telemetry=telemetry,
            )
            result = parser.parse(records)
            assert result.events_file_lines() == baseline.events_file_lines()
            return [
                (a.unit, a.attempt, a.status)
                for a in parser.last_recovery.attempts
            ]

        telemetry = Telemetry.create()
        traced = run(telemetry)
        assert traced == run(None)
        # Both pool waves lose both chunks; the in-process last resort
        # (where a worker_only fault does not fire) rescues them.
        failed = "timeout" if mode == "hang" else "error"
        assert traced == [
            (0, 1, failed), (1, 1, failed),
            (0, 2, failed), (1, 2, failed),
            (0, 3, "ok"), (1, 3, "ok"),
        ]
        calls = [
            s for s in telemetry.tracer.spans if s.name == "parser_call"
        ]
        assert [s.attrs["in_process"] for s in calls] == [True, True]

    def test_fault_free_run_reports_clean(self):
        records = _records(40)
        parser = ChunkedParallelParser(_parser_factory, chunk_size=20)
        parser.parse(records)
        assert parser.last_recovery.failures == []
        assert [
            (a.unit, a.attempt) for a in parser.last_recovery.attempts
        ] == [(0, 1), (1, 1)]


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
