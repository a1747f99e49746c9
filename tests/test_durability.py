"""Crash-consistency tests for the durability layer.

Three families of guarantees are exercised here:

* **Atomic whole-file writes** — :class:`AtomicWriter` either commits
  the full new content or leaves the previous file untouched, under
  injected EIO/ENOSPC/fsync faults at scripted byte offsets.
* **Framed JSONL recovery** — :func:`recover_jsonl` finds the longest
  valid prefix of a length+CRC32-framed file for *every possible*
  truncation offset (the property sweep walks each byte), and
  :class:`QuarantineSink` reopened after a simulated crash neither
  loses nor duplicates records.
* **Run manifests** — ``verify_manifest`` catches a single flipped
  byte in any covered artifact, and the ``verify-run`` CLI maps that
  to the data-error exit code (3).

The fault layer is deterministic: every schedule is derived from a
seed (``REPRO_IO_SEED`` in CI) so failures replay exactly.
"""

import json
import os
import zlib

import pytest

from repro.cli import main
from repro.common.errors import ArtifactWriteError, IntegrityError
from repro.resilience.durability import (
    AtomicWriter,
    DurableJsonlWriter,
    RunManifest,
    atomic_write_text,
    ensure_artifact,
    frame_record,
    load_manifest,
    parse_frame,
    read_jsonl_payloads,
    reconcile_jsonl,
    recover_jsonl,
    verify_manifest,
)
from repro.resilience.faults import (
    IO_EIO,
    IO_ENOSPC,
    IO_FSYNC,
    IO_TORN,
    FaultyIO,
    IoFault,
    fault_schedule,
)
from repro.resilience.quarantine import QuarantineRecord, QuarantineSink

IO_SEED = int(os.environ.get("REPRO_IO_SEED", "7"))


def _records(n):
    return [
        QuarantineRecord(
            source="x.log",
            line_no=i,
            byte_offset=i * 10,
            reason="undecodable",
            detail=f"bad byte at {i}",
            preview=f"line-{i}",
        )
        for i in range(n)
    ]


class TestAtomicWriter:
    def test_commits_content_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        with AtomicWriter(str(path)) as writer:
            writer.write("hello\n")
            writer.write("world\n")
        assert path.read_text() == "hello\nworld\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_exception_preserves_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError):
            with AtomicWriter(str(path)) as writer:
                writer.write("partial")
                raise RuntimeError("mid-write crash")
        assert path.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kind", [IO_EIO, IO_ENOSPC])
    def test_write_fault_leaves_target_untouched(self, tmp_path, kind):
        path = tmp_path / "out.txt"
        path.write_text("previous\n")
        io = FaultyIO([IoFault(kind=kind, at_bytes=3)])
        with pytest.raises(ArtifactWriteError):
            with AtomicWriter(str(path), io=io) as writer:
                writer.write("replacement that never lands\n")
        assert path.read_text() == "previous\n"
        assert io.fired, "the scripted fault must actually fire"

    def test_fsync_fault_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous\n")
        io = FaultyIO([IoFault(kind=IO_FSYNC, at_call=1)])
        with pytest.raises(ArtifactWriteError):
            with AtomicWriter(str(path), io=io) as writer:
                writer.write("never committed\n")
        assert path.read_text() == "previous\n"

    def test_atomic_write_text_retries_transient_fault(self, tmp_path):
        path = tmp_path / "out.txt"
        io = FaultyIO([IoFault(kind=IO_EIO, at_bytes=2)])
        atomic_write_text(str(path), "retried content\n", io=io)
        assert path.read_text() == "retried content\n"
        assert len(io.fired) == 1

    def test_one_script_arms_every_life_alike(self, tmp_path):
        """A script shared by two FaultyIO lives fires its one-shot
        fault once in each: the firings left are the layer's count,
        never a field of the caller's fault."""
        script = [IoFault(kind=IO_FSYNC, at_call=3)]
        for life in ("first", "second"):
            io = FaultyIO(script)
            failed = 0
            for index in range(8):
                try:
                    atomic_write_text(
                        str(tmp_path / f"{life}-{index}.txt"), "x\n", io=io
                    )
                except ArtifactWriteError:
                    failed += 1
            assert (failed, len(io.fired)) == (0, 1), life
        assert script == [IoFault(kind=IO_FSYNC, at_call=3)]

    def test_atomic_write_text_exhausts_retries(self, tmp_path):
        path = tmp_path / "out.txt"
        io = FaultyIO(
            [IoFault(kind=IO_EIO, at_bytes=0, times=5)]
        )
        with pytest.raises(ArtifactWriteError):
            atomic_write_text(str(path), "never lands\n", io=io)
        assert not path.exists()

    def test_ensure_artifact_never_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ensure_artifact(str(path))
        assert path.exists() and path.read_bytes() == b""
        path.write_bytes(b"existing content\n")
        ensure_artifact(str(path))
        assert path.read_bytes() == b"existing content\n"


class TestFraming:
    def test_frame_round_trip(self):
        payload = {"kind": "quarantine", "line_no": 3}
        line = frame_record(payload)
        assert line.endswith(b"\n")
        assert parse_frame(line) == payload

    def test_frame_rejects_corrupt_crc(self):
        line = bytearray(frame_record({"a": 1}))
        line[-3] ^= 0xFF  # flip a payload byte; CRC no longer matches
        assert parse_frame(bytes(line)) is None

    def test_payload_stays_greppable(self):
        line = frame_record({"reason": "oversized"})
        assert b'"reason": "oversized"' in line


class TestRecovery:
    def test_recovers_every_torn_byte_offset(self, tmp_path):
        """Property sweep: truncate a framed file at *every* byte.

        Whatever the cut point, recovery must keep exactly the records
        whose final newline survived, and the truncated file must
        recover to itself (idempotence).
        """
        payloads = [{"i": i, "body": "x" * i} for i in range(8)]
        data = b"".join(frame_record(p) for p in payloads)
        boundaries = []
        offset = 0
        for payload in payloads:
            offset += len(frame_record(payload))
            boundaries.append(offset)
        path = tmp_path / "torn.jsonl"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            recovery = recover_jsonl(str(path))
            expected_records = sum(1 for b in boundaries if b <= cut)
            expected_bytes = max(
                [0] + [b for b in boundaries if b <= cut]
            )
            assert len(recovery.records) == expected_records, f"cut={cut}"
            assert recovery.valid_bytes == expected_bytes, f"cut={cut}"
            assert os.path.getsize(path) == expected_bytes
            again = recover_jsonl(str(path))
            assert not again.truncated

    def test_recovers_torn_tail_with_seeded_garbage(self, tmp_path):
        from random import Random

        rng = Random(IO_SEED)
        payloads = [{"i": i} for i in range(5)]
        data = b"".join(frame_record(p) for p in payloads)
        garbage = bytes(
            rng.randrange(256) for _ in range(rng.randrange(1, 64))
        )
        path = tmp_path / "garbage.jsonl"
        path.write_bytes(data + garbage)
        recovery = recover_jsonl(str(path))
        assert len(recovery.records) == 5
        assert recovery.truncated
        assert path.read_bytes() == data

    def test_reconcile_truncates_to_checkpointed_offset(self, tmp_path):
        payloads = [{"i": i} for i in range(6)]
        frames = [frame_record(p) for p in payloads]
        path = tmp_path / "q.jsonl"
        path.write_bytes(b"".join(frames))
        keep = len(frames[0]) + len(frames[1])
        reconcile_jsonl(str(path), keep)
        assert read_jsonl_payloads(str(path)) == payloads[:2]

    def test_reconcile_rejects_lost_records(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_bytes(frame_record({"i": 0}))
        with pytest.raises(IntegrityError):
            reconcile_jsonl(str(path), os.path.getsize(path) + 100)

    def test_reconcile_rejects_mid_record_offset(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_bytes(frame_record({"i": 0}) + frame_record({"i": 1}))
        with pytest.raises(IntegrityError):
            reconcile_jsonl(str(path), len(frame_record({"i": 0})) + 1)


class TestDurableJsonlWriter:
    def test_append_and_read_back(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        with DurableJsonlWriter(path) as writer:
            for i in range(4):
                writer.append({"i": i})
        assert read_jsonl_payloads(path) == [{"i": i} for i in range(4)]

    def test_reopen_after_torn_crash_recovers(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        with DurableJsonlWriter(path) as writer:
            writer.append({"i": 0})
            writer.append({"i": 1})
        with open(path, "ab") as handle:
            handle.write(b"00000040 deadbeef {\"torn")  # crash mid-append
        with DurableJsonlWriter(path) as writer:
            writer.append({"i": 2})
        assert read_jsonl_payloads(path) == [{"i": i} for i in range(3)]

    def test_transient_write_fault_is_retried(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        io = FaultyIO([IoFault(kind=IO_EIO, at_bytes=5)])
        with DurableJsonlWriter(path, io=io) as writer:
            writer.append({"i": 0})
            writer.append({"i": 1})
        assert read_jsonl_payloads(path) == [{"i": 0}, {"i": 1}]
        assert io.fired

    def test_persistent_enospc_diverts_to_alternate_path(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        io = FaultyIO(
            [
                IoFault(
                    kind=IO_ENOSPC,
                    at_bytes=0,
                    times=3,
                    path_contains="w.jsonl",
                )
            ]
        )
        # Three firings: both primary attempts fail, the writer
        # diverts, the first alternate attempt fails too, and the
        # retry on the alternate finally lands the record.
        writer = DurableJsonlWriter(path, io=io)
        writer.append({"i": 0})
        writer.close()
        assert writer.path == path + ".alt"
        assert read_jsonl_payloads(writer.path) == [{"i": 0}]

    def test_offset_tracks_bytes_and_records(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        writer = DurableJsonlWriter(path)
        writer.append({"i": 0})
        bytes_1, records_1 = writer.offset()
        writer.append({"i": 1})
        bytes_2, records_2 = writer.offset()
        writer.close()
        assert (records_1, records_2) == (1, 2)
        assert bytes_2 == os.path.getsize(path)
        assert 0 < bytes_1 < bytes_2


class TestQuarantineSinkDurability:
    def test_reopen_after_crash_loses_and_duplicates_nothing(
        self, tmp_path
    ):
        """First life appends 3 records and 'crashes' with a torn tail;
        the second life appends 2 more.  All 5 must read back once."""
        path = str(tmp_path / "q.jsonl")
        first = QuarantineSink(path)
        for record in _records(3):
            first.add(record)
        first.close()
        with open(path, "ab") as handle:
            handle.write(b"000000ff 00000000 {\"never-finished")
        second = QuarantineSink(path)
        for record in _records(5)[3:]:
            second.add(record)
        second.close()
        loaded = QuarantineSink.read(path)
        assert [entry.line_no for entry in loaded] == [0, 1, 2, 3, 4]

    def test_offset_survives_reopen(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        sink = QuarantineSink(path)
        for record in _records(2):
            sink.add(record)
        offset = sink.offset()
        sink.close()
        assert QuarantineSink(path).offset() == offset
        assert offset[1] == 2


class TestCheckpointDurability:
    def _engine(self):
        from functools import partial

        from repro.parsers import make_parser
        from repro.streaming import StreamingParser

        return StreamingParser(
            partial(make_parser, "SLCT"), flush_size=4
        )

    def test_fsync_failure_keeps_previous_checkpoint(self, tmp_path):
        from repro.common.errors import CheckpointError
        from repro.common.types import LogRecord
        from repro.resilience import load_checkpoint, save_checkpoint

        path = str(tmp_path / "cp.json")
        engine = self._engine()
        engine.feed(LogRecord(content="alpha one"))
        save_checkpoint(path, engine, records_consumed=1, parser="SLCT")
        before = open(path, "rb").read()
        engine.feed(LogRecord(content="alpha two"))
        io = FaultyIO([IoFault(kind=IO_FSYNC, at_call=1, times=4)])
        with pytest.raises(CheckpointError):
            save_checkpoint(
                path, engine, records_consumed=2, parser="SLCT", io=io
            )
        assert open(path, "rb").read() == before
        assert load_checkpoint(path, parser="SLCT").records_consumed == 1

    def test_checkpoint_records_artifact_offsets(self, tmp_path):
        from repro.common.types import LogRecord
        from repro.resilience import load_checkpoint, save_checkpoint

        path = str(tmp_path / "cp.json")
        engine = self._engine()
        engine.feed(LogRecord(content="alpha one"))
        save_checkpoint(
            path,
            engine,
            records_consumed=1,
            parser="SLCT",
            artifacts={"q.jsonl": {"bytes": 120, "records": 2}},
        )
        loaded = load_checkpoint(path, parser="SLCT")
        assert loaded.artifacts == {
            "q.jsonl": {"bytes": 120, "records": 2}
        }


class TestManifest:
    def _run_artifacts(self, tmp_path):
        events = tmp_path / "out.events"
        events.write_text("E1\talpha <*>\nE2\tbeta\n")
        quarantine = tmp_path / "q.jsonl"
        quarantine.write_bytes(
            frame_record({"i": 0}) + frame_record({"i": 1})
        )
        return events, quarantine

    def test_round_trip_verifies(self, tmp_path):
        events, quarantine = self._run_artifacts(tmp_path)
        manifest = RunManifest(run={"command": "test"})
        manifest.add(str(events), codec="lines")
        manifest.add(str(quarantine), codec="framed")
        path = str(tmp_path / "manifest.json")
        manifest.write(path)
        report = verify_manifest(path)
        assert report.ok, report.describe()
        loaded = load_manifest(path)
        assert loaded["artifacts"]["q.jsonl"]["records"] == 2

    def test_detects_single_flipped_byte_in_each_artifact(
        self, tmp_path
    ):
        events, quarantine = self._run_artifacts(tmp_path)
        manifest = RunManifest(run={"command": "test"})
        manifest.add(str(events), codec="lines")
        manifest.add(str(quarantine), codec="framed")
        path = str(tmp_path / "manifest.json")
        manifest.write(path)
        for artifact in (events, quarantine):
            original = artifact.read_bytes()
            flipped = bytearray(original)
            flipped[len(flipped) // 2] ^= 0x01
            artifact.write_bytes(bytes(flipped))
            report = verify_manifest(path)
            assert not report.ok, f"{artifact} flip went undetected"
            assert any(
                artifact.name in problem for problem in report.problems
            )
            artifact.write_bytes(original)
        assert verify_manifest(path).ok

    def test_detects_missing_artifact(self, tmp_path):
        events, _ = self._run_artifacts(tmp_path)
        manifest = RunManifest()
        manifest.add(str(events), codec="lines")
        path = str(tmp_path / "manifest.json")
        manifest.write(path)
        events.unlink()
        report = verify_manifest(path)
        assert not report.ok
        assert any("missing" in p for p in report.problems)


class TestVerifyRunCli:
    def _stream(self, tmp_path, extra=()):
        argv = [
            "stream",
            "SLCT",
            "--dataset",
            "HDFS",
            "--size",
            "400",
            "--seed",
            "7",
            "--output-stem",
            str(tmp_path / "out"),
            "--manifest-out",
            str(tmp_path / "manifest.json"),
            *extra,
        ]
        assert main(argv) == 0

    def test_clean_run_verifies_exit_zero(self, tmp_path, capsys):
        self._stream(tmp_path)
        assert main(["verify-run", str(tmp_path / "manifest.json")]) == 0
        assert "verified" in capsys.readouterr().out

    def test_flipped_byte_exits_data_error(self, tmp_path, capsys):
        self._stream(tmp_path)
        target = tmp_path / "out.structured"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        assert main(["verify-run", str(tmp_path / "manifest.json")]) == 3
        assert "mismatch" in capsys.readouterr().out

    def test_against_agreeing_and_disagreeing_manifests(
        self, tmp_path, capsys
    ):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        self._stream(a)
        self._stream(b)
        assert (
            main(
                [
                    "verify-run",
                    str(a / "manifest.json"),
                    "--against",
                    str(b / "manifest.json"),
                ]
            )
            == 0
        )
        assert "manifests agree" in capsys.readouterr().out
        c = tmp_path / "c"
        c.mkdir()
        argv = [
            "stream",
            "SLCT",
            "--dataset",
            "HDFS",
            "--size",
            "500",  # different size -> different outputs
            "--seed",
            "7",
            "--output-stem",
            str(c / "out"),
            "--manifest-out",
            str(c / "manifest.json"),
        ]
        assert main(argv) == 0
        assert (
            main(
                [
                    "verify-run",
                    str(a / "manifest.json"),
                    "--against",
                    str(c / "manifest.json"),
                ]
            )
            == 3
        )
        assert "disagree" in capsys.readouterr().out


class TestIoFaultSchedule:
    def test_deterministic_for_a_seed(self):
        assert fault_schedule(IoFault, IO_SEED) == fault_schedule(
            IoFault, IO_SEED
        )

    def test_different_seeds_differ(self):
        schedules = {
            tuple(
                (f.kind, f.at_bytes) for f in fault_schedule(IoFault, seed)
            )
            for seed in range(20)
        }
        assert len(schedules) > 1

    def test_cli_survives_io_faults_and_artifacts_verify(
        self, tmp_path, capsys
    ):
        """An --io-faults run must either complete with verifiable
        artifacts or fail with the documented exit codes — never
        commit a corrupt artifact silently."""
        manifest = tmp_path / "manifest.json"
        code = main(
            [
                "stream",
                "SLCT",
                "--dataset",
                "HDFS",
                "--size",
                "400",
                "--seed",
                "7",
                "--io-faults",
                str(IO_SEED),
                "--quarantine-path",
                str(tmp_path / "q.jsonl"),
                "--faults",
                "11",
                "--output-stem",
                str(tmp_path / "out"),
                "--manifest-out",
                str(manifest),
            ]
        )
        capsys.readouterr()
        assert code in (0, 3, 4)
        if code == 0:
            assert main(["verify-run", str(manifest)]) == 0


class TestNoBareWrites:
    #: Output-path modules that must route every write through the
    #: durability layer.  ``open(..., "w")`` outside it reintroduces
    #: the truncate-then-crash window this PR closed.
    GUARDED = [
        "src/repro/cli.py",
        "src/repro/observability/exporters.py",
        "src/repro/observability/events.py",
        "src/repro/observability/tracing.py",
        "src/repro/resilience/checkpoint.py",
        "src/repro/resilience/quarantine.py",
        "src/repro/datasets/loader.py",
    ]

    def test_no_bare_write_mode_opens_on_output_paths(self):
        import re

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        pattern = re.compile(r"""open\([^)]*["'][wax]b?["']""")
        offenders = []
        for relpath in self.GUARDED:
            path = os.path.join(root, relpath)
            with open(path, encoding="utf-8") as handle:
                for line_no, line in enumerate(handle, start=1):
                    if pattern.search(line):
                        offenders.append(f"{relpath}:{line_no}: {line.strip()}")
        assert not offenders, (
            "bare write-mode open() on an output path (use AtomicWriter "
            "/ DurableJsonlWriter):\n" + "\n".join(offenders)
        )
