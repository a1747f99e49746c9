"""Checkpoint/resume certification: a killed stream must finalize identically.

The core guarantee: for every kill point, saving a checkpoint mid-stream,
rebuilding a fresh engine from it, feeding only the remaining records,
and finalizing produces — under the ``prefix`` flush policy — the exact
``.events`` / ``.structured`` byte content of an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from functools import partial

import pytest

import certify
from repro.common.errors import CheckpointError
from repro.common.types import LogRecord
from repro.datasets import generate_dataset, get_dataset_spec
from repro.mining.event_matrix import EventMatrixAccumulator
from repro.parsers import make_parser
from repro.resilience import (
    CHECKPOINT_VERSION,
    FaultyIO,
    IoFault,
    load_checkpoint,
    read_jsonl_payloads,
    record_log_path,
    restore_accumulator,
    restore_streaming_parser,
    save_checkpoint,
)
from repro.resilience.faults import IO_FSYNC
from repro.service.shard import CHECKPOINT_NAME
from repro.streaming import ParseSession, StreamingParser


#: Engine parser for the kill-point sweeps.  CI's durability matrix
#: sets REPRO_STREAM_PARSER to run the same sweeps Drain-headed.
STREAM_PARSER = os.environ.get("REPRO_STREAM_PARSER", "IPLoM")


def _engine(
    flush_policy="prefix", flush_size=64, parser=None, **kwargs
) -> StreamingParser:
    return StreamingParser(
        partial(make_parser, parser or STREAM_PARSER),
        flush_policy=flush_policy,
        flush_size=flush_size,
        **kwargs,
    )


def _output_bytes(result):
    return (
        "\n".join(result.events_file_lines()),
        "\n".join(result.structured_file_lines()),
    )


def _run_uninterrupted(records, **engine_kwargs):
    engine = _engine(**engine_kwargs)
    session = ParseSession(engine)
    session.consume(iter(records))
    return _output_bytes(session.finalize())


def _run_killed_and_resumed(records, kill_at, checkpoint_path, **engine_kwargs):
    # First life: feed up to the kill point, checkpoint, and "die"
    # (no finalize — the process is gone).
    parser_name = engine_kwargs.get("parser") or STREAM_PARSER
    engine = _engine(**engine_kwargs)
    session = ParseSession(engine)
    for record in records[:kill_at]:
        session.feed(record)
    save_checkpoint(
        checkpoint_path,
        engine,
        records_consumed=kill_at,
        parser=parser_name,
        source="<test>",
        accumulator=session.accumulator,
    )
    del engine, session
    # Second life: restore and feed only the remainder.
    checkpoint = load_checkpoint(checkpoint_path, parser=parser_name)
    assert checkpoint.records_consumed == kill_at
    resumed = restore_streaming_parser(
        checkpoint, partial(make_parser, parser_name)
    )
    session = ParseSession(resumed)
    restored = restore_accumulator(checkpoint)
    if restored is not None:
        session.accumulator = restored
    for record in records[kill_at:]:
        session.feed(record)
    return _output_bytes(session.finalize())


@pytest.mark.parametrize("dataset", ["HDFS", "Proxifier", "BGL"])
def test_resume_is_byte_identical_across_datasets(dataset, tmp_path):
    records = generate_dataset(
        get_dataset_spec(dataset), 400, seed=11
    ).records
    baseline = _run_uninterrupted(records)
    for kill_at in (1, 63, 64, 200, 399):
        resumed = _run_killed_and_resumed(
            records, kill_at, str(tmp_path / f"cp-{kill_at}.json")
        )
        assert resumed == baseline, f"divergence killing at {kill_at}"


@pytest.mark.parametrize("dataset", ["HDFS", "Proxifier", "BGL"])
def test_resume_is_byte_identical_with_drain(dataset, tmp_path):
    # The Drain-headed sweep: kill-point resume must stay byte-exact
    # when the flush parser is the incremental Drain backend.
    records = generate_dataset(
        get_dataset_spec(dataset), 400, seed=11
    ).records
    baseline = _run_uninterrupted(records, parser="Drain")
    for kill_at in (1, 63, 64, 200, 399):
        resumed = _run_killed_and_resumed(
            records,
            kill_at,
            str(tmp_path / f"cp-{kill_at}.json"),
            parser="Drain",
        )
        assert resumed == baseline, f"divergence killing at {kill_at}"


def test_resume_every_kth_record_small_stream(toy_records, tmp_path):
    # Exhaustive sweep on a tiny stream: kill after every single record.
    records = toy_records * 6  # 48 lines, crosses the flush boundary
    baseline = _run_uninterrupted(records, flush_size=16)
    for kill_at in range(1, len(records)):
        resumed = _run_killed_and_resumed(
            records,
            kill_at,
            str(tmp_path / "cp.json"),
            flush_size=16,
        )
        assert resumed == baseline, f"divergence killing at {kill_at}"


def test_resume_preserves_counters_and_cache(tmp_path):
    records = generate_dataset(
        get_dataset_spec("HDFS"), 300, seed=5
    ).records
    full = _engine()
    for record in records:
        full.feed(record)
    path = str(tmp_path / "cp.json")
    half = _engine()
    for record in records[:150]:
        half.feed(record)
    save_checkpoint(path, half, records_consumed=150, parser="IPLoM")
    resumed = restore_streaming_parser(
        load_checkpoint(path, parser="IPLoM"), partial(make_parser, "IPLoM")
    )
    for record in records[150:]:
        resumed.feed(record)
    assert resumed.counters.lines == full.counters.lines
    assert resumed.counters.flushes == full.counters.flushes
    assert resumed.counters.exact_hits == full.counters.exact_hits
    assert resumed.counters.template_hits == full.counters.template_hits


def test_accumulator_survives_checkpoint(session_records, tmp_path):
    engine = _engine(flush_size=4)
    session = ParseSession(engine, track_matrix=True)
    for record in session_records[:4]:
        session.feed(record)
    path = str(tmp_path / "cp.json")
    save_checkpoint(
        path, engine, records_consumed=4, parser=STREAM_PARSER,
        accumulator=session.accumulator,
    )
    checkpoint = load_checkpoint(path, parser=STREAM_PARSER)
    restored = restore_accumulator(checkpoint)
    assert restored is not None
    assert restored.state() == session.accumulator.state()


def test_accumulator_round_trip_standalone():
    accumulator = EventMatrixAccumulator()
    accumulator.add("s1", 0)
    accumulator.add("s1", 2)
    accumulator.add("s2", 1)
    clone = EventMatrixAccumulator()
    clone.restore_state(accumulator.state())
    assert clone.state() == accumulator.state()


# ----------------------------------------------------------------------
# Failure modes
# ----------------------------------------------------------------------


def test_load_missing_checkpoint_fails(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(str(tmp_path / "nope.json"), parser=STREAM_PARSER)


def test_load_corrupt_checkpoint_fails(tmp_path):
    path = tmp_path / "cp.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CheckpointError, match="could not read"):
        load_checkpoint(str(path), parser=STREAM_PARSER)
    path.write_text('"a bare string"', encoding="utf-8")
    with pytest.raises(CheckpointError, match="JSON object"):
        load_checkpoint(str(path), parser=STREAM_PARSER)


def test_load_version_mismatch_fails(tmp_path):
    engine = _engine()
    path = str(tmp_path / "cp.json")
    save_checkpoint(path, engine, records_consumed=0, parser=STREAM_PARSER)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    data["version"] = CHECKPOINT_VERSION + 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    with pytest.raises(CheckpointError, match="schema version"):
        load_checkpoint(str(path), parser=STREAM_PARSER)


def test_resume_under_another_parser_is_refused(tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "cp.json")
    argv = [
        "--dataset", "HDFS", "--size", "3000", "--seed", "4",
        "--flush-policy", "prefix", "--checkpoint", path,
        "--checkpoint-every", "1000",
        "--output-stem", str(tmp_path / "out"),
    ]
    assert main(["stream", "Drain", *argv]) == 0
    os.unlink(tmp_path / "out.events")
    # Exit 4, and no output that no calm IPLoM run would produce.
    assert main(["stream", "IPLoM", *argv, "--resume"]) == 4
    assert "cannot resume under 'IPLoM'" in capsys.readouterr().err
    assert not (tmp_path / "out.events").exists()
    assert load_checkpoint(path, parser="Drain").parser == "Drain"
    with pytest.raises(CheckpointError, match="'Drain'.*'IPLoM'"):
        load_checkpoint(path, parser="IPLoM")


def test_restore_config_mismatch_fails(toy_records, tmp_path):
    engine = _engine(flush_size=32)
    for record in toy_records:
        engine.feed(record)
    path = str(tmp_path / "cp.json")
    save_checkpoint(
        path, engine, records_consumed=len(toy_records), parser=STREAM_PARSER
    )
    checkpoint = load_checkpoint(path, parser=STREAM_PARSER)
    # Restoring into an engine built with a different configuration
    # must refuse rather than silently diverge.
    other = _engine(flush_size=16)
    with pytest.raises(CheckpointError, match="flush_size"):
        other.restore_state(checkpoint.engine)


def test_checkpoint_write_is_atomic(toy_records, tmp_path):
    engine = _engine()
    for record in toy_records:
        engine.feed(record)
    path = str(tmp_path / "cp.json")
    save_checkpoint(path, engine, records_consumed=4, parser=STREAM_PARSER)
    first = load_checkpoint(path, parser=STREAM_PARSER)
    # A second snapshot replaces the file wholesale; no .tmp remains.
    save_checkpoint(path, engine, records_consumed=8, parser=STREAM_PARSER)
    assert not (tmp_path / "cp.json.tmp").exists()
    assert load_checkpoint(path, parser=STREAM_PARSER).records_consumed == 8
    assert first.records_consumed == 4


def test_save_checkpoint_to_unwritable_path_fails(toy_records, tmp_path):
    engine = _engine()
    with pytest.raises(CheckpointError, match="could not write"):
        save_checkpoint(
            str(tmp_path / "no-such-dir" / "cp.json"),
            engine,
            records_consumed=0,
            parser=STREAM_PARSER,
        )


# ----------------------------------------------------------------------
# Faulted kill points: crash + IO faults, resumed via the CLI
# ----------------------------------------------------------------------

_FAULT_SIZE = 150
_FAULT_SEED = 11
_FAULT_CORRUPTION_SEED = 13
_FAULT_EVERY = 10


def _faulted_cli_stream(workdir, extra):
    from repro.cli import main

    argv = [
        "stream",
        "IPLoM",
        "--dataset",
        "HDFS",
        "--size",
        str(_FAULT_SIZE),
        "--seed",
        str(_FAULT_SEED),
        "--faults",
        str(_FAULT_CORRUPTION_SEED),
        "--fault-every",
        str(_FAULT_EVERY),
        "--flush-policy",
        "prefix",
        "--flush-size",
        "32",
        "--quarantine-path",
        str(workdir / "q.jsonl"),
        "--checkpoint",
        str(workdir / "cp.json"),
        "--output-stem",
        str(workdir / "out"),
        "--manifest-out",
        str(workdir / "manifest.json"),
        *extra,
    ]
    assert main(argv) == 0


def _faulted_first_life(workdir, kill_at, io_script):
    """One run 'life' that dies: feed *kill_at* records under injected
    IO faults, checkpoint (with artifact offsets), keep feeding a few
    more so quarantine appends land *after* the snapshot, then crash —
    leaving a torn frame on the quarantine tail."""
    from repro.datasets import iter_dataset
    from repro.resilience import (
        FaultyIO,
        IoFault,
        QuarantineSink,
        corrupt_records,
    )

    records = corrupt_records(
        iter_dataset(
            get_dataset_spec("HDFS"), _FAULT_SIZE, seed=_FAULT_SEED
        ),
        seed=_FAULT_CORRUPTION_SEED,
        every=_FAULT_EVERY,
    )
    io = FaultyIO([IoFault(**fault) for fault in io_script])
    qpath = str(workdir / "q.jsonl")
    sink = QuarantineSink(qpath, io=io)
    engine = StreamingParser(
        partial(make_parser, "IPLoM"),
        flush_policy="prefix",
        flush_size=32,
        cache_capacity=4096,
        max_flush_retries=3,
        error_policy="quarantine",
        quarantine=sink,
    )
    session = ParseSession(engine)
    consumed = 0
    for record in records:
        session.feed(record)
        consumed += 1
        if consumed == kill_at:
            qbytes, qrecords = sink.offset()
            save_checkpoint(
                str(workdir / "cp.json"),
                engine,
                records_consumed=consumed,
                parser="IPLoM",
                source="dataset:HDFS",
                accumulator=session.accumulator,
                artifacts={
                    qpath: {"bytes": qbytes, "records": qrecords}
                },
            )
        if consumed == kill_at + 12:
            break
    sink.close()
    # The crash itself: a frame torn mid-append survives on the tail.
    with open(qpath, "ab") as handle:
        handle.write(b'000000f0 deadbeef {"reason": "never-fini')
    return io


@pytest.mark.parametrize(
    "io_script",
    [
        pytest.param(
            [
                {"kind": "torn", "at_bytes": 150},
                {"kind": "torn", "at_bytes": 900},
            ],
            id="torn-writes",
        ),
        pytest.param(
            [
                {"kind": "enospc", "at_bytes": 40},
                {"kind": "enospc", "at_bytes": 700},
            ],
            id="enospc",
        ),
    ],
)
def test_faulted_kill_points_resume_to_fault_free_manifest(
    tmp_path, io_script
):
    """The acceptance sweep: for each kill point, a first life that
    suffers scripted torn-write/ENOSPC faults, checkpoints, keeps
    appending, and dies with a torn quarantine tail must — after
    ``stream --resume`` reconciles the JSONL tail against the
    checkpoint — finalize to artifacts whose manifest is identical to
    an uninterrupted fault-free run's."""
    from repro.resilience import diff_manifests, verify_manifest

    baseline = tmp_path / "baseline"
    baseline.mkdir()
    _faulted_cli_stream(baseline, [])
    assert verify_manifest(str(baseline / "manifest.json")).ok

    fired_total = 0
    for kill_at in (5, 40, 97):
        workdir = tmp_path / f"kill-{kill_at}"
        workdir.mkdir()
        io = _faulted_first_life(workdir, kill_at, io_script)
        fired_total += len(io.fired)
        _faulted_cli_stream(workdir, ["--resume"])
        report = verify_manifest(str(workdir / "manifest.json"))
        assert report.ok, report.describe()
        differences = diff_manifests(
            str(baseline / "manifest.json"),
            str(workdir / "manifest.json"),
            ignore=("cp.json",),
        )
        assert not differences, (
            f"kill at {kill_at}: resumed artifacts diverged from the "
            f"fault-free run:\n" + "\n".join(differences)
        )
    assert fired_total > 0, "the scripted IO faults never fired"


# ----------------------------------------------------------------------
# The record log and its checkpoint: crash states, on both shard hosts
# ----------------------------------------------------------------------

#: CI's durability matrix sets REPRO_IO_SEED; it picks where the torn
#: and short logs below are cut.
IO_SEED = int(os.environ.get("REPRO_IO_SEED", "7"))
_HOSTS = ("thread", "process")
_LINES = [f"conn from host{i % 5} port {i}" for i in range(40)]


def _feed(host, lines) -> None:
    for line in lines:
        host.shard.submit(LogRecord(content=line))


def _tenant_file(data_dir, name: str) -> str:
    return os.path.join(str(data_dir), "t", name)


def _log_path(data_dir) -> str:
    return record_log_path(_tenant_file(data_dir, CHECKPOINT_NAME))


def _first_life(host, data_dir) -> tuple[bytes, bytes]:
    """Checkpoint at 20 lines, then at 30, and crash; returns the
    20-line checkpoint's bytes and the log's bytes at that point."""
    life = certify.Host(host, str(data_dir))
    _feed(life, _LINES[:20])
    life.checkpoint()
    with open(_tenant_file(data_dir, CHECKPOINT_NAME), "rb") as handle:
        checkpoint = handle.read()
    with open(_log_path(data_dir), "rb") as handle:
        log = handle.read()
    _feed(life, _LINES[20:30])
    life.checkpoint()
    life.kill()
    return checkpoint, log


def _resume_matches_calm(host, data_dir, calm_root) -> None:
    """A second life replays the whole stream from the start (v1) and
    drains to what a calm run of it writes, record log included."""
    life = certify.Host(host, str(data_dir))
    _feed(life, _LINES)
    assert life.shard.drain()["lines"] == len(_LINES)
    certify.compare(
        data_dir, certify.calm_run(calm_root, [("t", l) for l in _LINES]),
        ["t"],
    )
    assert len(read_jsonl_payloads(_log_path(data_dir))) == len(_LINES)


@pytest.mark.parametrize("host", _HOSTS)
def test_log_ahead_of_its_checkpoint_is_cut_back_to_the_pin(
    host, tmp_path, calm_root
):
    """The log was appended and fsynced, the checkpoint rename never
    happened: resume truncates the log to the surviving pin."""
    data_dir = tmp_path / "data"
    checkpoint, log = _first_life(host, data_dir)
    with open(_tenant_file(data_dir, CHECKPOINT_NAME), "wb") as handle:
        handle.write(checkpoint)  # the 30-line rename never landed
    assert os.path.getsize(_log_path(data_dir)) > len(log)
    _resume_matches_calm(host, data_dir, calm_root)


@pytest.mark.parametrize("host", _HOSTS)
def test_torn_log_tail_is_cut_on_resume(host, tmp_path, calm_root):
    data_dir = tmp_path / "data"
    _first_life(host, data_dir)
    with open(_log_path(data_dir), "rb") as handle:
        frame = handle.read().splitlines(keepends=True)[-1]
    with open(_log_path(data_dir), "ab") as handle:
        handle.write(frame[: 1 + IO_SEED % (len(frame) - 2)])
    _resume_matches_calm(host, data_dir, calm_root)


@pytest.mark.parametrize("lose", ["short", "missing"])
@pytest.mark.parametrize("host", _HOSTS)
def test_log_short_of_its_pin_refuses_the_shard(host, lose, tmp_path):
    """Like a torn checkpoint: the resuming host refuses to create the
    shard rather than resume from a log that lost pinned records."""
    data_dir = tmp_path / "data"
    _first_life(host, data_dir)
    path = _log_path(data_dir)
    if lose == "missing":
        os.unlink(path)
    else:
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 1 - IO_SEED % 40)
    with pytest.raises(CheckpointError, match="record log"):
        certify.Host(host, str(data_dir))


@pytest.mark.parametrize("then_save", [False, True], ids=["crash", "save"])
@pytest.mark.parametrize("host", _HOSTS)
def test_failed_log_fsync_fails_the_save_and_keeps_the_last_pair(
    host, then_save, tmp_path, calm_root
):
    """EIO on the log's fsync: the save raises and the checkpoint is
    not replaced.  Crashing there, the previous checkpoint and log
    resume on either host; saving again instead rewrites the log from
    its pin."""
    data_dir = tmp_path / "data"
    life = certify.Host("thread", str(data_dir))
    _feed(life, _LINES[:20])
    life.checkpoint()
    with open(_tenant_file(data_dir, CHECKPOINT_NAME), "rb") as handle:
        checkpoint = handle.read()
    _feed(life, _LINES[20:30])
    life.shard.io = FaultyIO(
        [IoFault(kind=IO_FSYNC, path_contains=".records.", times=1)]
    )
    with pytest.raises(CheckpointError, match="record log"):
        life.checkpoint()
    assert life.shard.io.fired, "the scripted fsync fault never fired"
    with open(_tenant_file(data_dir, CHECKPOINT_NAME), "rb") as handle:
        assert handle.read() == checkpoint
    if then_save:
        _feed(life, _LINES[30:35])
        life.checkpoint()
    life.kill()
    _resume_matches_calm(host, data_dir, calm_root)
