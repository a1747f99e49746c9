"""Tiny-size run of every workload, in-process, exercising each oracle —
including artifacts corrupted on purpose, which must fail."""

import os

import pytest

from bench import oracles
from bench.spec import BY_NAME, PER_LAYER, TENANTS, WORKLOAD_NAMES
from bench.trace import Tracer
from bench.workloads import RUNNERS, expected_counts, replay

TINY = {
    # SLCT's relative support (0.0006) needs the shipped 3,000 blocks to
    # reach its floor; see test_undersized_batch_mine_fails_slct_floor.
    "batch_mine": dict(warmup_blocks=40),
    "stream_hot": dict(lines=6_000),
    "stream_cold": dict(lines=6_000),
    "replay_thread": dict(lines=1_500),
    "replay_process": dict(lines=800),
    "wire_thread": dict(
        bulk_sends=2, bulk_lines=300,
        paced=((500, 0.4),), paced_traced=((500, 0.4), (2_000, 0.2)),
    ),
    "wire_process": dict(
        bulk_sends=1, bulk_lines=300,
        paced=((500, 0.4),), paced_traced=((500, 0.4),),
    ),
}


def _run(name, tmp_path, trace=False, seed=3):
    size = {**BY_NAME[name].size, **TINY[name]}
    prepare, run = RUNNERS[name]
    tracer = Tracer(f"{name}/smoke", enabled=trace)
    result = run(size, prepare(size, seed), tracer, str(tmp_path))
    return result, tracer


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_passes_its_oracles_at_tiny_size(name, tmp_path):
    result, _ = _run(name, tmp_path)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {"setup_s", "lines_per_s", "peak_rss_mb"} <= metrics.keys()
    assert all(value > 0 for value in metrics.values())
    assert ("drain_s" in metrics) == name.startswith(("replay_", "wire_"))
    assert ("ack_p50_ms" in metrics) == name.startswith("wire_")


def test_undersized_batch_mine_fails_slct_floor(tmp_path):
    size = {**BY_NAME["batch_mine"].size, "blocks": 300, "warmup_blocks": 40}
    prepare, run = RUNNERS["batch_mine"]
    result = run(size, prepare(size, 3), Tracer("x", enabled=False), str(tmp_path))
    assert any("SLCT: F-measure" in p for p in result["problems"])
    assert result["failed"] == result["attempted"] // 3  # SLCT's pass only


def test_traced_wire_run_adds_the_overload_stage_and_spans(tmp_path):
    result, tracer = _run("wire_thread", tmp_path, trace=True)
    assert result["problems"] == []
    assert "service.server.ack_p50_ms.r2000" in result["info"]
    assert "service.server.backlog_growth.r2000" in result["info"]
    names = {span["name"] for span in tracer.to_records()}
    assert {
        "warmup", "service.client.spool", "service.client.flush",
        "service.server.paced_probe", "service.server.sigterm_to_exit",
    } <= names


def test_traced_stream_run_times_every_feed(tmp_path):
    result, tracer = _run("stream_cold", tmp_path, trace=True)
    assert result["info"]["streaming.engine.feed_max_ms"] > 0
    assert result["info"]["streaming.cache.evictions"] > 0
    names = [span["name"] for span in tracer.to_records()]
    assert "streaming.engine.feed" in names and "streaming.engine.finalize" in names


@pytest.fixture
def replayed(tmp_path):
    from bench import inputs

    stream_in = inputs.tagged_hdfs(600, seed=5)
    data_dir = str(tmp_path / "out")
    run = replay(data_dir, stream_in.lines(), "thread",
                 Tracer("t", enabled=False), "t")
    return data_dir, stream_in, run


def test_clean_outputs_pass_and_a_flipped_byte_fails(replayed):
    data_dir, stream_in, _ = replayed
    expected = expected_counts(stream_in.tenants)
    clean = oracles.Verdict()
    oracles.check_service_outputs(clean, data_dir, expected)
    assert clean.correct

    victim = os.path.join(data_dir, "t0", "out.structured")
    with open(victim, "r+b") as handle:
        handle.seek(40)
        byte = handle.read(1)
        handle.seek(40)
        handle.write(bytes([byte[0] ^ 1]))
    verdict = oracles.Verdict()
    oracles.check_service_outputs(verdict, data_dir, expected)
    assert not verdict.correct
    assert verdict.failed >= expected["t0"]
    assert any("manifest" in problem for problem in verdict.problems)


def test_a_duplicated_line_and_a_lost_line_are_counted(replayed):
    data_dir, stream_in, _ = replayed
    expected = expected_counts(stream_in.tenants)
    path = os.path.join(data_dir, "t1", "out.structured")
    with open(path, "rb") as handle:
        lines = handle.readlines()
    with open(path, "ab") as handle:
        handle.write(lines[-1])
    verdict = oracles.Verdict()
    oracles.check_service_outputs(verdict, data_dir, expected)
    assert any("duplicated" in problem for problem in verdict.problems)
    with open(path, "wb") as handle:
        handle.writelines(lines[:-2])
    verdict = oracles.Verdict()
    oracles.check_service_outputs(verdict, data_dir, expected)
    assert any("lost" in problem for problem in verdict.problems)


def test_digest_mismatch_and_missing_artifact_fail(replayed, tmp_path):
    data_dir, stream_in, _ = replayed
    expected = expected_counts(stream_in.tenants)
    reference = oracles.artifact_digests(data_dir, TENANTS)
    verdict = oracles.Verdict()
    oracles.check_digests_equal(verdict, reference, reference, expected, "same")
    assert verdict.correct
    os.unlink(os.path.join(data_dir, "t2", "out.events"))
    verdict = oracles.Verdict()
    oracles.check_digests_equal(
        verdict, oracles.artifact_digests(data_dir, TENANTS), reference,
        expected, "damaged",
    )
    assert [p for p in verdict.problems if "t2/out.events" in p]
    assert verdict.failed == expected["t2"]


def test_quality_floor_and_pending_lines_fail():
    verdict = oracles.Verdict()
    oracles.check_floor(verdict, "Drain", 0.97, 0.98, lines=1000)
    assert verdict.failed == 1000 and "0.9700 < floor" in verdict.problems[0]

    class Result:
        assignments = ["E1", "PENDING", "E2"]

    class Counters:
        lines, pending = 3, 1

    verdict = oracles.Verdict()
    oracles.check_stream_result(verdict, Result, Counters, 3)
    assert not verdict.correct and "PENDING" in verdict.problems[0]


def test_ladder_reports_every_per_layer_metric(tmp_path, monkeypatch):
    from bench import ladder

    monkeypatch.setitem(ladder.LADDER, "lines", 500)
    monkeypatch.setitem(ladder.LADDER, "blocks", 60)
    monkeypatch.setitem(ladder.LADDER, "logsig_lines", 200)
    monkeypatch.setitem(ladder.LADDER, "lke_lines", 60)
    monkeypatch.setitem(ladder.LADDER, "journal_appends", 100)
    monkeypatch.setitem(ladder.LADDER, "paced", ((500, 0.4), (2_000, 0.2)))
    result = ladder.run_ladder(
        "stream_cold", 3, Tracer("ladder"), str(tmp_path)
    )
    assert result["problems"] == []
    missing = [m.name for m in PER_LAYER if result["layers"].get(m.name) is None]
    # the overload stage is named after its rate: r2000 here, r8000 shipped
    assert missing == [
        "service.server.ack_p50_ms.r8000",
        "service.server.backlog_growth.r8000",
    ]
    assert "service.server.ack_p50_ms.r2000" in result["layers"]
