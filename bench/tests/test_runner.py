"""The parent side: forked repetitions, the result line, exit codes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, rep
from bench.runner import Session, compare_sets, summaries
from bench.spec import DRIVER_END_TO_END


def test_a_repetition_runs_in_a_forked_child_that_is_reaped():
    session = Session(seed=3, sizes={"stream_hot": {"lines": 4_000}})
    try:
        first, second = session.chunk("stream_hot", "t", reps=2)
    finally:
        session.close()
    assert first["problems"] == [] and session.correct
    assert session.attempted == 8_000 and session.failed == 0
    assert first["metrics"]["lines_per_s"] > 0
    assert len({os.getpid(), first["pid"], second["pid"]}) == 3
    for pid in (first["pid"], second["pid"]):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # reaped
    assert [s["name"] for s in session.spans] == ["datasets.generate"] * len(
        session.spans
    ) and len(session.spans) >= 2  # generated at least twice
    assert not os.path.exists(session.work_root)


def test_a_time_boxed_chunk_runs_until_the_budget_is_used():
    session = Session(seed=3, sizes={"replay_thread": {"lines": 500}})
    try:
        reps = session.chunk("replay_thread", "t", seconds=1.0)
    finally:
        session.close()
    assert len(reps) >= 2 and session.correct


def test_a_child_that_dies_is_an_error_not_a_result(tmp_path):
    def die(workdir):
        os._exit(7)

    with pytest.raises(rep.RepFailed, match="no result"):
        rep.run_forked("doomed", die, str(tmp_path / "w"))


def test_a_child_that_hangs_is_killed_at_the_deadline(tmp_path):
    def hang(workdir):
        import time

        time.sleep(60)

    with pytest.raises(rep.RepFailed, match="no result in 0.3 s"):
        rep.run_forked("stuck", hang, str(tmp_path / "w"), timeout=0.3)


def test_summaries_report_best_in_each_metric_direction():
    reps = [
        {"metrics": {"lines_per_s": 90.0, "setup_s": 1.0, "drain_s": 5.0}},
        {"metrics": {"lines_per_s": 120.0, "setup_s": 0.8}},
        {"metrics": {"lines_per_s": 100.0, "setup_s": 0.9, "drain_s": 4.0}},
    ]
    table = summaries(reps)
    assert table["lines_per_s"]["best"] == 120.0
    assert table["setup_s"]["best"] == 0.8
    assert table["drain_s"]["best"] == 4.0 and table["drain_s"]["n"] == 2
    slower = summaries([{"metrics": {"lines_per_s": 80.0, "setup_s": 0.8}}])
    rows = compare_sets({"w": table}, {"w": slower})
    by_metric = {row[0]: row for row in rows}
    assert by_metric["lines_per_s"][4] == pytest.approx(1 / 3)
    assert by_metric["setup_s"][4] == 0.0
    assert "drain_s" not in by_metric  # absent in a set: not compared


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_driver_invocation_prints_exactly_the_gated_metrics():
    done = _bench(ROOT, "--workload", "replay_thread", "--seed", "5",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 10_000
    assert set(result["metrics"]) == {m.name for m in DRIVER_END_TO_END}
    for metric in DRIVER_END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert result["metrics"][metric.name]["value"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench(tmp_path, "--workload", "stream_hot", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "no program under test" in done.stderr
