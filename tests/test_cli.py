"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_arg_parser, exit_code_for, main
from repro.common.errors import (
    BindError,
    CheckpointError,
    DatasetError,
    EvaluationError,
    FallbackExhaustedError,
    MiningError,
    ParserConfigurationError,
    ParserTimeoutError,
    ValidationError,
)


class TestArgParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args([])

    def test_generate_args(self):
        args = build_arg_parser().parse_args(
            ["generate", "HDFS", "out.log", "--size", "10"]
        )
        assert args.command == "generate"
        assert args.size == 10

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["generate", "NoSuch", "x.log"])

    def test_rejects_unknown_parser(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["parse", "NoSuch", "x.log"])


class TestCommands:
    def test_generate_then_parse(self, tmp_path, capsys):
        raw = str(tmp_path / "zk.log")
        assert main(
            ["generate", "Zookeeper", raw, "--size", "200", "--seed", "1"]
        ) == 0
        assert os.path.exists(raw)
        assert main(["parse", "IPLoM", raw]) == 0
        assert os.path.exists(raw + ".events")
        assert os.path.exists(raw + ".structured")
        out = capsys.readouterr().out
        assert "IPLoM" in out

    def test_parse_with_preprocessing(self, tmp_path, capsys):
        raw = str(tmp_path / "hdfs.log")
        main(["generate", "HDFS", raw, "--size", "150", "--seed", "2"])
        assert main(
            ["parse", "SLCT", raw, "--preprocess-dataset", "HDFS"]
        ) == 0
        assert "SLCT" in capsys.readouterr().out

    def test_parse_custom_output_stem(self, tmp_path):
        raw = str(tmp_path / "x.log")
        main(["generate", "Proxifier", raw, "--size", "100", "--seed", "1"])
        stem = str(tmp_path / "result")
        main(["parse", "IPLoM", raw, "--output-stem", stem])
        assert os.path.exists(stem + ".events")

    def test_evaluate(self, capsys):
        assert main(
            [
                "evaluate",
                "IPLoM",
                "Proxifier",
                "--sample-size",
                "200",
                "--seed",
                "1",
            ]
        ) == 0
        assert "F-measure" in capsys.readouterr().out

    def test_mine(self, capsys):
        assert main(
            ["mine", "GroundTruth", "--blocks", "300", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "false alarms" in out

    def test_mine_lke_reports_paper_exclusion(self, capsys):
        # LKE is excluded from the Table III experiment, as in §IV-D:
        # asking for it is a configuration error (exit 2).
        assert main(["mine", "LKE", "--blocks", "100"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_missing_file_fails_cleanly(self, capsys):
        # A missing input file is a data error (exit 3).
        assert main(["parse", "IPLoM", "/nonexistent/file.log"]) == 3
        assert "error" in capsys.readouterr().err

    def test_metrics(self, capsys):
        assert main(
            [
                "metrics",
                "IPLoM",
                "Proxifier",
                "--sample-size",
                "200",
                "--seed",
                "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "rand_index" in out
        assert "purity" in out

    def test_tune(self, capsys):
        assert main(
            [
                "tune",
                "SLCT",
                "Proxifier",
                "--sample-size",
                "200",
                "--seed",
                "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "support" in out


class TestScore:
    def test_label_free_emits_cohesion_and_separation(self, capsys):
        assert main(
            [
                "score",
                "--label-free",
                "--parsers",
                "Drain,Passthrough",
                "--datasets",
                "Proxifier",
                "--sample-size",
                "150",
                "--seed",
                "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cohesion" in out
        assert "separation" in out
        assert "Drain" in out and "Passthrough" in out

    def test_labeled_mode_reports_f_measure(self, capsys):
        assert main(
            [
                "score",
                "--parsers",
                "IPLoM",
                "--datasets",
                "Proxifier",
                "--sample-size",
                "150",
                "--seed",
                "1",
            ]
        ) == 0
        assert "F-measure" in capsys.readouterr().out

    def test_unknown_parser_exits_2_listing_available(self, capsys):
        # The registry error path: a typo'd parser is a configuration
        # error, and the message must name every valid choice.
        assert main(
            ["score", "--label-free", "--parsers", "Drian"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown parser" in err
        from repro.parsers import available_parsers

        for name in available_parsers():
            assert name in err

    def test_unknown_dataset_exits_2(self, capsys):
        assert main(
            ["score", "--label-free", "--datasets", "NoSuch"]
        ) == 2
        assert "error" in capsys.readouterr().err


class TestExitCodes:
    """The error-family → exit-code contract (config=2, data=3, runtime=4)."""

    @pytest.mark.parametrize(
        "error,expected",
        [
            (ParserConfigurationError("x"), 2),
            (ValidationError("x"), 2),
            (EvaluationError("x"), 2),
            (MiningError("x"), 2),
            (DatasetError("x"), 3),
            (ParserTimeoutError("x"), 4),
            (CheckpointError("x"), 4),
            (FallbackExhaustedError("x"), 4),
            (BindError("x"), 4),
        ],
    )
    def test_mapping(self, error, expected):
        assert exit_code_for(error) == expected

    def test_runtime_error_surfaces_as_4(self, tmp_path, capsys):
        raw = str(tmp_path / "x.log")
        main(["generate", "HDFS", raw, "--size", "50", "--seed", "1"])
        code = main(
            [
                "stream",
                "IPLoM",
                raw,
                "--checkpoint",
                str(tmp_path / "missing.json"),
                "--resume",
            ]
        )
        assert code == 4  # CheckpointError: file not found
        assert "checkpoint" in capsys.readouterr().err


class TestSupervise:
    def test_faulted_run_recovers_with_report_and_quarantine(
        self, tmp_path, capsys
    ):
        qpath = str(tmp_path / "q.jsonl")
        code = main(
            [
                "supervise",
                "--dataset",
                "HDFS",
                "--size",
                "300",
                "--seed",
                "7",
                "--chain",
                "IPLoM,SLCT",
                "--faults",
                "11",
                "--fault-every",
                "20",
                "--fault-parser",
                "IPLoM",
                "--fault-parser-fails",
                "2",
                "--retries",
                "2",
                "--retry-delay",
                "0.001",
                "--quarantine-path",
                qpath,
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # FailureReport: the flaky IPLoM burned its retries, SLCT won.
        assert "IPLoM attempt 1: error" in out
        assert "winner: SLCT" in out
        # Quarantine file exists and is non-empty.
        assert os.path.exists(qpath)
        assert os.path.getsize(qpath) > 0
        # The fallback output passed equivalence on the clean subset.
        assert "streaming == batch" in out or "==" in out

    def test_clean_run_first_parser_wins(self, capsys):
        code = main(
            [
                "supervise",
                "--dataset",
                "Proxifier",
                "--size",
                "200",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "winner: IPLoM" in out
        assert "quarantine: empty" in out

    def test_exhausted_chain_exits_4(self, capsys):
        code = main(
            [
                "supervise",
                "--dataset",
                "HDFS",
                "--size",
                "100",
                "--seed",
                "1",
                "--chain",
                "IPLoM",
                "--fault-parser",
                "IPLoM",
                "--fault-parser-fails",
                "99",
                "--retries",
                "2",
                "--retry-delay",
                "0.001",
            ]
        )
        assert code == 4
        assert "fallback chain failed" in capsys.readouterr().err

    def test_every_retry_runs_before_the_fallback(self, capsys):
        # --retries is the one cap on a parser's attempts: the fifth
        # try of a parser that fails four times wins.
        code = main(
            [
                "supervise", "--dataset", "HDFS", "--size", "100",
                "--chain", "IPLoM,SLCT", "--fault-parser", "IPLoM",
                "--fault-parser-fails", "4", "--retries", "5",
                "--retry-delay", "0.001",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for attempt in (1, 2, 3, 4):
            assert f"IPLoM attempt {attempt}: error" in out
        assert "IPLoM attempt 5: ok" in out
        assert "SLCT attempt" not in out
        assert "winner: IPLoM" in out

    def test_unknown_chain_parser_exits_2(self, capsys):
        assert main(["supervise", "--chain", "NoSuch", "--dataset", "HDFS"]) == 2
        assert "unknown parser" in capsys.readouterr().err

    def test_requires_exactly_one_input(self, capsys):
        assert main(["supervise"]) == 2
        capsys.readouterr()


class TestStreamResilience:
    def test_quarantine_path_flag(self, tmp_path, capsys):
        qpath = str(tmp_path / "q.jsonl")
        code = main(
            [
                "stream",
                "IPLoM",
                "--dataset",
                "HDFS",
                "--size",
                "300",
                "--seed",
                "5",
                "--faults",
                "9",
                "--fault-every",
                "25",
                "--quarantine-path",
                qpath,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rejected" in out
        assert os.path.exists(qpath)

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        raw = str(tmp_path / "hdfs.log")
        main(["generate", "HDFS", raw, "--size", "600", "--seed", "4"])
        base_args = ["stream", "IPLoM", raw, "--flush-policy", "prefix"]
        full_stem = str(tmp_path / "full")
        assert main(base_args + ["--output-stem", full_stem]) == 0
        # Checkpointed run (checkpoints every 200 records, finalizes).
        cp = str(tmp_path / "cp.json")
        part_stem = str(tmp_path / "part")
        assert main(
            base_args
            + [
                "--checkpoint",
                cp,
                "--checkpoint-every",
                "200",
                "--output-stem",
                part_stem,
            ]
        ) == 0
        assert os.path.exists(cp)
        assert (
            open(part_stem + ".events").read()
            == open(full_stem + ".events").read()
        )
        capsys.readouterr()

    def test_quarantine_pin_survives_moving_the_run(self, tmp_path, capsys):
        import shutil

        from repro.resilience.durability import (
            frame_record,
            read_jsonl_payloads,
        )

        def stream(root, *extra):
            return main(
                [
                    "stream", "IPLoM", "--dataset", "HDFS", "--size", "300",
                    "--seed", "5", "--faults", "9", "--fault-every", "25",
                    "--quarantine-path", str(root / "q" / "q.jsonl"),
                    "--checkpoint", str(root / "ck" / "cp.json"),
                    *extra,
                ]
            )

        first, moved = tmp_path / "first", tmp_path / "moved"
        (first / "ck").mkdir(parents=True)
        (first / "q").mkdir()
        assert stream(first) == 0
        pins = json.loads((first / "ck" / "cp.json").read_text())["artifacts"]
        assert list(pins) == [
            os.path.join("..", "q", "q.jsonl"), "cp.records.jsonl"
        ]
        kept = read_jsonl_payloads(str(first / "q" / "q.jsonl"))
        shutil.move(str(first), str(moved))
        # A record appended after the checkpoint: the resume rolls it back.
        with open(moved / "q" / "q.jsonl", "ab") as handle:
            handle.write(frame_record({"reason": "after-checkpoint"}))
        assert stream(moved, "--resume") == 0
        assert read_jsonl_payloads(str(moved / "q" / "q.jsonl")) == kept
        capsys.readouterr()

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["stream", "IPLoM", "--dataset", "HDFS", "--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_a_resumed_stream_prints_this_lifes_rate(
        self, tmp_path, monkeypatch, capsys
    ):
        # The rate divides the lines this life fed by this life's time;
        # the line total still counts the restored lines.
        import re

        import repro.cli as cli

        argv = [
            "stream", "SLCT", "--dataset", "HDFS", "--size", "5000",
            "--seed", "7",
        ]

        def printed() -> tuple[str, float]:
            [(lines, rate)] = re.findall(
                r"(\d+) lines \|.*\| ([\d,]+) lines/s",
                capsys.readouterr().out,
            )
            return lines, float(rate.replace(",", ""))

        assert main(argv) == 0
        _, uncut = printed()

        class Cut(BaseException):
            """A kill: no finalize, no last checkpoint."""

        islice = cli.islice

        def cut_at_2500(records, start, stop):
            for index, record in enumerate(islice(records, start, stop)):
                if index == 2500:
                    raise Cut
                yield record

        final = ["--checkpoint", str(tmp_path / "final.json")]
        mid = [
            "--checkpoint", str(tmp_path / "mid.json"),
            "--checkpoint-every", "500",
        ]
        assert main([*argv, *final]) == 0
        monkeypatch.setattr(cli, "islice", cut_at_2500)
        with pytest.raises(Cut):
            main([*argv, *mid])
        monkeypatch.undo()
        capsys.readouterr()
        for checkpoint in (final, mid):
            assert main([*argv, *checkpoint, "--resume"]) == 0
            lines, rate = printed()
            assert lines == "5000"
            assert rate <= 2 * uncut


class TestBudgetedStream:
    def test_budgeted_stream_downgrades_and_reports(self, capsys):
        code = main(
            [
                "stream",
                "LKE",
                "--dataset",
                "HDFS",
                "--size",
                "400",
                "--seed",
                "5",
                "--budget-queue",
                "20",
                "--check-every",
                "25",
                "--flush-size",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "finished on rung Drain after 1 degradation(s)" in out
        assert "anomaly-detection change" in out

    def test_budgeted_stream_writes_outputs(self, tmp_path, capsys):
        stem = str(tmp_path / "budgeted")
        code = main(
            [
                "stream",
                "IPLoM",
                "--dataset",
                "HDFS",
                "--size",
                "200",
                "--budget-queue",
                "100000",
                "--output-stem",
                stem,
            ]
        )
        assert code == 0
        assert os.path.exists(stem + ".events")
        assert os.path.exists(stem + ".structured")
        capsys.readouterr()

    def test_ladder_flag_validates_names(self, capsys):
        code = main(
            [
                "stream",
                "IPLoM",
                "--dataset",
                "HDFS",
                "--ladder",
                "IPLoM,NoSuchRung",
            ]
        )
        assert code == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_budgeted_stream_resumes_to_the_uncut_bytes(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli as cli

        argv = [
            "stream", "LKE", "--dataset", "HDFS", "--size", "400",
            "--seed", "5", "--budget-queue", "40", "--check-every", "10",
            "--flush-size", "30",
        ]
        assert main([*argv, "--output-stem", str(tmp_path / "uncut")]) == 0

        class Cut(BaseException):
            """A kill: no finalize, no last checkpoint."""

        islice = cli.islice

        def cut_at_175(records, start, stop):
            for index, record in enumerate(islice(records, start, stop)):
                if index == 175:
                    raise Cut
                yield record

        checkpointed = [
            "--checkpoint", str(tmp_path / "cp.json"),
            "--checkpoint-every", "50",
            "--output-stem", str(tmp_path / "resumed"),
        ]
        monkeypatch.setattr(cli, "islice", cut_at_175)
        with pytest.raises(Cut):
            main([*argv, *checkpointed])
        monkeypatch.undo()
        saved = json.loads((tmp_path / "cp.json").read_text())
        assert saved["records_consumed"] == 150
        # The ladder stepped at line 90, before the cut's checkpoint.
        assert saved["ladder"]["rungs"] == ["LKE", "Drain"]
        assert saved["ladder"]["position"] == 1
        assert main([*argv, *checkpointed, "--resume"]) == 0
        assert "ladder: LKE -> [Drain]" in capsys.readouterr().out
        for ext in (".events", ".structured"):
            resumed = (tmp_path / f"resumed{ext}").read_bytes()
            assert resumed == (tmp_path / f"uncut{ext}").read_bytes()

    def test_backpressure_shed_flags(self, capsys):
        code = main(
            [
                "stream",
                "IPLoM",
                "--dataset",
                "HDFS",
                "--size",
                "300",
                "--max-pending",
                "50",
                "--overflow",
                "shed",
            ]
        )
        assert code == 0
        capsys.readouterr()


class TestServeIsolation:
    """`serve --isolation process` flags and the status ticker."""

    def _write_stream(self, tmp_path, n=40):
        lines = []
        for i in range(n):
            tenant = ["alpha", "beta"][i % 2]
            lines.append(f"{tenant}\tconn from host{i % 5} port {i}")
        path = tmp_path / "in.log"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_isolation_flag_parses(self):
        args = build_arg_parser().parse_args(
            [
                "serve", "Drain", "d", "--isolation", "process",
                "--watchdog", "2.5", "--poison-threshold", "4",
                "--fence-threshold", "6", "--status-interval", "1.5",
            ]
        )
        assert args.isolation == "process"
        assert args.watchdog == 2.5
        assert args.poison_threshold == 4
        assert args.fence_threshold == 6
        assert args.status_interval == 1.5

    def test_status_interval_journals_supervisor_status(
        self, tmp_path, capsys
    ):
        """Satellite 6: the status line is asserted through the events
        artifact, not stdout scraping."""
        from repro.resilience import read_jsonl_payloads

        stream = self._write_stream(tmp_path)
        events_path = tmp_path / "events.jsonl"
        code = main(
            [
                "serve", "Drain", str(tmp_path / "data"),
                "--replay", str(stream),
                "--isolation", "process",
                "--checkpoint-every", "8",
                "--status-interval", "0.1",
                "--events-out", str(events_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        statuses = [
            event
            for event in read_jsonl_payloads(str(events_path))
            if event["kind"] == "supervisor_status"
        ]
        assert statuses, "at least the final status is always journaled"
        final = statuses[-1]
        assert final["line"].startswith("supervisor: ")
        for tenant in ("alpha", "beta"):
            info = final["tenants"][tenant]
            assert info["state"] in (
                "starting", "running", "replaying", "draining",
                "restarting", "drained", "fenced",
            )
            assert info["restarts"] == 0
            assert isinstance(info["queue"], int)

    def test_process_isolation_replay_completes(self, tmp_path, capsys):
        stream = self._write_stream(tmp_path)
        data = tmp_path / "data"
        code = main(
            [
                "serve", "Drain", str(data),
                "--replay", str(stream),
                "--isolation", "process",
                "--checkpoint-every", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accepted=40" in out
        assert (data / "alpha" / "out.manifest.json").exists()
        assert (data / "beta" / "out.manifest.json").exists()

    def test_process_isolation_accepts_tenant_budget_flags(
        self, tmp_path, capsys
    ):
        stream = self._write_stream(tmp_path)

        def serve(label, *extra):
            assert main(
                [
                    "serve", "LKE", str(tmp_path / label),
                    "--replay", str(stream),
                    "--tenant-budget-queue", "10", "--check-every", "2",
                    "--flush-size", "10", *extra,
                ]
            ) == 0

        serve("thread")
        serve("process", "--isolation", "process", "--checkpoint-every", "8")
        capsys.readouterr()
        for tenant in ("alpha", "beta"):
            checkpoint = tmp_path / "process" / tenant / "out.checkpoint.json"
            # Both stepped LKE -> Drain at line 8.
            assert json.loads(checkpoint.read_text())["ladder"] == {
                "rungs": ["LKE", "Drain"], "position": 1, "streak": 0,
            }
            assert main(
                [
                    "verify-run",
                    str(tmp_path / "process" / tenant / "out.manifest.json"),
                    "--against",
                    str(tmp_path / "thread" / tenant / "out.manifest.json"),
                    "--ignore", "out.checkpoint.json",
                ]
            ) == 0


class TestMaxRetriesUnderBudget:
    """``--max-retries`` reaches the engine on both ``stream`` paths."""

    @pytest.mark.parametrize("budget", [[], ["--budget-mem", "4000"]])
    def test_zero_retries_is_refused(self, budget, capsys):
        code = main(
            [
                "stream", "Drain", "--dataset", "HDFS", "--size", "1000",
                "--max-retries", "0", *budget,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: max_flush_retries must be >= 1, got 0\n"
        )


@pytest.fixture
def held_port():
    """A port some other socket is already listening on."""
    import socket

    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        yield holder.getsockname()[1]


class TestRefusalsKeepTheExitCodeContract:
    """Bind failures exit 4 and unreadable inputs exit 3, each with one
    ``error:`` line and the run's usual telemetry/manifest export."""

    @staticmethod
    def _refused(capsys, argv, code):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @staticmethod
    def _replay_file(tmp_path):
        path = tmp_path / "stream.log"
        path.write_text("alpha\thello 1\nbeta\thello 2\n")
        return str(path)

    def test_serve_port_in_use_exits_4(self, tmp_path, held_port, capsys):
        manifest = tmp_path / "m.json"
        err = self._refused(
            capsys,
            [
                "serve", "Drain", str(tmp_path / "data"),
                "--port", str(held_port), "--manifest-out", str(manifest),
            ],
            4,
        )
        assert f"127.0.0.1:{held_port}" in err
        assert manifest.exists()

    def test_stream_telemetry_port_in_use_exits_4(
        self, tmp_path, held_port, capsys
    ):
        manifest = tmp_path / "m.json"
        self._refused(
            capsys,
            [
                "stream", "SLCT", "--dataset", "HDFS", "--size", "50",
                "--telemetry-port", str(held_port),
                "--manifest-out", str(manifest),
            ],
            4,
        )
        assert manifest.exists()

    def test_serve_telemetry_port_in_use_exits_4(
        self, tmp_path, held_port, capsys
    ):
        manifest = tmp_path / "m.json"
        self._refused(
            capsys,
            [
                "serve", "Drain", str(tmp_path / "data"),
                "--replay", self._replay_file(tmp_path),
                "--telemetry-port", str(held_port),
                "--manifest-out", str(manifest),
            ],
            4,
        )
        assert manifest.exists()

    def test_serve_missing_replay_exits_3(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        err = self._refused(
            capsys,
            [
                "serve", "Drain", str(tmp_path / "data"),
                "--replay", str(tmp_path / "missing.txt"),
                "--manifest-out", str(manifest),
            ],
            3,
        )
        assert "missing.txt" in err
        assert manifest.exists()

    def test_report_on_chrome_trace_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        manifest = tmp_path / "m.json"
        assert main(
            [
                "stream", "SLCT", "--dataset", "HDFS", "--size", "3000",
                "--trace-out", str(trace), "--trace-format", "chrome",
                "--manifest-out", str(manifest),
            ]
        ) == 0
        capsys.readouterr()
        # One JSON document, not one span per line: booked as opaque.
        entry = json.loads(manifest.read_text())["artifacts"]["t.json"]
        assert entry["codec"] == "opaque"
        assert "records" not in entry
        self._refused(capsys, ["report", "--trace", str(trace)], 3)
