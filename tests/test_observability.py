"""Tests for the unified telemetry layer (ISSUE 4).

Covers the metrics registry (histogram bucket boundaries, quantile
estimation, label handling, snapshot ring), the tracer (implicit
parenting, worker-boundary propagation through
:class:`~repro.parsers.parallel.ChunkedParallelParser`), the exporters
(Prometheus render/parse round-trip plus the parser's rejection
cases), the structured event timeline, and the registry-derived
summary line the CLI prints.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from functools import partial

import pytest

from repro.cli import main
from repro.common.errors import ValidationError
from repro.common.types import records_from_contents
from repro.datasets import generate_dataset, get_dataset_spec
from repro.observability import (
    EventLog,
    Histogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
    export_metrics,
    load_events,
    load_jsonl_spans,
    parse_prometheus,
    render_json_snapshot,
    render_prometheus,
    summary_from_registry,
)
from repro.parsers import ChunkedParallelParser, make_parser
from repro.resilience.quarantine import QuarantineRecord
from repro.streaming import ParseSession, StreamingParser


def _slct():
    return make_parser("SLCT")


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_observation_at_bucket_edge_is_le_inclusive(self):
        hist = Histogram([1.0, 2.0, 5.0])
        for value in (1.0, 2.0, 5.0):
            hist.observe(value)
        # Exactly-at-edge observations land in the bucket they bound.
        assert hist.counts == [1, 1, 1]
        assert hist.inf_count == 0

    def test_observation_past_last_bucket_goes_to_inf(self):
        hist = Histogram([1.0, 2.0])
        hist.observe(2.0001)
        assert hist.counts == [0, 0]
        assert hist.inf_count == 1
        assert hist.cumulative()[-1] == (math.inf, 1)

    def test_cumulative_counts_are_non_decreasing(self):
        hist = Histogram([0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        cumulative = [count for _, count in hist.cumulative()]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == 5

    def test_empty_histogram_quantile_is_none(self):
        assert Histogram([1.0]).quantile(0.5) is None

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram([10.0, 20.0])
        for _ in range(10):
            hist.observe(15.0)  # all mass in the (10, 20] bucket
        q50 = hist.quantile(0.5)
        assert 10.0 < q50 <= 20.0

    def test_quantile_of_overflow_saturates_at_last_finite_bound(self):
        hist = Histogram([1.0])
        hist.observe(100.0)
        assert hist.quantile(0.99) == 1.0

    def test_quantile_rejects_out_of_range(self):
        hist = Histogram([1.0])
        hist.observe(0.5)
        with pytest.raises(ValidationError):
            hist.quantile(1.5)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValidationError):
            Histogram([2.0, 1.0])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        with pytest.raises(ValidationError):
            counter.inc(-1)

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        assert registry.counter("x_total", "help") is first
        with pytest.raises(ValidationError):
            registry.gauge("x_total", "help")

    def test_value_of_never_fired_child_is_zero(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "help", labelnames=("kind",))
        assert registry.value("hits_total", kind="exact") == 0.0

    def test_labeled_children_accumulate_independently(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", "help", labelnames=("kind",))
        family.labels(kind="exact").inc(3)
        family.labels(kind="template").inc()
        assert registry.value("hits_total", kind="exact") == 3.0
        assert registry.value("hits_total", kind="template") == 1.0

    def test_collectors_sync_external_state_at_read_time(self):
        registry = MetricsRegistry()
        state = {"lines": 0}
        counter = registry.counter("lines_total", "help")
        registry.register_collector(lambda: counter.sync(state["lines"]))
        state["lines"] = 42
        assert registry.value("lines_total") == 42.0

    def test_snapshot_ring_is_bounded_and_ordered(self):
        clock = iter(range(100)).__next__
        registry = MetricsRegistry(clock=lambda: float(clock()), ring_capacity=3)
        gauge = registry.gauge("g", "help")
        for value in range(5):
            gauge.set(value)
            registry.snapshot()
        ring = registry.ring()
        assert len(ring) == 3
        series = registry.series("g")
        assert [value for _, value in series] == [2.0, 3.0, 4.0]


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestPrometheusExposition:
    def _populated_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("req_total", "requests", ("kind",)).labels(
            kind="a b\"c\\d"
        ).inc(7)
        registry.gauge("depth", "queue depth").set(3)
        hist = registry.histogram("lat_seconds", "latency", buckets=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        return registry

    def test_render_parse_round_trip(self):
        registry = self._populated_registry()
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed["types"]["req_total"] == "counter"
        assert parsed["types"]["lat_seconds"] == "histogram"
        assert parsed["samples"]['req_total{kind="a b\\"c\\\\d"}'] == 7.0
        assert parsed["samples"]["depth"] == 3.0
        assert parsed["samples"]['lat_seconds_bucket{le="+Inf"}'] == 3.0
        assert parsed["samples"]["lat_seconds_count"] == 3.0

    def test_parse_rejects_sample_without_type(self):
        with pytest.raises(ValidationError):
            parse_prometheus("mystery_metric 1\n")

    def test_parse_rejects_non_numeric_value(self):
        text = "# TYPE x counter\nx abc\n"
        with pytest.raises(ValidationError):
            parse_prometheus(text)

    def test_parse_rejects_non_cumulative_histogram(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 3\n"
        )
        with pytest.raises(ValidationError):
            parse_prometheus(text)

    def test_parse_requires_inf_bucket(self):
        text = "# TYPE h histogram\n" 'h_bucket{le="1"} 5\nh_sum 1\nh_count 5\n'
        with pytest.raises(ValidationError):
            parse_prometheus(text)

    def test_json_snapshot_carries_ring_series(self):
        registry = self._populated_registry()
        registry.snapshot()
        payload = json.loads(render_json_snapshot(registry))
        assert payload["samples"]["depth"] == 3.0
        assert len(payload["series"]) == 1

    def test_export_metrics_picks_format_by_suffix(self, tmp_path):
        registry = self._populated_registry()
        prom = tmp_path / "m.prom"
        snapshot = tmp_path / "m.json"
        export_metrics(registry, str(prom))
        export_metrics(registry, str(snapshot))
        parse_prometheus(prom.read_text())
        assert "samples" in json.loads(snapshot.read_text())


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_implicit_parenting_follows_the_open_stack(self):
        tracer = Tracer(trace_id="t")
        with tracer.span("parse_run") as run:
            with tracer.span("chunk") as chunk:
                with tracer.span("parser_call") as call:
                    pass
        assert chunk.parent_id == run.span_id
        assert call.parent_id == chunk.span_id
        assert run.parent_id is None

    def test_finish_twice_is_an_error(self):
        tracer = Tracer()
        span = tracer.start("x")
        tracer.finish(span)
        with pytest.raises(ValidationError):
            tracer.finish(span)

    def test_worker_context_round_trip_preserves_parentage(self):
        parent = Tracer(trace_id="run")
        with parent.span("chunk") as chunk:
            context = parent.worker_context(prefix="w1-")
            worker = Tracer.from_worker_context(context)
            span = worker.start_root("parser_call", parser="SLCT")
            worker.finish(span)
            parent.adopt(worker.serialize())
        spans = {s.name: s for s in parent._closed_spans()}
        assert spans["parser_call"].parent_id == chunk.span_id
        assert spans["parser_call"].trace_id == "run"
        assert spans["parser_call"].span_id.startswith("w1-")

    def test_each_thread_nests_under_its_own_open_spans(self):
        tracer = Tracer()
        opened, nested = threading.Event(), threading.Event()
        spans = {}

        def first() -> None:
            with tracer.span("a") as outer:
                opened.set()
                nested.wait(5)
                with tracer.span("a.child") as child:
                    spans["a"] = (outer, child)

        def second() -> None:
            opened.wait(5)
            with tracer.span("b") as outer:
                with tracer.span("b.child") as child:
                    spans["b"] = (outer, child)
                nested.set()

        threads = [threading.Thread(target=fn) for fn in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert not any(thread.is_alive() for thread in threads)
        for outer, child in spans.values():
            assert outer.parent_id is None
            assert child.parent_id == outer.span_id
        assert len(spans) == 2 and tracer.current is None

    def test_concurrent_threads_keep_their_own_trees(self):
        tracer = Tracer()

        def work(worker: int) -> None:
            for _ in range(200):
                with tracer.span("outer", worker=worker):
                    with tracer.span("inner", worker=worker):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tracer.spans) == 8 * 200 * 2
        assert len({span.span_id for span in tracer.spans}) == len(tracer.spans)
        by_id = {span.span_id: span for span in tracer.spans}
        for span in tracer.spans:
            if span.name == "inner":
                parent = by_id[span.parent_id]
                assert parent.name == "outer"
                assert parent.attrs["worker"] == span.attrs["worker"]
            else:
                assert span.parent_id is None
        assert tracer._stacks == {}

    def test_finish_off_thread_leaves_the_opening_stack(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        closer = threading.Thread(target=tracer.finish, args=(inner,))
        closer.start()
        closer.join(5)
        assert not closer.is_alive() and inner.end_us is not None
        assert tracer.current is outer

    def test_jsonl_and_chrome_exports(self, tmp_path):
        tracer = Tracer()
        with tracer.span("parse_run"):
            with tracer.span("chunk"):
                pass
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.chrome.json"
        tracer.export(str(jsonl), fmt="jsonl")
        tracer.export(str(chrome), fmt="chrome")
        spans = load_jsonl_spans(str(jsonl))
        assert [s.name for s in spans] == ["parse_run", "chunk"]
        payload = json.loads(chrome.read_text())
        assert {event["ph"] for event in payload["traceEvents"]} == {"X"}


class TestWorkerSpanPropagation:
    def test_parallel_parser_spans_cross_the_process_boundary(self):
        telemetry = Telemetry.create(trace_id="pp")
        parser = ChunkedParallelParser(
            _slct, chunk_size=40, workers=2, telemetry=telemetry
        )
        records = records_from_contents(
            [f"open file f{i}.txt by user{i % 3}" for i in range(120)]
        )
        with telemetry.tracer.span("chunk") as chunk:
            parser.parse(records)
        spans = telemetry.tracer._closed_spans()
        calls = [s for s in spans if s.name == "parser_call"]
        assert len(calls) == 3  # 120 records / 40 per chunk
        for call in calls:
            # Worker-side spans serialize back and re-parent under the
            # span that was open at dispatch time.
            assert call.parent_id == chunk.span_id
            assert call.span_id.startswith("w")
            assert call.end_us >= call.start_us

    def test_parallel_factory_spans_nest_under_the_engines_flush_spans(self):
        # The engine has no parallel mode: the paper's §V design is a
        # factory the caller passes in, and its worker spans re-parent
        # under the chunk > parser_call pair the engine always opens.
        telemetry = Telemetry.create()
        engine = StreamingParser(
            partial(
                ChunkedParallelParser,
                _slct,
                chunk_size=200,
                workers=2,
                telemetry=telemetry,
            ),
            flush_size=400,
            telemetry=telemetry,
        )
        engine.parse(
            generate_dataset(get_dataset_spec("HDFS"), 800, seed=3).records
        )
        by_id = {s.span_id: s for s in telemetry.tracer._closed_spans()}
        worker_calls = [
            s
            for s in by_id.values()
            if s.name == "parser_call" and s.span_id.startswith("w")
        ]
        assert any(not s.attrs["in_process"] for s in worker_calls)
        for call in worker_calls:
            flush_call = by_id[call.parent_id]
            assert flush_call.name == "parser_call"
            assert flush_call.attrs["parser"] == "Chunked"
            assert by_id[flush_call.parent_id].name == "chunk"


# ---------------------------------------------------------------------------
# Event timeline
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_emit_envelopes_and_sequences(self):
        clock = iter([0.0, 1.0, 2.5]).__next__
        log = EventLog(clock=clock)
        log.emit("a", x=1)
        log.emit("b", y=2)
        kinds = [event["kind"] for event in log.events]
        assert kinds == ["a", "b"]
        assert [event["seq"] for event in log.events] == [1, 2]

    def test_reserved_keys_are_rejected(self):
        log = EventLog()
        with pytest.raises(ValidationError):
            log.emit("a", seq=9)

    def test_record_uses_the_to_record_contract(self):
        log = EventLog()
        log.record(
            QuarantineRecord(
                source="x.log",
                line_no=3,
                byte_offset=120,
                reason="oversized",
                detail="too long",
                preview="...",
            )
        )
        (event,) = log.of_kind("quarantine")
        assert event["reason"] == "oversized"
        assert event["line_no"] == 3

    def test_jsonl_persistence_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path=str(path)) as log:
            log.emit("ladder_step", to="SLCT")
            log.emit("quarantine", reason="oversized")
        events = load_events(str(path))
        assert [event["kind"] for event in events] == [
            "ladder_step",
            "quarantine",
        ]


# ---------------------------------------------------------------------------
# Registry-backed summaries (satellite 1)
# ---------------------------------------------------------------------------


class TestRegistrySummary:
    def test_summary_matches_session_counters_describe(self):
        telemetry = Telemetry.create()
        dataset = generate_dataset(get_dataset_spec("HDFS"), 600, seed=5)
        engine = StreamingParser(
            _slct, flush_size=128, cache_capacity=256, telemetry=telemetry
        )
        session = ParseSession(engine)
        session.consume(dataset.records)
        session.finalize()
        assert (
            summary_from_registry(telemetry.metrics)
            == session.counters().describe()
        )

    def test_stream_metrics_populate_expected_families(self):
        telemetry = Telemetry.create()
        dataset = generate_dataset(get_dataset_spec("HDFS"), 400, seed=5)
        engine = StreamingParser(_slct, flush_size=100, telemetry=telemetry)
        session = ParseSession(engine)
        session.consume(dataset.records)
        session.finalize()
        metrics = telemetry.metrics
        assert metrics.value("repro_stream_lines_total") == 400.0
        assert metrics.value("repro_stream_flushes_total") >= 1.0
        hits = metrics.value(
            "repro_cache_hits_total", kind="exact"
        ) + metrics.value("repro_cache_hits_total", kind="template")
        misses = metrics.value("repro_cache_misses_total")
        assert hits + misses >= 400.0
        assert metrics.value("repro_stream_flush_seconds") >= 1.0  # count
        assert metrics.value("repro_run_elapsed_seconds") > 0.0

    def test_untracked_session_leaves_the_engine_hooks_alone(self):
        engine = StreamingParser(_slct)
        ParseSession(engine, track_matrix=False)
        assert engine.on_assign is None and engine.on_remap is None

    def test_elapsed_is_read_live_and_frozen_by_finalize(self):
        telemetry = Telemetry.create()
        dataset = generate_dataset(get_dataset_spec("HDFS"), 200, seed=5)
        engine = StreamingParser(_slct, flush_size=100, telemetry=telemetry)
        session = ParseSession(engine)

        def collected() -> float:
            return telemetry.metrics.value("repro_run_elapsed_seconds")

        # Before the first feed there is no run to time.
        assert session.counters().elapsed_seconds == 0.0
        assert collected() == 0.0
        for record in dataset.records[:100]:
            session.feed(record)
        # Mid-stream the clock is read on demand, not per line.
        first = session.counters().elapsed_seconds
        assert 0.0 < first <= collected()
        assert session.counters().elapsed_seconds > first
        for record in dataset.records[100:]:
            session.feed(record)
        session.finalize()
        frozen = session.counters().elapsed_seconds
        assert frozen >= first
        assert session.counters().elapsed_seconds == frozen
        assert collected() == frozen


# ---------------------------------------------------------------------------
# A service hosts engines, not runs
# ---------------------------------------------------------------------------


def _span_tenant(span, by_id) -> str | None:
    """The tenant whose tree holds *span*: its own or its nearest
    ancestor's ``tenant`` attribute."""
    while span is not None:
        if "tenant" in span.attrs:
            return span.attrs["tenant"]
        span = by_id.get(span.parent_id)
    return None


class TestServiceTelemetry:
    @pytest.fixture
    def drained(self, tmp_path):
        from repro.service import IngestionService

        telemetry = Telemetry.create()
        service = IngestionService(
            str(tmp_path), partial(make_parser, "Drain"),
            telemetry=telemetry, flush_size=8,
        )
        lines = [f"{tenant}\tConnection from 10.0.{i}.{i % 7} closed"
                 for tenant, n in (("a", 30), ("b", 10)) for i in range(n)]
        service.submit_lines(lines)
        service.drain()
        return telemetry

    def test_each_tenant_drain_is_its_own_tree(self, drained):
        spans = drained.tracer._closed_spans()
        by_id = {span.span_id: span for span in spans}
        names = [span.name for span in spans]
        assert "parse_run" not in names
        assert names.count("tenant_drain") == 2
        for span in spans:
            if span.name == "tenant_drain":
                assert by_id[span.parent_id].name == "service_drain"
            parent = by_id.get(span.parent_id)
            if "tenant" in span.attrs and parent is not None:
                assert _span_tenant(parent, by_id) in (
                    None, span.attrs["tenant"]
                )

    def test_publishes_no_run_gauges(self, drained):
        samples = parse_prometheus(render_prometheus(drained.metrics))
        assert samples["samples"]["repro_stream_lines_total"] == 40.0
        for name in ("repro_run_lines", "repro_run_elapsed_seconds"):
            assert name not in samples["samples"]


# ---------------------------------------------------------------------------
# CLI acceptance: stream --metrics-out / --trace-out, report subcommand
# ---------------------------------------------------------------------------


class TestCliTelemetry:
    def test_stream_exports_valid_artifacts(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.prom"
        trace_path = tmp_path / "t.jsonl"
        events_path = tmp_path / "e.jsonl"
        assert main(
            [
                "stream", "SLCT", "--dataset", "HDFS", "--size", "1500",
                "--seed", "3",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
                "--events-out", str(events_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "lines/s" in out
        assert "telemetry: wrote" in out
        # The exposition is strictly valid and carries the headline
        # counters of the run.
        parsed = parse_prometheus(metrics_path.read_text())
        assert parsed["samples"]["repro_stream_lines_total"] == 1500.0
        assert parsed["types"]["repro_stream_flush_seconds"] == "histogram"
        assert (
            parsed["samples"]['repro_cache_hits_total{kind="template"}'] > 0
        )
        # The trace nests parse_run > chunk > parser_call with
        # monotonic timestamps.
        spans = load_jsonl_spans(str(trace_path))
        by_id = {span.span_id: span for span in spans}
        runs = [s for s in spans if s.name == "parse_run"]
        chunks = [s for s in spans if s.name == "chunk"]
        calls = [s for s in spans if s.name == "parser_call"]
        assert len(runs) == 1 and chunks and calls
        for chunk in chunks:
            assert chunk.parent_id == runs[0].span_id
        for call in calls:
            assert by_id[call.parent_id].name == "chunk"
        for span in spans:
            assert span.end_us >= span.start_us
            if span.parent_id is not None:
                assert span.start_us >= by_id[span.parent_id].start_us
        # A clean run leaves a valid (empty) timeline artifact.
        assert events_path.exists()

    def test_budgeted_stream_emits_ladder_telemetry(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        events_path = tmp_path / "e.jsonl"
        assert main(
            [
                "stream", "LKE", "--dataset", "HDFS", "--size", "400",
                "--seed", "5", "--budget-queue", "20",
                "--check-every", "25", "--flush-size", "20",
                "--metrics-out", str(metrics_path),
                "--events-out", str(events_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "finished on rung" in out
        samples = json.loads(metrics_path.read_text())["samples"]
        steps = sum(
            value
            for name, value in samples.items()
            if name.startswith("repro_ladder_steps_total")
        )
        assert steps >= 1
        assert any(
            name.startswith("repro_budget_breaches_total") for name in samples
        )
        steps = [
            event
            for event in load_events(str(events_path))
            if event["kind"] == "ladder_step"
        ]
        assert steps and steps[0]["from"] == "LKE"

    def test_supervise_exports_attempt_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.prom"
        events_path = tmp_path / "e.jsonl"
        assert main(
            [
                "supervise", "--dataset", "HDFS", "--size", "300",
                "--seed", "3", "--chain", "IPLoM,SLCT",
                "--fault-parser", "IPLoM", "--fault-parser-fails", "5",
                "--retries", "1",
                "--metrics-out", str(metrics_path),
                "--events-out", str(events_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "winner: SLCT" in out
        parsed = parse_prometheus(metrics_path.read_text())
        assert parsed["samples"][
            'repro_supervisor_attempts_total{parser="IPLoM",status="error"}'
        ] >= 1
        assert parsed["samples"][
            'repro_supervisor_attempts_total{parser="SLCT",status="ok"}'
        ] == 1
        kinds = {event["kind"] for event in load_events(str(events_path))}
        assert "fallback_report" in kinds

    def test_report_renders_post_mortem(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.prom"
        trace_path = tmp_path / "t.jsonl"
        assert main(
            [
                "stream", "SLCT", "--dataset", "HDFS", "--size", "600",
                "--seed", "3", "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["report", "--metrics", str(metrics_path), "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "# Run report" in out
        assert "## Throughput" in out
        assert "parse_run" in out

    def test_report_without_artifacts_is_a_config_error(self, capsys):
        assert main(["report"]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_missing_file_is_a_data_error(self, capsys):
        assert main(["report", "--metrics", "/nonexistent/m.prom"]) == 3
        assert "error" in capsys.readouterr().err

    def test_soak_exports_degradation_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.prom"
        assert main(
            [
                "soak", "slow-consumer",
                "--metrics-out", str(metrics_path),
            ]
        ) == 0
        capsys.readouterr()
        parsed = parse_prometheus(metrics_path.read_text())
        ladder_steps = sum(
            value
            for name, value in parsed["samples"].items()
            if name.startswith("repro_ladder_steps_total")
        )
        assert ladder_steps >= 2


class TestSupervisorTelemetry:
    """Process-isolation metrics flow into the exposition and report."""

    def _crashy_serve(self, tmp_path):
        import functools

        from repro.common.types import LogRecord
        from repro.parsers import make_parser
        from repro.resilience import ProcessFault
        from repro.resilience.faults import PROC_EXIT
        from repro.service import ShardSupervisor

        telemetry = Telemetry.create(trace_id="t")
        fault = ProcessFault(PROC_EXIT, at_record=5, exit_code=3)
        supervisor = ShardSupervisor(
            "alpha", str(tmp_path / "data"),
            functools.partial(make_parser, "Drain"),
            parser_name="Drain", telemetry=telemetry,
            checkpoint_every=4, heartbeat_interval=0.02, watchdog=0.4,
            faults=(fault,),
        )
        for i in range(20):
            supervisor.submit(
                LogRecord(content=f"conn from host{i % 3} port {i}")
            )
        supervisor.drain()
        return telemetry

    def test_exposition_carries_supervisor_families(self, tmp_path):
        telemetry = self._crashy_serve(tmp_path)
        text = render_prometheus(telemetry.metrics)
        parsed = parse_prometheus(text)
        assert parsed["types"]["repro_shard_restarts_total"] == "counter"
        assert parsed["types"]["repro_shard_poison_records_total"] == (
            "counter"
        )
        assert parsed["types"]["repro_worker_heartbeat_age_seconds"] == (
            "gauge"
        )
        assert parsed["samples"][
            'repro_shard_restarts_total{tenant="alpha",status="error"}'
        ] == 1.0
        assert parsed["samples"][
            'repro_shard_state{tenant="alpha",state="drained"}'
        ] == 1.0
        assert (
            'repro_worker_heartbeat_age_seconds{tenant="alpha"}'
            in parsed["samples"]
        )

    def test_report_renders_shard_section(self, tmp_path, capsys):
        telemetry = self._crashy_serve(tmp_path)
        metrics_path = tmp_path / "m.prom"
        export_metrics(telemetry.metrics, str(metrics_path))
        assert main(["report", "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "## Shards" in out
        assert "alpha: 1 restart(s) (1 error)" in out
