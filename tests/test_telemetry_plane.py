"""The live telemetry plane: scrape endpoint, live sync, SLOs, alerts.

Contracts certified here:

* **Scrape endpoint** — ``/metrics`` serves the registry as strict
  Prometheus text exposition (every response passes
  ``parse_prometheus``), ``/healthz`` maps the service health verdict
  to 200/503, ``/status`` serves the supervisor JSON, and unknown
  paths 404 — all without perturbing ingest.
* **Continuous cross-process sync** — a process-isolated service's
  parent registry advances *mid-run* (per-tenant lines, cache
  traffic, SLO histograms) from worker heartbeat/checkpoint deltas;
  no drain required, worker restarts never double-count, and
  histograms accumulate across worker lives.
* **Scrape isolation** — N threads hammering ``/metrics`` throughout
  a multi-tenant replay leave the run's artifacts byte-identical to
  an unscraped run: a row of the certification matrix
  (``tests/certify.py``).
* **Alert rules** — threshold and multi-window burn-rate rules are
  deterministic under an injected clock; only state *transitions*
  emit events; the durable alert log survives a torn tail.
* **Satellites** — heartbeat-age gauges refresh at read time with no
  status ticker (S1); ``serve`` journals ``supervisor_status`` on
  checkpoint acks without ``--status-interval`` (S2); every
  ``repro_*`` family referenced in the source is schema-registered
  with non-empty HELP text (S5).
"""

import json
import os
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

import certify
from certify import FAST, FakeClock, conn_lines, factory, wait_for
from repro.cli import main
from repro.common.errors import ValidationError
from repro.common.types import LogRecord
from repro.observability import (
    AlertEngine,
    BurnRateRule,
    Histogram,
    Telemetry,
    TelemetryServer,
    ThresholdRule,
    default_rules,
    load_alerts,
    load_events,
    merge_histogram_states,
    parse_prometheus,
)
from repro.observability.alerts import SEV_PAGE, STATE_FIRING, STATE_RESOLVED
from repro.observability.httpd import PROMETHEUS_CONTENT_TYPE
from repro.observability.tracing import Tracer
from repro.resilience import ProcessFault
from repro.resilience.faults import PROC_KILL
from repro.service import IngestionService, ShardSupervisor, replay_lines
from repro.service.workers import STATE_FENCED

def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8")


# ---------------------------------------------------------------------------
# Histogram state shipping
# ---------------------------------------------------------------------------


class TestHistogramState:
    def test_state_sync_round_trip(self):
        source = Histogram((0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            source.observe(value)
        target = Histogram((0.1, 1.0))
        target.sync_state(source.state())
        assert target.counts == source.counts
        assert target.inf_count == source.inf_count
        assert target.sum == source.sum
        assert target.count == source.count

    def test_sync_rejects_bucket_mismatch(self):
        source = Histogram((0.1, 1.0))
        target = Histogram((0.1, 2.0))
        with pytest.raises(ValidationError):
            target.sync_state(source.state())

    def test_merge_sums_and_tolerates_none(self):
        a = Histogram((0.1, 1.0))
        a.observe(0.05)
        b = Histogram((0.1, 1.0))
        b.observe(0.5)
        b.observe(9.0)
        merged = merge_histogram_states(a.state(), b.state())
        assert merged["count"] == 3
        assert merged["inf"] == 1
        assert merged["sum"] == pytest.approx(9.55)
        assert merge_histogram_states(None, a.state()) == a.state()
        assert merge_histogram_states(a.state(), None) == a.state()
        assert merge_histogram_states(None, None) is None

    def test_merge_rejects_bucket_mismatch(self):
        a = Histogram((0.1,))
        b = Histogram((0.2,))
        with pytest.raises(ValidationError):
            merge_histogram_states(a.state(), b.state())

    def test_serialize_new_ships_each_span_once(self):
        tracer = Tracer(trace_id="t", clock_us=iter(range(100)).__next__)
        tracer.finish(tracer.start("a"))
        spans, cursor = tracer.serialize_new(0)
        assert [s["name"] for s in spans] == ["a"]
        spans, cursor = tracer.serialize_new(cursor)
        assert spans == []
        tracer.finish(tracer.start("b"))
        spans, cursor = tracer.serialize_new(cursor)
        assert [s["name"] for s in spans] == ["b"]
        assert cursor == 2


# ---------------------------------------------------------------------------
# The HTTP endpoint
# ---------------------------------------------------------------------------


class TestTelemetryServer:
    def test_metrics_parses_strictly_with_content_type(self):
        telemetry = Telemetry.create(trace_id="t")
        telemetry.metrics.get("repro_stream_lines_total").inc(7)
        with TelemetryServer(telemetry.metrics) as server:
            with urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == (
                    PROMETHEUS_CONTENT_TYPE
                )
                body = response.read().decode("utf-8")
        families = parse_prometheus(body)
        assert families["samples"]["repro_stream_lines_total"] == 7.0

    def test_healthz_maps_ok_to_200_and_503(self):
        telemetry = Telemetry.create(trace_id="t")
        verdict = {"ok": True, "tenants": {}}
        with TelemetryServer(
            telemetry.metrics, health=lambda: verdict
        ) as server:
            status, body = _get(f"{server.url}/healthz")
            assert status == 200
            assert json.loads(body)["ok"] is True
            verdict["ok"] = False
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read().decode())["ok"] is False

    def test_status_serves_callable_json(self):
        telemetry = Telemetry.create(trace_id="t")
        with TelemetryServer(
            telemetry.metrics,
            status=lambda: {"tenants": {"a": {"state": "running"}}},
        ) as server:
            status, body = _get(f"{server.url}/status")
        assert status == 200
        assert json.loads(body)["tenants"]["a"]["state"] == "running"

    def test_unknown_path_404_lists_routes(self):
        telemetry = Telemetry.create(trace_id="t")
        with TelemetryServer(telemetry.metrics) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/nope")
            assert excinfo.value.code == 404
            payload = json.loads(excinfo.value.read().decode())
        assert "/metrics" in payload["paths"]

    def test_port_zero_publishes_ephemeral_port(self):
        telemetry = Telemetry.create(trace_id="t")
        server = TelemetryServer(telemetry.metrics)
        assert server.port == 0
        server.start()
        try:
            assert server.port > 0
            assert str(server.port) in server.url
        finally:
            server.stop()


class TestWatchReconnect:
    """``watch`` rides out endpoint restarts instead of crashing."""

    def test_bounded_watch_ends_dark_with_runtime_exit(self, capsys):
        # Nothing ever listens here: every poll fails, the banner
        # shows, and a bounded run must not pretend success.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        code = main(
            [
                "watch", f"http://127.0.0.1:{dead_port}",
                "--iterations", "2", "--interval", "0.05",
            ]
        )
        assert code == 4
        out = capsys.readouterr().out
        assert "DISCONNECTED" in out
        assert "retrying in" in out

    def test_watch_survives_endpoint_restart(self, capsys):
        telemetry = Telemetry.create(trace_id="t")
        first = TelemetryServer(
            telemetry.metrics, status=lambda: {"isolation": "thread"}
        )
        first.start()
        port = first.port
        # The endpoint dies (a serve restart)...
        first.stop()
        second = TelemetryServer(
            telemetry.metrics,
            port=port,
            status=lambda: {"isolation": "thread"},
        )

        def revive() -> None:
            time.sleep(0.4)
            second.start()

        reviver = threading.Thread(target=revive, daemon=True)
        reviver.start()
        try:
            code = main(
                [
                    "watch", f"http://127.0.0.1:{port}",
                    "--iterations", "8", "--interval", "0.2",
                ]
            )
        finally:
            reviver.join()
            second.stop()
        # ...and watch reconnects: the run ends on a live frame.
        assert code == 0
        out = capsys.readouterr().out
        assert "DISCONNECTED" in out
        assert out.rstrip().endswith("alerts: none firing")


# ---------------------------------------------------------------------------
# Alert rules (deterministic under a fake clock)
# ---------------------------------------------------------------------------


class TestThresholdRule:
    def test_fires_after_for_seconds_and_resolves(self):
        clock = FakeClock()
        telemetry = Telemetry.create(trace_id="t", clock=clock)
        gauge = telemetry.metrics.get(
            "repro_worker_heartbeat_age_seconds"
        ).labels(tenant="a")
        rule = ThresholdRule(
            "stall",
            "repro_worker_heartbeat_age_seconds",
            threshold=5.0,
            for_seconds=2.0,
        )
        engine = AlertEngine(telemetry.metrics, [rule], clock=clock)
        gauge.set(9.0)
        assert engine.tick() == []  # breached but not held long enough
        clock.advance(2.0)
        fired = engine.tick()
        assert [e.state for e in fired] == [STATE_FIRING]
        assert fired[0].labels == {"tenant": "a"}
        assert engine.tick() == [], "no duplicate while still firing"
        gauge.set(0.5)
        resolved = engine.tick()
        assert [e.state for e in resolved] == [STATE_RESOLVED]
        assert engine.active() == []

    def test_rejects_unknown_op(self):
        with pytest.raises(ValidationError):
            ThresholdRule("x", "m", threshold=1.0, op="!=")


class TestBurnRateRule:
    def _engine(self, clock, telemetry, **kwargs):
        rule = BurnRateRule(
            "burn",
            "repro_tenant_quarantined_total",
            (
                "repro_tenant_lines_total",
                "repro_tenant_quarantined_total",
            ),
            objective=kwargs.pop("objective", 0.9),
            fast_window=kwargs.pop("fast_window", 10.0),
            slow_window=kwargs.pop("slow_window", 40.0),
            factor=kwargs.pop("factor", 2.0),
        )
        return rule, AlertEngine(telemetry.metrics, [rule], clock=clock)

    def test_fires_only_when_both_windows_burn(self):
        clock = FakeClock()
        telemetry = Telemetry.create(trace_id="t", clock=clock)
        lines = telemetry.metrics.get("repro_tenant_lines_total").labels(
            tenant="a"
        )
        bad = telemetry.metrics.get(
            "repro_tenant_quarantined_total"
        ).labels(tenant="a")
        rule, engine = self._engine(clock, telemetry)
        lines.inc(100)
        assert engine.tick() == [], "no errors, no burn"
        # 50% error ratio against a 10% budget = 5x burn in both
        # windows once enough samples accumulate.
        for _ in range(5):
            clock.advance(5.0)
            lines.inc(10)
            bad.inc(10)
            events = engine.tick()
        assert any(e.state == STATE_FIRING for e in events) or (
            engine.active()
        )
        active = engine.active()
        assert active and active[0]["rule"] == "burn"
        assert active[0]["labels"] == {"tenant": "a"}
        assert active[0]["value"] >= 2.0

    def test_brief_blip_does_not_fire_slow_window(self):
        clock = FakeClock()
        telemetry = Telemetry.create(trace_id="t", clock=clock)
        lines = telemetry.metrics.get("repro_tenant_lines_total").labels(
            tenant="a"
        )
        bad = telemetry.metrics.get(
            "repro_tenant_quarantined_total"
        ).labels(tenant="a")
        rule, engine = self._engine(
            clock, telemetry, fast_window=5.0, slow_window=40.0
        )
        # Long clean history fills the slow window...
        for _ in range(8):
            lines.inc(100)
            engine.tick()
            clock.advance(5.0)
        # ...then one bad burst: the fast window burns, the slow one
        # has absorbed too much clean traffic to cross the factor.
        bad.inc(2)
        lines.inc(2)
        engine.tick()
        clock.advance(1.0)
        events = engine.tick()
        assert not any(e.state == STATE_FIRING for e in events)
        assert engine.active() == []

    def test_budget_remaining_gauge_published(self):
        clock = FakeClock()
        telemetry = Telemetry.create(trace_id="t", clock=clock)
        telemetry.metrics.get("repro_tenant_lines_total").labels(
            tenant="a"
        ).inc(100)
        rule, engine = self._engine(clock, telemetry)
        engine.tick()
        clock.advance(1.0)
        engine.tick()
        assert telemetry.metrics.value(
            "repro_tenant_error_budget_remaining", tenant="a"
        ) == 1.0

    def test_rejects_bad_windows_and_objective(self):
        with pytest.raises(ValidationError):
            BurnRateRule("x", "n", "d", objective=1.0)
        with pytest.raises(ValidationError):
            BurnRateRule("x", "n", "d", fast_window=60.0, slow_window=30.0)


class TestAlertEngineDurability:
    def test_transitions_counted_in_registry(self, tmp_path):
        clock = FakeClock()
        telemetry = Telemetry.create(trace_id="t", clock=clock)
        gauge = telemetry.metrics.get(
            "repro_worker_heartbeat_age_seconds"
        ).labels(tenant="a")
        rule = ThresholdRule(
            "stall",
            "repro_worker_heartbeat_age_seconds",
            threshold=1.0,
        )
        engine = AlertEngine(
            telemetry.metrics, [rule], clock=clock,
            events=telemetry.events,
        )
        gauge.set(5.0)
        engine.tick()
        assert telemetry.metrics.value(
            "repro_alerts_total", rule="stall", state="firing"
        ) == 1.0
        assert telemetry.metrics.value("repro_alerts_active") == 1.0
        gauge.set(0.0)
        engine.tick()
        assert telemetry.metrics.value(
            "repro_alerts_total", rule="stall", state="resolved"
        ) == 1.0
        assert telemetry.metrics.value("repro_alerts_active") == 0.0
        kinds = [e["kind"] for e in telemetry.events.events]
        assert kinds.count("alert") == 2

    def test_alert_log_survives_torn_tail(self, tmp_path):
        log_path = str(tmp_path / "alerts.jsonl")
        clock = FakeClock()
        telemetry = Telemetry.create(trace_id="t", clock=clock)
        telemetry.metrics.get(
            "repro_worker_heartbeat_age_seconds"
        ).labels(tenant="a").set(9.0)
        with AlertEngine(
            telemetry.metrics,
            [
                ThresholdRule(
                    "stall",
                    "repro_worker_heartbeat_age_seconds",
                    threshold=1.0,
                )
            ],
            clock=clock,
            log_path=log_path,
        ) as engine:
            assert len(engine.tick()) == 1
        with open(log_path, "ab") as handle:
            handle.write(b"\x00\x07torn-frame-garbage")
        alerts = load_alerts(log_path)
        assert len(alerts) == 1
        assert alerts[0]["rule"] == "stall"
        assert alerts[0]["state"] == STATE_FIRING
        assert alerts[0]["labels"] == {"tenant": "a"}


# ---------------------------------------------------------------------------
# Live cross-process sync + acceptance scenarios
# ---------------------------------------------------------------------------


class TestLiveProcessSync:
    def test_mid_run_scrape_shows_advancing_tenant_counters(self, tmp_path):
        """Acceptance: two process-isolated tenants, a mid-run /metrics
        scrape shows nonzero, monotonically advancing per-tenant
        counters for both — before any drain."""
        telemetry = Telemetry.create(trace_id="t")
        service = IngestionService(
            str(tmp_path / "data"),
            factory(),
            parser_name="Drain",
            telemetry=telemetry,
            isolation="process",
            worker_kwargs=dict(checkpoint_every=50, **FAST),
        )
        lines = []
        for i in range(1500):
            lines.append(f"alpha\tproc a{i % 7} started on node-{i % 13}")
            lines.append(f"beta\tconn b{i % 5} closed from host-{i % 11}")
        replayer = threading.Thread(
            target=replay_lines, args=(service, lines), daemon=True
        )
        with TelemetryServer(telemetry.metrics) as server:
            replayer.start()
            deadline = time.monotonic() + 30
            first = None
            while time.monotonic() < deadline:
                _, body = _get(f"{server.url}/metrics")
                samples = parse_prometheus(body)["samples"]
                alpha = samples.get(
                    'repro_tenant_lines_total{tenant="alpha"}', 0.0
                )
                beta = samples.get(
                    'repro_tenant_lines_total{tenant="beta"}', 0.0
                )
                if alpha > 0 and beta > 0:
                    first = (alpha, beta)
                    break
                time.sleep(0.05)
            assert first is not None, (
                "per-tenant counters never went nonzero mid-run"
            )
            # Monotonic advance while the replay is still feeding.
            advanced = None
            while time.monotonic() < deadline:
                _, body = _get(f"{server.url}/metrics")
                samples = parse_prometheus(body)["samples"]
                now = (
                    samples['repro_tenant_lines_total{tenant="alpha"}'],
                    samples['repro_tenant_lines_total{tenant="beta"}'],
                )
                assert now[0] >= first[0] and now[1] >= first[1]
                if now[0] > first[0] and now[1] > first[1]:
                    advanced = now
                    break
                time.sleep(0.05)
            assert advanced is not None, "counters never advanced mid-run"
            replayer.join(timeout=60)
            service.drain()
            _, body = _get(f"{server.url}/metrics")
        samples = parse_prometheus(body)["samples"]
        assert samples['repro_tenant_lines_total{tenant="alpha"}'] == 1500.0
        assert samples['repro_tenant_lines_total{tenant="beta"}'] == 1500.0
        # SLO histograms shipped across the process boundary.
        assert samples[
            'repro_tenant_ingest_latency_seconds_count{tenant="alpha"}'
        ] >= 1.0
        assert samples[
            'repro_tenant_queue_wait_seconds_count{tenant="beta"}'
        ] >= 1.0

    def test_restart_does_not_double_count_lines(self, tmp_path):
        """Worker counters re-climb from the checkpoint after a crash;
        the high-water sync must count each line exactly once."""
        telemetry = Telemetry.create(trace_id="t")
        pill = ProcessFault(PROC_KILL, at_record=30, lives=(1,))
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, checkpoint_every=10, faults=(pill,),
            poison_threshold=5, fence_threshold=10, **FAST,
        )
        for line in conn_lines(60):
            sup.submit(LogRecord(content=line))
        summary = sup.drain()
        assert summary["lines"] == 60
        assert telemetry.metrics.value(
            "repro_tenant_lines_total", tenant="t"
        ) == 60.0
        assert telemetry.metrics.value(
            "repro_service_lines_total", tenant="t"
        ) == 60.0

    @pytest.mark.parametrize("isolation", ["thread", "process"])
    def test_service_lines_count_the_engine_across_lives(
        self, tmp_path, isolation
    ):
        """``repro_service_lines_total`` reads the engine's cumulative
        line count on either host, so a resumed service that replays
        40 lines over a drained 30 reads 40, not its own life's 10."""
        lines = [f"a\t{line}" for line in conn_lines(40)]

        def life(batch):
            telemetry = Telemetry.create(trace_id="t")
            service = IngestionService(
                str(tmp_path), factory(), parser_name="Drain",
                telemetry=telemetry, isolation=isolation,
                worker_kwargs=dict(FAST) if isolation == "process" else None,
            )
            replay_lines(service, batch)
            service.drain()
            return telemetry.metrics.value

        life(lines[:30])
        value = life(lines)
        assert value("repro_service_lines_total", tenant="a") == 40.0
        assert value("repro_tenant_lines_total", tenant="a") == 40.0

    def test_histograms_accumulate_across_worker_lives(self, tmp_path):
        telemetry = Telemetry.create(trace_id="t")
        pill = ProcessFault(PROC_KILL, at_record=25, lives=(1,))
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, checkpoint_every=10, faults=(pill,),
            poison_threshold=5, fence_threshold=10, **FAST,
        )
        for line in conn_lines(60):
            sup.submit(LogRecord(content=line))
        sup.drain()
        family = telemetry.metrics.get("repro_tenant_ingest_latency_seconds")
        child = dict(family.children())[("t",)]
        # Every line was fed exactly once across both lives; the
        # merged histogram must cover at least the second life's share
        # and never exceed one observation per line.
        assert 0 < child.count <= 60

    def test_healthz_flips_503_when_a_shard_fences(self, tmp_path):
        telemetry = Telemetry.create(trace_id="t")
        faults = tuple(
            ProcessFault(PROC_KILL, at_record=record, lives=(life,))
            for life, record in enumerate((3, 5, 7, 9), start=1)
        )
        service = IngestionService(
            str(tmp_path / "data"),
            factory(),
            parser_name="Drain",
            telemetry=telemetry,
            isolation="process",
            worker_kwargs=dict(
                checkpoint_every=100,
                poison_threshold=5,
                fence_threshold=3,
                faults={"t": faults},
                **FAST,
            ),
        )
        with TelemetryServer(
            telemetry.metrics, health=service.health
        ) as server:
            status, body = _get(f"{server.url}/healthz")
            assert status == 200, "healthy before any tenant exists"
            for line in conn_lines(20):
                service.submit_line(f"t\t{line}")
            shard = service.shard("t")
            wait_for(lambda: shard.state == STATE_FENCED)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/healthz")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode())
            assert payload["ok"] is False
            assert payload["tenants"]["t"]["state"] == "fenced"
        service.drain()

    def test_crash_storm_fires_burn_rate_alert_surviving_torn_tail(
        self, tmp_path
    ):
        """Acceptance: a poison-pill crash storm quarantines records;
        the burn-rate rule fires at least one durable AlertEvent that
        survives torn-tail recovery of the alert log."""
        log_path = str(tmp_path / "alerts.jsonl")
        telemetry = Telemetry.create(trace_id="t")
        pill = ProcessFault(
            PROC_KILL, at_record=30, lives=(1, 2, 3, 4, 5, 6)
        )
        sup = ShardSupervisor(
            "t", str(tmp_path / "data"), factory(), parser_name="Drain",
            telemetry=telemetry, checkpoint_every=10, faults=(pill,),
            poison_threshold=2, fence_threshold=10, **FAST,
        )
        engine = AlertEngine(
            telemetry.metrics,
            default_rules(objective=0.995, fast_window=300, slow_window=300),
            log_path=log_path,
        )
        # Feed clean traffic and wait for the live sync to surface it,
        # so the rule sees a pre-storm baseline sample for the tenant.
        for line in conn_lines(20):
            sup.submit(LogRecord(content=line))
        wait_for(lambda: telemetry.metrics.value(
            "repro_tenant_lines_total", tenant="t"
        ) > 0)
        engine.tick()  # clean baseline sample
        for line in conn_lines(40, start=20):
            sup.submit(LogRecord(content=line))
        summary = sup.drain()
        assert summary["quarantined"] == 1, "the pill was diverted"
        fired = engine.tick()
        assert any(
            e.rule == "tenant-error-budget-burn"
            and e.state == STATE_FIRING
            and e.severity == SEV_PAGE
            for e in fired
        ), f"burn-rate alert did not fire: {fired}"
        engine.close()
        with open(log_path, "ab") as handle:
            handle.write(b"\x00\x01torn")
        alerts = load_alerts(log_path)
        burns = [
            a for a in alerts if a["rule"] == "tenant-error-budget-burn"
        ]
        assert burns and burns[0]["state"] == STATE_FIRING
        assert burns[0]["labels"] == {"tenant": "t"}


class TestScrapeIsolation:
    def test_hammered_scrapes_leave_artifacts_byte_identical(
        self, tmp_path, calm_root
    ):
        certify.certify("thread-v1-scrape-hammer", tmp_path, calm_root)


# ---------------------------------------------------------------------------
# Satellites
# ---------------------------------------------------------------------------


class TestHeartbeatReadTime:
    def test_heartbeat_age_refreshes_on_scrape_without_status_path(
        self, tmp_path
    ):
        """S1 regression: the heartbeat-age gauge is a read-time
        collector — a bare registry read reflects the current age with
        no status ticker or supervisor_status call anywhere."""
        telemetry = Telemetry.create(trace_id="t")
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, **FAST,
        )
        for line in conn_lines(5):
            sup.submit(LogRecord(content=line))
        sup.drain()
        # After drain the monitor thread is gone: _last_seen is frozen,
        # so the collected age must track the read clock, not a cached
        # status snapshot.
        first = telemetry.metrics.value(
            "repro_worker_heartbeat_age_seconds", tenant="t"
        )
        time.sleep(0.05)
        second = telemetry.metrics.value(
            "repro_worker_heartbeat_age_seconds", tenant="t"
        )
        assert second > first >= 0.0


class TestServeCheckpointJournal:
    def test_serve_journals_status_on_checkpoint_acks(self, tmp_path):
        """S2: no --status-interval, yet the event timeline carries
        supervisor_status events journaled on worker checkpoint acks."""
        replay = str(tmp_path / "lines.log")
        with open(replay, "w", encoding="utf-8") as handle:
            for i in range(800):
                handle.write(f"alpha\tproc a{i % 7} on node-{i % 13}\n")
        events_out = str(tmp_path / "events.jsonl")
        assert main([
            "serve", "Drain", str(tmp_path / "data"),
            "--replay", replay,
            "--isolation", "process",
            "--checkpoint-every", "100",
            "--events-out", events_out,
        ]) == 0
        events = load_events(events_out)
        status_events = [
            e for e in events if e["kind"] == "supervisor_status"
        ]
        assert status_events, "no supervisor_status journaled"
        sample = status_events[0]
        assert "alpha" in sample["tenants"]
        assert sample["line"].startswith("supervisor: alpha ")


class TestSchemaCoverage:
    #: Metric families may only be referenced through the registered
    #: schema: every quoted repro_* literal in the source must resolve
    #: to a schema-registered family with non-empty HELP text.
    LITERAL_RE = re.compile(r'"(repro_[a-z0-9_]+)"')

    def _source_literals(self):
        root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        names = set()
        for dirpath, _dirnames, filenames in os.walk(root):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, encoding="utf-8") as handle:
                    names.update(self.LITERAL_RE.findall(handle.read()))
        return names

    def test_every_family_literal_is_registered_with_help(self):
        telemetry = Telemetry.create(trace_id="t")
        families = {
            family.name: family
            for family in telemetry.metrics.families()
        }
        literals = self._source_literals()
        assert literals, "source scan found no repro_* families"
        missing = sorted(literals - set(families))
        assert missing == [], (
            f"families referenced but never schema-registered: {missing}"
        )
        for name, family in families.items():
            assert family.help, f"{name} has empty HELP text"

    def test_rendered_exposition_carries_help_and_type_for_all(self):
        telemetry = Telemetry.create(trace_id="t")
        from repro.observability import render_prometheus

        parsed = parse_prometheus(render_prometheus(telemetry.metrics))
        for family in telemetry.metrics.families():
            assert family.name in parsed["types"], family.name
            assert parsed["help"].get(family.name), family.name


class TestThreadModeTenantMetrics:
    def test_thread_shard_collector_syncs_per_tenant_families(
        self, tmp_path
    ):
        telemetry = Telemetry.create(trace_id="t")
        service = IngestionService(
            str(tmp_path / "data"),
            factory(),
            parser_name="Drain",
            telemetry=telemetry,
        )
        for line in conn_lines(120):
            service.submit_line(f"a\t{line}")
        value = telemetry.metrics.value
        assert value("repro_tenant_lines_total", tenant="a") == 120.0
        hits = value(
            "repro_tenant_cache_hits_total", tenant="a", kind="exact"
        ) + value(
            "repro_tenant_cache_hits_total", tenant="a", kind="template"
        )
        misses = value("repro_tenant_cache_misses_total", tenant="a")
        assert hits + misses == 120.0
        family = telemetry.metrics.get(
            "repro_tenant_ingest_latency_seconds"
        )
        child = dict(family.children())[("a",)]
        assert child.count == 120
        service.drain()
        # Templates materialize on flush; after drain the events gauge
        # reflects the discovered vocabulary.
        assert value("repro_tenant_events", tenant="a") >= 1.0

    def test_thread_collector_deltas_do_not_double_count(self, tmp_path):
        telemetry = Telemetry.create(trace_id="t")
        service = IngestionService(
            str(tmp_path / "data"),
            factory(),
            parser_name="Drain",
            telemetry=telemetry,
        )
        for line in conn_lines(50):
            service.submit_line(f"a\t{line}")
        value = telemetry.metrics.value
        for _ in range(5):  # repeated scrapes must not re-apply deltas
            assert value("repro_tenant_lines_total", tenant="a") == 50.0
        service.drain()
