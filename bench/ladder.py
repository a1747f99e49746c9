"""The per-layer ladder: one input pushed through nested prefixes of the
stack, so each rung's time minus the rung below is that layer's cost.

    tokenize -> screen -> engine (one StreamingParser per tenant, as a
    shard configures it) -> TenantShard direct -> replay_thread ->
    replay_process -> raw v2 probe -> DurableSender

plus the batch parsers and mining on an HDFS session slice, and
micro-timings of the delivery layer's per-record primitives.  The
tagged input is the first ``LADDER['lines']`` lines of the traced
workload's own stream, so the rungs price each layer on *that* input.
Every rung is a bench-owned span; nothing inside the program is timed.
"""

from __future__ import annotations

import functools
import os
import time

from repro.common.tokenize import tokenize
from repro.common.types import LogRecord
from repro.evaluation.mining_impact import (
    score_detection,
    table3_parser_factory,
)
from repro.mining import build_event_matrix, detect_anomalies
from repro.observability import Telemetry, render_prometheus
from repro.parsers import ChunkedParallelParser, make_parser
from repro.resilience.quarantine import is_clean_content
from repro.service.protocol import (
    BatchJournal,
    DeliveryWindow,
    data_line,
    parse_data,
)
from repro.service.shard import TenantShard
from repro.streaming import ParseSession, StreamingParser

from bench import inputs, oracles, sut
from bench.spec import LADDER, SERVE_DEFAULTS, TENANTS
from bench.stats import percentile
from bench.trace import Tracer
from bench.workloads import (
    bulk_send,
    check_replay,
    drain_factory,
    expected_counts,
    probe_info,
    replay,
    run_probe,
)

now = time.perf_counter

#: Passes of the rungs that ratios are built on (best one is kept).
PASSES = 3


def ladder_inputs(workload: str, seed: int):
    """(HDFS session slice, the workload's own first lines, tagged)."""
    session_data = inputs.sessions(LADDER["blocks"], seed)
    lines = LADDER["lines"]
    if workload == "batch_mine":
        records = session_data.records[:lines]
    elif workload == "stream_cold":
        records = inputs.dataset_records("BGL", lines, seed)
    else:
        records = inputs.dataset_records("HDFS", lines, seed)
    return session_data, inputs.tag(records, seed)


def _timed(tracer: Tracer, name: str, call):
    with tracer.span(name):
        started = now()
        value = call()
        return now() - started, value


def batch_rungs(data, tracer: Tracer, out: dict, verdict) -> None:
    """parsers, mining and evaluation on the session slice."""
    truth = data.truth_assignments()
    parsed = None
    for name in ("SLCT", "IPLoM", "Drain"):
        parser = table3_parser_factory(name, seed=2)
        key = f"parsers.{name.lower()}"
        out[f"{key}.parse_s"], parsed = _timed(
            tracer, f"{key}.parse", lambda: parser.parse(data.records)
        )
        elapsed, score = _timed(
            tracer, "evaluation.f_measure",
            lambda: oracles.accuracy(parsed.assignments, truth),
        )
        out[f"{key}.f_measure"] = score
        out["evaluation.f_measure_s"] = elapsed
    # *parsed* is now Drain's result: the mining rungs run on it.
    out["mining.event_matrix_s"], _ = _timed(
        tracer, "mining.event_matrix", lambda: build_event_matrix(parsed)
    )
    whole, detection = _timed(
        tracer, "mining.detect_anomalies", lambda: detect_anomalies(parsed)
    )
    # detect_anomalies rebuilds the matrix; what is left is TF-IDF + PCA.
    out["mining.pca_detect_s"] = max(0.0, whole - out["mining.event_matrix_s"])
    _, detected, false_alarms = score_detection(
        detection.flagged_sessions, data.labels
    )
    out["mining.detected"] = detected
    out["mining.false_alarms"] = false_alarms
    slow = (
        ("logsig", table3_parser_factory("LogSig", seed=2), LADDER["logsig_lines"]),
        ("lke", make_parser("LKE", seed=2), LADDER["lke_lines"]),
        (
            "parallel",
            ChunkedParallelParser(
                functools.partial(make_parser, "IPLoM"),
                chunk_size=max(1, len(data.records) // 2),
                workers=2,
            ),
            len(data.records),
        ),
    )
    for key, parser, lines in slow:
        out[f"parsers.{key}.parse_s"], result = _timed(
            tracer, f"parsers.{key}.parse",
            lambda: parser.parse(data.records[:lines]),
        )
        if len(result.assignments) != lines:
            verdict.fail(lines, f"{key}: {len(result.assignments)} assignments")


def primitive_rungs(stream_in, tracer, out: dict, verdict) -> list[list[str]]:
    """tokenize and screen alone; returns the token lists."""
    contents = [record.content for record in stream_in.records]
    elapsed, tokens = _timed(
        tracer, "common.tokenize", lambda: [tokenize(c) for c in contents]
    )
    out["common.tokenize_us_per_line"] = elapsed / len(contents) * 1e6
    elapsed, dirty = _timed(
        tracer, "resilience.screen",
        lambda: sum(1 for c in contents if is_clean_content(c) is not None),
    )
    out["resilience.screen_us_per_line"] = elapsed / len(contents) * 1e6
    if dirty:
        verdict.fail(dirty, f"screen rejected {dirty} generated line(s)")
    return tokens


def shard_engine(tenant: str) -> StreamingParser:
    """One engine configured as ``TenantShard`` configures its own."""
    shard = SERVE_DEFAULTS["shard"]
    return StreamingParser(
        drain_factory(),
        flush_policy="prefix",
        flush_size=shard["flush_size"],
        cache_capacity=shard["cache_capacity"],
        max_pending=shard["max_pending"],
        overflow=shard["overflow"],
        error_policy="quarantine",
        source_label=f"tenant:{tenant}",
    )


def engine_pass(stream_in, tracer: Tracer):
    """Per-tenant engines fed in stream order, then finalized."""
    engines = {tenant: shard_engine(tenant) for tenant in TENANTS}
    sessions = {
        tenant: ParseSession(engine, track_matrix=False)
        for tenant, engine in engines.items()
    }
    feeds = {tenant: session.feed for tenant, session in sessions.items()}
    feed_us = []
    with tracer.span("streaming.engine.feed"):
        started = now()
        for tenant, record in zip(stream_in.tenants, stream_in.records):
            before = now()
            feeds[tenant](record)
            feed_us.append((now() - before) * 1e6)
        feed_s = now() - started
    finalize_s, results = _timed(
        tracer, "streaming.engine.finalize",
        lambda: {t: s.finalize() for t, s in sessions.items()},
    )
    return feed_s + finalize_s, feed_s, finalize_s, feed_us, engines, results


def engine_rung(stream_in, tokens, tracer: Tracer, out: dict, verdict) -> float:
    """The engine rung, best of PASSES; returns its wall."""
    wall, feed_s, finalize_s, feed_us, engines, results = min(
        (engine_pass(stream_in, tracer) for _ in range(PASSES)),
        key=lambda run: run[0],
    )
    out["streaming.engine.feed_s"] = feed_s
    out["streaming.engine.finalize_s"] = finalize_s
    feed_us.sort()
    out["streaming.engine.feed_p99_us"] = percentile(feed_us, 99.0)
    out["streaming.engine.feed_max_ms"] = feed_us[-1] / 1e3
    counters = [engine.counters for engine in engines.values()]
    lookups = sum(c.hits + c.misses for c in counters)
    out["streaming.cache.hit_rate"] = sum(c.hits for c in counters) / lookups
    out["streaming.cache.evictions"] = sum(c.evictions for c in counters)
    out["streaming.engine.flushes"] = sum(c.flushes for c in counters)
    per_tenant = stream_in.per_tenant()
    weighted = 0.0
    for tenant, result in results.items():
        records = per_tenant.get(tenant, [])
        oracles.check_stream_result(
            verdict, result, engines[tenant].counters, len(records)
        )
        if records:
            weighted += len(records) * oracles.accuracy(
                result.assignments, [r.truth_event for r in records]
            )
    out["streaming.f_measure"] = weighted / len(stream_in)
    # The busiest tenant's cache, warmed by the run above.
    cache = engines[TENANTS[0]].cache
    elapsed, _ = _timed(
        tracer, "streaming.cache.match",
        lambda: [cache.match(line) for line in tokens],
    )
    out["streaming.cache.match_us_per_line"] = elapsed / len(tokens) * 1e6
    return wall


def shard_rung(stream_in, tracer: Tracer, out: dict, workdir: str) -> None:
    data_dir = os.path.join(workdir, "shard")
    shards = {
        tenant: TenantShard(
            tenant, data_dir, drain_factory(),
            parser_name=SERVE_DEFAULTS["parser"], **SERVE_DEFAULTS["shard"],
        )
        for tenant in TENANTS
    }
    submits = {tenant: shard.submit for tenant, shard in shards.items()}

    def submit_all():
        for tenant, record in zip(stream_in.tenants, stream_in.records):
            submits[tenant](LogRecord(content=record.content))

    out["service.shard.submit_s"], _ = _timed(
        tracer, "service.shard.submit", submit_all
    )
    with tracer.span("service.shard.drain"):
        for shard in shards.values():
            shard.drain()


def replay_rungs(stream_in, engine_wall, tracer, out, verdict, workdir):
    lines = stream_in.lines()
    expected = expected_counts(stream_in.tenants)

    def checkpoint(service):
        out["resilience.checkpoint_s"], _ = _timed(
            tracer, "resilience.checkpoint_all", service.checkpoint_all
        )

    # Thread mode with and without telemetry, interleaved, best of
    # PASSES each: three ratios below stand on these two walls.
    plain, observed = [], []
    for index in range(PASSES):
        directory = os.path.join(workdir, f"thread{index}")
        plain.append((
            replay(directory, lines, "thread", tracer, "service.server",
                   before_drain=checkpoint),
            directory,
        ))
        telemetry = Telemetry.create(trace_id="bench")
        with tracer.span("observability.telemetry_on"):
            observed.append((
                replay(os.path.join(workdir, f"telemetry{index}"), lines,
                       "thread", tracer, "observability.replay",
                       telemetry=telemetry),
                telemetry,
            ))
    thread, thread_dir = min(plain, key=lambda run: run[0]["wall_s"])
    check_replay(verdict, thread, thread_dir, expected)
    out["service.server.submit_s"] = thread["submit_s"]
    out["service.server.drain_s"] = thread["drain_s"]

    process_dir = os.path.join(workdir, "process")
    process = replay(process_dir, lines, "process", tracer, "service.workers")
    check_replay(verdict, process, process_dir, expected)
    oracles.check_digests_equal(
        verdict,
        oracles.artifact_digests(process_dir, TENANTS),
        oracles.artifact_digests(thread_dir, TENANTS),
        expected,
        "process-mode",
    )
    out["service.workers.submit_s"] = process["submit_s"]
    out["service.workers.drain_s"] = process["drain_s"]
    out["service.isolation_tax"] = process["wall_s"] / thread["wall_s"]
    out["service.engine_tax"] = thread["wall_s"] / engine_wall

    with_telemetry, telemetry = min(observed, key=lambda run: run[0]["wall_s"])
    out["observability.telemetry_tax"] = (
        with_telemetry["wall_s"] / thread["wall_s"]
    )
    elapsed, text = _timed(
        tracer, "observability.render",
        lambda: render_prometheus(telemetry.metrics),
    )
    out["observability.render_ms"] = elapsed * 1e3
    for _, handle in observed:
        handle.close()
    if "repro_service_lines_total" not in text:
        verdict.fail(1, "exposition lacks repro_service_lines_total")


def protocol_rungs(stream_in, tracer: Tracer, out: dict, workdir: str) -> None:
    """Per-record primitives of the delivery layer, timed alone."""
    pairs = stream_in.pairs()
    records = stream_in.records[:LADDER["journal_appends"]]
    journal = BatchJournal(os.path.join(workdir, "journal.jsonl"))

    def append_all():
        for index, record in enumerate(records):
            journal.append(index, record, ("bench", index + 1))

    elapsed, _ = _timed(tracer, "service.protocol.journal_append", append_all)
    out["service.protocol.journal_append_us"] = elapsed / len(records) * 1e6
    journal.remove()

    window = DeliveryWindow()

    def observe_all():
        for seq, pair in enumerate(pairs, start=1):
            window.observe(seq, pair)

    elapsed, _ = _timed(tracer, "service.protocol.window_observe", observe_all)
    out["service.protocol.window_observe_us"] = elapsed / len(pairs) * 1e6

    def codec_all():
        for seq, (tenant, content) in enumerate(pairs, start=1):
            parse_data(data_line(seq, tenant, content).decode("utf-8"))

    elapsed, _ = _timed(tracer, "service.protocol.codec", codec_all)
    out["service.protocol.codec_us"] = elapsed / len(pairs) * 1e6


def wire_rungs(stream_in, isolation, tracer, out, verdict, workdir):
    """Raw v2 probe, then ``DurableSender``, against one ``serve``."""
    stages = LADDER["paced"]
    n_paced = sum(int(rate * seconds) for rate, seconds in stages)
    pairs = stream_in.pairs()
    # The probe cycles the ladder's lines; the sender then delivers each
    # exactly once more, so a tenant ends with probe lines + its own.
    paced_pairs = [pairs[i % len(pairs)] for i in range(n_paced)]
    data_dir = os.path.join(workdir, "wire")
    with sut.ServeProcess(data_dir, isolation) as server:
        paced = run_probe(
            server.host, server.port, "probe", paced_pairs, stages, tracer
        )
        send = bulk_send(
            server.host, server.port, "bulk",
            os.path.join(workdir, "bulk.spool"), pairs, tracer,
        )
        out["service.server.cpu_s"] = sut.cpu_seconds(server.pids())
        with tracer.span("service.server.sigterm_to_exit"):
            ended = server.terminate()
    for stage in paced:
        if stage.acked != stage.offered:
            verdict.fail(
                stage.offered - stage.acked,
                f"ladder probe {stage.rate:g}/s: "
                f"{stage.offered - stage.acked} lines never acked",
            )
    if ended["returncode"] != 0 or send["delivered"] != len(pairs):
        verdict.fail(len(pairs), f"ladder serve/send failed: {ended}, {send}")
    expected = expected_counts(
        [tenant for tenant, _ in paced_pairs] + stream_in.tenants
    )
    oracles.check_service_outputs(verdict, data_dir, expected)
    out.update(probe_info(paced))
    out["service.client.spool_s"] = send["spool_s"]
    out["service.client.flush_s"] = send["flush_s"]
    out["service.client.resend_ratio"] = send["resend_ratio"]
    out["service.client.cpu_s"] = send["cpu_s"]
    out["service.server.stop_s"] = ended["stop_s"]
    out["service.server.exit_s"] = ended["exit_s"]


def run_ladder(workload: str, seed: int, tracer: Tracer, workdir: str) -> dict:
    out: dict = {}
    verdict = oracles.Verdict()
    (out["datasets.generate_s"], (session_data, stream_in)) = _timed(
        tracer, "datasets.generate", lambda: ladder_inputs(workload, seed)
    )
    verdict.offer(len(stream_in))
    batch_rungs(session_data, tracer, out, verdict)
    tokens = primitive_rungs(stream_in, tracer, out, verdict)
    engine_wall = engine_rung(stream_in, tokens, tracer, out, verdict)
    shard_rung(stream_in, tracer, out, workdir)
    replay_rungs(stream_in, engine_wall, tracer, out, verdict, workdir)
    protocol_rungs(stream_in, tracer, out, workdir)
    isolation = "process" if workload == "wire_process" else "thread"
    wire_rungs(stream_in, isolation, tracer, out, verdict, workdir)
    return {
        "layers": out,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
    }
