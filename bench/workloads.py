"""The seven workloads: one function per path through the program.

Every function runs ONE repetition inside a fresh child interpreter
(see ``bench.rep``): set-up (input generation, staging, server start,
an untimed warm-up pass), the timed section, then the oracles.  The
program is driven only through public functions and the CLI.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import statistics
import time

from repro.evaluation.mining_impact import (
    score_detection,
    table3_parser_factory,
)
from repro.mining import detect_anomalies
from repro.parsers import make_parser
from repro.service import DurableSender, IngestionService, replay_lines
from repro.streaming import (
    ParseSession,
    StreamingParser,
    compare_stream_to_batch,
)

from bench import inputs, oracles, sut
from bench.probe import PacedProbe, connect
from bench.spec import (
    EQUIVALENCE_SLICE,
    F_FLOORS,
    SERVE_DEFAULTS,
    STREAM_F_FLOORS,
    TENANTS,
    WARMUP_LINES,
)
from bench.stats import latency_summary, percentile
from bench.trace import Tracer

now = time.perf_counter

BATCH_PARSERS = ("SLCT", "IPLoM", "Drain")


def drain_factory():
    """The flush parser ``serve Drain`` / ``stream Drain`` build."""
    return functools.partial(
        make_parser, SERVE_DEFAULTS["parser"], **SERVE_DEFAULTS["parser_params"]
    )


def own_rss_mib() -> float:
    return sut.hwm_mib(os.getpid())


def _result(verdict, metrics: dict, info: dict) -> dict:
    return {
        "metrics": metrics,
        "info": info,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
    }


# ---------------------------------------------------------------------
# batch_mine
# ---------------------------------------------------------------------


def prepare_batch_mine(size: dict, seed: int):
    return (
        inputs.sessions(size["blocks"], seed),
        inputs.sessions(size["warmup_blocks"], seed + 1),
    )


def batch_mine(size: dict, prepared, tracer: Tracer, workdir: str) -> dict:
    data, warm = prepared
    started = now()
    with tracer.span("warmup"):
        for name in (*BATCH_PARSERS, "GroundTruth"):
            detect_anomalies(
                table3_parser_factory(name, seed=2).parse(warm.records)
            )
    setup_s = now() - started

    parsed, flagged, info = {}, {}, {}
    timed = now()
    for name in BATCH_PARSERS:
        parser = table3_parser_factory(name, seed=2)
        with tracer.span(f"parsers.{name.lower()}.parse"):
            parsed[name] = parser.parse(data.records)
        with tracer.span("mining.detect_anomalies", parser=name):
            flagged[name] = detect_anomalies(parsed[name]).flagged_sessions
    wall = now() - timed
    rss = own_rss_mib()

    lines = len(data.records)
    verdict = oracles.Verdict()
    truth = data.truth_assignments()
    for name in BATCH_PARSERS:
        verdict.offer(lines)
        with tracer.span("evaluation.f_measure", parser=name):
            score = oracles.accuracy(parsed[name].assignments, truth)
        info[f"parsers.{name.lower()}.f_measure"] = score
        oracles.check_floor(verdict, name, score, F_FLOORS[name], lines)
    reference = detect_anomalies(
        table3_parser_factory("GroundTruth").parse(data.records)
    ).flagged_sessions
    _, want_detected, want_false = score_detection(reference, data.labels)
    _, detected, false_alarms = score_detection(flagged["Drain"], data.labels)
    info["mining.detected"] = detected
    info["mining.false_alarms"] = false_alarms
    if (detected, false_alarms) != (want_detected, want_false):
        verdict.fail(
            lines,
            f"Drain mining: detected/false alarms {detected}/{false_alarms}"
            f" != ground truth {want_detected}/{want_false}",
        )
    metrics = {
        "setup_s": setup_s,
        "lines_per_s": len(BATCH_PARSERS) * lines / wall,
        "peak_rss_mb": rss,
    }
    return _result(verdict, metrics, info)


# ---------------------------------------------------------------------
# stream_hot / stream_cold
# ---------------------------------------------------------------------


def _engine(size: dict) -> StreamingParser:
    return StreamingParser(
        drain_factory(),
        flush_policy=size["flush_policy"],
        flush_size=size["flush_size"],
        cache_capacity=size["cache_capacity"],
    )


def prepare_stream(size: dict, seed: int):
    return inputs.dataset_records(size["dataset"], size["lines"], seed)


def stream(name: str, size: dict, records, tracer: Tracer, workdir: str):
    started = now()
    with tracer.span("warmup"):
        warm = ParseSession(_engine(size))
        for record in records[:WARMUP_LINES * 5]:
            warm.feed(record)
        warm.finalize()
    setup_s = now() - started

    engine = _engine(size)
    session = ParseSession(engine)
    feed = session.feed
    feed_us: list[float] = []
    timed = now()
    with tracer.span("streaming.engine.feed"):
        if tracer.enabled:
            for record in records:  # per-line clock reads: the trace's cost
                before = now()
                feed(record)
                feed_us.append((now() - before) * 1e6)
        else:
            for record in records:
                feed(record)
    with tracer.span("streaming.engine.finalize"):
        result = session.finalize()
    wall = now() - timed
    rss = own_rss_mib()

    lines = len(records)
    verdict = oracles.Verdict()
    verdict.offer(lines)
    counters = engine.counters
    oracles.check_stream_result(verdict, result, counters, lines)
    with tracer.span("evaluation.f_measure"):
        score = oracles.accuracy(
            result.assignments, [record.truth_event for record in records]
        )
    oracles.check_floor(verdict, name, score, STREAM_F_FLOORS[name], lines)
    with tracer.span("streaming.equivalence"):
        report = compare_stream_to_batch(
            drain_factory(),
            records[:EQUIVALENCE_SLICE],
            flush_policy="prefix",
            flush_size=size["flush_size"],
            cache_capacity=size["cache_capacity"],
        )
    if report.agreement != 1.0 or not report.equivalent:
        verdict.fail(lines, f"stream!=batch on prefix slice: {report.describe()}")
    info = {
        "streaming.f_measure": score,
        "streaming.cache.hit_rate": counters.hit_rate,
        "streaming.cache.evictions": counters.evictions,
        "streaming.engine.flushes": counters.flushes,
    }
    if feed_us:
        feed_us.sort()
        info["streaming.engine.feed_p99_us"] = percentile(feed_us, 99.0)
        info["streaming.engine.feed_max_ms"] = feed_us[-1] / 1e3
    metrics = {
        "setup_s": setup_s,
        "lines_per_s": lines / wall,
        "peak_rss_mb": rss,
    }
    return _result(verdict, metrics, info)


# ---------------------------------------------------------------------
# replay_thread / replay_process
# ---------------------------------------------------------------------


def make_service(data_dir: str, isolation: str, telemetry=None):
    """An ``IngestionService`` configured as ``serve Drain`` ships it."""
    kwargs = dict(SERVE_DEFAULTS["shard"])
    if isolation == "process":
        kwargs["worker_kwargs"] = dict(SERVE_DEFAULTS["worker"])
    return IngestionService(
        data_dir,
        drain_factory(),
        parser_name=SERVE_DEFAULTS["parser"],
        isolation=isolation,
        telemetry=telemetry,
        **kwargs,
    )


def replay(data_dir, lines, isolation, tracer, layer, *, telemetry=None,
           before_drain=None) -> dict:
    """``replay_lines`` + ``drain()`` as ``serve --replay`` does them."""
    service = make_service(data_dir, isolation, telemetry)
    started = now()
    with tracer.span(f"{layer}.submit"):
        outcomes = replay_lines(service, lines)
    submit_s = now() - started
    workers_rss = sut.peak_rss_mib(
        child.pid for child in multiprocessing.active_children()
    )
    if before_drain is not None:
        before_drain(service)
    started = now()
    with tracer.span(f"{layer}.drain"):
        summary = service.drain()
    drain_s = now() - started
    return {
        "submit_s": submit_s,
        "drain_s": drain_s,
        "wall_s": submit_s + drain_s,
        "outcomes": outcomes,
        "summary": summary,
        "workers_rss": workers_rss,
    }


def expected_counts(tenants: list[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for tenant in tenants:
        counts[tenant] = counts.get(tenant, 0) + 1
    return counts


def check_replay(verdict, run: dict, data_dir: str, expected: dict) -> None:
    total = sum(expected.values())
    if run["outcomes"] != {"accepted": total}:
        verdict.fail(
            total - run["outcomes"].get("accepted", 0),
            f"replay outcomes {run['outcomes']} != all {total} accepted",
        )
    for tenant, summary in sorted(run["summary"]["tenants"].items()):
        if summary["lines"] != expected.get(tenant):
            verdict.fail(
                abs(summary["lines"] - expected.get(tenant, 0)),
                f"{tenant}: engine counted {summary['lines']} lines, "
                f"offered {expected.get(tenant)}",
            )
        if summary.get("restarts", 0):
            verdict.fail(1, f"{tenant}: {summary['restarts']} worker restart(s)")
    oracles.check_service_outputs(verdict, data_dir, expected)


def prepare_replay(size: dict, seed: int):
    return inputs.tagged_hdfs(size["lines"], seed)


def replay_workload(name, size, stream_in, tracer: Tracer, workdir: str) -> dict:
    isolation = size["isolation"]
    started = now()
    lines = stream_in.lines()
    with tracer.span("warmup"):
        replay(os.path.join(workdir, "warm"), lines[:WARMUP_LINES],
               isolation, Tracer("warm", enabled=False), "warm")
    setup_s = now() - started

    data_dir = os.path.join(workdir, "out")
    layer = "service.server" if isolation == "thread" else "service.workers"
    run = replay(data_dir, lines, isolation, tracer, layer)
    rss = own_rss_mib() + run["workers_rss"]

    verdict = oracles.Verdict()
    verdict.offer(len(lines))
    expected = expected_counts(stream_in.tenants)
    check_replay(verdict, run, data_dir, expected)
    if isolation == "process":
        with tracer.span("oracle.thread_reference"):
            reference_dir = os.path.join(workdir, "ref")
            replay(reference_dir, lines, "thread",
                   Tracer("ref", enabled=False), "ref")
        oracles.check_digests_equal(
            verdict,
            oracles.artifact_digests(data_dir, TENANTS),
            oracles.artifact_digests(reference_dir, TENANTS),
            expected,
            "process-mode",
        )
    metrics = {
        "setup_s": setup_s,
        "lines_per_s": len(lines) / run["wall_s"],
        "drain_s": run["drain_s"],
        "peak_rss_mb": rss,
    }
    info = {f"{layer}.submit_s": run["submit_s"], f"{layer}.drain_s": run["drain_s"]}
    return _result(verdict, metrics, info)


# ---------------------------------------------------------------------
# wire_thread / wire_process
# ---------------------------------------------------------------------


def bulk_send(host, port, client_id, spool, pairs, tracer: Tracer) -> dict:
    """What ``send FILE`` does: spool every line, then ``flush()``."""
    cpu = time.process_time()
    started = now()
    with DurableSender(host, port, client_id, spool) as sender:
        with tracer.span("service.client.spool", client=client_id):
            for tenant, content in pairs:
                sender.send(tenant, content)
        spooled = now()
        with tracer.span("service.client.flush", client=client_id):
            summary = sender.flush(timeout=120.0)
    ended = now()
    return {
        "spool_s": spooled - started,
        "flush_s": ended - spooled,
        "wall_s": ended - started,
        "cpu_s": time.process_time() - cpu,
        "resend_ratio": summary["resends"] / max(1, summary["delivered"]),
        "delivered": summary["delivered"],
    }


def fastest_send_s(sends: list[dict]) -> float:
    """Wall of the fastest bulk send of a server life.

    flush() waits for acks in 0.2 s windows and resends the whole
    unacked suffix after each, so a send's wall moves in steps of a
    window, and when the host slows the server the resends feed back
    and cost windows more.  Over a dozen server lives on a busy host
    the fastest of a life's sends moved half as much as their lower
    quartile, their median or their sum (README, "Known costs").
    """
    return min(send["wall_s"] for send in sends)


def run_probe(host, port, client_id, pairs, stages, tracer: Tracer):
    sock = connect(host, port, client_id)
    try:
        with tracer.span("service.server.paced_probe", client=client_id):
            return PacedProbe(sock, pairs, stages).run()
    finally:
        sock.close()


def _paced_lines(stages) -> int:
    return sum(int(rate * seconds) for rate, seconds in stages)


def prepare_wire(size: dict, seed: int):
    """Enough lines for the warm-up, the bulk sends and the longer
    (traced) pacing schedule; an untraced run uses a prefix."""
    return inputs.tagged_hdfs(
        WARMUP_LINES
        + size["bulk_sends"] * size["bulk_lines"]
        + _paced_lines(size["paced_traced"]),
        seed,
    )


def wire(name: str, size: dict, prepared, tracer: Tracer, workdir: str) -> dict:
    isolation = size["isolation"]
    stages = size["paced_traced"] if tracer.enabled else size["paced"]
    n_bulk = size["bulk_sends"] * size["bulk_lines"]
    total = WARMUP_LINES + n_bulk + _paced_lines(stages)
    stream_in = inputs.TaggedStream(
        prepared.tenants[:total], prepared.records[:total]
    )
    data_dir = os.path.join(workdir, "out")

    def warm_up(server, scratch: str) -> None:
        with tracer.span("warmup"):
            bulk_send(
                server.host, server.port, "warm",
                os.path.join(scratch, "warm.spool"),
                stream_in.pairs(0, WARMUP_LINES), Tracer("warm", enabled=False),
            )

    # Set-up (server start until `serving on` + warm-up send) is timed
    # on a throwaway server first, so that it too has a best of two.
    started = now()
    rehearsal_dir = os.path.join(workdir, "rehearsal")
    with sut.ServeProcess(rehearsal_dir, isolation) as rehearsal:
        warm_up(rehearsal, rehearsal_dir)
        rehearsal_s = now() - started
    started = now()
    with sut.ServeProcess(data_dir, isolation) as server:
        warm_up(server, workdir)
        setup_s = min(rehearsal_s, now() - started)

        sends = []
        for k in range(size["bulk_sends"]):
            begin = WARMUP_LINES + k * size["bulk_lines"]
            sends.append(
                bulk_send(
                    server.host, server.port, f"bulk{k}",
                    os.path.join(workdir, f"bulk{k}.spool"),
                    stream_in.pairs(begin, begin + size["bulk_lines"]), tracer,
                )
            )
        with tracer.span("service.server.settle"):
            settle_s = sut.wait_until_idle(server.pids())
        paced = run_probe(
            server.host, server.port, "probe",
            stream_in.pairs(WARMUP_LINES + n_bulk), stages, tracer,
        )
        pids = server.pids()
        rss = sut.peak_rss_mib(pids)
        server_cpu = sut.cpu_seconds(pids)
        with tracer.span("service.server.sigterm_to_exit"):
            ended = server.terminate()
        output = [line for _, line in server.output]

    verdict = oracles.Verdict()
    verdict.offer(len(stream_in))
    expected = expected_counts(stream_in.tenants)
    if ended["returncode"] != 0:
        verdict.fail(len(stream_in), f"serve exited {ended['returncode']}")
    for send in sends:
        if send["delivered"] != size["bulk_lines"]:
            verdict.fail(
                size["bulk_lines"] - send["delivered"],
                f"bulk send delivered {send['delivered']}",
            )
    for stage in paced:
        if stage.acked != stage.offered:
            verdict.fail(
                stage.offered - stage.acked,
                f"paced {stage.rate:g}/s: {stage.offered - stage.acked} of "
                f"{stage.offered} lines never acked",
            )
    if any("restart(s)" in line and " 0 restart(s)" not in line for line in output):
        verdict.fail(1, "a shard worker restarted")
    oracles.check_service_outputs(verdict, data_dir, expected)
    with tracer.span("oracle.thread_reference"):
        reference_dir = os.path.join(workdir, "ref")
        replay(reference_dir, stream_in.lines(), "thread",
               Tracer("ref", enabled=False), "ref")
    oracles.check_digests_equal(
        verdict,
        oracles.artifact_digests(data_dir, TENANTS),
        oracles.artifact_digests(reference_dir, TENANTS),
        expected,
        "wire",
    )

    base = paced[0]
    metrics = {
        "setup_s": setup_s,
        "lines_per_s": size["bulk_lines"] / fastest_send_s(sends),
        "drain_s": ended["exit_s"],
        "peak_rss_mb": rss,
    }
    if base.latencies_ms:
        metrics["ack_p50_ms"] = statistics.median(base.latencies_ms)
    info = {
        "service.client.spool_s": statistics.median(s["spool_s"] for s in sends),
        "service.client.flush_s": statistics.median(s["flush_s"] for s in sends),
        "service.client.resend_ratio": statistics.median(
            s["resend_ratio"] for s in sends
        ),
        "service.client.cpu_s": statistics.median(s["cpu_s"] for s in sends),
        "service.server.cpu_s": server_cpu,
        "service.server.stop_s": ended["stop_s"],
        "service.server.settle_s": settle_s,
        **probe_info(paced),
    }
    return _result(verdict, metrics, info)


def probe_info(paced) -> dict:
    """Tail and overload numbers of a probe run, with sample counts."""
    info: dict = {}
    base = paced[0]
    if base.latencies_ms:
        ordered = sorted(base.latencies_ms)
        info["service.server.ack_p50_ms"] = percentile(ordered, 50.0)
        info["service.server.ack_p90_ms"] = percentile(ordered, 90.0)
        info["service.server.ack_p99_ms"] = percentile(ordered, 99.0)
        info["service.server.ack_max_ms"] = ordered[-1]
        info["service.server.ack_samples"] = len(ordered)
        # the highest percentile with at least ten samples beyond it
        tail = latency_summary(ordered)
        if "tail" in tail:
            info["service.server.ack_tail_ms"] = tail["tail"]
            info["service.server.ack_tail_percentile"] = tail["tail_percentile"]
    late = sorted(ms for stage in paced for ms in stage.late_ms)
    if late:
        info["service.server.gen_late_ms"] = percentile(late, 99.0)
    for stage in paced[1:]:
        tag = f"r{stage.rate:g}"
        if stage.latencies_ms:
            info[f"service.server.ack_p50_ms.{tag}"] = statistics.median(
                stage.latencies_ms
            )
        info[f"service.server.backlog_growth.{tag}"] = stage.backlog_growth
    return info


# ---------------------------------------------------------------------


#: workload -> (prepare(size, seed) in the parent, run(size, prepared,
#: tracer, workdir) in a forked child).  Generation happens once per
#: invocation; children inherit the input copy-on-write.
RUNNERS = {
    "batch_mine": (prepare_batch_mine, batch_mine),
    "stream_hot": (prepare_stream, functools.partial(stream, "stream_hot")),
    "stream_cold": (prepare_stream, functools.partial(stream, "stream_cold")),
    "replay_thread": (
        prepare_replay, functools.partial(replay_workload, "replay_thread")
    ),
    "replay_process": (
        prepare_replay, functools.partial(replay_workload, "replay_process")
    ),
    "wire_thread": (prepare_wire, functools.partial(wire, "wire_thread")),
    "wire_process": (prepare_wire, functools.partial(wire, "wire_process")),
}
