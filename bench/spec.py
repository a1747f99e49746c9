"""The one table: workloads, sizes, repetitions, metrics and bounds.

Everything the benchmark measures is named here and nowhere else.
``BENCHMARK.json`` is generated from this table (``python3 -m bench
--write-benchmark-json``) and ``bench/tests/test_spec.py`` fails when
the two drift apart.

Sizes are what fits the driver's cap on this 2-core box.  The driver
makes 4 + 22 runs per workload inside 3420 s, set-up included, and a
first version that gated all seven workloads with 10 s runs was refused
as too noisy for its own bounds.  So ``BENCHMARK.json`` gates five of
the seven (``Workload.gated``; 114 runs, 15 s each); the other two stay
in the package and in a full run.  The issue's 3-10 s timed sections
were shrunk in the order the issue prescribes (8,000-rate stage,
slow-parser slices, repetitions, then N).  In-process timed sections
are ~0.5 s and an invocation runs as many as fit: this box is slowed
by its neighbours for 5-10 s at a time (a pure-Python loop swings
0.16-0.30 s), which moves a median or a mean of any number of
repetitions by ~20% from run to run, while the fastest repetition —
the one that met no contention — repeats within a few percent (README,
"Statistics").
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default seed of a full run and of the recorded baseline.
DEFAULT_SEED = 1

#: What one driver invocation measures for (``run_seconds``).
RUN_SECONDS = 15

#: Tenants of every service workload and their seeded 4:2:1:1 weights.
TENANTS = ("t0", "t1", "t2", "t3")
TENANT_WEIGHTS = (4, 2, 1, 1)

#: The shipped ``serve`` defaults (cli.py), spelled out so the
#: in-process workloads configure the service exactly as the CLI does.
SERVE_DEFAULTS = dict(
    parser="Drain",
    parser_params=dict(sim_threshold=0.4, depth=4),
    shard=dict(
        flush_size=200,
        cache_capacity=512,
        max_pending=None,
        overflow="block",
        breaker_threshold=5,
        check_every=100,
    ),
    worker=dict(
        watchdog=5.0,
        checkpoint_every=500,
        poison_threshold=3,
        fence_threshold=5,
        drain_timeout=60.0,
    ),
)

#: The shipped ``stream`` defaults.
STREAM_DEFAULTS = dict(flush_policy="delta", flush_size=512, cache_capacity=4096)

#: Seed-independent quality floors (satellite 1).
F_FLOORS = {"SLCT": 0.80, "IPLoM": 0.98, "Drain": 0.98}
STREAM_F_FLOORS = {"stream_hot": 0.98, "stream_cold": 0.90}

#: Lines of the untimed streaming≡batch prefix-policy oracle slice.
EQUIVALENCE_SLICE = 2_000

#: Lines of the untimed warm-up pass every repetition runs in set-up.
WARMUP_LINES = 300


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: dict
    reps: int  # repetitions of a full (non-driver) run
    gated: bool = True  # listed in BENCHMARK.json, i.e. run by the driver


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "batch_mine",
        "Offline parse+PCA pipeline (RQ2+RQ3) over 3000 HDFS blocks, "
        "~43k lines, x SLCT/IPLoM/Drain: parsers and mining do all the "
        "work, streaming and service are bypassed.",
        dict(blocks=3_000, warmup_blocks=100),
        reps=5,
    ),
    Workload(
        "stream_hot",
        "50k HDFS lines, 29 templates, stream defaults: ~99% cache "
        "hits and 2 flushes, so TemplateCache.match, tokenize and "
        "per-line bookkeeping dominate and the flush parser idles.",
        dict(dataset="HDFS", lines=50_000, **STREAM_DEFAULTS),
        reps=12,
    ),
    Workload(
        "stream_cold",
        "30k BGL lines, 376 templates, cache_capacity=64: ~45% hits, "
        "~4k evictions, ~35 flushes, so inserts, evictions and the "
        "flush parser dominate the same engine.",
        dict(
            dataset="BGL",
            lines=30_000,
            **{**STREAM_DEFAULTS, "cache_capacity": 64},
        ),
        reps=12,
    ),
    Workload(
        "replay_thread",
        "10k tagged HDFS lines, 4 tenants 4:2:1:1, IngestionService "
        "thread isolation via replay_lines+drain: routing, screen, "
        "shard lock, engine, artifact write; no socket, no journal.",
        dict(lines=10_000, isolation="thread"),
        reps=12,
        gated=False,
    ),
    Workload(
        "replay_process",
        "4k of the same lines, process isolation: adds exactly the "
        "journal append, mp-queue pickles and worker checkpoints; "
        "outputs byte-compared against a thread-mode replay.",
        dict(lines=4_000, isolation="process"),
        reps=8,
    ),
    Workload(
        "wire_thread",
        "serve --protocol v2 subprocess: 11 DurableSender bulk sends of "
        "8k lines (closed loop), then a 2,000 lines/s open-loop v2 "
        "probe for 2 s, then SIGTERM: spool, socket, dedup, ack.",
        dict(
            isolation="thread",
            bulk_sends=11,
            bulk_lines=8_000,
            paced=((2_000, 2.0),),
            paced_traced=((2_000, 2.0), (8_000, 1.0)),
        ),
        reps=3,
    ),
    Workload(
        "wire_process",
        "The same against --isolation process: ownership is journaled "
        "under the supervisor lock before dispatch, so a journaling "
        "change that delays acks shows as ack latency here.",
        dict(
            isolation="process",
            bulk_sends=11,
            bulk_lines=8_000,
            paced=((2_000, 2.0),),
            paced_traced=((2_000, 2.0), (8_000, 1.0)),
        ),
        reps=3,
        gated=False,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
BY_NAME = {w.name: w for w in WORKLOADS}
#: The workloads ``BENCHMARK.json`` lists.  ``replay_thread`` is left to
#: ``wire_thread`` (the same thread-mode shard behind a socket) and the
#: ladder's ``service.server.*`` rungs, ``wire_process`` to
#: ``replay_process`` (the same worker hop) and ``wire_thread``.
GATED_WORKLOADS = tuple(w for w in WORKLOADS if w.gated)

_ALL = WORKLOAD_NAMES
_REPLAY = ("replay_thread", "replay_process")
_WIRE = ("wire_thread", "wire_process")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float  # share of the reference median it may get worse by
    workloads: tuple[str, ...]
    definition: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "lines_per_s", "lines/s", "higher", 0.25, _ALL,
        "input lines fully processed / wall of the timed section",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.10, _ALL,
        "peak RSS of the system under test (VmHWM; rep child incl. "
        "its workers, or the serve process tree before SIGTERM)",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25, _ALL,
        "input generation + staging + server start until `serving on` "
        "+ one untimed warm-up pass",
    ),
    EndToEnd(
        "ack_p50_ms", "ms", "lower", 0.10, _WIRE,
        "median due-time->ACK latency at the 2,000 lines/s stage",
    ),
    EndToEnd(
        "drain_s", "s", "lower", 0.10, _REPLAY + _WIRE,
        "drain() call duration; wire_*: SIGTERM -> process exit",
    ),
)
E2E_BY_NAME = {m.name: m for m in END_TO_END}

#: ``failed_share`` is absolute: any failed line fails the run.  It is
#: carried by ``attempted``/``failed`` of the result line, not listed
#: as a bounded metric (a metric that is 0 has no relative bound).

#: (metric, workload) pairs whose two baseline sets disagreed by more
#: than the bound: reported, not gated (see README "Demoted pairs").
DEMOTED: dict[tuple[str, str], str] = {
    ("drain_s", "replay_process"): (
        "two baselines' sets disagreed by 12.4% and 10.04% against a 10% "
        "bound (0.399 -> 0.349 s, 0.358 -> 0.394 s, best of 8 each): "
        "four workers and their parent finish on two cores, so the "
        "drain waits on the scheduler"
    ),
    ("drain_s", "replay_thread"): (
        "the recorded baseline's two sets disagreed by 11.5% against a "
        "10% bound (0.132 -> 0.147 s, best of 12 each): 0.13 s holding "
        "sixteen fsyncs, and the host was slower throughout the second set"
    ),
}

#: End-to-end metrics every workload reports: the driver's
#: ``BENCHMARK.json`` can only gate these, because it wants each
#: end-to-end metric from each workload it lists.
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.workloads == _ALL)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # which end-to-end metric, on which workload

    @property
    def layer(self) -> str:
        head, _, rest = self.name.partition(".")
        return f"{head}.{rest.split('.')[0]}" if head == "service" else head


_pl = PerLayer


#: Every per-layer metric is a ladder rung (or a count taken on one),
#: so every traced run reports every one of them on that workload's
#: own input.  Counts that must be 0 (worker restarts, quarantined
#: lines) are oracles, not metrics.
PER_LAYER: tuple[PerLayer, ...] = (
    _pl("datasets.generate_s", "s", "lower", "setup_s, all"),
    _pl("common.tokenize_us_per_line", "us/line", "lower",
        "lines_per_s on stream_hot -> none on wire_*"),
    _pl("parsers.slct.parse_s", "s", "lower", "lines_per_s on batch_mine"),
    _pl("parsers.iplom.parse_s", "s", "lower", "lines_per_s on batch_mine"),
    _pl("parsers.drain.parse_s", "s", "lower",
        "lines_per_s on batch_mine, stream_cold -> none on stream_hot"),
    _pl("parsers.logsig.parse_s", "s", "lower", "reported only (Finding 3)"),
    _pl("parsers.lke.parse_s", "s", "lower", "reported only (Finding 3)"),
    _pl("parsers.parallel.parse_s", "s", "lower", "reported only"),
    _pl("parsers.slct.f_measure", "ratio", "higher", "quality guard"),
    _pl("parsers.iplom.f_measure", "ratio", "higher", "quality guard"),
    _pl("parsers.drain.f_measure", "ratio", "higher", "quality guard"),
    _pl("streaming.f_measure", "ratio", "higher", "quality guard"),
    _pl("mining.event_matrix_s", "s", "lower", "lines_per_s on batch_mine"),
    _pl("mining.pca_detect_s", "s", "lower", "lines_per_s on batch_mine"),
    _pl("mining.detected", "count", "higher", "quality guard"),
    _pl("evaluation.f_measure_s", "s", "lower", "none (check cost)"),
    _pl("streaming.engine.feed_s", "s", "lower",
        "lines_per_s on stream_*; ~1/4 of replay_thread"),
    _pl("streaming.engine.finalize_s", "s", "lower",
        "lines_per_s on stream_*; drain_s on replay_*"),
    _pl("streaming.engine.feed_p99_us", "us", "lower", "lines_per_s on stream_*"),
    _pl("streaming.engine.feed_max_ms", "ms", "lower",
        "the flush stall: lines_per_s on stream_cold"),
    _pl("streaming.engine.flushes", "count", "lower", "lines_per_s on stream_cold"),
    _pl("streaming.cache.match_us_per_line", "us/line", "lower",
        "lines_per_s on stream_hot"),
    _pl("streaming.cache.hit_rate", "ratio", "higher", "lines_per_s on stream_*"),
    _pl("streaming.cache.evictions", "count", "lower", "lines_per_s on stream_cold"),
    _pl("resilience.screen_us_per_line", "us/line", "lower",
        "lines_per_s on replay_thread (8-10%) -> bypassed by stream_*"),
    _pl("resilience.checkpoint_s", "s", "lower", "drain_s on replay_*"),
    _pl("service.shard.submit_s", "s", "lower", "lines_per_s on replay_thread"),
    _pl("service.server.submit_s", "s", "lower", "lines_per_s on replay_thread"),
    _pl("service.server.drain_s", "s", "lower", "drain_s on replay_thread"),
    _pl("service.workers.submit_s", "s", "lower", "lines_per_s on replay_process"),
    _pl("service.workers.drain_s", "s", "lower", "drain_s on replay_process"),
    _pl("service.protocol.journal_append_us", "us", "lower",
        "lines_per_s on replay_process, wire_*; ack_p50_ms on wire_*"),
    _pl("service.protocol.window_observe_us", "us", "lower", "lines_per_s on wire_*"),
    _pl("service.protocol.codec_us", "us", "lower", "lines_per_s on wire_*"),
    _pl("service.isolation_tax", "ratio", "lower",
        "replay_thread / replay_process lines_per_s (ROADMAP goal: 2)"),
    _pl("service.engine_tax", "ratio", "lower",
        "engine rung / replay_thread lines_per_s (ROADMAP goal: 2)"),
    _pl("service.client.spool_s", "s", "lower", "lines_per_s on wire_*"),
    _pl("service.client.flush_s", "s", "lower", "lines_per_s on wire_*"),
    _pl("service.client.resend_ratio", "ratio", "lower", "lines_per_s on wire_*"),
    _pl("service.client.cpu_s", "s", "lower", "lines_per_s on wire_*"),
    _pl("service.server.ack_p50_ms", "ms", "lower", "ack_p50_ms on wire_*"),
    _pl("service.server.ack_p90_ms", "ms", "lower", "tail on wire_*"),
    _pl("service.server.ack_p99_ms", "ms", "lower", "tail on wire_*"),
    _pl("service.server.ack_max_ms", "ms", "lower", "tail on wire_*"),
    _pl("service.server.ack_p50_ms.r8000", "ms", "lower", "overload on wire_*"),
    _pl("service.server.backlog_growth.r8000", "lines/s", "lower",
        "overload on wire_*: unacked lines gained per second"),
    _pl("service.server.gen_late_ms", "ms", "lower",
        "none: how late the load generator ran (p99)"),
    _pl("service.server.stop_s", "s", "lower", "drain_s on wire_*"),
    _pl("service.server.exit_s", "s", "lower",
        "drain_s on wire_*: SIGTERM -> exit of the ladder's server"),
    _pl("service.server.cpu_s", "s", "lower", "lines_per_s on wire_*"),
    _pl("observability.telemetry_tax", "ratio", "lower",
        "lines_per_s on replay_thread when telemetry is on"),
    _pl("observability.render_ms", "ms", "lower", "scrape cost"),
)
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}

#: Ladder input sizes (one ladder per traced run, on that workload's
#: own input; the slow-parser slices are Finding 3's, shrunk to fit).
LADDER = dict(
    lines=6_000,
    blocks=3_000,
    logsig_lines=2_000,
    lke_lines=200,
    journal_appends=2_000,
    paced=((2_000, 1.5), (8_000, 1.0)),
)


def benchmark_json() -> dict:
    """``BENCHMARK.json`` as the driver's contract wants it."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in GATED_WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
