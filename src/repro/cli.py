"""Command-line interface: ``repro-logparse`` / ``python -m repro``.

Subcommands:

* ``generate`` — write a synthetic dataset to a raw log file.
* ``parse`` — parse a raw log file with a chosen parser, writing the
  standard ``.events`` / ``.structured`` outputs of §II-C.
* ``evaluate`` — F-measure of a parser on a sampled dataset (Table II
  style, one cell).
* ``score`` — a parser×dataset score table: labeled F-measure by
  default, or label-free cohesion/separation with ``--label-free``
  (no ground truth consulted — usable on real production traffic).
* ``mine`` — run PCA anomaly detection on simulated HDFS sessions with
  a chosen parser (Table III style, one row).
* ``stream`` — parse a raw log file or synthetic dataset incrementally
  through the template-cache streaming engine, reporting cache hit
  rate and throughput (§V / Finding 3 remedy).  Supports per-record
  error policies with quarantine, deterministic fault injection, and
  checkpoint/resume.
* ``supervise`` — parse under the fault-tolerant supervision runtime:
  a fallback chain of parsers with deadlines, retries, and circuit
  breakers, input screening into a quarantine file, and optional
  injected faults to demonstrate the recovery paths.
* ``soak`` — replay a deterministic chaos-soak scenario (memory
  pressure, slow consumer, deadline squeeze) against the
  resource-budgeted degradation runtime and audit the graceful-
  degradation contract.
* ``serve`` — run the long-lived multi-tenant ingestion service: a
  TCP line front end (or ``--replay`` file adapter) routing
  ``tenant<TAB>content`` lines to per-tenant supervised parser shards
  with their own quarantine, checkpoint, and circuit breaker, under
  per-tenant rate limits and a global admission budget.  SIGINT or
  SIGTERM triggers a graceful drain: every tenant's outputs are
  flushed through the prefix policy (byte-identical to batch),
  checkpoints and per-tenant manifests are committed, and the process
  exits 0.  With ``--protocol v2`` the TCP front end also negotiates
  the acked wire protocol: sequence-tagged lines, cumulative per-
  tenant acknowledgements sent only after durable ownership, and
  per-client dedup windows that make redelivery safe (v1 clients
  keep working unchanged).
* ``send`` — the producer half of protocol v2: spool
  ``tenant<TAB>content`` lines durably (framed JSONL), transmit them
  sequence-tagged, and resend the unacknowledged suffix across
  reconnects until the server owns every line exactly once.  An
  interrupted send exits 4 with its lines still spooled; rerunning
  with the same ``--spool`` (and no input) finishes the delivery.
* ``report`` — render a human-readable post-mortem from the telemetry
  artifacts (``--metrics-out`` / ``--trace-out`` / ``--events-out``)
  a previous run exported.
* ``verify-run`` — re-hash a run's artifacts against the integrity
  manifest it committed with ``--manifest-out``; optionally diff two
  manifests to certify a resumed run reconverged with a fault-free
  one.  A single flipped byte in any covered artifact exits with the
  data-error code (3).

Every artifact the CLI writes goes through the durability layer
(:mod:`repro.resilience.durability`): whole-file exports are atomic
(temp file, fsync, rename, parent-dir fsync) and append-streaming
JSONL (quarantine, event timeline) is length+CRC32-framed with
torn-tail recovery, so no crash or disk fault leaves a half-written
artifact behind.

``stream``, ``supervise``, and ``soak`` all run with the unified
telemetry layer attached: every summary they print is read back from
the metrics registry (one source of truth, no private arithmetic),
and ``--metrics-out`` / ``--trace-out`` / ``--events-out`` export the
registry (Prometheus text or JSON), the span trace (JSONL or Chrome
``trace_event``), and the structured event timeline.

``stream`` additionally accepts resource budgets (``--budget-mem``,
``--budget-wall``, ``--budget-queue``): when any is given the run goes
through the degradation ladder (``--ladder``), stepping down to
cheaper parsers instead of dying when a soft limit is breached.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 data error, 4 runtime failure.  ``stream``/``soak`` interrupted by
SIGINT/SIGTERM still finalize their checkpoint/telemetry/manifest
artifacts and exit ``128 + signum`` (the shell convention); ``serve``
treats those signals as the drain request and exits 0 after a clean
drain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import nullcontext
from functools import partial

from repro.common.errors import (
    DatasetError,
    EvaluationError,
    IntegrityError,
    MiningError,
    ParserConfigurationError,
    ReproError,
    ValidationError,
)
from repro.datasets import (
    DATASET_NAMES,
    generate_dataset,
    generate_hdfs_sessions,
    get_dataset_spec,
    iter_dataset,
    iter_raw_log,
    read_raw_log,
    write_parse_result,
    write_raw_log,
)
from repro.degradation import (
    SCENARIO_KINDS,
    BudgetMonitor,
    DegradationLadder,
    DegradedSession,
    ResourceBudget,
    SoakScenario,
    default_ladder,
    run_soak,
)
from repro.evaluation import evaluate_accuracy, evaluate_mining_impact
from repro.observability import (
    AlertEngine,
    Telemetry,
    TelemetryServer,
    default_rules,
    export_metrics,
    render_run_report,
    summary_from_registry,
)
from repro.evaluation.mining_impact import table3_parser_factory
from repro.parsers import PARSER_NAMES, default_preprocessor, make_parser
from repro.resilience import (
    ErrorPolicy,
    FaultyIO,
    FlakyFactory,
    IoFault,
    NetworkFault,
    ParserSupervisor,
    QuarantineSink,
    RetryPolicy,
    RunManifest,
    corrupt_records,
    crash_storm_schedule,
    diff_manifests,
    ensure_artifact,
    fault_schedule,
    load_checkpoint,
    reconcile_jsonl,
    restore_accumulator,
    restore_streaming_parser,
    save_checkpoint,
    screen_records,
    verify_manifest,
)
from repro.service import (
    AdmissionController,
    DurableSender,
    IngestionService,
    LineServer,
    PROTOCOL_V1,
    PROTOCOL_V2,
    PROTOCOLS,
    ShutdownRequested,
    graceful_signals,
    replay_lines,
    supervisor_status,
)
from repro.resilience.durability import (
    CODEC_FRAMED,
    CODEC_LINES,
    CODEC_OPAQUE,
)
from repro.streaming import ParseSession, StreamingParser, diff_results

#: Exit codes per error family (the argparse convention reserves 2 for
#: usage errors, which configuration errors generalize).
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def exit_code_for(error: ReproError) -> int:
    """Map a :class:`ReproError` onto the CLI's exit-code contract.

    Configuration/usage problems exit 2, bad input data exits 3, and
    runtime failures (timeouts, crashed workers, broken checkpoints,
    exhausted fallback chains) exit 4.
    """
    if isinstance(
        error,
        (
            ParserConfigurationError,
            ValidationError,
            EvaluationError,
            MiningError,
        ),
    ):
        return EXIT_CONFIG
    if isinstance(error, (DatasetError, IntegrityError)):
        return EXIT_DATA
    return EXIT_RUNTIME


def _add_generate(subparsers) -> None:
    cmd = subparsers.add_parser(
        "generate", help="generate a synthetic dataset into a raw log file"
    )
    cmd.add_argument("dataset", choices=DATASET_NAMES)
    cmd.add_argument("output", help="raw log file to write")
    cmd.add_argument("--size", type=int, default=2000)
    cmd.add_argument("--seed", type=int, default=None)


def _add_parse(subparsers) -> None:
    cmd = subparsers.add_parser(
        "parse", help="parse a raw log file into events + structured logs"
    )
    cmd.add_argument("parser", choices=PARSER_NAMES)
    cmd.add_argument("input", help="raw log file to parse")
    cmd.add_argument(
        "--output-stem",
        default=None,
        help="stem for .events/.structured outputs (default: input path)",
    )
    _add_parser_param_flags(cmd)


def _add_evaluate(subparsers) -> None:
    cmd = subparsers.add_parser(
        "evaluate", help="parsing accuracy (F-measure) on a sampled dataset"
    )
    cmd.add_argument("parser", choices=PARSER_NAMES)
    cmd.add_argument("dataset", choices=DATASET_NAMES)
    cmd.add_argument("--sample-size", type=int, default=2000)
    cmd.add_argument("--preprocess", action="store_true")
    cmd.add_argument("--runs", type=int, default=None)
    cmd.add_argument("--seed", type=int, default=None)


def _add_metrics(subparsers) -> None:
    cmd = subparsers.add_parser(
        "metrics",
        help="all clustering metrics of a parser on a sampled dataset",
    )
    cmd.add_argument("parser", choices=PARSER_NAMES)
    cmd.add_argument("dataset", choices=DATASET_NAMES)
    cmd.add_argument("--sample-size", type=int, default=2000)
    cmd.add_argument("--preprocess", action="store_true")
    cmd.add_argument("--seed", type=int, default=None)


def _add_score(subparsers) -> None:
    cmd = subparsers.add_parser(
        "score",
        help="score parsers across datasets: labeled F-measure, or "
        "label-free cohesion/separation with --label-free",
    )
    cmd.add_argument(
        "--label-free",
        action="store_true",
        help="score intrinsically (cohesion/separation), no ground "
        "truth consulted",
    )
    cmd.add_argument(
        "--parsers",
        default=",".join(PARSER_NAMES),
        help="comma-separated parser names (default: all registry "
        "parsers of the expanded comparison)",
    )
    cmd.add_argument(
        "--datasets",
        default=",".join(DATASET_NAMES),
        help="comma-separated dataset names (default: all five)",
    )
    cmd.add_argument("--sample-size", type=int, default=1000)
    cmd.add_argument("--preprocess", action="store_true")
    cmd.add_argument("--seed", type=int, default=None)


def _add_tune(subparsers) -> None:
    cmd = subparsers.add_parser(
        "tune",
        help="grid-search parser parameters on a 2k sample (Finding 4)",
    )
    cmd.add_argument("parser", choices=PARSER_NAMES)
    cmd.add_argument("dataset", choices=DATASET_NAMES)
    cmd.add_argument("--sample-size", type=int, default=2000)
    cmd.add_argument("--seed", type=int, default=None)


def _add_mine(subparsers) -> None:
    cmd = subparsers.add_parser(
        "mine",
        help="PCA anomaly detection over simulated HDFS block sessions",
    )
    cmd.add_argument(
        "parser", choices=[*PARSER_NAMES, "GroundTruth"]
    )
    cmd.add_argument("--blocks", type=int, default=2000)
    cmd.add_argument("--seed", type=int, default=None)
    cmd.add_argument("--alpha", type=float, default=0.001)


def _add_stream(subparsers) -> None:
    cmd = subparsers.add_parser(
        "stream",
        help="parse incrementally through the streaming engine",
    )
    cmd.add_argument("parser", choices=PARSER_NAMES)
    cmd.add_argument(
        "input",
        nargs="?",
        default=None,
        help="raw log file to stream (omit when using --dataset)",
    )
    cmd.add_argument(
        "--dataset",
        choices=DATASET_NAMES,
        default=None,
        help="stream a synthetic dataset instead of a file",
    )
    cmd.add_argument(
        "--size", type=int, default=100_000,
        help="lines to generate with --dataset",
    )
    cmd.add_argument(
        "--flush-policy",
        choices=["delta", "prefix"],
        default="delta",
        help="delta: parse only misses (fast, approximate); "
        "prefix: re-parse the retained prefix (identical to batch)",
    )
    cmd.add_argument("--flush-size", type=int, default=512)
    cmd.add_argument("--cache-capacity", type=int, default=4096)
    cmd.add_argument("--max-retries", type=int, default=3)
    cmd.add_argument(
        "--report-every", type=int, default=0,
        help="print a progress line every N streamed lines",
    )
    cmd.add_argument(
        "--no-retain",
        action="store_true",
        help="drop per-line state for bounded memory (no outputs/verify)",
    )
    cmd.add_argument(
        "--verify",
        action="store_true",
        help="batch-parse the same lines afterwards and diff the results",
    )
    cmd.add_argument(
        "--mine",
        action="store_true",
        help="run PCA anomaly detection on the live session-event matrix",
    )
    cmd.add_argument(
        "--output-stem",
        default=None,
        help="write .events/.structured outputs of the finalized parse",
    )
    _add_parser_param_flags(cmd)
    cmd.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="backpressure: bound the miss buffer at this many records",
    )
    cmd.add_argument(
        "--overflow",
        choices=["block", "shed", "sample"],
        default="block",
        help="with --max-pending: block (flush synchronously), shed "
        "(drop overflowing misses), or sample (keep every k-th)",
    )
    cmd.add_argument(
        "--budget-mem",
        type=float,
        default=None,
        metavar="MB",
        help="hard memory budget in MB (soft limit at half); enables "
        "the degradation ladder",
    )
    cmd.add_argument(
        "--budget-wall",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard wall-clock budget (soft limit at half); enables "
        "the degradation ladder",
    )
    cmd.add_argument(
        "--budget-queue",
        type=float,
        default=None,
        metavar="DEPTH",
        help="hard miss-queue budget (soft limit at half); enables "
        "the degradation ladder",
    )
    cmd.add_argument(
        "--ladder",
        default=None,
        help="comma-separated degradation rungs, most faithful first "
        "(default: from PARSER down the standard ladder)",
    )
    cmd.add_argument(
        "--check-every",
        type=int,
        default=500,
        help="records between budget checks under a budget",
    )
    _add_hardening_flags(cmd)
    _add_telemetry_flags(cmd)
    _add_endpoint_flag(cmd)
    cmd.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint file: written every --checkpoint-every records "
        "(and read back with --resume)",
    )
    cmd.add_argument(
        "--checkpoint-every",
        type=int,
        default=10_000,
        help="records between checkpoint snapshots",
    )
    cmd.add_argument(
        "--resume",
        action="store_true",
        help="restore engine state from --checkpoint and skip the "
        "records it already consumed",
    )


def _add_parser_param_flags(cmd, *, preprocess: bool = True) -> None:
    """Per-parser construction flags (read back by :func:`_parser_params`).

    ``serve`` shards apply no preprocessing, so it skips that flag.
    """
    if preprocess:
        cmd.add_argument(
            "--preprocess-dataset",
            default=None,
            help="apply this dataset's domain-knowledge preprocessing rules",
        )
    cmd.add_argument(
        "--groups",
        type=int,
        default=50,
        help="LogSig only: number of signature groups",
    )
    cmd.add_argument("--support", type=float, default=0.005, help="SLCT only")
    cmd.add_argument(
        "--sim-threshold",
        type=float,
        default=0.4,
        help="Drain only: template-merge similarity threshold",
    )
    cmd.add_argument(
        "--depth", type=int, default=4, help="Drain only: fixed tree depth"
    )
    cmd.add_argument("--seed", type=int, default=None)


def _add_hardening_flags(cmd) -> None:
    """Input-hardening / fault-injection flags shared by stream+supervise."""
    cmd.add_argument(
        "--error-policy",
        choices=["raise", "skip", "quarantine"],
        default=None,
        help="what to do with undecodable/oversized/binary records "
        "(default: raise; quarantine when --quarantine-path or "
        "--faults is given)",
    )
    cmd.add_argument(
        "--quarantine-path",
        default=None,
        help="append rejected records (with provenance) to this JSONL file",
    )
    cmd.add_argument(
        "--max-record-len",
        type=int,
        default=None,
        help="reject records whose content exceeds this many characters",
    )
    cmd.add_argument(
        "--faults",
        type=int,
        default=None,
        metavar="SEED",
        help="deterministically corrupt the input stream with this seed",
    )
    cmd.add_argument(
        "--fault-every",
        type=int,
        default=20,
        help="with --faults: corrupt every N-th record",
    )
    cmd.add_argument(
        "--io-faults",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a deterministic schedule of IO faults (EIO, "
        "ENOSPC, torn writes, fsync failures) into artifact writes; "
        "writers retry and divert before giving up",
    )


def _resolve_policy(
    args, telemetry=None, io=None
) -> tuple[str | None, "QuarantineSink | None"]:
    """Resolve the hardening flags into (policy mode, sink)."""
    mode = args.error_policy
    if mode is None and (
        args.quarantine_path is not None or args.faults is not None
    ):
        mode = "quarantine"
    sink = None
    if mode is not None:
        sink = QuarantineSink(
            args.quarantine_path, telemetry=telemetry, io=io
        )
    return mode, sink


def _make_io(args) -> "FaultyIO | None":
    """Build the scripted fault-injecting IO layer from --io-faults."""
    seed = getattr(args, "io_faults", None)
    if seed is None:
        return None
    return FaultyIO(fault_schedule(IoFault, seed))


def _add_telemetry_flags(cmd) -> None:
    """Telemetry-export flags shared by stream/supervise/soak."""
    cmd.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="export the metrics registry on exit (.json for a JSON "
        "snapshot with the time-series ring, anything else for "
        "Prometheus text exposition)",
    )
    cmd.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="export the span trace on exit (see --trace-format)",
    )
    cmd.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace export format: one JSON span per line, or a Chrome "
        "trace_event file for chrome://tracing / Perfetto",
    )
    cmd.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="stream the structured event timeline (quarantine records, "
        "ladder steps, fallback reports, ...) to this JSONL file",
    )
    cmd.add_argument(
        "--manifest-out",
        default=None,
        metavar="PATH",
        help="commit an integrity manifest (SHA-256, size, record "
        "count of every artifact this run wrote) atomically at run "
        "end; check it later with `repro-logparse verify-run`",
    )


def _add_endpoint_flag(cmd) -> None:
    """The live scrape endpoint flag (long-running commands only)."""
    cmd.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics, /healthz, and /status over HTTP on "
        "this port for the lifetime of the run (0 picks a free port, "
        "published on stdout as `telemetry on URL`)",
    )


def _start_endpoint(args, telemetry, *, status=None, health=None):
    """Start the scrape endpoint when --telemetry-port asked for one."""
    port = getattr(args, "telemetry_port", None)
    if port is None:
        return None
    server = TelemetryServer(
        telemetry.metrics, port=port, status=status, health=health
    )
    server.start()
    print(f"telemetry on {server.url}", flush=True)
    return server


def _make_telemetry(args, trace_id: str, io=None) -> Telemetry:
    """One telemetry handle per command invocation.

    Always built — the registry is the single source of truth behind
    every summary line — but files are only written when the export
    flags ask for them.
    """
    return Telemetry.create(
        trace_id=trace_id,
        events_path=getattr(args, "events_out", None),
        io=io,
    )


def _export_telemetry(args, telemetry: Telemetry, artifacts=(), io=None) -> None:
    """Write whichever artifacts the export flags requested.

    *artifacts* is a list of ``(path, codec)`` pairs the command itself
    wrote (outputs, quarantine, checkpoint); together with the
    telemetry exports they form the manifest committed by
    ``--manifest-out``.  The manifest itself is written last, and
    atomically, so it never describes files that do not yet exist.
    """
    telemetry.metrics.snapshot()
    written = []
    if args.metrics_out:
        export_metrics(telemetry.metrics, args.metrics_out, io=io)
        written.append(args.metrics_out)
    if args.trace_out:
        telemetry.tracer.export(args.trace_out, fmt=args.trace_format, io=io)
        written.append(args.trace_out)
    if args.events_out:
        # The event log appends lazily; an uneventful run should still
        # leave a (valid, empty) artifact where the flag pointed — but
        # never truncate a timeline a previous life already wrote.
        ensure_artifact(args.events_out, io=io)
        written.append(args.events_out)
    telemetry.close()
    manifest_out = getattr(args, "manifest_out", None)
    if manifest_out:
        manifest = RunManifest(
            run={
                "command": args.command,
                "seed": getattr(args, "seed", None),
            }
        )
        entries = list(artifacts)
        if args.metrics_out:
            entries.append((args.metrics_out, CODEC_LINES))
        if args.trace_out:
            entries.append((args.trace_out, CODEC_LINES))
        if args.events_out:
            entries.append((args.events_out, CODEC_FRAMED))
        for path, codec in entries:
            if path and os.path.exists(path):
                manifest.add(path, codec=codec)
        manifest.write(manifest_out, io=io)
        written.append(manifest_out)
    if written:
        print(f"telemetry: wrote {', '.join(written)}")


def _add_supervise(subparsers) -> None:
    cmd = subparsers.add_parser(
        "supervise",
        help="parse under the fault-tolerant supervision runtime "
        "(fallback chain, deadlines, retries, circuit breakers)",
    )
    cmd.add_argument(
        "input",
        nargs="?",
        default=None,
        help="raw log file to parse (omit when using --dataset)",
    )
    cmd.add_argument(
        "--dataset",
        choices=DATASET_NAMES,
        default=None,
        help="parse a synthetic dataset instead of a file",
    )
    cmd.add_argument(
        "--size", type=int, default=2000,
        help="lines to generate with --dataset",
    )
    cmd.add_argument(
        "--chain",
        default="IPLoM,SLCT",
        help="comma-separated fallback chain, preferred parser first",
    )
    cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock deadline per parse attempt (seconds)",
    )
    cmd.add_argument(
        "--retries",
        type=int,
        default=3,
        help="total attempts per parser before falling back",
    )
    cmd.add_argument(
        "--retry-delay",
        type=float,
        default=0.01,
        help="base backoff delay between retries (seconds)",
    )
    _add_hardening_flags(cmd)
    _add_telemetry_flags(cmd)
    cmd.add_argument(
        "--fault-parser",
        default=None,
        metavar="NAME",
        help="wrap this chain entry in a flaky factory that fails first",
    )
    cmd.add_argument(
        "--fault-parser-fails",
        type=int,
        default=2,
        help="with --fault-parser: how many parses crash before recovery",
    )
    cmd.add_argument(
        "--fault-parser-hang",
        type=float,
        default=0.0,
        help="with --fault-parser: stall instead of crashing (seconds)",
    )
    cmd.add_argument(
        "--output-stem",
        default=None,
        help="write .events/.structured outputs of the winning parse",
    )
    cmd.add_argument(
        "--verify",
        action="store_true",
        help="re-parse the clean records with the winning parser "
        "un-supervised and diff the results",
    )
    _add_parser_param_flags(cmd)


def _add_soak(subparsers) -> None:
    cmd = subparsers.add_parser(
        "soak",
        help="replay a deterministic chaos-soak scenario against the "
        "degradation runtime and audit the contract",
    )
    cmd.add_argument("scenario", choices=SCENARIO_KINDS)
    cmd.add_argument("--seed", type=int, default=7)
    cmd.add_argument("--blocks", type=int, default=40)
    cmd.add_argument(
        "--check-every", type=int, default=20,
        help="records between budget checks",
    )
    cmd.add_argument(
        "--min-transitions",
        type=int,
        default=2,
        help="ladder transitions the audit requires",
    )
    _add_telemetry_flags(cmd)


def _add_serve(subparsers) -> None:
    cmd = subparsers.add_parser(
        "serve",
        help="run the long-lived multi-tenant ingestion service",
    )
    cmd.add_argument("parser", choices=PARSER_NAMES)
    cmd.add_argument(
        "data_dir",
        help="data root; each tenant owns a subdirectory of artifacts",
    )
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port for the line front end (0 picks a free port, "
        "published on stdout as `serving on HOST:PORT`)",
    )
    cmd.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="serve tenant<TAB>content lines from FILE through the "
        "same admission/routing path instead of TCP, then drain "
        "and exit",
    )
    cmd.add_argument(
        "--drain-after",
        type=int,
        default=None,
        metavar="N",
        help="drain and exit once N lines have been submitted "
        "(bounded soaks / CI; default: run until SIGINT/SIGTERM)",
    )
    cmd.add_argument(
        "--protocol",
        choices=list(PROTOCOLS),
        default=PROTOCOL_V1,
        help="wire protocol for the TCP front end: 'v1' is the "
        "fire-and-forget tenant<TAB>content stream, 'v2' adds "
        "HELLO negotiation, sequence-tagged lines, cumulative "
        "acks, and per-tenant dedup windows (exactly-once with "
        "a `send`-side spool; v1 clients still work unchanged)",
    )
    cmd.add_argument("--flush-size", type=int, default=200)
    cmd.add_argument("--cache-capacity", type=int, default=512)
    cmd.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="per-tenant backpressure: bound each shard's miss buffer",
    )
    cmd.add_argument(
        "--overflow",
        choices=["block", "shed", "sample"],
        default="block",
        help="with --max-pending: per-shard overflow policy",
    )
    cmd.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive parser crashes before a tenant's circuit "
        "breaker opens (its lines then go to its quarantine)",
    )
    cmd.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="LINES_PER_S",
        help="per-tenant token-bucket admission rate",
    )
    cmd.add_argument(
        "--burst",
        type=float,
        default=None,
        help="per-tenant burst capacity (default: 2x --rate)",
    )
    cmd.add_argument(
        "--budget-mem",
        type=float,
        default=None,
        metavar="MB",
        help="global service memory budget: soft breach samples the "
        "noisiest tenant, hard breach sheds it",
    )
    cmd.add_argument(
        "--budget-queue",
        type=float,
        default=None,
        metavar="DEPTH",
        help="global summed shard-queue budget (same valve as "
        "--budget-mem)",
    )
    cmd.add_argument(
        "--admission-every",
        type=int,
        default=64,
        help="admissions between global budget re-grades",
    )
    cmd.add_argument(
        "--sample-keep",
        type=int,
        default=2,
        help="under a soft breach, admit 1 of every this-many lines "
        "from the noisiest tenant",
    )
    cmd.add_argument(
        "--tenant-budget-mem",
        type=float,
        default=None,
        metavar="MB",
        help="per-tenant memory budget: the shard runs on the "
        "degradation ladder and trips its breaker when exhausted",
    )
    cmd.add_argument(
        "--tenant-budget-queue",
        type=float,
        default=None,
        metavar="DEPTH",
        help="per-tenant queue budget (same runtime as "
        "--tenant-budget-mem)",
    )
    cmd.add_argument(
        "--ladder",
        default=None,
        help="comma-separated degradation rungs for budgeted tenants "
        "(default: from PARSER down the standard ladder)",
    )
    cmd.add_argument(
        "--check-every",
        type=int,
        default=100,
        help="records between per-tenant budget checks",
    )
    cmd.add_argument(
        "--isolation",
        choices=["thread", "process"],
        default="thread",
        help="tenant failure domain: 'thread' shares the interpreter "
        "(PR 7 behavior), 'process' runs each shard in a supervised "
        "worker subprocess that survives crashes, hangs, and poison "
        "records",
    )
    cmd.add_argument(
        "--watchdog",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="process isolation: seconds without a worker heartbeat "
        "before it is declared hung and terminated",
    )
    cmd.add_argument(
        "--checkpoint-every",
        type=int,
        default=500,
        metavar="N",
        help="process isolation: records between worker checkpoints "
        "(bounds the replay window after a crash)",
    )
    cmd.add_argument(
        "--poison-threshold",
        type=int,
        default=3,
        metavar="N",
        help="process isolation: consecutive replay deaths on one "
        "record before it is quarantined as a poison pill",
    )
    cmd.add_argument(
        "--fence-threshold",
        type=int,
        default=5,
        metavar="N",
        help="process isolation: consecutive worker deaths before "
        "the shard is fenced (no further restarts)",
    )
    cmd.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="process isolation: per-tenant drain deadline; on "
        "expiry the worker is escalated SIGTERM then SIGKILL",
    )
    cmd.add_argument(
        "--proc-faults",
        type=int,
        default=None,
        metavar="SEED",
        help="process isolation: inject a seeded crash-storm "
        "schedule (SIGKILL / exit / hang) into every tenant's "
        "worker — chaos testing only",
    )
    cmd.add_argument(
        "--status-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print (and journal to the event log) a one-line "
        "per-tenant supervisor status every SECONDS",
    )
    _add_parser_param_flags(cmd, preprocess=False)
    cmd.add_argument(
        "--io-faults",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a deterministic schedule of IO faults into "
        "artifact writes (writers retry and divert)",
    )
    _add_telemetry_flags(cmd)
    _add_endpoint_flag(cmd)
    cmd.add_argument(
        "--alerts-out",
        default=None,
        metavar="PATH",
        help="run the SLO alert engine and append its firing/resolved "
        "transitions to this durable framed-JSONL log",
    )
    cmd.add_argument(
        "--alert-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between alert-rule evaluations",
    )
    cmd.add_argument(
        "--slo-objective",
        type=float,
        default=0.99,
        metavar="FRACTION",
        help="per-tenant ingest success objective for the error-budget "
        "burn-rate rule (0.99 = 1%% error budget)",
    )


def _add_send(subparsers) -> None:
    cmd = subparsers.add_parser(
        "send",
        help="deliver tenant<TAB>content lines to a --protocol v2 "
        "serve endpoint exactly once, via a durable local spool",
    )
    cmd.add_argument("host")
    cmd.add_argument("port", type=int)
    cmd.add_argument(
        "input",
        nargs="?",
        default=None,
        help="file of tenant<TAB>content lines; omit to only flush "
        "lines a previous interrupted send left in the spool",
    )
    cmd.add_argument(
        "--client-id",
        default="sender",
        help="stable client identity keying the server's dedup "
        "windows; reuse the same id with the same spool",
    )
    cmd.add_argument(
        "--spool",
        required=True,
        metavar="PATH",
        help="framed-JSONL spool file: every line is spooled before "
        "it is wired and removed only once acknowledged, so an "
        "interrupted send loses nothing",
    )
    cmd.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="flush deadline; on expiry the command exits 4 with the "
        "unacknowledged lines still safe in the spool",
    )
    cmd.add_argument(
        "--net-faults",
        type=int,
        default=None,
        metavar="SEED",
        help="enact a seeded network-fault schedule (partition, "
        "half-close, duplicate delivery, reorder, ack drop) while "
        "sending — chaos testing only; the server-side outcome "
        "must still be exactly-once",
    )
    _add_telemetry_flags(cmd)


def _add_watch(subparsers) -> None:
    cmd = subparsers.add_parser(
        "watch",
        help="top-style live view of a serve --telemetry-port endpoint",
    )
    cmd.add_argument(
        "url",
        help="endpoint base URL printed by the serving process "
        "(e.g. http://127.0.0.1:9100)",
    )
    cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between /status polls",
    )
    cmd.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N refreshes (default: run until interrupted)",
    )
    cmd.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (same as --iterations 1)",
    )


def _add_report(subparsers) -> None:
    cmd = subparsers.add_parser(
        "report",
        help="render a post-mortem from exported telemetry artifacts",
    )
    cmd.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="metrics file a run exported with --metrics-out",
    )
    cmd.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="JSONL trace a run exported with --trace-out",
    )
    cmd.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="event timeline a run exported with --events-out",
    )


def _add_verify_run(subparsers) -> None:
    cmd = subparsers.add_parser(
        "verify-run",
        help="re-hash a run's artifacts against its integrity manifest",
    )
    cmd.add_argument(
        "manifest",
        help="manifest file a run committed with --manifest-out",
    )
    cmd.add_argument(
        "--against",
        default=None,
        metavar="MANIFEST",
        help="also require this second manifest to agree artifact-by-"
        "artifact (hashes, sizes, record counts) — certifies e.g. "
        "that a crashed-and-resumed run converged to the same "
        "artifacts as a fault-free one",
    )
    cmd.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="NAME",
        help="artifact names to exclude from the --against comparison "
        "(inherently run-varying artifacts such as traces or event "
        "timelines); may be repeated",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-logparse",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_parse(subparsers)
    _add_evaluate(subparsers)
    _add_metrics(subparsers)
    _add_score(subparsers)
    _add_tune(subparsers)
    _add_mine(subparsers)
    _add_stream(subparsers)
    _add_supervise(subparsers)
    _add_soak(subparsers)
    _add_serve(subparsers)
    _add_send(subparsers)
    _add_watch(subparsers)
    _add_report(subparsers)
    _add_verify_run(subparsers)
    return parser


def _cmd_generate(args) -> int:
    spec = get_dataset_spec(args.dataset)
    dataset = generate_dataset(spec, args.size, seed=args.seed)
    write_raw_log(dataset.records, args.output)
    print(
        f"wrote {len(dataset)} {spec.name} log messages "
        f"({len(dataset.observed_event_ids())} event types) to {args.output}"
    )
    return 0


def _cmd_parse(args) -> int:
    records = read_raw_log(args.input)
    preprocessor = (
        default_preprocessor(args.preprocess_dataset)
        if args.preprocess_dataset
        else None
    )
    parser = make_parser(
        args.parser,
        preprocessor=preprocessor,
        **_parser_params(args.parser, args),
    )
    result = parser.parse(records)
    stem = args.output_stem or args.input
    events_path, structured_path = write_parse_result(result, stem)
    print(
        f"{parser.name}: {len(result.events)} events from "
        f"{len(records)} lines -> {events_path}, {structured_path}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    result = evaluate_accuracy(
        args.parser,
        args.dataset,
        sample_size=args.sample_size,
        preprocess=args.preprocess,
        runs=args.runs,
        seed=args.seed,
    )
    print(
        f"{result.parser} on {result.dataset} "
        f"({'preprocessed' if result.preprocessed else 'raw'}, "
        f"{result.sample_size} lines, {len(result.runs)} run(s)): "
        f"F-measure {result.mean_f_measure:.3f}"
        + (
            f" ± {result.stdev_f_measure:.3f}"
            if len(result.runs) > 1
            else ""
        )
    )
    return 0


def _cmd_metrics(args) -> int:
    from repro.datasets import generate_dataset, sample_records
    from repro.evaluation.accuracy import tuned_parser_factory
    from repro.evaluation.fmeasure import singletonize_outliers
    from repro.evaluation.metrics import summary

    spec = get_dataset_spec(args.dataset)
    generated = generate_dataset(
        spec, max(3 * args.sample_size, 4000), seed=args.seed
    )
    sampled = sample_records(
        generated.records, args.sample_size, seed=args.seed
    )
    truth = [record.truth_event or "" for record in sampled]
    parser = tuned_parser_factory(
        args.parser, args.dataset, preprocess=args.preprocess,
        seed=args.seed,
    )
    parsed = parser.parse(sampled)
    scores = summary(singletonize_outliers(parsed.assignments), truth)
    print(f"{parser.name} on {spec.name} ({len(sampled)} lines):")
    for metric, value in scores.items():
        print(f"  {metric:20s} {value:.3f}")
    return 0


def _cmd_score(args) -> int:
    from repro.evaluation.cohesion import evaluate_label_free

    parsers = [name.strip() for name in args.parsers.split(",") if name.strip()]
    datasets = [name.strip() for name in args.datasets.split(",") if name.strip()]
    if not parsers or not datasets:
        raise ValidationError("score needs >= 1 parser and >= 1 dataset")
    # Validate every parser name up front (ValidationError, exit 2,
    # with the available list) before any expensive run starts.
    from repro.parsers.registry import resolve_parser_name

    parsers = [resolve_parser_name(name) for name in parsers]
    for name in datasets:
        if name not in DATASET_NAMES:
            raise ValidationError(
                f"unknown dataset {name!r}; choose from {sorted(DATASET_NAMES)}"
            )

    if args.label_free:
        print(
            f"label-free scores ({args.sample_size} lines per dataset, "
            "no ground truth consulted):"
        )
        print(
            f"{'parser':12s} {'dataset':10s} "
            f"{'cohesion':>9s} {'separation':>11s} {'score':>7s}"
        )
        for parser_name in parsers:
            for dataset_name in datasets:
                score = evaluate_label_free(
                    parser_name,
                    dataset_name,
                    sample_size=args.sample_size,
                    preprocess=args.preprocess,
                    seed=args.seed,
                )
                print(
                    f"{parser_name:12s} {score.dataset:10s} "
                    f"{score.cohesion:9.3f} {score.separation:11.3f} "
                    f"{score.score:7.3f}"
                )
        return 0

    print(f"labeled F-measure ({args.sample_size} lines per dataset):")
    print(f"{'parser':12s} {'dataset':10s} {'f_measure':>10s}")
    for parser_name in parsers:
        for dataset_name in datasets:
            result = evaluate_accuracy(
                parser_name,
                dataset_name,
                sample_size=args.sample_size,
                preprocess=args.preprocess,
                runs=1,
                seed=args.seed,
            )
            print(
                f"{parser_name:12s} {result.dataset:10s} "
                f"{result.mean_f_measure:10.3f}"
            )
    return 0


def _cmd_tune(args) -> int:
    from repro.evaluation.tuning import tune_on_dataset

    report = tune_on_dataset(
        args.parser,
        args.dataset,
        sample_size=args.sample_size,
        seed=args.seed,
    )
    print(
        f"tuned {report.parser} on a {report.sample_size}-line "
        f"{report.dataset} sample ({len(report.candidates)} candidates, "
        f"{report.total_seconds:.1f}s total):"
    )
    for candidate in sorted(
        report.candidates, key=lambda c: -c.f_measure
    ):
        print(
            f"  F={candidate.f_measure:.3f} ({candidate.seconds:5.1f}s) "
            f"{dict(candidate.params)}"
        )
    print(f"best: {dict(report.best.params)}")
    return 0


def _cmd_mine(args) -> int:
    dataset = generate_hdfs_sessions(args.blocks, seed=args.seed)
    parser = table3_parser_factory(args.parser, seed=args.seed)
    row = evaluate_mining_impact(parser, dataset, alpha=args.alpha)
    print(
        f"{row.parser}: parsing accuracy {row.parsing_accuracy:.2f}, "
        f"reported {row.reported}, detected {row.detected} "
        f"({row.detection_rate:.0%} of {row.true_anomalies}), "
        f"false alarms {row.false_alarms} ({row.false_alarm_rate:.1%})"
    )
    return 0


def _parser_params(name: str, args) -> dict:
    """Per-parser construction keywords from the shared flags."""
    params: dict = {}
    if name == "LogSig":
        params.update(groups=args.groups, seed=args.seed)
    elif name == "SLCT":
        params.update(support=args.support)
    elif name == "LKE":
        params.update(seed=args.seed)
    elif name == "Drain":
        params.update(
            sim_threshold=args.sim_threshold, depth=args.depth
        )
    return params


def _cmd_stream(args) -> int:
    if (args.dataset is None) == (args.input is None):
        print(
            "error: give exactly one of INPUT or --dataset",
            file=sys.stderr,
        )
        return 2
    if args.no_retain and (
        args.verify or args.output_stem or args.flush_policy == "prefix"
    ):
        print(
            "error: --no-retain cannot be combined with --verify, "
            "--output-stem, or --flush-policy prefix",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    budgeted = (
        args.budget_mem is not None
        or args.budget_wall is not None
        or args.budget_queue is not None
        or args.ladder is not None
    )
    if budgeted and (
        args.checkpoint
        or args.resume
        or args.verify
        or args.flush_policy == "prefix"
    ):
        print(
            "error: resource budgets cannot be combined with "
            "--checkpoint/--resume/--verify/--flush-policy prefix "
            "(the flush parser may change mid-stream)",
            file=sys.stderr,
        )
        return 2
    params = _parser_params(args.parser, args)
    factory = partial(make_parser, args.parser, **params)
    preprocessor = (
        default_preprocessor(args.preprocess_dataset)
        if args.preprocess_dataset
        else None
    )
    io = _make_io(args)
    telemetry = _make_telemetry(args, trace_id="stream", io=io)
    tserver = _start_endpoint(
        args,
        telemetry,
        status=lambda: {
            "command": "stream",
            "summary": summary_from_registry(telemetry.metrics),
        },
    )
    policy_mode, sink = _resolve_policy(args, telemetry=telemetry, io=io)
    if args.dataset is not None:
        source = f"dataset:{args.dataset}"
        records = iter_dataset(
            get_dataset_spec(args.dataset), args.size, seed=args.seed
        )
    else:
        source = args.input
        records = iter_raw_log(
            args.input,
            policy=policy_mode or "raise",
            quarantine=sink,
        )
    if args.faults is not None:
        records = corrupt_records(
            records, seed=args.faults, every=args.fault_every
        )
    # The sink is a context manager: flushed and closed even when the
    # stream dies mid-run, so quarantined records are never lost — and
    # the telemetry export in the finally gives a failed run the same
    # post-mortem artifacts as a clean one.
    artifacts: list[tuple[str, str]] = []
    try:
        # Cooperative shutdown: the handler only notes the signal; the
        # feed loops stop at the next record boundary, finalize, and
        # checkpoint — never leaving half-applied engine state inside
        # the artifacts an interrupted run commits.
        with graceful_signals() as guard, (
            sink if sink is not None else nullcontext()
        ):
            if budgeted:
                return _run_budgeted_stream(
                    args,
                    preprocessor,
                    policy_mode,
                    sink,
                    records,
                    telemetry,
                    artifacts,
                    io,
                    guard=guard,
                )
            return _run_plain_stream(
                args,
                factory,
                preprocessor,
                policy_mode,
                sink,
                records,
                source,
                telemetry,
                artifacts,
                io,
                guard=guard,
            )
    finally:
        if tserver is not None:
            tserver.stop()
        _export_telemetry(args, telemetry, artifacts=artifacts, io=io)


def _stream_artifact_offsets(sink) -> dict:
    """The append-mode artifact offsets to pin inside a checkpoint.

    A resumed run truncates each artifact back to the recorded offset
    before re-feeding records, so a crash between a quarantine append
    and the next checkpoint can never duplicate (or lose) records.
    """
    if sink is None or sink.path is None:
        return {}
    bytes_written, records_written = sink.offset()
    return {
        sink.path: {"bytes": bytes_written, "records": records_written}
    }


def _run_plain_stream(
    args,
    factory,
    preprocessor,
    policy_mode,
    sink,
    records,
    source,
    telemetry,
    artifacts,
    io,
    guard=None,
) -> int:
    """The historical ``stream`` path: one parser, optional checkpoints."""
    if args.resume:
        checkpoint = load_checkpoint(
            args.checkpoint, telemetry=telemetry, parser=args.parser
        )
        # Roll append-mode artifacts back to the offsets the checkpoint
        # pinned: appends made after the snapshot belong to records the
        # resumed run is about to re-feed.
        for artifact_path, offsets in checkpoint.artifacts.items():
            reconcile_jsonl(
                artifact_path,
                offsets["bytes"],
                io=io,
                telemetry=telemetry,
            )
        engine = restore_streaming_parser(
            checkpoint,
            factory,
            preprocessor=preprocessor,
            error_policy=policy_mode,
            quarantine=sink,
            max_record_len=args.max_record_len,
            telemetry=telemetry,
        )
        skip = checkpoint.records_consumed
    else:
        engine = StreamingParser(
            factory,
            flush_policy=args.flush_policy,
            flush_size=args.flush_size,
            cache_capacity=args.cache_capacity,
            max_flush_retries=args.max_retries,
            retain=not args.no_retain,
            preprocessor=preprocessor,
            error_policy=policy_mode,
            quarantine=sink,
            max_record_len=args.max_record_len,
            max_pending=args.max_pending,
            overflow=args.overflow,
            telemetry=telemetry,
        )
        skip = 0
    session = ParseSession(engine, track_matrix=args.mine)
    if args.resume and args.mine:
        restored = restore_accumulator(checkpoint)
        if restored is not None:
            session.accumulator = restored
    consumed = skip
    interrupted = None
    for index, record in enumerate(records):
        if index < skip:
            continue
        session.feed(record)
        consumed += 1
        if args.checkpoint and consumed % args.checkpoint_every == 0:
            save_checkpoint(
                args.checkpoint,
                engine,
                records_consumed=consumed,
                parser=args.parser,
                source=source,
                accumulator=session.accumulator,
                telemetry=telemetry,
                artifacts=_stream_artifact_offsets(sink),
                io=io,
            )
        if args.report_every and consumed % args.report_every == 0:
            telemetry.metrics.snapshot()
            print(summary_from_registry(telemetry.metrics))
        if guard is not None and guard.requested:
            # Record boundary: engine state is coherent, so the
            # finalize + checkpoint below commit a resumable run.
            interrupted = ShutdownRequested(guard.signum)
            break
    result = session.finalize()
    if args.checkpoint:
        save_checkpoint(
            args.checkpoint,
            engine,
            records_consumed=consumed,
            parser=args.parser,
            source=source,
            accumulator=session.accumulator,
            telemetry=telemetry,
            artifacts=_stream_artifact_offsets(sink),
            io=io,
        )
        artifacts.append((args.checkpoint, CODEC_OPAQUE))
    if sink is not None and sink.path is not None:
        artifacts.append((sink.path, CODEC_FRAMED))
    print(summary_from_registry(telemetry.metrics))
    if sink is not None and len(sink):
        print(sink.describe())
    if args.output_stem and result is not None:
        events_path, structured_path = write_parse_result(
            result, args.output_stem, io=io
        )
        artifacts.append((events_path, CODEC_LINES))
        artifacts.append((structured_path, CODEC_LINES))
        print(f"wrote {events_path}, {structured_path}")
    if interrupted is not None:
        # Outputs, checkpoint, and summary above are finalized for the
        # consumed prefix; skip the analysis passes and report the
        # signal through the exit code.
        print(f"{interrupted}; artifacts finalized", file=sys.stderr)
        return interrupted.exit_code
    if args.mine:
        _mine_matrix(session.matrix())
    if args.verify and result is not None:
        batch_parser = make_parser(
            args.parser,
            preprocessor=preprocessor,
            **_parser_params(args.parser, args),
        )
        report = diff_results(
            batch_parser.name,
            batch_parser.parse(result.records),
            result,
        )
        print(report.describe())
        if args.flush_policy == "prefix" and not report.equivalent:
            return 1
    return 0


def _mine_matrix(counts) -> None:
    """Run live PCA anomaly detection over a session-by-event matrix."""
    from repro.mining import tf_idf_transform
    from repro.mining.pca import PcaAnomalyModel

    weighted = tf_idf_transform(counts.matrix)
    model = PcaAnomalyModel()
    model.fit(weighted)
    flagged = (model.spe(weighted) > model.threshold).sum()
    print(
        f"live PCA mining: {counts.matrix.shape[0]} sessions x "
        f"{counts.matrix.shape[1]} events, {flagged} flagged anomalous"
    )


def _build_stream_ladder(args) -> DegradationLadder:
    """Resolve --ladder (or the chosen parser) into a DegradationLadder."""
    rungs = default_ladder()
    by_name = {rung.parser: rung for rung in rungs}
    if args.ladder:
        names = [name.strip() for name in args.ladder.split(",") if name.strip()]
        unknown = [name for name in names if name not in by_name]
        if unknown or not names:
            raise ParserConfigurationError(
                f"unknown ladder rung(s) {unknown or args.ladder!r}; "
                f"choose from {', '.join(by_name)}"
            )
        return DegradationLadder([by_name[name] for name in names])
    start = next(
        (
            index
            for index, rung in enumerate(rungs)
            if rung.parser == args.parser
        ),
        0,
    )
    return DegradationLadder(rungs[start:])


def _run_budgeted_stream(
    args,
    preprocessor,
    policy_mode,
    sink,
    records,
    telemetry,
    artifacts,
    io,
    guard=None,
) -> int:
    """``stream`` under a resource budget: the degradation runtime."""
    ladder = _build_stream_ladder(args)
    budget = ResourceBudget.of(
        wall_seconds=args.budget_wall,
        memory_mb=args.budget_mem,
        queue_depth=args.budget_queue,
    )
    print(budget.describe())
    print(ladder.describe())
    session = DegradedSession(
        ladder,
        BudgetMonitor(budget),
        check_every=args.check_every,
        track_matrix=args.mine,
        error_policy=policy_mode,
        quarantine=sink,
        retain=not args.no_retain,
        preprocessor=preprocessor,
        max_record_len=args.max_record_len,
        max_pending=args.max_pending,
        overflow=args.overflow,
        telemetry=telemetry,
    )
    interrupted = None
    for index, record in enumerate(records):
        session.feed(record)
        if args.report_every and (index + 1) % args.report_every == 0:
            telemetry.metrics.snapshot()
            print(summary_from_registry(telemetry.metrics))
        if guard is not None and guard.requested:
            interrupted = ShutdownRequested(guard.signum)
            break
    report = session.finalize()
    print(report.describe())
    if sink is not None and len(sink):
        print(sink.describe())
    if sink is not None and sink.path is not None:
        artifacts.append((sink.path, CODEC_FRAMED))
    if args.output_stem and report.result is not None:
        events_path, structured_path = write_parse_result(
            report.result, args.output_stem, io=io
        )
        artifacts.append((events_path, CODEC_LINES))
        artifacts.append((structured_path, CODEC_LINES))
        print(f"wrote {events_path}, {structured_path}")
    if interrupted is not None:
        print(f"{interrupted}; artifacts finalized", file=sys.stderr)
        return interrupted.exit_code
    if args.mine and report.matrix is not None:
        _mine_matrix(report.matrix)
    return 0


def _cmd_supervise(args) -> int:
    if (args.dataset is None) == (args.input is None):
        print(
            "error: give exactly one of INPUT or --dataset",
            file=sys.stderr,
        )
        return 2
    chain_names = [
        name.strip() for name in args.chain.split(",") if name.strip()
    ]
    if not chain_names:
        print("error: --chain must name at least one parser", file=sys.stderr)
        return 2
    for name in chain_names:
        if name not in PARSER_NAMES:
            print(
                f"error: unknown parser {name!r} in --chain "
                f"(choose from {', '.join(PARSER_NAMES)})",
                file=sys.stderr,
            )
            return 2
    if args.fault_parser is not None and args.fault_parser not in chain_names:
        print(
            f"error: --fault-parser {args.fault_parser!r} is not in the chain",
            file=sys.stderr,
        )
        return 2
    io = _make_io(args)
    telemetry = _make_telemetry(args, trace_id="supervise", io=io)
    policy_mode, sink = _resolve_policy(args, telemetry=telemetry, io=io)
    policy_mode = policy_mode or "quarantine"
    if sink is None:
        sink = QuarantineSink(
            args.quarantine_path, telemetry=telemetry, io=io
        )
    preprocessor = (
        default_preprocessor(args.preprocess_dataset)
        if args.preprocess_dataset
        else None
    )
    if args.dataset is not None:
        source = f"dataset:{args.dataset}"
        records = iter_dataset(
            get_dataset_spec(args.dataset), args.size, seed=args.seed
        )
    else:
        source = args.input
        records = iter_raw_log(
            args.input, policy=policy_mode, quarantine=sink
        )
    if args.faults is not None:
        records = corrupt_records(
            records, seed=args.faults, every=args.fault_every
        )
    policy = ErrorPolicy(policy_mode, sink=sink)
    clean = list(
        screen_records(
            records,
            policy,
            source=source,
            max_len=args.max_record_len,
            sink=sink,
        )
    )
    chain = []
    for name in chain_names:
        factory = partial(
            make_parser,
            name,
            preprocessor=preprocessor,
            **_parser_params(name, args),
        )
        if name == args.fault_parser:
            factory = FlakyFactory(
                factory,
                fail_times=args.fault_parser_fails,
                hang_seconds=args.fault_parser_hang,
                name=name,
            )
        chain.append((name, factory))
    supervisor = ParserSupervisor(
        chain,
        timeout=args.timeout,
        retry=RetryPolicy(
            attempts=args.retries, base_delay=args.retry_delay
        ),
        telemetry=telemetry,
    )
    # Context-managed: the sink flushes and closes even when the whole
    # chain fails and FallbackExhaustedError propagates — and the
    # telemetry export in the finally captures the failed attempts too.
    artifacts: list[tuple[str, str]] = []
    try:
        with sink:
            outcome = supervisor.parse(clean)
        print(outcome.report.describe())
        print(
            f"{outcome.parser}: {len(outcome.result.events)} events from "
            f"{len(clean)} clean lines ({policy.skipped} rejected)"
        )
        print(sink.describe())
        if sink.path is not None:
            artifacts.append((sink.path, CODEC_FRAMED))
        if args.output_stem:
            events_path, structured_path = write_parse_result(
                outcome.result, args.output_stem, io=io
            )
            artifacts.append((events_path, CODEC_LINES))
            artifacts.append((structured_path, CODEC_LINES))
            print(f"wrote {events_path}, {structured_path}")
        if args.verify:
            batch_parser = make_parser(
                outcome.parser,
                preprocessor=preprocessor,
                **_parser_params(outcome.parser, args),
            )
            report = diff_results(
                batch_parser.name,
                batch_parser.parse(clean),
                outcome.result,
            )
            print(report.describe())
            if not report.equivalent:
                return 1
        return 0
    finally:
        _export_telemetry(args, telemetry, artifacts=artifacts, io=io)


def _cmd_soak(args) -> int:
    telemetry = _make_telemetry(args, trace_id="soak")
    try:
        # A soak persists nothing mid-run, so an immediate raise is
        # safe anywhere: the finally still exports telemetry and the
        # manifest for the partial run.
        with graceful_signals(immediate=True):
            report = run_soak(
                SoakScenario(
                    kind=args.scenario,
                    seed=args.seed,
                    n_blocks=args.blocks,
                    check_every=args.check_every,
                    min_transitions=args.min_transitions,
                ),
                telemetry=telemetry,
            )
    except ShutdownRequested as shutdown:
        print(f"{shutdown}; telemetry finalized", file=sys.stderr)
        return shutdown.exit_code
    finally:
        _export_telemetry(args, telemetry)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    if args.replay is not None and args.drain_after is not None:
        print(
            "error: --drain-after only applies to the TCP front end",
            file=sys.stderr,
        )
        return 2
    if args.replay is not None and args.protocol == PROTOCOL_V2:
        print(
            "error: --protocol v2 only applies to the TCP front end "
            "(--replay has no connection to negotiate)",
            file=sys.stderr,
        )
        return 2
    params = _parser_params(args.parser, args)
    factory = partial(make_parser, args.parser, **params)
    io = _make_io(args)
    telemetry = _make_telemetry(args, trace_id="serve", io=io)
    shard_kwargs: dict = dict(
        flush_size=args.flush_size,
        cache_capacity=args.cache_capacity,
        max_pending=args.max_pending,
        overflow=args.overflow,
        breaker_threshold=args.breaker_threshold,
        check_every=args.check_every,
    )
    if (
        args.tenant_budget_mem is not None
        or args.tenant_budget_queue is not None
    ):
        shard_kwargs["budget"] = ResourceBudget.of(
            memory_mb=args.tenant_budget_mem,
            queue_depth=args.tenant_budget_queue,
        )
        shard_kwargs["ladder"] = _build_stream_ladder(args)
    worker_kwargs: dict = {}
    if args.isolation == "process":
        worker_kwargs = dict(
            watchdog=args.watchdog,
            checkpoint_every=args.checkpoint_every,
            poison_threshold=args.poison_threshold,
            fence_threshold=args.fence_threshold,
            drain_timeout=args.drain_timeout,
        )
        if args.proc_faults is not None:
            seed = args.proc_faults
            worker_kwargs["faults"] = lambda tenant: crash_storm_schedule(
                seed, [tenant]
            )[tenant]
    tserver = None
    alert_engine = None
    try:

        def _journal_checkpoint_status(tenant: str, position: int) -> None:
            # Process-mode checkpoint acks journal the supervisor
            # picture even when no --status-interval ticker runs, so
            # the event timeline always carries liveness evidence.
            status = supervisor_status(service)
            telemetry.events.emit(
                "supervisor_status",
                tenants=status["tenants"],
                line=status["line"],
                tenant=tenant,
                position=position,
            )

        service = IngestionService(
            args.data_dir,
            factory,
            parser_name=args.parser,
            telemetry=telemetry,
            io=io,
            isolation=args.isolation,
            protocol=args.protocol,
            worker_kwargs=worker_kwargs,
            on_checkpoint=_journal_checkpoint_status,
            **shard_kwargs,
        )
        if (
            args.rate is not None
            or args.budget_mem is not None
            or args.budget_queue is not None
        ):
            monitor = None
            if args.budget_mem is not None or args.budget_queue is not None:
                monitor = BudgetMonitor(
                    ResourceBudget.of(
                        memory_mb=args.budget_mem,
                        queue_depth=args.budget_queue,
                    ),
                    queue_probe=service.total_pending,
                )
            service.admission = AdmissionController(
                rate=args.rate,
                burst=args.burst,
                monitor=monitor,
                check_every=args.admission_every,
                sample_keep=args.sample_keep,
            )
        adopted = service.adopt_existing()
        if adopted:
            print(f"adopted {len(adopted)} tenant(s): {', '.join(adopted)}")
        if args.alerts_out is not None or args.telemetry_port is not None:
            alert_engine = AlertEngine(
                telemetry.metrics,
                default_rules(
                    objective=args.slo_objective,
                    heartbeat_stall=args.watchdog,
                ),
                events=telemetry.events,
                log_path=args.alerts_out,
                io=io,
            )
            alert_engine.start_ticker(args.alert_interval)

        def _status_payload() -> dict:
            status = supervisor_status(service)
            payload = {"isolation": args.isolation, **status}
            if alert_engine is not None:
                payload["alerts"] = alert_engine.active()
            return payload

        tserver = _start_endpoint(
            args, telemetry, status=_status_payload, health=service.health
        )

        def _emit_status() -> None:
            status = supervisor_status(service)
            if telemetry is not None:
                telemetry.events.emit(
                    "supervisor_status",
                    tenants=status["tenants"],
                    line=status["line"],
                )
            print(status["line"], flush=True)

        def _status_loop() -> None:
            while not ticker_stop.wait(args.status_interval):
                _emit_status()

        ticker_stop = threading.Event()
        ticker = None
        if args.status_interval is not None:
            ticker = threading.Thread(
                target=_status_loop, name="status-ticker", daemon=True
            )
            ticker.start()
        stopped = False
        # Cooperative shutdown everywhere: the signal is only *noted*
        # by the handler, and acted on at a line boundary (replay) or
        # a wait-loop tick (TCP) — never mid-feed inside an engine, so
        # the drain below always flushes coherent shard state.
        try:
            with graceful_signals() as guard:
                if args.replay is not None:
                    with open(
                        args.replay, encoding="utf-8", errors="replace"
                    ) as handle:
                        outcomes = replay_lines(
                            service, handle, origin=args.replay, guard=guard
                        )
                    print(
                        "replay outcomes: "
                        + ", ".join(
                            f"{name}={count}"
                            for name, count in sorted(outcomes.items())
                        )
                    )
                else:
                    server = LineServer(service, args.host, args.port)
                    server.start()
                    try:
                        print(
                            f"serving on {server.host}:{server.port}",
                            flush=True,
                        )
                        while not guard.requested and (
                            args.drain_after is None
                            or service.submitted < args.drain_after
                        ):
                            time.sleep(0.05)
                    finally:
                        server.stop()
                stopped = guard.requested
        except ShutdownRequested:
            stopped = True
        finally:
            ticker_stop.set()
            if ticker is not None:
                ticker.join(timeout=5.0)
        if args.status_interval is not None:
            # Always journal one final status so the events artifact
            # carries the end-of-run supervisor picture.
            _emit_status()
        if stopped:
            print("shutdown requested; draining", flush=True)
        summary = service.drain()
        print(service.describe())
        for tenant in sorted(summary["tenants"]):
            manifest = summary["tenants"][tenant].get("manifest")
            if manifest is None:
                print(f"  manifest: <none: {tenant} fenced>")
            else:
                print(f"  manifest: {manifest}")
        return 0
    finally:
        if tserver is not None:
            tserver.stop()
        if alert_engine is not None:
            alert_engine.close()
        artifacts = []
        if args.alerts_out:
            # A calm run still leaves a (valid, empty) alert log where
            # the flag pointed — absence would read as "never ran".
            ensure_artifact(args.alerts_out, io=io)
            artifacts.append((args.alerts_out, CODEC_FRAMED))
        _export_telemetry(args, telemetry, artifacts=artifacts, io=io)


def _cmd_send(args) -> int:
    faults = (
        fault_schedule(NetworkFault, args.net_faults)
        if args.net_faults is not None
        else ()
    )
    telemetry = _make_telemetry(args, trace_id="send")
    try:
        with DurableSender(
            args.host,
            args.port,
            args.client_id,
            args.spool,
            faults=faults,
            telemetry=telemetry,
        ) as sender:
            recovered = sender.spool_depth
            if recovered:
                print(
                    f"recovered {recovered} unacknowledged line(s) "
                    f"from {args.spool}"
                )
            if args.input is not None:
                with open(
                    args.input, encoding="utf-8", errors="replace"
                ) as handle:
                    for number, raw in enumerate(handle, start=1):
                        line = raw.rstrip("\n")
                        if not line:
                            continue
                        tenant, sep, content = line.partition("\t")
                        if not sep or not tenant:
                            raise DatasetError(
                                f"{args.input}:{number}: expected "
                                "tenant<TAB>content"
                            )
                        sender.send(tenant, content)
            summary = sender.flush(timeout=args.timeout)
            print(
                f"delivered {summary['delivered']} line(s) as "
                f"{args.client_id} ({summary['resends']} resend(s), "
                f"{summary['reconnects']} reconnect(s)); spool clear"
            )
        return 0
    finally:
        # Exported even when the flush deadline expires: the metrics
        # then show the surviving spool depth, and the spool itself
        # still holds every undelivered line for the next attempt.
        _export_telemetry(args, telemetry)


def _render_watch_frame(payload: dict, url: str, banner: str | None = None) -> str:
    """One ``watch`` frame: per-tenant table + firing alerts."""
    lines = [f"watch {url}  isolation={payload.get('isolation', '?')}"]
    if banner is not None:
        lines.append(banner)
    tenants = payload.get("tenants", {})
    if tenants:
        lines.append(
            f"{'TENANT':<16} {'STATE':<10} {'RESTARTS':>8} {'QUEUE':>6} "
            f"{'LINES':>9} {'QUAR':>6} {'HB-AGE':>7}"
        )
        for tenant in sorted(tenants):
            info = tenants[tenant]
            lines.append(
                f"{tenant:<16} {str(info.get('state', '?')):<10} "
                f"{info.get('restarts', 0):>8} {info.get('queue', 0):>6} "
                f"{info.get('lines', 0):>9} "
                f"{info.get('quarantined', 0):>6} "
                f"{float(info.get('heartbeat_age', 0.0)):>7.2f}"
            )
    else:
        lines.append("no tenants yet")
    alerts = payload.get("alerts", [])
    if alerts:
        lines.append("alerts:")
        for alert in alerts:
            labels = ",".join(
                f"{key}={value}"
                for key, value in sorted(alert.get("labels", {}).items())
            )
            lines.append(
                f"  {alert.get('severity', '?'):<5} "
                f"{alert.get('rule', '?')}{{{labels}}} "
                f"value={float(alert.get('value', 0.0)):.2f} "
                f"threshold={float(alert.get('threshold', 0.0)):.2f}"
            )
    else:
        lines.append("alerts: none firing")
    return "\n".join(lines)


def _cmd_watch(args) -> int:
    base = args.url.rstrip("/")
    iterations = 1 if args.once else args.iterations
    frames = 0
    failures = 0
    last_payload: dict = {}
    clear = sys.stdout.isatty()
    try:
        while True:
            # An unreachable endpoint is a frame, not a crash: the
            # serving process may be mid-restart.  The view keeps the
            # last good table under a DISCONNECTED banner and re-polls
            # with capped backoff until the endpoint returns.
            try:
                with urllib.request.urlopen(
                    base + "/status", timeout=5.0
                ) as response:
                    payload = json.loads(response.read().decode("utf-8"))
            except (urllib.error.URLError, OSError, ValueError) as error:
                failures += 1
                delay = min(
                    args.interval * 2 ** (failures - 1),
                    max(args.interval * 8, 1.0),
                )
                frame = _render_watch_frame(
                    last_payload,
                    base,
                    banner=(
                        f"DISCONNECTED ({failures} failed poll(s): "
                        f"{error}) — retrying in {delay:.1f}s"
                    ),
                )
            else:
                failures = 0
                delay = args.interval
                last_payload = payload
                frame = _render_watch_frame(payload, base)
            if clear:
                # Home + clear-to-end keeps the frame flicker-free in a
                # terminal; piped output just gets stacked frames.
                print(f"\x1b[H\x1b[J{frame}", flush=True)
            else:
                print(frame, flush=True)
            frames += 1
            if iterations is not None and frames >= iterations:
                # A bounded run that *ends* disconnected still fails —
                # `watch --once` against a dead endpoint must not lie.
                return EXIT_RUNTIME if failures else 0
            time.sleep(delay)
    except KeyboardInterrupt:
        return 0


def _cmd_report(args) -> int:
    print(
        render_run_report(
            metrics_path=args.metrics,
            trace_path=args.trace,
            events_path=args.events,
        ),
        end="",
    )
    return 0


def _cmd_verify_run(args) -> int:
    report = verify_manifest(args.manifest)
    print(report.describe())
    ok = report.ok
    if args.against:
        other = verify_manifest(args.against)
        print(other.describe())
        ok = ok and other.ok
        differences = diff_manifests(
            args.manifest, args.against, ignore=tuple(args.ignore)
        )
        if differences:
            print(f"manifests disagree ({len(differences)} artifact(s)):")
            for line in differences:
                print(f"  - {line}")
            ok = False
        else:
            print(
                "manifests agree: artifact hashes, sizes, and record "
                "counts identical"
            )
    return 0 if ok else EXIT_DATA


_COMMANDS = {
    "generate": _cmd_generate,
    "parse": _cmd_parse,
    "evaluate": _cmd_evaluate,
    "metrics": _cmd_metrics,
    "score": _cmd_score,
    "tune": _cmd_tune,
    "mine": _cmd_mine,
    "stream": _cmd_stream,
    "supervise": _cmd_supervise,
    "soak": _cmd_soak,
    "serve": _cmd_serve,
    "send": _cmd_send,
    "watch": _cmd_watch,
    "report": _cmd_report,
    "verify-run": _cmd_verify_run,
}


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    sys.exit(main())
