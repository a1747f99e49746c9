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
  a fallback chain of parsers with deadlines and retries, input
  screening into a quarantine file, and optional injected faults to
  demonstrate the recovery paths.
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

``stream``, ``supervise``, ``soak``, ``serve``, and ``send`` share one
command lifecycle with the unified telemetry layer attached:
``--metrics-out`` / ``--trace-out`` / ``--events-out`` export the
registry (Prometheus text or JSON), the span trace (JSONL or Chrome
``trace_event``), and the structured event timeline, and
``--manifest-out`` covers every artifact the run wrote — also when
the run fails.  Every summary ``stream``, ``supervise``, and ``soak``
print is read back from the metrics registry (one source of truth, no
private arithmetic).

``stream`` additionally accepts resource budgets (``--budget-mem``,
``--budget-wall``, ``--budget-queue``): when any is given the run goes
through the degradation ladder (``--ladder``), stepping down to
cheaper parsers instead of dying when a soft limit is breached; its
checkpoints carry the ladder position, so ``--resume`` continues on
the rung the run had reached.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 data error (also an unreadable input file), 4 runtime failure (also
a port that cannot be bound).  ``stream``/``soak`` interrupted by
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
from contextlib import ExitStack
from functools import partial
from itertools import islice

from repro.common.errors import (
    BindError,
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
    LadderRung,
    ResourceBudget,
    SoakScenario,
    frontier,
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
    artifact_offsets,
    corrupt_records,
    crash_storm_schedule,
    diff_manifests,
    ensure_artifact,
    fault_schedule,
    record_log_path,
    restore_accumulator,
    resume_streaming_parser,
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
    exhausted fallback chains, ports that stay taken) exit 4.
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
    _add_source_flags(cmd, size=100_000)
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
    _add_backpressure_flags(cmd)
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
    _add_ladder_flags(cmd, check_every=500)
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
    _add_io_faults_flag(cmd)


def _add_io_faults_flag(cmd) -> None:
    cmd.add_argument(
        "--io-faults",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a deterministic schedule of IO faults (EIO, "
        "ENOSPC, torn writes, fsync failures) into artifact writes; "
        "writers roll back and retry before giving up",
    )


def _add_source_flags(cmd, *, size: int) -> None:
    """INPUT xor ``--dataset`` (and its ``--size``): stream+supervise."""
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
        "--size", type=int, default=size,
        help="lines to generate with --dataset",
    )


def _add_backpressure_flags(cmd) -> None:
    cmd.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="backpressure: bound the miss buffer (each tenant's, under "
        "serve) at this many records",
    )
    cmd.add_argument(
        "--overflow",
        choices=["block", "shed", "sample"],
        default="block",
        help="with --max-pending: block (flush synchronously), shed "
        "(drop overflowing misses), or sample (keep every k-th)",
    )


def _add_ladder_flags(cmd, *, check_every: int) -> None:
    """Degradation-ladder flags of stream+serve; the cadence is per command."""
    cmd.add_argument(
        "--ladder",
        default=None,
        help="comma-separated degradation rungs, most faithful first "
        "(default: PARSER, then the measured frontier below it)",
    )
    cmd.add_argument(
        "--check-every",
        type=int,
        default=check_every,
        help="records between budget checks",
    )


def _add_telemetry_flags(cmd) -> None:
    """Telemetry flags of the commands a :class:`_Run` drives."""
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


def _add_supervise(subparsers) -> None:
    cmd = subparsers.add_parser(
        "supervise",
        help="parse under the fault-tolerant supervision runtime "
        "(fallback chain, deadlines, retries)",
    )
    _add_source_flags(cmd, size=2000)
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
    _add_backpressure_flags(cmd)
    cmd.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive crashed flushes before a budgeted tenant steps "
        "down its ladder or, on its floor or unbudgeted, its circuit "
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
        "degradation ladder and trips its breaker when exhausted (a "
        "process worker meters its own memory)",
    )
    cmd.add_argument(
        "--tenant-budget-queue",
        type=float,
        default=None,
        metavar="DEPTH",
        help="per-tenant queue budget (same runtime as "
        "--tenant-budget-mem)",
    )
    _add_ladder_flags(cmd, check_every=100)
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
    _add_io_faults_flag(cmd)
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
    parser = _factory(args.parser, args, _preprocessor(args))()
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
    from repro.datasets import sample_records
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
    else:
        print(f"labeled F-measure ({args.sample_size} lines per dataset):")
        print(f"{'parser':12s} {'dataset':10s} {'f_measure':>10s}")
    sampling = dict(
        sample_size=args.sample_size,
        preprocess=args.preprocess,
        seed=args.seed,
    )
    for parser_name in parsers:
        for dataset_name in datasets:
            if args.label_free:
                score = evaluate_label_free(
                    parser_name, dataset_name, **sampling
                )
                cells = (
                    f"{score.cohesion:9.3f} {score.separation:11.3f} "
                    f"{score.score:7.3f}"
                )
            else:
                score = evaluate_accuracy(
                    parser_name, dataset_name, runs=1, **sampling
                )
                cells = f"{score.mean_f_measure:10.3f}"
            print(f"{parser_name:12s} {score.dataset:10s} {cells}")
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


def _preprocessor(args):
    """The ``--preprocess-dataset`` rules, or ``None``."""
    if not args.preprocess_dataset:
        return None
    return default_preprocessor(args.preprocess_dataset)


def _factory(name: str, args, preprocessor=None):
    """A factory for parser *name* configured by the shared flags."""
    return partial(
        make_parser,
        name,
        preprocessor=preprocessor,
        **_parser_params(name, args),
    )


class _Run(ExitStack):
    """The lifecycle of ``stream``/``supervise``/``soak``/``serve``/``send``.

    Holds the IO seam (``--io-faults``), the telemetry handle, and the
    ``(path, codec)`` artifacts the body appends as it writes them.  On
    exit, clean or not, what the body entered unwinds first; the
    telemetry exports and the ``--manifest-out`` manifest come last.
    """

    def __init__(self, args, trace_id: str) -> None:
        super().__init__()
        self.args = args
        seed = getattr(args, "io_faults", None)
        self.io = (
            None if seed is None else FaultyIO(fault_schedule(IoFault, seed))
        )
        self.telemetry = Telemetry.create(
            trace_id=trace_id, events_path=args.events_out, io=self.io
        )
        self.artifacts: list[tuple[str, str]] = []
        self.callback(self._export)

    def endpoint(self, status, health=None) -> None:
        """Serve the scrape endpoint when ``--telemetry-port`` asks."""
        if self.args.telemetry_port is None:
            return
        server = TelemetryServer(
            self.telemetry.metrics,
            port=self.args.telemetry_port,
            status=status,
            health=health,
        )
        _bind(server, "the telemetry endpoint")
        self.callback(server.stop)
        print(f"telemetry on {server.url}", flush=True)

    def _export(self) -> None:
        args, io = self.args, self.io
        self.telemetry.metrics.snapshot()
        exports = []
        if args.metrics_out:
            export_metrics(self.telemetry.metrics, args.metrics_out, io=io)
            exports.append((args.metrics_out, CODEC_LINES))
        if args.trace_out:
            self.telemetry.tracer.export(
                args.trace_out, fmt=args.trace_format, io=io
            )
            # A Chrome trace is one JSON document, not a span per line.
            chrome = args.trace_format == "chrome"
            exports.append(
                (args.trace_out, CODEC_OPAQUE if chrome else CODEC_LINES)
            )
        if args.events_out:
            # The event log appends lazily; an uneventful run should still
            # leave a (valid, empty) artifact where the flag pointed — but
            # never truncate a timeline a previous life already wrote.
            ensure_artifact(args.events_out, io=io)
            exports.append((args.events_out, CODEC_FRAMED))
        self.telemetry.close()
        written = [path for path, _ in exports]
        if args.manifest_out:
            manifest = RunManifest(
                run={
                    "command": args.command,
                    "seed": getattr(args, "seed", None),
                }
            )
            for path, codec in self.artifacts + exports:
                if path and os.path.exists(path):
                    manifest.add(path, codec=codec)
            manifest.write(args.manifest_out, io=io)
            written.append(args.manifest_out)
        if written:
            print(f"telemetry: wrote {', '.join(written)}")


def _bind(server, what: str) -> None:
    """Start *server*; a port that stays taken is a runtime failure."""
    try:
        server.start()
    except OSError as error:
        raise BindError(
            f"could not bind {what} on {server.host}:{server.port}: {error}"
        ) from error


def _record_path(args, run, *, default_policy: str | None = None):
    """``(mode, sink, source, records)``: what stream/supervise parse.

    The sink is entered on *run*, so it is flushed and closed even when
    the parse dies and quarantined records are never lost.
    """
    mode = args.error_policy
    if mode is None and (
        args.quarantine_path is not None or args.faults is not None
    ):
        mode = "quarantine"
    mode = mode or default_policy
    sink = None
    if mode is not None:
        sink = run.enter_context(
            QuarantineSink(
                args.quarantine_path, telemetry=run.telemetry, io=run.io
            )
        )
    if args.dataset is not None:
        source = f"dataset:{args.dataset}"
        records = iter_dataset(
            get_dataset_spec(args.dataset), args.size, seed=args.seed
        )
    else:
        source = args.input
        records = iter_raw_log(
            args.input, policy=mode or "raise", quarantine=sink
        )
    if args.faults is not None:
        records = corrupt_records(
            records, seed=args.faults, every=args.fault_every
        )
    return mode, sink, source, records


def _commit_outputs(run, args, sink, result) -> None:
    """Register the quarantine; write and register ``--output-stem``."""
    if sink is not None and sink.path is not None:
        run.artifacts.append((sink.path, CODEC_FRAMED))
    if args.output_stem and result is not None:
        events_path, structured_path = write_parse_result(
            result, args.output_stem, io=run.io
        )
        run.artifacts.append((events_path, CODEC_LINES))
        run.artifacts.append((structured_path, CODEC_LINES))
        print(f"wrote {events_path}, {structured_path}")


def _verify(args, name: str, preprocessor, records, result) -> bool:
    """``--verify``: batch-parse *records* with *name*, diff *result*."""
    batch_parser = _factory(name, args, preprocessor)()
    report = diff_results(
        batch_parser.name, batch_parser.parse(records), result
    )
    print(report.describe())
    return report.equivalent


def _cmd_stream(args) -> int:
    if (args.dataset is None) == (args.input is None):
        raise ValidationError("give exactly one of INPUT or --dataset")
    if args.no_retain and (
        args.verify or args.output_stem or args.flush_policy == "prefix"
    ):
        raise ValidationError(
            "--no-retain cannot be combined with --verify, "
            "--output-stem, or --flush-policy prefix"
        )
    if args.resume and not args.checkpoint:
        raise ValidationError("--resume requires --checkpoint")
    budgeted = any(
        flag is not None
        for flag in (
            args.budget_mem, args.budget_wall, args.budget_queue, args.ladder
        )
    )
    if budgeted and (args.verify or args.flush_policy == "prefix"):
        raise ValidationError(
            "resource budgets cannot be combined with "
            "--verify/--flush-policy prefix "
            "(the flush parser may change mid-stream)"
        )
    with _Run(args, "stream") as run:
        telemetry = run.telemetry
        run.endpoint(
            lambda: {
                "command": "stream",
                "summary": summary_from_registry(telemetry.metrics),
            }
        )
        mode, sink, source, records = _record_path(args, run)
        preprocessor = _preprocessor(args)
        # Cooperative shutdown: the handler only notes the signal; the
        # feed loop stops at the next record boundary, finalizes, and
        # checkpoints — never leaving half-applied engine state inside
        # the artifacts an interrupted run commits.
        guard = run.enter_context(graceful_signals())
        engine_kwargs = dict(
            preprocessor=preprocessor,
            error_policy=mode,
            quarantine=sink,
            max_record_len=args.max_record_len,
            telemetry=telemetry,
        )
        fresh_kwargs = dict(
            engine_kwargs,
            flush_policy=args.flush_policy,
            flush_size=args.flush_size,
            cache_capacity=args.cache_capacity,
            max_flush_retries=args.max_retries,
            retain=not args.no_retain,
            max_pending=args.max_pending,
            overflow=args.overflow,
        )
        factory, ladder, checkpoint = _factory(args.parser, args), None, None
        if budgeted:
            ladder = _build_stream_ladder(args)
            budget = ResourceBudget.of(
                wall_seconds=args.budget_wall,
                memory_mb=args.budget_mem,
                queue_depth=args.budget_queue,
            )
            factory = ladder.current.build_parser
            gauge = telemetry.metrics.get("repro_ladder_position")
            telemetry.metrics.register_collector(
                lambda: gauge.set(ladder.position)
            )
        if args.resume:
            checkpoint, engine = resume_streaming_parser(
                args.checkpoint, factory, parser=args.parser, ladder=ladder,
                io=run.io, **engine_kwargs,
            )
        else:
            engine = StreamingParser(factory, **fresh_kwargs)
        if ladder is None:
            session = ParseSession(engine, track_matrix=args.mine)
        else:
            print(budget.describe())
            print(ladder.describe())
            session = DegradedSession(
                engine, ladder, BudgetMonitor(budget),
                check_every=args.check_every, track_matrix=args.mine,
            )
        if checkpoint is not None and args.mine:
            restored = restore_accumulator(checkpoint)
            if restored is not None:
                session.accumulator = restored

        def _checkpoint() -> None:
            save_checkpoint(
                args.checkpoint,
                session.parser,
                records_consumed=consumed,
                parser=args.parser,
                source=source,
                accumulator=session.accumulator,
                telemetry=telemetry,
                artifacts=artifact_offsets(sink, args.checkpoint),
                ladder=ladder,
                io=run.io,
            )

        consumed = 0 if checkpoint is None else checkpoint.records_consumed
        interrupted = None
        for record in islice(records, consumed, None):
            session.feed(record)
            consumed += 1
            if args.checkpoint and consumed % args.checkpoint_every == 0:
                _checkpoint()
            if args.report_every and consumed % args.report_every == 0:
                telemetry.metrics.snapshot()
                print(summary_from_registry(telemetry.metrics))
            if guard.requested:
                # Record boundary: engine state is coherent, so the
                # finalize + checkpoint below commit a resumable run.
                interrupted = ShutdownRequested(guard.signum)
                break
        result = session.finalize()
        if args.checkpoint:
            _checkpoint()
            run.artifacts.append((args.checkpoint, CODEC_OPAQUE))
            run.artifacts.append(
                (record_log_path(args.checkpoint), CODEC_FRAMED)
            )
        print(
            summary_from_registry(telemetry.metrics) if ladder is None
            else session.describe()
        )
        if sink is not None and len(sink):
            print(sink.describe())
        _commit_outputs(run, args, sink, result)
        if interrupted is not None:
            # Outputs, checkpoint, and summary above are finalized for the
            # consumed prefix; skip the analysis passes and report the
            # signal through the exit code.
            print(f"{interrupted}; artifacts finalized", file=sys.stderr)
            return interrupted.exit_code
        if args.mine:
            _mine_matrix(session.matrix())
        if args.verify and result is not None:
            equivalent = _verify(
                args, args.parser, preprocessor, result.records, result
            )
            if args.flush_policy == "prefix" and not equivalent:
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
    """--ladder, or PARSER and its frontier floor, built from the flags."""
    if args.ladder:
        names = [name.strip() for name in args.ladder.split(",") if name.strip()]
        unknown = [name for name in names if name not in PARSER_NAMES]
        if unknown or not names:
            raise ParserConfigurationError(
                f"unknown ladder rung(s) {unknown or args.ladder!r}; "
                f"choose from {', '.join(PARSER_NAMES)}"
            )
    else:
        names = frontier(args.parser)
    return DegradationLadder(
        [LadderRung(name, _parser_params(name, args)) for name in names]
    )


def _cmd_supervise(args) -> int:
    if (args.dataset is None) == (args.input is None):
        raise ValidationError("give exactly one of INPUT or --dataset")
    chain_names = [
        name.strip() for name in args.chain.split(",") if name.strip()
    ]
    if not chain_names:
        raise ValidationError("--chain must name at least one parser")
    for name in chain_names:
        if name not in PARSER_NAMES:
            raise ValidationError(
                f"unknown parser {name!r} in --chain "
                f"(choose from {', '.join(PARSER_NAMES)})"
            )
    if args.fault_parser is not None and args.fault_parser not in chain_names:
        raise ValidationError(
            f"--fault-parser {args.fault_parser!r} is not in the chain"
        )
    with _Run(args, "supervise") as run:
        mode, sink, source, records = _record_path(
            args, run, default_policy="quarantine"
        )
        preprocessor = _preprocessor(args)
        policy = ErrorPolicy(mode, sink=sink)
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
            factory = _factory(name, args, preprocessor)
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
            telemetry=run.telemetry,
        )
        outcome = supervisor.parse(clean)
        print(outcome.report.describe())
        print(
            f"{outcome.parser}: {len(outcome.result.events)} events from "
            f"{len(clean)} clean lines ({policy.skipped} rejected)"
        )
        print(sink.describe())
        _commit_outputs(run, args, sink, outcome.result)
        if args.verify and not _verify(
            args, outcome.parser, preprocessor, clean, outcome.result
        ):
            return 1
    return 0


def _cmd_soak(args) -> int:
    try:
        # A soak persists nothing mid-run, so an immediate raise is
        # safe anywhere: the lifecycle still exports telemetry and the
        # manifest for the partial run.
        with _Run(args, "soak") as run, graceful_signals(immediate=True):
            report = run_soak(
                SoakScenario(
                    kind=args.scenario,
                    seed=args.seed,
                    n_blocks=args.blocks,
                    check_every=args.check_every,
                    min_transitions=args.min_transitions,
                ),
                telemetry=run.telemetry,
            )
    except ShutdownRequested as shutdown:
        print(f"{shutdown}; telemetry finalized", file=sys.stderr)
        return shutdown.exit_code
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    if args.replay is not None and args.drain_after is not None:
        raise ValidationError(
            "--drain-after only applies to the TCP front end"
        )
    if args.replay is not None and args.protocol == PROTOCOL_V2:
        raise ValidationError(
            "--protocol v2 only applies to the TCP front end "
            "(--replay has no connection to negotiate)"
        )
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
    with _Run(args, "serve") as run:
        telemetry = run.telemetry
        alert_engine = None

        def _close_alerts() -> None:
            if alert_engine is not None:
                alert_engine.close()
            if args.alerts_out:
                # A calm run still leaves a (valid, empty) alert log where
                # the flag pointed — absence would read as "never ran".
                ensure_artifact(args.alerts_out, io=run.io)
                run.artifacts.append((args.alerts_out, CODEC_FRAMED))

        run.callback(_close_alerts)
        replay = None
        if args.replay is not None:
            try:
                replay = run.enter_context(
                    open(args.replay, encoding="utf-8", errors="replace")
                )
            except OSError as error:
                raise DatasetError(
                    f"cannot read replay file: {error}"
                ) from error

        def _journal_status(**context) -> dict:
            status = supervisor_status(service)
            telemetry.events.emit(
                "supervisor_status",
                tenants=status["tenants"],
                line=status["line"],
                **context,
            )
            return status

        service = IngestionService(
            args.data_dir,
            _factory(args.parser, args),
            parser_name=args.parser,
            telemetry=telemetry,
            io=run.io,
            isolation=args.isolation,
            protocol=args.protocol,
            worker_kwargs=worker_kwargs,
            # Process-mode checkpoint acks journal the supervisor
            # picture even when no --status-interval ticker runs, so
            # the event timeline always carries liveness evidence.
            on_checkpoint=lambda tenant, position: _journal_status(
                tenant=tenant, position=position
            ),
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
                io=run.io,
            )
            alert_engine.start_ticker(args.alert_interval)

        def _status_payload() -> dict:
            payload = {"isolation": args.isolation}
            payload.update(supervisor_status(service))
            if alert_engine is not None:
                payload["alerts"] = alert_engine.active()
            return payload

        run.endpoint(_status_payload, health=service.health)

        def _status_loop() -> None:
            while not ticker_stop.wait(args.status_interval):
                print(_journal_status()["line"], flush=True)

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
                if replay is not None:
                    outcomes = replay_lines(
                        service, replay, origin=args.replay, guard=guard
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
                    _bind(server, "the line front end")
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
            print(_journal_status()["line"], flush=True)
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


def _cmd_send(args) -> int:
    faults = (
        fault_schedule(NetworkFault, args.net_faults)
        if args.net_faults is not None
        else ()
    )
    # The lifecycle exports even when the flush deadline expires: the
    # metrics then show the surviving spool depth, and the spool itself
    # still holds every undelivered line for the next attempt.
    with _Run(args, "send") as run, DurableSender(
        args.host,
        args.port,
        args.client_id,
        args.spool,
        faults=faults,
        telemetry=run.telemetry,
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
