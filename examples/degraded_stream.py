"""Degraded streaming: a budgeted parse that sheds fidelity to survive.

The paper couples two findings this example makes operational.
Finding 3: the clustering-based parsers (LKE, LogSig) are the accurate
ones and also the ones that do not scale.  Finding 6: parsing accuracy
is what log mining rides on — on HDFS, swapping IPLoM (99% accurate)
for SLCT (82%) collapses anomaly detection from 64% to 11%.  So a
stream under resource pressure faces a real trade: shed fidelity or
die.  The :mod:`repro.degradation` runtime makes the trade explicit —
a ladder of ever-cheaper parsers, stepped down one rung at a time
under sustained budget pressure, with every transition priced in
expected mining impact.  A step swaps the flush parser and nothing
else: the engine is built as any other, from the ladder's current
rung, and the budget only wraps its session.  The ladder position is
checkpoint state, so a budgeted run resumes on the rung it reached.

This example scripts the pressure (a seeded memory ramp injected as
the monitor's probe, exactly as the chaos-soak suite does) so the run
is deterministic and instant: you watch a parse start on LKE, degrade
twice, finish on Drain, and print the ledger of what those downgrades
are expected to cost downstream.

The run streams its structured event timeline (every ladder step with
its budget evidence) to ``degraded_stream.events.jsonl`` and exports
the metrics registry to ``degraded_stream.metrics.json`` in the
working directory, so the audit trail is machine-checkable — tests
read those artifacts instead of scraping this script's stdout.

Run:  python examples/degraded_stream.py
"""

from repro import Telemetry, export_metrics
from repro.datasets.hdfs import generate_hdfs_sessions
from repro.degradation import (
    BudgetLimit,
    BudgetMonitor,
    DegradationLadder,
    DegradedSession,
    LadderRung,
    ResourceBudget,
)
from repro.streaming import StreamingParser

MB = 1024 * 1024

METRICS_PATH = "degraded_stream.metrics.json"
EVENTS_PATH = "degraded_stream.events.jsonl"


def scripted_memory_ramp():
    """A memory probe replaying a fixed pressure schedule.

    Calm for the first two checks, then a sustained climb past the
    soft limit, then a spike past the hard limit, then relief once
    the cheap rung takes over — the same injection
    trick the deterministic soak harness uses, standing in for real
    RSS so the example behaves identically on every machine.
    """
    schedule = [10 * MB, 20 * MB, 48 * MB, 50 * MB, 70 * MB, 30 * MB]
    state = {"i": 0}

    def probe() -> float:
        value = schedule[min(state["i"], len(schedule) - 1)]
        state["i"] += 1
        return value

    return probe


def main() -> None:
    # 1. Declare the budget: 64 MB hard, soft warning at 32 MB.
    budget = ResourceBudget(
        memory_bytes=BudgetLimit(soft=32 * MB, hard=64 * MB)
    )
    print(budget.describe())

    # 2. A three-rung ladder, each rung strictly cheaper per offered
    #    line than the one above it (ablation A6 in EXPERIMENTS.md).
    ladder = DegradationLadder(
        [
            LadderRung("LKE", {"seed": 1}),
            LadderRung("LogSig", {"groups": 29, "seed": 1}),
            LadderRung("Drain"),
        ],
        cooldown_checks=2,
    )
    print(ladder.describe())

    # 3. Stream ~2k HDFS session lines, checking the budget every 100,
    #    with telemetry attached: breaches and ladder steps land in the
    #    registry, and the structured timeline streams to disk as JSONL.
    telemetry = Telemetry.create(
        trace_id="degraded-stream", events_path=EVENTS_PATH
    )
    monitor = BudgetMonitor(budget, memory_probe=scripted_memory_ramp())
    # The engine shape is the caller's, not the rungs': a flush size
    # above the stream length keeps every flush until finalize, so the
    # downgrades are purely budget-driven and only Drain ever parses.
    engine = StreamingParser(
        ladder.current.build_parser, flush_size=5000, telemetry=telemetry
    )
    session = DegradedSession(engine, ladder, monitor, check_every=100)
    records = generate_hdfs_sessions(60, seed=7).records
    print(f"\nstreaming {len(records)} HDFS lines under the budget...\n")
    session.consume(records)
    result = session.finalize()
    telemetry.metrics.get("repro_ladder_position").set(ladder.position)

    # 4. The audit trail: every transition with its evidence and the
    #    priced mining impact, then the final tallies.
    print(session.describe())
    matrix = session.matrix()
    print(
        f"\nfinalized: {len(result.events)} event template(s), "
        f"{matrix.n_sessions} session(s) in the event matrix, "
        f"final rung {ladder.current.parser} after "
        f"{len(ladder.events)} downgrade(s)"
    )
    export_metrics(telemetry.metrics, METRICS_PATH)
    telemetry.close()
    print(f"\n{telemetry.events.describe()}")
    print(f"telemetry artifacts: {METRICS_PATH}, {EVENTS_PATH}")


if __name__ == "__main__":
    main()
