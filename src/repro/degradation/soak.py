"""Deterministic chaos-soak harness for the degradation runtime.

A soak replays one *pressure scenario* — memory ramp, slow consumer,
deadline squeeze — against a :class:`~repro.degradation.runtime.
DegradedSession` parsing a seeded HDFS session stream, then audits the
outcome against the graceful-degradation contract:

* the ladder fired at least ``min_transitions`` times, **in order**,
  never skipping a rung;
* every transition carries budget evidence (a sample plus at least one
  breach) and a non-empty mining-impact estimate;
* the run still *finalized validly*: no line left ``PENDING``, the
  assignment vector covers exactly the admitted lines, and the live
  session-by-event matrix is consistent with the structured output;
* no clean record was quarantined (the scenarios inject pressure, not
  corruption — a record lost to the quarantine would mean degradation
  broke correctness, not just fidelity).

Everything is deterministic: pressure comes from *scripted probes*
(seeded memory ramps, scripted clocks) or from genuinely deterministic
engine state (the miss-buffer depth of a synchronous pipeline), so the
same seed always produces the same transition schedule.  That is what
lets CI assert on chaos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.common.errors import ValidationError
from repro.common.types import ParseResult
from repro.datasets.hdfs import generate_hdfs_sessions
from repro.degradation.budget import (
    BudgetLimit,
    BudgetMonitor,
    ResourceBudget,
)
from repro.degradation.ladder import DegradationLadder, LadderRung
from repro.degradation.runtime import DegradedSession
from repro.resilience.quarantine import QuarantineSink
from repro.streaming.engine import PENDING_EVENT_ID, StreamingParser

#: Scenario kinds the harness can replay.
KIND_MEMORY = "memory-pressure"
KIND_SLOW_CONSUMER = "slow-consumer"
KIND_DEADLINE = "deadline-squeeze"
SCENARIO_KINDS = (KIND_MEMORY, KIND_SLOW_CONSUMER, KIND_DEADLINE)


@dataclass(frozen=True)
class SoakScenario:
    """One reproducible pressure scenario.

    Args:
        kind: one of :data:`SCENARIO_KINDS`.
        seed: drives the dataset *and* the scripted pressure schedule.
        n_blocks: HDFS sessions in the generated stream.
        check_every: fed records between budget checks.
        cooldown_checks: soft-breach persistence required per step.
        min_transitions: contract floor the audit enforces.
    """

    kind: str
    seed: int = 7
    n_blocks: int = 40
    check_every: int = 20
    cooldown_checks: int = 2
    min_transitions: int = 2

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(
                f"unknown soak kind {self.kind!r}; choose from {SCENARIO_KINDS}"
            )
        for knob in ("n_blocks", "check_every", "cooldown_checks", "min_transitions"):
            if getattr(self, knob) < 1:
                raise ValidationError(
                    f"{knob} must be >= 1, got {getattr(self, knob)}"
                )

    @property
    def name(self) -> str:
        return f"{self.kind}[seed={self.seed}]"


def soak_ladder(cooldown_checks: int = 2) -> DegradationLadder:
    """The soak ladder: LKE → LogSig → Drain.

    Each rung is strictly cheaper per offered line than the one above
    it in every cell of ablation A6.  It has three rungs because the
    audit's default ``min_transitions`` is 2; LKE → LogSig is not a
    :data:`~repro.degradation.ladder.FRONTIER` step (Drain is cheaper
    and at least as accurate), so only soak runs take it.  Soak runs
    flush nothing before finalize, so the clustering rungs never parse
    and chaos runs finish in CI time.
    """
    return DegradationLadder(
        [
            LadderRung("LKE", {"seed": 1}),
            LadderRung("LogSig", {"groups": 64, "seed": 1}),
            LadderRung("Drain"),
        ],
        cooldown_checks=cooldown_checks,
    )


def _scripted_memory_ramp(seed: int, soft: float, hard: float):
    """Seeded memory probe: 2 calm samples, then a sustained soft breach.

    Values stay strictly between the soft and hard limits, so the
    ladder walks down rung by rung but the run is never killed.
    """
    rng = Random(seed)
    calls = {"n": 0}

    def probe() -> float:
        calls["n"] += 1
        if calls["n"] <= 2:
            return soft * (0.2 + 0.2 * rng.random())
        return soft + (0.1 + 0.75 * rng.random()) * (hard - soft)

    return probe


def _scripted_clock(seed: int):
    """Seeded monotonic clock advancing 100–200 ms per observation.

    The >= 100 ms floor guarantees (for *any* seed) that the soft wall
    limit of the deadline scenario is crossed within its first five
    budget checks, so both required transitions land well inside the
    stream.
    """
    rng = Random(seed)
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += 0.1 + 0.1 * rng.random()
        return state["now"]

    return clock


def build_session(
    scenario: SoakScenario,
    telemetry=None,
) -> tuple[list, DegradedSession, QuarantineSink]:
    """Materialize a scenario: records + budgeted session + sink.

    With *telemetry*, the sink and session report into its registry,
    trace, and event timeline like any other instrumented run.
    """
    dataset = generate_hdfs_sessions(scenario.n_blocks, seed=scenario.seed)
    ladder = soak_ladder(scenario.cooldown_checks)
    sink = QuarantineSink(telemetry=telemetry)
    mb = 1024 * 1024
    if scenario.kind == KIND_MEMORY:
        budget = ResourceBudget(
            memory_bytes=BudgetLimit(soft=32 * mb, hard=64 * mb)
        )
        monitor = BudgetMonitor(
            budget,
            memory_probe=_scripted_memory_ramp(
                scenario.seed, 32 * mb, 64 * mb
            ),
        )
    elif scenario.kind == KIND_SLOW_CONSUMER:
        # Real signal: the miss buffer of a synchronous pipeline grows
        # deterministically (the flush size exceeds the stream), so the
        # queue-depth dimension needs no scripting at all.
        budget = ResourceBudget(
            queue_depth=BudgetLimit(soft=10, hard=100_000)
        )
        monitor = BudgetMonitor(budget, memory_probe=lambda: 0.0)
    else:  # KIND_DEADLINE
        budget = ResourceBudget(
            wall_seconds=BudgetLimit(soft=0.5, hard=10_000.0)
        )
        monitor = BudgetMonitor(
            budget,
            clock=_scripted_clock(scenario.seed),
            memory_probe=lambda: 0.0,
        )
    engine = StreamingParser(
        ladder.current.build_parser,
        # Larger than any soak stream: the miss buffer drains only at
        # finalize, so the queue-depth signal grows monotonically.
        flush_size=5000,
        error_policy="quarantine",
        quarantine=sink,
        telemetry=telemetry,
    )
    session = DegradedSession(
        engine, ladder, monitor, check_every=scenario.check_every
    )
    return list(dataset.records), session, sink


@dataclass
class SoakReport:
    """Outcome of one soak run plus every contract violation found."""

    scenario: SoakScenario
    session: DegradedSession
    result: ParseResult | None
    quarantined: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        verdict = (
            "PASS"
            if self.ok
            else "FAIL: " + "; ".join(self.violations)
        )
        return (
            f"soak {self.scenario.name}: {verdict}\n"
            + self.session.describe()
        )


def _audit(
    scenario: SoakScenario,
    session: DegradedSession,
    result: ParseResult | None,
    quarantined: int,
) -> list[str]:
    """Grade one finished run against the degradation contract."""
    violations: list[str] = []
    rungs = [rung.parser for rung in soak_ladder().rungs]
    events = session.ladder.events
    if len(events) < scenario.min_transitions:
        violations.append(
            f"only {len(events)} transition(s), "
            f"contract requires >= {scenario.min_transitions}"
        )
    for index, event in enumerate(events):
        if index + 1 >= len(rungs):
            violations.append(f"transition #{event.sequence} below the ladder")
            continue
        if event.from_rung != rungs[index] or event.to_rung != rungs[index + 1]:
            violations.append(
                f"transition #{event.sequence} "
                f"{event.from_rung}->{event.to_rung} skips the ladder order "
                f"(expected {rungs[index]}->{rungs[index + 1]})"
            )
        if event.sample is None or not event.breaches:
            violations.append(
                f"transition #{event.sequence} lacks budget evidence"
            )
        if not event.mining_impact:
            violations.append(
                f"transition #{event.sequence} lacks a mining-impact estimate"
            )
    if result is None:
        violations.append("run did not retain a structured result")
    else:
        if len(result.assignments) != session.parser.counters.lines:
            violations.append(
                f"{len(result.assignments)} assignments for "
                f"{session.parser.counters.lines} admitted lines"
            )
        pending = sum(
            1 for event_id in result.assignments if event_id == PENDING_EVENT_ID
        )
        if pending:
            violations.append(f"{pending} line(s) left PENDING after finalize")
        known = {event.event_id for event in result.events}
        unknown = {
            event_id
            for event_id in result.assignments
            if event_id not in known
            and event_id != result.OUTLIER_EVENT_ID
            and event_id != PENDING_EVENT_ID
        }
        if unknown:
            violations.append(
                f"assignments reference unknown events: {sorted(unknown)[:3]}"
            )
        assigned_sessions = {
            record.session_id
            for record, event_id in zip(result.records, result.assignments)
            if record.session_id and event_id != result.OUTLIER_EVENT_ID
        }
        covered = session.matrix().n_sessions
        if covered < len(assigned_sessions):
            violations.append(
                f"matrix covers {covered} sessions, "
                f"stream assigned {len(assigned_sessions)}"
            )
    if quarantined:
        violations.append(
            f"{quarantined} clean record(s) quarantined under pure pressure"
        )
    return violations


def run_soak(scenario: SoakScenario, telemetry=None) -> SoakReport:
    """Replay *scenario* end to end and audit the outcome."""
    records, session, sink = build_session(scenario, telemetry=telemetry)
    session.consume(records)
    result = session.finalize()
    quarantined = len(sink.records)
    return SoakReport(
        scenario=scenario,
        session=session,
        result=result,
        quarantined=quarantined,
        violations=_audit(scenario, session, result, quarantined),
    )
