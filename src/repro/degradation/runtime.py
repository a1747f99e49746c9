"""The adaptive runtime: a budget and a ladder wired into a live stream.

:class:`DegradedSession` wraps a
:class:`~repro.streaming.session.ParseSession` and checks the
:class:`~repro.degradation.budget.BudgetMonitor` every ``check_every``
fed records.  Sustained *soft* breaches walk the
:class:`~repro.degradation.ladder.DegradationLadder` one rung at a
time; a *hard* breach steps immediately, and on the floor rung
escalates as :class:`~repro.common.errors.BudgetExceededError`.  A
step swaps the flush parser through
:meth:`~repro.streaming.engine.StreamingParser.reconfigure` and
nothing else: the engine shape is fixed by whoever builds the session,
and every fed record reaches the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.common.errors import BudgetExceededError, ValidationError
from repro.common.types import LogRecord, ParseResult
from repro.degradation.budget import LEVEL_HARD, BudgetMonitor
from repro.degradation.ladder import (
    TRIGGER_HARD,
    TRIGGER_SOFT,
    DegradationEvent,
    DegradationLadder,
)
from repro.degradation.ledger import MiningImpactLedger
from repro.mining.event_matrix import EventCountMatrix
from repro.streaming.engine import StreamingParser
from repro.streaming.session import ParseSession, SessionCounters


@dataclass(frozen=True)
class DegradedRunReport:
    """Everything a budgeted run produced, audit trail included."""

    result: ParseResult | None
    matrix: EventCountMatrix | None
    counters: SessionCounters
    events: tuple[DegradationEvent, ...]
    final_rung: str
    checks: int
    ledger: MiningImpactLedger

    @property
    def degraded(self) -> bool:
        return bool(self.events)

    def describe(self) -> str:
        lines = [
            f"finished on rung {self.final_rung} after "
            f"{len(self.events)} degradation(s), {self.checks} budget "
            f"check(s)",
            self.counters.describe(),
        ]
        for event in self.events:
            lines.append(event.describe())
        lines.append(self.ledger.describe())
        return "\n".join(lines)


class DegradedSession:
    """A budget-supervised streaming parse that sheds fidelity to survive.

    Builds the engine from the ladder's *top* rung and steps down per
    the policy in :class:`~repro.degradation.ladder.DegradationLadder`
    whenever the monitor reports breaches.  Until a step the session
    parses exactly as a plain engine of the same shape would.

    Args:
        ladder: rung order and step-down policy (position 0 on entry).
        monitor: the budget to check; its cache/queue probes are wired
            to the live engine automatically.
        ledger: mining-impact accounting (defaults to the reference
            table).
        check_every: fed records between budget checks.
        engine_kwargs: the engine shape, forwarded to
            :class:`StreamingParser` (e.g. ``flush_policy``,
            ``flush_size``, ``cache_capacity``, ``max_pending``,
            ``overflow``, ``error_policy``, ``quarantine``); a step
            never changes it.
        track_matrix: maintain the live session-by-event matrix.
        telemetry: optional
            :class:`~repro.observability.telemetry.Telemetry` handle,
            threaded into the engine.  Budget breaches are counted by
            dimension and level, ladder steps by trigger, the current
            rung index is exported as a gauge, and every
            :class:`DegradationEvent` lands on the event timeline plus
            a ``rung_change`` instant marker in the trace.
    """

    def __init__(
        self,
        ladder: DegradationLadder,
        monitor: BudgetMonitor,
        *,
        ledger: MiningImpactLedger | None = None,
        check_every: int = 100,
        track_matrix: bool = True,
        telemetry=None,
        **engine_kwargs,
    ) -> None:
        self.ladder = ladder
        self.monitor = monitor
        self.ledger = ledger if ledger is not None else MiningImpactLedger()
        if check_every < 1:
            raise ValidationError(
                f"check_every must be >= 1, got {check_every}"
            )
        self.check_every = check_every
        self.telemetry = telemetry
        self.engine = StreamingParser(
            ladder.current.build_parser, telemetry=telemetry, **engine_kwargs
        )
        self.session = ParseSession(self.engine, track_matrix=track_matrix)
        self.checks = 0
        self._fed = 0
        if telemetry is not None:
            telemetry.metrics.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        self.telemetry.metrics.get("repro_ladder_position").set(
            self.ladder.position
        )

    # ------------------------------------------------------------------

    def feed(self, record: LogRecord) -> int:
        """Feed one record, then maybe check the budget.

        Returns the engine line number, or -1 when the engine rejected
        or shed the record.
        Raises :class:`BudgetExceededError` when a hard breach lands
        with the ladder already exhausted.
        """
        self.monitor.start_if_needed()
        self._fed += 1
        line_no = self.session.feed(record)
        if self._fed % self.check_every == 0:
            self.check_budget()
        return line_no

    def consume(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.feed(record)

    def check_budget(self) -> list[DegradationEvent]:
        """Sample the budget now and apply the step-down policy.

        Returns the transitions applied by this check (empty for a
        clean or merely-cooling-down check).
        """
        self.checks += 1
        sample, breaches = self.monitor.evaluate(
            cache_entries=len(self.engine.cache),
            queue_depth=self.engine.pending_count,
        )
        if self.telemetry is not None:
            family = self.telemetry.metrics.get("repro_budget_breaches_total")
            for breach in breaches:
                family.labels(
                    dimension=breach.dimension, level=breach.level
                ).inc()
        if not breaches:
            self.ladder.note_check(False)
            return []
        hard = [b for b in breaches if b.level == LEVEL_HARD]
        if hard and self.ladder.exhausted:
            raise BudgetExceededError(
                "hard resource budget breached with the degradation ladder "
                f"exhausted (on {self.ladder.current.parser}): "
                + "; ".join(breach.describe() for breach in hard),
                breaches=hard,
            )
        self.ladder.note_check(True)
        if hard:
            trigger = TRIGGER_HARD
        elif self.ladder.ready() and not self.ladder.exhausted:
            trigger = TRIGGER_SOFT
        else:
            return []
        return [self._step_down(trigger, sample, breaches)]

    def _step_down(self, trigger, sample, breaches) -> DegradationEvent:
        """Swap in the next rung's parser and record the event."""
        to_rung = self.ladder.peek_next()
        assert to_rung is not None  # callers checked exhausted
        cost = self.ledger.record(
            len(self.ladder.events) + 1,
            self.ladder.current.parser,
            to_rung.parser,
        )
        actions = self.engine.reconfigure(to_rung.build_parser)
        event = self.ladder.step_down(
            trigger=trigger,
            at_line=self.engine.counters.lines,
            sample=sample,
            breaches=tuple(breaches),
            actions=actions,
            mining_impact=cost.describe(),
        )
        if self.telemetry is not None:
            self.telemetry.metrics.get("repro_ladder_steps_total").labels(
                trigger=trigger
            ).inc()
            self.telemetry.events.record(event)
            self.telemetry.tracer.instant(
                "rung_change",
                from_rung=event.from_rung,
                to_rung=event.to_rung,
                trigger=trigger,
                at_line=event.at_line,
            )
        return event

    # ------------------------------------------------------------------

    def finalize(self) -> DegradedRunReport:
        """Drain the engine and assemble the full audited report."""
        result = self.session.finalize()
        return DegradedRunReport(
            result=result,
            matrix=(
                self.session.matrix()
                if self.session.accumulator is not None
                else None
            ),
            counters=self.session.counters(),
            events=tuple(self.ladder.events),
            final_rung=self.ladder.current.parser,
            checks=self.checks,
            ledger=self.ledger,
        )
