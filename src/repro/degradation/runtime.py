"""The adaptive runtime: a budget and a ladder wired into a live stream.

:class:`BudgetGovernor` feeds an engine and checks the
:class:`~repro.degradation.budget.BudgetMonitor` first every
``check_every`` records the engine was fed.  Sustained *soft* breaches
walk the :class:`~repro.degradation.ladder.DegradationLadder` one rung
at a time; a *hard* breach steps immediately, and on the floor rung
escalates as :class:`~repro.common.errors.BudgetExceededError`.  A
budgeted service shard feeds through a governor, and steps through its
:meth:`~BudgetGovernor.step_down` when its flush parser keeps
crashing; :class:`DegradedSession` feeds through one.  A step swaps
the flush parser through
:meth:`~repro.streaming.engine.StreamingParser.reconfigure` and
nothing else; the ladder position is ordinary checkpoint state.
"""

from __future__ import annotations

from repro.common.errors import BudgetExceededError, ValidationError
from repro.common.types import LogRecord
from repro.degradation.budget import LEVEL_HARD, BudgetMonitor
from repro.degradation.ladder import (
    TRIGGER_HARD,
    TRIGGER_SOFT,
    DegradationLadder,
)
from repro.degradation.ledger import MiningImpactLedger
from repro.streaming.engine import StreamingParser
from repro.streaming.session import ParseSession


class BudgetGovernor:
    """Feeds one engine, checking its budget and stepping its ladder.
    The engine runs on the ladder's current rung, so until a step,
    feeding through the governor is feeding the engine.

    Args:
        engine: the streaming engine.  Its fed count, which a
            checkpoint restores, keys the checks, so a resumed run
            checks at the same lines as a run that was never cut.
        ladder: rung order and step-down policy, positioned at the
            engine's flush parser.
        monitor: the budget to check (cache and queue read the engine).
        ledger: mining-impact accounting (default: the reference table).
        check_every: fed records between budget checks.

    With the engine's telemetry, budget breaches are counted by
    dimension and level, ladder steps by trigger, and every ladder
    step lands on the event timeline plus a ``rung_change`` instant
    marker in the trace.
    """

    def __init__(
        self,
        engine: StreamingParser,
        ladder: DegradationLadder,
        monitor: BudgetMonitor,
        *,
        ledger: MiningImpactLedger | None = None,
        check_every: int = 100,
    ) -> None:
        if check_every < 1:
            raise ValidationError(
                f"check_every must be >= 1, got {check_every}"
            )
        self.engine = engine
        self.telemetry = engine.telemetry
        self.ladder = ladder
        self.monitor = monitor
        self.ledger = ledger if ledger is not None else MiningImpactLedger()
        self.check_every = check_every
        self.checks = 0

    def feed(self, record: LogRecord) -> int:
        """Check the budget if the fed count is due, then feed.

        The check runs *before* the record reaches the engine, so a
        feed that raises :class:`BudgetExceededError` (a hard breach
        with the ladder exhausted) fed nothing.  Returns the engine
        line number, or -1 when the engine rejected or shed the record.
        """
        self.monitor.start_if_needed()
        fed = self.engine.fed
        if fed and fed % self.check_every == 0:
            self.check_budget()
        return self.engine.feed(record)

    def check_budget(self) -> None:
        """Sample the budget now and apply the step-down policy."""
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
            return
        hard = [b for b in breaches if b.level == LEVEL_HARD]
        if hard and self.ladder.exhausted:
            raise BudgetExceededError(
                "hard resource budget breached with the degradation ladder "
                f"exhausted (on {self.ladder.current.parser}): "
                + "; ".join(breach.describe() for breach in hard),
                breaches=hard,
            )
        self.ladder.note_check(True)
        if hard or (self.ladder.ready() and not self.ladder.exhausted):
            trigger = TRIGGER_HARD if hard else TRIGGER_SOFT
            self.step_down(trigger, sample, breaches)

    def step_down(self, trigger, sample=None, breaches=()) -> None:
        """Swap in the next rung's parser and record the event (a
        budget breach's, or a shard's ``crash`` streak's)."""
        to_rung = self.ladder.peek_next()
        assert to_rung is not None  # callers checked exhausted
        cost = self.ledger.record(
            self.ladder.position + 1,
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


class DegradedSession(ParseSession):
    """A ``stream`` run feeding through a :class:`BudgetGovernor`
    (every keyword but *track_matrix* is the governor's)."""

    def __init__(
        self, parser, ladder, monitor, *, track_matrix=True, **governor
    ) -> None:
        self.governor = BudgetGovernor(parser, ladder, monitor, **governor)
        super().__init__(parser, track_matrix=track_matrix)
        self.ladder = ladder
        self._feed = self.governor.feed

    def describe(self) -> str:
        """The audit trail: the final rung, every step with its
        evidence, and the mining-impact ledger."""
        return "\n".join([
            f"finished on rung {self.ladder.current.parser} after "
            f"{len(self.ladder.events)} degradation(s), {self.governor.checks} "
            f"budget check(s)",
            self.counters().describe(),
            *(event.describe() for event in self.ladder.events),
            self.governor.ledger.describe(),
        ])
