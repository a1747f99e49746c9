"""The adaptive runtime: a budget and a ladder wired into a live stream.

:class:`DegradedSession` is a
:class:`~repro.streaming.session.ParseSession` that checks the
:class:`~repro.degradation.budget.BudgetMonitor` every ``check_every``
records its engine was fed.  Sustained *soft* breaches walk the
:class:`~repro.degradation.ladder.DegradationLadder` one rung at a
time; a *hard* breach steps immediately, and on the floor rung
escalates as :class:`~repro.common.errors.BudgetExceededError`.  A
service shard whose flush parser keeps crashing steps through the
same :meth:`DegradedSession.step_down`.  A step swaps the flush
parser through
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


class DegradedSession(ParseSession):
    """A :class:`~repro.streaming.session.ParseSession` under a budget.

    The engine is built fresh or resumed exactly as an unbudgeted one
    is, with the ladder's current rung as its flush parser; until a
    step the session parses exactly as a plain one over it.

    Args:
        parser: the streaming engine.  Its fed count, which a
            checkpoint restores, keys the checks, so a resumed run
            checks at the same lines as a run that was never cut.
        ladder: rung order and step-down policy, positioned at the
            engine's flush parser.
        monitor: the budget to check; the cache and queue dimensions
            are read from the engine.
        ledger: mining-impact accounting (defaults to the reference
            table).
        check_every: fed records between budget checks.
        track_matrix: maintain the live session-by-event matrix.

    With the engine's telemetry, budget breaches are counted by
    dimension and level, ladder steps by trigger, and every ladder
    step lands on the event timeline plus a ``rung_change`` instant
    marker in the trace.
    """

    def __init__(
        self,
        parser: StreamingParser,
        ladder: DegradationLadder,
        monitor: BudgetMonitor,
        *,
        ledger: MiningImpactLedger | None = None,
        check_every: int = 100,
        track_matrix: bool = True,
    ) -> None:
        if check_every < 1:
            raise ValidationError(
                f"check_every must be >= 1, got {check_every}"
            )
        super().__init__(parser, track_matrix=track_matrix)
        self.ladder = ladder
        self.monitor = monitor
        self.ledger = ledger if ledger is not None else MiningImpactLedger()
        self.check_every = check_every
        self.checks = 0

    # ------------------------------------------------------------------

    def feed(self, record: LogRecord) -> int:
        """Check the budget if the fed count is due, then feed.

        The check runs *before* the record reaches the engine, so a
        feed that raises :class:`BudgetExceededError` (a hard breach
        with the ladder exhausted) fed nothing.  Returns the engine
        line number, or -1 when the engine rejected or shed the record.
        """
        self.monitor.start_if_needed()
        fed = self.parser.fed
        if fed and fed % self.check_every == 0:
            self.check_budget()
        return super().feed(record)

    def check_budget(self) -> None:
        """Sample the budget now and apply the step-down policy."""
        self.checks += 1
        sample, breaches = self.monitor.evaluate(
            cache_entries=len(self.parser.cache),
            queue_depth=self.parser.pending_count,
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
        actions = self.parser.reconfigure(to_rung.build_parser)
        event = self.ladder.step_down(
            trigger=trigger,
            at_line=self.parser.counters.lines,
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

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """The audit trail: the final rung, every step with its
        evidence, and the mining-impact ledger."""
        return "\n".join([
            f"finished on rung {self.ladder.current.parser} after "
            f"{len(self.ladder.events)} degradation(s), {self.checks} "
            f"budget check(s)",
            self.counters().describe(),
            *(event.describe() for event in self.ladder.events),
            self.ledger.describe(),
        ])
