"""The degradation ladder: parser rungs and the step-down policy.

Finding 3 ranks the parsers by cost and Table III / Finding 6 rank
them by the mining damage their errors do.  A :class:`DegradationLadder`
is an ordered list of :class:`LadderRung` entries, most faithful
first, and a rung is only a parser: a registry name plus its
constructor parameters.  The engine shape (flush policy, flush size,
cache capacity, ``max_pending``, ``overflow``) belongs to whoever
builds the session and never changes on a step-down, so a budget that
never breaches changes nothing, and no rung drops lines.

Which steps exist is measured, not assumed: :data:`FRONTIER` keeps a
step only where ablation A6 (``benchmarks/test_ablation_ladder.py``,
EXPERIMENTS.md) shows the lower rung strictly cheaper per offered line
in every cell, with no higher traced peak, and no cheaper parser at
least as accurate.  LKE, LogSig and SLCT step once, to Drain; Drain,
IPLoM and Passthrough are their own floor.

The policy is deliberately simple and auditable:

* a **soft** budget breach steps down exactly one rung, never more,
  and only after the breach has persisted for ``cooldown_checks``
  consecutive checks (so a single noisy sample cannot shed fidelity);
* a **hard** breach steps down immediately, ignoring the cooldown;
* on a service shard, ``breaker_threshold`` consecutive crashed
  flushes step down too (trigger ``crash``), and only a crash streak
  on the floor rung opens the shard's breaker;
* the ladder never skips a rung and never steps back up mid-run —
  recovery is a restart decision, not a flapping one;
* every transition emits a :class:`DegradationEvent` carrying the
  budget evidence (sample + breaches) that justified it and the
  parser swap actually applied.

A hard breach on the floor rung escalates as
:class:`~repro.common.errors.BudgetExceededError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.degradation.budget import BudgetBreach, BudgetSample
from repro.parsers.base import LogParser
from repro.parsers.registry import make_parser

#: Transition trigger tags recorded on :class:`DegradationEvent`
#: (``crash``: the rung's flush parser kept raising).
TRIGGER_SOFT = "soft-breach"
TRIGGER_HARD = "hard-breach"
TRIGGER_CRASH = "crash"

#: The measured step-down rule, ``(parser, the rung below it)``.  A
#: parser with no step here is its own floor.
FRONTIER = (("LKE", "Drain"), ("LogSig", "Drain"), ("SLCT", "Drain"))


def frontier(parser: str) -> list[str]:
    """*parser* followed by every rung :data:`FRONTIER` steps to."""
    steps = dict(FRONTIER)
    names = [parser]
    while names[-1] in steps:
        names.append(steps[names[-1]])
    return names


@dataclass(frozen=True)
class LadderRung:
    """One fidelity level: a registry parser name and its parameters."""

    parser: str
    params: dict = field(default_factory=dict)

    def build_parser(self) -> LogParser:
        return make_parser(self.parser, **self.params)


@dataclass(frozen=True)
class DegradationEvent:
    """One audited fidelity transition, with the evidence behind it."""

    sequence: int
    from_rung: str
    to_rung: str
    trigger: str
    at_line: int
    sample: BudgetSample | None
    breaches: tuple[BudgetBreach, ...]
    actions: dict
    mining_impact: str = ""

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "from": self.from_rung,
            "to": self.to_rung,
            "trigger": self.trigger,
            "at_line": self.at_line,
            "sample": self.sample.to_dict() if self.sample else None,
            "breaches": [breach.describe() for breach in self.breaches],
            "actions": dict(self.actions),
            "mining_impact": self.mining_impact,
        }

    def to_record(self) -> dict:
        """Structured-event-log shape (common ``kind`` envelope).

        The same contract as ``FailureReport.to_record`` and
        ``QuarantineRecord.to_record``, so ladder steps interleave with
        fallback reports and quarantined records in one timeline.
        """
        return {"kind": "ladder_step", **self.to_dict()}

    def describe(self) -> str:
        evidence = (
            "; ".join(breach.describe() for breach in self.breaches)
            or "no budget evidence"
        )
        lines = [
            f"#{self.sequence} {self.from_rung} -> {self.to_rung} "
            f"[{self.trigger}] at line {self.at_line}",
            f"    evidence: {evidence}",
        ]
        if self.sample is not None:
            lines.append(f"    sample:   {self.sample.describe()}")
        if self.actions:
            applied = ", ".join(
                f"{key}={value}" for key, value in sorted(self.actions.items())
            )
            lines.append(f"    applied:  {applied}")
        if self.mining_impact:
            lines.append(f"    impact:   {self.mining_impact}")
        return "\n".join(lines)


class DegradationLadder:
    """Position tracking and step-down policy over an ordered rung list.

    The ladder owns *policy only* — which rung is current, whether a
    step is allowed, and the audit trail of
    :class:`DegradationEvent` records.  Applying a rung to a live
    engine is the runtime's job
    (:class:`~repro.degradation.runtime.DegradedSession`).

    Args:
        rungs: ordered rungs, most faithful first.
        cooldown_checks: consecutive breached checks required before a
            *soft* breach may step down, and again between successive
            soft steps.  Hard breaches ignore the cooldown.
    """

    def __init__(
        self,
        rungs: list[LadderRung],
        *,
        cooldown_checks: int = 2,
    ) -> None:
        self.rungs = list(rungs)
        if not self.rungs:
            raise ValidationError("a degradation ladder needs >= 1 rung")
        if cooldown_checks < 1:
            raise ValidationError(
                f"cooldown_checks must be >= 1, got {cooldown_checks}"
            )
        self.cooldown_checks = cooldown_checks
        self.position = 0
        self.events: list[DegradationEvent] = []
        self._pressure_streak = 0

    @property
    def current(self) -> LadderRung:
        return self.rungs[self.position]

    @property
    def exhausted(self) -> bool:
        """True when there is no rung left below the current one."""
        return self.position >= len(self.rungs) - 1

    def peek_next(self) -> LadderRung | None:
        if self.exhausted:
            return None
        return self.rungs[self.position + 1]

    def state(self) -> dict | None:
        """What decides the next step, for a checkpoint: the rung
        names, the position and the soft-breach streak.  ``None`` for
        a one-rung ladder, which can never step."""
        if len(self.rungs) < 2:
            return None
        return {
            "rungs": [rung.parser for rung in self.rungs],
            "position": self.position,
            "streak": self._pressure_streak,
        }

    def restore(self, state: dict | None) -> None:
        """Adopt a :meth:`state` snapshot (the caller matched the rungs)."""
        if state is not None:
            self.position = state["position"]
            self._pressure_streak = state["streak"]

    def note_check(self, breached: bool) -> None:
        """Record one budget check's outcome for the soft cooldown."""
        if breached:
            self._pressure_streak += 1
        else:
            self._pressure_streak = 0

    def ready(self) -> bool:
        """Whether sustained pressure has earned a soft step-down."""
        return self._pressure_streak >= self.cooldown_checks

    def step_down(
        self,
        *,
        trigger: str,
        at_line: int,
        sample: BudgetSample | None = None,
        breaches: tuple[BudgetBreach, ...] = (),
        actions: dict | None = None,
        mining_impact: str = "",
    ) -> DegradationEvent:
        """Advance exactly one rung and record the transition.

        Raises :class:`~repro.common.errors.ValidationError` when the
        ladder is already exhausted — callers must check
        :attr:`exhausted` and escalate instead.
        """
        if self.exhausted:
            raise ValidationError(
                "degradation ladder exhausted: already on "
                f"{self.current.parser}, nothing below it"
            )
        from_rung = self.current.parser
        self.position += 1
        self._pressure_streak = 0
        event = DegradationEvent(
            sequence=self.position,
            from_rung=from_rung,
            to_rung=self.current.parser,
            trigger=trigger,
            at_line=at_line,
            sample=sample,
            breaches=tuple(breaches),
            actions=dict(actions or {}),
            mining_impact=mining_impact,
        )
        self.events.append(event)
        return event

    def describe(self) -> str:
        path = " -> ".join(
            (f"[{rung.parser}]" if i == self.position else rung.parser)
            for i, rung in enumerate(self.rungs)
        )
        return (
            f"ladder: {path} | {len(self.events)} transition(s), "
            f"cooldown={self.cooldown_checks} check(s)"
        )
