"""Supervised parsing: deadlines, retries, circuit breakers, fallbacks.

The paper evaluates four parsers with sharply different failure
envelopes — LKE's clustering is quadratic and routinely infeasible on
full datasets (Finding 3), while SLCT degrades gracefully — so a
production pipeline should *chain* them: try the accurate parser under
a deadline, fall back to the cheap one when it times out or crashes.
:class:`ParserSupervisor` implements that chain:

* each parse attempt runs under an optional **wall-clock deadline**
  (enforced by a daemon worker thread; an expired parse is abandoned
  and reported as :class:`~repro.common.errors.ParserTimeoutError`);
* failures are retried with **exponential backoff** per
  :class:`RetryPolicy` (deterministic — no jitter — so tests can
  assert the exact sleep schedule);
* a per-parser :class:`CircuitBreaker` skips a parser that keeps
  failing, so a chain consulted repeatedly (e.g. once per stream
  flush) stops paying the deadline for a known-bad stage until its
  cooldown expires; and
* every attempt — success, error, timeout, or breaker skip — lands in
  a structured :class:`FailureReport` so "what happened" is never a
  matter of scrolling logs.

All time sources (``sleep``, ``clock``) are injectable, which the test
suite uses to drive breaker transitions and backoff schedules without
real waiting.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from random import Random

from repro.common.errors import (
    BudgetExceededError,
    FallbackExhaustedError,
    ParserTimeoutError,
    ValidationError,
)
from repro.common.types import LogRecord, ParseResult
from repro.observability.tracing import SPAN_PARSER_CALL
from repro.parsers.base import ParserFactory

#: Attempt status tags.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped"
STATUS_BUDGET = "budget"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule, deterministic by default.

    ``delay(1)`` is the wait after the first failure:
    ``base_delay * backoff**(attempt-1)``, capped at ``max_delay``.
    ``attempts`` is the total number of tries (1 = no retries).

    ``jitter`` spreads delays uniformly over
    ``[d * (1 - jitter), d * (1 + jitter)]`` (still capped at
    ``max_delay``) to decorrelate retry storms across concurrent
    sessions; it only applies when :meth:`delay` is given an *rng*, so
    the default schedule stays exactly assertable in tests.
    """

    attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValidationError(
                f"retry attempts must be >= 1, got {self.attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0 or self.backoff < 1:
            raise ValidationError(
                "retry delays must be >= 0 and backoff >= 1"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValidationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def delay(self, attempt: int, rng: Random | None = None) -> float:
        """Seconds to wait after failed attempt number *attempt* (1-based).

        With ``jitter > 0`` and an *rng*, the returned delay is drawn
        uniformly from ``[d*(1-jitter), d*(1+jitter)]`` where ``d`` is
        the deterministic exponential delay; the result never exceeds
        ``max_delay`` and never drops below 0.
        """
        base = min(
            self.max_delay, self.base_delay * self.backoff ** (attempt - 1)
        )
        if self.jitter == 0.0 or rng is None:
            return base
        spread = base * self.jitter
        return max(0.0, min(self.max_delay, base + (2 * rng.random() - 1) * spread))


class CircuitBreaker:
    """Classic closed → open → half-open breaker around one parser.

    Args:
        failure_threshold: consecutive failures that trip the breaker.
        reset_timeout: seconds the breaker stays open before allowing
            one half-open probe.
        clock: monotonic time source (injectable for tests).
        on_transition: optional callback ``(old_state, new_state)``
            fired whenever the stored state changes (trip, re-open,
            close).  The supervisor uses it to count transitions and
            put them on the event timeline.

    State machine: ``closed`` admits every call; *failure_threshold*
    consecutive failures move to ``open``, which rejects calls until
    *reset_timeout* has elapsed; the next call then runs as a
    ``half-open`` probe — success closes the breaker, failure re-opens
    it (and restarts the cooldown).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout < 0:
            raise ValidationError(
                f"reset_timeout must be >= 0, got {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self.on_transition = on_transition
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at: float | None = None

    def _set_state(self, new_state: str) -> None:
        old_state = self._state
        self._state = new_state
        if old_state != new_state and self.on_transition is not None:
            self.on_transition(old_state, new_state)

    @property
    def state(self) -> str:
        if (
            self._state == self.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the protected call run right now?"""
        return self.state != self.OPEN

    def record_success(self) -> None:
        self._failures = 0
        self._set_state(self.CLOSED)
        self._opened_at = None

    def record_failure(self) -> None:
        self._failures += 1
        if self._state == self.OPEN or self._failures >= self.failure_threshold:
            # A half-open probe failing re-opens immediately (the
            # cooldown restarts, so _opened_at moves even when the
            # stored state was already OPEN).
            self._set_state(self.OPEN)
            self._opened_at = self._clock()


@dataclass(frozen=True)
class Attempt:
    """One supervised parse attempt (or breaker skip)."""

    parser: str
    attempt: int
    status: str
    seconds: float = 0.0
    error: str | None = None

    def describe(self) -> str:
        tail = f": {self.error}" if self.error else ""
        return (
            f"{self.parser} attempt {self.attempt}: {self.status} "
            f"({self.seconds:.3f}s){tail}"
        )

    def to_record(self) -> dict:
        """Structured-event-log shape (common ``kind`` envelope)."""
        return {
            "kind": "supervisor_attempt",
            "parser": self.parser,
            "attempt": self.attempt,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "error": self.error,
        }


@dataclass
class FailureReport:
    """Structured record of every attempt a supervised parse made.

    ``leaked_threads`` counts deadline-expired parses whose worker
    thread was still running after the grace-period join — abandoned
    daemon threads that keep burning CPU until their parse returns.
    Callers sizing thread pools or diagnosing runaway load need this
    number; before it existed, abandoned threads were invisible.
    """

    attempts: list[Attempt] = field(default_factory=list)
    winner: str | None = None
    leaked_threads: int = 0

    @property
    def failures(self) -> list[Attempt]:
        return [a for a in self.attempts if a.status not in (STATUS_OK,)]

    @property
    def timed_out(self) -> list[Attempt]:
        return [a for a in self.attempts if a.status == STATUS_TIMEOUT]

    @property
    def skipped(self) -> list[Attempt]:
        return [a for a in self.attempts if a.status == STATUS_SKIPPED]

    @property
    def budget_breached(self) -> list[Attempt]:
        return [a for a in self.attempts if a.status == STATUS_BUDGET]

    def describe(self) -> str:
        lines = [a.describe() for a in self.attempts]
        outcome = (
            f"winner: {self.winner}" if self.winner else "no parser succeeded"
        )
        if self.leaked_threads:
            outcome += f" ({self.leaked_threads} abandoned worker thread(s))"
        return "\n".join([*lines, outcome])

    def to_record(self) -> dict:
        """Structured-event-log shape (common ``kind`` envelope).

        The same contract :meth:`DegradationEvent.to_record` follows,
        so fallback outcomes, ladder steps, and quarantine records
        interleave in one timeline file.
        """
        return {
            "kind": "fallback_report",
            "winner": self.winner,
            "failures": len(self.failures),
            "leaked_threads": self.leaked_threads,
            "attempts": [a.to_record() for a in self.attempts],
        }


@dataclass(frozen=True)
class SupervisedResult:
    """Outcome of :meth:`ParserSupervisor.parse`."""

    result: ParseResult
    parser: str
    report: FailureReport


def run_with_deadline(
    fn: Callable[[], ParseResult],
    timeout: float | None,
    *,
    grace: float = 0.1,
) -> ParseResult:
    """Run *fn*, raising :class:`ParserTimeoutError` past *timeout*.

    The call executes in a daemon thread so an overrunning parse can
    be abandoned: the thread keeps burning its CPU until the parse
    returns, but the supervisor (and the process at exit) no longer
    waits for it.  That is the honest best available in-process —
    Python offers no safe preemptive cancellation — and mirrors how
    the chunked parallel backend abandons hung worker processes.

    A deadline-expired worker gets one more ``grace``-second join
    before being abandoned (many "overruns" are parses finishing just
    past the line; the grace join reaps them instead of leaking a
    thread).  When the thread survives the grace join too, the raised
    :class:`ParserTimeoutError` carries ``leaked_thread=True`` so
    callers — foremost :class:`ParserSupervisor`, which totals them in
    :attr:`FailureReport.leaked_threads` — can account for the CPU
    still burning in the background.
    """
    if timeout is None:
        return fn()
    box: dict[str, object] = {}

    def target() -> None:
        try:
            box["result"] = fn()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive() and grace > 0:
        thread.join(grace)
    if thread.is_alive():
        raise ParserTimeoutError(
            f"parse exceeded its {timeout:.3f}s deadline "
            f"(worker thread abandoned after {grace:.3f}s grace)",
            leaked_thread=True,
        )
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]  # type: ignore[return-value]


class ParserSupervisor:
    """Run a parse down a fallback chain of supervised parsers.

    Args:
        chain: ordered ``(name, factory)`` pairs — the preferred parser
            first, fallbacks after it.
        timeout: wall-clock deadline per attempt (``None`` = no limit).
        retry: per-parser retry/backoff policy.
        breaker_threshold / breaker_reset: circuit breaker parameters,
            one breaker per chain entry, persistent across
            :meth:`parse` calls.
        sleep / clock: injectable time sources for tests.
        rng: random source for retry jitter; ``None`` (default) keeps
            the backoff schedule fully deterministic even when the
            retry policy declares a nonzero ``jitter``.
        telemetry: optional
            :class:`~repro.observability.telemetry.Telemetry` handle.
            When set, every attempt is counted by parser and status,
            runs inside a ``parser_call`` span, breaker state changes
            are counted and land on the event timeline, and each
            :meth:`parse` emits its :class:`FailureReport` as a
            ``fallback_report`` timeline event.

    A parse attempt that raises
    :class:`~repro.common.errors.BudgetExceededError` (a hard resource
    budget breached mid-parse — see :mod:`repro.degradation`) is
    recorded with status ``budget`` and moves straight to the next
    chain entry without retrying: a blown budget does not heal by
    running the same parser again.

    :meth:`parse` returns a :class:`SupervisedResult` from the first
    chain entry that succeeds, or raises
    :class:`~repro.common.errors.FallbackExhaustedError` (carrying the
    full :class:`FailureReport`) when every entry fails.
    """

    def __init__(
        self,
        chain: Sequence[tuple[str, ParserFactory]],
        *,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        rng: Random | None = None,
        telemetry=None,
    ) -> None:
        if not chain:
            raise ValidationError("supervision chain must not be empty")
        if timeout is not None and timeout <= 0:
            raise ValidationError(f"timeout must be > 0, got {timeout}")
        self.chain = list(chain)
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self._clock = clock
        self._rng = rng
        self.telemetry = telemetry
        self.breakers = {
            name: CircuitBreaker(
                failure_threshold=breaker_threshold,
                reset_timeout=breaker_reset,
                clock=clock,
                on_transition=(
                    self._breaker_observer(name)
                    if telemetry is not None
                    else None
                ),
            )
            for name, _ in self.chain
        }
        #: Report of the most recent :meth:`parse` call.
        self.last_report: FailureReport | None = None

    def _breaker_observer(self, name: str) -> Callable[[str, str], None]:
        def observe(old_state: str, new_state: str) -> None:
            self.telemetry.metrics.get(
                "repro_breaker_transitions_total"
            ).labels(parser=name, state=new_state).inc()
            self.telemetry.events.emit(
                "breaker_transition",
                parser=name,
                old_state=old_state,
                new_state=new_state,
            )

        return observe

    def _note_attempt(self, report: FailureReport, attempt: Attempt) -> None:
        """Append to the report and mirror into telemetry."""
        report.attempts.append(attempt)
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_supervisor_attempts_total"
            ).labels(parser=attempt.parser, status=attempt.status).inc()

    def parse(self, records: Sequence[LogRecord]) -> SupervisedResult:
        records = list(records)
        report = FailureReport()
        self.last_report = report
        for name, factory in self.chain:
            breaker = self.breakers[name]
            if not breaker.allow():
                self._note_attempt(
                    report,
                    Attempt(
                        parser=name,
                        attempt=0,
                        status=STATUS_SKIPPED,
                        error="circuit breaker open",
                    ),
                )
                continue
            for attempt in range(1, self.retry.attempts + 1):
                started = self._clock()
                span = (
                    self.telemetry.tracer.start(
                        SPAN_PARSER_CALL, parser=name, attempt=attempt
                    )
                    if self.telemetry is not None
                    else None
                )
                try:
                    result = run_with_deadline(
                        lambda: factory().parse(records), self.timeout
                    )
                except ParserTimeoutError as error:
                    status, detail = STATUS_TIMEOUT, str(error)
                    if getattr(error, "leaked_thread", False):
                        report.leaked_threads += 1
                except BudgetExceededError as error:
                    status, detail = STATUS_BUDGET, str(error)
                except Exception as error:  # noqa: BLE001 - recorded
                    status, detail = STATUS_ERROR, f"{type(error).__name__}: {error}"
                else:
                    if span is not None:
                        span.attrs["status"] = STATUS_OK
                        self.telemetry.tracer.finish(span)
                    breaker.record_success()
                    self._note_attempt(
                        report,
                        Attempt(
                            parser=name,
                            attempt=attempt,
                            status=STATUS_OK,
                            seconds=self._clock() - started,
                        ),
                    )
                    report.winner = name
                    if self.telemetry is not None:
                        self.telemetry.events.record(report)
                    return SupervisedResult(
                        result=result, parser=name, report=report
                    )
                if span is not None:
                    span.attrs["status"] = status
                    self.telemetry.tracer.finish(span)
                breaker.record_failure()
                self._note_attempt(
                    report,
                    Attempt(
                        parser=name,
                        attempt=attempt,
                        status=status,
                        seconds=self._clock() - started,
                        error=detail,
                    ),
                )
                if (
                    status == STATUS_BUDGET
                    or not breaker.allow()
                    or attempt == self.retry.attempts
                ):
                    break
                if self.telemetry is not None:
                    self.telemetry.metrics.get(
                        "repro_supervisor_retries_total"
                    ).labels(parser=name).inc()
                self._sleep(self.retry.delay(attempt, self._rng))
        if self.telemetry is not None:
            self.telemetry.events.record(report)
        raise FallbackExhaustedError(
            "every parser in the fallback chain failed:\n" + report.describe(),
            report=report,
        )
