"""Supervised parsing: deadlines, retries, fallbacks.

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
* every attempt — success, error, or timeout — lands in a structured
  :class:`FailureReport` so "what happened" is never a matter of
  scrolling logs.

:meth:`ParserSupervisor.parse` walks its chain itself, and it is the
one loop that retries a parse.  A parser composes with it instead of
supervising itself: wrapping
:class:`~repro.parsers.parallel.ChunkedParallelParser` as the chain
``[("pool", ...workers=2), ("in-process", ...workers=1)]`` retries a
parse that lost a worker, then parses in-process.  The other
supervision stack, :class:`~repro.service.workers.ShardSupervisor`,
restarts worker processes and books every death as an
:class:`Attempt` in the same status set.

All time sources (``sleep``, ``clock``) are injectable, which the test
suite uses to drive backoff schedules without real waiting.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field
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

#: Attempt status tags — the one outcome vocabulary of every
#: supervision stack (a worker killed by a signal or exiting nonzero is
#: an ``error``; a hung one is a ``timeout``).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
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


@dataclass(frozen=True)
class Attempt:
    """One try of one unit on one chain entry.

    *parser* names the chain entry; *unit* names what was tried when
    a loop runs more than one (a tenant), else ``None``.
    """

    parser: str
    attempt: int
    status: str
    seconds: float = 0.0
    error: str | None = None
    unit: Hashable = None

    def describe(self) -> str:
        head = "" if self.unit is None else f"[{self.unit}] "
        tail = f": {self.error}" if self.error else ""
        return (
            f"{head}{self.parser} attempt {self.attempt}: {self.status} "
            f"({self.seconds:.3f}s){tail}"
        )

    def to_record(self) -> dict:
        """Structured-event-log shape (common ``kind`` envelope)."""
        return {
            "kind": "supervisor_attempt",
            "unit": self.unit,
            "parser": self.parser,
            "attempt": self.attempt,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "error": self.error,
        }


@dataclass
class FailureReport:
    """Structured record of every attempt a supervised run made.

    ``winner`` is the chain entry whose parse succeeded, if any.

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
    Python offers no safe preemptive cancellation.  A hung worker
    *process* can be stopped, and is (:func:`stop_process`).

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


def stop_process(process, grace: float = 2.0) -> None:
    """SIGTERM, *grace* seconds, then SIGKILL; always reaps *process*."""
    if process.is_alive():
        process.terminate()
        process.join(timeout=grace)
    if process.is_alive():
        process.kill()
        process.join(timeout=grace + 5.0)
    else:
        process.join(timeout=1.0)


class ParserSupervisor:
    """Run a parse down a fallback chain of supervised parsers.

    Args:
        chain: ordered ``(name, factory)`` pairs — the preferred parser
            first, fallbacks after it.
        timeout: wall-clock deadline per attempt (``None`` = no limit).
        retry: per-parser retry/backoff policy.
        sleep / clock: injectable time sources for tests.
        rng: random source for retry jitter; ``None`` (default) keeps
            the backoff schedule fully deterministic even when the
            retry policy declares a nonzero ``jitter``.
        telemetry: optional
            :class:`~repro.observability.telemetry.Telemetry` handle.
            When set, every attempt is counted by parser and status,
            runs inside a ``parser_call`` span, and each
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
        #: Report of the most recent :meth:`parse` call.
        self.last_report: FailureReport | None = None

    def parse(self, records: Sequence[LogRecord]) -> SupervisedResult:
        records = list(records)
        report = self.last_report = FailureReport()
        result = self._walk(records, report)
        if self.telemetry is not None:
            self.telemetry.events.record(report)
        if report.winner is None:
            raise FallbackExhaustedError(
                "every parser in the fallback chain failed:\n"
                + report.describe(),
                report=report,
            )
        return SupervisedResult(result, report.winner, report)

    def _walk(self, records: list[LogRecord], report: FailureReport):
        """Walk the chain: the one attempt loop.

        An entry's n-th failed try waits ``retry.delay(n)`` and tries
        again until its tries are spent, then the next entry takes
        over — at once on ``budget``: a blown budget does not heal by
        re-running.  Returns the first ``ok`` result, else ``None``.
        """
        for name, factory in self.chain:
            for n in range(1, self.retry.attempts + 1):
                status, result = self._attempt(
                    report, name, factory, records, n
                )
                if status == STATUS_OK:
                    report.winner = name
                    return result
                if status == STATUS_BUDGET or n == self.retry.attempts:
                    break
                if self.telemetry is not None:
                    self.telemetry.metrics.get(
                        "repro_supervisor_retries_total"
                    ).labels(parser=name).inc()
                self._sleep(self.retry.delay(n, self._rng))
        return None

    def _attempt(self, report, name, factory, records, attempt):
        """One deadline-bounded parse inside a ``parser_call`` span,
        settled into one status, booked as an :class:`Attempt` and
        counted on ``repro_supervisor_attempts_total``."""
        tracer = None if self.telemetry is None else self.telemetry.tracer
        span = None if tracer is None else tracer.start(
            SPAN_PARSER_CALL, parser=name, attempt=attempt
        )
        started, status, error, result = self._clock(), STATUS_OK, None, None
        try:
            result = run_with_deadline(
                lambda: factory().parse(records), self.timeout
            )
        except ParserTimeoutError as exc:
            status, error = STATUS_TIMEOUT, str(exc)
            if exc.leaked_thread:
                report.leaked_threads += 1
        except BudgetExceededError as exc:
            status, error = STATUS_BUDGET, str(exc)
        except Exception as exc:  # noqa: BLE001 - booked
            status, error = STATUS_ERROR, f"{type(exc).__name__}: {exc}"
        report.attempts.append(
            Attempt(name, attempt, status, self._clock() - started, error)
        )
        if tracer is not None:
            self.telemetry.metrics.get(
                "repro_supervisor_attempts_total"
            ).labels(parser=name, status=status).inc()
            span.attrs["status"] = status
            tracer.finish(span)
        return status, result
