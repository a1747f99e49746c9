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

The attempt loop itself is :func:`run_chain`, and it is the only one:
:class:`~repro.parsers.parallel.ChunkedParallelParser` walks each chunk
down a two-entry chain (a fresh worker pool per wave, then one
in-process try) on the same loop, and
:class:`~repro.service.workers.ShardSupervisor` books every worker
death as an :class:`Attempt` in the same status set.

All time sources (``sleep``, ``clock``) are injectable, which the test
suite uses to drive breaker transitions and backoff schedules without
real waiting.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Hashable, Sequence
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from functools import partial
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
    """One try of one unit on one chain entry (or a breaker skip).

    *parser* names the chain entry; *unit* names what was tried when
    a loop runs more than one (a chunk index, a tenant), else ``None``.
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

    ``winner`` is the chain entry that settled the last unit to
    succeed: the parser that won, for a single parse.

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


@dataclass(frozen=True)
class ChainEntry:
    """One entry of a chain :func:`run_chain` walks.

    ``wave(units, attempt)`` is a context manager that starts try
    *attempt* of every unit and yields one callable per unit, which
    returns its result or raises once the try's deadline passes.  The
    loop books every try before the context exits.
    """

    name: str
    tries: int
    wave: Callable[[list, int], AbstractContextManager[list]]
    breaker: CircuitBreaker | None = None
    first: int = 1  # number of the entry's first try


def run_chain(
    units: Sequence[Hashable],
    chain: Sequence[ChainEntry],
    report: FailureReport,
    *,
    retry: RetryPolicy,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    rng: Random | None = None,
    telemetry=None,
) -> dict:
    """Walk every unit down *chain*: the one attempt loop.

    Each try is settled into one status, booked as an :class:`Attempt`
    and counted on ``repro_supervisor_attempts_total``.  After an
    entry's n-th wave its failed units wait ``retry.delay(n)`` and try
    again; they move on to the next entry when its tries are spent or
    its breaker opens, and at once on ``budget`` — a blown budget does
    not heal by re-running.  An entry whose breaker is open is booked
    ``skipped`` (attempt 0).  Returns ``{unit: result}`` of the units
    some entry settled ``ok``.
    """
    # concurrent.futures' own deadline error before Python 3.11; a
    # local import, so the vocabulary alone loads no executor module.
    from concurrent.futures import TimeoutError as FuturesTimeoutError

    def book(attempt: Attempt) -> None:
        report.attempts.append(attempt)
        if telemetry is not None:
            telemetry.metrics.get("repro_supervisor_attempts_total").labels(
                parser=attempt.parser, status=attempt.status
            ).inc()

    done: dict = {}
    pending = list(units)
    for entry in chain:
        if not pending:
            break
        breaker = entry.breaker
        if breaker is not None and not breaker.allow():
            for unit in pending:
                book(Attempt(entry.name, 0, STATUS_SKIPPED, unit=unit,
                             error="circuit breaker open"))
            continue
        # From here on *pending* collects the next entry's units.
        trying, pending = pending, []
        for n in range(1, entry.tries + 1):
            attempt, started, failed = entry.first + n - 1, clock(), []
            with entry.wave(trying, attempt) as calls:
                for unit, call in zip(trying, calls):
                    status, error = STATUS_OK, None
                    try:
                        done[unit] = call()
                    except (FuturesTimeoutError, ParserTimeoutError) as exc:
                        status = STATUS_TIMEOUT
                        error = str(exc) or "no result before the deadline"
                        if getattr(exc, "leaked_thread", False):
                            report.leaked_threads += 1
                    except BudgetExceededError as exc:
                        status, error = STATUS_BUDGET, str(exc)
                    except Exception as exc:  # noqa: BLE001 - booked
                        status = STATUS_ERROR
                        error = f"{type(exc).__name__}: {exc}"
                    if breaker is not None:
                        if status == STATUS_OK:
                            breaker.record_success()
                        else:
                            breaker.record_failure()
                    book(Attempt(entry.name, attempt, status,
                                 clock() - started, error, unit))
                    if status == STATUS_OK:
                        report.winner = entry.name
                    elif status == STATUS_BUDGET:
                        pending.append(unit)  # straight to the next entry
                    else:
                        failed.append(unit)
            if not failed:
                break
            if n == entry.tries or (breaker is not None and not breaker.allow()):
                pending += failed
                break
            if telemetry is not None:
                telemetry.metrics.get("repro_supervisor_retries_total").labels(
                    parser=entry.name
                ).inc(len(failed))
            sleep(retry.delay(n, rng))
            trying = failed
    return done


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

    def parse(self, records: Sequence[LogRecord]) -> SupervisedResult:
        records = list(records)
        report = self.last_report = FailureReport()
        chain = [
            ChainEntry(
                name,
                self.retry.attempts,
                partial(self._wave, report, name, factory, records),
                self.breakers[name],
            )
            for name, factory in self.chain
        ]
        done = run_chain(
            [None], chain, report, retry=self.retry, sleep=self._sleep,
            clock=self._clock, rng=self._rng, telemetry=self.telemetry,
        )
        if self.telemetry is not None:
            self.telemetry.events.record(report)
        if not done:
            raise FallbackExhaustedError(
                "every parser in the fallback chain failed:\n"
                + report.describe(),
                report=report,
            )
        return SupervisedResult(done[None], report.winner, report)

    @contextmanager
    def _wave(self, report, name, factory, records, _units, attempt):
        """One deadline-bounded parse, inside a ``parser_call`` span."""
        tracer = None if self.telemetry is None else self.telemetry.tracer
        span = None if tracer is None else tracer.start(
            SPAN_PARSER_CALL, parser=name, attempt=attempt
        )
        yield [
            partial(
                run_with_deadline,
                lambda: factory().parse(records),
                self.timeout,
            )
        ]
        if span is not None:
            span.attrs["status"] = report.attempts[-1].status
            tracer.finish(span)
