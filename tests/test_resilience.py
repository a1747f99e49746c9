"""Tests for the supervision runtime: retries, fallbacks, screening."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    FallbackExhaustedError,
    ParserTimeoutError,
    ValidationError,
)
from repro.common.types import LogRecord
from repro.parsers import make_parser
from repro.resilience import (
    ErrorPolicy,
    ParserSupervisor,
    QuarantineSink,
    RetryPolicy,
    is_clean_content,
    run_with_deadline,
    screen_records,
)
from repro.resilience.faults import FlakyFactory, InjectedFault
from repro.resilience.supervisor import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
)


class FakeClock:
    """Manually advanced monotonic clock for backoff tests."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def _iplom_factory():
    return make_parser("IPLoM")


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


def test_retry_policy_schedule_is_deterministic():
    policy = RetryPolicy(attempts=4, base_delay=0.1, backoff=2.0, max_delay=0.3)
    assert [policy.delay(n) for n in (1, 2, 3)] == [0.1, 0.2, 0.3]


def test_retry_policy_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValidationError):
        RetryPolicy(backoff=0.5)


# ----------------------------------------------------------------------
# run_with_deadline
# ----------------------------------------------------------------------


def test_deadline_passes_through_fast_results(toy_records):
    result = run_with_deadline(
        lambda: make_parser("IPLoM").parse(toy_records), timeout=30.0
    )
    assert result.assignments


def test_deadline_raises_on_overrun():
    import time

    with pytest.raises(ParserTimeoutError):
        run_with_deadline(lambda: time.sleep(5), timeout=0.05)


def test_deadline_propagates_worker_exceptions():
    def boom():
        raise InjectedFault("kaboom")

    with pytest.raises(InjectedFault):
        run_with_deadline(boom, timeout=5.0)


# ----------------------------------------------------------------------
# ParserSupervisor
# ----------------------------------------------------------------------


def test_supervisor_first_parser_succeeds(toy_records):
    supervisor = ParserSupervisor([("IPLoM", _iplom_factory)])
    outcome = supervisor.parse(toy_records)
    assert outcome.parser == "IPLoM"
    assert outcome.report.winner == "IPLoM"
    assert [a.status for a in outcome.report.attempts] == [STATUS_OK]
    assert outcome.result.assignments


def test_supervisor_retries_with_backoff_then_succeeds(toy_records):
    clock = FakeClock()
    flaky = FlakyFactory(_iplom_factory, fail_times=2)
    supervisor = ParserSupervisor(
        [("IPLoM", flaky)],
        retry=RetryPolicy(attempts=3, base_delay=0.1, backoff=2.0),
        sleep=clock.sleep,
        clock=clock,
    )
    outcome = supervisor.parse(toy_records)
    assert [a.status for a in outcome.report.attempts] == [
        STATUS_ERROR,
        STATUS_ERROR,
        STATUS_OK,
    ]
    # Deterministic backoff schedule: 0.1 then 0.2.
    assert clock.sleeps == [0.1, 0.2]


def test_supervisor_falls_back_down_the_chain(toy_records):
    clock = FakeClock()
    always_broken = FlakyFactory(_iplom_factory, fail_times=99, name="LKE")
    supervisor = ParserSupervisor(
        [("LKE", always_broken), ("SLCT", lambda: make_parser("SLCT"))],
        retry=RetryPolicy(attempts=2, base_delay=0.01),
        sleep=clock.sleep,
        clock=clock,
    )
    outcome = supervisor.parse(toy_records)
    assert outcome.parser == "SLCT"
    statuses = [(a.parser, a.status) for a in outcome.report.attempts]
    assert statuses == [
        ("LKE", STATUS_ERROR),
        ("LKE", STATUS_ERROR),
        ("SLCT", STATUS_OK),
    ]
    assert len(outcome.report.failures) == 2


def test_supervisor_timeout_registers_and_falls_back(toy_records):
    stall = FlakyFactory(_iplom_factory, fail_times=99, hang_seconds=2.0)
    supervisor = ParserSupervisor(
        [("slow", stall), ("IPLoM", _iplom_factory)],
        timeout=0.05,
        retry=RetryPolicy(attempts=1),
    )
    outcome = supervisor.parse(toy_records)
    assert outcome.parser == "IPLoM"
    assert [a.status for a in outcome.report.timed_out] == [STATUS_TIMEOUT]


def test_supervisor_exhaustion_raises_with_report(toy_records):
    clock = FakeClock()
    supervisor = ParserSupervisor(
        [("A", FlakyFactory(_iplom_factory, fail_times=99, name="A"))],
        retry=RetryPolicy(attempts=2, base_delay=0.01),
        sleep=clock.sleep,
        clock=clock,
    )
    with pytest.raises(FallbackExhaustedError) as excinfo:
        supervisor.parse(toy_records)
    report = excinfo.value.report
    assert report is not None
    assert report.winner is None
    assert len(report.failures) == 2
    assert "no parser succeeded" in report.describe()


def test_supervisor_rejects_empty_chain():
    with pytest.raises(ValidationError):
        ParserSupervisor([])
    with pytest.raises(ValidationError):
        ParserSupervisor([("IPLoM", _iplom_factory)], timeout=0)


# ----------------------------------------------------------------------
# Record screening
# ----------------------------------------------------------------------


def test_is_clean_content_flags_control_chars_and_length():
    assert is_clean_content("plain message") is None
    assert is_clean_content("tab\tand spaces ok") is None
    assert is_clean_content("null\x00byte") == "unprintable"
    assert is_clean_content("ansi \x1b[31m red") == "unprintable"
    assert is_clean_content("lossy � decode") == "unprintable"
    assert is_clean_content("x" * 11, max_len=10) == "oversized"


def test_screen_records_quarantines_with_provenance():
    records = [
        LogRecord(content="good line one"),
        LogRecord(content="bad\x00line"),
        LogRecord(content="good line two"),
    ]
    sink = QuarantineSink()
    policy = ErrorPolicy("quarantine", sink=sink)
    clean = list(screen_records(records, policy, source="<test>"))
    assert [r.content for r in clean] == ["good line one", "good line two"]
    assert policy.skipped == 1
    assert len(sink) == 1
    record = sink.records[0]
    assert record.source == "<test>"
    assert record.line_no == 1
    assert record.byte_offset == -1
    assert record.reason == "unprintable"
    assert "bad" in record.preview


def test_screen_records_raise_mode_names_the_line():
    from repro.common.errors import DatasetError

    records = [LogRecord(content="fine"), LogRecord(content="bad\x07")]
    with pytest.raises(DatasetError, match="<test>:1"):
        list(screen_records(records, "raise", source="<test>"))


def test_quarantine_sink_round_trips_jsonl(tmp_path):
    path = str(tmp_path / "q.jsonl")
    with QuarantineSink(path) as sink:
        list(
            screen_records(
                [LogRecord(content="ok"), LogRecord(content="\x00")],
                "quarantine",
                sink=sink,
            )
        )
    loaded = QuarantineSink.read(path)
    assert len(loaded) == 1
    assert loaded[0].reason == "unprintable"


def test_error_policy_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        ErrorPolicy("explode")


# ----------------------------------------------------------------------
# RetryPolicy jitter bounds
# ----------------------------------------------------------------------


def test_retry_delay_without_rng_stays_deterministic():
    policy = RetryPolicy(attempts=3, base_delay=0.1, backoff=2.0, jitter=0.5)
    # No rng -> the jitter declaration is inert; schedules stay exact.
    assert [policy.delay(n) for n in (1, 2)] == [0.1, 0.2]


def test_retry_delay_jitter_stays_within_declared_bounds():
    from random import Random

    policy = RetryPolicy(
        attempts=5, base_delay=0.1, backoff=2.0, max_delay=10.0, jitter=0.25
    )
    rng = Random(1234)
    for attempt in (1, 2, 3, 4):
        base = policy.base_delay * policy.backoff ** (attempt - 1)
        draws = [policy.delay(attempt, rng) for _ in range(200)]
        assert all(base * 0.75 <= d <= base * 1.25 for d in draws)
        # The spread is actually used, not collapsed to the midpoint.
        assert max(draws) - min(draws) > base * 0.25


def test_retry_delay_jitter_never_exceeds_max_delay():
    from random import Random

    policy = RetryPolicy(
        attempts=3, base_delay=1.0, backoff=4.0, max_delay=1.5, jitter=0.9
    )
    rng = Random(7)
    draws = [policy.delay(3, rng) for _ in range(200)]
    assert all(0.0 <= d <= 1.5 for d in draws)


def test_retry_policy_rejects_bad_jitter():
    with pytest.raises(ValidationError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValidationError):
        RetryPolicy(jitter=-0.1)


# ----------------------------------------------------------------------
# run_with_deadline grace period and thread accounting
# ----------------------------------------------------------------------


def test_deadline_grace_join_reaps_just_late_workers():
    import time

    # Finishes ~50ms past the deadline but well inside the 2s grace:
    # the grace join reaps it and we get the result, not a timeout.
    result = run_with_deadline(
        lambda: (time.sleep(0.1), "late-but-fine")[1],
        timeout=0.05,
        grace=2.0,
    )
    assert result == "late-but-fine"


def test_deadline_flags_leaked_thread_when_grace_expires():
    import time

    with pytest.raises(ParserTimeoutError) as excinfo:
        run_with_deadline(lambda: time.sleep(5), timeout=0.02, grace=0.02)
    assert excinfo.value.leaked_thread is True
    assert "abandoned" in str(excinfo.value)


def test_deadline_zero_grace_abandons_immediately():
    import time

    with pytest.raises(ParserTimeoutError) as excinfo:
        run_with_deadline(lambda: time.sleep(5), timeout=0.02, grace=0.0)
    assert excinfo.value.leaked_thread is True


def test_supervisor_totals_leaked_threads(toy_records):
    stall = FlakyFactory(_iplom_factory, fail_times=99, hang_seconds=5.0)
    supervisor = ParserSupervisor(
        [("slow", stall), ("IPLoM", _iplom_factory)],
        timeout=0.05,
        retry=RetryPolicy(attempts=1),
    )
    outcome = supervisor.parse(toy_records)
    assert outcome.parser == "IPLoM"
    assert outcome.report.leaked_threads == 1
    assert "abandoned worker thread" in outcome.report.describe()
