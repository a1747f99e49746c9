"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to distinguish configuration problems from data
problems.  The CLI maps the hierarchy onto exit codes (configuration
errors exit 2, data errors exit 3, runtime failures exit 4); see
:func:`repro.cli.exit_code_for`.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ValidationError(ReproError, ValueError):
    """A public API was called with invalid argument values.

    Doubles as a :class:`ValueError` so callers following the builtin
    convention (``except ValueError``) keep working.
    """


class ParserConfigurationError(ReproError):
    """A log parser was constructed or invoked with invalid parameters."""


class DatasetError(ReproError):
    """A dataset could not be generated, loaded, or validated."""


class EvaluationError(ReproError):
    """An evaluation harness was given inconsistent or unusable inputs."""


class MiningError(ReproError):
    """A log mining model was given inconsistent or unusable inputs."""


class ParserTimeoutError(ReproError):
    """A supervised parse exceeded its wall-clock deadline.

    ``leaked_thread`` is True when the deadline-expired worker thread
    survived its grace-period join and was abandoned still running —
    the supervisor totals these in ``FailureReport.leaked_threads``.
    """

    def __init__(self, message: str, *, leaked_thread: bool = False) -> None:
        super().__init__(message)
        self.leaked_thread = leaked_thread


class CheckpointError(ReproError):
    """A streaming checkpoint could not be written, read, or applied."""


class BudgetExceededError(ReproError):
    """A resource budget's hard limit was breached during a parse.

    Carries the :class:`~repro.degradation.budget.BudgetBreach` list
    that triggered it as the ``breaches`` attribute, so supervisors and
    degradation runtimes can report *which* dimension (wall clock,
    memory, cache, queue depth) blew the budget and by how much.
    """

    def __init__(self, message: str, breaches=()) -> None:
        super().__init__(message)
        self.breaches = tuple(breaches)


class ArtifactWriteError(ReproError, OSError):
    """An output artifact could not be durably committed.

    Raised by the durability layer (:mod:`repro.resilience.durability`)
    once its retries are exhausted — an append or the write sequence
    (temp file, fsync, rename, directory fsync) failed persistently.
    The target artifact is left in its previous complete state, never
    half-written.  It is an ``OSError`` too, like the failure it wraps.
    Maps to the runtime-failure exit code (4).
    """


class BindError(ReproError):
    """A listening socket could not be bound.

    Raised by the CLI when the line front end or the telemetry endpoint
    cannot take its port (still held after the bind retries).  Maps to
    the runtime-failure exit code (4).
    """


class IntegrityError(ReproError):
    """A persisted artifact failed an integrity check.

    Covers manifest verification mismatches (hash/size/record-count
    drift, missing artifacts), invalid JSONL frames, and checkpoint/
    artifact reconciliation conflicts.  The CLI maps it to the
    data-error exit code (3): the inputs to the next pipeline stage
    are not trustworthy.
    """


class ConcurrencyError(ReproError):
    """A single-writer component was entered from two threads at once.

    The streaming engine (and the :class:`~repro.streaming.cache.TemplateCache`
    inside it) is deliberately lock-free: each
    :class:`~repro.service.shard.TenantShard` owns exactly one engine
    and serializes access behind its own lock.  This error is the
    enforcement half of that contract — a best-effort tripwire raised
    when a second thread calls ``feed``/``flush``/``finalize``/
    ``reconfigure`` while another thread is still inside the engine.
    Maps to the runtime-failure exit code (4).
    """


class FallbackExhaustedError(ReproError):
    """Every parser in a supervision fallback chain failed.

    Carries the :class:`~repro.resilience.supervisor.FailureReport` of
    the attempts as the ``report`` attribute when raised by
    :class:`~repro.resilience.supervisor.ParserSupervisor`.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class DeliveryError(ReproError):
    """Exactly-once delivery could not be completed.

    Raised by :class:`~repro.service.client.DurableSender` when the
    flush deadline expires with lines still unacknowledged — the lines
    are safe in the client's durable spool and a later flush (or a
    fresh sender over the same spool) will deliver them, but the
    caller's synchronous delivery guarantee did not land.  Maps to the
    runtime-failure exit code (4).
    """
