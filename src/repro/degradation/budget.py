"""Resource budgets and the monitor that samples a run against them.

Finding 3 is that the clustering parsers do not scale with log volume;
a production session therefore needs *enforceable* resource envelopes
rather than hope.  A :class:`ResourceBudget` declares soft and hard
limits over four dimensions of a parsing session:

* **wall seconds** — elapsed time since the monitor started;
* **memory bytes** — process heap, sampled via :mod:`tracemalloc`
  when tracing is active, else the :mod:`resource` high-water RSS
  (no new dependencies either way);
* **cache entries** — resident templates in the streaming engine's
  :class:`~repro.streaming.cache.TemplateCache`;
* **queue depth** — the engine's pending miss buffer (the ingest
  queue producers are filling).

A :class:`BudgetMonitor` turns the budget into evidence: every
:meth:`~BudgetMonitor.sample` produces a :class:`BudgetSample` and
:meth:`~BudgetMonitor.check` grades it into :class:`BudgetBreach`
records — ``soft`` breaches feed the
:class:`~repro.degradation.ladder.DegradationLadder` after a cooldown,
``hard`` breaches step at once and, on the floor rung, raise
:class:`~repro.common.errors.BudgetExceededError`.  All probes (clock, memory, cache, queue) are
injectable, which the chaos-soak harness uses to replay seeded
pressure schedules deterministically.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from collections.abc import Callable

from repro.common.errors import ValidationError

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

#: Budget dimension tags.
DIM_WALL = "wall-seconds"
DIM_MEMORY = "memory-bytes"
DIM_CACHE = "cache-entries"
DIM_QUEUE = "queue-depth"
DIMENSIONS = (DIM_WALL, DIM_MEMORY, DIM_CACHE, DIM_QUEUE)

#: Breach severity levels.
LEVEL_SOFT = "soft"
LEVEL_HARD = "hard"


def default_memory_probe() -> float:
    """Current process memory in bytes, from the best free source.

    Prefers :func:`tracemalloc.get_traced_memory` (current heap, can
    go *down* after relief) when tracing is active; falls back to the
    ``ru_maxrss`` high-water mark (kilobytes on Linux) and finally to
    0 when neither source exists.
    """
    if tracemalloc.is_tracing():
        return float(tracemalloc.get_traced_memory()[0])
    if _resource is not None:
        return float(
            _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss * 1024
        )
    return 0.0


@dataclass(frozen=True)
class BudgetLimit:
    """Soft/hard limit pair over one dimension (``None`` = unlimited)."""

    soft: float | None = None
    hard: float | None = None

    def __post_init__(self) -> None:
        for value in (self.soft, self.hard):
            if value is not None and value <= 0:
                raise ValidationError(
                    f"budget limits must be > 0, got {value}"
                )
        if (
            self.soft is not None
            and self.hard is not None
            and self.soft > self.hard
        ):
            raise ValidationError(
                f"soft limit {self.soft} exceeds hard limit {self.hard}"
            )

    def grade(self, observed: float) -> str | None:
        """``"hard"`` / ``"soft"`` when *observed* breaches, else None."""
        if self.hard is not None and observed >= self.hard:
            return LEVEL_HARD
        if self.soft is not None and observed >= self.soft:
            return LEVEL_SOFT
        return None


@dataclass(frozen=True)
class ResourceBudget:
    """Per-session resource envelope over the four monitored dimensions."""

    wall_seconds: BudgetLimit | None = None
    memory_bytes: BudgetLimit | None = None
    cache_entries: BudgetLimit | None = None
    queue_depth: BudgetLimit | None = None

    #: Default soft limit as a fraction of the hard limit in :meth:`of`.
    SOFT_FRACTION = 0.5

    @classmethod
    def of(
        cls,
        *,
        wall_seconds: float | None = None,
        memory_mb: float | None = None,
        cache_entries: float | None = None,
        queue_depth: float | None = None,
        soft_fraction: float = SOFT_FRACTION,
    ) -> "ResourceBudget":
        """Build a budget from hard limits; soft = ``soft_fraction`` × hard."""
        if not 0.0 < soft_fraction <= 1.0:
            raise ValidationError(
                f"soft_fraction must be in (0, 1], got {soft_fraction}"
            )

        def limit(hard: float | None) -> BudgetLimit | None:
            if hard is None:
                return None
            return BudgetLimit(soft=hard * soft_fraction, hard=hard)

        return cls(
            wall_seconds=limit(wall_seconds),
            memory_bytes=limit(
                memory_mb * 1024 * 1024 if memory_mb is not None else None
            ),
            cache_entries=limit(cache_entries),
            queue_depth=limit(queue_depth),
        )

    def limits(self) -> dict[str, BudgetLimit]:
        """The declared limits, keyed by dimension tag."""
        pairs = {
            DIM_WALL: self.wall_seconds,
            DIM_MEMORY: self.memory_bytes,
            DIM_CACHE: self.cache_entries,
            DIM_QUEUE: self.queue_depth,
        }
        return {dim: lim for dim, lim in pairs.items() if lim is not None}

    def describe(self) -> str:
        if not self.limits():
            return "budget: unlimited"
        parts = [
            f"{dim} soft={lim.soft:g} hard={lim.hard:g}"
            if lim.soft is not None and lim.hard is not None
            else f"{dim} soft={lim.soft} hard={lim.hard}"
            for dim, lim in self.limits().items()
        ]
        return "budget: " + ", ".join(parts)


@dataclass(frozen=True)
class BudgetSample:
    """One observation of every monitored dimension."""

    wall_seconds: float
    memory_bytes: float
    cache_entries: float
    queue_depth: float

    def value(self, dimension: str) -> float:
        return {
            DIM_WALL: self.wall_seconds,
            DIM_MEMORY: self.memory_bytes,
            DIM_CACHE: self.cache_entries,
            DIM_QUEUE: self.queue_depth,
        }[dimension]

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "memory_bytes": self.memory_bytes,
            "cache_entries": self.cache_entries,
            "queue_depth": self.queue_depth,
        }

    def describe(self) -> str:
        return (
            f"wall {self.wall_seconds:.3f}s | "
            f"mem {self.memory_bytes / (1024 * 1024):.1f}MB | "
            f"cache {self.cache_entries:g} | queue {self.queue_depth:g}"
        )


@dataclass(frozen=True)
class BudgetBreach:
    """One dimension observed at or past one of its limits."""

    dimension: str
    level: str
    observed: float
    soft_limit: float | None
    hard_limit: float | None

    def describe(self) -> str:
        limit = self.hard_limit if self.level == LEVEL_HARD else self.soft_limit
        return (
            f"{self.level} breach of {self.dimension}: "
            f"observed {self.observed:g} >= limit {limit:g}"
        )


class BudgetMonitor:
    """Samples a running session against a :class:`ResourceBudget`.

    Args:
        budget: the envelope to grade samples against.
        clock: monotonic time source (injectable; the soak harness
            scripts it to replay deadline squeezes).
        memory_probe: zero-argument callable returning process memory
            in bytes (defaults to :func:`default_memory_probe`).
        cache_probe / queue_probe: optional zero-argument callables
            supplying the cache and queue dimensions when the caller
            does not pass them to :meth:`sample` explicitly.

    The monitor is passive — it never raises on its own.  Callers
    decide what a breach means: the degradation runtime steps its
    ladder, and a hard breach on the floor rung becomes
    :class:`~repro.common.errors.BudgetExceededError`.
    """

    def __init__(
        self,
        budget: ResourceBudget,
        *,
        clock: Callable[[], float] = time.monotonic,
        memory_probe: Callable[[], float] | None = None,
        cache_probe: Callable[[], float] | None = None,
        queue_probe: Callable[[], float] | None = None,
    ) -> None:
        self.budget = budget
        self._clock = clock
        self._memory_probe = memory_probe or default_memory_probe
        self._cache_probe = cache_probe
        self._queue_probe = queue_probe
        self._started: float | None = None
        #: Samples taken since construction (soak schedules key off it).
        self.samples_taken = 0

    def start(self) -> None:
        """(Re)anchor the wall-clock dimension at *now*."""
        self._started = self._clock()

    def start_if_needed(self) -> None:
        if self._started is None:
            self.start()

    @property
    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def sample(
        self,
        *,
        cache_entries: float | None = None,
        queue_depth: float | None = None,
    ) -> BudgetSample:
        """Observe every dimension right now."""
        self.start_if_needed()
        if cache_entries is None:
            cache_entries = (
                self._cache_probe() if self._cache_probe is not None else 0.0
            )
        if queue_depth is None:
            queue_depth = (
                self._queue_probe() if self._queue_probe is not None else 0.0
            )
        self.samples_taken += 1
        return BudgetSample(
            wall_seconds=self.elapsed,
            memory_bytes=self._memory_probe(),
            cache_entries=float(cache_entries),
            queue_depth=float(queue_depth),
        )

    def check(self, sample: BudgetSample) -> list[BudgetBreach]:
        """Grade *sample* against the budget; hard breaches sort first."""
        breaches = []
        for dimension, limit in self.budget.limits().items():
            level = limit.grade(sample.value(dimension))
            if level is not None:
                breaches.append(
                    BudgetBreach(
                        dimension=dimension,
                        level=level,
                        observed=sample.value(dimension),
                        soft_limit=limit.soft,
                        hard_limit=limit.hard,
                    )
                )
        breaches.sort(key=lambda breach: breach.level != LEVEL_HARD)
        return breaches

    def evaluate(
        self,
        *,
        cache_entries: float | None = None,
        queue_depth: float | None = None,
    ) -> tuple[BudgetSample, list[BudgetBreach]]:
        """Sample and grade in one call."""
        sample = self.sample(
            cache_entries=cache_entries, queue_depth=queue_depth
        )
        return sample, self.check(sample)
