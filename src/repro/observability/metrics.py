"""The metrics registry: labeled counters, gauges, and histograms.

Zero-dependency, deterministic, and cheap: a
:class:`MetricsRegistry` is a named map of metric *families*
(counter / gauge / histogram), each family keyed by a fixed tuple of
label names and holding one child per label-value combination.  The
registry exists so every subsystem of the runtime — streaming engine,
supervisor, degradation ladder, quarantine, checkpointing — reports
through **one** schema instead of each printing its own arithmetic
(ISSUE 4; the measurement discipline argued by Zhu et al.'s
benchmarking study).

Design points:

* **Naming scheme** ``repro_<subsystem>_<quantity>[_<unit>|_total]``,
  Prometheus-compatible (see :mod:`repro.observability.exporters` for
  the text exposition).
* **Collectors**: hot paths that already count internally (the
  template cache's hit counters, the engine's line counter) are not
  double-instrumented; instead a *collector callback* registered via
  :meth:`MetricsRegistry.register_collector` syncs those source-of-
  truth counters into the registry right before any snapshot or
  export.  The fast path therefore pays nothing for these metrics.
* **Histograms** use fixed upper-bound buckets (``le`` semantics:
  an observation equal to a boundary lands in that boundary's
  bucket) with quantile estimation by linear interpolation inside
  the winning bucket, so ``quantile(1.0)`` of observations sitting
  exactly on a boundary returns that boundary exactly.
* **Time series**: :meth:`MetricsRegistry.snapshot` flattens every
  sample into a dict and appends it to a bounded in-memory ring
  buffer, so a long run keeps a trajectory (lines/s over time, cache
  hit-rate warm-up curves) without unbounded growth.
* **Injectable clock** so tests assert exact timestamps.
"""

from __future__ import annotations

import math
import re
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence

from repro.common.errors import ValidationError

#: Valid Prometheus metric and label names.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Metric family kinds.
KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"

#: Default latency buckets (seconds): sub-millisecond flushes up to
#: multi-second full re-parses.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default size buckets (records per batch).
DEFAULT_SIZE_BUCKETS = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValidationError(f"invalid metric name {name!r}")
    return name


def _check_labels(labelnames: Sequence[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label):
            raise ValidationError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate label names in {names}")
    return names


class Counter:
    """One monotonically-growing child value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(
                f"counters only go up; use a gauge (got {amount})"
            )
        self.value += amount

    def sync(self, value: float) -> None:
        """Adopt an externally-maintained cumulative value.

        Used by collector callbacks mirroring a source-of-truth counter
        (e.g. the template cache's own hit tallies) so the hot path is
        never double-instrumented.
        """
        self.value = float(value)


class Gauge:
    """One freely-moving child value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram child with quantile summaries.

    Args:
        buckets: strictly-increasing finite upper bounds.  A final
            ``+Inf`` bucket is implicit.  An observation ``v`` lands in
            the first bucket whose upper bound satisfies ``v <= ub``.
    """

    __slots__ = ("buckets", "counts", "inf_count", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValidationError("histogram needs >= 1 finite bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(
                f"histogram buckets must strictly increase, got {bounds}"
            )
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ValidationError(
                "histogram buckets must be finite (+Inf is implicit)"
            )
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.inf_count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            pairs.append((bound, running))
        pairs.append((math.inf, running + self.inf_count))
        return pairs

    def quantile(self, q: float) -> float | None:
        """Estimate the *q*-quantile, ``None`` for an empty histogram.

        Linear interpolation inside the winning bucket (lower edge 0
        for the first bucket — observations are assumed non-negative,
        which holds for every duration/size metric in this runtime).
        Targets resolving past the last finite bucket return its upper
        bound: the histogram cannot see further.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        running = 0
        lower = 0.0
        for bound, count in zip(self.buckets, self.counts):
            if count and target <= running + count:
                fraction = (target - running) / count
                return lower + fraction * (bound - lower)
            running += count
            lower = bound
        return self.buckets[-1]

    def state(self) -> dict:
        """JSON-ready snapshot of the histogram's observations.

        The cross-process sync path: shard workers ship this on their
        heartbeat/checkpoint messages and the supervisor adopts (or
        merges) it into the parent registry with :meth:`sync_state`.
        """
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "inf": self.inf_count,
            "sum": self.sum,
            "count": self.count,
        }

    def sync_state(self, state: dict) -> None:
        """Adopt an externally-maintained :meth:`state` wholesale.

        The histogram analogue of :meth:`Counter.sync` — a collector
        or supervisor mirroring a source-of-truth histogram (a worker
        subprocess's) replaces this child's observations with it.
        """
        if tuple(float(b) for b in state["buckets"]) != self.buckets:
            raise ValidationError(
                f"histogram bucket mismatch: have {self.buckets}, "
                f"state carries {tuple(state['buckets'])}"
            )
        self.counts = [int(c) for c in state["counts"]]
        self.inf_count = int(state["inf"])
        self.sum = float(state["sum"])
        self.count = int(state["count"])


def merge_histogram_states(base: dict | None, extra: dict | None) -> dict | None:
    """Sum two :meth:`Histogram.state` snapshots bucket-by-bucket.

    Supervisors accumulate across worker *lives*: each incarnation's
    local histograms restart at zero, so the parent folds the last
    state a dead worker shipped into a base and merges the live
    worker's state on top.  Either side may be ``None`` (no
    observations yet).
    """
    if base is None:
        return dict(extra) if extra is not None else None
    if extra is None:
        return dict(base)
    if list(base["buckets"]) != list(extra["buckets"]):
        raise ValidationError(
            "cannot merge histograms with different buckets: "
            f"{base['buckets']} vs {extra['buckets']}"
        )
    return {
        "buckets": list(base["buckets"]),
        "counts": [
            int(a) + int(b)
            for a, b in zip(base["counts"], extra["counts"])
        ],
        "inf": int(base["inf"]) + int(extra["inf"]),
        "sum": float(base["sum"]) + float(extra["sum"]),
        "count": int(base["count"]) + int(extra["count"]),
    }


class MetricFamily:
    """One named metric with a fixed label schema and typed children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        self.labelnames = _check_labels(labelnames)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: dict[tuple[str, ...], object] = {}

    def _make_child(self):
        if self.kind == KIND_COUNTER:
            return Counter()
        if self.kind == KIND_GAUGE:
            return Gauge()
        return Histogram(self._buckets or DEFAULT_LATENCY_BUCKETS)

    def labels(self, **labelvalues: str):
        """The child for this label-value combination (created lazily)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValidationError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[label]) for label in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _default_child(self):
        if self.labelnames:
            raise ValidationError(
                f"metric {self.name} is labeled {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    # Unlabeled convenience passthroughs -------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def sync(self, value: float) -> None:
        self._default_child().sync(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float | None:
        return self._default_child().quantile(q)

    @property
    def value(self) -> float:
        return self._default_child().value

    def children(self) -> Iterable[tuple[tuple[str, ...], object]]:
        """A point-in-time list of ``(label key, child)`` pairs.

        A *copy*, not a live view: the HTTP scrape endpoint iterates
        families from its own thread while ingest threads materialize
        new label children, and ``list(dict.items())`` is atomic under
        the GIL where iterating a growing view is not.
        """
        return list(self._children.items())


class MetricsRegistry:
    """Process-local registry of metric families plus a snapshot ring.

    Args:
        clock: monotonic time source stamped onto snapshots
            (injectable so tests stay deterministic).
        ring_capacity: snapshots retained by the in-memory time-series
            ring buffer.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        ring_capacity: int = 256,
    ) -> None:
        if ring_capacity < 1:
            raise ValidationError(
                f"ring_capacity must be >= 1, got {ring_capacity}"
            )
        self._clock = clock
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[[], None]] = []
        self._ring: deque[dict] = deque(maxlen=ring_capacity)

    # -- registration ---------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(labelnames):
                raise ValidationError(
                    f"metric {name} already registered as {existing.kind}"
                    f"{existing.labelnames}, cannot re-register as "
                    f"{kind}{tuple(labelnames)}"
                )
            return existing
        family = MetricFamily(name, kind, help_text, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, KIND_COUNTER, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, KIND_GAUGE, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._register(
            name, KIND_HISTOGRAM, help_text, labelnames, buckets
        )

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Add a callback syncing source-of-truth counters before reads."""
        self._collectors.append(collector)

    def sync_high_water(
        self, marks: dict, name: str, key: str, value, **labels
    ) -> None:
        """Delta-sync a source-of-truth cumulative counter into *name*.

        *marks* is the caller's ``key -> highest value synced`` dict.
        A source that restores from a checkpoint re-climbs through its
        replay, so a reported value may sit *below* the mark for a
        while; only the excess over the mark is new work.
        """
        value = float(value or 0)
        last = marks.get(key, 0.0)
        if value > last:
            self._families[name].labels(**labels).inc(value - last)
            marks[key] = value

    # -- reads ----------------------------------------------------------

    def collect(self) -> None:
        """Run every collector so the registry reflects live state."""
        for collector in self._collectors:
            collector()

    def families(self) -> list[MetricFamily]:
        return list(self._families.values())

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def value(self, name: str, **labelvalues: str) -> float:
        """One collected sample value (0.0 when the child never fired).

        The canonical read path for anything rendering a summary: the
        CLI's hit-rate and lines/s lines read here rather than keeping
        private arithmetic.
        """
        self.collect()
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(
            str(labelvalues[label]) for label in family.labelnames
            if label in labelvalues
        )
        if len(key) != len(family.labelnames):
            raise ValidationError(
                f"metric {name} takes labels {family.labelnames}"
            )
        child = dict(family.children()).get(key)
        if child is None:
            return 0.0
        if isinstance(child, Histogram):
            return float(child.count)
        return child.value

    def samples(self) -> dict[str, float]:
        """Flatten every child into ``name{label="v"} -> value``.

        Histograms contribute ``_sum``/``_count`` plus per-bucket
        cumulative samples, mirroring the exposition format.
        """
        self.collect()
        flat: dict[str, float] = {}
        for family in self._families.values():
            for key, child in family.children():
                labels = _label_suffix(family.labelnames, key)
                if isinstance(child, Histogram):
                    for bound, cumulative in child.cumulative():
                        le = "+Inf" if math.isinf(bound) else _format_value(bound)
                        flat[
                            f"{family.name}_bucket"
                            + _label_suffix(
                                family.labelnames + ("le",), key + (le,)
                            )
                        ] = float(cumulative)
                    flat[f"{family.name}_sum{labels}"] = child.sum
                    flat[f"{family.name}_count{labels}"] = float(child.count)
                else:
                    flat[f"{family.name}{labels}"] = child.value
        return flat

    # -- time series ----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture all samples now; append to the ring buffer."""
        entry = {"t": self._clock(), "samples": self.samples()}
        self._ring.append(entry)
        return entry

    def ring(self) -> list[dict]:
        """The retained snapshot time series, oldest first."""
        return list(self._ring)

    def series(self, sample_name: str) -> list[tuple[float, float]]:
        """``(t, value)`` trajectory of one flattened sample name."""
        return [
            (entry["t"], entry["samples"][sample_name])
            for entry in self._ring
            if sample_name in entry["samples"]
        ]


def _format_value(value: float) -> str:
    """Shortest faithful decimal rendering (Prometheus-style)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_suffix(labelnames: Sequence[str], key: Sequence[str]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{label}="{escape_label_value(value)}"'
        for label, value in zip(labelnames, key)
    )
    return "{" + inner + "}"
