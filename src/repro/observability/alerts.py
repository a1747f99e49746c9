"""Alert rules over the live registry: thresholds and burn rates.

The telemetry plane's decision layer.  An :class:`AlertEngine` holds a
small set of rules, re-evaluates them against the metrics registry on
a clock-injectable ticker, and turns state *transitions* — a rule
starting or stopping to fire — into :class:`AlertEvent` records.
Events land in two places: the run's shared event timeline (so
post-mortems interleave alerts with restarts and ladder steps) and an
optional dedicated alert log with the same durability contract as
quarantine — length+CRC32-framed JSONL via
:class:`~repro.observability.events.EventLog`'s durable writer, so a
crash mid-append recovers to the last complete alert instead of a torn
tail.

Two rule shapes cover the service's SLOs:

* :class:`ThresholdRule` — classic "metric over limit for N seconds",
  evaluated per label child (each tenant alerts independently).  Used
  for worker heartbeat stalls and queue floods.
* :class:`BurnRateRule` — Google-SRE-style multi-window error-budget
  burn.  Over a sliding window the rule tracks an error counter
  against a total counter; the *burn rate* is the observed error
  ratio divided by the budget the SLO objective leaves
  (``(Δerr/Δtotal) / (1 - objective)``).  The rule fires only when
  **both** a fast and a slow window burn faster than ``factor`` — the
  fast window makes detection quick, the slow window stops a brief
  blip from paging.  The rule also publishes
  ``repro_tenant_error_budget_remaining`` per tenant: the fraction of
  the slow window's error budget still unspent.

Everything is deterministic under an injected clock: tests drive
``tick()`` by hand with a fake clock and assert exact transitions.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.observability.events import EventLog
from repro.observability.metrics import Histogram, MetricsRegistry

#: Alert lifecycle states.
STATE_FIRING = "firing"
STATE_RESOLVED = "resolved"

#: Severities (labels on the alert, not behavior — there is no pager
#: here, only the durable record that one would have fired).
SEV_WARN = "warn"
SEV_PAGE = "page"

#: Comparison operators ThresholdRule accepts.
_OPS = {
    ">": lambda value, limit: value > limit,
    ">=": lambda value, limit: value >= limit,
    "<": lambda value, limit: value < limit,
    "<=": lambda value, limit: value <= limit,
}


@dataclass(frozen=True)
class AlertEvent:
    """One alert state transition, JSON-ready.

    ``state`` is ``firing`` on the breach transition and ``resolved``
    when the rule stops firing for the same label set.
    """

    rule: str
    state: str
    severity: str
    labels: dict
    value: float
    threshold: float
    detail: str
    at: float

    def to_record(self) -> dict:
        return {
            "kind": "alert",
            "rule": self.rule,
            "state": self.state,
            "severity": self.severity,
            "labels": dict(self.labels),
            "value": round(float(self.value), 6),
            "threshold": float(self.threshold),
            "detail": self.detail,
            "at": round(float(self.at), 6),
        }


@dataclass
class RuleResult:
    """One label set's evaluation: current value + firing verdict."""

    labels: dict
    value: float
    firing: bool
    budget_remaining: float | None = None


def _series(registry: MetricsRegistry, name: str) -> tuple[dict, tuple]:
    """``{label-key tuple: value}`` for one family (histogram → count)."""
    family = registry.get(name)
    if family is None:
        return {}, ()
    out = {}
    for key, child in family.children():
        if isinstance(child, Histogram):
            out[key] = float(child.count)
        else:
            out[key] = float(child.value)
    return out, family.labelnames


class ThresholdRule:
    """Fire when a metric child compares true against a limit.

    Args:
        name: rule name (the ``rule`` field of emitted events).
        metric: family name; every label child is evaluated
            independently.
        threshold / op: the comparison, e.g. ``value > 5.0``.
        for_seconds: the breach must hold continuously this long
            before the rule fires (0 = fire on first sight).
        severity: tag copied onto emitted events.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        *,
        threshold: float,
        op: str = ">",
        for_seconds: float = 0.0,
        severity: str = SEV_WARN,
    ) -> None:
        if op not in _OPS:
            raise ValidationError(
                f"unknown op {op!r} (expected one of {sorted(_OPS)})"
            )
        if for_seconds < 0:
            raise ValidationError(
                f"for_seconds must be >= 0, got {for_seconds}"
            )
        self.name = name
        self.metric = metric
        self.threshold = float(threshold)
        self.op = op
        self.for_seconds = float(for_seconds)
        self.severity = severity
        self._breached_since: dict[tuple, float] = {}

    def describe(self, value: float) -> str:
        return (
            f"{self.metric} = {value:g} {self.op} {self.threshold:g} "
            f"for >= {self.for_seconds:g}s"
        )

    def evaluate(
        self, registry: MetricsRegistry, now: float
    ) -> list[RuleResult]:
        series, labelnames = _series(registry, self.metric)
        compare = _OPS[self.op]
        results = []
        for key, value in sorted(series.items()):
            if compare(value, self.threshold):
                since = self._breached_since.setdefault(key, now)
                firing = (now - since) >= self.for_seconds
            else:
                self._breached_since.pop(key, None)
                firing = False
            results.append(
                RuleResult(dict(zip(labelnames, key)), value, firing)
            )
        return results


class BurnRateRule:
    """Multi-window error-budget burn rate over two counter families.

    Args:
        name: rule name.
        numerator: counter family of *bad* events (e.g. quarantined
            records per tenant).
        denominator: counter family — or tuple of families, summed —
            of *all* events the objective is defined over.  Label sets
            are matched across families; a family missing a label set
            contributes 0.
        objective: SLO success ratio (0.99 = 1% error budget).
        fast_window / slow_window: sliding windows in seconds; both
            must burn at or above *factor* to fire.
        factor: burn-rate multiple that fires the alert (1.0 = budget
            spent exactly at the sustainable rate).
    """

    def __init__(
        self,
        name: str,
        numerator: str,
        denominator: str | Sequence[str],
        *,
        objective: float = 0.99,
        fast_window: float = 60.0,
        slow_window: float = 300.0,
        factor: float = 2.0,
        severity: str = SEV_PAGE,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValidationError(
                f"objective must be in (0, 1), got {objective}"
            )
        if fast_window <= 0 or slow_window <= 0:
            raise ValidationError("windows must be positive")
        if fast_window > slow_window:
            raise ValidationError(
                f"fast window ({fast_window}s) must not exceed the "
                f"slow window ({slow_window}s)"
            )
        self.name = name
        self.numerator = numerator
        self.denominators = (
            (denominator,) if isinstance(denominator, str)
            else tuple(denominator)
        )
        self.objective = float(objective)
        self.fast_window = float(fast_window)
        self.slow_window = float(slow_window)
        self.factor = float(factor)
        self.severity = severity
        self.threshold = self.factor
        self._windows: dict[tuple, deque] = {}

    def describe(self, value: float) -> str:
        return (
            f"error-budget burn {value:.2f}x >= {self.factor:g}x over "
            f"both {self.fast_window:g}s and {self.slow_window:g}s "
            f"windows (objective {self.objective})"
        )

    def _burn(self, window: deque, horizon: float, now: float) -> float:
        """Burn rate over ``[now - horizon, now]`` from the sample log."""
        latest_t, latest_num, latest_den = window[-1]
        base_num = base_den = None
        for t, num, den in window:
            if t >= now - horizon:
                base_num, base_den = num, den
                break
        if base_num is None or latest_t <= now - horizon:
            return 0.0
        delta_den = latest_den - base_den
        if delta_den <= 0:
            return 0.0
        ratio = max(0.0, latest_num - base_num) / delta_den
        return ratio / (1.0 - self.objective)

    def evaluate(
        self, registry: MetricsRegistry, now: float
    ) -> list[RuleResult]:
        num_series, num_labels = _series(registry, self.numerator)
        den_series: dict[tuple, float] = {}
        den_labels: tuple = num_labels
        for family in self.denominators:
            series, labels = _series(registry, family)
            if labels:
                den_labels = labels
            for key, value in series.items():
                den_series[key] = den_series.get(key, 0.0) + value
        labelnames = den_labels or num_labels
        results = []
        for key in sorted(set(num_series) | set(den_series)):
            num = num_series.get(key, 0.0)
            den = den_series.get(key, 0.0)
            window = self._windows.setdefault(
                key, deque()
            )
            window.append((now, num, den))
            while window and window[0][0] < now - self.slow_window:
                window.popleft()
            fast = self._burn(window, self.fast_window, now)
            slow = self._burn(window, self.slow_window, now)
            firing = fast >= self.factor and slow >= self.factor
            results.append(
                RuleResult(
                    dict(zip(labelnames, key)),
                    fast,
                    firing,
                    budget_remaining=max(0.0, 1.0 - slow),
                )
            )
        return results


class AlertEngine:
    """Evaluate rules on a ticker; persist every state transition.

    Args:
        registry: the metrics registry rules read (collectors run on
            every tick, so rules always see live values).
        rules: the rule set; :func:`default_rules` builds the
            service's standard one.
        clock: injectable monotonic time source.
        events: optional shared run timeline
            (:class:`~repro.observability.events.EventLog`) alerts are
            mirrored into.
        log_path: optional dedicated durable alert log (framed JSONL
            with torn-tail recovery on reopen); read back with
            :func:`load_alerts`.
        io: durability IO seam for the alert log.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        rules: Sequence[object],
        *,
        clock: Callable[[], float] = time.monotonic,
        events: EventLog | None = None,
        log_path: str | None = None,
        io=None,
    ) -> None:
        self.registry = registry
        self.rules = list(rules)
        self._clock = clock
        self._events = events
        self._log = (
            EventLog(clock=clock, path=log_path, io=io)
            if log_path is not None
            else None
        )
        self._active: dict[tuple, AlertEvent] = {}
        self._lock = threading.Lock()
        self._ticker: threading.Thread | None = None
        self._ticker_stop = threading.Event()
        self._alerts_total = registry.counter(
            "repro_alerts_total",
            "Alert state transitions by rule",
            labelnames=("rule", "state"),
        )
        self._alerts_active = registry.gauge(
            "repro_alerts_active", "Alert instances currently firing"
        )
        self._budget_gauge = registry.gauge(
            "repro_tenant_error_budget_remaining",
            "Fraction of the SLO error budget left in the slow window",
            labelnames=("tenant",),
        )

    # -- evaluation ----------------------------------------------------

    def tick(self) -> list[AlertEvent]:
        """Evaluate every rule once; returns the transitions emitted."""
        now = self._clock()
        self.registry.collect()
        emitted: list[AlertEvent] = []
        with self._lock:
            for rule in self.rules:
                for result in rule.evaluate(self.registry, now):
                    key = (
                        rule.name,
                        tuple(sorted(result.labels.items())),
                    )
                    if result.budget_remaining is not None and (
                        "tenant" in result.labels
                    ):
                        self._budget_gauge.labels(
                            tenant=result.labels["tenant"]
                        ).set(result.budget_remaining)
                    if result.firing and key not in self._active:
                        event = AlertEvent(
                            rule=rule.name,
                            state=STATE_FIRING,
                            severity=rule.severity,
                            labels=result.labels,
                            value=result.value,
                            threshold=rule.threshold,
                            detail=rule.describe(result.value),
                            at=now,
                        )
                        self._active[key] = event
                        self._persist(event)
                        emitted.append(event)
                    elif not result.firing and key in self._active:
                        del self._active[key]
                        event = AlertEvent(
                            rule=rule.name,
                            state=STATE_RESOLVED,
                            severity=rule.severity,
                            labels=result.labels,
                            value=result.value,
                            threshold=rule.threshold,
                            detail=rule.describe(result.value),
                            at=now,
                        )
                        self._persist(event)
                        emitted.append(event)
            self._alerts_active.set(float(len(self._active)))
        return emitted

    def _persist(self, event: AlertEvent) -> None:
        self._alerts_total.labels(rule=event.rule, state=event.state).inc()
        if self._log is not None:
            self._log.record(event)
        if self._events is not None:
            self._events.record(event)

    def active(self) -> list[dict]:
        """Currently-firing alerts, JSON-ready (served by ``/status``)."""
        with self._lock:
            return [
                event.to_record()
                for _, event in sorted(self._active.items())
            ]

    # -- ticker --------------------------------------------------------

    def start_ticker(self, interval: float) -> None:
        """Evaluate every *interval* seconds on a daemon thread."""
        if interval <= 0:
            raise ValidationError(
                f"alert interval must be positive, got {interval}"
            )
        if self._ticker is not None:
            raise ValidationError("alert ticker already running")
        self._ticker_stop.clear()

        def _loop() -> None:
            while not self._ticker_stop.wait(interval):
                self.tick()

        self._ticker = threading.Thread(
            target=_loop, name="alert-ticker", daemon=True
        )
        self._ticker.start()

    def close(self) -> None:
        """Stop the ticker (if any) and seal the alert log."""
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=5.0)
            self._ticker = None
        if self._log is not None:
            self._log.close()

    def __enter__(self) -> "AlertEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def default_rules(
    *,
    objective: float = 0.99,
    heartbeat_stall: float = 5.0,
    fast_window: float = 60.0,
    slow_window: float = 300.0,
    factor: float = 2.0,
) -> list:
    """The service's standard rule set.

    * a heartbeat-stall threshold per worker (a supervisor that has
      not heard from a worker in *heartbeat_stall* seconds — the
      watchdog will act, but the alert records that it had to);
    * a per-tenant error-budget burn rate: quarantined records against
      everything the shard ingested (parsed + quarantined), burning
      against *objective*.
    """
    return [
        ThresholdRule(
            "worker-heartbeat-stall",
            "repro_worker_heartbeat_age_seconds",
            threshold=heartbeat_stall,
            op=">",
            severity=SEV_WARN,
        ),
        BurnRateRule(
            "tenant-error-budget-burn",
            "repro_tenant_quarantined_total",
            (
                "repro_tenant_lines_total",
                "repro_tenant_quarantined_total",
            ),
            objective=objective,
            fast_window=fast_window,
            slow_window=slow_window,
            factor=factor,
            severity=SEV_PAGE,
        ),
    ]


def load_alerts(path: str, io=None) -> list[dict]:
    """Read back a durable alert log, once, through its writer's
    recovery, which truncates a torn tail as quarantine's does."""
    from repro.resilience.durability import DurableJsonlWriter

    return [
        event for event in DurableJsonlWriter(path, io=io).recover()
        if event.get("kind") == "alert"
    ]
