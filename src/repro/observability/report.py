"""Run summaries rendered from telemetry, not from scattered arithmetic.

Two layers live here:

* :func:`format_stream_summary` — the one formatter behind every
  "N lines | hit rate | lines/s" line the CLI prints.  ``stream``,
  ``supervise``, and ``soak`` all call it (directly or through
  ``SessionCounters.describe``), so their summaries can no longer
  drift apart, and :func:`summary_from_registry` derives the same line
  purely from :class:`~repro.observability.metrics.MetricsRegistry`
  samples — proof the registry carries everything the human summary
  needs.
* :func:`render_run_report` — the ``repro report`` subcommand's
  renderer: given exported metrics / trace / event files it produces a
  readable post-mortem of a run (throughput, cache behaviour, flush
  latency quantiles, span tree, event timeline).
"""

from __future__ import annotations

import json
import math

from repro.common.errors import DatasetError, ValidationError
from repro.observability.events import load_events
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.tracing import Span, load_jsonl_spans


def format_stream_summary(
    lines: int,
    events: int,
    exact_hits: int,
    template_hits: int,
    misses: int,
    flushes: int,
    lines_per_second: float,
    rejected: int = 0,
    shed: int = 0,
) -> str:
    """The canonical one-line stream summary.

    The hit rate is hits over cache *lookups* (hits + misses), matching
    ``StreamingCounters.hit_rate`` — flush retries re-probe the cache,
    so lookups and lines are not the same denominator.
    """
    seen = exact_hits + template_hits + misses
    hit_rate = (exact_hits + template_hits) / seen if seen else 0.0
    line = (
        f"{lines} lines | {events} events | "
        f"hit rate {hit_rate:.1%} ({exact_hits} exact, "
        f"{template_hits} template) | {flushes} flushes | "
        f"{lines_per_second:,.0f} lines/s"
    )
    if rejected:
        line += f" | {rejected} rejected"
    if shed:
        line += f" | {shed} shed"
    return line


def summary_from_registry(registry: MetricsRegistry) -> str:
    """The same summary line, read entirely from the registry."""
    lines = registry.value("repro_stream_lines_total")
    elapsed = registry.value("repro_run_elapsed_seconds")
    return format_stream_summary(
        lines=int(lines),
        events=int(registry.value("repro_stream_events")),
        exact_hits=int(registry.value("repro_cache_hits_total", kind="exact")),
        template_hits=int(
            registry.value("repro_cache_hits_total", kind="template")
        ),
        misses=int(registry.value("repro_cache_misses_total")),
        flushes=int(registry.value("repro_stream_flushes_total")),
        lines_per_second=lines / elapsed if elapsed > 0 else 0.0,
        rejected=int(registry.value("repro_stream_rejected_total")),
        shed=int(registry.value("repro_stream_shed_total")),
    )


# ---------------------------------------------------------------------------
# `repro report`: post-mortem rendering of exported artifacts
# ---------------------------------------------------------------------------


def _load_metric_samples(path: str) -> dict[str, float]:
    """Samples from either exporter format (.json snapshot or .prom)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".json"):
        return dict(json.loads(text)["samples"])
    from repro.observability.exporters import parse_prometheus

    return dict(parse_prometheus(text)["samples"])


def _sample(samples: dict[str, float], name: str, default: float = 0.0) -> float:
    return samples.get(name, default)


def _histogram_quantiles(
    samples: dict[str, float], name: str, quantiles=(0.5, 0.9, 0.99)
) -> list[tuple[float, float]] | None:
    """Rebuild a (label-less) histogram from flat samples and query it."""
    prefix = f"{name}_bucket{{le=\""
    buckets: list[tuple[float, float]] = []
    for sample, value in samples.items():
        if sample.startswith(prefix):
            le_text = sample[len(prefix):].split('"', 1)[0]
            le = math.inf if le_text == "+Inf" else float(le_text)
            buckets.append((le, value))
    if not buckets:
        return None
    buckets.sort(key=lambda pair: pair[0])
    finite = [bound for bound, _ in buckets if not math.isinf(bound)]
    if not finite:
        return None
    histogram = Histogram(finite)
    previous = 0.0
    for index, (bound, cumulative) in enumerate(buckets):
        delta = int(cumulative - previous)
        previous = cumulative
        if math.isinf(bound):
            histogram.inf_count = delta
        else:
            histogram.counts[index] = delta
    histogram.count = int(buckets[-1][1])
    histogram.sum = _sample(samples, f"{name}_sum")
    if histogram.count == 0:
        return []
    return [(q, histogram.quantile(q)) for q in quantiles]


def _render_metrics_section(path: str) -> list[str]:
    samples = _load_metric_samples(path)
    lines_total = _sample(samples, "repro_stream_lines_total")
    elapsed = _sample(samples, "repro_run_elapsed_seconds")
    exact = _sample(samples, 'repro_cache_hits_total{kind="exact"}')
    template = _sample(samples, 'repro_cache_hits_total{kind="template"}')
    misses = _sample(samples, "repro_cache_misses_total")
    seen = exact + template + misses
    out = ["## Throughput"]
    rate = lines_total / elapsed if elapsed > 0 else 0.0
    out.append(
        f"  {int(lines_total)} lines in {elapsed:.2f}s "
        f"({rate:,.0f} lines/s), "
        f"{int(_sample(samples, 'repro_stream_events'))} events, "
        f"{int(_sample(samples, 'repro_stream_flushes_total'))} flushes"
    )
    out.append("## Cache")
    hit_rate = (exact + template) / seen if seen else 0.0
    out.append(
        f"  hit rate {hit_rate:.1%} ({int(exact)} exact, "
        f"{int(template)} template, {int(misses)} misses), "
        f"{int(_sample(samples, 'repro_cache_evictions_total'))} evictions"
    )
    quantiles = _histogram_quantiles(samples, "repro_stream_flush_seconds")
    if quantiles:
        rendered = ", ".join(
            f"p{int(q * 100)}={value * 1000:.1f}ms" for q, value in quantiles
        )
        out.append("## Flush latency")
        out.append(f"  {rendered}")
    interesting = {
        "repro_stream_outliers_total": "outliers",
        "repro_stream_rejected_total": "rejected",
        "repro_stream_shed_total": "shed",
        "repro_ladder_position": "final ladder rung index",
    }
    extras = [
        f"{label}: {int(samples[name])}"
        for name, label in interesting.items()
        if samples.get(name)
    ]
    quarantined = sum(
        value
        for sample, value in samples.items()
        if sample.startswith("repro_quarantine_records_total")
    )
    if quarantined:
        extras.append(f"quarantined: {int(quarantined)}")
    if extras:
        out.append("## Incidents")
        out.append("  " + ", ".join(extras))
    out.extend(_render_shard_section(samples))
    out.extend(_render_delivery_section(samples))
    return out


def _render_delivery_section(samples: dict[str, float]) -> list[str]:
    """Exactly-once delivery summary (protocol-v2 runs only)."""
    acked = _sample(samples, "repro_delivery_acked_total")
    resends = _sample(samples, "repro_delivery_resend_total")
    spool = _sample(samples, "repro_delivery_spool_depth")
    suppressed: dict[str, int] = {}
    prefix = "repro_delivery_duplicates_suppressed_total{"
    for sample, value in samples.items():
        if sample.startswith(prefix) and value:
            tenant = (
                sample[len(prefix):-1].replace('"', "").split("=", 1)[1]
            )
            suppressed[tenant] = int(value)
    if not acked and not resends and not suppressed:
        return []
    out = ["## Delivery"]
    out.append(
        f"  {int(acked)} ack frame(s) sent, {int(resends)} resend(s), "
        f"spool depth {int(spool)}"
    )
    if suppressed:
        detail = ", ".join(
            f"{tenant}: {count}"
            for tenant, count in sorted(suppressed.items())
        )
        out.append(f"  duplicates suppressed — {detail}")
    return out


def _render_shard_section(samples: dict[str, float]) -> list[str]:
    """Supervisor lifecycle summary (process-isolated runs only)."""
    restarts: dict[str, dict[str, int]] = {}
    poison: dict[str, int] = {}
    for sample, value in samples.items():
        if sample.startswith("repro_shard_restarts_total{") and value:
            labels = dict(
                part.split("=", 1)
                for part in sample[len("repro_shard_restarts_total{") : -1]
                .replace('"', "")
                .split(",")
            )
            tenant = labels.get("tenant", "?")
            restarts.setdefault(tenant, {})[
                labels.get("status", "?")
            ] = int(value)
        elif sample.startswith("repro_shard_poison_records_total{") and value:
            tenant = (
                sample[len("repro_shard_poison_records_total{") : -1]
                .replace('"', "")
                .split("=", 1)[1]
            )
            poison[tenant] = int(value)
    if not restarts and not poison:
        return []
    out = ["## Shards"]
    for tenant in sorted(set(restarts) | set(poison)):
        parts = []
        statuses = restarts.get(tenant, {})
        if statuses:
            total = sum(statuses.values())
            detail = ", ".join(
                f"{count} {status}"
                for status, count in sorted(statuses.items())
            )
            parts.append(f"{total} restart(s) ({detail})")
        if tenant in poison:
            parts.append(f"{poison[tenant]} poison record(s)")
        out.append(f"  {tenant}: " + ", ".join(parts))
    return out


def _render_span_tree(spans: list[Span], max_children: int = 8) -> list[str]:
    by_parent: dict[str | None, list[Span]] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: (s.start_us, s.span_id))
    out: list[str] = []

    def walk(parent: str | None, depth: int) -> None:
        children = by_parent.get(parent, [])
        for index, span in enumerate(children):
            if index == max_children:
                out.append(
                    "  " + "  " * depth
                    + f"... {len(children) - max_children} more {span.name} "
                    "siblings elided"
                )
                break
            duration = span.duration_us or 0
            out.append(
                "  " + "  " * depth
                + f"{span.name} [{span.span_id}] {duration / 1000:.2f}ms"
            )
            walk(span.span_id, depth + 1)

    walk(None, 0)
    return out


def _render_trace_section(path: str) -> list[str]:
    spans = load_jsonl_spans(path)
    out = [f"## Trace ({len(spans)} spans)"]
    out.extend(_render_span_tree(spans))
    return out


def _render_events_section(path: str, limit: int = 20) -> list[str]:
    events = load_events(path)
    out = [f"## Timeline ({len(events)} events)"]
    shown = events if len(events) <= limit else events[-limit:]
    if len(events) > limit:
        out.append(f"  ... {len(events) - limit} earlier events elided")
    for event in shown:
        payload = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "t", "kind")
        }
        rendered = ", ".join(f"{k}={v}" for k, v in payload.items())
        out.append(f"  [{event['t']:9.3f}s] {event['kind']}: {rendered}")
    return out


def render_run_report(
    metrics_path: str | None = None,
    trace_path: str | None = None,
    events_path: str | None = None,
) -> str:
    """Human-readable report assembled from exported run artifacts."""
    if not any((metrics_path, trace_path, events_path)):
        raise ValidationError(
            "report needs at least one of --metrics/--trace/--events"
        )
    sections: list[str] = ["# Run report"]
    try:
        if metrics_path:
            sections.extend(_render_metrics_section(metrics_path))
        if trace_path:
            sections.extend(_render_trace_section(trace_path))
        if events_path:
            sections.extend(_render_events_section(events_path))
    except OSError as error:
        raise DatasetError(f"could not read run artifact: {error}") from error
    return "\n".join(sections) + "\n"
