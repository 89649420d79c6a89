"""Exporters: JSON-lines span dumps, Prometheus text, ASCII summaries.

Three consumers, three formats:

* machines replaying a single run read the **JSON-lines span dump** —
  one span per line, children linked to parents by id, so ``jq`` or a
  trace viewer can rebuild the tree;
* scrapers aggregating across runs read the **Prometheus text
  exposition format** (`# TYPE` comments, ``name{labels} value``
  samples, cumulative histogram buckets);
* humans at a terminal read the **ASCII summary** — a per-stage table
  in the same aligned style as :mod:`repro.workflow.report` with a
  ``#``-bar share column echoing :mod:`repro.workflow.asciiplot`.

All output is deterministic given the same spans/registry (insertion
order for spans, sorted order for metrics), which the golden-format
tests pin down.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterator, List, Sequence

from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.tracer import Span

__all__ = [
    "span_records",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "telemetry_to_jsonl",
    "write_telemetry_jsonl",
    "prometheus_text",
    "write_metrics_prom",
    "trace_summary",
]


# ----------------------------------------------------------------------
# JSON-lines span dump
# ----------------------------------------------------------------------

def span_records(spans: Sequence[Span]) -> Iterator[Dict[str, object]]:
    """Flatten span trees into per-span dicts with id/parent links.

    Ids number spans in pre-order across all roots (roots have
    ``parent: null``), so the tree is reconstructible and the dump is
    stable for golden tests.
    """
    next_id = 0

    def emit(span: Span, parent: "int | None") -> Iterator[Dict[str, object]]:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        yield {
            "id": span_id,
            "parent": parent,
            "name": span.name,
            "start_s": round(span.start_s, 9),
            "dur_s": round(span.duration_s, 9),
            "status": span.status,
            "attrs": span.attrs,
        }
        for child in span.children:
            yield from emit(child, span_id)

    for root in spans:
        yield from emit(root, None)


def spans_to_jsonl(spans: Sequence[Span]) -> str:
    """One compact JSON object per line; empty string for no spans."""
    return "".join(
        json.dumps(rec, sort_keys=True, default=str) + "\n"
        for rec in span_records(spans)
    )


def write_spans_jsonl(path: str, spans: Sequence[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spans_to_jsonl(spans))


# ----------------------------------------------------------------------
# JSON-lines telemetry dump
# ----------------------------------------------------------------------

def telemetry_to_jsonl(records: Sequence[Dict[str, object]]) -> str:
    """One compact JSON object per telemetry sample, publish order.

    Records are the plain dicts a
    :class:`repro.governor.telemetry.TelemetryBus` emits
    (``to_records()``); the format matches the span
    dump so the same tooling consumes both.
    """
    return "".join(
        json.dumps(rec, sort_keys=True, default=str) + "\n" for rec in records
    )


def write_telemetry_jsonl(path: str, records: Sequence[Dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(telemetry_to_jsonl(records))


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------

def _format_number(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every metric in the Prometheus text exposition format."""
    lines: List[str] = []
    seen_headers = set()
    for metric in registry.metrics():
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for bound, cumulative in metric.cumulative_counts():
                label_items = metric.labels + (("le", _format_number(bound)),)
                inner = ",".join(f'{k}="{v}"' for k, v in label_items)
                lines.append(f"{metric.name}_bucket{{{inner}}} {cumulative}")
            lines.append(
                f"{metric.name}_sum{metric.label_suffix} "
                f"{_format_number(metric.sum)}"
            )
            lines.append(
                f"{metric.name}_count{metric.label_suffix} {metric.count}"
            )
        else:
            lines.append(
                f"{metric.name}{metric.label_suffix} "
                f"{_format_number(metric.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_prom(path: str, registry: MetricsRegistry) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(registry))


# ----------------------------------------------------------------------
# ASCII summary table
# ----------------------------------------------------------------------

def _aggregate(spans: Sequence[Span]):
    """Per-name totals over all spans: calls, seconds, bytes, errors."""
    order: List[str] = []
    totals: Dict[str, Dict[str, float]] = {}
    for root in spans:
        for span, _depth in root.walk():
            agg = totals.get(span.name)
            if agg is None:
                order.append(span.name)
                agg = totals[span.name] = {
                    "calls": 0, "seconds": 0.0, "bytes_in": 0.0, "errors": 0,
                }
            agg["calls"] += 1
            agg["seconds"] += span.duration_s
            agg["bytes_in"] += float(span.attrs.get("bytes_in", 0) or 0)
            if span.status != "ok":
                agg["errors"] += 1
    return order, totals


def trace_summary(spans: Sequence[Span], width: int = 24) -> str:
    """Aggregate spans by name into an aligned table with share bars.

    The share column compares each stage against the total time of the
    *root* spans (the run's wall time), so nested stages read as a
    flame-graph profile: bars of children sum to at most their parent's.
    """
    if not spans:
        return "(no spans recorded)"
    order, totals = _aggregate(spans)
    root_seconds = sum(s.duration_s for s in spans) or 1e-12

    rows = []
    for name in sorted(order, key=lambda n: -totals[n]["seconds"]):
        agg = totals[name]
        share = min(agg["seconds"] / root_seconds, 1.0)
        bar = "#" * max(int(round(share * width)), 1 if agg["seconds"] else 0)
        rows.append(
            (
                name,
                str(int(agg["calls"])),
                f"{agg['seconds']:.4f}",
                f"{agg['bytes_in'] / 1e6:.1f}",
                str(int(agg["errors"])),
                f"{bar} {share:5.1%}",
            )
        )
    header = ("span", "calls", "total_s", "mb_in", "errors", "share_of_run")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    lines = ["trace summary"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
