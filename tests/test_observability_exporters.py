"""Golden-format tests for the JSON-lines and Prometheus exporters."""

import json

from repro.observability import (
    MetricsRegistry,
    Span,
    Tracer,
    prometheus_text,
    span_records,
    spans_to_jsonl,
    trace_summary,
    write_metrics_prom,
    write_spans_jsonl,
)


def _sample_spans():
    root = Span(name="dump", start_s=0.0, end_s=1.0, attrs={"codec": "sz"})
    child = Span(
        name="dump.ratio", start_s=0.125, end_s=0.625,
        attrs={"bytes_in": 4096, "ratio": 2.0},
    )
    failed = Span(
        name="dump.write", start_s=0.75, end_s=0.875, status="error",
        attrs={"error": "OSError: disk full"},
    )
    root.children.extend([child, failed])
    return (root,)


def test_jsonl_golden():
    text = spans_to_jsonl(_sample_spans())
    assert text == (
        '{"attrs": {"codec": "sz"}, "dur_s": 1.0, "id": 0, "name": "dump", '
        '"parent": null, "start_s": 0.0, "status": "ok"}\n'
        '{"attrs": {"bytes_in": 4096, "ratio": 2.0}, "dur_s": 0.5, "id": 1, '
        '"name": "dump.ratio", "parent": 0, "start_s": 0.125, "status": "ok"}\n'
        '{"attrs": {"error": "OSError: disk full"}, "dur_s": 0.125, "id": 2, '
        '"name": "dump.write", "parent": 0, "start_s": 0.75, "status": "error"}\n'
    )


def test_jsonl_lines_parse_and_link():
    lines = spans_to_jsonl(_sample_spans()).splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 3
    by_id = {r["id"]: r for r in records}
    assert by_id[1]["parent"] == 0
    assert by_id[2]["parent"] == 0
    assert by_id[0]["parent"] is None
    # Tree invariant: children start after and end before the parent.
    for r in records[1:]:
        parent = by_id[r["parent"]]
        assert r["start_s"] >= parent["start_s"]
        assert r["start_s"] + r["dur_s"] <= parent["start_s"] + parent["dur_s"]


def test_jsonl_ids_are_preorder_across_roots():
    roots = (_sample_spans()[0], Span(name="second", start_s=2.0, end_s=3.0))
    ids = [r["id"] for r in span_records(roots)]
    names = [r["name"] for r in span_records(roots)]
    assert ids == [0, 1, 2, 3]
    assert names == ["dump", "dump.ratio", "dump.write", "second"]


def test_jsonl_empty():
    assert spans_to_jsonl(()) == ""


def test_write_spans_jsonl_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_spans_jsonl(str(path), _sample_spans())
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == ["dump", "dump.ratio", "dump.write"]


def _sample_registry():
    reg = MetricsRegistry()
    reg.counter(
        "repro_bytes_total", {"codec": "sz"}, help="bytes processed"
    ).inc(2048)
    reg.counter("repro_bytes_total", {"codec": "zfp"}).inc(1024)
    reg.gauge("repro_ratio").set(3.25)
    hist = reg.histogram("repro_slab_seconds", buckets=(0.01, 0.1))
    hist.observe(0.005)
    hist.observe(0.05)
    hist.observe(7.0)
    return reg


def test_prometheus_golden():
    assert prometheus_text(_sample_registry()) == (
        "# HELP repro_bytes_total bytes processed\n"
        "# TYPE repro_bytes_total counter\n"
        'repro_bytes_total{codec="sz"} 2048\n'
        'repro_bytes_total{codec="zfp"} 1024\n'
        "# TYPE repro_ratio gauge\n"
        "repro_ratio 3.25\n"
        "# TYPE repro_slab_seconds histogram\n"
        'repro_slab_seconds_bucket{le="0.01"} 1\n'
        'repro_slab_seconds_bucket{le="0.1"} 2\n'
        'repro_slab_seconds_bucket{le="+Inf"} 3\n'
        "repro_slab_seconds_sum 7.055\n"
        "repro_slab_seconds_count 3\n"
    )


def test_prometheus_parseable_line_shapes():
    """Every non-comment line is `name{labels} value` or `name value`."""
    import re

    sample_re = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
        r"(\{[a-zA-Z_][a-zA-Z0-9_]*="          # optional label block
        r'"[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r" [^ ]+$"                              # single value
    )
    for line in prometheus_text(_sample_registry()).splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
        else:
            assert sample_re.match(line), line


def test_prometheus_empty_registry():
    assert prometheus_text(MetricsRegistry()) == ""


def test_write_metrics_prom(tmp_path):
    path = tmp_path / "metrics.prom"
    write_metrics_prom(str(path), _sample_registry())
    assert path.read_text().endswith("repro_slab_seconds_count 3\n")


def test_trace_summary_aggregates_and_orders():
    text = trace_summary(_sample_spans())
    lines = text.splitlines()
    assert lines[0] == "trace summary"
    assert lines[1].split() == [
        "span", "calls", "total_s", "mb_in", "errors", "share_of_run",
    ]
    # Sorted by total seconds, root first; the failed span shows errors=1.
    assert lines[3].startswith("dump ")
    body = "\n".join(lines[3:])
    assert "dump.write" in body
    row = next(line for line in lines if line.startswith("dump.write"))
    assert row.split()[4] == "1"  # errors column
    assert "#" in row and "%" in row


def test_trace_summary_empty():
    assert trace_summary(()) == "(no spans recorded)"


def test_trace_summary_from_live_tracer():
    tracer = Tracer()
    with tracer.span("root", bytes_in=10 * 1000 * 1000):
        with tracer.span("leaf"):
            pass
    text = trace_summary(tracer.spans)
    row = next(line for line in text.splitlines() if line.startswith("root"))
    assert row.split()[3] == "10.0"  # mb_in column
