"""Exporter tests: JSONL roundtrip and Prometheus text exposition."""

import json

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span
from repro.obs.export import (
    dump_trace_jsonl,
    load_trace_jsonl,
    prometheus_text,
    trace_jsonl_lines,
)


def sample_records():
    root = Span(1, None, "op.write", 0.5, {"oid": "x"})
    child = Span(2, root, "tier.commit", 1.0, {"pg": 3})
    child.end, root.end = 1.5, 2.0
    return [root.to_record(), child.to_record()]


def test_jsonl_roundtrip(tmp_path):
    records = sample_records()
    path = str(tmp_path / "trace.jsonl")
    count = dump_trace_jsonl(records, path)
    assert count == 2
    assert load_trace_jsonl(path) == records


def test_jsonl_lines_are_compact_and_key_sorted():
    lines = trace_jsonl_lines(sample_records())
    for line in lines:
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)
        assert ": " not in line  # compact separators
    # Records keep span start order: root first.
    assert json.loads(lines[0])["parent_id"] is None


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('\n{"span_id": 1}\n\n{"span_id": 2}\n')
    assert [r["span_id"] for r in load_trace_jsonl(str(path))] == [1, 2]


def test_prometheus_text_families_and_samples():
    reg = MetricsRegistry()
    reg.counter("repro_ops_total", "Total ops", labels=("op",)).labels(
        op="write"
    ).inc(3)
    reg.gauge("repro_depth", "Queue depth").set(2.5)
    text = prometheus_text(reg)
    assert "# HELP repro_ops_total Total ops" in text
    assert "# TYPE repro_ops_total counter" in text
    assert 'repro_ops_total{op="write"} 3' in text
    assert "repro_depth 2.5" in text
    assert text.endswith("\n")


def test_prometheus_text_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    hist = reg.histogram("repro_lat", "Latency", buckets=(1.0, 2.0))
    for v in (0.5, 1.5, 9.0):
        hist.observe(v)
    text = prometheus_text(reg)
    assert 'repro_lat_bucket{le="1.0"} 1' in text
    assert 'repro_lat_bucket{le="2.0"} 2' in text
    assert 'repro_lat_bucket{le="+Inf"} 3' in text
    assert "repro_lat_sum 11" in text
    assert "repro_lat_count 3" in text


def test_prometheus_text_escapes_label_values():
    reg = MetricsRegistry()
    reg.gauge("repro_g", labels=("k",)).labels(k='a"b\\c\nd').set(1)
    text = prometheus_text(reg)
    assert 'k="a\\"b\\\\c\\nd"' in text


def test_prometheus_text_is_insertion_order_independent():
    forward, backward = MetricsRegistry(), MetricsRegistry()
    for reg, order in ((forward, ("a", "b")), (backward, ("b", "a"))):
        for name in order:
            reg.counter(f"repro_{name}_total", labels=("k",))
        for key in order:
            reg.counter("repro_a_total", labels=("k",)).labels(k=key).inc()
            reg.counter("repro_b_total", labels=("k",)).labels(k=key).inc()
    assert prometheus_text(forward) == prometheus_text(backward)


def test_empty_registry_renders_empty_string():
    assert prometheus_text(MetricsRegistry()) == ""
