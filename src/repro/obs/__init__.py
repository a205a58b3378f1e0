"""Observability layer: deterministic op tracing and a typed metrics registry.

The package is an import *leaf*: it depends on nothing else in
``repro`` so the hot paths (``repro.core``, ``repro.cluster``,
``repro.faults``) and the collectors (``repro.metrics``) can all import
it without cycles.  Spans run on an *injected* clock — the dedup tier
passes the simulation clock (keeping DET001's no-wall-clock invariant),
while a host-side caller may pass ``time.perf_counter``.
"""

from .integrity import check_trace, stage_rollup
from .registry import (
    DEFAULT_BUCKETS,
    CardinalityError,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .trace import NULL_SPAN, NullSpan, Span, Tracer

__all__ = [
    "CardinalityError",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "Tracer",
    "check_trace",
    "stage_rollup",
]
