"""Observability layer: deterministic op tracing, a typed metrics
registry, and the one snapshot of a running store
(:func:`storage_metrics`) with its text views.

The package is an import *leaf*: it depends on nothing else in
``repro`` (the snapshot duck-types the storage stack) so the hot paths
(``repro.core``, ``repro.cluster``, ``repro.faults``) can all import it
without cycles.  Spans run on an *injected* clock — the dedup tier
passes the simulation clock (keeping DET001's no-wall-clock invariant),
while a host-side caller may pass ``time.perf_counter``.
"""

from .collect import fault_lines, status_lines, storage_metrics
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
    "fault_lines",
    "stage_rollup",
    "status_lines",
    "storage_metrics",
]
