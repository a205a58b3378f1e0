"""Observability layer: deterministic op tracing, a typed metrics
registry, and the one snapshot of a running store
(:func:`storage_metrics`) with its text views.

Nothing in the storage stack imports this package: the snapshot
duck-types the stack, and the :class:`Tracer` patches its boundary
functions from outside, on the simulation clock, only while installed.
The package itself depends on nothing in ``repro`` but ``repro.sim``.
"""

from .collect import fault_lines, status_lines, storage_metrics
from .integrity import check_trace
from .trace import SPAN_TARGETS, Tracer

__all__ = [
    "SPAN_TARGETS",
    "Tracer",
    "check_trace",
    "fault_lines",
    "status_lines",
    "storage_metrics",
]
