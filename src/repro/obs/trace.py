"""Span-tree tracer with an injected clock.

A :class:`Tracer` hands out :class:`Span` objects that form per-op
trees: each root span is one client-visible operation (a write, a read,
a dedup pass) and children mark the stages it passed through (lock
wait, chunk assembly, fingerprinting, the RADOS two-phase commit, ...).

Design constraints baked in here:

* **No wall clock.**  The clock is a constructor argument; code under
  the DET001 lint scope passes ``lambda: sim.now``.  A host-side
  caller may pass ``time.perf_counter`` for wall-time traces.
* **Near-zero cost when disabled.**  A disabled tracer returns the
  :data:`NULL_SPAN` singleton whose methods are all no-ops and whose
  ``child()`` returns itself, so the hot path pays only an attribute
  call per stage — no allocation, no clock read.
* **Explicit propagation.**  Spans are passed as parameters, never via
  an ambient context stack: simulation processes interleave on one OS
  thread, so a global "current span" would mis-parent concurrent ops.

Spans must be *closed on every path* — lint rule OBS001 enforces that
every span-starting call (``root_span`` / ``start_span`` / ``child``)
is used as a ``with`` context manager or paired with ``finish()`` in a
``try/finally``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Type
from types import TracebackType

__all__ = ["Span", "NullSpan", "NULL_SPAN", "Tracer"]


class Span:
    """One timed stage in an op's trace tree.

    Spans are context managers; entering is a no-op (the span starts
    when created) and exiting finishes it, annotating the exception
    type if one is in flight.  ``finish()`` is idempotent.
    """

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "trace_id",
        "stage",
        "start",
        "end",
        "tags",
        "events",
    )

    def __init__(
        self,
        tracer: Optional["Tracer"],
        span_id: int,
        parent_id: Optional[int],
        trace_id: int,
        stage: str,
        start: float,
        tags: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.stage = stage
        self.start = start
        self.end: Optional[float] = None
        self.tags = tags
        # Lazily allocated on first annotate(): most spans carry no events.
        self.events: Optional[List[Dict[str, Any]]] = None

    def child(self, stage: str, **tags: Any) -> "Span":
        """Start a child span of this one (see OBS001: close it!)."""
        if self.tracer is None:  # detached span (tests); keep the tree local
            return NULL_SPAN
        return self.tracer._make(stage, self, tags)

    def tag(self, **tags: Any) -> None:
        """Attach or overwrite key/value tags on this span."""
        self.tags.update(tags)

    def annotate(self, kind: str, **fields: Any) -> None:
        """Append a point-in-time event (e.g. a retry) to this span."""
        event: Dict[str, Any] = {"kind": kind}
        if self.tracer is not None:
            event["t"] = self.tracer.clock()
        event.update(fields)
        if self.events is None:
            self.events = []
        self.events.append(event)

    def finish(self) -> None:
        """Stop the span's clock; safe to call more than once."""
        if self.end is None and self.tracer is not None:
            self.end = self.tracer.clock()

    @property
    def duration(self) -> float:
        """Elapsed clock time, or 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_record(self) -> Dict[str, Any]:
        """JSON-ready dict (one line of a ``trace.jsonl`` dump)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            "tags": self.tags,
            "events": self.events or [],
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is not None:
            self.annotate("error", type=exc_type.__name__)
        if self.end is None and self.tracer is not None:  # finish(), inlined
            self.end = self.tracer.clock()

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"<Span {self.span_id} {self.stage!r} {state}>"


class NullSpan(Span):
    """No-op span returned when tracing is disabled.

    Every method returns immediately; ``child()`` returns the same
    singleton so disabled call sites never allocate.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(None, -1, None, -1, "", 0.0, {})

    def child(self, stage: str, **tags: Any) -> "Span":
        """Return the singleton itself — children of nothing are nothing."""
        return self

    def tag(self, **tags: Any) -> None:
        """Discard tags."""

    def annotate(self, kind: str, **fields: Any) -> None:
        """Discard events."""

    def finish(self) -> None:
        """Nothing to stop."""

    def __repr__(self) -> str:
        return "<NullSpan>"


#: Shared do-nothing span; the default for every ``span=`` parameter.
NULL_SPAN = NullSpan()


class Tracer:
    """Factory and buffer for :class:`Span` trees.

    ``clock`` is any zero-argument callable returning a monotonic
    float; span ids are sequential integers, so a trace taken from a
    seeded simulation run is bit-for-bit reproducible.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        enabled: bool = True,
        max_spans: int = 250_000,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._next_id = 1

    def root_span(self, stage: str, **tags: Any) -> Span:
        """Start a new trace with a parentless root span."""
        return self._make(stage, parent=None, tags=tags)

    def start_span(self, stage: str, parent: Optional[Span] = None, **tags: Any) -> Span:
        """Start a span, optionally as a child of ``parent``."""
        return self._make(stage, parent=parent, tags=tags)

    def _make(self, stage: str, parent: Optional[Span], tags: Dict[str, Any]) -> Span:
        # ``tags`` is always the caller's fresh ``**kwargs`` dict, so the
        # span takes ownership without copying — this runs once per stage
        # on the hot path and is kept allocation-minimal on purpose.
        if not self.enabled:
            return NULL_SPAN
        if parent is not None and parent.tracer is None:
            # Child of NULL_SPAN (or a foreign tracer's discard): stay null
            # rather than fabricating an orphan.
            return NULL_SPAN
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return NULL_SPAN
        span_id = self._next_id
        self._next_id += 1
        span = Span(
            tracer=self,
            span_id=span_id,
            parent_id=None if parent is None else parent.span_id,
            trace_id=span_id if parent is None else parent.trace_id,
            stage=stage,
            start=self.clock(),
            tags=tags,
        )
        self.spans.append(span)
        return span

    def to_records(self) -> List[Dict[str, Any]]:
        """All buffered spans as JSON-ready dicts, in creation order."""
        return [span.to_record() for span in self.spans]

    def clear(self) -> None:
        """Drop all buffered spans (id sequence keeps counting)."""
        self.spans.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.spans)
