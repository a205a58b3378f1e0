"""Typed metrics registry: counters, gauges, labeled series, histograms.

A :class:`MetricsRegistry` owns *families*; a family owns *series*, one
per unique label-value tuple.  The shape mirrors the Prometheus data
model so the text exposition in :mod:`repro.obs.export` is a direct
walk, but everything here is plain deterministic Python:

* label names are fixed at registration — a ``labels()`` call with a
  different key set is a ``ValueError``;
* per-family series count is capped (:class:`CardinalityError`) so an
  accidental high-cardinality label (e.g. a chunk id) fails fast
  instead of silently eating memory;
* iteration order is sorted (family name, then label values), never
  insertion order, so exports are stable across runs and Python
  versions.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "CardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Latency-oriented default histogram boundaries (seconds), fixed so two
#: runs of the same workload always land samples in the same buckets.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class CardinalityError(ValueError):
    """A family exceeded its configured maximum number of label series."""


class Counter:
    """Monotonically increasing value (resets only with the registry)."""

    kind = "counter"

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def sample_lines(self, name: str, labels: str) -> List[Tuple[str, float]]:
        """(sample name, value) pairs for text exposition."""
        return [(name + labels, self._value)]


class Gauge:
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self._value -= amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def sample_lines(self, name: str, labels: str) -> List[Tuple[str, float]]:
        """(sample name, value) pairs for text exposition."""
        return [(name + labels, self._value)]


class Histogram:
    """Fixed-boundary histogram with sum/count/min/max and quantiles.

    Boundaries are upper-inclusive (Prometheus ``le`` semantics): an
    observation equal to a boundary lands in that boundary's bucket.
    A final implicit ``+Inf`` bucket catches everything above the last
    boundary.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket boundaries must be strictly increasing: {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate the ``q``-quantile (0 <= q <= 1) from buckets.

        Defined for every input: an empty histogram returns 0.0, q=1.0
        returns the exact observed maximum, q=0.0 the observed minimum.
        Interior quantiles interpolate linearly within the bucket that
        holds the target rank, clamped to the observed min/max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if self.count == 0 or self.min is None or self.max is None:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if not n:
                continue
            cumulative += n
            if cumulative >= target:
                lo = self.buckets[i - 1] if i > 0 else self.min
                hi = self.buckets[i] if i < len(self.buckets) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                frac = 1.0 - (cumulative - target) / n
                return lo + (hi - lo) * frac
        return self.max

    def sample_lines(self, name: str, labels: str) -> List[Tuple[str, float]]:
        """Cumulative ``_bucket``/``_sum``/``_count`` exposition samples."""
        lines: List[Tuple[str, float]] = []
        cumulative = 0
        for bound, n in zip(self.buckets, self.counts):
            cumulative += n
            lines.append((_with_le(name, labels, _fmt_bound(bound)), float(cumulative)))
        cumulative += self.counts[-1]
        lines.append((_with_le(name, labels, "+Inf"), float(cumulative)))
        lines.append((name + "_sum" + labels, self.sum))
        lines.append((name + "_count" + labels, float(self.count)))
        return lines


def _fmt_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound)) + ".0"
    return repr(bound)


def _with_le(name: str, labels: str, le: str) -> str:
    if labels:
        return f"{name}_bucket{labels[:-1]},le=\"{le}\"}}"
    return f'{name}_bucket{{le="{le}"}}'


class MetricFamily:
    """A named metric plus its labeled series.

    ``labels(**kv)`` returns (creating on first use) the series for a
    concrete label assignment; calling value methods directly on the
    family addresses the label-less series, which is only legal when
    the family was registered without label names.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        max_series: int,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.labelnames = labelnames
        self.max_series = max_series
        self.buckets = tuple(buckets) if buckets is not None else None
        self._series: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labelvalues: Any) -> Any:
        """The series for this exact label assignment (created lazily)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {sorted(self.labelnames)},"
                f" got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                raise CardinalityError(
                    f"{self.name}: series cap {self.max_series} reached"
                    f" (rejected labels {dict(zip(self.labelnames, key))})"
                )
            series = self._new_series()
            self._series[key] = series
        return series

    def _new_series(self) -> Any:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets if self.buckets is not None else DEFAULT_BUCKETS)

    # Label-less convenience delegates -------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less series."""
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the label-less gauge series."""
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        """Set the label-less gauge series."""
        self.labels().set(value)

    def observe(self, value: float) -> None:
        """Observe into the label-less histogram series."""
        self.labels().observe(value)

    def series_items(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """(label values, series) pairs sorted by label values."""
        return sorted(self._series.items())

    def __len__(self) -> int:
        return len(self._series)


class MetricsRegistry:
    """Registry of metric families with idempotent registration.

    Re-registering a name with the same kind/labels returns the
    existing family (so collectors can run repeatedly); re-registering
    with a different shape is an error.
    """

    def __init__(self, max_series_per_family: int = 256) -> None:
        self.max_series_per_family = max_series_per_family
        self._families: Dict[str, MetricFamily] = {}

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, "counter", help_text, labels, None)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, "gauge", help_text, labels, None)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family with fixed buckets."""
        return self._register(name, "histogram", help_text, labels, buckets)

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]],
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        labelnames = tuple(labels)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise ValueError(f"duplicate label names: {labelnames}")
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                    f"{existing.labelnames}, cannot re-register as {kind}{labelnames}"
                )
            if kind == "histogram" and buckets is not None:
                if existing.buckets != tuple(float(b) for b in buckets):
                    raise ValueError(f"metric {name!r} re-registered with different buckets")
            return existing
        family = MetricFamily(
            name,
            kind,
            help_text,
            labelnames,
            self.max_series_per_family,
            tuple(float(b) for b in buckets) if buckets is not None else None,
        )
        self._families[name] = family
        return family

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, if any."""
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """All families, sorted by name (deterministic export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def __iter__(self) -> Iterator[MetricFamily]:
        return iter(self.families())

    def __len__(self) -> int:
        return len(self._families)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot: family -> sorted list of series dicts."""
        doc: Dict[str, Any] = {}
        for family in self.families():
            series_docs = []
            for values, series in family.series_items():
                entry: Dict[str, Any] = {
                    "labels": dict(zip(family.labelnames, values)),
                }
                if family.kind == "histogram":
                    entry.update(
                        count=series.count,
                        sum=series.sum,
                        min=series.min,
                        max=series.max,
                        buckets=list(zip(series.buckets, series.counts)),
                        overflow=series.counts[-1],
                    )
                else:
                    entry["value"] = series.value
                series_docs.append(entry)
            doc[family.name] = {
                "kind": family.kind,
                "help": family.help_text,
                "series": series_docs,
            }
        return doc
