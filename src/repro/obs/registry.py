"""The gauge registry behind :func:`repro.obs.storage_metrics`.

A :class:`MetricsRegistry` owns *families*; a family owns *series*, one
per unique label-value tuple.  The shape mirrors the Prometheus data
model so the text exposition in :mod:`repro.obs.export` is a direct
walk, but everything here is plain deterministic Python:

* every family is a gauge: a snapshot copies current values, so a
  series only ever has :meth:`Gauge.set` called on it;
* label names are fixed at registration — a ``labels()`` call with a
  different key set is a ``ValueError``;
* iteration order is sorted (family name, then label values), never
  insertion order, so exports are stable across runs and Python
  versions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Gauge", "MetricFamily", "MetricsRegistry"]


class Gauge:
    """One series: a point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)


class MetricFamily:
    """A named gauge plus its labeled series.

    ``labels(**kv)`` returns (creating on first use) the series for a
    concrete label assignment; :meth:`set` on the family addresses the
    label-less series, which is only legal when the family was
    registered without label names.
    """

    def __init__(self, name: str, help_text: str, labelnames: Tuple[str, ...]) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = labelnames
        self._series: Dict[Tuple[str, ...], Gauge] = {}

    def labels(self, **labelvalues: Any) -> Gauge:
        """The series for this exact label assignment (created lazily)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {sorted(self.labelnames)},"
                f" got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Gauge()
        return series

    def set(self, value: float) -> None:
        """Set the label-less series."""
        self.labels().set(value)

    def series_items(self) -> List[Tuple[Tuple[str, ...], Gauge]]:
        """(label values, series) pairs sorted by label values."""
        return sorted(self._series.items())


class MetricsRegistry:
    """Gauge families by name; each name is registered once."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register a gauge family with fixed label names."""
        if name in self._families:
            raise ValueError(f"metric {name!r} already registered")
        family = self._families[name] = MetricFamily(name, help_text, tuple(labels))
        return family

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, if any."""
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """All families, sorted by name (deterministic export order)."""
        return [self._families[name] for name in sorted(self._families)]
