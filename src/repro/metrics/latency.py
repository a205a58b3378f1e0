"""Latency recording and summary statistics."""

from __future__ import annotations

import math
from typing import Dict, List

__all__ = ["LatencyRecorder"]


class LatencyRecorder:
    """Collects per-operation latencies (seconds) and summarises them."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []

    def record(self, latency: float) -> None:
        """Add one sample (negative latencies are a caller bug)."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self._samples.append(latency)

    @property
    def count(self) -> int:
        """Number of samples."""
        return len(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return sum(self._samples)

    @property
    def mean(self) -> float:
        """Average latency, 0.0 when empty."""
        return self.total / len(self._samples) if self._samples else 0.0

    @property
    def minimum(self) -> float:
        """Smallest sample, 0.0 when empty."""
        return min(self._samples) if self._samples else 0.0

    @property
    def maximum(self) -> float:
        """Largest sample, 0.0 when empty."""
        return max(self._samples) if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """p-th percentile (0..100), linear interpolation; 0.0 if empty.

        Defined at both edges: ``percentile(0)`` is the minimum and
        ``percentile(100)`` the maximum, with the interpolation indices
        clamped so float rounding in ``p / 100 * (n - 1)`` can never
        step outside the sample list.
        """
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        top = len(ordered) - 1
        rank = min(p / 100.0 * top, float(top))
        lo = min(math.floor(rank), top)
        hi = min(math.ceil(rank), top)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    @property
    def p50(self) -> float:
        """Median latency."""
        return self.percentile(50)

    @property
    def p99(self) -> float:
        """99th-percentile latency."""
        return self.percentile(99)

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one."""
        self._samples.extend(other._samples)

    def summary(self) -> Dict[str, float]:
        """Stats as a plain dict (for table printing)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }
