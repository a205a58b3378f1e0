"""Per-interval throughput time series (the paper's MB/s-over-time plots:
Figures 5-(b) and 14)."""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["ThroughputSeries"]


class ThroughputSeries:
    """Buckets bytes (and ops) into fixed time intervals."""

    def __init__(self, interval: float = 1.0, name: str = "") -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.name = name
        self._bytes: Dict[int, int] = {}
        self._ops: Dict[int, int] = {}

    def note(self, when: float, nbytes: int) -> None:
        """Record ``nbytes`` transferred at time ``when``."""
        bucket = int(when / self.interval)
        self._bytes[bucket] = self._bytes.get(bucket, 0) + nbytes
        self._ops[bucket] = self._ops.get(bucket, 0) + 1

    def series(self) -> List[Tuple[float, float]]:
        """(bucket start time, bytes/second) pairs, gaps filled with 0."""
        if not self._bytes:
            return []
        first, last = min(self._bytes), max(self._bytes)
        return [
            (b * self.interval, self._bytes.get(b, 0) / self.interval)
            for b in range(first, last + 1)
        ]

    def ops_series(self) -> List[Tuple[float, float]]:
        """(bucket start time, ops/second) pairs."""
        if not self._ops:
            return []
        first, last = min(self._ops), max(self._ops)
        return [
            (b * self.interval, self._ops.get(b, 0) / self.interval)
            for b in range(first, last + 1)
        ]

    @property
    def total_bytes(self) -> int:
        """All bytes recorded."""
        return sum(self._bytes.values())

    @property
    def total_ops(self) -> int:
        """All ops recorded."""
        return sum(self._ops.values())

    def mean_throughput(self) -> float:
        """Average bytes/second over the recorded span."""
        points = self.series()
        if not points:
            return 0.0
        return sum(v for _t, v in points) / len(points)

    def min_throughput(self) -> float:
        """Worst bucket's bytes/second (dip depth in Figure 5-b)."""
        points = self.series()
        return min((v for _t, v in points), default=0.0)
