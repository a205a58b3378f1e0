"""Measurement utilities: latencies and throughput series."""

from .latency import LatencyRecorder
from .timeseries import ThroughputSeries

__all__ = ["LatencyRecorder", "ThroughputSeries"]
