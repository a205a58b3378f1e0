"""Deduplication rate control (paper §4.4.2).

Background dedup I/O competes with foreground I/O for disks and the
network; Figure 5-(b) shows an un-throttled dedup pass collapsing
foreground throughput from ~600 to ~200 MB/s.  The paper's remedy is
watermark-based pacing: measure foreground load, and above the low
watermark allow only one dedup I/O per N foreground operations (N = 100
between the watermarks, N = 500 above the high watermark).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..sim import Simulator
from .config import DedupConfig

__all__ = ["OpWindow", "RateController"]

#: Foreground IOPS below which background dedup runs unthrottled, and
#: at or above which it gets one I/O per ``ops_per_dedup_high``
#: foreground ops; in between, one per ``ops_per_dedup_mid``.
LOW_WATERMARK = 100.0
HIGH_WATERMARK = 1_000.0


class OpWindow:
    """Sliding window of foreground operations for load measurement."""

    def __init__(self, sim: Simulator, window: float = 1.0):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.sim = sim
        self.window = window
        self._ops: Deque[Tuple[float, int]] = deque()  # (time, bytes)
        self.total_ops = 0
        self.total_bytes = 0

    def note(self, nbytes: int = 0) -> None:
        """Record one foreground operation at the current time."""
        self._ops.append((self.sim.now, nbytes))
        self.total_ops += 1
        self.total_bytes += nbytes
        self._expire()

    def _expire(self) -> None:
        horizon = self.sim.now - self.window
        ops = self._ops
        while ops and ops[0][0] < horizon:
            ops.popleft()

    def iops(self) -> float:
        """Foreground operations per second over the window."""
        self._expire()
        return len(self._ops) / self.window

    def throughput(self) -> float:
        """Foreground bytes per second over the window."""
        self._expire()
        return sum(b for _t, b in self._ops) / self.window


class RateController:
    """Watermark-based pacing of background dedup I/O.

    The engine calls :meth:`throttle` before each dedup I/O; the
    returned generator waits for the time N foreground operations take
    at the currently observed rate — equivalent to "one dedup I/O per N
    foreground I/Os" without needing to hook every foreground op.
    """

    def __init__(self, sim: Simulator, window: OpWindow, config: DedupConfig):
        self.sim = sim
        self.window = window
        self.config = config
        #: Counters for tests/metrics.
        self.throttled = 0
        self.passed = 0

    def current_ratio(self) -> int:
        """Foreground ops per permitted dedup I/O at the current load.

        0 means unthrottled (below the low watermark).
        """
        return self._ratio_at(self.window.iops())

    def _ratio_at(self, iops: float) -> int:
        if iops < LOW_WATERMARK:
            return 0
        if iops >= HIGH_WATERMARK:
            return self.config.ops_per_dedup_high
        return self.config.ops_per_dedup_mid

    def throttle(self):
        """Process: wait until the next dedup I/O is permitted."""
        if not self.config.rate_control:
            self.passed += 1
            return
        iops = self.window.iops()
        ratio = self._ratio_at(iops)
        if ratio == 0:
            self.passed += 1
            return
        self.throttled += 1
        yield self.sim.timeout(ratio / max(iops, 1e-9))
