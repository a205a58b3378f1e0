"""Deduplication rate control (paper §4.4.2).

Background dedup I/O competes with foreground I/O for disks and the
network; Figure 5-(b) shows an un-throttled dedup pass collapsing
foreground throughput from ~600 to ~200 MB/s.  The paper's remedy is
watermark-based pacing: measure foreground load, and above the low
watermark allow only one dedup I/O per N foreground operations (N = 100
between the watermarks, N = 500 above the high watermark).

One budget serves every background worker: a pass charges its cold
members' dirty chunks to one clock, and a worker waits that clock off
before it pops the next group, while no lock is held and the group is
still listed for the other workers and a drain.  So at most one group
runs ahead of the budget, however many workers there are.  Forced
passes (drains, flush, flush-on-write) are never paced.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..sim import SimulationError, Simulator
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

    def note(self, nbytes: int = 0) -> None:
        """Record one foreground operation at the current time."""
        self._ops.append((self.sim.now, nbytes))
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
    """Watermark-based pacing of background dedup I/O, one clock shared
    by every worker: each dedup I/O pushes it on by the time N foreground
    operations take at the observed rate — "one dedup I/O per N
    foreground I/Os" without hooking every foreground op."""

    def __init__(self, sim: Simulator, window: OpWindow, config: DedupConfig):
        self.sim = sim
        self.window = window
        self.config = config
        #: When the next dedup I/O is permitted.
        self._due = 0.0

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

    def charge(self, ios: int) -> None:
        """Charge ``ios`` dedup I/Os to the clock at the current load
        (nothing below the low watermark or without rate control)."""
        if not self.config.rate_control:
            return
        iops = self.window.iops()
        ratio = self._ratio_at(iops)
        if ratio:
            self._due = max(self._due, self.sim.now) + ios * ratio / iops

    def throttle(self):
        """Process: wait until the next dedup I/O is permitted, checking
        the load at least once per window: below the low watermark the
        debt is forgiven.  The wait has no bound, so a task that holds a
        lock may not take it (:class:`SimulationError`): every task
        queued on that lock would wait it out too."""
        sim = self.sim
        task = sim._current_task
        if task is not None and task.locks:
            raise SimulationError(f"throttle() while holding locks {task.locks!r}")
        while self._due > sim.now:
            if self.current_ratio() == 0:
                self._due = sim.now
                return
            yield sim.timeout(min(self._due - sim.now, self.window.window))
