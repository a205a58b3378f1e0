"""Deliberately deadlock-prone fixture.

Two tasks calling ``swap("a", "b")`` and ``swap("b", "a")`` acquire the
same pair of ``tier.object`` locks in opposite orders and wedge: run
under the simulator, both end suspended with the table non-empty.
LCK001 flags the unsorted same-class acquires in one region before
anything runs.  Linted with a module override placing it under
``repro.core``.
"""

from repro.sim import LockTable


class DeadlockTier:
    """Two-object store with per-object locks and no acquisition order."""

    def __init__(self, sim):
        self.sim = sim
        self.object_locks = LockTable(sim, "tier.object:{}")

    def swap(self, first, second):
        """Hold ``first`` while taking ``second`` — opposite callers hang."""
        held = []
        try:
            yield self.object_locks.acquire(first, held)  # line 25: LCK001
            yield self.object_locks.acquire(second, held)
            yield self.sim.timeout(0.1)
        finally:
            self.object_locks.release(held)

