"""Deliberately deadlock-prone fixture, runnable under the simulator.

Two tasks calling ``swap("a", "b")`` and ``swap("b", "a")`` acquire the
same pair of ``tier.object`` locks in opposite orders and wedge.  The
static prong (LCK001) flags the unsorted same-class acquires in one
region; the dynamic prong (:class:`repro.analysis.LockSanitizer`)
observes the inversion at runtime.  Linted with a module override
placing it under ``repro.core``.
"""

from repro.sim import LockTable, Simulator


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


def run_deadlock(sim=None):
    """Drive both tasks to the deadlock; returns the simulator used."""
    if sim is None:
        sim = Simulator()
    tier = DeadlockTier(sim)
    sim.process(tier.swap("a", "b"))
    sim.process(tier.swap("b", "a"))
    sim.run()
    return sim
