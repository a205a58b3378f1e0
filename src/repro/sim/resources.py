"""Shared, contended resources for the simulation kernel.

* :class:`Resource` — a counted semaphore with FIFO queuing; models a
  device that can serve ``capacity`` requests concurrently (e.g. an SSD
  with an internal queue depth, or a CPU with N cores).
* :class:`LockTable` — per-key mutexes (one capacity-1 ``Resource`` per
  key, alive only while held or awaited); every lock of the tier and
  the substrate is taken through one.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Dict, Generator, Hashable, List, Optional, Tuple, cast

from .core import Event, SimulationError, Simulator

__all__ = ["LockTable", "Resource"]

_Waiters = Deque[Tuple[Event, Optional[float]]]

#: What a :class:`Resource` has for a waiter queue until someone waits:
#: one shared, empty, immutable stand-in.  Most locks are never
#: contended, and an empty ``deque`` of their own is ~760 bytes each.
_NO_WAITERS = cast(_Waiters, ())


class Resource:
    """A counted FIFO resource (semaphore) on the simulated clock.

    :meth:`acquire` returns a grant event that the caller yields; a lock
    is taken that way through a :class:`LockTable`, which owes a
    :meth:`release` from the instant the grant triggers.

    A device is held for a service time known up front:
    ``yield from resource.serve(t)`` (or, as a process of its own,
    ``yield sim.process(resource.serve(t))``) queues FIFO behind the same
    waiters and costs one kernel event, the completion — see :meth:`hold`.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        #: FIFO of ``(event, duration)``: ``duration`` is ``None`` for an
        #: :meth:`acquire` and the service time for a :meth:`hold`.
        #: Built by the first waiter to queue.
        self._waiters: _Waiters = _NO_WAITERS
        #: Total simulated time during which at least one slot was busy.
        self.busy_time = 0.0
        #: Integral of (slots in use) over time; divide by elapsed time and
        #: capacity for average utilisation.
        self.busy_integral = 0.0
        self._last_change = sim.now

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_len(self) -> int:
        """Number of acquirers waiting for a slot."""
        return len(self._waiters)

    def _account(self) -> None:
        # acquire(), hold() and release() carry this same arithmetic
        # inline (a frame per device hop is measurable); keep them in step.
        now = self.sim.now
        elapsed = now - self._last_change
        if elapsed > 0:
            self.busy_integral += elapsed * self._in_use
            if self._in_use > 0:
                self.busy_time += elapsed
        self._last_change = now

    def utilization(self, since: float = 0.0) -> float:
        """Average fraction of capacity in use since time ``since``."""
        self._account()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_integral / (elapsed * self.capacity)

    def acquire(self) -> Event:
        """Return an event that fires once a slot is granted (FIFO)."""
        sim = self.sim
        event = Event(sim)
        in_use = self._in_use
        if in_use < self.capacity and not self._waiters:
            now = sim.now
            elapsed = now - self._last_change
            if elapsed > 0:
                self.busy_integral += elapsed * in_use
                if in_use > 0:
                    self.busy_time += elapsed
            self._last_change = now
            self._in_use = in_use + 1
            event.succeed(self)
        else:
            if self._waiters is _NO_WAITERS:
                self._waiters = deque()
            self._waiters.append((event, None))
        return event

    def hold(self, duration: float) -> Event:
        """Return an event that fires once a slot has been held ``duration``.

        The one-event form of ``acquire()`` + ``timeout(duration)`` for a
        service whose length is known up front.  Same FIFO queue, same
        accounting as :meth:`acquire`; but when the
        slot is granted — here if one is free, otherwise inside the
        :meth:`release` that hands it over — the *completion* is pushed
        onto the heap at ``now + duration``, where the grant would have
        been pushed at ``now``.  So ``triggered`` on the returned event
        means "service has started" and the caller owes a
        :meth:`release` from then on, whether it waits for the completion
        or is interrupted out of it (:meth:`serve` is that caller).  An
        abandoned completion still pops at its time and does nothing.
        """
        if duration < 0:
            raise ValueError(f"negative hold duration: {duration}")
        sim = self.sim
        event = Event(sim)
        in_use = self._in_use
        if in_use < self.capacity and not self._waiters:
            now = sim.now
            elapsed = now - self._last_change
            if elapsed > 0:
                self.busy_integral += elapsed * in_use
                if in_use > 0:
                    self.busy_time += elapsed
            self._last_change = now
            self._in_use = in_use + 1
            event.triggered = True
            heappush(sim._queue, (now + duration, next(sim._seq), event))
        else:
            if self._waiters is _NO_WAITERS:
                self._waiters = deque()
            self._waiters.append((event, duration))
        return event

    def release(self) -> None:
        """Release one held slot, waking the next FIFO waiter if any.

        Waiters whose event was cancelled (the waiting process was
        interrupted and detached) are dropped instead of granted — a
        cancelled waiter would never release the slot back.
        """
        in_use = self._in_use
        if in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        sim = self.sim
        now = sim.now
        elapsed = now - self._last_change
        if elapsed > 0:
            self.busy_integral += elapsed * in_use
            self.busy_time += elapsed
        self._last_change = now
        while self._waiters:
            waiter, duration = self._waiters.popleft()
            if waiter.cancelled:
                continue
            # Hand the slot straight to the next waiter; occupancy unchanged.
            if duration is None:
                waiter.succeed(self)
            else:  # a hold(): its service starts now
                waiter.triggered = True
                heappush(sim._queue, (now + duration, next(sim._seq), waiter))
            return
        self._in_use = in_use - 1

    def serve(self, duration: float) -> Generator[Event, Any, None]:
        """Process generator: hold one slot for ``duration`` seconds.

        One kernel event per service.  The slot is given back when the
        service completes or at the instant an interrupt ends it early;
        a waiter interrupted while still queued never had one.
        """
        hold = self.hold(duration)
        try:
            yield hold
        finally:
            if hold.triggered:
                self.release()


class LockTable:
    """Per-key capacity-1 locks that exist only while in use.

    The one way a lock is taken::

        held: list = []
        try:
            yield table.acquire(key, held)
            ...
        finally:
            table.release(held)

    :meth:`acquire` fetches (or creates) the key's :class:`Resource` at
    that instant and records the grant in ``held`` *before* the caller
    yields it.  :meth:`release` gives back exactly the grants that
    triggered: a deadline that interrupts the caller in the instant its
    grant is handed over still owes the lock, and a waiter interrupted
    while queued never had it (the holder's release skips its cancelled
    event).  Several keys are taken in ``sorted(...)`` order into one
    ``held`` list, so no two tasks can wait on each other; a ``held``
    list belongs to one table.

    An entry is dropped by the release that leaves it idle — a release
    hands the lock to the next live waiter or drains every cancelled one
    first — so the table holds only keys with a holder, and a key taken
    again later gets a fresh lock.  ``label`` formats a key into the
    lock's name, ``"class:..."`` (e.g. ``"tier.chunk:{}"``), which a
    :class:`repro.obs.Tracer` puts on each ``lock.wait`` span.
    """

    def __init__(self, sim: Simulator, label: str) -> None:
        self.sim = sim
        self.label = label
        self._locks: Dict[Hashable, Resource] = {}

    def __len__(self) -> int:
        return len(self._locks)

    def acquire(self, key: Hashable, held: List[Tuple[Hashable, Event]]) -> Event:
        """Return the grant event for ``key``'s lock, recorded in ``held``."""
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = Resource(self.sim, 1)
        grant = lock.acquire()
        held.append((key, grant))
        return grant

    def release(self, held: List[Tuple[Hashable, Event]]) -> None:
        """Release every granted lock in ``held``, newest first."""
        locks = self._locks
        for key, grant in reversed(held):
            if grant.triggered:
                lock = locks[key]
                lock.release()
                if not lock._in_use:
                    del locks[key]
