"""Shared, contended resources for the simulation kernel.

* :class:`Resource` — a counted semaphore with FIFO queuing; models a
  device that can serve ``capacity`` requests concurrently (e.g. an SSD
  with an internal queue depth, or a CPU with N cores).
* :class:`LockTable` — per-key FIFO locks, exclusive or shared, alive
  only while held or awaited; every lock of the tier and the substrate
  is taken through one.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Dict, Hashable, Iterator, List, Tuple, cast

from .core import Event, SimulationError, Simulator, _new_event

__all__ = ["LockTable", "Resource"]

_Waiters = Deque[Tuple[Event, float]]

#: What a :class:`Resource` has for a waiter queue until someone waits:
#: one shared, empty, immutable stand-in, as a :class:`LockTable` lock
#: has.  An empty ``deque`` of its own is ~760 bytes.
_NO_WAITERS = cast(_Waiters, ())


class Resource:
    """A counted FIFO resource (semaphore) on the simulated clock: a
    device held for a service time known up front.

    ``yield resource.hold(t)`` queues FIFO, holds one slot for ``t``
    and costs one kernel event, the completion, which frees the slot
    itself — see :meth:`hold`.  Locks, whose hold is not known up front,
    are a :class:`LockTable`'s.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        #: FIFO of ``(completion event, service time)`` of queued
        #: :meth:`hold` calls.  Built by the first waiter to queue.
        self._waiters: _Waiters = _NO_WAITERS
        #: Total simulated time during which at least one slot was busy.
        self.busy_time = 0.0
        #: Integral of (slots in use) over time; divide by elapsed time and
        #: capacity for average utilisation.
        self.busy_integral = 0.0
        self._last_change = sim.now
        #: The first callback of every completion, bound once.
        self._on_completion = self.release

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_len(self) -> int:
        """Number of services waiting for a slot."""
        return len(self._waiters)

    def slot_seconds(self) -> float:
        """Slot-seconds held since t=0 (:attr:`busy_integral` brought up
        to ``sim.now``); two readings bracket a window's busy time."""
        # hold() and release() carry this same arithmetic inline (a
        # frame per device hop is measurable); keep them in step.
        now = self.sim.now
        elapsed = now - self._last_change
        if elapsed > 0:
            self.busy_integral += elapsed * self._in_use
            if self._in_use > 0:
                self.busy_time += elapsed
        self._last_change = now
        return self.busy_integral

    def utilization(self) -> float:
        """Average fraction of capacity in use since t=0; a later
        window's is the growth of :meth:`slot_seconds` across it."""
        busy, now = self.slot_seconds(), self.sim.now
        return busy / (now * self.capacity) if now > 0 else 0.0

    def hold(self, duration: float) -> Event:
        """Return an event that fires once a slot has been held ``duration``,
        and frees that slot as it fires.

        The one-event form of a slot grant plus ``timeout(duration)``:
        when the slot is granted — here if one is free, otherwise inside
        the :meth:`release` that hands it over — the *completion* is
        pushed onto the heap at ``now + duration``, where a grant would
        have been pushed at ``now``; ``triggered`` means "service has
        started".  Its first callback is :meth:`release`, so the slot is
        freed (or handed on) before its waiter resumes — and whether or
        not anyone still waits: a process interrupted in service leaves
        the device busy until the completion, as a disk does not abort
        an I/O its client gave up on.  A waiter interrupted while still
        queued is ``cancelled``, skipped and never charged.
        """
        if duration < 0:
            raise ValueError(f"negative hold duration: {duration}")
        sim = self.sim
        # Event.__init__ spelled out; release is appended first (a one-slot
        # literal would grow to eight slots on the waiter's append).
        event = _new_event(Event)
        event.sim = sim
        callbacks: List[Callable[[Event], None]] = []
        callbacks.append(self._on_completion)
        event.callbacks = callbacks
        event._value = event._exc = None
        event.processed = event.cancelled = False
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
            event.triggered = False
            if self._waiters is _NO_WAITERS:
                self._waiters = deque()
            self._waiters.append((event, duration))
        return event

    def release(self, _completion: Event) -> None:
        """Release one held slot, waking the next FIFO waiter if any: the
        first callback of every :meth:`hold` completion.

        Waiters whose event was cancelled (the waiting process was
        interrupted and detached) are dropped instead of granted.
        """
        in_use = self._in_use
        if in_use <= 0:
            raise SimulationError("release() without a held slot")
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
            # Hand the slot straight to the next waiter, whose service
            # starts now; occupancy unchanged.
            waiter.triggered = True
            heappush(sim._queue, (now + duration, next(sim._seq), waiter))
            return
        self._in_use = in_use - 1


class _Lock:
    """One key's lock in a :class:`LockTable`: FIFO, held by one
    exclusive holder or by any number of shared ones."""

    __slots__ = ("holders", "exclusive", "waiters")

    def __init__(self) -> None:
        self.holders = 0
        #: Whether the holders (then exactly one) hold it exclusively.
        self.exclusive = False
        #: FIFO of ``(grant event, shared)``; built by the first waiter.
        self.waiters: Deque[Tuple[Event, bool]] = cast(Deque[Tuple[Event, bool]], ())

    def grant(self) -> None:
        """Grant waiters from the head of the line while they fit: the
        first one on a free lock, then any shared ones behind a shared
        grant, up to the first exclusive waiter.  Cancelled waiters (an
        interrupted process detached from its wait) are dropped, never
        granted — they would never release."""
        waiters = self.waiters
        while waiters:
            event, shared = waiters[0]
            if event.cancelled:
                waiters.popleft()
                continue
            if self.holders and (self.exclusive or not shared):
                return
            waiters.popleft()
            self.holders += 1
            self.exclusive = not shared
            event.succeed(self)


class LockTable:
    """Per-key FIFO locks, exclusive or shared, that exist only while in
    use.

    The one way a lock is taken::

        held: list = []
        try:
            yield table.acquire(key, held)
            ...
        finally:
            table.release(held)

    :meth:`acquire` fetches (or creates) the key's lock at that instant
    and records the grant in ``held`` *before* the caller yields it.
    :meth:`release` gives back exactly the grants that triggered: a
    deadline that interrupts the caller in the instant its grant is
    handed over still owes the lock, and a waiter interrupted while
    queued never had it (the holder's release skips its cancelled
    event).  A ``held`` list belongs to one table.

    Every table has a ``rank``, and a process takes its locks in one
    order: ``tier.object`` (0), then ``tier.chunk`` (1), then
    ``rados.write`` (2), and several keys of one table in ascending
    order (``for key in sorted(...)``), so no two tasks can wait on each
    other (the §4.4.2 serialised two-phase commit).  Each process lists
    the ``(rank, key)`` of the locks it holds or awaits,
    :attr:`Process.locks <repro.sim.core.Process.locks>`;
    :meth:`acquire` raises :class:`SimulationError` for a request that
    does not go on top of that list, and :meth:`release` takes
    ``held``'s pairs off it.

    A request is exclusive unless it asks for ``shared=True``.  Shared
    holders hold the lock together; the line is FIFO across both modes,
    so a shared request queues behind a waiting exclusive one, which
    therefore cannot starve, and an exclusive one waits until every
    holder ahead of it has released.

    An entry is dropped by the release that leaves it idle — a release
    hands the lock to the next live waiters or drains every cancelled
    one first — so the table holds only keys with a holder, and a key
    taken again later gets a fresh lock.  ``label`` formats a key into
    the lock's name, ``"class:..."`` (e.g. ``"tier.chunk:{}"``), which a
    :class:`repro.obs.Tracer` puts on each ``lock.wait`` span.
    """

    def __init__(self, sim: Simulator, label: str, rank: int) -> None:
        self.sim = sim
        self.label = label
        self.rank = rank
        self._locks: Dict[Hashable, _Lock] = {}

    def __len__(self) -> int:
        return len(self._locks)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._locks)

    def acquire(
        self, key: Hashable, held: List[Tuple[Hashable, Event]], shared: bool = False
    ) -> Event:
        """Return the grant event for ``key``'s lock, recorded in ``held``
        and on the running process's lock list; ``shared`` asks for it in
        shared mode.  Raises :class:`SimulationError` when the process
        already holds or awaits a lock at or above ``(rank, key)``."""
        task = self.sim._current_task
        if task is not None:
            pair = (self.rank, key)
            mine = task.locks
            if not mine:
                task.locks = [pair]
            elif mine[-1] < pair:
                mine.append(pair)
            else:
                raise SimulationError(
                    f"lock order: {self.label.format(key)} requested while holding"
                    f" {mine[-1]!r} (rank, key)"
                )
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = _Lock()
        grant = Event(self.sim)
        waiters = lock.waiters
        if waiters and waiters[0][0].cancelled:
            # Waiters that gave up while queued: drop them, and grant
            # whoever queued behind them only.
            lock.grant()
        if not waiters and (not lock.holders or shared and not lock.exclusive):
            lock.holders += 1
            lock.exclusive = not shared
            grant.succeed(lock)
        else:
            if not waiters:
                waiters = lock.waiters = deque()
            waiters.append((grant, shared))
        held.append((key, grant))
        return grant

    def release(self, held: List[Tuple[Hashable, Event]]) -> None:
        """Release every granted lock in ``held``, newest first, and take
        all of ``held`` off the running process's lock list."""
        locks = self._locks
        for key, grant in reversed(held):
            if grant.triggered:
                lock = locks[key]
                lock.holders -= 1
                if not lock.holders:
                    lock.exclusive = False
                lock.grant()
                if not lock.holders:
                    del locks[key]
        task = self.sim._current_task
        if task is not None and held:
            # ``held`` went onto the ascending list in its own order, so
            # when its first pair sits ``len(held)`` from the top, ``held``
            # is the top: the usual, last-in-first-out release.
            mine = task.locks
            rank = self.rank
            count = len(held)
            if count <= len(mine) and mine[-count] == (rank, held[0][0]):
                del mine[-count:]
            else:
                for key, _grant in held:
                    mine.remove((rank, key))
