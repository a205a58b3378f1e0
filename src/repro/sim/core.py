"""Discrete-event simulation kernel.

The cluster substrate and the deduplication tier are exercised on a
simulated clock rather than wall time: every disk access, network
message, and CPU-bound operation (hashing, erasure coding) advances the
clock by the amount of time the modelled device would take.  This module
provides the minimal machinery for that style of simulation:

* :class:`Simulator` — the event loop and clock.
* :class:`Event` — a one-shot occurrence processes can wait on.
* :class:`Process` — a generator-driven activity; ``yield``-ing an event
  suspends the process until the event fires.
* :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` — composite events.

The design deliberately mirrors a small subset of SimPy (which is not
available offline); it is implemented from scratch and only contains the
features this project needs.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]

Ordering contract and host cost
-------------------------------
Events fire in ``(time, sequence number)`` order and an event's callbacks
run in subscription order.  Exactly six things take a sequence number,
each at the moment it happens: :meth:`Event.succeed` and
:meth:`Event.fail` (a process's own completion draws where they would,
as its generator returns or raises), creating a :class:`Timeout`,
starting a :class:`Process` (its bootstrap event),
:meth:`Simulator.call_later` (``call_soon``) and its two carriers — the
interruption :meth:`Process.interrupt` pushes, and the relay, due now,
that carries the outcome of an already-processed event a process
yields — and the *start of a held service*: :meth:`Resource.hold
<repro.sim.resources.Resource.hold>` when a slot is free, otherwise the
``release()`` that hands the slot over (the first callback of the
completion before it), which queues the service's completion at
``now + duration``.  Nothing else about ordering is observable, so
anything else may change as long as those six draw the same numbers at
the same points (``tests/sim/test_event_order.py`` pins a trace of it).

The sixth draw is what makes a device service one event instead of a
grant event plus a ``Timeout``.  It stands where the grant's draw stood
and lands on the float that ``Timeout`` would have computed in the same
instant, so services keep their order among themselves, and a
completion frees its slot, making the next draw, before its waiter
resumes.  One tie is ordered differently from the two-event form: a
*non-service* event made in the instant a service starts and due at the
bit-identical time it ends (a plain ``timeout(d)`` with ``d`` equal to
the service time) used to fire before the completion and now fires
after it.  The e2e workloads, the ``faults`` / ``rebalance`` scenarios
and the test suite contain no such tie, and ``test_event_order.py``
pins the order it now has.

That freedom is spent on host time: every figure this package produces
is millions of events, so the per-event path is one Python frame,
:meth:`Simulator.step`.  It pops the heap, runs plain callbacks, and
drives each process waiting on the event itself: a process waits by
putting *itself* on the event's callbacks, and ``step`` sends it the
outcome, checks what it yields next and subscribes it there, or pushes
its completion.  The triggers above push onto the heap themselves.
``ok``, ``is_alive`` and ``subscribe`` are public API and deliberately
*not* used on that path (``tests/sim/test_frame_budget.py`` keeps it
that way).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Iterator, List, Optional, Tuple, Type, cast

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (for instance, an OSD failure notice).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence with a value (or an exception).

    Processes wait on events by ``yield``-ing them.  An event fires when
    :meth:`succeed` or :meth:`fail` is called; all subscribed callbacks
    run at the simulated time of the trigger.
    """

    __slots__ = (
        "sim", "callbacks", "_value", "_exc", "triggered", "processed",
        "cancelled",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables to run, and processes to resume, when the event
        #: fires; ``None`` once it has been processed.
        self.callbacks: Optional[List[Any]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        #: True once succeed()/fail() has been called.
        self.triggered = False
        #: True once callbacks have run.
        self.processed = False
        #: True when the waiter that created this event abandoned it (an
        #: interrupted process detaching from a queued wait).  A producer
        #: holding the event in a wait queue — :class:`~repro.sim.Resource`
        #: slot grants — must skip cancelled events instead of succeeding
        #: them, otherwise the granted slot is handed to a process that
        #: will never release it (a silent leak; for a lock, a deadlock).
        self.cancelled = False

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (no exception)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value. Only meaningful once triggered and ``ok``."""
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None``."""
        return self._exc

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._value = value
        sim = self.sim
        heappush(sim._queue, (sim.now, next(sim._seq), self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception ``exc``.

        Any process waiting on the event will have ``exc`` thrown into it.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._exc = exc
        sim = self.sim
        heappush(sim._queue, (sim.now, next(sim._seq), self))
        return self

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been processed the callback is scheduled
        to run immediately (at the current simulated time).
        """
        if self.callbacks is None:
            self.sim.call_soon(callback, self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


#: An :class:`Event` without its ``__init__`` frame; the caller sets every slot.
_new_event = cast(Callable[[Type[Event]], Event], object.__new__)

#: What a :class:`Process` has for its lock list until it takes a lock:
#: one shared, empty, immutable stand-in (most processes take none).
_NO_LOCKS = cast(List[Tuple[int, Any]], ())


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ spelled out (born triggered): one frame less on
        # the most-created event type.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self.triggered = True
        self.processed = self.cancelled = False
        self.delay = delay
        heappush(sim._queue, (sim.now + delay, next(sim._seq), self))


class Process(Event):
    """A generator-driven activity, started by :meth:`Simulator.process`.

    The generator may ``yield`` any :class:`Event`; the process resumes
    with the event's value (or has the event's exception thrown into it).
    A process is itself an event that fires with the generator's return
    value, so processes can wait on each other.  It waits by putting
    *itself* on the callbacks of the event it yields, and
    :meth:`Simulator.step` drives it there: there is no resume callback.
    """

    __slots__ = ("gen", "_waiting_on", "locks")

    gen: Generator[Event, Any, Any]
    #: The event that resumes the generator; ``None`` while it runs or is done.
    _waiting_on: Optional[Event]
    #: The ascending ``(rank, key)`` of every lock it holds or awaits, which a
    #: :class:`~repro.sim.LockTable` keeps in lock order (shared and empty
    #: until the first lock).
    locks: List[Tuple[int, Any]]

    def __init__(self, *_args: Any) -> None:
        raise TypeError("start a process with Simulator.process()")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time
        (a no-op once it has finished)."""
        if self.triggered:
            return
        sim = self.sim
        carrier = _Interruption(sim)
        carrier.callbacks = [self]
        carrier._exc = Interrupt(cause)
        carrier.triggered = True
        heappush(sim._queue, (sim.now, next(sim._seq), carrier))


class _Interruption(Event):
    """The event that carries an :class:`Interrupt` to its process, which
    :meth:`Simulator.step` delivers whatever the process waits on."""

    __slots__ = ()


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: List[Event] = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        on_child = self._on_child
        for event in self.events:
            if event.callbacks is None:  # already processed
                sim.call_soon(on_child, event)
            else:
                event.callbacks.append(on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when *all* child events have fired.

    Succeeds with the list of child values (in construction order).
    Fails with the first child exception observed.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child._value for child in self.events])


class AnyOf(_Condition):
    """Fires when *any* child event fires; value is ``(event, value)``."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self.succeed((event, event._value))


class Simulator:
    """The event loop: a clock plus a priority queue of pending events.

    All times are floats in **seconds** of simulated time.
    """

    def __init__(self) -> None:
        #: Current simulated time, in seconds.
        self.now: float = 0.0
        self._queue: List[Any] = []
        self._seq: Iterator[int] = itertools.count()
        self._processed_events = 0
        #: The process whose generator is currently executing (set by
        #: :meth:`step`); ``None`` between process steps.
        self._current_task: Optional[Process] = None

    @property
    def current_task(self) -> Optional[Process]:
        """The process currently executing, or ``None`` (kernel context)."""
        return self._current_task

    # -- scheduling ------------------------------------------------------

    def call_soon(self, func: Callable[..., None], *args: Any) -> None:
        """Schedule ``func(*args)`` at the current simulated time."""
        self.call_later(0.0, func, *args)

    def call_later(self, delay: float, func: Callable[..., None], *args: Any) -> None:
        """Schedule ``func(*args)`` after ``delay`` simulated seconds."""
        event = Event(self)
        event.triggered = True
        event.callbacks = [lambda _ev: func(*args)]
        heappush(self._queue, (self.now + delay, next(self._seq), event))

    # -- event / process constructors -------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        """Start ``gen`` as a :class:`Process` at the current time: the
        one way to make a process (its slots are set here, with no
        ``__init__`` frame), counted by the e2e benchmark."""
        if not hasattr(gen, "send"):
            raise TypeError(f"process() requires a generator, got {gen!r}")
        proc = cast(Process, _new_event(Process))
        proc.sim = self
        proc.callbacks = []
        proc._value = proc._exc = None
        proc.triggered = proc.processed = proc.cancelled = False
        proc.gen = gen
        proc.locks = _NO_LOCKS
        # Kick off at the current time: a bootstrap event, already
        # triggered, that only this process waits on.
        bootstrap = proc._waiting_on = _new_event(Event)
        bootstrap.sim = self
        bootstrap.callbacks = [proc]
        bootstrap._value = bootstrap._exc = None
        bootstrap.triggered = True
        bootstrap.processed = bootstrap.cancelled = False
        heappush(self._queue, (self.now, next(self._seq), bootstrap))
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- running -----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one queued event, advancing the clock to it:
        run its callbacks and drive each process waiting on it.

        :meth:`run` and :meth:`run_until_complete` call it once per event,
        so a profiler's call count of ``step`` *is* the event count (the
        e2e benchmark reads it that way)."""
        queue = self._queue
        when, _seq, event = heappop(queue)
        if when < self.now:
            raise SimulationError("time went backwards")
        self.now = when
        self._processed_events += 1
        callbacks, event.callbacks = event.callbacks, None
        event.processed = True
        for proc in callbacks:
            if proc.__class__ is not Process:
                proc(event)
                continue
            waited = proc._waiting_on
            if waited is not event:
                # A stale wake-up (the process was interrupted, or is
                # done) is dropped.  An interrupt is delivered whatever it
                # waits on, and cancels that wait, so a queue-holding
                # producer (Resource, LockTable) skips it, never grants it.
                if event.__class__ is not _Interruption or proc.triggered:
                    continue
                if waited is not None and not waited.triggered:
                    waited.cancelled = True
            proc._waiting_on = None
            gen = proc.gen
            value, exc = event._value, event._exc
            # Synchronous callees (the tracer's span context, lock order)
            # attribute their effects to the running process.
            previous, self._current_task = self._current_task, proc
            try:
                while True:
                    try:
                        target = gen.send(value) if exc is None else gen.throw(exc)
                    except StopIteration as stop:
                        proc._value = stop.value
                    except BaseException as error:
                        proc._exc = error
                    else:
                        if not isinstance(target, Event):
                            value, exc = None, SimulationError(
                                f"process yielded non-event {target!r}")
                        elif target.sim is not self:
                            value, exc = None, SimulationError("event belongs to another simulator")
                        elif target.callbacks is not None:
                            target.callbacks.append(proc)
                            proc._waiting_on = target
                            break
                        else:
                            # Already processed: a relay carries its outcome.
                            relay = proc._waiting_on = _new_event(Event)
                            relay.sim = self
                            relay.callbacks = [proc]
                            relay._value, relay._exc = target._value, target._exc
                            relay.triggered = True
                            relay.processed = relay.cancelled = False
                            heappush(queue, (self.now, next(self._seq), relay))
                            break
                        continue
                    # The generator has finished: fire the process itself.
                    proc.triggered = True
                    heappush(queue, (self.now, next(self._seq), proc))
                    break
            finally:
                self._current_task = previous

    def peek(self) -> float:
        """Time of the next queued event, or ``float('inf')`` if idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until simulated time ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier.
        """
        if until is None:
            while self._queue:
                self.step()
            return
        if until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        while self._queue and self._queue[0][0] <= until:
            self.step()
        self.now = until

    def run_until_complete(self, event: Event) -> Any:
        """Run until ``event`` fires; return its value (or raise).

        This is the bridge between synchronous test/bench code and the
        simulated world: wrap an operation in a process and drive the loop
        until it resolves.  A process that called it would run the loop
        from inside one of its steps, so that raises.
        """
        if self._current_task is not None:
            raise SimulationError("run_until_complete() called inside a process")
        while not event.triggered:
            if not self._queue:
                raise SimulationError("deadlock: event queue drained while waiting")
            self.step()
        # Let same-timestamp callbacks (e.g. resource releases) settle.
        return event.value
