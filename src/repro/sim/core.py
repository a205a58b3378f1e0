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
each at the moment it happens: :meth:`Event.succeed`, :meth:`Event.fail`,
creating a :class:`Timeout`, starting a :class:`Process` (its bootstrap
event), :meth:`Simulator.call_later` (``call_soon``, interrupts and
waiting on an already-processed event go through it) and the *start of a
held service* — :meth:`Resource.hold <repro.sim.resources.Resource.hold>`
when a slot is free, otherwise the ``release()`` that hands the slot
over (the first callback of the completion before it) — which queues
the service's completion at ``now + duration``.
Nothing else about ordering is observable, so anything else may change
as long as those six draw the same numbers at the same points
(``tests/sim/test_event_order.py`` pins a trace of it).

The sixth draw is what makes a device service one event instead of a
grant event plus a ``Timeout``.  It stands where the grant's draw stood
and lands on the float that ``Timeout`` would have computed in the same
instant, so services keep their order among themselves (completions are
queued in grant order, as the ``Timeout``s were made), and a completion
frees its slot, making the next draw, before its waiter resumes.  One tie is
ordered differently from the two-event form: a *non-service* event made
in the instant a service starts — after the start, before the grant
event would have reached its waiter — and due at the bit-identical time
the service ends (a plain ``timeout(d)`` with ``d`` equal to the service
time) used to fire before the completion and now fires after it.  The
e2e workloads, the ``faults`` / ``rebalance`` scenarios and the test
suite contain no such tie — their results are bit-identical to the
two-event form's, which is the check — and ``test_event_order.py`` pins
the order it now has.

That freedom is spent on host time: every figure this package produces
is millions of events, so the per-event path is two Python frames of
this module — :meth:`Simulator.step` pops the heap and runs the
callbacks itself, and :meth:`Process._resume` is the one loop that
drives the generator, validates what it yields and subscribes to it.
The triggers above push onto the heap themselves.  ``ok``, ``is_alive``
and ``subscribe`` are public API and deliberately *not* used on that
path (``tests/sim/test_frame_budget.py`` keeps it that way).
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
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
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
    """A generator-driven activity.

    The generator may ``yield`` any :class:`Event`; the process resumes
    with the event's value (or has the event's exception thrown into it).
    A process is itself an event that fires with the generator's return
    value, so processes can wait on each other.
    """

    __slots__ = ("gen", "_waiting_on", "locks")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]) -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"process() requires a generator, got {gen!r}")
        # Event.__init__ spelled out, here and for the bootstrap: a start
        # is one frame.
        self.sim = sim
        self.callbacks = []
        self._value = self._exc = None
        self.triggered = self.processed = self.cancelled = False
        self.gen = gen
        #: The ``(rank, key)`` of every lock this process holds or awaits,
        #: ascending: a :class:`~repro.sim.LockTable` keeps it and refuses
        #: a request that would not go on top (its lock order).  Shared
        #: and empty until the first lock.
        self.locks = _NO_LOCKS
        # Kick off at the current time: a bootstrap event, already
        # triggered, whose only subscriber is this process.
        bootstrap = _new_event(Event)
        bootstrap.sim = sim
        bootstrap.callbacks = [self._resume]
        bootstrap._value = bootstrap._exc = None
        bootstrap.triggered = True
        bootstrap.processed = bootstrap.cancelled = False
        #: The event whose firing resumes the generator; ``None`` while
        #: the generator runs and once it has finished.
        self._waiting_on: Optional[Event] = bootstrap
        heappush(sim._queue, (sim.now, next(sim._seq), bootstrap))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op.
        """
        if self.triggered:
            return
        self.sim.call_soon(self._do_interrupt, Interrupt(cause))

    def _do_interrupt(self, exc: Interrupt) -> None:
        if self.triggered:
            return
        # Detach from whatever we were waiting on.  Mark the abandoned
        # event cancelled so a queue-holding producer (Resource) drops it
        # instead of granting to a waiter that is no longer listening.
        stale = self._waiting_on
        if stale is not None and not stale.triggered:
            stale.cancelled = True
        # Deliver the Interrupt as the failure of an event of its own, so
        # interrupts and wake-ups share one resume loop; the abandoned
        # event's callback, if it still runs, no longer matches
        # `_waiting_on` and is dropped there as stale.
        carrier = Event(self.sim)
        carrier._exc = exc
        self._waiting_on = carrier
        self._resume(carrier)

    def _resume(self, event: Event) -> None:
        """The resume loop: the one callback a process ever subscribes.

        Feeds ``event``'s outcome to the generator, then subscribes to
        whatever it yields next.  A fresh bound method is made for every
        subscription — keeping one on ``self`` would turn every process
        into a reference cycle that only the cyclic collector frees
        (measured: +6-9 % peak RSS on the e2e benchmark).
        """
        if event is not self._waiting_on:
            # A stale wake-up from a pre-interrupt subscription, or the
            # process has finished.
            return
        self._waiting_on = None
        sim = self.sim
        gen = self.gen
        value, exc = event._value, event._exc
        # Track the running process on the simulator while the generator
        # executes: synchronous callees (the tracer's span context) can
        # attribute their effects to this task.
        previous = sim._current_task
        sim._current_task = self
        try:
            while True:
                try:
                    if exc is None:
                        target = gen.send(value)
                    else:
                        target = gen.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as error:
                    self.fail(error)
                    return
                if not isinstance(target, Event):
                    value, exc = None, SimulationError(
                        f"process yielded non-event {target!r}"
                    )
                    continue
                if target.sim is not sim:
                    value, exc = None, SimulationError(
                        "event belongs to another simulator"
                    )
                    continue
                self._waiting_on = target
                callbacks = target.callbacks
                if callbacks is None:  # already processed: resume next
                    sim.call_soon(self._resume, target)
                else:
                    callbacks.append(self._resume)
                return
        finally:
            sim._current_task = previous


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
        #: :meth:`Process._resume`); ``None`` between process steps.
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
        """Start ``gen`` as a :class:`Process` at the current time."""
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- running -----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one queued event, advancing the clock to it.

        The per-event entry point: :meth:`run` and
        :meth:`run_until_complete` call it once per event rather than
        inlining it, so a profiler's call count of ``step`` *is* the
        event count (the e2e benchmark reads it that way).
        """
        when, _seq, event = heappop(self._queue)
        if when < self.now:
            raise SimulationError("time went backwards")
        self.now = when
        self._processed_events += 1
        callbacks, event.callbacks = event.callbacks, None
        event.processed = True
        for callback in callbacks:
            callback(event)

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
