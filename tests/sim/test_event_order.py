"""The kernel's ordering contract, pinned as one literal trace.

Everything a simulation can observe about ordering comes from one rule:
every ``succeed``, ``fail``, ``Timeout``, process bootstrap,
``call_later``/``call_soon`` and start of a held service
(``Resource.hold``) takes exactly one sequence number at the
moment it is made, and events fire in ``(time, sequence)`` order with
each event's callbacks in subscription order.  The scenario below ties
as many of those triggers as it can on the same timestamps; its expected
``(sim.now, label)`` trace is written out by hand, so any rewrite of the
kernel that moves, adds or drops a sequence number shows up as a diff in
this file rather than as a drifted benchmark number.
"""

import gc
import weakref

import pytest

from repro.sim import LockTable, Resource, SimulationError, Simulator
from repro.sim.core import Interrupt


def run_scenario():
    sim = Simulator()
    other = Simulator()
    log = []

    def note(label):
        log.append((sim.now, label))

    # -- t=0: bootstraps, timeout(0), call_soon and an AllOf over processes --

    def worker(name):
        note(name + ":start")
        yield sim.timeout(0)
        note(name + ":after-timeout0")
        return name

    def join(procs):
        note("join:start")
        values = yield sim.all_of(procs)
        note("join:%s" % "+".join(values))

    sim.call_soon(note, "soon-1")
    a1 = sim.process(worker("a1"))
    sim.call_soon(note, "soon-2")
    a2 = sim.process(worker("a2"))
    sim.process(join([a1, a2]))

    early = sim.event()
    early.succeed("early")  # processed at t=0, yielded again at t=4

    # -- t=0..1: a FIFO hand-off chain, with one queued waiter interrupted --

    lock = LockTable(sim, "test.lock:{}", 0)

    def holder():
        held = []
        yield lock.acquire("k", held)
        note("holder:granted")
        yield sim.timeout(1.0)
        lock.release(held)
        note("holder:released")
        yield sim.timeout(0)
        note("holder:after-timeout0")

    def waiter(name):
        note(name + ":queued")
        held = []
        yield lock.acquire("k", held)
        note(name + ":granted")
        lock.release(held)
        note(name + ":released")

    def victim():
        note("victim:queued")
        held = []
        try:
            yield lock.acquire("k", held)
            note("victim:granted")
        except Interrupt as intr:
            queued = len(lock._locks["k"].waiters)
            note("victim:interrupted(%s) queue_len=%d" % (intr.cause, queued))
        lock.release(held)
        yield sim.timeout(0.5)
        note("victim:done")

    def interrupter(target):
        yield sim.timeout(0.5)
        note("interrupter:fires")
        target.interrupt("deadline")
        note("interrupter:returned")

    sim.process(holder())
    sim.process(waiter("w1"))
    doomed = sim.process(victim())
    sim.process(waiter("w2"))
    sim.process(interrupter(doomed))

    # -- t=2: an interrupt overtakes a wake-up that is already on the heap --

    gate = sim.event()

    def sleeper():
        try:
            value = yield gate
            note("sleeper:woke(%s)" % value)
        except Interrupt as intr:
            note("sleeper:interrupted(%s)" % intr.cause)
        value = yield sim.timeout(1.0, value="second-wait")
        note("sleeper:woke(%s)" % value)

    def racer(target):
        yield sim.timeout(2.0)
        target.interrupt("overtake")
        gate.succeed("stale")
        note("racer:done")

    sim.process(racer(sim.process(sleeper())))

    # -- t=4: an already-processed event, a non-event, a foreign event --

    def late():
        yield sim.timeout(4.0)
        sim.call_soon(note, "late:soon")
        value = yield early
        note("late:got(%s)" % value)
        try:
            yield 42
        except SimulationError as error:
            note("late:non-event(%s)" % error)
        try:
            yield other.event()
        except SimulationError as error:
            note("late:foreign(%s)" % error)
        yield sim.timeout(0)
        note("late:continued")

    def bystander():
        yield sim.timeout(4.0)
        note("bystander:start")
        yield sim.timeout(0)
        note("bystander:after-timeout0")

    sim.process(late())
    sim.process(bystander())

    sim.run()
    return sim, lock, log


EXPECTED = [
    # Heap order at t=0 is creation order: soon-1, a1's bootstrap,
    # soon-2, a2's bootstrap, join's bootstrap, `early`, then the
    # bootstraps of holder, w1, victim, w2, interrupter, sleeper, racer,
    # late, bystander; everything those steps trigger at t=0 queues
    # behind all of them.
    (0.0, "soon-1"),
    (0.0, "a1:start"),
    (0.0, "soon-2"),
    (0.0, "a2:start"),
    (0.0, "join:start"),
    (0.0, "w1:queued"),
    (0.0, "victim:queued"),
    (0.0, "w2:queued"),
    (0.0, "a1:after-timeout0"),
    (0.0, "a2:after-timeout0"),
    (0.0, "holder:granted"),
    (0.0, "join:a1+a2"),
    # The interrupt is delivered one event after interrupt() returns.
    (0.5, "interrupter:fires"),
    (0.5, "interrupter:returned"),
    (0.5, "victim:interrupted(deadline) queue_len=3"),
    # The holder's timeout was made at t=0, the victim's at t=0.5: equal
    # due times fire in creation order.  Hand-off: release() grants w1 at
    # once, but w1 only runs after the releaser has yielded; the
    # cancelled victim is skipped, not granted.
    (1.0, "holder:released"),
    (1.0, "victim:done"),
    (1.0, "w1:granted"),
    (1.0, "w1:released"),
    (1.0, "holder:after-timeout0"),
    (1.0, "w2:granted"),
    (1.0, "w2:released"),
    # The interrupt (queued first) beats the gate's wake-up; the stale
    # wake-up then finds the sleeper waiting on something else.
    (2.0, "racer:done"),
    (2.0, "sleeper:interrupted(overtake)"),
    (3.0, "sleeper:woke(second-wait)"),
    # Yielding a processed event resumes through call_soon: after what
    # was already queued at t=4, before what is queued later.
    (4.0, "bystander:start"),
    (4.0, "late:soon"),
    (4.0, "late:got(early)"),
    (4.0, "late:non-event(process yielded non-event 42)"),
    (4.0, "late:foreign(event belongs to another simulator)"),
    (4.0, "bystander:after-timeout0"),
    (4.0, "late:continued"),
]


def test_same_timestamp_ordering_is_the_pinned_trace():
    sim, lock, log = run_scenario()
    assert log == EXPECTED
    # The interrupted waiter's lock was neither granted nor leaked.
    assert len(lock) == 0
    assert sim.now == 4.0


def test_a_held_service_draws_its_sequence_number_when_it_starts():
    """The sixth draw.  A service's completion is ordered by the instant
    the slot was granted — in ``hold()``, or in the ``release()`` that
    hands the slot over — not by when its waiter would have woken up to
    make a ``Timeout``.  So against a plain timeout with the bit-identical
    due time, the one made first fires first."""
    sim = Simulator()
    disk = Resource(sim, capacity=1)
    log = []

    def served(name, duration):
        yield disk.hold(duration)
        log.append((sim.now, name))

    def slept(name, *delays):
        for delay in delays:
            yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(served("s1", 1.0))  # granted at t=0, in hold()
    sim.process(slept("t1", 1.0))  # made at t=0 after s1 started
    sim.process(served("s2", 1.0))  # queued; granted at t=1 in s1's release()
    sim.process(slept("t2", 2.0))  # made at t=0, before s2 started
    sim.process(slept("t3", 1.0, 1.0))  # second leg made at t=1, after s2 started
    sim.run()
    assert log == [
        (1.0, "s1"), (1.0, "t1"),
        (2.0, "t2"), (2.0, "s2"), (2.0, "t3"),
    ]


def test_finished_process_is_freed_by_refcount_alone():
    """No reference cycle through a process: with the cyclic collector
    off, a finished process and its generator die when the loop drains.
    (Caching ``self._resume`` on the process would make every process a
    self-cycle and cost several percent of peak RSS on the e2e runs.)"""
    sim = Simulator()
    lock = Resource(sim, capacity=1)
    generators = []

    def spawn(gen):
        # Events are slotted and take no weak references; a process holds
        # its generator strongly, so a dead generator means a dead process.
        generators.append(weakref.ref(gen))
        return sim.process(gen)

    def child():
        yield lock.hold(1.0)
        return "child"

    def parent():
        first = yield spawn(child())
        rest = yield sim.all_of([spawn(child()), spawn(child())])
        return [first] + rest

    gc.collect()
    gc.disable()
    try:
        proc = spawn(parent())
        assert sim.run_until_complete(proc) == ["child"] * 3
        sim.run()
        del proc
        assert len(generators) == 4
        assert [ref() for ref in generators] == [None] * 4
    finally:
        gc.enable()


def test_time_going_backwards_is_refused():
    sim = Simulator()
    sim.run(until=5.0)
    sim.call_later(-1.0, lambda: None)  # due at t=4, behind the clock
    with pytest.raises(SimulationError, match="backwards"):
        sim.step()
    assert sim.now == 5.0


def test_current_task_is_the_running_process_and_nests():
    sim = Simulator()
    seen = []

    def inner():
        seen.append(("inner", sim.current_task))
        yield sim.timeout(1.0)

    def outer():
        seen.append(("outer", sim.current_task))
        child = sim.process(inner())
        sim.call_soon(lambda: seen.append(("kernel", sim.current_task)))
        yield child
        seen.append(("outer-again", sim.current_task))

    proc = sim.process(outer())
    assert sim.current_task is None
    sim.run()
    assert sim.current_task is None
    labels = [label for label, _task in seen]
    assert labels == ["outer", "inner", "kernel", "outer-again"]
    tasks = dict(seen)
    assert tasks["outer"] is proc and tasks["outer-again"] is proc
    assert tasks["kernel"] is None
    assert tasks["inner"] is not proc and tasks["inner"].gen is not None
