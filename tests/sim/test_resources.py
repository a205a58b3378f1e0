"""Unit tests for Resource and LockTable."""

import pytest

from repro.sim import LockTable, Resource, SimulationError, Simulator
from repro.sim.core import Interrupt


# ---------------------------------------------------------------- Resource


def test_resource_serializes_unit_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    finish = []

    def user(sim, res, name):
        yield res.hold(2.0)
        finish.append((name, sim.now))

    for name in ("a", "b", "c"):
        sim.process(user(sim, res, name))
    sim.run()
    assert finish == [("a", 2.0), ("b", 4.0), ("c", 6.0)]


def test_resource_parallel_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    finish = []

    def user(sim, res, name):
        yield res.hold(2.0)
        finish.append((name, sim.now))

    for name in ("a", "b", "c"):
        sim.process(user(sim, res, name))
    sim.run()
    # a and b run together; c waits for the first release.
    assert finish == [("a", 2.0), ("b", 2.0), ("c", 4.0)]


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, res, name, arrive):
        yield sim.timeout(arrive)
        yield res.hold(1.0)
        order.append(name)

    sim.process(user(sim, res, "first", 0.0))
    sim.process(user(sim, res, "second", 0.1))
    sim.process(user(sim, res, "third", 0.2))
    sim.run()
    assert order == ["first", "second", "third"]


def test_resource_release_without_acquire():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release(sim.event())


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_utilization_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        yield res.hold(4.0)
        yield sim.timeout(4.0)  # idle period

    p = sim.process(user(sim, res))
    sim.run_until_complete(p)
    sim.run()
    assert res.utilization() == pytest.approx(0.5)


def test_resource_queue_len():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        yield res.hold(10.0)

    def waiter(sim, res):
        yield sim.timeout(1.0)
        yield res.hold(1.0)

    sim.process(holder(sim, res))
    sim.process(waiter(sim, res))
    sim.run(until=2.0)
    assert res.queue_len == 1
    assert res.in_use == 1


def test_uncontended_resource_never_builds_a_waiter_queue():
    """Most locks are taken and released without anyone queueing: those
    must not each own an empty deque (~760 bytes, 15k of them per run),
    and neither must a device that never queues."""
    from collections import deque

    sim = Simulator()
    table = LockTable(sim, "test.lock:{}", 0)
    for _ in range(100):  # 10 000 uncontended cycles
        for key in range(100):
            held = []
            grant = table.acquire(key, held)
            assert grant.triggered
            assert not isinstance(table._locks[key].waiters, deque)
            table.release(held)
    assert len(table) == 0
    device = Resource(sim, capacity=2)
    device.hold(1.0)
    device.hold(1.0)
    sim.run()
    assert not isinstance(device._waiters, deque)
    assert (device.in_use, device.queue_len) == (0, 0)


def test_first_waiter_builds_the_queue_and_order_is_unchanged():
    """Once contended: FIFO across waiters, a cancelled waiter is
    skipped, and the drained queue is reused."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def served(name):
        try:
            yield res.hold(1.0)
        except Interrupt:
            return  # interrupted while queued: never held the slot
        order.append((name, sim.now))

    sim.process(served("a"))
    sim.process(served("b"))
    doomed = sim.process(served("c"))
    sim.process(served("d"))
    _interrupt_at(sim, doomed, 0.5)
    sim.run(until=0.25)
    assert res.queue_len == 3
    sim.run()
    assert order == [("a", 1.0), ("b", 2.0), ("d", 3.0)]
    assert (res.in_use, res.queue_len) == (0, 0)
    sim.process(served("e"))
    sim.process(served("f"))
    sim.run()
    assert order[3:] == [("e", 4.0), ("f", 5.0)]


def test_serve_is_one_event_per_service():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        yield res.hold(1.0)  # granted at once
        yield res.hold(0.5)

    def second():
        yield res.hold(2.0)  # queued: granted inside a release()

    sim.process(user())
    sim.process(second())
    sim.run()
    assert sim.now == 3.5
    # Two bootstraps, three services, two process completions.
    assert sim._processed_events == 7
    assert (res.in_use, res.queue_len, res.busy_time) == (0, 0, 3.5)


def test_hold_is_triggered_once_service_starts_and_rejects_negative_time():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first, second = res.hold(1.0), res.hold(1.0)
    assert first.triggered and not second.triggered
    assert (res.in_use, res.queue_len) == (1, 1)
    with pytest.raises(ValueError):
        res.hold(-1.0)
    assert (res.in_use, res.queue_len) == (1, 1)
    # Nobody waits on either: each completion frees its own slot, and
    # the first one's hands it to the second.
    sim.run(until=1.0)
    assert first.processed and second.triggered and not second.processed
    assert (res.in_use, res.queue_len) == (1, 0)
    sim.run()
    assert sim.now == 2.0 and second.processed
    assert (res.in_use, res.queue_len, res.busy_time) == (0, 0, 2.0)

    # Yielded from a process, the check fails the caller before it
    # takes a slot.
    def negative():
        yield res.hold(-1.0)

    failed = sim.process(negative())
    sim.run()
    assert isinstance(failed.exception, ValueError)
    assert (res.in_use, res.queue_len) == (0, 0)


def _interrupt_at(sim, target, when, cause="deadline"):
    def interrupter():
        yield sim.timeout(when)
        target.interrupt(cause)

    return sim.process(interrupter())


def test_deadline_on_the_grant_instant_does_not_wedge_the_device():
    # A per-attempt deadline (faults/retry.py) that fires in the instant a
    # service starts.  When a service was a grant event plus a Timeout,
    # the Interrupt overtook the grant's wake-up and landed where nobody
    # released the slot: the device stayed busy for the rest of the run.
    # Now the service that has started runs to its completion, which
    # frees the slot whoever is listening.
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker():
        try:
            yield res.hold(1.0)
            yield res.hold(1.0)
        except Interrupt as intr:
            log.append(("worker", intr.cause, sim.now, res.in_use))

    def late():
        yield sim.timeout(5.0)
        yield res.hold(0.5)
        log.append(("late", sim.now))

    victim = sim.process(worker())
    _interrupt_at(sim, victim, 1.0)  # started after the worker
    late_arrival = sim.process(late())
    sim.run(until=1.5)
    # Interrupted in its second service, which keeps the device.
    assert log == [("worker", "deadline", 1.0, 1)]
    assert (res.in_use, res.queue_len) == (1, 0)
    sim.run()
    assert log[1:] == [("late", 5.5)]
    assert late_arrival.ok
    assert (res.in_use, res.queue_len) == (0, 0)
    assert res.busy_time == 2.5


def test_interrupt_while_queued_is_skipped_and_leaks_no_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(name, duration):
        try:
            yield res.hold(duration)
            log.append((name, sim.now))
        except Interrupt:
            log.append((name, "interrupted", sim.now, res.in_use, res.queue_len))

    sim.process(user("holder", 2.0))
    victim = sim.process(user("victim", 1.0))
    sim.process(user("next", 1.0))
    _interrupt_at(sim, victim, 1.0)
    sim.run(until=1.5)
    # The victim never had a slot; its cancelled entry waits in the queue
    # for the release() that skips it.
    assert log == [("victim", "interrupted", 1.0, 1, 2)]
    assert (res.in_use, res.queue_len) == (1, 2)
    sim.run(until=2.5)
    assert (res.in_use, res.queue_len) == (1, 0)
    sim.run()
    assert log[1:] == [("holder", 2.0), ("next", 3.0)]
    assert (res.in_use, res.queue_len, res.busy_time) == (0, 0, 3.0)


def test_interrupted_waiter_does_not_wedge_the_resource():
    # Regression: task B queues on a held lock and is interrupted (a
    # retry deadline); its abandoned waiter slot must not absorb the
    # release, or C can never acquire.
    sim = Simulator()
    table = LockTable(sim, "test.lock:{}", 0)
    order = []

    def holder():
        held = []
        try:
            yield table.acquire("k", held)
            yield sim.timeout(1.0)
        finally:
            table.release(held)

    def impatient():
        yield sim.timeout(0.1)
        held = []
        try:
            yield table.acquire("k", held)
        except Interrupt:
            order.append("interrupted")
        finally:
            table.release(held)

    def successor():
        yield sim.timeout(0.2)
        held = []
        try:
            yield table.acquire("k", held)
            order.append("acquired")
        finally:
            table.release(held)

    sim.process(holder())
    victim = sim.process(impatient())
    _interrupt_at(sim, victim, 0.5)
    sim.process(successor())
    sim.run()
    assert order == ["interrupted", "acquired"]
    assert len(table) == 0


def test_interrupt_in_service_keeps_the_slot_until_the_completion():
    """A started service is not cut short: the device stays busy until
    the completion, which frees the slot and starts the next waiter."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(name, arrive, duration):
        yield sim.timeout(arrive)
        try:
            yield res.hold(duration)
            log.append((name, sim.now))
        except Interrupt:
            log.append((name, "interrupted", sim.now, res.in_use, res.queue_len))

    def probe():
        # The victim's completion pops at t=3 with nobody listening: it
        # frees the slot, which goes straight to the waiter.
        yield sim.timeout(3.0)
        yield sim.timeout(0.0)
        log.append(("probe", sim.now, res.in_use, res.queue_len))

    victim = sim.process(user("victim", 0.0, 3.0))
    sim.process(user("waiter", 0.5, 1.0))
    sim.process(user("late", 2.5, 1.0))
    sim.process(probe())
    _interrupt_at(sim, victim, 1.0)
    sim.run()
    assert log == [
        # Still in service: the waiter stays queued.
        ("victim", "interrupted", 1.0, 1, 1),
        ("probe", 3.0, 1, 1),
        ("waiter", 4.0),
        ("late", 5.0),
    ]
    assert (res.in_use, res.queue_len, res.busy_time) == (0, 0, 5.0)


# --------------------------------------------------------------- LockTable

#: name -> (users as (name, arrive, hold[, shared]), interrupts as
#: (name, when), expected log).  A "granted" line carries the number of
#: holders then, a "done" line the number of table entries left.
LOCK_PLANS = {
    "uncontended": (
        [("a", 0.0, 1.0)],
        [],
        [("a", "granted", 0.0, 1), ("a", "done", 1.0, 0)],
    ),
    "queued-then-cancelled": (
        [("holder", 0.0, 2.0), ("victim", 0.5, 1.0), ("next", 1.0, 1.0)],
        [("victim", 1.0)],
        [
            ("holder", "granted", 0.0, 1),
            ("victim", "interrupted", 1.0),
            ("victim", "done", 1.0, 1),
            ("holder", "done", 2.0, 1),  # skipped the victim, handed to next
            ("next", "granted", 2.0, 1),
            ("next", "done", 3.0, 0),
        ],
    ),
    "interrupted-at-the-grant-instant": (
        # The deadline's interrupt is queued first, then the holder's
        # release hands the lock to the victim: the victim is interrupted
        # owning a grant it never woke up for, and still gives it back.
        [("holder", 0.0, 1.0), ("victim", 0.5, 1.0), ("late", 1.0, 1.0)],
        [("victim", 1.0)],
        [
            ("holder", "granted", 0.0, 1),
            ("holder", "done", 1.0, 1),
            ("victim", "interrupted", 1.0),
            ("victim", "done", 1.0, 1),
            ("late", "granted", 1.0, 1),
            ("late", "done", 2.0, 0),
        ],
    ),
    "dropped-when-idle": (
        [("a", 0.0, 1.0), ("b", 2.0, 1.0)],
        [],
        [
            ("a", "granted", 0.0, 1),
            ("a", "done", 1.0, 0),
            ("b", "granted", 2.0, 1),
            ("b", "done", 3.0, 0),
        ],
    ),
    "recreated-after-the-drop": (
        # The victim's cancelled waiter dies with the dropped entry; the
        # fresh lock the late user gets is never granted to it too.
        [("holder", 0.0, 1.0), ("victim", 0.5, 1.0), ("late", 1.5, 1.0)],
        [("victim", 0.8)],
        [
            ("holder", "granted", 0.0, 1),
            ("victim", "interrupted", 0.8),
            ("victim", "done", 0.8, 1),
            ("holder", "done", 1.0, 0),
            ("late", "granted", 1.5, 1),
            ("late", "done", 2.5, 0),
        ],
    ),
    "shared-holders-granted-together": (
        [("a", 0.0, 2.0, True), ("b", 0.5, 2.0, True), ("x", 1.0, 1.0)],
        [],
        [
            ("a", "granted", 0.0, 1),
            ("b", "granted", 0.5, 2),  # beside a, not after it
            ("a", "done", 2.0, 1),
            ("b", "done", 2.5, 1),  # the exclusive x waited for both
            ("x", "granted", 2.5, 1),
            ("x", "done", 3.5, 0),
        ],
    ),
    "exclusive-waiter-blocks-later-shared": (
        # FIFO across modes: c could share with a, but queues behind x.
        [("a", 0.0, 2.0, True), ("x", 0.5, 1.0), ("c", 1.0, 1.0, True),
         ("d", 1.5, 1.0, True)],
        [],
        [
            ("a", "granted", 0.0, 1),
            ("a", "done", 2.0, 1),
            ("x", "granted", 2.0, 1),
            ("x", "done", 3.0, 1),
            ("c", "granted", 3.0, 1),  # every shared waiter behind x at once
            ("d", "granted", 3.0, 2),
            ("c", "done", 4.0, 1),
            ("d", "done", 4.0, 0),
        ],
    ),
    "cancelled-exclusive-waiter-skipped": (
        # x gives up while queued, with b queued behind it: the next
        # request drops x and grants b, then shares the lock itself.
        [("a", 0.0, 3.0, True), ("x", 0.5, 1.0), ("b", 1.0, 1.0, True),
         ("c", 2.0, 1.0, True)],
        [("x", 1.5)],
        [
            ("a", "granted", 0.0, 1),
            ("x", "interrupted", 1.5),
            ("x", "done", 1.5, 1),
            ("b", "granted", 2.0, 2),
            ("c", "granted", 2.0, 3),
            ("a", "done", 3.0, 1),
            ("b", "done", 3.0, 1),
            ("c", "done", 3.0, 0),
        ],
    ),
    "cancelled-waiter-skipped-by-a-shared-release": (
        # a's release skips the dead x and grants the shared b.
        [("a", 0.0, 2.0, True), ("x", 0.5, 1.0), ("b", 1.0, 1.0, True)],
        [("x", 1.5)],
        [
            ("a", "granted", 0.0, 1),
            ("x", "interrupted", 1.5),
            ("x", "done", 1.5, 1),
            ("a", "done", 2.0, 1),
            ("b", "granted", 2.0, 1),
            ("b", "done", 3.0, 0),
        ],
    ),
}


@pytest.mark.parametrize(
    "users, interrupts, expected", LOCK_PLANS.values(), ids=list(LOCK_PLANS)
)
def test_lock_table(users, interrupts, expected):
    sim = Simulator()
    table = LockTable(sim, "test.lock:{}", 0)
    log, holders, procs = [], [], {}

    def user(name, arrive, hold, shared=False):
        yield sim.timeout(arrive)
        held = []
        try:
            yield table.acquire("k", held, shared=shared)
            holders.append(name)
            log.append((name, "granted", sim.now, len(holders)))
            yield sim.timeout(hold)
        except Interrupt:
            log.append((name, "interrupted", sim.now))
        finally:
            if name in holders:
                holders.remove(name)
            table.release(held)
        log.append((name, "done", sim.now, len(table)))

    def deadline(name, when):
        yield sim.timeout(when)
        procs[name].interrupt("deadline")

    # Deadlines start first, so at a tie their interrupt is queued
    # before a user's wake-up.
    for name, when in interrupts:
        sim.process(deadline(name, when))
    for name, *plan in users:
        procs[name] = sim.process(user(name, *plan))
    sim.run()
    assert log == expected
    assert len(table) == 0


# ---------------------------------------------------------------- lock order


def _lock_order_tables(sim):
    """The three ranks the tier and the substrate use."""
    return (
        LockTable(sim, "tier.object:{}", 0),
        LockTable(sim, "tier.chunk:{}", 1),
        LockTable(sim, "rados.write:{}", 2),
    )


def _run_task(sim, gen):
    task = sim.process(gen)
    sim.run()
    return task


def test_ascending_keys_and_ranks_pass():
    sim = Simulator()
    objects, chunks, writes = _lock_order_tables(sim)
    seen = []

    def task():
        held_o, held_c, held_w = [], [], []
        try:
            for key in ("a", "b"):
                yield objects.acquire(key, held_o)
            for key in ("a", "z"):
                yield chunks.acquire(key, held_c)
            yield writes.acquire("a", held_w, shared=True)
            seen.append(list(sim.current_task.locks))
        finally:
            writes.release(held_w)
            chunks.release(held_c)
            objects.release(held_o)
        seen.append(list(sim.current_task.locks))

    assert _run_task(sim, task()).ok
    assert seen == [[(0, "a"), (0, "b"), (1, "a"), (1, "z"), (2, "a")], []]


def test_a_descending_key_raises():
    sim = Simulator()
    objects, _chunks, _writes = _lock_order_tables(sim)

    def task():
        held = []
        try:
            for key in ("b", "a"):
                yield objects.acquire(key, held)
        finally:
            objects.release(held)

    failed = _run_task(sim, task())
    assert isinstance(failed.exception, SimulationError)
    assert "tier.object:a" in str(failed.exception)
    assert len(objects) == 0 and failed.locks == []


def test_the_same_key_twice_raises():
    sim = Simulator()
    objects, _chunks, _writes = _lock_order_tables(sim)

    def task():
        held = []
        try:
            yield objects.acquire("a", held, shared=True)
            yield objects.acquire("a", held, shared=True)
        finally:
            objects.release(held)

    assert isinstance(_run_task(sim, task()).exception, SimulationError)


def test_an_object_lock_under_a_chunk_lock_raises():
    sim = Simulator()
    objects, chunks, _writes = _lock_order_tables(sim)

    def task():
        held_c, held_o = [], []
        try:
            yield chunks.acquire("a", held_c)
            try:
                yield objects.acquire("z", held_o)
            finally:
                objects.release(held_o)
        finally:
            chunks.release(held_c)

    failed = _run_task(sim, task())
    assert isinstance(failed.exception, SimulationError)
    assert (len(objects), len(chunks)) == (0, 0)


def test_after_a_release_a_lower_key_can_be_taken():
    sim = Simulator()
    objects, chunks, _writes = _lock_order_tables(sim)

    def task():
        for table, key in ((objects, "z"), (objects, "a"), (chunks, "z"), (objects, "a")):
            held = []
            try:
                yield table.acquire(key, held)
            finally:
                table.release(held)
        # An inner list released before an outer one, out of order.
        outer, inner = [], []
        try:
            yield objects.acquire("a", outer)
            yield objects.acquire("b", inner)
        finally:
            objects.release(outer)
            assert sim.current_task.locks == [(0, "b")]
            objects.release(inner)
        return sim.current_task.locks

    task = _run_task(sim, task())
    assert task.ok and task.value == []


def test_an_interrupted_waiter_releases_into_an_empty_lock_list():
    sim = Simulator()
    objects, _chunks, _writes = _lock_order_tables(sim)
    lists = []

    def holder():
        held = []
        try:
            yield objects.acquire("k", held)
            yield sim.timeout(1.0)
        finally:
            objects.release(held)

    def waiter():
        held = []
        try:
            yield objects.acquire("k", held)
        except Interrupt:
            lists.append(list(sim.current_task.locks))
        finally:
            objects.release(held)
        lists.append(list(sim.current_task.locks))

    sim.process(holder())
    victim = sim.process(waiter())
    _interrupt_at(sim, victim, 0.5)
    sim.run()
    assert lists == [[(0, "k")], []]
    assert len(objects) == 0


def test_locks_taken_outside_a_process_are_not_ordered():
    """Synchronous test code holds a lock for a process to queue on."""
    sim = Simulator()
    objects, _chunks, _writes = _lock_order_tables(sim)
    held = []
    objects.acquire("b", held)
    objects.acquire("a", [])
    objects.release(held)
    assert len(objects) == 1


def test_run_until_complete_inside_a_process_raises():
    sim = Simulator()

    def task():
        yield sim.timeout(1.0)
        return sim.run_until_complete(sim.timeout(1.0, "nested"))

    failed = _run_task(sim, task())
    assert isinstance(failed.exception, SimulationError)
    assert sim.run_until_complete(sim.timeout(1.0, "outside")) == "outside"
