"""Unit tests for the simulation kernel's event loop and processes."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.core import Interrupt, Process


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.5)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 1.5
    assert sim.now == 1.5


def test_timeout_carries_value():
    sim = Simulator()

    def proc(sim):
        got = yield sim.timeout(1.0, value="payload")
        return got

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)

    for name, delay in [("c", 3.0), ("a", 1.0), ("b", 2.0)]:
        sim.process(proc(sim, name, delay))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    """Events scheduled for the same instant fire in scheduling order."""
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in "abcde":
        sim.process(proc(sim, name))
    sim.run()
    assert order == list("abcde")


def test_process_waits_on_process():
    sim = Simulator()

    def inner(sim):
        yield sim.timeout(2.0)
        return 42

    def outer(sim):
        value = yield sim.process(inner(sim))
        return value + 1

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == 43


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    def outer(sim):
        try:
            yield sim.process(failing(sim))
        except RuntimeError as exc:
            return f"caught {exc}"

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == "caught boom"


def test_uncaught_process_exception_fails_process_event():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(1.0)
        raise ValueError("bad")

    p = sim.process(failing(sim))
    sim.run()
    assert p.triggered and not p.ok
    with pytest.raises(ValueError):
        _ = p.value


def test_event_succeed_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_simulator_process_is_the_one_constructor():
    sim = Simulator()
    with pytest.raises(TypeError, match="requires a generator"):
        sim.process(lambda: None)
    with pytest.raises(TypeError, match="Simulator.process"):
        Process(sim, iter(()))
    assert sim._queue == []


def test_subscribe_after_processed_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    sim.run()
    seen = []
    ev.subscribe(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def proc(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def outer(sim):
        ps = [sim.process(proc(sim, d, v)) for d, v in [(3, "x"), (1, "y")]]
        values = yield sim.all_of(ps)
        return values

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == ["x", "y"]  # construction order, not completion order
    assert sim.now == 3


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def outer(sim):
        values = yield sim.all_of([])
        return (sim.now, values)

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == (0.0, [])


def test_any_of_returns_first():
    sim = Simulator()

    def proc(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def outer(sim):
        slow = sim.process(proc(sim, 5, "slow"))
        fast = sim.process(proc(sim, 1, "fast"))
        event, value = yield sim.any_of([slow, fast])
        return (sim.now, value, event is fast)

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == (1.0, "fast", True)


def test_all_of_propagates_failure():
    sim = Simulator()

    def ok(sim):
        yield sim.timeout(1.0)

    def bad(sim):
        yield sim.timeout(2.0)
        raise KeyError("k")

    def outer(sim):
        try:
            yield sim.all_of([sim.process(ok(sim)), sim.process(bad(sim))])
        except KeyError:
            return "failed"

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == "failed"


def test_interrupt_raises_in_process():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            return "slept"
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)

    def interrupter(sim, victim):
        yield sim.timeout(3.0)
        victim.interrupt("stop now")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert victim.value == ("interrupted", "stop now", 3.0)


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(quick(sim))
    sim.run()
    p.interrupt("too late")
    sim.run()
    assert p.value == "done"


def test_interrupted_process_can_keep_running():
    """After catching Interrupt, the process continues; the stale timeout
    wake-up must not resume it a second time."""
    sim = Simulator()

    def sleeper(sim):
        resumed = 0
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        resumed += 1
        yield sim.timeout(5.0)
        return (resumed, sim.now)

    def interrupter(sim, victim):
        yield sim.timeout(1.0)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert victim.value == (1, 6.0)


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_complete_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "answer"

    p = sim.process(proc(sim))
    assert sim.run_until_complete(p) == "answer"


def test_run_until_complete_deadlock_detected():
    sim = Simulator()
    ev = sim.event()  # never triggered

    def waiter(sim, ev):
        yield ev

    p = sim.process(waiter(sim, ev))
    with pytest.raises(SimulationError):
        sim.run_until_complete(p)


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    p = sim.process(bad(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.exception, SimulationError)


def test_cross_simulator_event_is_error():
    sim_a, sim_b = Simulator(), Simulator()

    def bad(sim_a, sim_b):
        yield sim_b.timeout(1.0)

    p = sim_a.process(bad(sim_a, sim_b))
    sim_a.run()
    assert not p.ok
    assert isinstance(p.exception, SimulationError)


def test_call_later_ordering():
    sim = Simulator()
    seen = []
    sim.call_later(2.0, seen.append, "late")
    sim.call_soon(seen.append, "soon")
    sim.run()
    assert seen == ["soon", "late"]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.call_later(7.0, lambda: None)
    assert sim.peek() == 7.0
