"""Property-based tests for the simulation kernel (hypothesis)."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator
from repro.sim.core import Interrupt


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_clock_is_monotonic(delays):
    """However timeouts interleave, observed times never decrease."""
    sim = Simulator()
    observed = []

    def proc(sim, delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.process(proc(sim, delay))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
    )
)
def test_final_time_is_max_delay(delays):
    sim = Simulator()

    def proc(sim, delay):
        yield sim.timeout(delay)

    for delay in delays:
        sim.process(proc(sim, delay))
    sim.run()
    assert sim.now == max(delays)


@given(
    service_times=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50)
def test_resource_conserves_work(service_times, capacity):
    """Total busy-integral equals the sum of service times, regardless of
    capacity and queueing, and makespan >= total_work / capacity."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)

    def user(sim, res, t):
        yield res.hold(t)

    for t in service_times:
        sim.process(user(sim, res, t))
    sim.run()
    total = sum(service_times)
    assert res.slot_seconds() == pytest_approx(total)
    assert sim.now >= total / capacity - 1e-9
    assert sim.now <= total + 1e-9


def pytest_approx(x, rel=1e-9):
    import pytest

    return pytest.approx(x, rel=rel, abs=1e-9)


# ---------------------------------------------------------------------------
# Resource.hold is one kernel event; it must be indistinguishable, on the
# simulated clock, from the grant + timeout form it replaced.


class _GrantSemaphore:
    """The two-event device: FIFO grant events, cancelled waiters
    skipped, and :class:`Resource`'s busy-time accounting."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self.waiters = deque()
        self.busy_time = 0.0
        self.busy_integral = 0.0
        self._last_change = sim.now

    @property
    def queue_len(self):
        return len(self.waiters)

    def _account(self):
        elapsed = self.sim.now - self._last_change
        if elapsed > 0:
            self.busy_integral += elapsed * self.in_use
            if self.in_use > 0:
                self.busy_time += elapsed
        self._last_change = self.sim.now

    def acquire(self):
        grant = self.sim.event()
        if self.in_use < self.capacity and not self.waiters:
            self._account()
            self.in_use += 1
            grant.succeed()
        else:
            self.waiters.append(grant)
        return grant

    def release(self, _event):
        self._account()
        while self.waiters:
            grant = self.waiters.popleft()
            if not grant.cancelled:
                grant.succeed()  # handed over: occupancy unchanged
                return
        self.in_use -= 1


def _reference_serve(sim, device, duration):
    """Grant + timeout: two kernel events per service.  The timeout is
    made as the grant fires, whether or not its waiter still listens,
    and releases the slot as it fires: a service that has started runs
    to its end."""
    grant = device.acquire()
    started = []

    def start(_grant):
        done = sim.timeout(duration)
        done.callbacks.append(device.release)
        started.append(done)

    grant.callbacks.append(start)
    yield grant
    yield started[0]


def _resource_serve(sim, res, duration):
    yield res.hold(duration)


def _run_services(device, serve, capacities, workers, interrupts):
    """Drive one scenario; return what a caller can observe of it."""
    sim = Simulator()
    resources = [device(sim, c) for c in capacities]
    log = []

    def worker(k, delay, services):
        try:
            yield sim.timeout(delay)
        except Interrupt:
            log.append((k, "interrupted before arriving", sim.now))
        # Like a retried op, an interrupted worker carries on with its
        # next service in the same instant.
        for which, duration in services:
            try:
                yield from serve(sim, resources[which % len(resources)], duration)
            except Interrupt:
                log.append((k, "interrupted", sim.now))
            else:
                log.append((k, sim.now))

    def interrupter(target, when):
        yield sim.timeout(when)
        target.interrupt("deadline")

    procs = [sim.process(worker(k, *spec)) for k, spec in enumerate(workers)]
    for which, when in interrupts:
        sim.process(interrupter(procs[which % len(procs)], when))
    sim.run()
    assert all(p.ok for p in procs)
    state = [
        (r.busy_time, r.busy_integral, r.in_use, r.queue_len) for r in resources
    ]
    return log, state


#: Eighths of a second: exact in binary, so runs tie on purpose and often.
_eighths = st.integers(min_value=0, max_value=32).map(lambda k: k / 8)
_service = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=16).map(lambda k: k / 8),
)


@given(
    capacities=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    workers=st.lists(
        st.tuples(_eighths, st.lists(_service, min_size=1, max_size=5)),
        min_size=1,
        max_size=8,
    ),
    interrupts=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), _eighths), max_size=4
    ),
)
@settings(max_examples=200, deadline=None)
def test_hold_equals_acquire_timeout_release(capacities, workers, interrupts):
    """Same completions, same interrupts, same device accounting — with
    interrupts landing on a queued waiter, in service, and on the very
    instant a slot is handed over.  In both forms an interrupted waiter
    that is still queued is skipped, and a started service keeps its
    slot until its completion.

    Every plain timeout here (arrivals, interrupters) is created at t=0,
    before any service starts, so the one tie whose order may differ
    (sim/core.py, "Ordering contract": a timeout created in the instant
    a service starts and ending in the instant it ends) cannot occur.
    """
    expected_log, expected_state = _run_services(
        _GrantSemaphore, _reference_serve, capacities, workers, interrupts
    )
    log, state = _run_services(Resource, _resource_serve, capacities, workers, interrupts)
    assert log == expected_log
    assert state == expected_state
    assert all(in_use == 0 for _busy, _integral, in_use, _queue in state)
