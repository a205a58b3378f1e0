"""Dynamic prong of the concurrency checker: the runtime LockSanitizer.

Covers report determinism and JSON round-tripping, the clean verdict on
well-ordered lock traffic, the deadlock fixture being caught by *both*
prongs, and the abandoned-waiter regression (an interrupted queued
acquirer must not wedge the resource)."""

import importlib.util
import json
from pathlib import Path

from repro.analysis import LockSanitizer
from repro.sim import Interrupt, Resource, Simulator

from .test_rules import found, lint_fixtures

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    """Import a fixture file as a throwaway module (it is runnable)."""
    spec = importlib.util.spec_from_file_location(
        f"lck_fixture_{name}", FIXTURES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clean_ordered_traffic_reports_clean():
    sim = Simulator()
    sanitizer = LockSanitizer().attach(sim)
    locks = [
        Resource(sim, capacity=1, label=f"tier.chunk:{i}") for i in range(3)
    ]

    def worker(delay):
        yield sim.timeout(delay)
        acquired = []
        try:
            for lock in locks:  # same global order in every task
                yield lock.acquire()
                acquired.append(lock)
            yield sim.timeout(0.1)
        finally:
            for lock in reversed(acquired):
                lock.release()

    sim.process(worker(0.0))
    sim.process(worker(0.05))
    sim.run()
    report = sanitizer.report()
    assert report["clean"] is True
    assert report["violations"] == []
    assert report["tasks"] == 2
    assert report["acquires"] == report["grants"] == report["releases"] == 6
    # Same-class edges from the multi-acquire are recorded but benign.
    assert all(e["from"] == e["to"] == "tier.chunk" for e in report["edges"])


def test_report_round_trips_through_json():
    sim = Simulator()
    sanitizer = LockSanitizer().attach(sim)
    lock = Resource(sim, capacity=1, label="rados.write:0/1/obj")

    def worker():
        yield lock.acquire()
        try:
            yield sim.timeout(0.1)
        finally:
            lock.release()

    sim.process(worker())
    sim.run()
    report = sanitizer.report()
    assert json.loads(sanitizer.to_json()) == report
    # Deterministic: building the report twice yields the same document.
    assert sanitizer.report() == report


def test_deadlock_fixture_is_caught_by_both_prongs():
    # Static: LCK001 flags the unsorted same-class acquires.
    result = lint_fixtures(
        {"lck001_deadlock.py": "repro.core.fixture_lck001_deadlock"}
    )
    assert found(result, "LCK001") == (25,)

    # Dynamic: the same code, actually run, wedges — and the sanitizer
    # names the inversion rather than just the symptom.
    fixture = load_fixture("lck001_deadlock")
    sim = Simulator()
    sanitizer = LockSanitizer().attach(sim)
    fixture.run_deadlock(sim)
    report = sanitizer.report()
    assert report["clean"] is False
    kinds = {v["type"] for v in report["violations"]}
    assert "order-inversion" in kinds
    assert "waiting-at-finish" in kinds  # the wedged tasks themselves
    inversion = next(
        v for v in report["violations"] if v["type"] == "order-inversion"
    )
    assert inversion["lock_class"] == "tier.object"
    assert inversion["locks"] == ["tier.object:a", "tier.object:b"]


def test_unlabelled_resources_are_invisible():
    sim = Simulator()
    sanitizer = LockSanitizer().attach(sim)
    lock = Resource(sim, capacity=1)  # no label: not a tracked lock

    def worker():
        yield lock.acquire()
        lock.release()

    sim.process(worker())
    sim.run()
    report = sanitizer.report()
    assert report["acquires"] == 0 and report["clean"] is True


def test_labelled_resource_held_through_serve_is_tracked():
    # serve() is one kernel event (Resource.hold), not acquire + timeout:
    # the sanitizer must still see request, grant and release, for a slot
    # granted at once and for one handed over inside a release().
    sim = Simulator()
    sanitizer = LockSanitizer().attach(sim)
    lock = Resource(sim, capacity=1, label="tier.object:x")
    for _ in range(3):
        sim.process(lock.serve(1.0))
    sim.run(until=2.5)
    report = sanitizer.report()
    assert (report["acquires"], report["grants"], report["releases"]) == (3, 3, 2)
    # Stopped mid-service: the third holder is reported, by its own task.
    assert report["violations"] == [
        {"type": "held-at-finish", "task": "task-00002", "lock": "tier.object:x"}
    ]
    sim.run()
    report = sanitizer.report()
    assert report["acquires"] == report["grants"] == report["releases"] == 3
    assert report["clean"] is True and report["tasks"] == 3

    def leaker():
        yield lock.hold(0.5)  # waits out the service, never releases

    sim.process(leaker())
    sim.run()
    assert sanitizer.report()["violations"] == [
        {"type": "held-at-finish", "task": "task-00003", "lock": "tier.object:x"}
    ]


def test_interrupted_waiter_does_not_wedge_the_resource():
    # Regression: task B queues on a held lock and is interrupted (a
    # retry deadline); its abandoned waiter slot must not absorb the
    # release, or C can never acquire.
    sim = Simulator()
    sanitizer = LockSanitizer().attach(sim)
    lock = Resource(sim, capacity=1, label="tier.object:x")
    order = []

    def holder():
        yield lock.acquire()
        try:
            yield sim.timeout(1.0)
        finally:
            lock.release()

    def impatient():
        yield sim.timeout(0.1)
        try:
            yield lock.acquire()
        except Interrupt:
            order.append("interrupted")
            return
        lock.release()

    def successor():
        yield sim.timeout(0.2)
        yield lock.acquire()
        order.append("acquired")
        lock.release()

    sim.process(holder())
    victim = sim.process(impatient())

    def killer():
        yield sim.timeout(0.5)
        victim.interrupt("deadline")

    sim.process(killer())
    sim.process(successor())
    sim.run()
    assert order == ["interrupted", "acquired"]
    report = sanitizer.report()
    assert report["cancelled"] == 1
    assert report["clean"] is True
