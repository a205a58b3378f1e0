"""Edge-case coverage for the simulation kernel."""


from repro.sim import LockTable, Simulator


def test_all_of_with_already_triggered_events():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()

    def outer(sim, done):
        pending = sim.timeout(2.0, value="late")
        values = yield sim.all_of([done, pending])
        return values

    p = sim.process(outer(sim, done))
    sim.run()
    assert p.value == ["early", "late"]


def test_any_of_with_already_triggered_event_wins():
    sim = Simulator()
    done = sim.event()
    done.succeed("instant")
    sim.run()

    def outer(sim, done):
        slow = sim.timeout(10.0)
        event, value = yield sim.any_of([done, slow])
        return (sim.now, value)

    p = sim.process(outer(sim, done))
    sim.run_until_complete(p)
    assert p.value == (0.0, "instant")


def test_nested_processes_three_deep():
    sim = Simulator()

    def leaf(sim):
        yield sim.timeout(1.0)
        return 1

    def middle(sim):
        value = yield sim.process(leaf(sim))
        yield sim.timeout(1.0)
        return value + 1

    def root(sim):
        value = yield sim.process(middle(sim))
        return value + 1

    p = sim.process(root(sim))
    sim.run()
    assert p.value == 3
    assert sim.now == 2.0


def test_resource_released_in_finally_on_failure():
    sim = Simulator()
    table = LockTable(sim, "test.lock:{}", 0)

    def failing(sim, table):
        held = []
        try:
            yield table.acquire("k", held)
            yield sim.timeout(1.0)
            raise RuntimeError("boom")
        finally:
            table.release(held)

    def follower(sim, table):
        held = []
        try:
            yield table.acquire("k", held)
        finally:
            table.release(held)
        return sim.now

    bad = sim.process(failing(sim, table))
    good = sim.process(follower(sim, table))
    sim.run()
    assert not bad.ok
    assert good.value == 1.0  # the lock was freed despite the crash
    assert len(table) == 0


def test_process_return_none_by_default():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0.5)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value is None


def test_zero_delay_timeout_fires_in_fifo_order():
    sim = Simulator()
    seen = []

    def proc(sim, name):
        yield sim.timeout(0.0)
        seen.append(name)

    for name in "abc":
        sim.process(proc(sim, name))
    sim.run()
    assert seen == list("abc")
    assert sim.now == 0.0
