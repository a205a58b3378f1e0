"""One rate budget for every background dedup worker (§4.4.2).

Rate control admits one dedup I/O per N foreground ops, whatever the
number of workers: a pass charges its cold members' dirty chunks to one
shared clock, and a worker waits that clock off *before* it takes the
next group off the dirty list, so a waiting group stays listed for every
other worker and for a drain, and a hot member, which the pass only
requeues, costs no budget.
"""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.core.rate_control import LOW_WATERMARK
from repro.obs import Tracer, check_trace

KiB = 1024
CHUNK = 4 * KiB


def make_storage(**config):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    defaults = dict(chunk_size=CHUNK, cache_on_flush=False)
    defaults.update(config)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def busy(storage, iops=2000):
    """Foreground load above the high watermark for the next second: a
    paced dedup I/O waits ``ops_per_dedup_high / iops`` = 0.25 s."""
    for _ in range(iops):
        storage.tier.fg_window.note(CHUNK)


def same_pg(storage, count):
    """``count`` oids of one metadata PG."""
    pool = storage.tier.metadata_pool
    oids = [f"obj{i}" for i in range(10 * pool.pg_num * count)]
    pg = pool.pg_of(oids[0])
    return [oid for oid in oids if pool.pg_of(oid) == pg][:count]


def foreground(storage, iops, seconds):
    """Start a steady foreground load: one op every ``1 / iops`` s."""
    sim, note = storage.sim, storage.tier.fg_window.note

    def proc():
        for _ in range(int(iops * seconds)):
            yield sim.timeout(1 / iops)
            note(CHUNK)

    sim.process(proc())


def record_pops(storage):
    """Sizes of the groups the dirty list hands out from now on."""
    tier = storage.tier
    popped = []
    pop = tier.next_dirty_group

    def recording(pgs=None):
        group = pop(pgs)
        if group:
            popped.append(len(group))
        return group

    tier.next_dirty_group = recording
    return popped


def test_a_paced_worker_leaves_its_group_listed_and_a_drain_takes_it_in_one_round():
    storage = make_storage(engine_workers=1)
    tier, sim = storage.tier, storage.sim
    for i in range(6):
        storage.write_sync(f"obj{i}", bytes([i + 1]) * (2 * CHUNK))
    dirty = tier.dirty_count
    assert dirty == 6
    busy(storage)
    popped = record_pops(storage)
    storage.engine.start()
    sim.run(until=sim.now + 0.01)
    assert len(popped) == 1  # the first group goes at once ...
    assert tier.rate._due > sim.now  # ... and its charge holds the worker
    assert tier.dirty_count == dirty - popped[0]  # the rest stay listed
    rebuilds = []
    rebuild = tier.rebuild_dirty_list

    def recording_rebuild():
        rebuilds.append(rebuild())
        return rebuilds[-1]

    tier.rebuild_dirty_list = recording_rebuild
    storage.engine.drain_sync(run_gc=False)
    assert rebuilds == [0]  # one round: nothing was hidden from it
    for i in range(6):
        assert tier.peek_chunk_map(f"obj{i}").all_clean()
    storage.engine.stop()


def test_hot_members_are_not_charged():
    storage = make_storage()
    tier, engine = storage.tier, storage.engine
    rate = tier.rate
    hot, cold = same_pg(storage, 2)
    storage.write_sync(hot, b"h" * (3 * CHUNK))
    storage.write_sync(cold, b"c" * (2 * CHUNK))
    tier.cache.is_hot = lambda oid: oid == hot
    busy(storage)
    start = storage.sim.now
    assert storage.cluster.run(engine.process_object(hot, cold)) == "done"
    # Two dirty chunks of the cold member at 500 ops / 2000 IOPS each.
    assert rate._due == pytest.approx(start + 2 * 0.25, abs=1e-3)
    due = rate._due
    tier.cache.is_hot = lambda oid: True
    assert storage.cluster.run(engine.process_object(hot)) == "skipped_hot"
    assert rate._due == due  # every member hot: no charge at all


@pytest.mark.parametrize("workers", [1, 8, 128])
def test_the_budget_does_not_grow_with_the_worker_count(workers):
    # 2000 IOPS is above the high watermark: one dedup I/O per 500
    # foreground ops, 0.25 s each, so 2 s admit a budget of 8 chunks
    # (plus the one group that may run ahead of it) — the same for one
    # worker as for 128.
    storage = make_storage(engine_workers=workers)
    sim, rate = storage.sim, storage.tier.rate
    for i in range(64):
        storage.write_sync(f"obj{i}", bytes([i + 1]) * CHUNK)
    foreground(storage, 2000, 3.0)
    sim.run(until=sim.now + 1.0)  # the window fills to a steady 2000 IOPS
    admitted = []
    charge = rate.charge

    def recording(ios):
        admitted.append(ios)
        charge(ios)

    rate.charge = recording
    popped = record_pops(storage)
    storage.engine.start()
    sim.run(until=sim.now + 2.0)
    storage.engine.stop()
    budget = 2.0 * 2000 / 500
    assert 0 < sum(admitted) <= budget + max(popped)
    assert sum(admitted) == sum(popped) == 8  # whatever the worker count
    assert len(popped) > 1


def test_the_debt_is_forgiven_once_the_foreground_stops():
    storage = make_storage(engine_workers=8)
    tier, sim, rate = storage.tier, storage.sim, storage.tier.rate
    oids = [f"obj{i}" for i in range(200)]
    for i, oid in enumerate(oids):
        storage.write_sync(oid, bytes([i % 250 + 1]) * (2 * CHUNK))
    foreground(storage, 2000, 2.0)
    sim.run(until=sim.now + 1.0)
    storage.engine.start()
    sim.run(until=sim.now + 1.0)  # the foreground stops here
    while tier.fg_window.iops() >= LOW_WATERMARK:
        sim.run(until=sim.now + 0.01)
    low = sim.now
    deadline = low + tier.fg_window.window
    assert rate._due > deadline  # paying the debt off would be too late
    sim.run(until=deadline)
    storage.engine.stop()
    assert all(tier.peek_chunk_map(oid).all_clean() for oid in oids)


def test_a_traced_paced_worker_leaves_only_op_roots():
    # The pacing runs outside every op: it must not leave a root span of
    # its own, uncovered by children.
    storage = make_storage(engine_workers=2)
    for i in range(6):
        storage.write_sync(f"obj{i}", bytes([i + 1]) * (2 * CHUNK))
    busy(storage)
    with Tracer(storage.sim) as tracer:
        storage.engine.start()
        storage.sim.run(until=storage.sim.now + 2.0)
        storage.engine.stop()
    records = tracer.to_records()
    roots = {r["stage"] for r in records if r["parent_id"] is None}
    assert roots == {"op.dedup_pass"}
    assert check_trace(records) == []
    assert storage.tier.dirty_count == 0
