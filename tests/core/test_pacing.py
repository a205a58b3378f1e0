"""A background worker paces before it pops a dirty group (§4.4.2).

Rate control holds a background worker back for one dedup I/O per N
foreground ops; the worker sleeps it off *before* it takes the head
group off the dirty list, so a group waiting on the pacing stays listed
for every other worker and for a drain, and a hot member, which the
pass only requeues, costs no pacing.
"""

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
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


def count_throttles(storage):
    calls = []
    rate = storage.tier.rate
    throttle = rate.throttle

    def counting():
        calls.append(storage.sim.now)
        return throttle()

    rate.throttle = counting
    return calls


def test_a_paced_worker_leaves_its_group_listed_and_a_drain_takes_it_in_one_round():
    storage = make_storage(engine_workers=1)
    tier, sim = storage.tier, storage.sim
    for i in range(6):
        storage.write_sync(f"obj{i}", bytes([i + 1]) * (2 * CHUNK))
    dirty = tier.dirty_count
    assert dirty == 6
    busy(storage)
    throttles = count_throttles(storage)
    storage.engine.start()
    sim.run(until=sim.now + 0.01)
    assert throttles  # the worker sleeps in its pacing ...
    assert tier.dirty_count == dirty  # ... with its group still listed
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


def test_hot_members_are_not_paced_for():
    storage = make_storage()
    tier, engine = storage.tier, storage.engine
    hot, cold = same_pg(storage, 2)
    storage.write_sync(hot, b"h" * (3 * CHUNK))
    storage.write_sync(cold, b"c" * (2 * CHUNK))
    assert sorted(tier.peek_dirty_group()) == sorted([hot, cold])
    throttles = count_throttles(storage)
    tier.cache.is_hot = lambda oid: oid == hot
    busy(storage)
    storage.cluster.run(engine._pace())
    assert len(throttles) == 2  # one per dirty chunk of the cold member
    tier.cache.is_hot = lambda oid: True
    storage.cluster.run(engine._pace())
    assert len(throttles) == 2  # every member hot: no pacing at all
    assert tier.dirty_count == 2  # pacing pops nothing


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
