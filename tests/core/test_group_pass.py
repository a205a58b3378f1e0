"""An engine pass is the dirty objects of one metadata PG.

The dirty list keeps one bucket per metadata PG; a worker pops a bucket
and runs one pass over its objects: one chunk batch for every reference
the pass takes, one map commit — one prepared transaction — for every
member's chunk map, and its dropped pairs handed to the one GC (behind
the pass, or in a drain behind the round).  A fault anywhere aborts the
whole group before any map commits.
"""

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage, scrub_sync, verdict
from repro.faults.errors import TransientOpError
from repro.obs import Tracer

KiB = 1024
CHUNK = 4 * KiB


def make_storage(**config):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    defaults = dict(chunk_size=CHUNK, dedup_interval=0.01, cache_on_flush=False)
    defaults.update(config)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def same_pg(storage, count, skip=0):
    """``count`` object names of one metadata PG (the ``skip``-th PG
    that has as many among ``obj0..obj999``)."""
    by_pg = {}
    for i in range(1000):
        oid = f"obj{i}"
        by_pg.setdefault(storage.tier.metadata_pool.pg_of(oid), []).append(oid)
    full = [oids[:count] for oids in by_pg.values() if len(oids) >= count]
    return full[skip]


def content(oid, generation=0):
    """Two chunks of their own per object and generation."""
    return bytes([int(oid[3:]) % 200 + 1, generation + 1]) * CHUNK


def metadata_prepares(storage):
    """Record every metadata-pool transaction a replica prepares."""
    cluster = storage.cluster
    pool_id = storage.tier.metadata_pool.pool_id
    prepared = []
    prepare = cluster._replica_prepare

    def recording(primary, replica, txn, nbytes, leg):
        if any(op[1].pool_id == pool_id for op in txn.ops):
            prepared.append(txn)
        return prepare(primary, replica, txn, nbytes, leg)

    cluster._replica_prepare = recording
    return prepared


def assert_refcounts_are_live_references(storage):
    """Every chunk's reference records are exactly the uses its chunk
    maps imply, both ways, and no map uses a chunk that is gone: the
    verdict's dedup scrub, which (unlike the whole verdict) leaves the
    delayed requeues of a faulted pass unfired."""
    report = scrub_sync(storage.tier)
    assert report.clean, report.findings


def test_a_drain_of_one_pgs_objects_commits_one_batch_and_one_map_transaction():
    storage = make_storage()
    group = same_pg(storage, 4)
    for oid in group:
        storage.write_sync(oid, content(oid))
    tier = storage.tier
    assert tier.dirty_count == 4 and tier.dirty_pg_count == 1
    batches = []
    commit_chunk_batch = tier.commit_chunk_batch

    def counting(batch, via):
        batches.append(len(batch))
        return commit_chunk_batch(batch, via)

    tier.commit_chunk_batch = counting
    prepared = metadata_prepares(storage)
    with Tracer(storage.sim) as tracer:
        storage.drain()
    assert storage.engine.stats.objects_processed == 4
    assert batches == [8]  # two chunks of each member, one batch
    assert len({id(txn) for txn in prepared}) == 1  # one prepared transaction
    (span,) = [s for s in tracer.spans if s.stage == "op.dedup_pass"]
    assert span.tags["objects"] == 4
    for oid in group:
        assert tier.peek_dirty_count(oid) == 0
        assert storage.read_sync(oid) == content(oid)
    assert_refcounts_are_live_references(storage)


def test_a_fault_in_the_groups_map_commit_leaves_every_member_as_it_was():
    storage = make_storage()
    tier, cluster, engine = storage.tier, storage.cluster, storage.engine
    group = same_pg(storage, 3)
    for oid in group:
        storage.write_sync(oid, content(oid))
    storage.drain()
    for oid in group:  # a new second chunk: the pass takes and drops a reference
        storage.write_sync(oid, content(oid, 1)[:CHUNK], offset=CHUNK)
    expected = {oid: content(oid)[:CHUNK] + content(oid, 1)[:CHUNK] for oid in group}
    maps = {oid: tier.peek_chunk_map(oid) for oid in group}
    assert tier.next_dirty_group() == group
    chunks = set(cluster.list_objects(tier.chunk_pool))
    pool_id = tier.metadata_pool.pool_id
    prepare = cluster._replica_prepare
    failed = []

    def failing(primary, replica, txn, nbytes, leg):
        if not failed and any(op[1].pool_id == pool_id for op in txn.ops):
            failed.append(txn)
            yield from prepare(primary, replica, txn, nbytes, leg)
            raise TransientOpError(replica.osd_id, "prepare")
        yield from prepare(primary, replica, txn, nbytes, leg)

    cluster._replica_prepare = failing
    assert cluster.run(engine.process_object(*group, force=True)) == "faulted"
    cluster._replica_prepare = prepare
    assert {op[1].name for op in failed[0].ops} == set(group)  # the group's one commit
    for oid in group:  # no map committed
        stored = tier.peek_chunk_map(oid)
        assert stored.version == maps[oid].version
        assert tier.peek_dirty_count(oid) == 1
    # The GC behind the pass drops the references it took: nothing new
    # is stored.
    cluster.run(engine.releases_landed())
    assert set(cluster.list_objects(tier.chunk_pool)) == chunks
    assert_refcounts_are_live_references(storage)
    assert engine.stats.objects_requeued_fault == 3
    assert tier.dirty_count == 0
    storage.sim.run(until=storage.sim.now + 1.0)  # the requeues fire
    assert tier.next_dirty_group() == group
    found = verdict(storage, shadow=expected)
    assert found.clean, found.problems
    tier.rebuild_dirty_list()
    storage.drain()
    for oid, data in expected.items():
        assert tier.peek_dirty_count(oid) == 0
        assert storage.read_sync(oid) == data
    assert_refcounts_are_live_references(storage)


def test_a_hot_member_is_left_out_of_a_background_pass_and_requeued():
    storage = make_storage(hit_count_threshold=2, hitset_period=0.1, cache_on_flush=True)
    tier, engine = storage.tier, storage.engine
    group = same_pg(storage, 3)
    for oid in group:
        storage.write_sync(oid, content(oid))
    storage.sim.run(until=storage.sim.now + 0.2)
    hot = group[1]
    storage.read_sync(hot)  # a second period's access: hot
    assert [tier.cache.is_hot(oid) for oid in group] == [False, True, False]
    assert tier.next_dirty_group() == group
    assert storage.cluster.run(engine.process_object(*group)) == "done"
    assert engine.stats.objects_skipped_hot == 1
    assert engine.stats.objects_processed == 2
    for oid in group:
        assert tier.peek_dirty_count(oid) == (2 if oid == hot else 0)
    assert tier.dirty_count == 0
    storage.sim.run(until=storage.sim.now + 1.5)  # the hot requeue fires
    assert tier.next_dirty_group() == [hot]
    for oid in group:
        assert storage.read_sync(oid) == content(oid)


def test_empty_pg_buckets_are_dropped():
    storage = make_storage()
    tier = storage.tier
    first, second = same_pg(storage, 2), same_pg(storage, 2, skip=1)
    for oid in (first[0], second[0], first[1], second[1]):
        tier.mark_dirty(oid)
    tier.mark_dirty(first[0])  # already listed
    assert tier.dirty_count == 4 and tier.dirty_pg_count == 2
    assert tier.next_dirty_group() == first
    assert len(tier._dirty_pgs) == 1 and tier.dirty_count == 2
    assert tier.next_dirty_group() == second
    assert not tier._dirty_pgs and tier.dirty_count == 0
    assert tier.next_dirty_group() == []
    for oid in first + second:
        storage.write_sync(oid, content(oid))
    storage.drain()
    assert not tier._dirty_pgs and tier.dirty_pg_count == 0


def test_a_drain_worker_pops_only_its_own_primarys_pgs():
    """A drain lists every dirty PG under the primary its pass runs on,
    each OSD's in logged order, and a worker handed one OSD's PGs pops
    only those, skipping any another worker took.  The PGs with no
    acting OSD up are listed under ``None``: no OSD's worker takes
    them."""
    from repro.cluster import NotEnoughReplicas

    storage = make_storage()
    tier, pool = storage.tier, storage.tier.metadata_pool
    groups = [same_pg(storage, 2, skip=n) for n in range(8)]
    for group in groups:
        for oid in group:
            tier.mark_dirty(oid)
    head_pg = pool.pg_of(groups[0][0])
    for osd_id in pool.acting_set(head_pg):
        storage.cluster.fail_osd(osd_id, mark_out=False)
    expected = {}  # primary (None: no acting OSD up) -> its PGs
    for group in groups:
        try:
            primary = storage.cluster.primary(pool, group[0])
        except NotEnoughReplicas:
            primary = None
        expected.setdefault(primary, []).append(pool.pg_of(group[0]))
    assert None in expected and len(expected) > 2
    by_primary = tier.dirty_pgs_by_primary()
    assert {osd: list(pgs) for osd, pgs in by_primary.items()} == expected
    assert tier.next_dirty_group() == groups[0]  # a background worker's pop
    for osd, pgs in by_primary.items():
        popped = []
        group = tier.next_dirty_group(pgs)
        while group:
            popped.append(pool.pg_of(group[0]))
            group = tier.next_dirty_group(pgs)
        assert popped == [pg for pg in expected[osd] if pg != head_pg], osd
    assert tier.dirty_count == 0


def test_a_drain_runs_one_pass_per_dirty_pg_at_most():
    storage = make_storage()
    groups = [same_pg(storage, 4, skip=n) for n in range(3)]
    for group in groups:
        for oid in group:
            storage.write_sync(oid, content(oid))
    with Tracer(storage.sim) as tracer:
        storage.drain()
    passes = [s for s in tracer.spans if s.stage == "op.dedup_pass"]
    assert sorted(s.tags["objects"] for s in passes) == [4, 4, 4]
    assert len({s.start for s in passes}) == 1  # three at once, not eight
    assert storage.engine.stats.objects_processed == 12
    assert_refcounts_are_live_references(storage)
