"""Tests for object deletion in the dedup tier."""

import pytest

from collections import Counter

from repro.cluster import ErasureCoded, NoSuchObject, RadosCluster
from repro.core import DedupConfig, DedupedStorage, verdict
from repro.core import engine as engine_module
from repro.core.objects import ChunkRef
from repro.core.scrub import collect_garbage_sync, scrub_sync
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import FaultEvent
from repro.fingerprint import fingerprint
from repro.obs import Tracer

CHUNK = 1024


def make_storage(chunk_redundancy=None, **overrides):
    defaults = dict(chunk_size=CHUNK, dedup_interval=0.01)
    defaults.update(overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(
        cluster,
        DedupConfig(**defaults),
        chunk_redundancy=chunk_redundancy,
        start_engine=False,
    )


def distinct_chunks(count, salt=0):
    """``count`` chunks of pairwise different content."""
    return b"".join(bytes([salt, i]) * (CHUNK // 2) for i in range(count))


def stage_counts(tracer):
    return Counter(span.stage for span in tracer.spans)


def test_delete_removes_object_and_sole_chunk():
    storage = make_storage()
    storage.write_sync("obj1", b"bye" * 600)
    storage.drain()
    storage.delete_sync("obj1")
    with pytest.raises(NoSuchObject):
        storage.read_sync("obj1")
    assert storage.cluster.list_objects(storage.tier.chunk_pool) == []
    assert storage.cluster.list_objects(storage.tier.metadata_pool) == []


def test_delete_missing_raises():
    storage = make_storage()
    with pytest.raises(NoSuchObject):
        storage.delete_sync("ghost")


def test_delete_keeps_shared_chunks():
    storage = make_storage()
    storage.write_sync("a", b"shared" * 200)
    storage.write_sync("b", b"shared" * 200)
    storage.drain()
    fp = fingerprint((b"shared" * 200)[:1024])
    storage.delete_sync("a")
    assert storage.cluster.exists(storage.tier.chunk_pool, fp)
    assert storage.tier.chunk_refcount(fp) == 1
    assert storage.read_sync("b") == b"shared" * 200
    assert scrub_sync(storage.tier).clean


def test_delete_unflushed_object():
    """Deleting before the engine ever ran: no chunks exist to deref."""
    storage = make_storage()
    storage.write_sync("obj1", b"never-flushed" * 100)
    storage.delete_sync("obj1")
    with pytest.raises(NoSuchObject):
        storage.read_sync("obj1")
    assert storage.cluster.list_objects(storage.tier.chunk_pool) == []
    # The stale dirty-list entry is harmless.
    storage.drain()
    assert scrub_sync(storage.tier).clean


def test_delete_then_recreate():
    storage = make_storage()
    storage.write_sync("obj1", b"first" * 300)
    storage.drain()
    storage.delete_sync("obj1")
    storage.write_sync("obj1", b"second" * 300)
    storage.drain()
    assert storage.read_sync("obj1") == b"second" * 300
    assert scrub_sync(storage.tier).clean


def test_delete_frees_space():
    storage = make_storage()
    for i in range(8):
        storage.write_sync(f"obj{i}", bytes([i]) * 4096)
    storage.drain()
    before = storage.space_report()
    for i in range(8):
        storage.delete_sync(f"obj{i}")
    after = storage.space_report()
    assert after.logical_bytes == 0
    assert after.chunk_data_bytes == 0
    assert after.stored_bytes == 0
    assert before.stored_bytes > 0


def test_delete_concurrent_with_engine():
    storage = make_storage()
    storage.write_sync("obj1", b"racy" * 500)

    def race():
        flush = storage.sim.process(storage.engine.process_object("obj1", force=True))
        delete = storage.sim.process(storage.delete("obj1"))
        yield storage.sim.all_of([flush, delete])

    storage.cluster.run(race())
    storage.drain()
    with pytest.raises(NoSuchObject):
        storage.read_sync("obj1")
    # Whatever interleaving happened, GC converges to zero chunks.
    collect_garbage_sync(storage.tier)
    assert storage.cluster.list_objects(storage.tier.chunk_pool) == []


# -- one batched release -------------------------------------------------------


def test_delete_is_one_remove_and_one_batched_release():
    storage = make_storage()
    storage.write_sync("obj1", distinct_chunks(16))
    storage.drain()
    assert len(storage.cluster.list_objects(storage.tier.chunk_pool)) == 16
    with Tracer(storage.sim) as tracer:
        storage.delete_sync("obj1")
    stages = stage_counts(tracer)
    assert stages["rados.submit"] == 1  # the metadata object's removal
    assert stages["rados.submit_batch"] == 1  # all 16 references
    assert stages["tier.commit_chunk_batch"] == 1
    assert storage.cluster.list_objects(storage.tier.chunk_pool) == []


@pytest.mark.parametrize(
    "chunk_redundancy", [None, ErasureCoded(k=2, m=1)], ids=["replicated", "ec"]
)
def test_delete_releases_exactly_its_own_references(chunk_redundancy):
    storage = make_storage(chunk_redundancy=chunk_redundancy)
    tier = storage.tier
    shared, twice, alone = (bytes([n]) * CHUNK for n in (1, 2, 3))
    # "gone" holds ``twice`` at two offsets; "kept" shares two chunks.
    storage.write_sync("gone", shared + twice + alone + twice)
    storage.write_sync("kept", shared + twice)
    storage.drain()
    pool_id = tier.metadata_pool.pool_id
    assert tier.chunk_refcount(fingerprint(twice)) == 3
    with Tracer(storage.sim) as tracer:
        storage.delete_sync("gone")

    assert list(tier._load_refs(fingerprint(shared))) == [ChunkRef(pool_id, "kept", 0)]
    assert list(tier._load_refs(fingerprint(twice))) == [
        ChunkRef(pool_id, "kept", CHUNK)
    ]
    assert not storage.cluster.exists(tier.chunk_pool, fingerprint(alone))
    assert storage.read_sync("kept") == shared + twice
    assert scrub_sync(tier).clean
    # Either pool type: every reference in one batched commit.
    (commit,) = [s for s in tracer.spans if s.stage == "tier.commit_chunk_batch"]
    assert commit.tags["ops"] == 4 and commit.tags["chunks"] == 3


def test_delete_racing_a_pass_that_shares_its_chunks():
    storage = make_storage()
    tier = storage.tier
    payload = distinct_chunks(8)
    storage.write_sync("old", payload)
    storage.drain()
    storage.write_sync("new", payload)  # dirty: its pass will reference the same 8

    def race():
        flush = storage.sim.process(storage.engine.process_object("new", force=True))
        delete = storage.sim.process(storage.delete("old"))
        yield storage.sim.all_of([flush, delete])

    storage.cluster.run(race())
    storage.drain()
    pool_id = tier.metadata_pool.pool_id
    for i in range(8):
        piece = payload[i * CHUNK : (i + 1) * CHUNK]
        assert list(tier._load_refs(fingerprint(piece))) == [
            ChunkRef(pool_id, "new", i * CHUNK)
        ]
    assert len(storage.cluster.list_objects(tier.chunk_pool)) == 8
    found = verdict(storage, shadow={"new": payload})
    assert found.clean, found.problems


def test_a_recreate_during_the_delete_release_keeps_its_references(monkeypatch):
    # The delete replies once the metadata object is gone; its release's
    # dereference batch is slowed so that the same content is written to
    # the same oid, and deduplicated, while it is still in flight.  The
    # recreate's pass takes the very references the release drops (same
    # oid, same offsets).
    storage = make_storage()
    sim, tier = storage.sim, storage.tier
    payload = distinct_chunks(8)
    storage.write_sync("obj1", payload)
    storage.drain()
    commit_chunk_batch = tier.commit_chunk_batch

    def slow_commit(batch, via):
        yield sim.timeout(0.05)
        return (yield from commit_chunk_batch(batch, via))

    monkeypatch.setattr(tier, "commit_chunk_batch", slow_commit)

    def delete_then_recreate():
        yield from storage.delete("obj1")
        assert storage.engine._releases  # the release is in flight
        yield from storage.write("obj1", payload)

    storage.cluster.run(delete_then_recreate())
    storage.drain()
    pool_id = tier.metadata_pool.pool_id
    for i in range(8):
        chunk_id = fingerprint(payload[i * CHUNK : (i + 1) * CHUNK])
        assert list(tier._load_refs(chunk_id)) == [ChunkRef(pool_id, "obj1", i * CHUNK)]
        assert tier.chunk_refcount(chunk_id) == 1
    assert len(storage.cluster.list_objects(tier.chunk_pool)) == 8
    found = verdict(storage, shadow={"obj1": payload})
    assert found.clean, found.problems


def test_a_release_that_starts_after_a_recreate_drops_none_of_its_references(
    monkeypatch,
):
    """The delete's release starts only once the object is recreated
    with the same bytes and flushed: the recreate's pass has taken the
    very references (same oid, same offsets) the release was handed.
    The release checks them under the object lock, as the GC does, and
    finds them live again."""
    storage = make_storage()
    sim, tier, engine = storage.sim, storage.tier, storage.engine
    payload = distinct_chunks(8)
    storage.write_sync("obj1", payload)
    storage.drain()
    retried = engine_module.call_with_retries

    def late_release(sim, policy, factory, stats, op):
        yield sim.timeout(0.05)
        result = yield from retried(sim, policy, factory, stats, op)
        return result

    monkeypatch.setattr(engine_module, "call_with_retries", late_release)

    def delete_recreate_flush():
        yield from storage.delete("obj1")
        yield from storage.write("obj1", payload)
        yield from storage.flush("obj1")
        assert engine._releases  # the release has not yet begun

    storage.cluster.run(delete_recreate_flush())
    storage.cluster.run(engine.releases_landed())
    pool_id = tier.metadata_pool.pool_id
    for i in range(8):
        chunk_id = fingerprint(payload[i * CHUNK : (i + 1) * CHUNK])
        assert list(tier._load_refs(chunk_id)) == [ChunkRef(pool_id, "obj1", i * CHUNK)]
    assert len(storage.cluster.list_objects(tier.chunk_pool)) == 8
    found = verdict(storage, shadow={"obj1": payload})
    assert found.clean, found.problems


def test_delete_that_gives_up_leaves_nothing_on_the_cache_books():
    """The release exhausts its retries after the metadata object is
    gone: the delete has already succeeded, the cache manager has
    forgotten the object, and every reference stays over-retained (none
    dangling, no released prefix) on the engine's deref queue, which the
    next drain's GC reclaims."""
    storage = make_storage(hit_count_threshold=1, hitset_period=60.0)
    tier, cache, cluster = storage.tier, storage.tier.cache, storage.cluster
    engine = storage.engine
    before = (cache.cached_bytes, len(cache._cached), len(cache._cached_by_oid))
    payload = distinct_chunks(16)
    storage.write_sync("obj1", payload)
    storage.drain()  # hot: flushed to the chunk pool *and* kept cached
    assert cache.cached_bytes == len(payload)
    chunk_ids = cluster.list_objects(tier.chunk_pool)
    assert len(chunk_ids) == 16

    meta_osds = {o.osd_id for o in cluster.acting_osds(tier.metadata_pool, "obj1")}
    victim = next(
        osd.osd_id
        for cid in chunk_ids
        for osd in cluster.acting_osds(tier.chunk_pool, cid)
        if osd.osd_id not in meta_osds
    )
    plan = FaultPlan(
        [FaultEvent(0.0, "transient_errors", str(victim), duration=1e6,
                    params={"probability": 1.0})]
    )
    injector = FaultInjector(cluster, plan).attach()
    storage.sim.run(until=storage.sim.now + 1e-6)  # deliver the window
    storage.delete_sync("obj1")
    # The delete landed; its release gave up, off the client's books.
    assert (tier.retry_stats.giveups, tier.retry_stats.availability) == (0, 1.0)

    with pytest.raises(NoSuchObject):
        storage.read_sync("obj1")
    assert (cache.cached_bytes, len(cache._cached), len(cache._cached_by_oid)) == before
    # All-or-nothing: every chunk still carries its (now stale) reference,
    # and every one of the 16 is queued for the GC.
    assert cluster.list_objects(tier.chunk_pool) == chunk_ids
    assert all(tier.chunk_refcount(cid) == 1 for cid in chunk_ids)
    assert sorted(cid for cid, _ref in engine.deref_queue) == sorted(chunk_ids)
    assert engine.stats.derefs_deferred_fault == 16

    injector.heal_all()
    # No lock held; the stale references wait on the queue for the GC.
    assert verdict(storage).problems == ["dedup scrub", "deref queue"]
    storage.drain()
    assert cluster.list_objects(tier.chunk_pool) == []
    # Nothing left queued, held or leaked, once the GC has run.
    found = verdict(storage)
    assert found.clean, found.problems
