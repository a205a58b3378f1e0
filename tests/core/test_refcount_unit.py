"""Unit tests for reference counting: the tier's reference and
dereference batches and the engine's two dereference modes (paper
§4.6)."""


from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.core.objects import ChunkRef
from repro.core.tier import ChunkBatch, DedupTier
from repro.fingerprint import fingerprint


def make_tier(mode="strict"):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    tier = DedupTier(cluster, DedupConfig(chunk_size=1024, refcount_mode=mode))
    via = next(iter(cluster.nodes.values()))
    return tier, via


def take_ref(tier, chunk_id, ref, data, via):
    """Take one reference through a batch of one; True if it stored
    the chunk payload."""
    batch = ChunkBatch()
    batch.ref(chunk_id, ref, data)
    (stored,) = tier.cluster.run(tier.commit_chunk_batch(batch, via))
    return stored


def drop_refs(tier, pairs, via):
    """Drop the ``(chunk_id, ref)`` references ``pairs`` in one
    dereference batch, as the GC does."""
    batch = ChunkBatch()
    for chunk_id, ref in pairs:
        batch.deref(chunk_id, ref)
    tier.cluster.run(tier.commit_chunk_batch(batch, via))


def repointed(mode):
    """A store whose one object's one chunk was flushed, then rewritten
    whole: its next pass drops the old chunk's reference."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster, DedupConfig(chunk_size=1024, refcount_mode=mode), start_engine=False
    )
    storage.write_sync("o", b"x" * 1024)
    storage.drain()
    old = storage.tier.peek_chunk_map("o").get(0).chunk_id
    storage.write_sync("o", b"y" * 1024)
    ref = ChunkRef(storage.tier.metadata_pool.pool_id, "o", 0)
    return storage, old, ref


def test_strict_deref_is_immediate():
    storage, old, _ref = repointed("strict")
    tier, engine = storage.tier, storage.engine
    tier.cluster.run(engine.process_object("o", force=True))
    assert len(engine._releases) == 1  # the GC runs behind the pass
    tier.cluster.run(engine.releases_landed())
    assert engine.deref_queue == []
    assert not tier.cluster.exists(tier.chunk_pool, old)


def test_fp_deref_is_deferred_until_gc():
    storage, old, ref = repointed("false_positive")
    tier, engine = storage.tier, storage.engine
    tier.cluster.run(engine.process_object("o", force=True))
    assert not engine._releases
    assert engine.deref_queue == [(old, ref)]
    assert tier.cluster.exists(tier.chunk_pool, old)  # still there
    tier.cluster.run(engine.drain())  # "o" no longer maps it: stale
    assert engine.deref_queue == []
    assert not tier.cluster.exists(tier.chunk_pool, old)


def test_chunk_ref_idempotent_same_ref():
    tier, via = make_tier()
    data = b"z" * 256
    fp = fingerprint(data)
    ref = ChunkRef(tier.metadata_pool.pool_id, "o", 0)
    assert take_ref(tier, fp, ref, data, via) is True
    assert take_ref(tier, fp, ref, data, via) is False
    assert tier.chunk_refcount(fp) == 1


def test_deref_unknown_chunk_is_noop():
    tier, via = make_tier()
    ref = ChunkRef(tier.metadata_pool.pool_id, "o", 0)
    drop_refs(tier, [("deadbeef" * 5, ref)], via)  # no raise


def test_deref_foreign_ref_leaves_chunk():
    tier, via = make_tier()
    data = b"w" * 256
    fp = fingerprint(data)
    mine = ChunkRef(tier.metadata_pool.pool_id, "mine", 0)
    other = ChunkRef(tier.metadata_pool.pool_id, "other", 0)
    take_ref(tier, fp, mine, data, via)
    drop_refs(tier, [(fp, other)], via)  # not a holder
    assert tier.cluster.exists(tier.chunk_pool, fp)
    assert tier.chunk_refcount(fp) == 1


def test_release_refs_batches_a_set_and_sends_one_alone():
    tier, via = make_tier()
    pairs = []
    for i in range(3):
        data = bytes([i]) * 256
        ref = ChunkRef(tier.metadata_pool.pool_id, "o", i * 256)
        take_ref(tier, fingerprint(data), ref, data, via)
        pairs.append((fingerprint(data), ref))
    batches = tier.stage.ref_batches
    drop_refs(tier, pairs[:2], via)  # one batched commit
    assert tier.stage.ref_batches == batches + 1
    drop_refs(tier, pairs[2:], via)  # a batch of one, alone
    assert tier.stage.ref_batches == batches + 2
    drop_refs(tier, pairs, via)  # idempotent: writes nothing
    assert tier.stage.ref_batches == batches + 2
    assert tier.cluster.list_objects(tier.chunk_pool) == []


def test_releasing_refs_a_chunk_never_held_writes_nothing():
    tier, via = make_tier()
    pairs = []
    for i in range(2):
        data = bytes([i]) * 256
        mine = ChunkRef(tier.metadata_pool.pool_id, "mine", i * 256)
        take_ref(tier, fingerprint(data), mine, data, via)
        pairs.append((fingerprint(data), ChunkRef(tier.metadata_pool.pool_id, "other", 0)))
    start, commits = tier.cluster.sim.now, tier.stage.ref_commits
    drop_refs(tier, pairs, via)
    assert tier.cluster.sim.now - start == 0
    assert tier.stage.ref_commits == commits
    assert [tier.chunk_refcount(fp) for fp, _ref in pairs] == [1, 1]
