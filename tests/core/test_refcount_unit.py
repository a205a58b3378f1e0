"""Unit tests for the refcount strategies in isolation."""


from repro.cluster import RadosCluster
from repro.core import (
    DedupConfig,
    FalsePositiveRefcount,
    StrictRefcount,
    make_refcounter,
)
from repro.core.objects import ChunkRef
from repro.core.tier import ChunkBatch, DedupTier, NodeClient
from repro.fingerprint import fingerprint


def make_tier(mode="strict"):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    tier = DedupTier(cluster, DedupConfig(chunk_size=1024, refcount_mode=mode))
    via = NodeClient(next(iter(cluster.nodes.values())))
    return tier, via


def take_ref(tier, chunk_id, ref, data, via):
    """Take one reference through a batch of one; True if it stored
    the chunk payload."""
    batch = ChunkBatch()
    batch.ref(chunk_id, ref, data)
    (stored,) = tier.cluster.run(tier.commit_chunk_batch(batch, via))
    return stored


def test_factory_selects_strategy():
    tier, _via = make_tier("strict")
    assert isinstance(make_refcounter(tier), StrictRefcount)
    tier, _via = make_tier("false_positive")
    assert isinstance(make_refcounter(tier), FalsePositiveRefcount)


def test_strict_deref_is_immediate():
    tier, via = make_tier("strict")
    data = b"x" * 512
    fp = fingerprint(data)
    ref = ChunkRef(tier.metadata_pool.pool_id, "o", 0)
    take_ref(tier, fp, ref, data, via)
    counter = StrictRefcount(tier)
    assert counter.pending == 0
    tier.cluster.run(counter.deref(fp, ref, via))
    assert not tier.cluster.exists(tier.chunk_pool, fp)


def test_fp_deref_is_deferred_until_gc():
    tier, via = make_tier("false_positive")
    data = b"y" * 512
    fp = fingerprint(data)
    ref = ChunkRef(tier.metadata_pool.pool_id, "o", 0)
    take_ref(tier, fp, ref, data, via)
    counter = FalsePositiveRefcount(tier)
    tier.cluster.run(counter.deref(fp, ref, via))
    assert counter.pending == 1
    assert tier.cluster.exists(tier.chunk_pool, fp)  # still there
    tier.cluster.run(counter.gc(via))
    assert counter.pending == 0
    assert counter.collected == 1
    assert not tier.cluster.exists(tier.chunk_pool, fp)


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
    tier.cluster.run(tier.release_refs([("deadbeef" * 5, ref)], via))  # no raise


def test_deref_foreign_ref_leaves_chunk():
    tier, via = make_tier()
    data = b"w" * 256
    fp = fingerprint(data)
    mine = ChunkRef(tier.metadata_pool.pool_id, "mine", 0)
    other = ChunkRef(tier.metadata_pool.pool_id, "other", 0)
    take_ref(tier, fp, mine, data, via)
    tier.cluster.run(tier.release_refs([(fp, other)], via))  # not a holder
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
    tier.cluster.run(tier.release_refs(pairs[:2], via))  # one batched commit
    assert tier.stage.ref_batches == batches + 1
    tier.cluster.run(tier.release_refs(pairs[2:], via))  # a batch of one, alone
    assert tier.stage.ref_batches == batches + 2
    tier.cluster.run(tier.release_refs(pairs, via))  # idempotent: writes nothing
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
    tier.cluster.run(tier.release_refs(pairs, via))
    assert tier.cluster.sim.now - start == 0
    assert tier.stage.ref_commits == commits
    assert [tier.chunk_refcount(fp) for fp, _ref in pairs] == [1, 1]
