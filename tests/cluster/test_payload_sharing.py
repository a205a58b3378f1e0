"""One copy of every payload byte in host memory.

The modelled disks pay for every replica (``used_bytes`` is checked
elsewhere, to the byte); these tests pin down that the *host* does not:
replicas, promoted cache copies and recovered copies alias the blob the
first transaction brought in.
"""

import random

from repro.cluster import ErasureCoded, RadosCluster, Replicated, converge_sync
from repro.core import DedupConfig, DedupedStorage

CHUNK = 32 * 1024


def populated(n_blocks=24, n_objects=32):
    """The e2e benchmark's cluster (16 OSDs, 2x replication in both
    pools) holding ``n_objects`` two-chunk objects over ``n_blocks``
    distinct chunks, deduplicated and evicted."""
    rng = random.Random(5)
    cluster = RadosCluster(num_hosts=4, osds_per_host=4, pg_num=64)
    config = DedupConfig(chunk_size=CHUNK, hitset_period=0.1, dedup_interval=0.01)
    storage = DedupedStorage(
        cluster, config, Replicated(2), Replicated(2), start_engine=False
    )
    blocks = [rng.randbytes(CHUNK) for _ in range(n_blocks)]
    payloads = {
        f"o{i}": blocks[i % n_blocks] + blocks[(i * 7 + 1) % n_blocks]
        for i in range(n_objects)
    }
    for oid, payload in payloads.items():
        storage.write_sync(oid, payload)
    storage.drain()
    return storage, payloads, n_blocks * CHUNK


def holders_of(cluster, pool, oid):
    key = cluster.object_key(pool, oid)
    return key, [osd for osd in cluster.osds.values() if osd.store.exists(key)]


def distinct_blob_bytes(cluster):
    blobs = {}
    for osd in cluster.osds.values():
        for key in osd.store.keys():
            for _start, blob in osd.store.get(key).extents():
                blobs[id(blob)] = blob  # holding it keeps the id unique
    return sum(map(len, blobs.values()))


def test_replicas_of_a_chunk_hold_the_same_blob():
    storage, _payloads, unique = populated()
    cluster, pool = storage.cluster, storage.tier.chunk_pool
    chunk_ids = cluster.list_objects(pool)
    assert len(chunk_ids) == unique // CHUNK
    for chunk_id in chunk_ids:
        key, holders = holders_of(cluster, pool, chunk_id)
        assert len(holders) == 2
        (_, first), = holders[0].store.get(key).extents()
        (_, second), = holders[1].store.get(key).extents()
        assert first is second
        assert holders[0].store.read(key) is first
    # The modelled disks still pay for both replicas; the host for one.
    assert cluster.pool_used_bytes(pool) >= 2 * unique
    assert distinct_blob_bytes(cluster) <= 1.05 * unique


def test_promoted_extents_are_the_chunk_pools_blobs():
    storage, payloads, unique = populated()
    cluster, tier = storage.cluster, storage.tier
    for _ in range(3):  # heat every object up across hitset periods
        for oid, payload in payloads.items():
            assert storage.read_sync(oid) == payload
        storage.sim.run(until=storage.sim.now + 0.15)
    storage.sim.run()
    assert storage.engine.stats.chunks_promoted == 2 * len(payloads)
    for oid in payloads:
        key, holders = holders_of(cluster, tier.metadata_pool, oid)
        assert len(holders) == 2
        for entry in tier.peek_chunk_map(oid):
            chunk_key, chunk_holders = holders_of(cluster, tier.chunk_pool, entry.chunk_id)
            chunk_blob = chunk_holders[0].store.read(chunk_key)
            for osd in holders:
                cached = dict(osd.store.get(key).extents())
                assert cached[entry.offset] is chunk_blob
    # Every byte is now stored four times over on the modelled disks
    # (chunk x2, cached copy x2) and still once in host memory.
    assert cluster.total_used_bytes() >= (2 * unique + 4 * len(payloads) * CHUNK)
    assert distinct_blob_bytes(cluster) <= 1.05 * unique


def test_recovered_osd_shares_blobs_with_its_source():
    storage, _payloads, unique = populated()
    cluster, pool = storage.cluster, storage.tier.chunk_pool
    victim = cluster.osds[3]
    lost = [key for key in victim.store.keys() if key.pool_id == pool.pool_id]
    assert lost
    cluster.fail_osd(3)
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0 and stats.objects_moved >= len(lost)
    for key in lost:
        live = [o for o in cluster.osds.values() if o.up and o.store.exists(key)]
        assert len(live) == 2
        assert live[0].store.read(key) is live[1].store.read(key)
    assert distinct_blob_bytes(cluster) <= 1.05 * unique


def test_ec_shards_are_not_shared():
    """Each shard of an erasure-coded object is different bytes: nothing
    to alias, and nothing must pretend to."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("ec", ErasureCoded(2, 1))
    payload = random.Random(9).randbytes(8192)
    cluster.write_full_sync(pool, "obj", payload)
    key, holders = holders_of(cluster, pool, "obj")
    assert len(holders) == 3
    shards = [osd.store.read(key) for osd in holders]
    assert len({id(shard) for shard in shards}) == 3
    assert len(set(shards)) == 3
    assert cluster.read_sync(pool, "obj") == payload
