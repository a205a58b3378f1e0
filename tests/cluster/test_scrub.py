"""Tests for replica scrub and repair."""


from repro.cluster import ErasureCoded, RadosCluster, Replicated
from repro.cluster.scrub import repair_pool_sync, scrub_pool_sync


def make(ec=False):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool(
        "data", ErasureCoded(2, 1) if ec else Replicated(2)
    )
    for i in range(10):
        cluster.write_full_sync(pool, f"obj{i}", bytes([i]) * 3000)
    return cluster, pool


def test_scrub_clean_pool():
    cluster, pool = make()
    report = scrub_pool_sync(cluster, pool)
    assert report.clean
    assert report.objects_checked == 10


def test_scrub_detects_divergent_replica():
    cluster, pool = make()
    key = cluster.object_key(pool, "obj3")
    holders = [o for o in cluster.osds.values() if o.store.exists(key)]
    holders[1].store.get(key).corrupt(5)  # silent corruption
    report = scrub_pool_sync(cluster, pool)
    assert report.inconsistent == [("obj3", holders[1].osd_id)]


def test_scrub_detects_divergent_xattr():
    """Self-contained design: dedup metadata divergence is caught by the
    same scrub that checks data."""
    cluster, pool = make()
    key = cluster.object_key(pool, "obj5")
    holders = [o for o in cluster.osds.values() if o.store.exists(key)]
    holders[1].store.get(key).xattrs["dedup.chunk_map"] = b"divergent"
    holders[0].store.get(key).xattrs["dedup.chunk_map"] = b"authoritative"
    report = scrub_pool_sync(cluster, pool)
    assert ("obj5", holders[1].osd_id) in report.inconsistent


def test_scrub_detects_missing_copy():
    cluster, pool = make()
    key = cluster.object_key(pool, "obj7")
    holders = [o for o in cluster.osds.values() if o.store.exists(key)]
    holders[1].store.delete_object(key)
    report = scrub_pool_sync(cluster, pool)
    assert report.missing == [("obj7", holders[1].osd_id)]


def test_repair_fixes_divergence_and_missing():
    cluster, pool = make()
    key3 = cluster.object_key(pool, "obj3")
    key7 = cluster.object_key(pool, "obj7")
    h3 = [o for o in cluster.osds.values() if o.store.exists(key3)]
    h7 = [o for o in cluster.osds.values() if o.store.exists(key7)]
    h3[1].store.get(key3).corrupt(5)
    h7[1].store.delete_object(key7)
    report = scrub_pool_sync(cluster, pool)
    repaired = repair_pool_sync(cluster, pool, report)
    assert repaired == 2
    assert scrub_pool_sync(cluster, pool).clean
    assert cluster.read_sync(pool, "obj3") == bytes([3]) * 3000
    assert cluster.read_sync(pool, "obj7") == bytes([7]) * 3000


def test_repair_keeps_the_fresh_copy_over_a_restarted_one():
    """A write acknowledged while one replica was down is the copy scrub
    compares against and repair copies from, even when the restarted
    (stale) replica comes first in the acting set."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    key = cluster.object_key(pool, "o")
    cluster.write_full_sync(pool, "o", b"1" * 3000)
    first = pool.acting_set_for("o")[0]
    cluster.fail_osd(first, mark_out=False)
    cluster.write_full_sync(pool, "o", b"2" * 3000)
    cluster.restart_osd(first)
    report = scrub_pool_sync(cluster, pool)
    assert report.inconsistent == [("o", first)]
    assert repair_pool_sync(cluster, pool, report) == 1
    for osd_id in pool.acting_set_for("o"):
        assert cluster.osds[osd_id].store.read(key) == b"2" * 3000
    assert scrub_pool_sync(cluster, pool).clean


def test_ec_partial_write_keeps_every_shard_checksum():
    """A read-modify-write re-stamps each shard with its own CRC, so the
    stripe scrubs clean and stays readable through a repair pass."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("ec", ErasureCoded(2, 1))
    data = bytes(i * 7 % 251 for i in range(16384))
    cluster.write_full_sync(pool, "o", data)
    cluster.write_sync(pool, "o", 100, b"x" * 50)
    report = scrub_pool_sync(cluster, pool)
    assert report.clean, report.bad_shards
    repair_pool_sync(cluster, pool, report)
    assert cluster.read_sync(pool, "o") == data[:100] + b"x" * 50 + data[150:]


def test_ec_scrub_clean():
    cluster, pool = make(ec=True)
    report = scrub_pool_sync(cluster, pool)
    assert report.clean
    assert report.objects_checked == 10


def test_ec_scrub_detects_corrupt_shard():
    cluster, pool = make(ec=True)
    key = cluster.object_key(pool, "obj2")
    holders = [o for o in cluster.osds.values() if o.store.exists(key)]
    holders[0].store.get(key).corrupt(0)
    report = scrub_pool_sync(cluster, pool)
    assert report.bad_shards
    assert all(oid == "obj2" for oid, _idx in report.bad_shards)


def test_ec_repair_restores_shard():
    cluster, pool = make(ec=True)
    key = cluster.object_key(pool, "obj2")
    holders = [o for o in cluster.osds.values() if o.store.exists(key)]
    victim = holders[0]
    victim.store.get(key).corrupt(0)
    report = scrub_pool_sync(cluster, pool)
    # A single corrupt shard shows up; rebuild it.
    repaired = repair_pool_sync(cluster, pool, report)
    assert repaired >= 1
    assert scrub_pool_sync(cluster, pool).clean
    assert cluster.read_sync(pool, "obj2") == bytes([2]) * 3000


def test_scrub_covers_dedup_tier_pools():
    """End-to-end: the dedup tier's two pools scrub clean, and an
    injected divergence in a *chunk object's reference xattr* is caught
    and repaired by the generic machinery (the paper's 'storage features
    for free' claim)."""
    from repro.core import DedupConfig, DedupedStorage

    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster, DedupConfig(chunk_size=1024), start_engine=False
    )
    for i in range(6):
        storage.write_sync(f"o{i}", b"scrubbed" * 200)
    storage.drain()
    for pool in (storage.tier.metadata_pool, storage.tier.chunk_pool):
        assert scrub_pool_sync(cluster, pool).clean
    chunk_id = cluster.list_objects(storage.tier.chunk_pool)[0]
    key = cluster.object_key(storage.tier.chunk_pool, chunk_id)
    acting = storage.tier.chunk_pool.acting_set_for(chunk_id)
    # Corrupt a non-primary copy (repair treats the primary as the
    # authority, as Ceph's repair does).
    victim = cluster.osds[acting[1]]
    victim.store.get(key).xattrs["dedup.refs"] = b"trashed"
    report = scrub_pool_sync(cluster, storage.tier.chunk_pool)
    assert not report.clean
    repair_pool_sync(cluster, storage.tier.chunk_pool, report)
    assert scrub_pool_sync(cluster, storage.tier.chunk_pool).clean
    assert storage.tier.chunk_refcount(chunk_id) == 6
