"""Dedup tier behaviour while OSDs are down (degraded mode).

The design's availability claim: because everything is ordinary
objects, the tier keeps serving (and even deduplicating) while the
cluster is degraded, exactly as the substrate does for plain data.
"""

import pytest

from repro.cluster import NotEnoughReplicas, RadosCluster, converge_sync
from repro.core import DedupConfig, DedupedStorage


def make_storage(**overrides):
    defaults = dict(chunk_size=1024, dedup_interval=0.01)
    defaults.update(overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def down_one_holder(storage, pool, oid):
    key = storage.cluster.object_key(pool, oid)
    holder = next(
        o.osd_id for o in storage.cluster.osds.values() if o.store.exists(key)
    )
    storage.cluster.cluster_map.mark_down(holder)
    return holder


def test_reads_serve_with_metadata_replica_down():
    storage = make_storage()
    storage.write_sync("obj1", b"alive" * 300)
    down_one_holder(storage, storage.tier.metadata_pool, "obj1")
    assert storage.read_sync("obj1") == b"alive" * 300


def test_reads_serve_with_chunk_replica_down():
    storage = make_storage()
    storage.write_sync("obj1", b"alive" * 300)
    storage.drain()
    chunk_id = storage.cluster.list_objects(storage.tier.chunk_pool)[0]
    down_one_holder(storage, storage.tier.chunk_pool, chunk_id)
    assert storage.read_sync("obj1") == b"alive" * 300


def test_degraded_writes_and_flush_still_work():
    storage = make_storage()
    storage.write_sync("obj1", b"v1" * 512)
    osd_id = down_one_holder(storage, storage.tier.metadata_pool, "obj1")
    storage.write_sync("obj1", b"v2" * 512)  # degraded write
    storage.drain()  # degraded flush
    assert storage.read_sync("obj1") == b"v2" * 512
    # After the OSD is marked out and recovery runs, full redundancy
    # returns and content is intact everywhere.
    storage.cluster.cluster_map.mark_out(osd_id)
    stats = converge_sync(storage.cluster)
    assert stats.objects_lost == 0
    assert storage.read_sync("obj1") == b"v2" * 512


def test_dedup_correct_across_full_degradation_cycle():
    """Write -> degrade -> keep writing -> heal -> rejoin: the dedup
    state (refcounts, maps) stays coherent throughout."""
    storage = make_storage()
    for i in range(6):
        storage.write_sync(f"a{i}", b"shared-block" * 80)
    storage.drain()
    storage.cluster.fail_osd(0)
    for i in range(6):
        storage.write_sync(f"b{i}", b"shared-block" * 80)  # degraded dups
    storage.drain()
    converge_sync(storage.cluster)
    storage.cluster.revive_osd(0)
    converge_sync(storage.cluster)
    report = storage.space_report()
    assert report.chunk_objects == 1  # still one unique chunk cluster-wide
    fp = storage.cluster.list_objects(storage.tier.chunk_pool)[0]
    assert storage.tier.chunk_refcount(fp) == 12
    for prefix in "ab":
        for i in range(6):
            assert storage.read_sync(f"{prefix}{i}") == b"shared-block" * 80
    from repro.core import scrub_sync

    assert scrub_sync(storage.tier).clean


def test_write_refused_when_below_min_size():
    storage = make_storage()
    storage.write_sync("obj1", b"x" * 1024)
    key = storage.tier.metadata_key("obj1")
    holders = [
        o.osd_id for o in storage.cluster.osds.values() if o.store.exists(key)
    ]
    for osd_id in holders:
        storage.cluster.cluster_map.mark_down(osd_id)
    with pytest.raises(NotEnoughReplicas):
        storage.write_sync("obj1", b"y" * 1024)
