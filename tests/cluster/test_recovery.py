"""Tests for failure handling, recovery, and rebalancing."""

import pytest

from repro.cluster import (
    ErasureCoded,
    RadosCluster,
    Replicated,
    Transaction,
    converge_sync,
)
from repro.cluster.ec import _shard_index
from repro.cluster.converge import _same_content
from repro.cluster.scrub import repair_pool_sync, scrub_pool_sync


def fill(cluster, pool, n=40, size=4096, prefix="obj"):
    for i in range(n):
        cluster.write_full_sync(pool, f"{prefix}{i}", bytes([i % 256]) * size)


def all_replicated_ok(cluster, pool, n, size, prefix="obj"):
    for i in range(n):
        key = cluster.object_key(pool, f"{prefix}{i}")
        acting = [cluster.osds[j] for j in pool.acting_set_for(f"{prefix}{i}")]
        for osd in acting:
            if not osd.up:
                return False
            if not osd.store.exists(key):
                return False
            if osd.store.read(key) != bytes([i % 256]) * size:
                return False
    return True


def test_recovery_restores_replica_count():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool, n=40)
    cluster.fail_osd(0)
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0
    assert all_replicated_ok(cluster, pool, 40, 4096)


def test_recovery_reports_progress_and_duration():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool, n=40)
    cluster.fail_osd(0)
    stats = converge_sync(cluster)
    if stats.objects_moved:
        assert stats.bytes_moved > 0
        assert stats.duration > 0


def test_recovery_time_scales_with_data():
    """Twice the data stored should take roughly twice as long to heal
    (Table 3's mechanism: dedup halves stored bytes -> faster recovery)."""

    def recovery_time(n_objects):
        cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
        pool = cluster.create_pool("data", Replicated(2))
        fill(cluster, pool, n=n_objects, size=65536)
        cluster.fail_osd(0)
        cluster.fail_osd(1)
        stats = converge_sync(cluster)
        assert stats.objects_lost == 0
        return stats.duration

    small = recovery_time(30)
    big = recovery_time(60)
    assert big > small * 1.4


def test_double_failure_with_two_replicas_loses_nothing_if_disjoint():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool, n=60)
    cluster.fail_osd(0)
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0
    cluster.fail_osd(2)
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0
    assert all_replicated_ok(cluster, pool, 60, 4096)


def test_ec_shard_reconstruction():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("ec", ErasureCoded(k=2, m=1))
    payloads = {f"e{i}": bytes([i]) * 10000 for i in range(20)}
    for oid, data in payloads.items():
        cluster.write_full_sync(pool, oid, data)
    cluster.fail_osd(3)
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0
    for oid, data in payloads.items():
        assert cluster.read_sync(pool, oid) == data
    # Every object has all 3 shards again.
    for oid in payloads:
        key = cluster.object_key(pool, oid)
        holders = [o for o in cluster.osds.values() if o.up and o.store.exists(key)]
        assert len(holders) == 3


def test_rebalance_after_adding_host():
    cluster = RadosCluster(num_hosts=3, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool, n=60)
    cluster.add_host("host3", 2)
    converge_sync(cluster)
    # New OSDs received some data.
    new_osds = [o for o in cluster.osds.values() if o.node.name == "host3"]
    assert sum(len(o.store) for o in new_osds) > 0
    # Everything still readable and fully replicated.
    assert all_replicated_ok(cluster, pool, 60, 4096)
    # Stale copies were cleaned up: total copies == 2 per object.
    total_objects = sum(len(o.store) for o in cluster.osds.values())
    assert total_objects == 60 * 2


def test_revive_then_backfill():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool, n=30)
    cluster.fail_osd(0)
    converge_sync(cluster)
    cluster.revive_osd(0)
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0
    assert all_replicated_ok(cluster, pool, 30, 4096)


def test_data_loss_detected_when_all_copies_gone():
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool, n=30)
    # Kill every OSD that holds obj0.
    key = cluster.object_key(pool, "obj0")
    holders = [o.osd_id for o in cluster.osds.values() if o.store.exists(key)]
    for osd_id in holders:
        cluster.fail_osd(osd_id)
    stats = converge_sync(cluster)
    assert stats.objects_lost > 0


def _recover(cluster, pool, key, acting):
    cluster.fail_osd(acting[1])
    converge_sync(cluster)


def _rebalance(cluster, pool, key, acting):
    cluster.decommission_osd(acting[0])
    converge_sync(cluster)


def _repair(cluster, pool, key, acting):
    cluster.osds[acting[2]].store.get(key).corrupt(3)
    repair_pool_sync(cluster, pool, scrub_pool_sync(cluster, pool))


@pytest.mark.parametrize(
    "move",
    [None, _recover, _rebalance, _repair],
    ids=["write_full", "recover", "rebalance", "repair"],
)
def test_every_path_stores_one_shard_format(move):
    """However a shard got where it is — written, rebuilt by recovery,
    migrated by the rebalancer, restored by repair — it is the same
    object: payload, internal and user xattrs, omap."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("ec", ErasureCoded(2, 1))
    key = cluster.object_key(pool, "o")
    cluster.write_full_sync(pool, "o", bytes(i * 7 % 251 for i in range(10240)))
    cluster.submit_sync(
        pool, "o", Transaction().setxattr(key, "user", b"v").omap_set(key, {"k": b"w"})
    )
    acting = pool.acting_set_for("o")
    written = {i: cluster.osds[osd_id].store.get(key).clone() for i, osd_id in enumerate(acting)}
    if move is not None:
        move(cluster, pool, key, acting)
    holders = [o for o in cluster.osds.values() if o.up and o.store.exists(key)]
    assert sorted(_shard_index(o.store.get(key)) for o in holders) == [0, 1, 2]
    for osd in holders:
        obj = osd.store.get(key)
        assert _same_content(obj, written[_shard_index(obj)]), osd.osd_id


def test_recovery_copies_the_acting_holder_not_a_stale_stray():
    """A stray copy parked outside the acting set misses every later
    write: recovery must source a missing replica from the copy reads
    are served by, not from whichever holder has the lowest OSD id."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    oid = next(f"obj{i}" for i in range(64) if 0 not in pool.acting_set_for(f"obj{i}"))
    key = cluster.object_key(pool, oid)
    first, second = (cluster.osds[i] for i in pool.acting_set_for(oid))
    cluster.write_full_sync(pool, oid, b"old" * 1000)
    cluster.osds[0].store.put_object(key, first.store.get(key).clone())
    cluster.write_full_sync(pool, oid, b"new" * 1000)
    second.store.delete_object(key)
    converge_sync(cluster)
    assert not cluster.osds[0].store.exists(key)
    for osd in (first, second):
        assert osd.store.read(key) == b"new" * 1000
