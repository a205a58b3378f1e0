"""Additional RADOS facade coverage: clients, stats, misc paths."""

import pytest

from repro.cluster import (
    ErasureCoded,
    NoSuchObject,
    RadosCluster,
    Transaction,
)


@pytest.fixture
def cluster():
    return RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)


def test_named_clients_have_own_nics(cluster):
    a = cluster.client("a")
    b = cluster.client("b")
    assert a.nic is not b.nic


def test_write_with_explicit_client_counts_traffic(cluster):
    pool = cluster.create_pool("p")
    client = cluster.client("traffic")
    cluster.run(cluster.write_full(pool, "o", b"x" * 8192, client))
    assert client.nic.bytes_sent >= 8192


def test_read_transfers_to_issuing_client(cluster):
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "o", b"y" * 4096)
    client = cluster.client("reader")
    data = cluster.run(cluster.read(pool, "o", 0, None, client))
    assert data == b"y" * 4096
    assert client.nic.bytes_received >= 4096


def test_stat_missing_object_raises(cluster):
    pool = cluster.create_pool("p")
    with pytest.raises(NoSuchObject):
        cluster.run(cluster.stat(pool, "ghost"))


def test_omap_keys_snapshot(cluster):
    pool = cluster.create_pool("p")
    key = cluster.object_key(pool, "o")
    cluster.submit_sync(
        pool, "o", Transaction().omap_set(key, {"b": b"2", "a": b"1"})
    )
    assert sorted(cluster.omap_keys(pool, "o")) == ["a", "b"]


def test_pool_logical_bytes_ec_counts_payload_once(cluster):
    pool = cluster.create_pool("ec", ErasureCoded(2, 1))
    cluster.write_full_sync(pool, "o1", b"z" * 9000)
    cluster.write_full_sync(pool, "o2", b"w" * 1000)
    assert cluster.pool_logical_bytes(pool) == 10000


def test_list_objects_scopes_by_pool(cluster):
    p1 = cluster.create_pool("p1")
    p2 = cluster.create_pool("p2")
    cluster.write_full_sync(p1, "only-in-1", b"a")
    cluster.write_full_sync(p2, "only-in-2", b"b")
    assert cluster.list_objects(p1) == ["only-in-1"]
    assert cluster.list_objects(p2) == ["only-in-2"]


def test_same_oid_in_two_pools_is_distinct(cluster):
    p1 = cluster.create_pool("p1")
    p2 = cluster.create_pool("p2")
    cluster.write_full_sync(p1, "shared-name", b"pool-one")
    cluster.write_full_sync(p2, "shared-name", b"pool-two")
    assert cluster.read_sync(p1, "shared-name") == b"pool-one"
    assert cluster.read_sync(p2, "shared-name") == b"pool-two"


def test_degraded_ec_write_then_recovery_restores_parity(cluster):
    from repro.cluster import converge_sync

    pool = cluster.create_pool("ec", ErasureCoded(2, 1))
    cluster.write_full_sync(pool, "o", b"v1" * 2000)
    key = cluster.object_key(pool, "o")
    holders = [o.osd_id for o in cluster.osds.values() if o.store.exists(key)]
    cluster.cluster_map.mark_down(holders[2])
    cluster.write_full_sync(pool, "o", b"v2" * 2000)  # degraded: 2 shards
    cluster.cluster_map.mark_out(holders[2])
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0
    assert cluster.read_sync(pool, "o") == b"v2" * 2000
    # Full shard count restored.
    up_holders = [
        o for o in cluster.osds.values() if o.up and o.store.exists(key)
    ]
    assert len(up_holders) == 3
