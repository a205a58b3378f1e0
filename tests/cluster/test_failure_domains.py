"""Tests for configurable failure domains (osd / host / rack)."""

import pytest

from repro.cluster import RadosCluster, Replicated, converge_sync
from repro.cluster.clustermap import ClusterMap
from repro.cluster.crush import CrushMap


def rack_cluster(racks=2, hosts_per_rack=2, osds_per_host=2):
    cluster = RadosCluster(num_hosts=0, osds_per_host=0, pg_num=32)
    for r in range(racks):
        for h in range(hosts_per_rack):
            cluster.add_host(f"r{r}h{h}", osds_per_host, rack=f"rack{r}")
    return cluster


def test_invalid_failure_domain():
    cmap = ClusterMap()
    cmap.add_osd("h0")
    with pytest.raises(ValueError):
        CrushMap(cmap).select(1, 1, failure_domain="datacenter")


def test_osd_domain_allows_same_host():
    cluster = RadosCluster(num_hosts=1, osds_per_host=4, pg_num=32)
    pool = cluster.create_pool("p", Replicated(2), failure_domain="osd")
    for pg in range(32):
        acting = pool.acting_set(pg)
        assert len(set(acting)) == 2  # distinct devices, same host is fine


def test_host_domain_needs_distinct_hosts():
    cluster = rack_cluster()
    pool = cluster.create_pool("p", Replicated(2), failure_domain="host")
    for pg in range(32):
        hosts = {cluster.cluster_map.osds[i].host for i in pool.acting_set(pg)}
        assert len(hosts) == 2


def test_rack_domain_spreads_across_racks():
    cluster = rack_cluster(racks=3)
    pool = cluster.create_pool("p", Replicated(3), failure_domain="rack")
    for pg in range(32):
        racks = {cluster.cluster_map.osds[i].rack for i in pool.acting_set(pg)}
        assert len(racks) == 3


def test_rack_domain_survives_whole_rack_failure():
    cluster = rack_cluster(racks=2, hosts_per_rack=2, osds_per_host=2)
    pool = cluster.create_pool("p", Replicated(2), failure_domain="rack")
    for i in range(30):
        cluster.write_full_sync(pool, f"obj{i}", bytes([i]) * 2048)
    # Kill every OSD in rack0.
    for osd_id, info in list(cluster.cluster_map.osds.items()):
        if info.rack == "rack0":
            cluster.fail_osd(osd_id)
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0  # rack-level domains: no PG lost both copies
    for i in range(30):
        assert cluster.read_sync(pool, f"obj{i}") == bytes([i]) * 2048


def test_host_domain_can_lose_data_on_rack_failure():
    """The contrast: host-level domains may co-locate both replicas in
    one rack, so a rack failure can lose objects."""
    cluster = rack_cluster(racks=2, hosts_per_rack=2, osds_per_host=2)
    pool = cluster.create_pool("p", Replicated(2), failure_domain="host")
    for i in range(60):
        cluster.write_full_sync(pool, f"obj{i}", bytes([i % 250]) * 1024)
    for osd_id, info in list(cluster.cluster_map.osds.items()):
        if info.rack == "rack0":
            cluster.fail_osd(osd_id)
    stats = converge_sync(cluster)
    assert stats.objects_lost > 0


def test_rack_fallback_when_racks_scarce():
    cluster = rack_cluster(racks=2)
    pool = cluster.create_pool("p", Replicated(3), failure_domain="rack")
    acting = pool.acting_set(0)
    assert len(set(acting)) == 3  # falls back to distinct OSDs


def test_dedup_tier_on_rack_domains():
    from repro.core import DedupConfig, DedupedStorage

    cluster = rack_cluster(racks=3)
    storage = DedupedStorage(
        cluster,
        DedupConfig(chunk_size=1024),
        start_engine=False,
    )
    # Re-create pools with rack domains.
    storage.tier.metadata_pool.failure_domain = "rack"
    storage.tier.chunk_pool.failure_domain = "rack"
    for i in range(5):
        storage.write_sync(f"o{i}", b"rack-safe" * 200)
    storage.drain()
    for i in range(5):
        assert storage.read_sync(f"o{i}") == b"rack-safe" * 200
