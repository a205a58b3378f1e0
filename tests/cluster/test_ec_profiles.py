"""Wider EC profiles (4+2, 6+3) through write/read/failure/recovery."""

import pytest

from repro.cluster import ErasureCoded, RadosCluster, converge_sync
from repro.sim import RngRegistry


@pytest.mark.parametrize("k,m", [(4, 2), (6, 3)])
def test_wide_profile_roundtrip_and_fault_tolerance(k, m):
    # Enough hosts for one shard per host.
    cluster = RadosCluster(num_hosts=k + m, osds_per_host=1, pg_num=32)
    pool = cluster.create_pool("ec", ErasureCoded(k, m))
    rng = RngRegistry(1).stream("data")
    payloads = {f"o{i}": rng.randbytes(5000 + i * 101) for i in range(10)}
    for oid, data in payloads.items():
        cluster.write_full_sync(pool, oid, data)

    # Raw payload amplification ~ (k+m)/k.
    raw = sum(
        o.store.data_bytes() for o in cluster.osds.values()
    )
    logical = sum(len(d) for d in payloads.values())
    assert raw == pytest.approx(logical * (k + m) / k, rel=0.02)

    # Any m failures survive.
    for osd_id in range(m):
        cluster.cluster_map.mark_down(osd_id)
    for oid, data in payloads.items():
        assert cluster.read_sync(pool, oid) == data

    # Mark out and recover to full shard count.
    for osd_id in range(m):
        cluster.cluster_map.mark_out(osd_id)
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0
    for oid, data in payloads.items():
        assert cluster.read_sync(pool, oid) == data


def test_wide_profile_dedup_tier():
    from repro.core import DedupConfig, DedupedStorage

    cluster = RadosCluster(num_hosts=6, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster,
        DedupConfig(chunk_size=2048, cache_on_flush=False),
        chunk_redundancy=ErasureCoded(4, 2),
        start_engine=False,
    )
    for i in range(8):
        storage.write_sync(f"obj{i}", b"wide-ec" * 600)
    storage.drain()
    report = storage.space_report()
    assert report.chunk_objects == 3  # 4200 bytes over 2 KiB chunks
    assert storage.read_sync("obj5") == b"wide-ec" * 600
    # Chunk pool raw payload ~1.5x unique data (4+2).
    pool_id = storage.tier.chunk_pool.pool_id
    shard_payload = sum(
        osd.store.get(key).allocated_bytes()
        for osd in cluster.osds.values()
        for key in osd.store.keys()
        if key.pool_id == pool_id
    )
    assert shard_payload == pytest.approx(1.5 * report.chunk_data_bytes, rel=0.02)
