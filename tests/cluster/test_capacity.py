"""Tests for OSD capacity enforcement (full ratio / ENOSPC)."""

import pytest

from repro.cluster import OsdFullError, RadosCluster, Replicated
from repro.cluster.hardware import DiskSpec, HardwareProfile

KiB = 1024


def tiny_cluster(capacity=64 * KiB, full_ratio=0.95):
    profile = HardwareProfile(
        disk=DiskSpec(capacity_bytes=capacity, full_ratio=full_ratio)
    )
    cluster = RadosCluster(
        profile=profile, num_hosts=2, osds_per_host=1, pg_num=8
    )
    pool = cluster.create_pool("p", Replicated(2))
    return cluster, pool


def test_writes_refused_when_full():
    cluster, pool = tiny_cluster(capacity=32 * KiB)
    with pytest.raises(OsdFullError):
        for i in range(100):
            cluster.write_full_sync(pool, f"o{i}", b"x" * (8 * KiB))


def test_full_flag_and_threshold():
    cluster, pool = tiny_cluster(capacity=32 * KiB, full_ratio=0.5)
    osd = cluster.osds[0]
    assert not osd.is_full
    assert osd.full_threshold == 16 * KiB
    try:
        for i in range(100):
            cluster.write_full_sync(pool, f"o{i}", b"x" * (4 * KiB))
    except OsdFullError:
        pass
    assert any(o.is_full or o.store.used_bytes() > 0 for o in cluster.osds.values())


def test_reads_and_deletes_still_work_when_full():
    cluster, pool = tiny_cluster(capacity=48 * KiB)
    written = []
    try:
        for i in range(100):
            cluster.write_full_sync(pool, f"o{i}", b"y" * (8 * KiB))
            written.append(f"o{i}")
    except OsdFullError:
        pass
    assert written
    assert cluster.read_sync(pool, written[0]) == b"y" * (8 * KiB)
    # Deleting frees space and writes resume.
    for oid in written:
        cluster.remove_sync(pool, oid)
    cluster.write_full_sync(pool, "fresh", b"z" * (4 * KiB))
    assert cluster.read_sync(pool, "fresh") == b"z" * (4 * KiB)


def test_dedup_postpones_enospc():
    """The capacity payoff: duplicate-heavy data fills a plain pool long
    before it fills a deduplicated one."""
    from repro.core import DedupConfig, DedupedStorage

    def writes_until_full(dedup: bool):
        profile = HardwareProfile(disk=DiskSpec(capacity_bytes=96 * KiB))
        cluster = RadosCluster(
            profile=profile, num_hosts=4, osds_per_host=1, pg_num=16
        )
        if dedup:
            storage = DedupedStorage(
                cluster,
                DedupConfig(chunk_size=4 * KiB, cache_on_flush=False),
                start_engine=False,
            )
        else:
            from repro.core import PlainStorage

            storage = PlainStorage(cluster)
        count = 0
        try:
            for i in range(200):
                storage.write_sync(f"o{i}", b"dup" * 1366)  # ~4 KiB, identical
                if dedup and i % 4 == 3:
                    storage.drain()  # flush so the cache doesn't fill the pool
                count += 1
        except OsdFullError:
            pass
        return count

    assert writes_until_full(dedup=True) > 1.5 * writes_until_full(dedup=False)
