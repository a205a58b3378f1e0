"""Integration: dedup combined with the substrate's storage features.

The paper's headline claim is that a *self-contained* design gets high
availability, recovery, and rebalance support for free.  These tests
exercise exactly that: dedup metadata and chunk objects surviving OSD
failures, EC chunk pools, and recovery-time reduction.
"""

import pytest

from repro.cluster import ErasureCoded, RadosCluster, Replicated, converge_sync
from repro.core import DedupConfig, DedupedStorage
from repro.fingerprint import fingerprint


def make_storage(chunk_redundancy=None, **config_overrides):
    defaults = dict(chunk_size=1024, dedup_interval=0.01)
    defaults.update(config_overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(
        cluster,
        DedupConfig(**defaults),
        chunk_redundancy=chunk_redundancy,
        start_engine=False,
    )


def test_dedup_survives_osd_failure_and_recovery():
    storage = make_storage()
    payloads = {f"obj{i}": bytes([i]) * 3000 for i in range(20)}
    for oid, data in payloads.items():
        storage.write_sync(oid, data)
    storage.drain()
    storage.cluster.fail_osd(0)
    stats = converge_sync(storage.cluster)
    assert stats.objects_lost == 0
    for oid, data in payloads.items():
        assert storage.read_sync(oid) == data
    # Chunk maps and reference info survived with the objects.
    for oid in payloads:
        cmap = storage.tier.peek_chunk_map(oid)
        assert cmap is not None and cmap.all_clean()


def test_dedup_metadata_replicated_through_rebalance():
    storage = make_storage()
    for i in range(15):
        storage.write_sync(f"obj{i}", b"shared-content" * 100)
    storage.drain()
    storage.cluster.add_host("host-new", 2)
    stats = converge_sync(storage.cluster)
    assert stats.objects_lost == 0
    for i in range(15):
        assert storage.read_sync(f"obj{i}") == b"shared-content" * 100
    # Still deduplicated after rebalance.
    report = storage.space_report()
    assert report.chunk_objects == 2


def test_ec_chunk_pool_roundtrip_and_saving():
    """§4.2: pools pick redundancy independently — replicated metadata
    pool over an EC (2+1) chunk pool."""
    storage = make_storage(chunk_redundancy=ErasureCoded(k=2, m=1))
    for i in range(10):
        storage.write_sync(f"obj{i}", b"ecpool-data" * 200)  # duplicates
    storage.drain()
    assert storage.read_sync("obj3") == b"ecpool-data" * 200
    report = storage.space_report()
    assert report.chunk_data_bytes == 2200  # 2 unique chunks + tail
    # Raw shard payload is ~1.5x unique data (2+1), not 2x.
    pool_id = storage.tier.chunk_pool.pool_id
    shard_payload = sum(
        osd.store.get(k).allocated_bytes()
        for osd in storage.cluster.osds.values()
        for k in osd.store.keys()
        if k.pool_id == pool_id
    )
    assert shard_payload == pytest.approx(1.5 * report.chunk_data_bytes, rel=0.01)


def test_ec_chunk_pool_survives_failure():
    storage = make_storage(chunk_redundancy=ErasureCoded(k=2, m=1))
    storage.write_sync("obj1", b"important" * 300)
    storage.drain()
    fp_chunks = storage.cluster.list_objects(storage.tier.chunk_pool)
    key = storage.cluster.object_key(storage.tier.chunk_pool, fp_chunks[0])
    holder = next(
        o.osd_id for o in storage.cluster.osds.values() if o.store.exists(key)
    )
    storage.cluster.fail_osd(holder)
    stats = converge_sync(storage.cluster)
    assert stats.objects_lost == 0
    assert storage.read_sync("obj1") == b"important" * 300


def test_recovery_moves_less_data_with_dedup():
    """Table 3's mechanism: at 50% dedup, a failed OSD holds ~half the
    bytes, so recovery moves ~half the data."""

    def bytes_recovered(dedup: bool):
        cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
        if dedup:
            storage = DedupedStorage(
                cluster, DedupConfig(chunk_size=4096), start_engine=False
            )
            write = storage.write_sync
        else:
            pool = cluster.create_pool("plain", Replicated(2))

            def write(oid, data, pool=pool):
                return cluster.write_full_sync(pool, oid, data)
        # 50% duplicate stream: every payload written twice.
        for i in range(30):
            payload = bytes([i]) * 8192
            write(f"a{i}", payload)
            write(f"b{i}", payload)
        if dedup:
            storage.drain()
        for osd_id in (0, 1):
            cluster.fail_osd(osd_id)
        stats = converge_sync(cluster)
        assert stats.objects_lost == 0
        return stats.bytes_moved

    moved_plain = bytes_recovered(dedup=False)
    moved_dedup = bytes_recovered(dedup=True)
    assert moved_dedup < 0.75 * moved_plain


def test_concurrent_clients_with_background_engine():
    storage = make_storage()
    storage.engine.start()
    clients = [storage.client(f"c{i}") for i in range(3)]

    def workload(storage, client, prefix):
        for i in range(10):
            data = (prefix.encode() + bytes([i])) * 256
            yield from storage.write(f"{prefix}-{i}", data, 0, client)
            got = yield from storage.read(f"{prefix}-{i}", 0, None, client)
            assert got == data

    procs = [
        storage.sim.process(workload(storage, c, f"w{i}"))
        for i, c in enumerate(clients)
    ]
    done = storage.sim.all_of(procs)
    storage.cluster.run_wrapper = None
    storage.sim.run_until_complete(done)
    storage.sim.run(until=storage.sim.now + 20.0)
    storage.engine.stop()
    assert storage.tier.dirty_count == 0
    for i in range(3):
        for j in range(10):
            expected = (f"w{i}".encode() + bytes([j])) * 256
            assert storage.read_sync(f"w{i}-{j}") == expected


def test_double_hashing_chunk_placement_is_by_content():
    """The same content always lands on the same OSDs, regardless of
    which user object produced it (double hashing)."""
    storage = make_storage()
    storage.write_sync("x", b"D" * 1024)
    storage.write_sync("y", b"D" * 1024)
    storage.drain()
    fp = fingerprint(b"D" * 1024)
    chunk_objects = storage.cluster.list_objects(storage.tier.chunk_pool)
    assert chunk_objects == [fp]
    acting = storage.tier.chunk_pool.acting_set_for(fp)
    key = storage.cluster.object_key(storage.tier.chunk_pool, fp)
    holders = sorted(
        o.osd_id for o in storage.cluster.osds.values() if o.store.exists(key)
    )
    assert holders == sorted(acting)


def test_no_fingerprint_index_exists_anywhere():
    """The design's point: chunk lookup is pure placement computation —
    no component holds a fingerprint->address table."""
    storage = make_storage()
    for i in range(20):
        storage.write_sync(f"o{i}", b"payload" * 150)
    storage.drain()
    # Chunk location is recomputable from content alone, with no state.
    fp = fingerprint((b"payload" * 150)[:1024])
    assert storage.cluster.exists(storage.tier.chunk_pool, fp)
    # The tier holds no index structure (only transient per-chunk locks).
    assert not hasattr(storage.tier, "fingerprint_index")
