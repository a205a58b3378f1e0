"""Tests for online elasticity: expand/decommission + dedup-aware convergence."""

from repro.cluster import (
    ErasureCoded,
    RadosCluster,
    Replicated,
    converge,
    converge_sync,
    placement_report,
)
from repro.core import DedupConfig, DedupedStorage, scrub_sync
from repro.obs import Tracer, check_trace


def fill(cluster, pool, n=20, size=4096, prefix="obj"):
    for i in range(n):
        cluster.write_full_sync(pool, f"{prefix}{i}", bytes([i % 256]) * size)


def all_ok(cluster, pool, n, size, prefix="obj"):
    for i in range(n):
        assert cluster.read_sync(pool, f"{prefix}{i}") == bytes([i % 256]) * size


def test_expand_produces_remap_diff():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    before = cluster._acting_sets()
    diff = cluster.expand("host2", 2)
    assert diff.pgs_remapped > 0
    assert len(cluster.osds) == 6
    # Every diff entry records a real old->new move for a known PG.
    for remap in diff.remaps:
        assert tuple(before[(remap.pool_id, remap.pg)]) == remap.old
        assert remap.old != remap.new
    assert sorted(cluster._unclean) == sorted((m.pool_id, m.pg) for m in diff.remaps)


def test_compute_remap_empty_when_nothing_changed():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    cluster.create_pool("data", Replicated(2))
    diff = cluster._mark_unclean(cluster._acting_sets())
    assert diff.pgs_remapped == 0
    assert not cluster._unclean


def test_rebalance_migrates_and_trims():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.expand("host2", 2)
    stats = converge_sync(cluster)
    assert stats.objects_moved > 0
    assert stats.bytes_moved > 0
    assert stats.tasks_failed == 0
    assert not cluster._unclean
    assert placement_report(cluster) == []
    all_ok(cluster, pool, 20, 4096)


def test_reads_and_writes_flow_during_remap():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.expand("host2", 2)
    # With remaps active (nothing migrated yet), IO keeps working:
    all_ok(cluster, pool, 20, 4096)
    cluster.write_full_sync(pool, "during", b"x" * 8192)
    cluster.write_full_sync(pool, "obj0", b"y" * 4096)  # overwrite
    assert cluster.read_sync(pool, "during") == b"x" * 8192
    assert cluster.read_sync(pool, "obj0") == b"y" * 4096
    converge_sync(cluster)  # also trims union copies of mid-remap creations
    assert placement_report(cluster) == []
    assert cluster.read_sync(pool, "during") == b"x" * 8192
    assert cluster.read_sync(pool, "obj0") == b"y" * 4096


def test_decommission_drains_and_finalizes():
    cluster = RadosCluster(num_hosts=3, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    diff = cluster.decommission_osd(1)
    assert diff.pgs_remapped > 0
    assert 1 not in {o for r in diff.remaps for o in r.new}
    converge_sync(cluster)
    assert len(cluster.osds[1].store) == 0
    cluster.finalize_decommission(1)
    assert 1 not in cluster.osds
    assert 1 not in cluster.cluster_map.osds
    all_ok(cluster, pool, 20, 4096)
    assert placement_report(cluster) == []


def test_restart_does_not_cancel_decommission():
    """A daemon restart of a decommissioned OSD must leave it out of
    placement — mark_in on restart would silently undo the drain with
    no remap registered to move the data back."""
    cluster = RadosCluster(num_hosts=3, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.decommission_osd(1)
    cluster.fail_osd(1, mark_out=False)
    cluster.restart_osd(1)
    assert not cluster.cluster_map.osds[1].in_cluster
    converge_sync(cluster)
    cluster.finalize_decommission(1)
    assert placement_report(cluster) == []
    all_ok(cluster, pool, 20, 4096)


def test_finalize_decommission_refuses_undrained_osd():
    cluster = RadosCluster(num_hosts=3, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.decommission_osd(1)
    try:
        cluster.finalize_decommission(1)
    except ValueError:
        pass
    else:
        raise AssertionError("finalize on an undrained OSD must fail")


def test_ec_migration_preserves_user_xattrs():
    cluster = RadosCluster(num_hosts=3, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("ec", ErasureCoded(2, 1))
    fill(cluster, pool, n=12, size=12288)
    cluster.run(cluster.setxattr(pool, "obj0", "user.tag", b"keep-me"))
    cluster.expand("host3", 2)
    stats = converge_sync(cluster)
    assert stats.tasks_failed == 0
    assert placement_report(cluster) == []
    all_ok(cluster, pool, 12, 12288)
    # The user xattr survived shard reconstruction on the new OSDs.
    key = cluster.object_key(pool, "obj0")
    for osd_id in pool.acting_set_for("obj0"):
        assert cluster.osds[osd_id].store.getxattr(key, "user.tag") == b"keep-me"


def test_crash_mid_migration_is_resumable():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.expand("host2", 2)
    # Crash one of the NEW OSDs: migration into it must fail and stay
    # pending, without losing anything.
    cluster.fail_osd(4, mark_out=False)
    converge_sync(cluster)
    assert cluster._unclean  # not done: a target is down
    all_ok(cluster, pool, 20, 4096)  # reads still fine (degraded)
    cluster.restart_osd(4)
    stats2 = converge_sync(cluster)
    assert stats2.tasks_failed == 0
    assert not cluster._unclean
    assert placement_report(cluster) == []
    all_ok(cluster, pool, 20, 4096)


def test_rebalance_is_idempotent():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.expand("host2", 2)
    converge_sync(cluster)
    stats = converge_sync(cluster)  # nothing left: a no-op
    assert stats.objects_moved == 0
    assert placement_report(cluster) == []


def test_rate_limit_slows_migration():
    def migrate_time(rate):
        cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
        pool = cluster.create_pool("data", Replicated(2))
        fill(cluster, pool, n=20, size=65536)
        cluster.expand("host2", 2)
        start = cluster.sim.now
        converge_sync(cluster, rate_limit_bps=rate)
        return cluster.sim.now - start

    assert migrate_time(64 * 1024) > migrate_time(None)


def test_rebalance_emits_spans():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.expand("host2", 2)

    with Tracer(cluster.sim) as tracer:
        cluster.run(converge(cluster))
    records = tracer.to_records()
    stages = {r["stage"] for r in records}
    assert "op.converge" in stages  # one per pass
    assert "converge.pg" in stages
    assert "converge.copy" in stages
    assert check_trace(records, required_stages=("converge.",)) == []


def test_rebalance_stats_accounting():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool, n=20, size=4096)
    cluster.expand("host2", 2)
    stats = converge_sync(cluster)
    assert stats.bytes_moved == sum(stats.bytes_by_pool.values())
    assert stats.pgs_converged > 0
    assert stats.passes >= 1
    assert stats.degraded_seconds >= 0.0
    assert any("copies moved" in line for line in stats.summary_lines())


def test_dedup_tier_survives_expansion():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster, DedupConfig(chunk_size=4096), start_engine=False
    )
    payloads = {f"o{i}": bytes([i % 7]) * 16384 for i in range(10)}
    for oid, data in payloads.items():
        storage.write_sync(oid, data)
    storage.drain()
    chunks_before = storage.space_report().chunk_objects
    storage.expand("host2", 2)
    # Reads and writes keep working against the union while remapped.
    assert storage.read_sync("o0", 0, 16384) == payloads["o0"]
    stats = storage.rebalance_sync()
    assert stats.tasks_failed == 0
    assert placement_report(cluster) == []
    # Migration moved chunk objects without duplicating or losing any:
    # refcount metadata travelled inside the chunk objects' xattrs.
    report = storage.space_report()
    assert report.chunk_objects == chunks_before
    assert scrub_sync(storage.tier).clean
    for oid, data in payloads.items():
        assert storage.read_sync(oid, 0, len(data)) == data
