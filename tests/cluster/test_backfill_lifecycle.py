"""Tests for the single-owner ``needs_backfill`` lifecycle.

Both rejoin paths (``restart_osd``: disk intact; ``revive_osd``: fresh
disk) must flag the OSD ``needs_backfill``; only ``recover()`` clears
the flag, and only after a fully successful pass.  The regression this
pins down: a revived OSD that rejoined *unflagged* looked like a clean
acting replica with no data, which recovery's deletion planner could
read as a deletion witness — "the object is gone from a healthy acting
holder, so the stale copies elsewhere must be tombstones" — deleting the
last real copy of an object that was merely waiting for backfill.
"""

import pytest

from repro.cluster import (
    ErasureCoded,
    RadosCluster,
    Replicated,
    placement_report,
    rebalance_sync,
    recover_sync,
)
from repro.cluster.scrub import scrub_pool_sync


def fill(cluster, pool, n=20, size=4096):
    for i in range(n):
        cluster.write_full_sync(pool, f"obj{i}", bytes([i % 256]) * size)


def test_restart_sets_flag_and_only_recover_clears_it():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.fail_osd(0, mark_out=False)
    cluster.restart_osd(0)
    assert cluster.osds[0].needs_backfill
    recover_sync(cluster)
    assert not cluster.osds[0].needs_backfill


def test_revive_sets_flag_and_only_recover_clears_it():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.fail_osd(0)
    recover_sync(cluster)
    cluster.revive_osd(0)
    assert cluster.osds[0].needs_backfill
    recover_sync(cluster)
    assert not cluster.osds[0].needs_backfill


def test_revived_empty_osd_is_not_a_deletion_witness():
    """The regression: fail an OSD out, recover (copies move to the new
    acting set), then re-add it empty.  The acting sets flip back to
    include the empty OSD, making every recovery copy a "stray" — and an
    unflagged empty rejoiner would let the planner delete those strays
    before backfill, losing data."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool, n=30)
    cluster.fail_osd(0)
    recover_sync(cluster)
    cluster.revive_osd(0)
    assert len(cluster.osds[0].store) == 0
    stats = recover_sync(cluster)
    assert stats.objects_lost == 0
    for i in range(30):
        assert cluster.read_sync(pool, f"obj{i}") == bytes([i % 256]) * 4096
    # Backfill completed: every acting holder (including OSD 0 where it
    # acts) holds its copy.
    for i in range(30):
        key = cluster.object_key(pool, f"obj{i}")
        for osd_id in pool.acting_set_for(f"obj{i}"):
            assert cluster.osds[osd_id].store.exists(key)


def test_failed_recovery_leaves_flag_set():
    """A recovery pass that could not finish must NOT clear the flag —
    clearing it would promote a half-backfilled OSD to a trusted
    replica."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.fail_osd(0, mark_out=False)
    cluster.restart_osd(0)
    # Take a source OSD down so some copy tasks fail mid-recovery.
    cluster.fail_osd(3, mark_out=False)
    stats = recover_sync(cluster)
    if stats.tasks_failed:
        assert cluster.osds[0].needs_backfill
    cluster.restart_osd(3)
    stats = recover_sync(cluster)
    assert stats.tasks_failed == 0
    assert not cluster.osds[0].needs_backfill
    assert not cluster.osds[3].needs_backfill


# -- the restart window: reads between ``restart_osd`` and recovery -------
#
# Four hosts of one OSD each: osd.0 misses writes while down (mark_out=False
# keeps it in every acting set it had), then rejoins flagged with its old
# disk.  Every read in this window must resolve holders by recovery's
# clean-first rule, or it decodes (or copies) the stale copy.


def _payload(gen, i, size=4096):
    return bytes((gen * 37 + i * 11 + j) % 251 for j in range(size))


def _restart_window(redundancy, n=40):
    """Write ``n`` objects, overwrite them while osd.0 is down, restart it."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=32)
    pool = cluster.create_pool("data", redundancy)
    names = [f"obj{i}" for i in range(n)]
    for i, name in enumerate(names):
        cluster.write_full_sync(pool, name, _payload(0, i))
    cluster.fail_osd(0, mark_out=False)
    for i, name in enumerate(names):
        cluster.write_full_sync(pool, name, _payload(1, i))
    cluster.restart_osd(0)
    assert any(0 in pool.acting_set_for(name)[:2] for name in names)
    return cluster, pool, names


def test_ec_read_after_restart_never_decodes_the_stale_shard():
    cluster, pool, names = _restart_window(ErasureCoded(2, 1))
    for i, name in enumerate(names):
        assert cluster.read_sync(pool, name) == _payload(1, i)


def test_ec_recovery_after_restart_rebuilds_from_clean_shards():
    cluster, pool, names = _restart_window(ErasureCoded(2, 1), n=30)
    stats = recover_sync(cluster)
    assert stats.objects_lost == 0
    assert scrub_pool_sync(cluster, pool).clean
    for i, name in enumerate(names):
        assert cluster.read_sync(pool, name) == _payload(1, i)


def test_ec_partial_write_after_restart_keeps_acknowledged_bytes():
    cluster, pool, names = _restart_window(ErasureCoded(2, 1), n=30)
    patch = b"\xee" * 50
    for name in names:
        cluster.write_sync(pool, name, 100, patch)
    recover_sync(cluster)
    for i, name in enumerate(names):
        want = bytearray(_payload(1, i))
        want[100:150] = patch
        assert cluster.read_sync(pool, name) == bytes(want)


@pytest.mark.parametrize(
    "redundancy",
    [Replicated(2), Replicated(3), ErasureCoded(2, 1)],
    ids=["rep2", "rep3", "ec21"],
)
def test_remove_after_restart_skips_the_replica_that_never_had_it(redundancy):
    """An object created while osd.0 was down is absent from its
    restarted copy: removing it must neither raise nor leave a copy."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=32)
    pool = cluster.create_pool("data", redundancy)
    cluster.fail_osd(0, mark_out=False)
    names = [f"new{i}" for i in range(20)]
    for i, name in enumerate(names):
        cluster.write_full_sync(pool, name, _payload(2, i))
    cluster.restart_osd(0)
    assert any(0 in pool.acting_set_for(name) for name in names)
    for name in names:
        cluster.remove_sync(pool, name)
    for name in names:
        key = cluster.object_key(pool, name)
        assert not any(osd.store.exists(key) for osd in cluster.osds.values())


def test_a_new_acting_member_mid_remap_is_no_deletion_witness():
    """Mid-remap the new acting members have not received every object
    yet, so when each old holder has restarted, a clean new member that
    lacks an object does not prove it deleted: reads, recovery (run
    before the rebalancer here) and rebalance must all keep it."""
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    payloads = {f"obj{i}": _payload(3, i) for i in range(12)}
    for oid, data in payloads.items():
        cluster.write_full_sync(pool, oid, data)
    cluster.expand("host2", 2)
    for osd_id in (0, 3):
        cluster.fail_osd(osd_id, mark_out=False)
    for osd_id in (0, 3):
        cluster.restart_osd(osd_id)
    for oid, data in payloads.items():
        assert cluster.read_sync(pool, oid) == data
    assert recover_sync(cluster).objects_lost == 0
    rebalance_sync(cluster)
    recover_sync(cluster)
    assert placement_report(cluster) == []
    for oid, data in payloads.items():
        assert cluster.read_sync(pool, oid) == data
