"""Tests for the single-owner ``needs_backfill`` lifecycle.

Both rejoin paths (``restart_osd``: disk intact; ``revive_osd``: fresh
disk) must flag the OSD ``needs_backfill``; only ``converge()`` clears
the flag, and only once every PG the OSD serves has reconciled it with
the other up members.  The regression this pins down: a revived OSD
that rejoined *unflagged* looked like a clean acting replica with no
data, which recovery's deletion planner could read as a deletion
witness — "the object is gone from a healthy acting holder, so the
stale copies elsewhere must be tombstones" — deleting the last real
copy of an object that was merely waiting for backfill.
"""

import pytest

from repro.cluster import (
    ErasureCoded,
    RadosCluster,
    Replicated,
    converge,
    converge_sync,
    placement_report,
)
from repro.cluster.scrub import scrub_pool_sync
from repro.faults.errors import NetworkPartitionError


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
    converge_sync(cluster)
    assert not cluster.osds[0].needs_backfill


def test_revive_sets_flag_and_only_recover_clears_it():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.fail_osd(0)
    converge_sync(cluster)
    cluster.revive_osd(0)
    assert cluster.osds[0].needs_backfill
    converge_sync(cluster)
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
    converge_sync(cluster)
    cluster.revive_osd(0)
    assert len(cluster.osds[0].store) == 0
    stats = converge_sync(cluster)
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
    """A convergence that could not finish must NOT clear the flag —
    clearing it would promote a half-backfilled OSD to a trusted
    replica."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    fill(cluster, pool)
    cluster.fail_osd(0, mark_out=False)
    for i in range(20):
        cluster.write_full_sync(pool, f"obj{i}", bytes([i + 1]) * 4096)
    cluster.restart_osd(0)

    class CutOff:
        """Every transfer onto osd.0's host fails mid-convergence."""

        def check_link(self, src_nic, dst_nic):
            if dst_nic is cluster.osds[0].node.nic:
                raise NetworkPartitionError(src_nic.owner, dst_nic.owner)

    cluster.faults = CutOff()
    stats = converge_sync(cluster)
    assert stats.tasks_failed > 0
    assert cluster.osds[0].needs_backfill
    cluster.faults = None
    stats = converge_sync(cluster)
    assert stats.tasks_failed == 0
    assert not cluster.osds[0].needs_backfill
    assert placement_report(cluster) == []
    for i in range(20):
        assert cluster.read_sync(pool, f"obj{i}") == bytes([i + 1]) * 4096


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
    stats = converge_sync(cluster)
    assert stats.objects_lost == 0
    assert scrub_pool_sync(cluster, pool).clean
    for i, name in enumerate(names):
        assert cluster.read_sync(pool, name) == _payload(1, i)


def test_ec_partial_write_after_restart_keeps_acknowledged_bytes():
    cluster, pool, names = _restart_window(ErasureCoded(2, 1), n=30)
    patch = b"\xee" * 50
    for name in names:
        cluster.write_sync(pool, name, 100, patch)
    converge_sync(cluster)
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
    lacks an object does not prove it deleted: reads and convergence
    must both keep it."""
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
    assert converge_sync(cluster).objects_lost == 0
    assert placement_report(cluster) == []
    for oid, data in payloads.items():
        assert cluster.read_sync(pool, oid) == data


def test_a_write_committing_mid_copy_survives_convergence():
    """A client write that commits while convergence copies the object
    onto a restarted replica must not be overwritten there by the older
    bytes the copy read: every move runs under the object's write lock.
    Started 0-990 us after the write, an unlocked copy lost it for about
    half the offsets (the primary held C, the replica B, flag cleared)."""
    for step in range(100):
        cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=8)
        pool = cluster.create_pool("data", Replicated(2))
        cluster.write_full_sync(pool, "o", b"A" * 65536)
        primary, replica = pool.acting_set_for("o")
        cluster.fail_osd(replica, mark_out=False)
        cluster.write_full_sync(pool, "o", b"B" * 65536)
        cluster.restart_osd(replica)
        sim = cluster.sim

        def race(delay=step * 10e-6):
            write = sim.process(cluster.write_full(pool, "o", b"C" * 65536))
            yield sim.timeout(delay)
            yield sim.all_of([write, sim.process(converge(cluster))])

        cluster.run(race())
        key = cluster.object_key(pool, "o")
        assert cluster.osds[replica].store.read(key) == b"C" * 65536, step
        assert not cluster.osds[replica].needs_backfill
        cluster.fail_osd(primary, mark_out=False)
        assert cluster.read_sync(pool, "o") == b"C" * 65536, step


def test_a_delete_while_a_marked_out_replica_was_down_stays_deleted():
    """An OSD fails out, convergence copies its objects elsewhere, some
    are deleted, and it restarts stale: its PGs are unclean, with the
    interim copy still parked, yet a member they had all along witnesses
    the deletes, so the restarted copies are trimmed, not resurrected."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=8)
    pool = cluster.create_pool("data", Replicated(2))
    for i in range(16):
        cluster.write_full_sync(pool, f"obj{i}", _payload(4, i))
    cluster.fail_osd(0)
    converge_sync(cluster)
    stale = [
        f"obj{i}" for i in range(16)
        if cluster.osds[0].store.exists(cluster.object_key(pool, f"obj{i}"))
    ]
    assert stale
    for name in stale:
        cluster.remove_sync(pool, name)
    cluster.restart_osd(0)
    assert all(not cluster.exists(pool, name) for name in stale)
    converge_sync(cluster)
    assert placement_report(cluster) == []
    for i in range(16):
        name = f"obj{i}"
        assert cluster.exists(pool, name) == (name not in stale)


@pytest.mark.parametrize("mark_out", [True, False], ids=["out", "in"])
def test_a_down_osd_does_not_keep_a_reconciled_one_untrusted(mark_out):
    """osd.0 fails for good; osd.1 then restarts and convergence
    reconciles it.  Copies stranded on osd.0 (or osd.0 itself, still an
    acting member) must not keep osd.1 flagged: a flagged member is no
    deletion witness, so an object deleted while osd.2 was down would
    come back from osd.2's stale copy."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    names = [f"obj{i}" for i in range(48)]
    for i, name in enumerate(names):
        cluster.write_full_sync(pool, name, _payload(5, i))
    cluster.fail_osd(0, mark_out=mark_out)
    converge_sync(cluster)
    if mark_out:
        # Only copies on the dead, out disk are left behind: every PG is
        # clean, so writes keep their fast path.
        assert not cluster._unclean
        assert placement_report(cluster) == []
    cluster.fail_osd(1, mark_out=False)
    cluster.restart_osd(1)
    converge_sync(cluster)
    assert not cluster.osds[1].needs_backfill
    victim = next(n for n in names if sorted(pool.acting_set_for(n)) == [1, 2])
    cluster.fail_osd(2, mark_out=False)
    cluster.remove_sync(pool, victim)
    cluster.restart_osd(2)
    assert not cluster.exists(pool, victim)
    converge_sync(cluster)
    assert not cluster.exists(pool, victim)
    key = cluster.object_key(pool, victim)
    assert not any(osd.store.exists(key) for osd in cluster.osds.values() if osd.up)
    for i, name in enumerate(names):
        if name != victim:
            assert cluster.read_sync(pool, name) == _payload(5, i)
