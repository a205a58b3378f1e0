"""Tests for generic transactions on erasure-coded pools (full-stripe RMW)."""

import pytest

from repro.cluster import ErasureCoded, NotEnoughReplicas, RadosCluster, Transaction
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import FaultEvent


@pytest.fixture
def setup():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    pool = cluster.create_pool("ec", ErasureCoded(k=2, m=1))
    return cluster, pool


def test_ec_txn_write_and_xattr(setup):
    cluster, pool = setup
    key = cluster.object_key(pool, "obj")
    txn = Transaction().write(key, 0, b"payload").setxattr(key, "meta", b"value")
    cluster.submit_sync(pool, "obj", txn)
    assert cluster.read_sync(pool, "obj") == b"payload"
    assert cluster.run(cluster.getxattr(pool, "obj", "meta")) == b"value"


def test_ec_txn_partial_write_is_rmw(setup):
    cluster, pool = setup
    cluster.write_full_sync(pool, "obj", b"a" * 1000)
    key = cluster.object_key(pool, "obj")
    cluster.submit_sync(pool, "obj", Transaction().write(key, 500, b"MID"))
    got = cluster.read_sync(pool, "obj")
    assert got[:500] == b"a" * 500 and got[500:503] == b"MID"


def test_ec_txn_preserves_existing_metadata(setup):
    cluster, pool = setup
    key = cluster.object_key(pool, "obj")
    cluster.submit_sync(
        pool, "obj", Transaction().write_full(key, b"v1").setxattr(key, "keep", b"me")
    )
    cluster.submit_sync(pool, "obj", Transaction().write(key, 0, b"V"))
    assert cluster.run(cluster.getxattr(pool, "obj", "keep")) == b"me"
    assert cluster.read_sync(pool, "obj") == b"V1"


def test_ec_txn_omap(setup):
    cluster, pool = setup
    key = cluster.object_key(pool, "obj")
    cluster.submit_sync(
        pool, "obj", Transaction().write_full(key, b"d").omap_set(key, {"k": b"v"})
    )
    assert cluster.run(cluster.omap_get(pool, "obj", "k")) == b"v"
    cluster.submit_sync(pool, "obj", Transaction().omap_rm(key, ["k"]))
    with pytest.raises(KeyError):
        cluster.run(cluster.omap_get(pool, "obj", "k"))


def test_ec_txn_zero_and_truncate(setup):
    cluster, pool = setup
    key = cluster.object_key(pool, "obj")
    cluster.write_full_sync(pool, "obj", b"z" * 1000)
    cluster.submit_sync(pool, "obj", Transaction().zero(key, 100, 100))
    got = cluster.read_sync(pool, "obj")
    assert got[100:200] == b"\x00" * 100
    cluster.submit_sync(pool, "obj", Transaction().truncate(key, 150))
    assert cluster.run(cluster.stat(pool, "obj")) == 150


def test_ec_txn_remove(setup):
    cluster, pool = setup
    key = cluster.object_key(pool, "obj")
    cluster.write_full_sync(pool, "obj", b"gone")
    cluster.submit_sync(pool, "obj", Transaction().remove(key))
    assert not cluster.exists(pool, "obj")


def test_ec_txn_costs_more_than_replicated(setup):
    """The whole point: a tiny mutation on EC pays a full-stripe RMW."""
    cluster, pool = setup
    rpool = cluster.create_pool("rep")
    big = b"b" * 262144
    cluster.write_full_sync(pool, "obj", big)
    cluster.write_full_sync(rpool, "obj", big)
    t0 = cluster.sim.now
    cluster.write_sync(rpool, "obj", 10, b"!")
    rep_cost = cluster.sim.now - t0
    t0 = cluster.sim.now
    cluster.write_sync(pool, "obj", 10, b"!")
    ec_cost = cluster.sim.now - t0
    assert ec_cost > 3 * rep_cost


def test_ec_txn_degraded(setup):
    cluster, pool = setup
    cluster.write_full_sync(pool, "obj", b"d" * 3000)
    key = cluster.object_key(pool, "obj")
    holders = [o.osd_id for o in cluster.osds.values() if o.store.exists(key)]
    cluster.cluster_map.mark_down(holders[0])
    cluster.submit_sync(pool, "obj", Transaction().write(key, 0, b"NEW"))
    got = cluster.read_sync(pool, "obj")
    assert got[:3] == b"NEW"
    assert got[3:] == b"d" * 2997


# -- acknowledged writes are never lost (one commit pipeline) ------------------


def test_ec_write_full_needs_min_size_shards_after_prepare():
    """Two of three shards die between their prepare and the commit
    point: the stripe would keep one shard, below ``min_size``, so the
    write must fail and leave no shard behind."""
    cluster = RadosCluster(num_hosts=3, osds_per_host=1, pg_num=8)
    pool = cluster.create_pool("ec", ErasureCoded(k=2, m=1))
    slots = pool.acting_set_for("obj")
    plan = FaultPlan(
        [
            FaultEvent(0.0, "slow_disk", str(slots[2]), duration=10.0,
                       params={"factor": 200.0}),
            FaultEvent(0.002, "osd_crash", str(slots[0])),
            FaultEvent(0.002, "osd_crash", str(slots[1])),
        ]
    )
    FaultInjector(cluster, plan, auto_recover=False).attach()
    with pytest.raises(NotEnoughReplicas):
        cluster.write_full_sync(pool, "obj", b"s" * 8192)
    key = cluster.object_key(pool, "obj")
    assert [o.osd_id for o in cluster.osds.values() if o.store.exists(key)] == []


def test_ec_setxattr_during_partial_write_lands_after_it(setup):
    """A setxattr issued while a partial write's read-modify-write is in
    flight queues behind it: the write cannot carry the old xattr value
    over the acknowledged new one."""
    cluster, pool = setup
    key = cluster.object_key(pool, "obj")
    cluster.submit_sync(
        pool, "obj",
        Transaction().write_full(key, b"o" * 8192).setxattr(key, "tag", b"v1"),
    )
    sim = cluster.sim

    def setxattr_later():
        yield sim.timeout(0.0003)
        yield from cluster.setxattr(pool, "obj", "tag", b"v2")

    write = sim.process(cluster.write(pool, "obj", 1024, b"w" * 1024))
    tag = sim.process(setxattr_later())
    sim.run_until_complete(sim.all_of([write, tag]))
    shards = [o.store.get(key) for o in cluster.osds.values() if o.store.exists(key)]
    assert len(shards) == 3
    assert [s.xattrs["tag"] for s in shards] == [b"v2"] * 3
    assert cluster.read_sync(pool, "obj") == b"o" * 1024 + b"w" * 1024 + b"o" * 6144
