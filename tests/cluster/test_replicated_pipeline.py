"""The replicated commit pipeline behind ``submit`` and ``submit_batch``.

One sequence serves both: take the sorted per-object write locks,
resolve each item's replicas under them, prepare every replica of every
group, check quorum for all groups, commit, ack.  These tests pin the
parts of that sequence that only show under concurrency: replicas must
be resolved *after* the lock is granted (a PG can be remapped and even
settled while a write still waits on the client NIC), and a batch stays
all-or-nothing across PGs, mid-remap or not.
"""

import pytest

from repro.cluster import RadosCluster, Replicated, converge
from repro.cluster.objectstore import Transaction
from repro.faults import FaultInjector, FaultPlan, TransientOpError
from repro.faults.plan import FaultEvent
from repro.sim.core import Interrupt

KiB = 1024
N = 40


def _cluster():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    for i in range(N):
        cluster.write_full_sync(pool, "obj%d" % i, bytes([i]) * (16 * KiB))
    return cluster, pool


def _copies(cluster, pool, oid):
    """``{osd_id: payload}`` of every stored copy of ``oid``."""
    key = cluster.object_key(pool, oid)
    return {
        osd_id: osd.store.read(key)
        for osd_id, osd in sorted(cluster.osds.items())
        if osd.store.exists(key)
    }


def _overwrite(cluster, pool, i):
    oid = "obj%d" % i
    data = bytes([100 + i]) * (1024 * KiB)
    return oid, Transaction().write(cluster.object_key(pool, oid), 0, data), data


@pytest.mark.parametrize("batched", [False, True], ids=["submit", "submit_batch"])
def test_a_pg_remapped_and_settled_while_writes_queue_loses_no_write(batched):
    cluster, pool = _cluster()
    sim = cluster.sim
    client = cluster.client("busy")
    expected = {}
    txns = []
    for i in range(N):
        oid, txn, data = _overwrite(cluster, pool, i)
        expected[oid] = data  # 1 MiB over a 16 KiB object
        txns.append((oid, txn))
    if batched:
        writes = [
            sim.process(cluster.submit_batch(pool, txns[i : i + 2], client))
            for i in range(0, N, 2)
        ]
    else:
        writes = [
            sim.process(cluster.submit(pool, oid, txn, client)) for oid, txn in txns
        ]
    # Every write has started and sits on the client NIC; then the map
    # changes, and convergence migrates, trims and settles every PG
    # before most of the queued writes reach their object lock.
    sim.run(until=sim.now + 1e-6)
    diff = cluster.expand("host2", 2)
    assert diff.pgs_remapped > 0
    rebalance = sim.process(converge(cluster))
    sim.run_until_complete(sim.all_of(writes + [rebalance]))
    sim.run()
    assert not cluster._unclean
    for oid, data in sorted(expected.items()):
        acting = set(pool.acting_set(pool.pg_of(oid)))
        copies = _copies(cluster, pool, oid)
        assert set(copies) == acting, oid
        assert all(copy == data for copy in copies.values()), oid
        assert cluster.read_sync(pool, oid) == data


def _state(cluster, pool, oids):
    """Every stored copy of each object: payload and xattrs, per OSD."""
    state = {}
    for oid in oids:
        key = cluster.object_key(pool, oid)
        for osd_id, osd in sorted(cluster.osds.items()):
            if osd.store.exists(key):
                obj = osd.store.get(key)
                state[(oid, osd_id)] = (obj.read(), dict(obj.xattrs))
    return state


def _batch(cluster, pool, oids, fill):
    items = []
    for oid in oids:
        key = cluster.object_key(pool, oid)
        txn = Transaction().write(key, 0, fill * 4096).setxattr(key, "gen", fill)
        items.append((oid, txn))
    return items


def _eio(cluster, osd_id):
    """An EIO window on one OSD that fails every op it sees."""
    injector = FaultInjector(cluster, FaultPlan([
        FaultEvent(0.0, "transient_errors", str(osd_id), duration=60.0,
                   params={"probability": 1.0}),
    ]))
    return injector.attach()


def test_a_transient_fault_in_one_prepare_leaves_no_object_of_the_batch_changed():
    cluster, pool = _cluster()
    oids = ["obj%d" % i for i in range(12)]
    assert len({pool.pg_of(oid) for oid in oids}) > 3
    # A non-primary replica of the first object's PG fails its prepare.
    victim = pool.acting_set(pool.pg_of(oids[0]))[1]
    before = _state(cluster, pool, oids)
    _eio(cluster, victim)
    with pytest.raises(TransientOpError):
        cluster.submit_batch_sync(pool, _batch(cluster, pool, oids, b"X"))
    cluster.sim.run()
    assert _state(cluster, pool, oids) == before


def test_a_batch_across_a_mid_remap_and_a_settled_pg_is_atomic_and_lands_on_holders():
    cluster, pool = _cluster()
    diff = cluster.expand("host2", 2)
    moved = {remap.pg for remap in diff.remaps if remap.pool_id == pool.pool_id}
    oids = ["obj%d" % i for i in range(N)]
    remapped = next(oid for oid in oids if pool.pg_of(oid) in moved)
    settled = next(oid for oid in oids if pool.pg_of(oid) not in moved)
    created = next(
        "new%d" % i for i in range(1000) if pool.pg_of("new%d" % i) in moved
    )
    holders = set(_copies(cluster, pool, remapped))
    union = {osd.osd_id for osd in cluster.acting_osds(pool, created)}
    assert union - holders  # nothing migrated yet: a new member holds nothing
    names = [remapped, settled, created]

    # All-or-nothing: a holder of the mid-remap object fails its prepare.
    before = _state(cluster, pool, names)
    injector = _eio(cluster, sorted(holders)[-1])
    with pytest.raises(TransientOpError):
        cluster.submit_batch_sync(pool, _batch(cluster, pool, names, b"Y"))
    cluster.sim.run()
    assert _state(cluster, pool, names) == before
    injector.detach()

    cluster.submit_batch_sync(pool, _batch(cluster, pool, names, b"Z"))
    # The existing mid-remap object lands on exactly its holders, a new
    # one on every union member, the settled PG's on its acting set.
    assert set(_copies(cluster, pool, remapped)) == holders
    assert set(_copies(cluster, pool, created)) == union
    assert set(_copies(cluster, pool, settled)) == set(pool.acting_set_for(settled))
    for oid in names:
        assert {copy[:4096] for copy in _copies(cluster, pool, oid).values()} == {
            b"Z" * 4096
        }
    cluster.run(converge(cluster))
    assert not cluster._unclean
    for oid in names:
        assert set(_copies(cluster, pool, oid)) == set(pool.acting_set_for(oid))
        assert cluster.read_sync(pool, oid)[:4096] == b"Z" * 4096


def test_deadline_on_the_write_lock_grant_instant_does_not_leak_the_lock():
    # A per-attempt deadline (faults/retry.py) that fires in the instant
    # the object's write lock is handed to a queued submit.  The
    # interrupt overtakes the grant's wake-up; when the acquire was
    # yielded outside the try that releases it, the lock stayed held and
    # every later write of the object waited forever.
    cluster, pool = _cluster()
    sim = cluster.sim
    key = cluster.object_key(pool, "obj0")
    locks = cluster.write_locks
    t0 = sim.now
    log = []

    def interrupter(target):
        yield sim.timeout(0.01)
        target.interrupt("deadline")

    def holder():
        # Holds the object as a rebalance migration would, releasing it
        # at t0 + 0.01 — after the interrupter's timeout, same instant.
        held = []
        try:
            yield locks.acquire(key, held)
            yield sim.timeout(0.01)
        finally:
            locks.release(held)

    def victim():
        try:
            yield from cluster.write(pool, "obj0", 0, b"v" * 4096)
        except Interrupt as intr:
            log.append(("victim", intr.cause, sim.now))

    def late():
        yield sim.timeout(0.02)
        yield from cluster.write(pool, "obj0", 0, b"L" * 4096)
        log.append(("late", "ok"))

    target = sim.process(victim())
    sim.process(interrupter(target))
    sim.process(holder())
    late_write = sim.process(late())
    sim.run()
    assert log == [("victim", "deadline", t0 + 0.01), ("late", "ok")]
    assert late_write.ok
    assert len(locks) == 0  # no entry left for the key
    assert cluster.read_sync(pool, "obj0")[:4096] == b"L" * 4096
