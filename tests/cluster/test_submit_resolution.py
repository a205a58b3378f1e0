"""When the replicated commit pipeline resolves an item's replicas.

``_submit`` resolves every item's replicas once before the write locks,
to send the payload to the primary, and must commit on the replicas of
the moment it holds the locks.  The first resolution is reused when no
remap was active at either point and the cluster-map epoch has not moved;
anything that can change a holder set in between forces a second one.
"""

from repro.cluster import RadosCluster, Replicated, scrub_pool_sync
from repro.cluster.objectstore import Transaction
from repro.obs import Tracer

KiB = 1024


def _cluster():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    for i in range(8):
        cluster.write_full_sync(pool, "obj%d" % i, bytes([i]) * (4 * KiB))
    return cluster, pool


def _count_resolutions(cluster, monkeypatch):
    calls = []
    resolve = cluster._commit_groups

    def counting(pool, keys):
        calls.append(len(keys))
        return resolve(pool, keys)

    monkeypatch.setattr(cluster, "_commit_groups", counting)
    return calls


def _write(cluster, pool, oid, fill):
    key = cluster.object_key(pool, oid)
    return Transaction().write(key, 0, fill * (4 * KiB))


def test_a_settled_submit_resolves_its_replicas_once(monkeypatch):
    cluster, pool = _cluster()
    calls = _count_resolutions(cluster, monkeypatch)
    cluster.submit_sync(pool, "obj0", _write(cluster, pool, "obj0", b"A"))
    assert calls == [1]
    items = [("obj%d" % i, _write(cluster, pool, "obj%d" % i, b"B")) for i in range(8)]
    assert len({pool.pg_of(oid) for oid, _txn in items}) > 1
    cluster.submit_batch_sync(pool, items)
    assert calls == [1, 8]
    for i in range(8):
        assert cluster.read_sync(pool, "obj%d" % i) == b"B" * (4 * KiB)


def _submit_behind_a_held_lock(cluster, pool, oid, during_wait, after=0.01):
    """Submit a write of ``oid`` while its write lock is held; run
    ``during_wait()`` ``after`` seconds into the submit's queueing on the
    lock, then free it."""
    sim = cluster.sim
    key = cluster.object_key(pool, oid)
    held = []
    grant = cluster.write_locks.acquire(key, held)
    assert grant.triggered
    write = sim.process(cluster.submit(pool, oid, _write(cluster, pool, oid, b"N")))
    sim.run(until=sim.now + after)
    assert not write.triggered  # parked on the write lock
    during_wait()
    cluster.write_locks.release(held)
    sim.run_until_complete(write)
    sim.run()


def test_a_remap_registered_during_the_lock_wait_forces_re_resolution(monkeypatch):
    cluster, pool = _cluster()
    calls = _count_resolutions(cluster, monkeypatch)

    def expand():
        assert cluster.expand("host2", 2).pgs_remapped > 0

    _submit_behind_a_held_lock(cluster, pool, "obj3", expand)
    assert calls == [1, 1]
    holders = [
        osd for osd in cluster.acting_osds(pool, "obj3")
        if osd.store.exists(cluster.object_key(pool, "obj3"))
    ]
    assert holders
    for osd in holders:
        assert osd.store.read(cluster.object_key(pool, "obj3")) == b"N" * (4 * KiB)


def test_an_osd_marked_down_during_the_lock_wait_forces_re_resolution(monkeypatch):
    cluster, pool = _cluster()
    key = cluster.object_key(pool, "obj5")
    primary, replica = pool.acting_set(key.pg)
    calls = _count_resolutions(cluster, monkeypatch)

    _submit_behind_a_held_lock(
        cluster, pool, "obj5", lambda: cluster.fail_osd(replica, mark_out=False)
    )
    assert calls == [1, 1]
    # The write committed on the replicas of the moment it held the
    # lock: the primary only; the down replica keeps its old copy.
    assert cluster.osds[primary].store.read(key) == b"N" * (4 * KiB)
    assert cluster.osds[replica].store.read(key) == bytes([5]) * (4 * KiB)


def test_a_member_added_while_the_legs_fly_gets_the_payload_under_the_lock():
    # The send starts a leg to the replica's node; marking that replica
    # down and out while the leg is in flight remaps the PG onto a third
    # host.  The new member gets the whole transaction from the primary
    # under the lock, and the leg to the dropped member — stuck behind
    # 8 MiB the node is receiving — lands before the submit returns.
    cluster = RadosCluster(num_hosts=3, osds_per_host=1, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    key = cluster.object_key(pool, "fresh")
    primary, dropped = (cluster.osds[i] for i in pool.acting_set(key.pg))
    received = {name: node.nic.bytes_received for name, node in cluster.nodes.items()}
    cluster.sim.process(dropped.node.nic.receive(8 * KiB * KiB))
    nic = cluster.profile.nic
    to_primary = 2 * nic.transfer_time(4 * KiB) + nic.latency
    in_flight = to_primary + nic.transfer_time(4 * KiB)  # sent, not yet landed

    def mark_out():
        cluster.fail_osd(dropped.osd_id)

    with Tracer(cluster.sim) as tracer:
        _submit_behind_a_held_lock(cluster, pool, "fresh", mark_out, after=in_flight)
    (added,) = [cluster.osds[i] for i in pool.acting_set(key.pg) if i != primary.osd_id]
    assert added.node not in (primary.node, dropped.node)
    (submit,) = [span for span in tracer.spans if span.stage == "rados.submit"]
    (leg,) = [span for span in tracer.spans if span.stage == "rados.leg"]
    assert leg.tags == {"src": primary.node.name, "dst": dropped.node.name, "nbytes": 4 * KiB}
    assert leg.start < submit.start + in_flight < leg.end == submit.end
    assert "error" not in leg.tags
    # Both transfers show in the NIC counters: the leg to the dropped
    # member's node, the whole transaction to the added one's.
    assert dropped.node.nic.bytes_received - received[dropped.node.name] == 4 * KiB + 8 * KiB * KiB
    assert added.node.nic.bytes_received - received[added.node.name] == 4 * KiB
    for osd in (primary, added):
        assert osd.store.read(key) == b"N" * (4 * KiB)
    assert not dropped.store.exists(key)
    report = scrub_pool_sync(cluster, pool)
    assert report.clean and report.objects_checked == 1


def test_a_partial_write_after_a_mark_out_goes_only_to_the_holders():
    # Marking osd.0 out moves some PGs onto an OSD that never held their
    # objects.  A partial write handed to it would materialise a
    # zero-filled copy (100 zero bytes, then the patch) that recovery
    # takes for a clean replica.
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    oids = ["obj%d" % i for i in range(40)]
    for i, oid in enumerate(oids):
        cluster.write_full_sync(pool, oid, bytes([i]) * (4 * KiB))
    cluster.fail_osd(0)
    moved = 0
    for i, oid in enumerate(oids):
        key = cluster.object_key(pool, oid)
        up = [o for o in cluster.acting_osds(pool, oid) if o.info.up]
        moved += any(not o.store.exists(key) for o in up)
        cluster.write_sync(pool, oid, 100, b"patched!!!")
        expected = bytes([i]) * 100 + b"patched!!!" + bytes([i]) * (4 * KiB - 110)
        assert cluster.read_sync(pool, oid) == expected
        for osd in cluster.osds.values():
            if osd.store.exists(key):
                assert osd.store.get(key).read() in (expected, bytes([i]) * (4 * KiB)), (
                    oid, osd.osd_id)
    assert moved  # the mark-out did move PGs onto non-holders


def test_a_converge_queued_behind_shared_writes_runs_before_later_writes(monkeypatch):
    # Two replicated writes hold an object's write lock together
    # (shared); convergence of its remapped PG queues for it exclusively,
    # and a third write queues behind the convergence.  The convergence
    # copies only once both writes have committed, and the third write
    # waits for it to finish: it lands on the converged acting set.
    from repro.cluster import ConvergeStats, converge_sync
    from repro.cluster.converge import converge_pg

    cluster, pool = _cluster()
    sim = cluster.sim
    moved = {m.pg for m in cluster.expand("host2", 2).remaps if m.pool_id == pool.pool_id}
    oid = next("obj%d" % i for i in range(8) if pool.pg_of("obj%d" % i) in moved)
    key = cluster.object_key(pool, oid)
    grants = []  # (time, shared) per write-lock grant on the object
    acquire = cluster.write_locks.acquire

    def recording(lock_key, held, shared=False):
        grant = acquire(lock_key, held, shared=shared)
        if lock_key == key:
            grant.subscribe(lambda _event: grants.append((sim.now, shared)))
        return grant

    monkeypatch.setattr(cluster.write_locks, "acquire", recording)

    def write(fill, client):
        return sim.process(cluster.write(pool, oid, 0, fill * (64 * KiB), cluster.client(client)))

    with Tracer(sim) as tracer:
        first = [write(b"A", "c1"), write(b"B", "c2")]
        while len(grants) < 2:
            sim.step()
        assert not any(w.triggered for w in first)  # both hold it, neither committed
        converging = sim.process(converge_pg(cluster, pool, key.pg, ConvergeStats()))
        later = write(b"C", "c3")
        sim.run_until_complete(sim.all_of(first + [converging, later]))
    assert [shared for _t, shared in grants] == [True, True, False, True]
    submits = [s for s in tracer.spans if s.stage == "rados.submit"]
    copies = [s for s in tracer.spans if s.stage == "converge.copy"]
    assert len(submits) == 3 and copies
    first_commits = max(s.end for s in submits[:2])
    assert grants[1][0] < first_commits  # the two writes held it together
    assert first_commits <= grants[2][0]  # the convergence waited for both
    assert first_commits <= min(c.start for c in copies)  # never copied mid-write
    assert max(c.end for c in copies) <= grants[3][0]  # and ran before the third
    assert submits[2].end > max(c.end for c in copies)
    converge_sync(cluster)
    acting = [cluster.osds[i] for i in pool.acting_set(key.pg)]
    assert all(osd.store.read(key) == b"C" * (64 * KiB) for osd in acting)
    assert scrub_pool_sync(cluster, pool).clean
    assert len(cluster.write_locks) == 0
