"""Tests for the foreground write/read paths (engine off)."""

import pytest

from repro.cluster import NoSuchObject, RadosCluster, Transaction
from repro.core import DedupConfig, DedupedStorage
from repro.core.objects import CHUNK_MAP_XATTR
from repro.obs import Tracer


@pytest.fixture
def storage():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(chunk_size=1024, dedup_interval=0.01)
    return DedupedStorage(cluster, config, start_engine=False)


def test_write_read_roundtrip(storage):
    storage.write_sync("obj1", b"hello world")
    assert storage.read_sync("obj1") == b"hello world"


def test_multi_chunk_roundtrip(storage):
    data = bytes(range(256)) * 20  # 5 chunks of 1024
    storage.write_sync("obj1", data)
    assert storage.read_sync("obj1") == data


def test_offset_read(storage):
    data = b"0123456789" * 500
    storage.write_sync("obj1", data)
    assert storage.read_sync("obj1", offset=1000, length=100) == data[1000:1100]


def test_read_past_eof_is_short(storage):
    storage.write_sync("obj1", b"short")
    assert storage.read_sync("obj1", offset=3, length=100) == b"rt"
    assert storage.read_sync("obj1", offset=100, length=5) == b""


def test_read_missing_object_raises(storage):
    with pytest.raises(NoSuchObject):
        storage.read_sync("ghost")


def test_partial_overwrite(storage):
    storage.write_sync("obj1", b"a" * 3000)
    storage.write_sync("obj1", b"B" * 100, offset=1500)
    got = storage.read_sync("obj1")
    assert got[:1500] == b"a" * 1500
    assert got[1500:1600] == b"B" * 100
    assert got[1600:] == b"a" * 1400


def test_sparse_write_reads_zeros_in_gap(storage):
    storage.write_sync("obj1", b"head")
    storage.write_sync("obj1", b"tail", offset=5000)
    got = storage.read_sync("obj1")
    assert got[:4] == b"head"
    assert got[4:5000] == b"\x00" * 4996
    assert got[5000:] == b"tail"


def test_empty_write_is_noop(storage):
    storage.write_sync("obj1", b"")
    assert not storage.cluster.exists(storage.tier.metadata_pool, "obj1")


def test_negative_offset_rejected(storage):
    with pytest.raises(ValueError):
        storage.write_sync("obj1", b"x", offset=-1)
    storage.write_sync("obj1", b"x")
    with pytest.raises(ValueError):
        storage.read_sync("obj1", offset=-1)


def test_write_marks_dirty_and_cached(storage):
    storage.write_sync("obj1", b"z" * 2500)
    cmap = storage.tier.peek_chunk_map("obj1")
    assert cmap is not None
    assert len(cmap) == 3
    for entry in cmap:
        assert entry.cached and entry.dirty
        assert entry.chunk_id == ""  # fingerprinting deferred
    assert storage.tier.dirty_count == 1


def test_chunk_map_persisted_on_all_replicas(storage):
    storage.write_sync("obj1", b"y" * 1024)
    key = storage.tier.metadata_key("obj1")
    holders = [
        o for o in storage.cluster.osds.values() if o.store.exists(key)
    ]
    assert len(holders) == 2
    blobs = {bytes(o.store.getxattr(key, CHUNK_MAP_XATTR)) for o in holders}
    assert len(blobs) == 1  # identical on every copy (self-contained)


def test_tail_chunk_length_grows(storage):
    storage.write_sync("obj1", b"a" * 100)
    storage.write_sync("obj1", b"b" * 100, offset=100)
    cmap = storage.tier.peek_chunk_map("obj1")
    assert cmap.get(0).length == 200
    assert storage.read_sync("obj1") == b"a" * 100 + b"b" * 100


def test_write_after_flush_prereads_noncached_chunk(storage):
    """Partial overwrite of a flushed+evicted chunk pre-reads the
    missing bytes from the chunk pool (write path step 2)."""
    storage.write_sync("obj1", b"a" * 1024)
    storage.drain()  # flush; cold object -> evicted from cache
    cmap = storage.tier.peek_chunk_map("obj1")
    assert not cmap.get(0).cached
    storage.write_sync("obj1", b"MID", offset=500)
    got = storage.read_sync("obj1")
    assert got == b"a" * 500 + b"MID" + b"a" * 521


def test_full_chunk_overwrite_skips_preread(storage):
    storage.write_sync("obj1", b"a" * 1024)
    storage.drain()
    assert not storage.tier.peek_chunk_map("obj1").get(0).cached
    with Tracer(storage.sim) as tracer:
        storage.write_sync("obj1", b"b" * 1024)  # full cover: no pre-read
    assert [s.stage for s in tracer.spans if s.stage == "tier.read_chunk"] == []
    assert storage.read_sync("obj1") == b"b" * 1024


def test_foreground_ops_feed_rate_window(storage):
    storage.write_sync("obj1", b"x" * 1024)
    storage.read_sync("obj1")
    # Both inside the one-second window: 2 ops, 2 KiB.
    assert storage.tier.fg_window.iops() == 2.0
    assert storage.tier.fg_window.throughput() == 2048.0


def test_many_objects_roundtrip(storage):
    payloads = {f"obj{i}": bytes([i]) * (100 + i * 37) for i in range(30)}
    for oid, data in payloads.items():
        storage.write_sync(oid, data)
    for oid, data in payloads.items():
        assert storage.read_sync(oid) == data


def test_short_segment_read_pads_and_counts(storage):
    """A chunk-pool segment that comes back short (backing object
    truncated mid-flight) is zero-padded, never silently dropped, and
    the anomaly is counted for the harness."""
    from repro.fingerprint import fingerprint

    data = b"s" * 1024 + b"t" * 1024
    storage.write_sync("obj1", data)
    storage.drain()  # chunks now live in the chunk pool, entries evicted
    fp = fingerprint(b"t" * 1024)
    key = storage.cluster.object_key(storage.tier.chunk_pool, fp)
    for osd in storage.cluster.osds.values():
        if osd.store.exists(key):
            osd.store.apply(Transaction().truncate(key, 100))  # every replica
    assert storage.tier.stage.read_short_segments == 0
    got = storage.read_sync("obj1")
    assert storage.tier.stage.read_short_segments >= 1
    assert got == b"s" * 1024 + b"t" * 100 + b"\x00" * 924


# -- what the object lock covers -----------------------------------------------


def _by_trace(tracer):
    """``{trace id: {stage: [spans]}}`` of a traced run, lock waits on
    anything but obj1's object lock left out."""
    by_trace = {}
    for span in tracer.spans:
        if span.stage != "lock.wait" or span.tags["lock"] == "tier.object:obj1":
            by_trace.setdefault(span.trace_id, {}).setdefault(span.stage, []).append(span)
    return sorted(by_trace.values(), key=lambda t: t["lock.wait"][0].end)


def _record(monkeypatch, method):
    """``[(time, osd id, io bytes)]`` of every ``OSD.<method>`` from now on."""
    from repro.cluster.osd import OSD

    calls = []
    original = getattr(OSD, method)

    def recording(osd, txn):
        calls.append((osd.sim.now, osd.osd_id, txn.io_bytes))
        return original(osd, txn)

    monkeypatch.setattr(OSD, method, recording)
    return calls


def test_a_second_writer_is_granted_the_lock_before_the_first_writers_commit(storage):
    # The payload travels before the lock and the commit after it: a
    # writer holds the object lock only to build its transaction and
    # take its place in line, so the second is granted the lock while
    # the first is still committing, and commits after it.
    storage.write_sync("obj1", b"x" * 4096)
    sim = storage.sim
    clients = [storage.client("c1"), storage.client("c2")]

    def both():
        yield sim.all_of([
            sim.process(storage.write("obj1", b"a" * 4096, client=clients[0])),
            sim.process(storage.write("obj1", b"b" * 1024, offset=100, client=clients[1])),
        ])

    with Tracer(sim) as tracer:
        storage.cluster.run(both())
    first, second = _by_trace(tracer)
    (op1,), (commit1,), (reply1,) = first["op.write"], first["rados.submit"], first["rados.reply"]
    (send2,), (lock2,), (commit2,) = second["tier.send"], second["lock.wait"], second["rados.submit"]
    assert commit1.end < reply1.end == op1.end
    assert send2.end == lock2.start  # sent, then queued
    assert commit1.start <= lock2.end < commit1.end  # granted while the first commits
    assert commit1.end <= commit2.end  # and committed after it
    assert "tier.load_chunk_map" not in second  # built on the first's map
    assert first["tier.send"][0].end == first["lock.wait"][0].start
    last = b"b" if second["op.write"][0].tags["nbytes"] == 1024 else b"a"
    assert storage.read_sync("obj1", 100, 1024) == last * 1024
    assert storage.tier._write_line == {}


def test_a_queued_writer_holds_the_lock_only_to_take_its_place_in_line(storage, monkeypatch):
    # Each writer's payload is at both replicas before it queues for the
    # object lock, and it holds the lock for no simulated time: its map
    # is the first writer's projected one.  Its control message, replica
    # prepare and ack run while the first is still replicating; its
    # commit point waits for the first's.
    KiB = 1024
    cluster, sim = storage.cluster, storage.sim
    storage.write_sync("obj1", b"x" * (128 * KiB))
    clients = [storage.client("c1"), storage.client("c2")]
    prepares = _record(monkeypatch, "prepare_transaction")
    commits = _record(monkeypatch, "commit_transaction")

    def both():
        yield sim.all_of([
            sim.process(storage.write("obj1", bytes([65 + i]) * (128 * KiB), client=c))
            for i, c in enumerate(clients)
        ])

    with Tracer(sim) as tracer:
        cluster.run(both())
    first, second = _by_trace(tracer)
    (lock1,), (commit1,) = first["lock.wait"], first["rados.submit"]
    (lock2,), (commit2,) = second["lock.wait"], second["rados.submit"]
    assert lock2.end < commit1.end  # not queued behind the first commit
    assert lock2.end == commit2.start  # the lock went as soon as it came

    # The second writer's replica prepare starts before the first has
    # committed: it does not wait for the first's round trip.  Commit
    # points stay in line order, on both replicas.
    key = storage.tier.metadata_key("obj1")
    primary, replica = [cluster.osds[i] for i in storage.tier.metadata_pool.acting_set(key.pg)]
    starts = [t for t, osd, _io in prepares if osd == replica.osd_id and t >= lock1.end]
    assert len(starts) == 2 and starts[1] < commit1.end
    assert [t for t, _osd, _io in commits] == [commit1.end] * 2 + [commit2.end] * 2
    assert commit1.end < commit2.end

    # A trace shows each payload leaving for the replica before the lock.
    for trace in (first, second):
        (send,), legs = trace["tier.send"], trace["rados.leg"]
        assert [leg.tags["nbytes"] for leg in legs] == [128 * KiB]
        assert legs[0].start == send.end == trace["lock.wait"][0].start

    got = storage.read_sync("obj1")
    assert got in (b"A" * (128 * KiB), b"B" * (128 * KiB))
    copies = {
        (bytes(osd.store.get(key).read()), tuple(sorted(osd.store.get(key).xattrs.items())))
        for osd in (primary, replica)
    }
    assert len(copies) == 1 and next(iter(copies))[0] == got
    assert storage.tier._write_line == {}


def test_a_lone_write_is_no_slower_for_sending_its_payload_early(storage, monkeypatch):
    # The leg leaves as soon as the payload reaches the primary and the
    # control message queues behind it, so a write nobody contends for
    # finishes no later than one that sends everything under the lock:
    # the payload to the primary, the whole transaction to the replica,
    # its prepare, its ack and the reply.
    KiB = 1024
    cluster, sim = storage.cluster, storage.sim
    nic, cpu, disk = cluster.profile.nic, cluster.profile.cpu, cluster.profile.disk
    prepares = _record(monkeypatch, "prepare_transaction")
    with Tracer(sim) as tracer:
        storage.write_sync("obj1", b"z" * (128 * KiB))
    (op,) = [span for span in tracer.spans if span.stage == "op.write"]
    ((_start, _primary, io), (_start, _replica, replica_io)) = prepares
    assert io == replica_io > 128 * KiB
    wire = 2 * nic.transfer_time(128 * KiB) + nic.latency
    under_the_lock = 2 * nic.transfer_time(io) + nic.latency
    prepare = cpu.per_io_cost + disk.write_time(io)
    all_under_the_lock = wire + under_the_lock + prepare + 2 * nic.latency
    assert op.end - op.start < all_under_the_lock
    assert storage.read_sync("obj1") == b"z" * (128 * KiB)


def test_a_partition_under_a_flying_leg_is_retried_and_leaks_nothing(storage, monkeypatch):
    # The link primary -> replica is cut while the write's leg is in
    # flight and the write queues for its object lock.  The control
    # message finds the partition; the failed attempt ends once its leg
    # has landed, and write_path's retry scope sends the payload again.
    from repro.faults import FaultPlan
    from repro.faults.plan import FaultEvent
    from repro.faults.scenario import locks_left
    from repro.sim import Event
    from repro.sim.core import Process

    KiB = 1024
    cluster, sim, tier = storage.cluster, storage.sim, storage.tier
    nic = cluster.profile.nic
    key = tier.metadata_key("obj1")
    primary, replica = [cluster.osds[i] for i in tier.metadata_pool.acting_set(key.pg)]
    client = storage.client("c1")
    sent_at = 2 * nic.transfer_time(128 * KiB) + nic.latency  # the leg leaves the primary
    storage.inject_faults(FaultPlan([
        FaultEvent(sent_at + 10e-6, "partition", f"{primary.node.name}|{replica.node.name}",
                   duration=0.001),
    ]))
    failures = []

    def recording_fail(process, exc):
        failures.append((type(exc).__name__, bool(process.callbacks)))
        return Event.fail(process, exc)

    monkeypatch.setattr(Process, "fail", recording_fail)
    held = []
    tier.object_locks.acquire("obj1", held)
    with Tracer(sim) as tracer:
        write = sim.process(storage.write("obj1", b"p" * (128 * KiB), client=client))
        sim.run(until=sent_at + 50e-6)  # partitioned, the leg still in flight
        tier.object_locks.release(held)
        sim.run_until_complete(write)
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.stage, []).append(span)
    send1, send2 = spans["tier.send"]
    leg1, leg2 = spans["rados.leg"]
    failed, committed = spans["rados.submit"]
    assert failed.tags["error"] == "NetworkPartitionError" and "error" not in committed.tags
    assert leg1.start == send1.end < failed.start < leg1.end == failed.end < send2.start
    assert all(leg.end is not None and "error" not in leg.tags for leg in (leg1, leg2))
    assert tier.retry_stats.retries == 1
    assert client.nic.bytes_sent == 2 * 128 * KiB  # the payload went twice
    assert all(observed for _name, observed in failures)
    assert ("NetworkPartitionError", True) in failures
    assert locks_left(storage) == []
    assert storage.read_sync("obj1") == b"p" * (128 * KiB)
    assert primary.store.get(key).read() == replica.store.get(key).read() == b"p" * (128 * KiB)


# -- read fan-out and repeat reads -------------------------------------------


def _storage():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(chunk_size=1024)
    return DedupedStorage(cluster, config, start_engine=False)


def _fanouts(spans):
    """``[(tier.read_fanout span, its tier.redirect spans)]``, one per read."""
    redirects = {}
    for span in spans:
        if span.stage == "tier.redirect":
            redirects.setdefault(span.trace_id, []).append(span)
    return [
        (span, redirects[span.trace_id])
        for span in spans
        if span.stage == "tier.read_fanout"
    ]


def test_read_fanout_is_bounded_only_by_the_reads_own_chunks():
    """Every chunk fetch of a read starts with the read's fan-out — a
    wide read is not metered, and concurrent reads share no tier-wide
    queue: whatever a fetch waits for, it waits for at a device."""
    storage = _storage()
    wide = b"".join(bytes([i]) * 1024 for i in range(24))
    storage.write_sync("wide", wide)
    storage.drain()  # cold object: all 24 chunks leave the cache
    with Tracer(storage.sim) as tracer:
        assert storage.read_sync("wide") == wide
    ((fanout, redirects),) = _fanouts(tracer.spans)
    assert len(redirects) == 24
    assert {span.start for span in redirects} == {fanout.start}

    storage = _storage()
    for i in range(12):
        payload = b"".join(bytes([4 * i + j]) * 1024 for j in range(4))
        storage.write_sync(f"obj{i}", payload)
    storage.drain()
    sim = storage.sim
    with Tracer(sim) as tracer:
        reads = [sim.process(storage.read(f"obj{i}")) for i in range(12)]
        sim.run_until_complete(sim.all_of(reads))
    fanouts = _fanouts(tracer.spans)
    assert len(fanouts) == 12
    for fanout, redirects in fanouts:
        assert len(redirects) == 4
        assert {span.start for span in redirects} == {fanout.start}
        # The read is done when its slowest fetch is: device queueing
        # inside the fetches is the only wait there is.
        assert fanout.end == max(span.end for span in redirects)
        assert fanout.end - fanout.start == max(
            span.end - span.start for span in redirects
        )


def test_rereading_a_chunk_backed_range_costs_the_same_every_time():
    """No layer serves a repeated chunk read for free: the third read
    of a flushed range pays the redirection the first one paid."""

    def flushed():
        cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
        config = DedupConfig(chunk_size=1024, cache_on_flush=False)
        storage = DedupedStorage(cluster, config, start_engine=False)
        storage.write_sync("obj1", b"q" * 1024 + b"r" * 1024)
        storage.drain()
        return storage

    def timed_read(storage):
        start = storage.sim.now
        assert storage.read_sync("obj1", offset=100, length=1500) == (
            b"q" * 924 + b"r" * 576
        )
        return storage.sim.now - start

    first_on_fresh_tier = timed_read(flushed())
    storage = flushed()
    for _ in range(3):
        assert timed_read(storage) == pytest.approx(first_on_fresh_tier, rel=1e-9)


def test_fragmented_write_prereads_at_the_metadata_primary(storage):
    """The pre-read of a too-fragmented entry is the metadata primary's:
    its bytes go into the transaction the primary ships to the
    replicas, so they land on the primary's NIC, not the client's."""
    from repro.core.objects import MAX_VALID_RANGES
    from repro.fingerprint import fingerprint

    tier, cluster = storage.tier, storage.cluster
    storage.write_sync("obj1", b"b" * 1024)
    storage.drain()  # flushed, evicted
    offsets = [200 * i for i in range(MAX_VALID_RANGES + 1)]
    for off in offsets[:-1]:  # disjoint sub-chunk writes: no pre-read yet
        storage.write_sync("obj1", b"w" * 10, offset=off)
    assert not tier.peek_chunk_map("obj1").get(0).fully_cached()
    primary = cluster.primary(tier.metadata_pool, "obj1").node
    holder = cluster.primary(tier.chunk_pool, fingerprint(b"b" * 1024)).node
    client = cluster.default_client
    assert holder is not primary and client.nic is not primary.nic
    before = client.nic.bytes_received, primary.nic.bytes_received
    storage.write_sync("obj1", b"w" * 10, offset=offsets[-1])  # the pre-read
    assert tier.peek_chunk_map("obj1").get(0).fully_cached()
    assert client.nic.bytes_received - before[0] == 0
    # The payload from the client, and the whole chunk from its holder.
    assert primary.nic.bytes_received - before[1] == 10 + 1024
    expected = bytearray(b"b" * 1024)
    for off in offsets:
        expected[off : off + 10] = b"w" * 10
    assert storage.read_sync("obj1") == bytes(expected)


def test_redirected_read_costs_two_hops_more_than_a_cached_read():
    """An uncontended 8 KiB read of a flushed chunk costs the cached
    read plus two one-way NIC latencies: the metadata primary's forward
    to the chunk primary, and the chunk-pool read's own request.

    The second hop is what reproduces the paper's redirection gap: with
    only the forward, Fig. 11's 32 KiB sequential-read ratio rises to
    about 0.94 and fails ``bench_fig11_seq_read``'s ``< 0.85``, and
    Fig. 10's Proposed read drops from 0.267 to 0.218 ms."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(chunk_size=8192, cache_on_flush=False)
    storage = DedupedStorage(cluster, config, start_engine=False)
    storage.write_sync("flushed", b"f" * 8192)
    storage.drain()  # the chunk lives only in the chunk pool
    storage.write_sync("cached", b"c" * 8192)  # dirty: in the data part

    def read_time(oid):
        start = storage.sim.now
        assert storage.read_sync(oid) == oid[0].encode() * 8192
        return storage.sim.now - start

    assert not storage.tier.peek_chunk_map("flushed").get(0).cached
    latency = cluster.profile.nic.latency
    assert read_time("flushed") == pytest.approx(read_time("cached") + 2 * latency, rel=1e-9)
