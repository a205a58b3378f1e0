"""Writes to one object commit after releasing its lock, in line order.

A foreground write holds the object lock only to build its transaction
and take its place in the object's write line; it commits after the
write it was built on, and a write built on one that did not commit
fails before its commit point.  Every other user of the object lock
waits, once it holds the lock, until no write is in flight.
"""

import pytest

from repro.cluster import RadosCluster
from repro.cluster.osd import OSD
from repro.core import DedupConfig, DedupedStorage, verdict
from repro.faults import RetryPolicy
from repro.faults.errors import TransientOpError
from repro.obs import Tracer

KiB = 1024


def make_storage():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(chunk_size=KiB, dedup_interval=0.01, cache_on_flush=False)
    return DedupedStorage(cluster, config, start_engine=False)


def traces(tracer, root):
    """``{stage: [spans]}`` per trace of a traced run whose root op is
    ``root``, in start order."""
    by_id = {}
    for span in tracer.spans:
        by_id.setdefault(span.trace_id, {}).setdefault(span.stage, []).append(span)
    return [trace for trace in by_id.values() if root in trace]


def replicas_agree(storage, oid):
    key = storage.tier.metadata_key(oid)
    copies = {
        (bytes(osd.store.get(key).read()), tuple(sorted(osd.store.get(key).omap.items())))
        for osd in storage.cluster.acting_osds(storage.tier.metadata_pool, oid)
    }
    return len(copies) == 1


@pytest.mark.parametrize("retries", ["off", "on"])
def test_a_prepare_fault_on_the_first_write_aborts_the_pipelined_second(retries, monkeypatch):
    # The second write is built on the first's projected map (which
    # grows the object by 63 chunks) while the first replicates, and the
    # first's prepare fails.  Committing the second anyway would store a
    # header counting rows that never landed.
    storage = make_storage()
    cluster, sim, tier = storage.cluster, storage.sim, storage.tier
    storage.write_sync("obj1", b"x" * (4 * KiB))
    if retries == "off":
        tier.retry_policy = RetryPolicy(max_attempts=1)
    prepare = OSD.prepare_transaction
    faulted = []

    def faulty(osd, txn):
        if txn.io_bytes > 64 * KiB and not faulted:  # the first write, once
            yield from prepare(osd, txn)
            faulted.append(osd.osd_id)
            raise TransientOpError(osd.osd_id, "write")
        yield from prepare(osd, txn)

    monkeypatch.setattr(OSD, "prepare_transaction", faulty)
    nic = cluster.profile.nic
    first_sent = 2 * nic.transfer_time(64 * KiB) + nic.latency
    errors = {}

    def write(name, delay, data, offset, client):
        yield sim.timeout(delay)
        try:
            yield from storage.write("obj1", data, offset=offset, client=client)
        except Exception as exc:
            errors[name] = type(exc).__name__

    def both():
        yield sim.all_of([
            sim.process(write("first", 0.0, b"a" * (64 * KiB), 3 * KiB, storage.client("c1"))),
            sim.process(write("second", first_sent, b"b" * 100, 0, storage.client("c2"))),
        ])

    with Tracer(sim) as tracer:
        cluster.run(both())
    cmap = tier.peek_chunk_map("obj1")  # the stored map decodes
    if retries == "off":
        assert errors == {"first": "TransientOpError", "second": "PriorWriteFailed"}
        assert len(cmap) == 4
        assert storage.read_sync("obj1", 3 * KiB, 64 * KiB) == b"x" * KiB  # pre-write bytes
        assert storage.read_sync("obj1") == b"x" * (4 * KiB)
    else:
        assert errors == {}
        assert len(cmap) == 67
        assert storage.read_sync("obj1") == b"b" * 100 + b"x" * (3 * KiB - 100) + b"a" * (64 * KiB)
    assert replicas_agree(storage, "obj1")
    # The second was in line behind the first: it failed at its commit
    # point, once the first had.
    first, second = (t["rados.submit"] for t in sorted(
        traces(tracer, "op.write"), key=lambda t: t["op.write"][0].tags["nbytes"], reverse=True))
    assert first[0].tags["error"] == "TransientOpError"
    assert second[0].tags["error"] == "PriorWriteFailed"
    assert second[0].start < first[0].end <= second[0].end
    found = verdict(storage)  # no place left in the write line, no lock held
    assert found.clean, found.problems


def _exclusive(storage, op):
    """A process running ``op`` on obj1: an engine pass, a delete or a
    promotion, each a user of the object lock that is not a write."""
    engine = storage.engine
    if op == "dedup_pass":
        return engine.process_object("obj1", force=True)
    if op == "promote":
        return engine.promote_object("obj1")

    def delete():
        yield from storage.delete("obj1")

    return delete()


@pytest.mark.parametrize("op", ["delete", "dedup_pass", "promote"])
def test_an_exclusive_user_waits_for_the_writes_in_flight(op, monkeypatch):
    # obj1 is deduplicated and evicted (every chunk in the chunk pool).
    # Two writes take their place in its line; as the second releases
    # the object lock, ``op`` takes it — with both still replicating.
    storage = make_storage()
    sim, tier = storage.sim, storage.tier
    base = bytes(range(256)) * (8 * KiB // 256)
    storage.write_sync("obj1", base)
    storage.drain()
    assert tier.peek_chunk_map("obj1").cached_indices() == []
    join = tier.join_write_line
    started = []

    def joining(oid, cmap, after):
        place = join(oid, cmap, after)
        if after is not None:  # the second write in line
            started.append(sim.process(_exclusive(storage, op)))
        return place

    monkeypatch.setattr(tier, "join_write_line", joining)

    def writes():
        yield sim.all_of([
            sim.process(storage.write("obj1", b"a" * KiB, client=storage.client("c1"))),
            sim.process(storage.write("obj1", b"b" * 1500, offset=KiB, client=storage.client("c2"))),
        ])

    with Tracer(sim) as tracer:
        storage.cluster.run(writes())
        sim.run_until_complete(sim.all_of(started))
    commits = [span.end for t in traces(tracer, "op.write") for span in t["rados.submit"]]
    assert len(started) == 1 and len(commits) == 2
    root = {"delete": "op.delete", "dedup_pass": "op.dedup_pass", "promote": "op.promote"}[op]
    (spans,) = traces(tracer, root)
    (lock,) = [s for s in spans["lock.wait"] if s.tags["lock"] == "tier.object:obj1"]
    assert lock.end < max(commits)  # it held the lock while the writes flew
    # Nothing read the object before the last write's commit point.
    assert min(s.start for s in spans["tier.load_chunk_map"]) >= max(commits)

    written = b"a" * KiB + b"b" * 1500 + base[KiB + 1500 :]
    if op == "delete":
        assert not storage.cluster.exists(tier.metadata_pool, "obj1")
    else:
        assert storage.read_sync("obj1") == written
        cmap = tier.peek_chunk_map("obj1")
        if op == "dedup_pass":
            assert cmap.dirty_indices() == []
        else:
            assert cmap.dirty_indices() == [0, 1, 2]  # still the writes' own
            assert len(cmap.cached_indices()) == 8
        assert replicas_agree(storage, "obj1")
    storage.drain()
    # Refcounts equal the live references, and nothing is left in line.
    found = verdict(storage, shadow=None if op == "delete" else {"obj1": written})
    assert found.clean, found.problems


def test_a_failed_write_whose_deadline_fires_still_resolves_its_place_in_line(monkeypatch):
    # The second write is in line behind the first, which replicates
    # 64 KiB; the second's own prepare faults, and its attempt deadline
    # (set only for it) falls before the first's commit point.  The
    # failed attempt's place must resolve anyway: a place left pending
    # would leave the line with an entry no write ever clears, and every
    # later write, delete or engine pass of the object waiting on it.
    storage = make_storage()
    cluster, sim, tier = storage.cluster, storage.sim, storage.tier
    storage.write_sync("obj1", b"x" * (4 * KiB))
    prepare = OSD.prepare_transaction
    faulted = []

    def faulty(osd, txn):
        if txn.io_bytes < KiB and not faulted:  # the second write, once
            yield from prepare(osd, txn)
            faulted.append(sim.now)
            raise TransientOpError(osd.osd_id, "write")
        yield from prepare(osd, txn)

    monkeypatch.setattr(OSD, "prepare_transaction", faulty)
    nic = cluster.profile.nic
    first_sent = 2 * nic.transfer_time(64 * KiB) + nic.latency
    done = {}

    def write(name, delay, data, offset, client, policy=None):
        yield sim.timeout(delay)
        if policy is not None:
            tier.retry_policy = policy
        yield from storage.write("obj1", data, offset=offset, client=client)
        done[name] = sim.now

    def both():
        yield sim.all_of([
            sim.process(write("first", 0.0, b"a" * (64 * KiB), 3 * KiB, storage.client("c1"))),
            sim.process(write("second", first_sent, b"b" * 100, 0, storage.client("c2"),
                              RetryPolicy(op_timeout=0.0003))),
        ])

    cluster.run(both())
    tier.retry_policy = RetryPolicy()
    assert faulted and faulted[0] < done["first"]  # it failed with the first in flight
    assert set(done) == {"first", "second"}
    found = verdict(storage, shadow={"obj1": b"b" * 100 + b"x" * (3 * KiB - 100) + b"a" * (64 * KiB)})
    assert found.clean, found.problems
    storage.delete_sync("obj1")  # no place left pending to wait on
    storage.drain()
    found = verdict(storage)
    assert found.clean, found.problems
