"""Per-attempt deadlines that fire in the instant a lock is handed over.

The retry layer's deadline (``faults/retry.py``) interrupts an attempt
through an event of its own, so it can land after the holder's release
queued the lock's grant and before the waiter woke up for it.  The
waiter then owns a lock it never got past the ``yield`` for, and must
still give it back.  Each test holds one lock from a test process, lets
a retried tier op queue behind it, and releases the lock in the
deadline's instant, ``hops`` same-instant wake-ups after its own timer,
so the release falls on every step of the deadline's chain in turn.  A
lock owed but never released left the op and every later user of that
lock waiting for good.
"""

import pytest

from repro.cluster import ErasureCoded, RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.faults import RetryPolicy
from repro.obs import Tracer, check_trace

OP_TIMEOUT = 0.05
HOPS = [0, 1, 2]


def make_storage(**kwargs):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(chunk_size=1024)
    storage = DedupedStorage(cluster, config, start_engine=False, **kwargs)
    storage.tier.retry_policy = RetryPolicy(op_timeout=OP_TIMEOUT)
    return storage


def first_call(monkeypatch, sim, obj, name):
    """Wrap the process factory ``obj.name``; the returned event fires
    when its first call starts running, i.e. as the retry layer's first
    attempt (and its deadline) begins."""
    started = sim.event()
    real = getattr(obj, name)

    def spy(*args, **kwargs):
        if not started.triggered:
            started.succeed()
        result = yield from real(*args, **kwargs)
        return result

    monkeypatch.setattr(obj, name, spy)
    return started


def release_at_the_deadline(sim, table, key, attempt_started, hops):
    """Process: hold ``key``'s lock until the first attempt's deadline,
    then give it back ``hops`` same-instant wake-ups later."""
    held = []
    try:
        yield table.acquire(key, held)
        yield attempt_started
        yield sim.timeout(OP_TIMEOUT)
        for _ in range(hops):
            yield sim.timeout(0)
    finally:
        table.release(held)


@pytest.mark.parametrize("hops", HOPS)
def test_deadline_on_a_chunk_lock_grant_in_a_retried_delete(monkeypatch, hops):
    # delete_path retries release_refs, one commit_chunk_batch over the
    # object's chunks; it queues on the first chunk's lock.
    storage = make_storage()
    sim, tier = storage.sim, storage.tier
    data = b"x" * 1024 + b"y" * 1024  # two distinct chunks
    storage.write_sync("obj", data)
    storage.drain()
    chunks = storage.cluster.list_objects(tier.chunk_pool)
    assert len(chunks) == 2
    started = first_call(monkeypatch, sim, tier, "release_refs")
    sim.process(release_at_the_deadline(sim, tier.chunk_locks, min(chunks), started, hops))
    storage.delete_sync("obj")
    assert tier.retry_stats.timeouts == 1
    assert storage.cluster.list_objects(tier.chunk_pool) == []
    assert len(tier.chunk_locks) == 0 and len(tier.object_locks) == 0
    # A later reference of the same chunks takes their locks again.
    storage.write_sync("again", data)
    storage.drain()
    assert sorted(storage.cluster.list_objects(tier.chunk_pool)) == sorted(chunks)
    assert len(tier.chunk_locks) == 0


@pytest.mark.parametrize("hops", HOPS)
def test_deadline_on_an_ec_write_lock_grant_in_a_retried_submit(monkeypatch, hops):
    # write_path retries cluster.submit of the metadata object, which
    # queues on the object's write lock on an EC pool as on any other.
    storage = make_storage(metadata_redundancy=ErasureCoded(k=2, m=1))
    sim, tier, cluster = storage.sim, storage.tier, storage.cluster
    assert tier.metadata_pool.is_ec
    storage.write_sync("obj", b"a" * 2048)
    started = first_call(monkeypatch, sim, cluster, "submit")
    key = tier.metadata_key("obj")
    sim.process(release_at_the_deadline(sim, cluster.write_locks, key, started, hops))
    storage.write_sync("obj", b"b" * 2048)
    assert tier.retry_stats.timeouts == 1
    assert storage.read_sync("obj") == b"b" * 2048
    assert len(cluster.write_locks) == 0 and len(tier.object_locks) == 0
    # A later write of the object takes its write lock again.
    storage.write_sync("obj", b"c" * 2048)
    assert storage.read_sync("obj") == b"c" * 2048


def test_an_attempt_cut_at_its_deadline_is_a_finished_error_span(monkeypatch):
    # The retried delete above, traced: its first release attempt is
    # interrupted at the deadline while it waits for the chunk lock.
    storage = make_storage()
    sim, tier = storage.sim, storage.tier
    storage.write_sync("obj", b"x" * 1024 + b"y" * 1024)
    storage.drain()
    chunks = storage.cluster.list_objects(tier.chunk_pool)
    started = first_call(monkeypatch, sim, tier, "release_refs")
    sim.process(release_at_the_deadline(sim, tier.chunk_locks, min(chunks), started, 0))
    with Tracer(sim) as tracer:
        storage.delete_sync("obj")
    assert tier.retry_stats.timeouts == 1
    records = tracer.to_records()
    (op,) = [r for r in records if r["parent_id"] is None]
    assert op["stage"] == "op.delete" and "error" not in op["tags"]
    cut, retried = [r for r in records if r["stage"] == "tier.commit_chunk_batch"]
    assert cut["tags"]["error"] == "Interrupt"
    assert cut["end"] == pytest.approx(cut["start"] + OP_TIMEOUT)
    assert cut["parent_id"] == op["span_id"]
    assert "error" not in retried["tags"] and retried["parent_id"] == op["span_id"]
    assert check_trace(records) == []
