"""A submit built on another write commits behind it (``after=``).

``RadosCluster.submit`` takes the outcome event of the write it was
built on — the write line's order of one object's writes: the submit
prepares at once, its commit point waits for the event, and when that
write did not commit it raises ``PriorWriteFailed`` with no replica or
shard mutated.  Both pool types run the one pipeline.
"""

import pytest

from repro.cluster import ErasureCoded, PriorWriteFailed, RadosCluster, Replicated
from repro.cluster.objectstore import Transaction

KiB = 1024
OIDS = [f"obj{i}" for i in range(6)]
#: The object the submit writes; the others stay as written.
OID = OIDS[2]
#: When the event the batch is built on fires: long after every prepare.
FIRES_AT = 0.05

POOLS = {"rep2": lambda: Replicated(2), "ec21": lambda: ErasureCoded(2, 1)}


def _cluster(redundancy):
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=16)
    pool = cluster.create_pool("data", redundancy)
    for i, oid in enumerate(OIDS):
        cluster.write_full_sync(pool, oid, bytes([i]) * (8 * KiB))
    return cluster, pool


def _state(cluster):
    """Every stored copy or shard: payload and xattrs, by OSD and key."""
    return {
        (osd_id, key): (osd.store.read(key), dict(osd.store.get(key).xattrs))
        for osd_id, osd in cluster.osds.items()
        for key in list(osd.store.keys())
    }


def _txn(cluster, pool):
    key = cluster.object_key(pool, OID)
    return Transaction().write(key, KiB, b"N" * KiB).setxattr(key, "v", b"2")


def _submit_behind(cluster, pool, committed):
    """Run a write of :data:`OID` built on a write whose outcome
    (``committed``) lands at :data:`FIRES_AT`; returns ``(error, state
    at the instant before, finish time)``."""
    sim = cluster.sim
    after = sim.event()
    start = sim.now
    outcome = {}

    def write():
        try:
            yield from cluster.submit(pool, OID, _txn(cluster, pool), None, None, after)
        except PriorWriteFailed as exc:
            outcome["error"] = exc
        outcome["end"] = sim.now

    proc = sim.process(write())
    sim.run(until=start + FIRES_AT)
    before = _state(cluster)
    assert proc.is_alive  # prepared, waiting at its commit point
    after.succeed(committed)
    sim.run_until_complete(proc)
    return outcome.get("error"), before, outcome["end"] - start


@pytest.mark.parametrize("pool_type", sorted(POOLS))
def test_a_submit_whose_prior_write_failed_mutates_nothing(pool_type):
    cluster, pool = _cluster(POOLS[pool_type]())
    untouched = _state(cluster)
    error, before, _elapsed = _submit_behind(cluster, pool, committed=False)
    assert isinstance(error, PriorWriteFailed)
    assert before == untouched
    assert _state(cluster) == untouched
    for i, oid in enumerate(OIDS):
        assert cluster.read_sync(pool, oid) == bytes([i]) * (8 * KiB)


@pytest.mark.parametrize("pool_type", sorted(POOLS))
def test_a_submit_commits_no_earlier_than_its_prior_write(pool_type):
    cluster, pool = _cluster(POOLS[pool_type]())
    untouched = _state(cluster)
    error, before, elapsed = _submit_behind(cluster, pool, committed=True)
    assert error is None
    assert before == untouched  # nothing committed before the event fired
    assert elapsed >= FIRES_AT
    for i, oid in enumerate(OIDS):
        data = bytes([i]) * (8 * KiB)
        if oid == OID:
            data = data[:KiB] + b"N" * KiB + data[2 * KiB :]
        assert cluster.read_sync(pool, oid) == data
