"""How a dedup pass assembles its partially cached chunks.

A sub-chunk overwrite of a flushed chunk caches only the new bytes; the
pass that flushes the chunk merges them with the old chunk object's
(the deferred read-modify-write).  It issues all of a pass's reads for
those chunks at once: one local read per cached range and a single
chunk-pool read spanning a chunk's missing ranges.  These tests pin the
I/O count, the simulated time that buys, and the fault contract while
reads are in flight.
"""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage, scrub_sync
from repro.faults.errors import TransientOpError
from repro.obs import Tracer

KiB = 1024
CHUNK = 16 * KiB

#: Simulated seconds of the single-chunk pass below (one cached range,
#: two missing ranges) when each missing range is its own chunk-pool
#: read, issued after the cached range's local read.
SEQUENTIAL_PASS_S = 0.001017203044891357
#: The same pass with the reads issued together.
PASS_S = 0.0008922030448913565


def make_storage():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(chunk_size=CHUNK, dedup_interval=0.01, cache_on_flush=False)
    return DedupedStorage(cluster, config, start_engine=False)


def flushed_then_patched(storage, oid, chunks, tone=1):
    """``oid`` flushed and evicted, then overwritten mid-chunk in every
    chunk: one cached range and two missing ranges each."""
    data = bytearray(b"".join(bytes([tone + i]) * CHUNK for i in range(chunks)))
    storage.write_sync(oid, bytes(data))
    storage.drain()
    for i in range(chunks):
        start = i * CHUNK + 6 * KiB
        storage.write_sync(oid, b"M" * 100, offset=start)
        data[start : start + 100] = b"M" * 100
    for i in range(chunks):
        entry = storage.tier.peek_chunk_map(oid).get(i)
        assert entry.dirty and len(entry.missing_ranges()) == 2
    return bytes(data)


def count_chunk_pool_reads(storage, monkeypatch):
    reads = []
    cluster = storage.cluster
    read = cluster.read

    def counting(pool, oid, *args, **kwargs):
        if pool is storage.tier.chunk_pool:
            reads.append(oid)
        return read(pool, oid, *args, **kwargs)

    monkeypatch.setattr(cluster, "read", counting)
    return reads


def run_pass(storage, oid):
    """Run one forced pass; ``(result, simulated seconds, assembly
    seconds)``.  Assembly runs from the pass's first chunk read to the
    end of its last chunk's fingerprint."""
    start = storage.sim.now
    with Tracer(storage.sim) as tracer:
        result = storage.cluster.run(storage.engine.process_object(oid, force=True))
    elapsed = storage.sim.now - start
    reads = [
        s.start for s in tracer.spans
        if s.stage in ("tier.read_local_chunk", "tier.read_chunk")
    ]
    hashed = [s.end for s in tracer.spans if s.stage == "cpu.fingerprint"]
    return result, elapsed, max(hashed) - min(reads)


def chunk_pool_round_trip(storage, oid):
    """Simulated seconds of a lone one-byte chunk-pool read made by the
    metadata primary of ``oid``."""
    entry = storage.tier.peek_chunk_map(oid).get(0)
    primary = storage.cluster.primary(storage.tier.metadata_pool, oid)
    start = storage.sim.now
    storage.cluster.run(
        storage.tier.read_chunk(entry.chunk_id, 0, 1, primary.node)
    )
    return storage.sim.now - start


def test_one_chunk_pool_read_per_partially_cached_chunk(monkeypatch):
    storage = make_storage()
    expected = flushed_then_patched(storage, "obj", chunks=1)
    old = storage.tier.peek_chunk_map("obj").get(0).chunk_id
    round_trip = chunk_pool_round_trip(storage, "obj")
    reads = count_chunk_pool_reads(storage, monkeypatch)
    result, elapsed, _ = run_pass(storage, "obj")
    assert result == "done"
    assert reads == [old]
    assert elapsed == pytest.approx(PASS_S, rel=1e-9)
    assert SEQUENTIAL_PASS_S - elapsed >= round_trip
    monkeypatch.undo()
    assert storage.read_sync("obj") == expected


def test_a_two_chunk_pass_assembles_faster_than_two_one_chunk_passes():
    singles = []
    for tone in (1, 50):
        storage = make_storage()
        flushed_then_patched(storage, "one", chunks=1, tone=tone)
        result, _elapsed, assembly = run_pass(storage, "one")
        assert result == "done"
        singles.append(assembly)
    storage = make_storage()
    expected = flushed_then_patched(storage, "two", chunks=2)
    round_trip = chunk_pool_round_trip(storage, "two")
    result, _elapsed, assembly = run_pass(storage, "two")
    assert result == "done"
    # The two chunks' reads overlap: more than a whole chunk-pool round
    # trip shorter than doing one chunk after the other.
    assert assembly < sum(singles) - round_trip
    assert storage.read_sync("two") == expected


# -- faults while the reads are in flight ----------------------------------


def fail_one_read(storage, monkeypatch, side):
    """Make the first ``side`` read of the pass fail with an EIO after a
    short delay, while its siblings are still in flight.  Returns the
    log of sibling reads that ran to their end."""
    tier = storage.tier
    sim = storage.sim
    name = "read_chunk" if side == "chunk" else "read_local_chunk"
    original = getattr(tier, name)
    finished = []
    failed = []

    def faulty(*args, **kwargs):
        if not failed:
            failed.append(args)
            return eio()
        return logged(original(*args, **kwargs))

    def eio():
        yield sim.timeout(1e-6)
        raise TransientOpError(0, name)

    def logged(gen):
        result = yield from gen
        finished.append(sim.now)
        return result

    monkeypatch.setattr(tier, name, faulty)
    return finished, failed


@pytest.mark.parametrize("side", ["chunk", "metadata"])
def test_a_failed_read_aborts_the_pass_after_its_siblings_end(monkeypatch, side):
    storage = make_storage()
    expected = flushed_then_patched(storage, "obj", chunks=2)
    tier = storage.tier
    before = tier.stage.ref_ops
    finished, failed = fail_one_read(storage, monkeypatch, side)

    result = storage.cluster.run(storage.engine.process_object("obj", force=True))
    returned_at = storage.sim.now
    assert result == "faulted"
    assert failed
    assert finished and max(finished) <= returned_at  # none outlived the pass
    assert storage.engine.stats.objects_requeued_fault == 1
    assert tier.stage.ref_ops == before
    assert len(tier.object_locks) == 0
    assert len(tier.chunk_locks) == 0
    assert len(storage.cluster.write_locks) == 0

    monkeypatch.undo()
    storage.sim.run()  # the delayed requeue fires
    assert tier.dirty_count == 1
    storage.drain()
    assert storage.read_sync("obj") == expected
    assert not tier.peek_chunk_map("obj").dirty_indices()
    assert scrub_sync(tier).clean
