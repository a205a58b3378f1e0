"""Tests for scrub (integrity verification) and the GC."""


import re
from pathlib import Path

import pytest

from repro.cluster import RadosCluster, Transaction
from repro.core import DedupConfig, DedupedStorage
from repro.core.objects import ChunkRef, REFS_XATTR
from repro.core.scrub import collect_garbage, collect_garbage_sync, scrub_sync
from repro.fingerprint import fingerprint


def make_storage(**overrides):
    defaults = dict(chunk_size=1024, dedup_interval=0.01)
    defaults.update(overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def populated():
    storage = make_storage()
    for i in range(8):
        storage.write_sync(f"obj{i}", bytes([i % 4]) * 2000)  # 4 dup pairs
    storage.drain()
    return storage


def test_scrub_clean_system():
    storage = populated()
    report = scrub_sync(storage.tier)
    assert report.clean
    assert report.chunks_checked == 8  # 4 contents x 2 chunks


def test_scrub_detects_corrupt_chunk():
    storage = populated()
    chunk_id = storage.cluster.list_objects(storage.tier.chunk_pool)[0]
    key = storage.cluster.object_key(storage.tier.chunk_pool, chunk_id)
    for osd in storage.cluster.osds.values():
        if osd.store.exists(key):
            osd.store.get(key).corrupt(0)  # bit rot
    report = scrub_sync(storage.tier)
    assert report.corrupt_chunks == [chunk_id]


def test_scrub_detects_dangling_map_entry():
    storage = populated()
    victim = storage.tier.peek_chunk_map("obj0").get(0).chunk_id
    storage.cluster.remove_sync(storage.tier.chunk_pool, victim)
    report = scrub_sync(storage.tier)
    assert any(oid.startswith("obj") for oid, _off in report.dangling_map_entries)


def test_scrub_detects_stale_reference():
    storage = populated()
    chunk_id = storage.cluster.list_objects(storage.tier.chunk_pool)[0]
    refs = storage.tier._load_refs(chunk_id)
    refs.add(ChunkRef(storage.tier.metadata_pool.pool_id, "ghost-object", 0))
    key = storage.cluster.object_key(storage.tier.chunk_pool, chunk_id)
    storage.cluster.submit_sync(
        storage.tier.chunk_pool,
        chunk_id,
        Transaction().setxattr(key, REFS_XATTR, refs.serialize()),
    )
    report = scrub_sync(storage.tier)
    assert len(report.stale_references) == 1
    assert report.stale_references[0][1].source_oid == "ghost-object"


def test_gc_clean_system_is_noop():
    storage = populated()
    before = storage.space_report()
    report = collect_garbage_sync(storage.tier)
    assert report.references_dropped == 0
    assert report.chunks_removed == 0
    assert storage.space_report().stored_bytes == before.stored_bytes


def test_gc_reclaims_leaked_chunks_after_crash():
    """A crash in false-positive refcount mode loses the in-memory deref
    queue; offline GC recovers the space from the persisted maps."""
    storage = make_storage(refcount_mode="false_positive")
    storage.write_sync("obj1", b"OLD" * 400)
    storage.drain()
    old_fps = {e.chunk_id for e in storage.tier.peek_chunk_map("obj1")}
    storage.write_sync("obj1", b"NEW" * 400)
    storage.cluster.run(storage.engine.drain(run_gc=False))  # flush, no GC
    # Simulate the crash: the queued dereferences vanish.
    storage.engine.deref_queue.clear()
    for fp in old_fps:
        assert storage.cluster.exists(storage.tier.chunk_pool, fp)  # leaked
    report = collect_garbage_sync(storage.tier)
    assert report.chunks_removed == len(old_fps)
    assert report.bytes_reclaimed == 1200
    for fp in old_fps:
        assert not storage.cluster.exists(storage.tier.chunk_pool, fp)
    # Live data untouched.
    assert storage.read_sync("obj1") == b"NEW" * 400
    assert scrub_sync(storage.tier).clean


def test_gc_drops_stale_ref_but_keeps_shared_chunk():
    storage = make_storage(refcount_mode="false_positive")
    storage.write_sync("keep", b"S" * 1024)
    storage.write_sync("move", b"S" * 1024)  # same chunk, two refs
    storage.drain()
    fp = fingerprint(b"S" * 1024)
    storage.write_sync("move", b"T" * 1024)
    storage.cluster.run(storage.engine.drain(run_gc=False))
    storage.engine.deref_queue.clear()  # crash
    assert storage.tier.chunk_refcount(fp) == 2  # one ref is stale
    report = collect_garbage_sync(storage.tier)
    assert report.references_dropped == 1
    assert report.chunks_removed == 0
    assert storage.tier.chunk_refcount(fp) == 1
    assert storage.read_sync("keep") == b"S" * 1024


def test_gc_skips_dirty_objects_chunks():
    """A dirty entry still points at its old chunk, which a re-flush of
    the ranges it lacks needs: GC counts that reference as live."""
    storage = populated()
    storage.write_sync("obj0", b"fresh" * 300)  # dirty again (1500 of 2000 B)
    collect_garbage_sync(storage.tier)
    # The old chunks of obj0 are still referenced by its (dirty) map
    # entries, so nothing was removed that a re-flush might need; the
    # overwrite's prefix and the surviving old tail both read correctly.
    got = storage.read_sync("obj0")
    assert got[:1500] == b"fresh" * 300
    assert got[1500:] == bytes([0]) * 500
    storage.drain()
    assert scrub_sync(storage.tier).clean


SHARED = [bytes([0x40 + i]) * 1024 for i in range(4)]


@pytest.mark.parametrize("offset_ms", [0.1, 0.2, 0.3, 0.5, 1.0])
def test_gc_concurrent_with_a_pass_keeps_its_new_references(offset_ms):
    """A GC that starts while a pass on ``b`` is taking references to
    the chunks ``b`` shares with ``a`` must see them as live: once
    ``a`` is deleted, those references are all that keep the chunks."""
    storage = make_storage()
    storage.write_sync("a", b"".join(SHARED))
    storage.drain()
    data = b"".join(SHARED) + b"own" * 300
    storage.write_sync("b", data)
    sim, tier = storage.sim, storage.tier

    def gc_later():
        yield sim.timeout(offset_ms * 1e-3)
        yield from collect_garbage(tier)

    def both():
        yield sim.all_of([
            sim.process(storage.engine.process_object("b", force=True)),
            sim.process(gc_later()),
        ])

    storage.cluster.run(both())
    storage.delete_sync("a")
    assert storage.read_sync("b") == data
    assert scrub_sync(tier).clean


def test_false_positive_gc_keeps_a_reference_rewritten_back():
    """X -> Y -> X under false-positive counting queues a dereference of
    X that the final map has made live again: the GC must keep it."""
    storage = make_storage(refcount_mode="false_positive")
    x, y = b"X" * 1024, b"Y" * 1024
    for data in (x, y, x):
        storage.write_sync("a", data)
        storage.engine.drain_sync(run_gc=False)
    assert (fingerprint(x), ChunkRef(storage.tier.metadata_pool.pool_id, "a", 0)) in (
        storage.engine.deref_queue
    )
    storage.drain()
    assert storage.engine.deref_queue == []
    assert storage.read_sync("a") == x
    assert scrub_sync(storage.tier).clean
    assert storage.cluster.list_objects(storage.tier.chunk_pool) == [fingerprint(x)]


def test_idle_background_workers_collect_the_false_positive_queue():
    """No ``drain()``: a background-only store in false-positive mode
    overwrites every chunk of its objects round after round.  Each pass
    queues the old chunks' references, and the idle workers hand the
    queue to the GC, so neither the queue nor the chunk pool grows."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster, DedupConfig(chunk_size=1024, refcount_mode="false_positive")
    )
    tier, engine, sim = storage.tier, storage.engine, storage.sim
    objects, chunks = 8, 4

    def content(round_, oid, index):
        return bytes([round_, oid, index]) * 341 + bytes([round_])

    def overwrite(round_):
        for j in range(objects):
            for i in range(chunks):
                yield from storage.write(f"obj{j}", content(round_, j, i), i * 1024)

    for round_ in range(6):
        cluster.run(overwrite(round_))
        sim.run(until=sim.now + 5.0)
        assert engine.deref_queue == []
        assert len(cluster.list_objects(tier.chunk_pool)) == objects * chunks
    for j in range(objects):
        assert storage.read_sync(f"obj{j}") == b"".join(
            content(5, j, i) for i in range(chunks)
        )
    assert engine.stats.chunks_flushed == 6 * objects * chunks
    assert scrub_sync(tier).clean


def _restart_storage():
    """Four hosts of one OSD each, so one OSD is in most acting sets."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=1, pg_num=32)
    config = DedupConfig(chunk_size=1024, dedup_interval=0.01)
    return DedupedStorage(cluster, config, start_engine=False)


def test_reference_taken_during_an_outage_survives_the_restart():
    """B's reference lands while the chunk's first acting OSD is down.
    After the restart D's commit must read the clean RefSet {A, B}, not
    the restarted copy's {A}, or deleting A and D frees B's chunk."""
    storage = _restart_storage()
    cluster = storage.cluster
    data = bytes(range(256)) * 4  # one chunk
    storage.write_sync("A", data)
    storage.drain()
    (chunk_id,) = cluster.list_objects(storage.tier.chunk_pool)
    first = storage.tier.chunk_pool.acting_set_for(chunk_id)[0]
    cluster.fail_osd(first, mark_out=False)
    storage.write_sync("B", data)
    storage.drain()
    cluster.restart_osd(first)
    storage.write_sync("D", data)
    storage.drain()
    storage.delete_sync("A")
    storage.delete_sync("D")
    assert storage.read_sync("B") == data
    assert storage.tier.chunk_refcount(chunk_id) == 1


def test_offline_gc_after_a_restart_reads_the_clean_map():
    """B is rewritten while its metadata object's first acting OSD is
    down; an offline GC right after the restart must judge references
    by B's current map, not by the map on the restarted copy."""
    storage = _restart_storage()
    cluster = storage.cluster
    old, new = b"o" * 1024, b"n" * 1024
    storage.write_sync("B", old)
    storage.drain()
    first = storage.tier.metadata_pool.acting_set_for("B")[0]
    cluster.fail_osd(first, mark_out=False)
    storage.write_sync("B", new)
    storage.drain()
    cluster.restart_osd(first)
    report = collect_garbage_sync(storage.tier)
    assert report.references_dropped == 0
    assert storage.read_sync("B") == new


def test_core_reads_copies_only_through_the_cluster():
    """Which copy the tier reads is the cluster's holder rule: no file
    under ``core/`` probes an OSD store or an acting set itself."""
    core = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
    offenders = sorted(
        path.name
        for path in core.rglob("*.py")
        if re.search(r"\.store\.|acting_osds|_up_subset", path.read_text(encoding="utf-8"))
    )
    assert offenders == []


@pytest.mark.parametrize(
    "names",
    [
        r"\bREFS_XATTR\b",
        r"\b(serialize_header_v2|append_map_commit|note_map_committed|_map_cache)\b",
    ],
    ids=["chunk-references", "chunk-maps"],
)
def test_only_the_tier_writes_chunk_references(names):
    """``dedup.refs`` and the chunk map each have one writer: outside
    their definitions, only the tier names ``REFS_XATTR``, so every
    reference change — GC's included — goes through
    ``commit_chunk_batch``; and only the tier names the map header's
    serialiser or the decoded-map cache, so every map commit goes
    through ``commit_map``."""
    src = Path(__file__).resolve().parents[2] / "src"
    users = sorted(
        path.relative_to(src / "repro").as_posix()
        for path in src.rglob("*.py")
        if re.search(names, path.read_text(encoding="utf-8"))
    )
    assert users == ["core/objects.py", "core/tier.py"]
