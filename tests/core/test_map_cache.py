"""Versioned decoded-map cache + incremental per-entry map commits.

The cache serves the metadata hot path; every test here guards one of
its invariants: hits only at the committed version, invalidation by
every owner that can change the stored map behind the cache (aborted
passes, deletes, recovery, rebalance; not the GC, which writes no map),
and the omap commit format writing only the entries a commit touched.
"""

import pytest

from repro.cluster import RadosCluster, converge_sync
from repro.core import (
    CHUNK_MAP_XATTR,
    DedupConfig,
    DedupedStorage,
    collect_garbage_sync,
)
from repro.core.objects import (
    MAP_OMAP_PREFIX,
    ChunkMap,
    ChunkMapEntry,
    map_entry_key,
)
from repro.faults.errors import TransientOpError
from repro.fingerprint import fingerprint

CHUNK = 1024


def make_storage(**config_overrides):
    defaults = dict(chunk_size=CHUNK, dedup_interval=0.01)
    defaults.update(config_overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def load_map(storage, oid):
    """Drive tier.load_chunk_map synchronously."""
    return storage.cluster.run(storage.tier.load_chunk_map(oid))


def stored_meta(storage, oid):
    """The metadata object as stored on some up replica."""
    key = storage.tier.metadata_key(oid)
    for osd in storage.cluster.osds.values():
        if osd.up and osd.store.exists(key):
            return osd.store.get(key)
    raise AssertionError(f"no stored copy of {oid}")


def stored_map_keys(storage, oid):
    return sorted(
        k for k in stored_meta(storage, oid).omap if k.startswith(MAP_OMAP_PREFIX)
    )


def store_map_behind_the_tier(storage, oid, cmap):
    """Rewrite ``oid``'s stored map as ``cmap``, on every replica and
    behind the tier's back (what a repair could do)."""
    header = cmap.serialize_header_v2(version=1)
    key = storage.tier.metadata_key(oid)
    for osd in storage.cluster.osds.values():
        if osd.store.exists(key):
            obj = osd.store.get(key)
            obj.xattrs[CHUNK_MAP_XATTR] = header
            for k in list(obj.omap):
                if k.startswith(MAP_OMAP_PREFIX):
                    del obj.omap[k]
            obj.omap.update(cmap.omap_entries())


# -- cache mechanics ---------------------------------------------------------


def test_committed_write_primes_cache():
    storage = make_storage()
    storage.write_sync("obj1", b"a" * 2 * CHUNK)
    stage = storage.tier.stage
    cmap = load_map(storage, "obj1")
    assert cmap is not None
    assert stage.map_cache_hits == 1
    assert stage.map_cache_misses == 0
    # Hits serve a private copy of the committed snapshot — equal
    # content, never the same instance (snapshot isolation).
    second = load_map(storage, "obj1")
    assert second is not cmap
    assert list(second) == list(cmap)
    assert stage.map_cache_hits == 2


def test_invalidation_forces_reload_then_recaches():
    storage = make_storage()
    storage.write_sync("obj1", b"b" * CHUNK)
    stage = storage.tier.stage
    storage.tier.invalidate_map_cache("obj1")
    assert stage.map_cache_invalidations == 1
    load_map(storage, "obj1")
    assert stage.map_cache_misses == 1
    load_map(storage, "obj1")
    assert stage.map_cache_hits == 1


def test_version_mismatch_is_not_a_hit():
    """A cached decode from an older version must not be served even if
    the entry is still sitting in the cache dict."""
    storage = make_storage()
    storage.write_sync("obj1", b"c" * CHUNK)
    storage.tier._map_versions["obj1"] += 1  # stale fence, cache entry kept
    load_map(storage, "obj1")
    assert storage.tier.stage.map_cache_hits == 0
    assert storage.tier.stage.map_cache_misses == 1


def test_lru_cap_evicts_oldest():
    storage = make_storage(map_cache_entries=1)
    storage.write_sync("a", b"a" * CHUNK)
    storage.write_sync("b", b"b" * CHUNK)
    assert len(storage.tier._map_cache) == 1
    load_map(storage, "a")  # miss: evicted by b's commit
    load_map(storage, "b")  # miss: evicted by a's reload
    stage = storage.tier.stage
    assert stage.map_cache_hits == 0
    assert stage.map_cache_misses == 2
    assert len(storage.tier._map_cache) == 1


def test_cache_disabled_always_reloads():
    storage = make_storage(map_cache_entries=0)
    storage.write_sync("obj1", b"d" * CHUNK)
    assert len(storage.tier._map_cache) == 0
    load_map(storage, "obj1")
    load_map(storage, "obj1")
    stage = storage.tier.stage
    assert stage.map_cache_hits == 0
    assert stage.map_cache_misses == 2
    assert storage.read_sync("obj1") == b"d" * CHUNK


def test_delete_invalidates_cache():
    storage = make_storage()
    storage.write_sync("obj1", b"e" * CHUNK)
    inv_before = storage.tier.stage.map_cache_invalidations
    storage.delete_sync("obj1")
    assert storage.tier.stage.map_cache_invalidations == inv_before + 1
    assert load_map(storage, "obj1") is None
    # Recreate under the same oid: must not resurrect the old map.
    storage.write_sync("obj1", b"f" * CHUNK)
    assert storage.read_sync("obj1") == b"f" * CHUNK
    assert load_map(storage, "obj1").get(0).length == CHUNK


# -- snapshot isolation & in-flight fences -----------------------------------


def finish(gen):
    """Drive a parked tier generator to completion outside the sim loop.

    The sim events it yields (disk-server grants, timeouts) carry no
    waiting process, so stepping past them by hand is safe; any orphaned
    queue entries fire as no-ops on the next sim run.
    """
    try:
        while True:
            gen.send(None)
    except StopIteration as stop:
        return stop.value


def test_loads_return_isolated_copies():
    """A caller changing its loaded map must never pollute what other
    loads see — readers take no lock, so they rely on this isolation.
    (Loads share entry objects; that entries cannot change is
    test_map_codec.py::test_entry_fields_cannot_be_assigned.)"""
    storage = make_storage()
    storage.write_sync("obj1", b"q" * CHUNK)
    a = load_map(storage, "obj1")
    b = load_map(storage, "obj1")
    assert a is not b
    # Change one fork the way a mid-flight dedup pass would.
    a.set(a.get(0).replace(chunk_id="bogus-fp", valid=()))
    assert a.get(0).chunk_id == "bogus-fp"
    assert not a.get(0).cached
    assert b.get(0).chunk_id == ""
    assert b.get(0).cached
    c = load_map(storage, "obj1")
    assert c.get(0).chunk_id == ""
    assert c.get(0).cached
    assert storage.tier._map_cache["obj1"][1].get(0).cached


def test_commit_during_load_yield_keeps_fresh_cache_entry():
    """A load miss parked on its disk read while a lock-holding writer
    commits must neither crash on a torn header/omap decode nor
    overwrite the freshly committed cache entry with its stale one."""
    storage = make_storage()
    tier = storage.tier
    storage.write_sync("obj1", b"r" * 2 * CHUNK)
    tier.invalidate_map_cache("obj1")  # force the next load to miss

    gen = tier.load_chunk_map("obj1")
    next(gen)  # parked on the simulated disk read

    # Emulate the racing writer's commit landing during the yield: the
    # stored header + omap gain a third entry and the version bumps.
    from repro.core.objects import decode_stored_map

    primary = storage.cluster._primary(tier.metadata_pool, "obj1")
    obj = primary.store.get(tier.metadata_key("obj1"))
    new_map = decode_stored_map(obj.xattrs[CHUNK_MAP_XATTR], obj.omap)
    new_map.set(ChunkMapEntry(2 * CHUNK, CHUNK))
    obj.xattrs[CHUNK_MAP_XATTR] = new_map.serialize_header_v2(
        tier.map_version("obj1") + 1
    )
    obj.omap[map_entry_key(2)] = new_map.get(2).pack()
    tier.note_map_committed("obj1", new_map)

    # The resumed loader decodes its pre-yield snapshot: a consistent
    # 2-entry map, not a ValueError from old header + new omap.
    stale = finish(gen)
    assert len(stale) == 2
    # ... and the cache still serves the 3-entry committed map.
    version, cached = tier._map_cache["obj1"]
    assert version == tier.map_version("obj1")
    assert len(cached) == 3
    assert len(load_map(storage, "obj1")) == 3


def test_invalidate_all_fences_version_zero_load():
    """invalidate_map_cache(None) must fence in-flight decodes even for
    objects with no version entry (cached purely via load misses, e.g.
    after a tier restart) — they sit at version 0 before *and* after."""
    storage = make_storage()
    storage.write_sync("obj1", b"s" * CHUNK)
    tier = storage.tier
    # Forget commit history: the object is now known only to the store.
    tier._map_cache.clear()
    tier._map_versions.clear()

    gen = tier.load_chunk_map("obj1")
    next(gen)  # parked on the disk read, version 0 captured
    tier.invalidate_map_cache()  # repair/rebalance fence mid-flight
    cmap = finish(gen)
    assert cmap is not None
    # The pre-fence decode must not have re-installed itself.
    assert "obj1" not in tier._map_cache
    miss_before = tier.stage.map_cache_misses
    load_map(storage, "obj1")
    assert tier.stage.map_cache_misses == miss_before + 1


def test_read_during_batched_pass_is_consistent():
    """A lock-free reader racing a batched dedup pass sees the committed
    snapshot, not the pass's half-re-pointed private map."""
    from repro.core.io_path import read_path

    storage = make_storage()
    data = bytes(range(256)) * (4 * CHUNK // 256)
    storage.write_sync("obj1", data)

    def scenario():
        pass_proc = storage.sim.process(
            storage.engine.process_object("obj1", force=True)
        )
        # Land the read mid-pass: entries in the pass's copy are already
        # re-pointed at chunk objects its batch has not committed yet.
        yield storage.sim.timeout(1e-5)
        read_proc = storage.sim.process(read_path(storage.tier, "obj1"))
        yield pass_proc
        yield read_proc
        return pass_proc.value, read_proc.value

    result, got = storage.cluster.run(scenario())
    assert result == "done"
    assert got == data
    assert storage.read_sync("obj1") == data


# -- stale-map regressions: every owner that rewrites the stored map ---------


def test_stale_map_after_aborted_pass(monkeypatch):
    """A dedup pass aborted by a fault has re-pointed its decoded map in
    memory without committing it; the abort drops the cached decode, and
    the next load sees the stored truth."""
    storage = make_storage()
    storage.write_sync("obj1", b"v1" * 512)
    tier = storage.tier
    inv_before = tier.stage.map_cache_invalidations

    def faulting_commit(*args, **kwargs):
        raise TransientOpError(0, "commit_chunk_batch")

    with monkeypatch.context() as patched:
        patched.setattr(tier, "commit_chunk_batch", faulting_commit)
        result = storage.cluster.run(
            storage.engine.process_object("obj1", force=True)
        )
    assert result == "faulted"
    assert tier.stage.map_cache_invalidations > inv_before
    # Reload shows the committed state: still dirty, no chunk id.
    cmap = load_map(storage, "obj1")
    entry = cmap.get(0)
    assert entry.dirty
    assert entry.chunk_id == ""
    # And the object still dedups fine afterwards.
    storage.drain()
    assert storage.read_sync("obj1") == b"v1" * 512


def test_gc_leaves_committed_map_cached():
    """GC only releases references; it never writes a map, so the
    committed decode of a referrer it just checked keeps serving hits."""
    storage = make_storage(refcount_mode="false_positive")
    storage.write_sync("obj1", b"f" * 2 * CHUNK)
    storage.drain()
    storage.write_sync("obj1", b"g" * 2 * CHUNK)
    storage.engine.drain_sync(run_gc=False)
    assert len(storage.engine.deref_queue) == 2
    load_map(storage, "obj1")
    tier = storage.tier
    inv_before = tier.stage.map_cache_invalidations
    hits_before, miss_before = tier.stage.map_cache_hits, tier.stage.map_cache_misses
    storage.drain()  # the GC releases obj1's stale references
    assert not storage.cluster.exists(tier.chunk_pool, fingerprint(b"f" * CHUNK))
    assert collect_garbage_sync(tier).references_dropped == 0
    assert tier.stage.map_cache_invalidations == inv_before
    load_map(storage, "obj1")
    assert tier.stage.map_cache_hits == hits_before + 1
    assert tier.stage.map_cache_misses == miss_before
    assert storage.read_sync("obj1") == b"g" * 2 * CHUNK


def test_stale_map_after_recovery():
    storage = make_storage()
    storage.write_sync("obj1", b"h" * CHUNK)
    storage.drain()
    load_map(storage, "obj1")
    miss_before = storage.tier.stage.map_cache_misses
    converge_sync(storage.cluster)
    load_map(storage, "obj1")
    assert storage.tier.stage.map_cache_misses == miss_before + 1
    assert storage.read_sync("obj1") == b"h" * CHUNK


def test_repair_listener_exposes_out_of_band_map_change():
    """If repair rewrites the stored map behind the tier's back, the
    notify hook must make the change visible on the next load."""
    storage = make_storage()
    storage.write_sync("obj1", b"i" * CHUNK)
    assert load_map(storage, "obj1").get(0).dirty
    # Out-of-band rewrite on every replica: entry length shrunk to 7.
    doctored = ChunkMap(CHUNK)
    doctored.set(ChunkMapEntry(0, 7))
    store_map_behind_the_tier(storage, "obj1", doctored)
    # Without the notification the cache would still serve the old map.
    storage.cluster.notify_repaired()
    assert load_map(storage, "obj1").get(0).length == 7


def test_stale_map_after_rebalance():
    storage = make_storage()
    for i in range(8):
        storage.write_sync(f"obj{i}", bytes([i]) * CHUNK)
    storage.drain()
    for i in range(8):
        load_map(storage, f"obj{i}")
    miss_before = storage.tier.stage.map_cache_misses
    diff = storage.cluster.expand("host4", 2)
    assert diff.pgs_remapped > 0
    converge_sync(storage.cluster)
    assert len(storage.tier._map_cache) == 0
    load_map(storage, "obj0")
    assert storage.tier.stage.map_cache_misses == miss_before + 1
    for i in range(8):
        assert storage.read_sync(f"obj{i}") == bytes([i]) * CHUNK


# -- incremental (v2) commit format ------------------------------------------


def test_incremental_commit_stores_v2_header_and_omap():
    storage = make_storage()
    storage.write_sync("obj1", b"j" * 4 * CHUNK)
    obj = stored_meta(storage, "obj1")
    assert obj.xattrs[CHUNK_MAP_XATTR][:4] == b"CMP2"
    assert stored_map_keys(storage, "obj1") == [map_entry_key(i) for i in range(4)]
    assert storage.read_sync("obj1") == b"j" * 4 * CHUNK


def test_small_update_serializes_only_touched_entries():
    storage = make_storage()
    storage.write_sync("obj1", b"k" * 8 * CHUNK)
    stage = storage.tier.stage
    before = stage.map_entries_serialized
    # Patch 16 bytes inside chunk 5: exactly one entry is re-serialized.
    storage.write_sync("obj1", b"P" * 16, offset=5 * CHUNK + 100)
    assert stage.map_entries_serialized == before + 1
    assert stage.map_commits_incremental >= 2
    # Stored map still covers all 8 chunks and reads back correctly.
    assert len(stored_map_keys(storage, "obj1")) == 8
    expected = bytearray(b"k" * 8 * CHUNK)
    expected[5 * CHUNK + 100 : 5 * CHUNK + 116] = b"P" * 16
    assert storage.read_sync("obj1") == bytes(expected)


def test_dedup_pass_commits_only_processed_entries():
    storage = make_storage()
    storage.write_sync("obj1", b"l" * 4 * CHUNK)
    stage = storage.tier.stage
    before = stage.map_entries_serialized
    storage.drain()
    # The pass touches each of the 4 entries once (chunk-id fill); it
    # must not rewrite the map wholesale per entry.
    delta = stage.map_entries_serialized - before
    assert delta <= 8  # flush + eviction commits, all incremental
    fp = fingerprint(b"l" * CHUNK)
    assert storage.cluster.exists(storage.tier.chunk_pool, fp)


def test_config_rejects_negative_cache_size():
    with pytest.raises(ValueError):
        DedupConfig(map_cache_entries=-1)
