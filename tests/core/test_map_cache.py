"""Decoded-map cache + incremental per-entry map commits.

The cache serves the metadata hot path; every test here guards one of
its invariants: it holds committed snapshots only, a miss whose disk
read spans a commit or an invalidation never installs its stale
decode, every owner that can change the stored map behind the cache
invalidates (faulted commits, deletes, recovery, rebalance; not an
aborted pass, whose map was its own fork, nor the GC, which writes no
map), the tier's per-object state stays bounded, and
the omap commit format writes only the entries a commit touched.
"""

from collections import deque

import pytest

from repro.cluster import RadosCluster, Transaction, converge_sync
from repro.core import DedupConfig, DedupedStorage
from repro.core import tier as tier_module
from repro.core.objects import CHUNK_MAP_XATTR
from repro.core.scrub import collect_garbage_sync
from repro.core.objects import (
    MAP_OMAP_PREFIX,
    ChunkMap,
    ChunkMapEntry,
    map_entry_key,
)
from repro.faults.errors import TransientOpError
from repro.fingerprint import fingerprint
from repro.sim import LockTable

CHUNK = 1024


def make_storage(**config_overrides):
    defaults = dict(chunk_size=CHUNK, dedup_interval=0.01)
    defaults.update(config_overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def cap_map_cache(monkeypatch, entries):
    """Shrink the tier's decoded-map LRU to ``entries`` maps."""
    monkeypatch.setattr(tier_module, "MAP_CACHE_ENTRIES", entries)


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


def test_lru_cap_evicts_oldest(monkeypatch):
    cap_map_cache(monkeypatch, 1)
    storage = make_storage()
    storage.write_sync("a", b"a" * CHUNK)
    storage.write_sync("b", b"b" * CHUNK)
    assert len(storage.tier._map_cache) == 1
    load_map(storage, "a")  # miss: evicted by b's commit
    load_map(storage, "b")  # miss: evicted by a's reload
    stage = storage.tier.stage
    assert stage.map_cache_hits == 0
    assert stage.map_cache_misses == 2
    assert len(storage.tier._map_cache) == 1


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


def park_next_map_read(storage, oid):
    """Start a load of ``oid`` that misses and parks on its disk read;
    returns ``(release, loader)``: calling ``release()`` lets the read
    finish, and the ``loader`` process returns the load's map (run it
    with ``sim.run_until_complete``).

    Only that one read is held (every later read of the disk runs as
    usual), so whatever the test does meanwhile lands *during* it."""
    sim, tier = storage.sim, storage.tier
    disk = storage.cluster.peek(tier.metadata_pool, oid)[0].disk
    gate = sim.event()
    read = disk.read

    def held_read(nbytes):
        del disk.read  # one read only: back to the class's method
        yield gate
        yield from read(nbytes)

    disk.read = held_read
    tier.invalidate_map_cache(oid)  # the load must miss
    loader = sim.process(tier.load_chunk_map(oid))
    while "read" in vars(disk):  # until the loader reaches its held read
        sim.step()
    return gate.succeed, loader


def test_commit_during_load_yield_keeps_fresh_cache_entry():
    """A load miss parked on its disk read while a writer commits must
    neither crash on a torn header/omap decode nor overwrite the
    freshly committed cache entry with its stale one."""
    storage = make_storage()
    tier = storage.tier
    storage.write_sync("obj1", b"r" * 2 * CHUNK)
    release, loader = park_next_map_read(storage, "obj1")
    storage.write_sync("obj1", b"r" * CHUNK, offset=2 * CHUNK)
    release()
    # The resumed loader decodes its pre-yield snapshot: a consistent
    # 2-entry map, not a ValueError from old header + new omap.
    assert len(storage.sim.run_until_complete(loader)) == 2
    # ... and the cache still serves the 3-entry committed map.
    hits, misses = tier.stage.map_cache_hits, tier.stage.map_cache_misses
    assert len(load_map(storage, "obj1")) == 3
    assert (tier.stage.map_cache_hits, tier.stage.map_cache_misses) == (hits + 1, misses)


def test_a_miss_spanning_a_commit_stays_out_after_the_fresh_entry_is_evicted(monkeypatch):
    """The commit's fresh entry is evicted before the stale miss ends:
    "an entry is present" no longer stops the stale decode, the fence
    must."""
    cap_map_cache(monkeypatch, 1)
    storage = make_storage()
    storage.write_sync("obj1", b"t" * 2 * CHUNK)
    release, loader = park_next_map_read(storage, "obj1")
    storage.write_sync("obj1", b"t" * CHUNK, offset=2 * CHUNK)
    storage.write_sync("obj2", b"u" * CHUNK)  # evicts obj1's fresh entry
    release()
    assert len(storage.sim.run_until_complete(loader)) == 2
    assert len(load_map(storage, "obj1")) == 3
    assert storage.read_sync("obj1") == b"t" * 3 * CHUNK


@pytest.mark.parametrize("evict", [False, True], ids=["kept", "evicted"])
def test_a_miss_spanning_a_delete_and_a_recreate_stays_out(evict, monkeypatch):
    """ABA: the object is deleted and recreated under the same oid while
    a miss of its old map is parked on the read.  The stale decode must
    not be installed, whether the recreate's fresh entry is still
    cached or already evicted."""
    cap_map_cache(monkeypatch, 1)
    storage = make_storage()
    storage.write_sync("obj1", b"w" * 2 * CHUNK)
    release, loader = park_next_map_read(storage, "obj1")
    storage.delete_sync("obj1")
    storage.write_sync("obj1", b"x" * CHUNK)
    if evict:
        storage.write_sync("obj2", b"y" * CHUNK)
    release()
    assert len(storage.sim.run_until_complete(loader)) == 2
    assert len(load_map(storage, "obj1")) == 1
    assert storage.read_sync("obj1") == b"x" * CHUNK


def test_invalidate_all_fences_version_zero_load():
    """invalidate_map_cache(None) must fence in-flight decodes of maps
    known only to the store — written by another tier instance, as
    after a tier restart, so this tier never committed a version of
    them — not only of maps this tier committed."""
    storage = make_storage()
    tier = storage.tier
    cmap = ChunkMap(CHUNK)
    cmap.set(ChunkMapEntry(0, CHUNK))
    key = tier.metadata_key("obj1")
    txn = Transaction().write(key, 0, b"s" * CHUNK)
    txn.setxattr(key, CHUNK_MAP_XATTR, cmap.serialize_header_v2(version=1))
    txn.omap_set(key, cmap.omap_entries())
    storage.cluster.submit_sync(tier.metadata_pool, "obj1", txn)

    release, loader = park_next_map_read(storage, "obj1")
    tier.invalidate_map_cache()  # repair/rebalance fence mid-flight
    release()
    assert storage.sim.run_until_complete(loader) is not None
    # The pre-fence decode must not have installed itself.
    misses = tier.stage.map_cache_misses
    load_map(storage, "obj1")
    assert tier.stage.map_cache_misses == misses + 1
    assert storage.read_sync("obj1") == b"s" * CHUNK


def test_tier_state_is_bounded_by_live_objects_and_the_cache(monkeypatch):
    """Writing and deleting many more objects than the map cache holds
    leaves no per-object trace: every dict, set, deque and lock table of
    the tier holds at most max(live objects, MAP_CACHE_ENTRIES)
    entries, and no miss fence outlives its miss."""
    cap = 4
    cap_map_cache(monkeypatch, cap)
    storage = make_storage()
    for i in range(40):
        storage.write_sync(f"obj{i}", bytes([i]) * 2 * CHUNK)
        load_map(storage, f"obj{i}")
        if i % 3:
            storage.delete_sync(f"obj{i}")
    storage.drain()
    tier = storage.tier
    live = len(list(storage.cluster.list_objects(tier.metadata_pool)))
    assert live == 14
    bound = max(live, cap)
    sizes = {
        name: len(value)
        for name, value in vars(tier).items()
        if isinstance(value, (dict, set, deque, LockTable))
    }
    assert "_map_cache" in sizes
    assert {name: n for name, n in sizes.items() if n > bound} == {}
    assert tier._map_fences == {}
    assert tier._write_line == {}


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
    memory without committing it; that map was the pass's own fork, so
    the next load sees the stored truth."""
    storage = make_storage()
    storage.write_sync("obj1", b"v1" * 512)
    tier = storage.tier

    def faulting_commit(*args, **kwargs):
        raise TransientOpError(0, "commit_chunk_batch")

    with monkeypatch.context() as patched:
        patched.setattr(tier, "commit_chunk_batch", faulting_commit)
        result = storage.cluster.run(
            storage.engine.process_object("obj1", force=True)
        )
    assert result == "faulted"
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


def test_a_read_at_a_demotions_commit_routes_by_the_committed_map(monkeypatch):
    """A demotion zeroes a chunk's cached bytes in the same commit that
    marks it uncached, and replies to no one: it runs on the metadata
    primary.  A lock-free read that starts the instant that commit lands
    must route by the committed map (to the chunk pool), not by the map
    from before the commit (to bytes now gone)."""
    from repro.core.io_path import read_path

    storage = make_storage()
    data = bytes(range(256)) * (CHUNK // 256)
    storage.write_sync("obj1", data)
    storage.drain()
    assert storage.cluster.run(storage.engine.promote_object("obj1")) == "done"
    assert storage.tier.peek_chunk_map("obj1").get(0).fully_cached()
    load_map(storage, "obj1")
    cluster = storage.cluster
    submit = cluster.submit
    reads = []

    def submit_then_read(pool, *args, **kwargs):
        yield from submit(pool, *args, **kwargs)
        if pool is storage.tier.metadata_pool and not reads:
            reads.append(storage.sim.process(read_path(storage.tier, "obj1")))

    with monkeypatch.context() as patched:
        patched.setattr(cluster, "submit", submit_then_read)
        cluster.run(storage.engine.demote_chunk("obj1", 0))
    assert len(reads) == 1
    assert not storage.tier.peek_chunk_map("obj1").get(0).cached
    assert storage.sim.run_until_complete(reads[0]) == data
