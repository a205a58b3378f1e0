"""Tests for the cache manager's LRU eviction (paper §4.3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.core.cache import CacheManager
from repro.core.objects import ChunkMap, ChunkMapEntry
from repro.sim import Simulator


def manager(capacity=1000):
    config = DedupConfig(cache_capacity_bytes=capacity)
    return CacheManager(Simulator(), config)


class FullScanCacheManager(CacheManager):
    """The reference: find an object's cached chunks by scanning the whole
    tier on every access (what ``record_access`` did before it kept a
    per-object index)."""

    def record_access(self, oid):
        self.hitset.record(oid)
        touched = [k for k in self._cached if k[0] == oid]
        for k in touched:
            self._cached.move_to_end(k)


_oids = st.sampled_from("abcd")
_indices = st.integers(min_value=0, max_value=3)
_cache_ops = st.one_of(
    st.tuples(st.just("note_cached"), _oids, _indices, st.integers(0, 600)),
    st.tuples(st.just("note_evicted"), _oids, _indices),
    st.tuples(st.just("record_access"), _oids),
)


@given(ops=st.lists(_cache_ops, max_size=60))
@settings(max_examples=100, deadline=None)
def test_per_object_index_matches_the_full_scan(ops):
    config = DedupConfig(cache_capacity_bytes=1000)
    indexed = CacheManager(Simulator(), config)
    reference = FullScanCacheManager(Simulator(), config)
    for name, *args in ops:
        getattr(indexed, name)(*args)
        getattr(reference, name)(*args)
        assert indexed.victims() == reference.victims()
        assert indexed.cached_bytes == reference.cached_bytes
        assert list(indexed._cached.items()) == list(reference._cached.items())
        # The index is the queue, grouped by object: same members, same
        # relative order, and nothing left behind for an emptied object.
        by_oid = {}
        for oid, index in indexed._cached:
            by_oid.setdefault(oid, []).append(index)
        assert {
            oid: list(indices) for oid, indices in indexed._cached_by_oid.items()
        } == by_oid
    assert (indexed.chunks_cached, indexed.chunks_uncached) == (
        reference.chunks_cached, reference.chunks_uncached,
    )


@given(ops=st.lists(_cache_ops, max_size=60))
@settings(max_examples=100, deadline=None)
def test_no_capacity_demotes_nothing_and_counts_the_same(ops):
    """Without a capacity nothing is ever demoted for space, so an access
    keeps no order: what is cached, and the promotion and demotion
    counts, still match the reference."""
    config = DedupConfig(cache_capacity_bytes=None)
    indexed = CacheManager(Simulator(), config)
    reference = FullScanCacheManager(Simulator(), config)
    for name, *args in ops:
        getattr(indexed, name)(*args)
        getattr(reference, name)(*args)
        assert indexed.victims() == [] == reference.victims()
        assert indexed.cached_bytes == reference.cached_bytes
        assert set(indexed._cached.items()) == set(reference._cached.items())
    assert (indexed.chunks_cached, indexed.chunks_uncached) == (
        reference.chunks_cached, reference.chunks_uncached,
    )


def test_lru_evicts_least_recently_used():
    mgr = manager()
    mgr.note_cached("a", 0, 600)
    mgr.note_cached("b", 0, 600)
    mgr.record_access("a")  # a becomes MRU
    assert mgr.victims() == [("b", 0)]


def test_a_map_commit_moves_only_the_chunks_whose_cached_bytes_changed():
    """The map commit's book update: a chunk's cached bytes are the sum
    of its valid ranges; unchanged bytes keep the chunk's LRU place,
    changed ones move it to the back, and none take it off the books."""
    mgr = manager(capacity=2048)
    a, b = ChunkMap(1024), ChunkMap(1024)
    for cmap, count in ((a, 2), (b, 1)):
        for idx in range(count):
            cmap.set(ChunkMapEntry(offset=idx * 1024, length=1024, cached=True))
    mgr.note_committed("a", a, [0, 1])
    mgr.note_committed("b", b, [0])
    a.set(a.get(0).replace(dirty=True))  # same bytes
    a.set(a.get(1).replace(valid=((0, 256), (512, 768))))
    mgr.note_committed("a", a, [0, 1])
    assert list(mgr._cached.items()) == [
        (("a", 0), 1024), (("b", 0), 1024), (("a", 1), 512),
    ]
    assert mgr.victims() == [("a", 0)]
    a.set(a.get(1).replace(valid=()))
    mgr.note_committed("a", a, [1])
    assert not mgr.is_cached("a", 1)
    assert mgr.cached_bytes == 2048
    assert (mgr.chunks_cached, mgr.chunks_uncached) == (3, 1)


def test_end_to_end_capacity_respected():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster,
        DedupConfig(
            chunk_size=1024,
            cache_capacity_bytes=2048,
            hit_count_threshold=1,
            hitset_period=100.0,
        ),
        start_engine=False,
    )
    for i in range(6):
        storage.write_sync(f"obj{i}", bytes([i]) * 1024)
    storage.drain()
    assert storage.tier.cache.cached_bytes <= 2048
    for i in range(6):
        assert storage.read_sync(f"obj{i}") == bytes([i]) * 1024


def test_cache_hit_counters():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster, DedupConfig(chunk_size=1024), start_engine=False
    )
    storage.write_sync("obj1", b"h" * 1024)
    storage.read_sync("obj1")  # cached (not yet flushed)
    assert storage.tier.stage.cache_hits == 1
    assert storage.tier.stage.cache_misses == 0
    storage.drain()  # cold -> evicted
    storage.read_sync("obj1")  # now redirected
    assert storage.tier.stage.cache_misses == 1
