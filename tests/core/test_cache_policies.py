"""Tests for the pluggable cache eviction policies (lru/lfu/fifo)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.core.cache import CacheManager
from repro.sim import Simulator


def manager(policy, capacity=1000):
    config = DedupConfig(cache_policy=policy, cache_capacity_bytes=capacity)
    return CacheManager(Simulator(), config)


class FullScanCacheManager(CacheManager):
    """The reference: find an object's cached chunks by scanning the whole
    tier on every access (what ``record_access`` did before it kept a
    per-object index)."""

    def record_access(self, oid):
        self.hitset.record(oid)
        touched = [k for k in self._cached if k[0] == oid]
        for k in touched:
            self._freq[k] = self._freq.get(k, 0) + 1
            if self.config.cache_policy == "lru":
                self._cached.move_to_end(k)


_oids = st.sampled_from("abcd")
_indices = st.integers(min_value=0, max_value=3)
_cache_ops = st.one_of(
    st.tuples(st.just("note_cached"), _oids, _indices, st.integers(0, 600)),
    st.tuples(st.just("note_evicted"), _oids, _indices),
    st.tuples(st.just("record_access"), _oids),
)


@pytest.mark.parametrize("policy", ["lru", "lfu", "fifo"])
@given(ops=st.lists(_cache_ops, max_size=60))
@settings(max_examples=100, deadline=None)
def test_per_object_index_matches_the_full_scan(policy, ops):
    config = DedupConfig(cache_policy=policy, cache_capacity_bytes=1000)
    indexed = CacheManager(Simulator(), config)
    reference = FullScanCacheManager(Simulator(), config)
    for name, *args in ops:
        getattr(indexed, name)(*args)
        getattr(reference, name)(*args)
        assert indexed.victims() == reference.victims()
        assert indexed.cached_bytes == reference.cached_bytes
        assert indexed._freq == reference._freq
        assert list(indexed._cached.items()) == list(reference._cached.items())
        # The index is the queue, grouped by object: same members, same
        # relative order, and nothing left behind for an emptied object.
        by_oid = {}
        for oid, index in indexed._cached:
            by_oid.setdefault(oid, []).append(index)
        assert {
            oid: list(indices) for oid, indices in indexed._cached_by_oid.items()
        } == by_oid
    assert (indexed.promotions, indexed.demotions) == (
        reference.promotions, reference.demotions,
    )


@pytest.mark.parametrize("policy", ["lru", "lfu", "fifo"])
@given(ops=st.lists(_cache_ops, max_size=60))
@settings(max_examples=100, deadline=None)
def test_no_capacity_demotes_nothing_and_counts_the_same(policy, ops):
    """Without a capacity nothing is ever demoted for space, so an access
    keeps no order: what is cached, and the promotion and demotion
    counts, still match the reference."""
    config = DedupConfig(cache_policy=policy, cache_capacity_bytes=None)
    indexed = CacheManager(Simulator(), config)
    reference = FullScanCacheManager(Simulator(), config)
    for name, *args in ops:
        getattr(indexed, name)(*args)
        getattr(reference, name)(*args)
        assert indexed.victims() == [] == reference.victims()
        assert indexed.cached_bytes == reference.cached_bytes
        assert set(indexed._cached.items()) == set(reference._cached.items())
    assert (indexed.promotions, indexed.demotions) == (
        reference.promotions, reference.demotions,
    )


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        DedupConfig(cache_policy="clock")


def test_lru_evicts_least_recently_used():
    mgr = manager("lru")
    mgr.note_cached("a", 0, 600)
    mgr.note_cached("b", 0, 600)
    mgr.record_access("a")  # a becomes MRU
    assert mgr.victims() == [("b", 0)]


def test_fifo_ignores_recency():
    mgr = manager("fifo")
    mgr.note_cached("a", 0, 600)
    mgr.note_cached("b", 0, 600)
    mgr.record_access("a")  # does not save a under FIFO
    assert mgr.victims() == [("a", 0)]


def test_lfu_evicts_least_frequent():
    mgr = manager("lfu")
    mgr.note_cached("a", 0, 600)
    mgr.note_cached("b", 0, 600)
    for _ in range(5):
        mgr.record_access("b")
    mgr.record_access("a")
    assert mgr.victims() == [("a", 0)]


def test_lfu_frequency_reset_on_eviction():
    mgr = manager("lfu", capacity=10_000)
    mgr.note_cached("a", 0, 100)
    for _ in range(9):
        mgr.record_access("a")
    mgr.note_evicted("a", 0)
    mgr.note_cached("a", 0, 100)  # re-promoted: old frequency forgotten
    mgr.note_cached("b", 0, 100)
    mgr.record_access("b")
    mgr.config.cache_capacity_bytes = 100
    assert mgr.victims()[0] == ("a", 0)


@pytest.mark.parametrize("policy", ["lru", "lfu", "fifo"])
def test_end_to_end_capacity_respected(policy):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster,
        DedupConfig(
            chunk_size=1024,
            cache_policy=policy,
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
