"""Tests for the HitSet and cache manager."""

import pytest

from repro.core import DedupConfig
from repro.core.cache import CacheManager, HitSet
from repro.sim import Simulator


def advance(sim, dt):
    sim.run(until=sim.now + dt)


# ----------------------------------------------------------------- HitSet


def test_hitset_records_and_counts():
    sim = Simulator()
    hs = HitSet(sim, period=1.0, count=4)
    hs.record("obj1")
    assert hs.hit_count("obj1") == 1
    assert hs.hit_count("other") == 0


def test_hitset_counts_distinct_periods():
    sim = Simulator()
    hs = HitSet(sim, period=1.0, count=8)
    for _ in range(3):
        hs.record("obj1")
        advance(sim, 1.0)
    assert hs.hit_count("obj1") == 3


def test_hitset_same_period_counts_once():
    sim = Simulator()
    hs = HitSet(sim, period=1.0, count=8)
    for _ in range(10):
        hs.record("obj1")
    assert hs.hit_count("obj1") == 1


def test_hitset_old_periods_expire():
    sim = Simulator()
    hs = HitSet(sim, period=1.0, count=2)
    hs.record("obj1")
    advance(sim, 5.0)
    hs.record("other")  # forces rotation
    assert hs.hit_count("obj1") == 0


def test_hitset_ring_bounded():
    sim = Simulator()
    hs = HitSet(sim, period=0.1, count=3)
    for i in range(20):
        hs.record(f"o{i}")
        advance(sim, 0.1)
    assert len(hs._ring) <= 3


def test_hitset_hashes_once_and_counts_like_one_lookup_per_filter():
    # hit_count() computes the oid's probes once and tests the whole ring
    # with them; the answer must be the written-out one — a separate
    # ``oid in filter`` per period still inside the horizon — false
    # positives of a deliberately tiny filter included.
    sim = Simulator()
    hs = HitSet(sim, period=1.0, count=4, capacity=8, error_rate=0.3)
    assert hs.hit_count("obj0") == 0  # empty ring
    oids = [f"obj{i}" for i in range(40)]
    for step in range(12):
        for oid in oids[step % 5 :: 5]:
            hs.record(oid)
        advance(sim, 0.7)
        horizon = sim.now - hs.period * hs.count
        for oid in oids:
            assert hs.hit_count(oid) == sum(
                1 for start, bf in hs._ring if start >= horizon and oid in bf
            )
    assert any(hs.hit_count(oid) > 0 for oid in oids)


def test_hitset_invalid_params():
    sim = Simulator()
    with pytest.raises(ValueError):
        HitSet(sim, period=0)
    with pytest.raises(ValueError):
        HitSet(sim, count=0)


# ----------------------------------------------------------- CacheManager


def make_manager(sim, **overrides):
    config = DedupConfig(
        hitset_period=1.0, hitset_count=8, hit_count_threshold=2, **overrides
    )
    return CacheManager(sim, config)


def test_hotness_threshold():
    sim = Simulator()
    mgr = make_manager(sim)
    mgr.record_access("obj1")
    assert not mgr.is_hot("obj1")
    advance(sim, 1.0)
    mgr.record_access("obj1")
    assert mgr.is_hot("obj1")


def test_cold_object_not_hot():
    sim = Simulator()
    mgr = make_manager(sim)
    assert not mgr.is_hot("never-seen")


def test_keep_cached_on_flush_follows_hotness():
    sim = Simulator()
    mgr = make_manager(sim)
    assert not mgr.keep_cached_on_flush("obj1")
    mgr.record_access("obj1")
    advance(sim, 1.0)
    mgr.record_access("obj1")
    assert mgr.keep_cached_on_flush("obj1")


def test_cache_on_flush_disabled():
    sim = Simulator()
    mgr = make_manager(sim, cache_on_flush=False)
    mgr.record_access("obj1")
    advance(sim, 1.0)
    mgr.record_access("obj1")
    assert mgr.is_hot("obj1")
    assert not mgr.keep_cached_on_flush("obj1")


def test_cached_bytes_accounting():
    sim = Simulator()
    mgr = make_manager(sim)
    mgr.note_cached("a", 0, 1000)
    mgr.note_cached("a", 1, 500)
    assert mgr.cached_bytes == 1500
    mgr.note_cached("a", 0, 800)  # resize, not double count
    assert mgr.cached_bytes == 1300
    mgr.note_evicted("a", 1)
    assert mgr.cached_bytes == 800
    mgr.note_evicted("a", 1)  # idempotent
    assert mgr.cached_bytes == 800


def test_victims_lru_order():
    sim = Simulator()
    mgr = make_manager(sim, cache_capacity_bytes=1000)
    mgr.note_cached("old", 0, 600)
    mgr.note_cached("new", 0, 600)
    mgr.record_access("old")  # old becomes most-recently-used
    victims = mgr.victims()
    assert victims == [("new", 0)]


def test_victims_empty_when_uncapped():
    sim = Simulator()
    mgr = make_manager(sim)  # capacity None
    mgr.note_cached("a", 0, 10**9)
    assert mgr.victims() == []
    assert not mgr.over_capacity()


def test_over_capacity_flag():
    sim = Simulator()
    mgr = make_manager(sim, cache_capacity_bytes=100)
    mgr.note_cached("a", 0, 150)
    assert mgr.over_capacity()
    mgr.note_evicted("a", 0)
    assert not mgr.over_capacity()
