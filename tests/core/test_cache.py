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
        hitset_period=1.0, hit_count_threshold=2, **overrides
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


def test_a_write_burst_straddling_a_rotation_is_not_hot():
    # Two periods counted, but 0.1 s apart: a rotation fell between
    # them, and that alone must not make the object hot.
    sim = Simulator()
    mgr = make_manager(sim)
    mgr.record_access("warmup")  # opens a period at t=0
    advance(sim, 0.95)
    mgr.record_access("obj1")
    advance(sim, 0.1)
    mgr.record_access("obj1")  # rotates: a second period
    assert mgr.hitset.hit_count("obj1") == 2
    assert not mgr.is_hot("obj1")


def test_a_read_shortly_after_the_write_is_not_hot():
    for t in (0.0, 0.5):  # whatever the phase of the ring
        sim = Simulator()
        mgr = make_manager(sim)
        mgr.record_access("warmup")
        advance(sim, 0.9 + t)
        mgr.record_access("obj1")  # the write
        advance(sim, 0.14)
        mgr.record_access("obj1")  # the read
        assert not mgr.is_hot("obj1")


def test_hits_in_two_periods_a_period_apart_are_hot():
    sim = Simulator()
    mgr = make_manager(sim)
    mgr.record_access("obj1")
    advance(sim, 0.6)
    mgr.record_access("obj1")
    assert not mgr.is_hot("obj1")  # one period
    advance(sim, 0.4)
    mgr.record_access("obj1")
    assert mgr.is_hot("obj1")  # two periods, 1.0 s apart
    advance(sim, 3.0)
    mgr.record_access("obj1")
    assert mgr.is_hot("obj1")  # the run goes on


def test_threshold_one_is_hot_at_the_first_access():
    sim = Simulator()
    config = DedupConfig(hitset_period=1.0, hit_count_threshold=1)
    mgr = CacheManager(sim, config)
    assert not mgr.is_hot("obj1")
    mgr.record_access("obj1")
    assert mgr.is_hot("obj1")
    advance(sim, 8.5)
    assert not mgr.is_hot("obj1")  # out of the ring, as before


def test_a_run_restarts_after_a_whole_ring_of_quiet():
    sim = Simulator()
    mgr = make_manager(sim)
    mgr.record_access("obj1")
    advance(sim, 1.0)
    mgr.record_access("obj1")
    assert mgr.is_hot("obj1")
    advance(sim, 8.5)  # a whole ring (8 x 1 s) without an access
    mgr.record_access("other")  # opens a period at t=9.5
    advance(sim, 0.7)
    mgr.record_access("obj1")
    advance(sim, 0.6)
    mgr.record_access("obj1")  # rotates: two periods again
    assert mgr.hitset.hit_count("obj1") == 2
    assert not mgr.is_hot("obj1")  # but the new run is 0.6 s old


def test_the_per_object_record_empties_after_a_ring_of_quiet():
    sim = Simulator()
    hs = HitSet(sim, period=1.0, count=8)
    for i in range(50):
        hs.record(f"o{i}")
        advance(sim, 0.1)
    assert hs.first_access("o0") == 0.0
    advance(sim, 1.0 * 8)
    assert hs.first_access("o49") is None
    hs.record("late")  # a rotation prunes the forgotten runs
    assert list(hs._runs) == ["late"]
    advance(sim, 1.0 * 8)
    hs.record("later")
    assert list(hs._runs) == ["later"]


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


# ------------------------------------------- hotness under a timing shift


def _backup_rounds(rate_scale, generations=10):
    """A small seq-backup-shaped run — write a generation, drain, restore
    the previous one, retire the one before — on hardware whose disk and
    NIC rates are scaled by ``rate_scale``.  Returns the promotions and
    the stored bytes sampled after every restore."""
    import random

    from repro.cluster import RadosCluster
    from repro.cluster.hardware import DiskSpec, HardwareProfile, NicSpec
    from repro.core import DedupedStorage

    kib = 1024
    chunk, obj, piece, n_obj = 32 * kib, 256 * kib, 128 * kib, 4
    # Slow devices, so the run spans several HitSet rotations.
    profile = HardwareProfile(
        disk=DiskSpec(
            seq_bandwidth=10 * 1024 * kib * rate_scale,
            read_iops=2000 * rate_scale,
            write_iops=1000 * rate_scale,
        ),
        nic=NicSpec(bandwidth=20 * 1024 * kib * rate_scale),
    )
    cluster = RadosCluster(profile=profile, num_hosts=4, osds_per_host=1, pg_num=16)
    storage = DedupedStorage(cluster, DedupConfig(chunk_size=chunk))
    sim = storage.sim
    rng = random.Random(7)
    blocks = [rng.randbytes(chunk) for _ in range(n_obj * obj // chunk)]
    stored = []

    def write_object(oid, data):
        for off in range(0, obj, piece):
            yield from storage.write(oid, data[off : off + piece], offset=off)

    def restore_object(oid):
        for off in range(0, obj, piece):
            yield from storage.read(oid, off, piece)

    def backup():
        for g in range(generations):
            for i in rng.sample(range(len(blocks)), len(blocks) // 10):
                blocks[i] = rng.randbytes(chunk)
            per_obj = obj // chunk
            yield sim.all_of([
                sim.process(write_object(
                    f"g{g}.o{o}", b"".join(blocks[o * per_obj : (o + 1) * per_obj])
                ))
                for o in range(n_obj)
            ])
            yield from storage.engine.drain()
            if g:
                yield sim.all_of(
                    [sim.process(restore_object(f"g{g - 1}.o{o}")) for o in range(n_obj)]
                )
            yield sim.timeout(0.05)  # let any promotion land
            stored.append(storage.space_report().stored_bytes)
            if g >= 2:
                for o in range(n_obj):
                    yield from storage.delete(f"g{g - 2}.o{o}")

    cluster.run(backup())
    return storage.tier.cache.promotions, stored, sim.now


def test_a_backup_run_keeps_its_promotions_and_stored_bytes_under_a_timing_shift():
    # A restore reads each object a fraction of a period after its
    # write: whether a rotation falls in between depends only on the
    # run's speed, so hotness (and with it promotions and the cached
    # bytes a generation keeps) must not.
    base = _backup_rounds(1.0)
    for scale in (0.85, 1.15):
        promotions, stored, elapsed = _backup_rounds(scale)
        assert elapsed != base[2]  # the shift did move the clock
        assert (promotions, stored) == base[:2], scale
