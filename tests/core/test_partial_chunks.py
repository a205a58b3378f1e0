"""Tests for partially-cached chunks (deferred read-modify-write).

The paper keeps foreground partial writes at original-system cost by
writing only the new bytes into the metadata object and letting the
background engine merge them with the old chunk ("reading data for
flush").  These tests pin that behaviour down.
"""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.core.objects import MAX_VALID_RANGES, ChunkMapEntry, merge_ranges
from repro.fingerprint import fingerprint


def make_storage(**overrides):
    defaults = dict(chunk_size=1024, dedup_interval=0.01)
    defaults.update(overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


# --------------------------------------------------------- merge_ranges


def test_merge_ranges_coalesces():
    assert merge_ranges([(0, 5), (5, 10)]) == ((0, 10),)
    assert merge_ranges([(3, 7), (0, 4)]) == ((0, 7),)
    assert merge_ranges([(0, 2), (5, 8)]) == ((0, 2), (5, 8))
    assert merge_ranges([(1, 1), (2, 2)]) == ()


def test_entry_valid_roundtrip_via_pack():
    entry = ChunkMapEntry(
        offset=0, length=1024, chunk_id="ab" * 20, cached=True,
        dirty=True, valid=((100, 200), (300, 400)),
    )
    back = ChunkMapEntry.unpack(entry.pack())
    assert back.valid == ((100, 200), (300, 400))
    assert not back.fully_cached()
    assert back.missing_ranges() == ((0, 100), (200, 300), (400, 1024))


def test_entry_invariants():
    with pytest.raises(ValueError):
        ChunkMapEntry(offset=0, length=10, cached=False, valid=((0, 5),))
    with pytest.raises(ValueError):
        ChunkMapEntry(offset=0, length=10, cached=True, valid=())


def test_add_valid_range_budget():
    entry = ChunkMapEntry(offset=0, length=1000, chunk_id="aa", cached=False,
                          dirty=False, valid=())
    for i in range(MAX_VALID_RANGES):
        entry = entry.replace(valid=entry.valid_with(i * 100, i * 100 + 10))
        assert entry.cached and len(entry.valid) == i + 1
    assert entry.valid_with(900, 910) is None  # fifth disjoint range: refused
    assert entry.valid_with(0, 500) == ((0, 500),)  # merging write is fine


# ------------------------------------------------- deferred RMW behaviour


def test_partial_write_to_flushed_chunk_defers_preread():
    storage = make_storage()
    storage.write_sync("obj1", b"a" * 1024)
    storage.drain()  # flushed + evicted
    old_fp = fingerprint(b"a" * 1024)

    t0 = storage.sim.now
    storage.write_sync("obj1", b"MID", offset=500)
    partial_elapsed = storage.sim.now - t0
    entry = storage.tier.peek_chunk_map("obj1").get(0)
    assert entry.dirty
    assert entry.valid == ((500, 503),)  # only the written bytes cached
    assert entry.chunk_id == old_fp  # old chunk still referenced

    # Cost comparison: the partial write must not have read the chunk
    # object (compare against a fresh full-chunk write).
    t0 = storage.sim.now
    storage.write_sync("obj2", b"z" * 3)
    full_elapsed = storage.sim.now - t0
    assert partial_elapsed < 2.0 * full_elapsed


def test_read_merges_cache_and_chunk_pool():
    storage = make_storage()
    storage.write_sync("obj1", b"a" * 1024)
    storage.drain()
    storage.write_sync("obj1", b"MID", offset=500)
    got = storage.read_sync("obj1")
    assert got == b"a" * 500 + b"MID" + b"a" * 521


def test_engine_merges_on_flush():
    storage = make_storage()
    storage.write_sync("obj1", b"a" * 1024)
    storage.drain()
    old_fp = fingerprint(b"a" * 1024)
    storage.write_sync("obj1", b"MID", offset=500)
    storage.drain()
    merged = b"a" * 500 + b"MID" + b"a" * 521
    new_fp = fingerprint(merged)
    assert not storage.cluster.exists(storage.tier.chunk_pool, old_fp)
    assert storage.cluster.exists(storage.tier.chunk_pool, new_fp)
    entry = storage.tier.peek_chunk_map("obj1").get(0)
    assert entry.chunk_id == new_fp
    assert not entry.dirty and not entry.cached
    assert storage.read_sync("obj1") == merged


def test_multiple_partial_writes_tracked_and_merged():
    storage = make_storage()
    storage.write_sync("obj1", bytes(range(256)) * 4)  # 1024 bytes
    storage.drain()
    storage.write_sync("obj1", b"XX", offset=100)
    storage.write_sync("obj1", b"YY", offset=800)
    entry = storage.tier.peek_chunk_map("obj1").get(0)
    assert entry.valid == ((100, 102), (800, 802))
    expected = bytearray(bytes(range(256)) * 4)
    expected[100:102] = b"XX"
    expected[800:802] = b"YY"
    assert storage.read_sync("obj1") == bytes(expected)
    storage.drain()
    assert storage.read_sync("obj1") == bytes(expected)


def test_fragmented_writes_fall_back_to_preread():
    storage = make_storage()
    storage.write_sync("obj1", b"b" * 1024)
    storage.drain()
    expected = bytearray(b"b" * 1024)
    # Five disjoint tiny writes exceed the range budget; the last one
    # coalesces via pre-read, and content stays correct throughout.
    for i, off in enumerate([0, 200, 400, 600, 800]):
        payload = bytes([i + 65]) * 10
        storage.write_sync("obj1", payload, offset=off)
        expected[off : off + 10] = payload
    entry = storage.tier.peek_chunk_map("obj1").get(0)
    assert entry.fully_cached()  # pre-read coalesced everything
    assert storage.read_sync("obj1") == bytes(expected)


def test_partial_write_extending_tail_chunk():
    storage = make_storage()
    storage.write_sync("obj1", b"t" * 400)  # tail chunk, length 400
    storage.drain()
    storage.write_sync("obj1", b"EXT", offset=600)  # grow with a gap
    got = storage.read_sync("obj1")
    assert got == b"t" * 400 + b"\x00" * 200 + b"EXT"
    storage.drain()
    assert storage.read_sync("obj1") == b"t" * 400 + b"\x00" * 200 + b"EXT"


def test_hot_object_partial_write_stays_cached_after_flush():
    storage = make_storage(hit_count_threshold=1, hitset_period=10.0)
    storage.write_sync("obj1", b"c" * 1024)
    storage.drain()  # hot (threshold 1) -> stays fully cached
    entry = storage.tier.peek_chunk_map("obj1").get(0)
    assert entry.fully_cached()
    storage.write_sync("obj1", b"Q", offset=10)
    storage.drain()
    entry = storage.tier.peek_chunk_map("obj1").get(0)
    assert entry.fully_cached() and not entry.dirty
    expected = b"c" * 10 + b"Q" + b"c" * 1013
    assert storage.read_sync("obj1") == expected
