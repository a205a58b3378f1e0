"""Tests for chunk map and reference set schema/serialisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import (
    CHUNK_MAP_ENTRY_BYTES,
    REFERENCE_ENTRY_BYTES,
    ChunkMap,
    ChunkMapEntry,
    ChunkRef,
    RefSet,
)
from repro.core.objects import decode_stored_map


def roundtrip(cmap):
    """``cmap`` stored (header xattr + omap records) and decoded back."""
    return decode_stored_map(cmap.serialize_header_v2(version=1), cmap.omap_entries())


def test_entry_pack_unpack_roundtrip():
    entry = ChunkMapEntry(
        offset=65536, length=32768, chunk_id="ab" * 20, cached=True, dirty=False
    )
    assert ChunkMapEntry.unpack(entry.pack()) == entry


def test_entry_packs_to_exact_paper_size():
    entry = ChunkMapEntry(offset=0, length=100, chunk_id="ff" * 20)
    assert len(entry.pack()) == CHUNK_MAP_ENTRY_BYTES == 150


def test_entry_flag_combinations():
    for cached in (True, False):
        for dirty in (True, False):
            e = ChunkMapEntry(0, 10, "ab", cached=cached, dirty=dirty)
            back = ChunkMapEntry.unpack(e.pack())
            assert back.cached == cached and back.dirty == dirty


def test_entry_rejects_huge_chunk_id():
    entry = ChunkMapEntry(offset=0, length=1, chunk_id="x" * 200)
    with pytest.raises(ValueError):
        entry.pack()


def test_chunk_map_set_get():
    cmap = ChunkMap(chunk_size=100)
    cmap.set(ChunkMapEntry(offset=200, length=100, chunk_id="c2"))
    assert cmap.get(2).chunk_id == "c2"
    assert cmap.get(0) is None


def test_chunk_map_alignment_enforced():
    cmap = ChunkMap(chunk_size=100)
    with pytest.raises(ValueError):
        cmap.set(ChunkMapEntry(offset=150, length=50))
    with pytest.raises(ValueError):
        cmap.set(ChunkMapEntry(offset=100, length=101))
    with pytest.raises(ValueError):
        cmap.set(ChunkMapEntry(offset=100, length=0))


def test_chunk_map_logical_size():
    cmap = ChunkMap(chunk_size=100)
    assert cmap.logical_size() == 0
    cmap.set(ChunkMapEntry(offset=0, length=100))
    cmap.set(ChunkMapEntry(offset=200, length=42))
    assert cmap.logical_size() == 242


def test_chunk_map_dirty_and_cached_indices():
    cmap = ChunkMap(chunk_size=10)
    cmap.set(ChunkMapEntry(offset=0, length=10, cached=True, dirty=True))
    cmap.set(ChunkMapEntry(offset=10, length=10, cached=False, dirty=False))
    cmap.set(ChunkMapEntry(offset=20, length=10, cached=True, dirty=False))
    assert cmap.dirty_indices() == [0]
    assert cmap.cached_indices() == [0, 2]
    assert not cmap.all_clean()


def test_chunk_map_serialize_roundtrip():
    cmap = ChunkMap(chunk_size=32768)
    for i in range(5):
        cmap.set(
            ChunkMapEntry(
                offset=i * 32768,
                length=32768 if i < 4 else 1000,
                chunk_id=f"{i:02x}" * 10,
                cached=i % 2 == 0,
                dirty=i % 3 == 0,
            )
        )
    back = roundtrip(cmap)
    assert back.chunk_size == cmap.chunk_size
    assert list(back) == list(cmap)


def test_chunk_map_serialized_size_matches_paper_accounting():
    cmap = ChunkMap(chunk_size=32768)
    for i in range(7):
        cmap.set(ChunkMapEntry(offset=i * 32768, length=32768))
    records = cmap.omap_entries()
    # 150 bytes per entry, plus a header that does not grow with the map.
    assert sum(map(len, records.values())) == 7 * 150
    assert len(cmap.serialize_header_v2(1)) == len(ChunkMap(32768).serialize_header_v2(1))


def test_chunk_map_bad_magic():
    with pytest.raises(ValueError):
        decode_stored_map(b"NOPE" + b"\x00" * 20, {})


def test_refset_add_discard():
    refs = RefSet()
    r1 = ChunkRef(pool_id=1, source_oid="obj1", offset=0)
    refs.add(r1)
    refs.add(r1)  # idempotent
    assert len(refs) == 1
    refs.discard(r1)
    assert len(refs) == 0
    refs.discard(r1)  # idempotent


def test_refset_serialize_roundtrip():
    refs = RefSet(
        [
            ChunkRef(1, "a", 0),
            ChunkRef(1, "a", 32768),
            ChunkRef(2, "other-object", 65536),
        ]
    )
    back = RefSet.deserialize(refs.serialize())
    assert sorted(back) == sorted(refs)


def test_refset_record_size_matches_paper():
    refs = RefSet([ChunkRef(1, "x", 0)])
    assert len(refs.serialize()) == REFERENCE_ENTRY_BYTES == 64
    assert refs.serialized_bytes() == 64


def test_refset_long_oid_hashed_not_crashing():
    long_name = "v" * 300
    refs = RefSet([ChunkRef(1, long_name, 8)])
    blob = refs.serialize()
    assert len(blob) == 64
    back = RefSet.deserialize(blob)
    assert len(back) == 1  # identity preserved via hash, not the string


@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),  # index
            st.integers(min_value=1, max_value=4096),  # length
            st.booleans(),
            st.booleans(),
        ),
        max_size=30,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=50)
def test_chunk_map_roundtrip_property(entries):
    cmap = ChunkMap(chunk_size=4096)
    for idx, length, cached, dirty in entries:
        cmap.set(
            ChunkMapEntry(
                offset=idx * 4096,
                length=length,
                chunk_id=f"{idx:040x}",
                cached=cached,
                dirty=dirty,
            )
        )
    assert list(roundtrip(cmap)) == list(cmap)


@given(
    refs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**31),
            st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=40),
            st.integers(min_value=0, max_value=2**40),
        ),
        max_size=20,
    )
)
@settings(max_examples=50)
def test_refset_roundtrip_property(refs):
    refset = RefSet([ChunkRef(p, o, off) for p, o, off in refs])
    back = RefSet.deserialize(refset.serialize())
    assert sorted(back) == sorted(refset)
