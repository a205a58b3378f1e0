"""Chunk-map codec: pack/unpack and store/decode round-trips.

Covers the stored format (a ``CMP2`` header xattr plus one omap record
per entry), ``decode_stored_map`` and its refusal of any other header,
the ``__slots__`` / string-interning satellite work, and what makes
decoded maps cheap to share: immutable entries, forks that alias them,
and aggregates that ``ChunkMap.set`` keeps exact.
"""

import copy
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.objects import (
    CHUNK_MAP_ENTRY_BYTES,
    MAP_OMAP_PREFIX,
    MAX_VALID_RANGES,
    ChunkMap,
    ChunkMapEntry,
    ChunkRef,
    decode_stored_map,
    map_entry_key,
    merge_ranges,
    stored_dirty_count,
)

CHUNK = 4096


def entries_equal(a: ChunkMap, b: ChunkMap) -> bool:
    return a.chunk_size == b.chunk_size and list(a) == list(b)


@st.composite
def chunk_entries(draw, chunk_size=CHUNK, index=None):
    idx = draw(st.integers(0, 500)) if index is None else index
    length = draw(st.integers(1, chunk_size))
    chunk_id = draw(
        st.one_of(st.just(""), st.text("0123456789abcdef", min_size=1, max_size=40))
    )
    dirty = draw(st.booleans())
    cached = draw(st.booleans())
    if cached:
        # At least one non-degenerate range; up to the tracking cap.
        n = draw(st.integers(1, MAX_VALID_RANGES))
        ranges = []
        for _ in range(n):
            start = draw(st.integers(0, length - 1))
            end = draw(st.integers(start + 1, length))
            ranges.append((start, end))
        valid = tuple(ranges)
    else:
        valid = ()
    return ChunkMapEntry(
        offset=idx * chunk_size,
        length=length,
        chunk_id=chunk_id,
        cached=cached,
        dirty=dirty,
        valid=valid,
    )


@given(chunk_entries())
@settings(max_examples=200)
def test_entry_pack_unpack_roundtrip(entry):
    blob = entry.pack()
    assert len(blob) == CHUNK_MAP_ENTRY_BYTES
    assert ChunkMapEntry.unpack(blob) == entry


@st.composite
def chunk_maps(draw):
    cmap = ChunkMap(CHUNK)
    indices = draw(st.lists(st.integers(0, 100), max_size=12, unique=True))
    for idx in indices:
        cmap.set(draw(chunk_entries(index=idx)))
    return cmap


@given(chunk_maps())
@settings(max_examples=100)
def test_map_v2_roundtrip_via_header_and_omap(cmap):
    header = cmap.serialize_header_v2(version=7)
    assert header[:4] == b"CMP2"
    omap = cmap.omap_entries()
    # Foreign omap keys (refs, bookkeeping) must be ignored by decode.
    omap["unrelated.key"] = b"zzz"
    got = decode_stored_map(header, omap)
    assert entries_equal(got, cmap)
    # A freshly decoded map carries no pending mutations.
    assert got.touched_indices() == []


@given(
    st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 100)).map(
            lambda t: (min(t), max(t))
        ),
        max_size=8,
    )
)
def test_merge_ranges_sorted_disjoint_and_drops_empty(ranges):
    merged = merge_ranges(ranges)
    # Zero-length input ranges vanish; output ranges are non-empty,
    # sorted, disjoint, and non-adjacent.
    for start, end in merged:
        assert end > start
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert s2 > e1
    covered = set()
    for start, end in ranges:
        covered |= set(range(start, end))
    merged_covered = set()
    for start, end in merged:
        merged_covered |= set(range(start, end))
    assert merged_covered == covered


def test_zero_length_valid_ranges_are_dropped():
    entry = ChunkMapEntry(0, 100, cached=True, valid=((5, 5), (10, 20)))
    assert entry.valid == ((10, 20),)
    with pytest.raises(ValueError):
        # All ranges degenerate -> cached entry with no valid bytes.
        ChunkMapEntry(0, 100, cached=True, valid=((5, 5),))


def test_v2_header_count_mismatch_rejected():
    cmap = ChunkMap(CHUNK)
    cmap.set(ChunkMapEntry(0, 10))
    header = cmap.serialize_header_v2(version=1)
    with pytest.raises(ValueError):
        decode_stored_map(header, {})


def test_map_entry_key_sorts_like_indices():
    keys = [map_entry_key(i) for i in (0, 1, 9, 10, 99, 1234)]
    assert keys == sorted(keys)
    assert all(k.startswith(MAP_OMAP_PREFIX) for k in keys)


def test_touched_tracking_drives_incremental_writer():
    cmap = ChunkMap(CHUNK)
    for i in range(4):
        cmap.set(ChunkMapEntry(i * CHUNK, CHUNK))
    cmap.clear_touched()
    assert cmap.touched_indices() == []
    cmap.set(ChunkMapEntry(2 * CHUNK, CHUNK, dirty=False))
    cmap.set(cmap.get(0).replace(dirty=False))
    assert cmap.touched_indices() == [0, 2]
    entries = cmap.omap_entries(cmap.touched_indices())
    assert set(entries) == {map_entry_key(0), map_entry_key(2)}
    assert all(len(v) == CHUNK_MAP_ENTRY_BYTES for v in entries.values())


def test_entry_and_ref_have_slots_not_dict():
    entry = ChunkMapEntry(0, 10, "ab")
    ref = ChunkRef(1, "oid", 0)
    assert not hasattr(entry, "__dict__")
    assert not hasattr(ref, "__dict__")
    with pytest.raises(AttributeError):
        entry.bogus_attribute = 1


def test_unpack_interns_chunk_ids():
    a = ChunkMapEntry(0, 10, chunk_id="feedfacefeedface").pack()
    b = ChunkMapEntry(CHUNK, 10, chunk_id="feedfacefeedface").pack()
    ea, eb = ChunkMapEntry.unpack(a), ChunkMapEntry.unpack(b)
    assert ea.chunk_id is eb.chunk_id  # sys.intern collapsed duplicates


def test_v2_header_encodes_version_and_count():
    cmap = ChunkMap(CHUNK)
    cmap.set(ChunkMapEntry(0, 10))
    cmap.set(ChunkMapEntry(CHUNK, 20))
    header = cmap.serialize_header_v2(version=42)
    magic, chunk_size, count, version = struct.unpack(">4sIIQ", header)
    assert magic == b"CMP2"
    assert chunk_size == CHUNK
    assert count == 2
    assert version == 42


# -- immutable entries, shared snapshots, maintained aggregates --------------


def test_entry_fields_cannot_be_assigned():
    """Maps share entry objects between the cached snapshot, readers and
    a writer's fork; that is only safe because an entry cannot change."""
    entry = ChunkMapEntry(0, 10, "ab", cached=True, dirty=False)
    for field, value in [
        ("offset", CHUNK),
        ("length", 5),
        ("chunk_id", "cd"),
        ("cached", False),
        ("dirty", True),
        ("valid", ()),
    ]:
        with pytest.raises(AttributeError):
            setattr(entry, field, value)
        with pytest.raises(AttributeError):
            delattr(entry, field)
    assert entry == ChunkMapEntry(0, 10, "ab", cached=True, dirty=False)
    changed = entry.replace(chunk_id="cd", dirty=True, valid=())
    assert changed is not entry
    assert (changed.chunk_id, changed.dirty, changed.cached, changed.valid) == (
        "cd", True, False, ()
    )
    assert entry.chunk_id == "ab" and entry.cached


def reference_pack(row) -> bytes:
    """The 150-byte entry format, written out independently of pack()."""
    offset, length, chunk_id, dirty, valid = row
    flags = (1 if valid else 0) | (2 if dirty else 0)
    blob = struct.pack(">QIBB", offset, length, flags, len(chunk_id))
    blob += chunk_id.encode("ascii") + bytes([len(valid)])
    for start, end in valid:
        blob += struct.pack(">II", start, end)
    return blob + b"\x00" * (CHUNK_MAP_ENTRY_BYTES - len(blob))


class Fork:
    """A ChunkMap beside a reference that shares nothing with any other
    fork: plain rows ``(offset, length, chunk_id, dirty, valid)`` by
    index plus a touched set, deep-copied on every fork."""

    def __init__(self, cmap, rows, touched):
        self.cmap = cmap
        self.rows = rows
        self.touched = touched

    def set(self, entry):
        self.cmap.set(entry)
        idx = entry.offset // CHUNK
        self.rows[idx] = (
            entry.offset, entry.length, entry.chunk_id, entry.dirty, entry.valid
        )
        self.touched.add(idx)

    def fork(self):
        return Fork(self.cmap.copy(), copy.deepcopy(self.rows), set(self.touched))

    def check(self):
        cmap, rows = self.cmap, self.rows
        order = sorted(rows)
        assert cmap.indices() == order
        assert [
            (e.offset, e.length, e.chunk_id, e.dirty, e.valid) for e in cmap
        ] == [rows[i] for i in order]
        assert all(e.cached == bool(e.valid) for e in cmap)
        # Every maintained aggregate equals the scan it replaced.
        assert cmap.logical_size() == max(
            (off + length for off, length, *_ in rows.values()), default=0
        )
        dirty = [i for i in order if rows[i][3]]
        assert cmap.dirty_indices() == dirty
        assert cmap.all_clean() == (not dirty)
        assert cmap.cached_indices() == [i for i in order if rows[i][4]]
        assert cmap.promotable_indices() == [
            i
            for i in order
            if rows[i][2] and not rows[i][3] and rows[i][4] != ((0, rows[i][1]),)
        ]
        assert cmap.touched_indices() == sorted(self.touched)
        # Stored bytes, written out.
        packed = {map_entry_key(i): reference_pack(rows[i]) for i in order}
        assert cmap.omap_entries() == packed
        assert cmap.omap_entries(cmap.touched_indices()) == {
            map_entry_key(i): packed[map_entry_key(i)] for i in sorted(self.touched)
        }


class ForkedMaps(RuleBasedStateMachine):
    """Random set / replace / copy / clear_touched / commit sequences on
    maps of 1-64 entries: forks never observe each other's or their
    parent's later changes, and every aggregate stays exact."""

    def __init__(self):
        super().__init__()
        self.forks = []

    @initialize(entry=chunk_entries(index=0))
    def first_map(self, entry):
        fork = Fork(ChunkMap(CHUNK), {}, set())
        fork.set(entry)
        self.forks.append(fork)

    def pick(self, data):
        return self.forks[data.draw(st.integers(0, len(self.forks) - 1), label="fork")]

    @rule(data=st.data(), index=st.integers(0, 63))
    def set_entry(self, data, index):
        self.pick(data).set(data.draw(chunk_entries(index=index), label="entry"))

    @rule(
        data=st.data(),
        shrink_to=st.one_of(st.none(), st.integers(1, CHUNK)),
        chunk_id=st.one_of(st.none(), st.just(""), st.just("c0ffee")),
        dirty=st.one_of(st.none(), st.booleans()),
        revalidate=st.sampled_from(["keep", "none", "whole", "head"]),
    )
    def replace_entry(self, data, shrink_to, chunk_id, dirty, revalidate):
        fork = self.pick(data)
        index = data.draw(st.sampled_from(sorted(fork.rows)), label="index")
        entry = fork.cmap.get(index)
        # Lengths only ever go down here: replacing the row that carries
        # logical_size() by a shorter one is the case that needs a recount.
        length = entry.length if shrink_to is None else min(entry.length, shrink_to)
        valid = {
            "keep": tuple((s, min(e, length)) for s, e in entry.valid if s < length),
            "none": (),
            "whole": ((0, length),),
            "head": ((0, max(1, length // 2)),),
        }[revalidate]
        fork.set(entry.replace(length=length, chunk_id=chunk_id, dirty=dirty, valid=valid))

    @precondition(lambda self: len(self.forks) < 6)
    @rule(data=st.data())
    def copy_map(self, data):
        self.forks.append(self.pick(data).fork())

    @rule(data=st.data())
    def clear_touched(self, data):
        fork = self.pick(data)
        fork.cmap.clear_touched()
        fork.touched.clear()

    @precondition(lambda self: len(self.forks) < 6)
    @rule(data=st.data())
    def commit(self, data):
        # What DedupTier.note_map_committed does: the writer's fork stays
        # its own, a fork of it becomes the shared committed snapshot.
        fork = self.pick(data)
        fork.cmap.clear_touched()
        fork.touched.clear()
        self.forks.append(fork.fork())

    @invariant()
    def every_fork_matches_its_own_reference(self):
        for fork in self.forks:
            fork.check()


ForkedMaps.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
test_forked_maps_stay_isolated_and_aggregates_exact = ForkedMaps.TestCase


@given(chunk_maps())
@settings(max_examples=100)
def test_stored_dirty_count_equals_the_decoded_answer(cmap):
    """The flags-byte reader agrees with a full decode."""
    header, omap = cmap.serialize_header_v2(version=3), cmap.omap_entries()
    omap["unrelated.key"] = b"zzz"
    assert stored_dirty_count(header, omap) == len(
        decode_stored_map(header, omap).dirty_indices()
    )


def test_stored_dirty_count_rejects_what_the_decoder_rejects():
    cmap = ChunkMap(CHUNK)
    cmap.set(ChunkMapEntry(0, 10))
    header, omap = cmap.serialize_header_v2(version=1), cmap.omap_entries()
    with pytest.raises(ValueError):
        stored_dirty_count(header, {})
    # Any header but CMP2 is refused, the retired whole-map CMAP included.
    for magic in (b"CMAP", b"XXXX"):
        for read in (stored_dirty_count, decode_stored_map):
            with pytest.raises(ValueError, match="magic"):
                read(magic + header[4:], omap)
