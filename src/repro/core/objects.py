"""Self-contained object schema: chunk maps and reference sets.

The paper's §4.1 defines two object types:

* **Metadata object** — ID is the user-visible object ID.  Its xattr
  carries the *chunk map*: per chunk, the offset range, chunk (object)
  ID, a cached bit, and a dirty bit (Figure 8).  Cached chunks' bytes
  live in the object's own data part.
* **Chunk object** — ID is the fingerprint of its content (double
  hashing).  Its data part is the chunk; its metadata carries reference
  information ``(pool id, source object ID, offset)`` per referrer.

Both serialise into ordinary object metadata, which is what makes the
design "self-contained": replication, EC, recovery, and rebalance apply
to dedup metadata with zero extra machinery.

Sizes follow §5's implementation notes: each chunk-map entry occupies
**150 bytes** and each reference record **64 bytes**, so the metadata
overhead that drives Table 2's "actual deduplication ratio" is
reproduced byte-for-byte.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = [
    "CHUNK_MAP_ENTRY_BYTES",
    "MAX_VALID_RANGES",
    "merge_ranges",
    "REFERENCE_ENTRY_BYTES",
    "CHUNK_MAP_XATTR",
    "REFS_XATTR",
    "MAP_OMAP_PREFIX",
    "map_entry_key",
    "decode_stored_map",
    "stored_dirty_count",
    "ChunkMapEntry",
    "ChunkMap",
    "ChunkRef",
    "RefSet",
]

#: Paper §5: "Each chunk entry in chunk map uses 150 bytes."
CHUNK_MAP_ENTRY_BYTES = 150
#: Paper §5: "the object in chunk pool uses additional 64 bytes for
#: reference".
REFERENCE_ENTRY_BYTES = 64

#: xattr names on metadata / chunk objects.
CHUNK_MAP_XATTR = "dedup.chunk_map"
REFS_XATTR = "dedup.refs"

_MAP_MAGIC_V2 = b"CMP2"
_MAP_HEADER_V2 = struct.Struct(">4sIIQ")  # magic, chunk_size, count, version
_ENTRY_FIXED = struct.Struct(">QIBB")  # offset, length, flags, id length
_ENTRY_FLAGS_AT = 12  # the flags byte follows the 8-byte offset and 4-byte length
_FLAG_CACHED = 1
_FLAG_DIRTY = 2
_RANGE = struct.Struct(">II")

#: Omap key prefix for chunk-map entries.  Each entry lives under
#: ``map.<idx>`` so a 1-chunk commit rewrites one 150-byte record, not
#: the whole map.
MAP_OMAP_PREFIX = "map."


def map_entry_key(index: int) -> str:
    """Omap key for the chunk-map entry at chunk ``index``.

    Zero-padded so lexicographic omap order matches chunk order.
    """
    return f"{MAP_OMAP_PREFIX}{index:010d}"


#: Maximum cached valid ranges an entry can track before the write path
#: falls back to a foreground pre-read that coalesces them.
MAX_VALID_RANGES = 4


#: Entries are immutable to their users; only ``__init__`` writes fields.
_init_field = object.__setattr__


def merge_ranges(ranges) -> Tuple[Tuple[int, int], ...]:
    """Coalesce (start, end) ranges: sorted, disjoint, non-adjacent."""
    out: List[Tuple[int, int]] = []
    for start, end in sorted(ranges):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return tuple(out)


class ChunkMapEntry:
    """One row of the chunk map (Figure 8) — an immutable value.

    ``chunk_id`` is empty until the chunk has been fingerprinted by the
    dedup engine (the paper's write path note: "the chunk ID is not
    determined yet because it requires content based fingerprint
    hashing").

    ``valid`` lists the byte ranges (relative to ``offset``) whose data
    currently lives in the metadata object's data part.  A chunk can be
    *partially* cached: a sub-chunk write to a flushed chunk stores only
    the written bytes and defers the read-modify-write to the background
    engine — the paper's trick for keeping foreground partial writes at
    original-system cost.  ``cached`` is true iff ``valid`` is
    non-empty.

    Entries never change after construction: a changed row is a new
    entry (:meth:`replace`) installed with :meth:`ChunkMap.set`.  That
    is what lets the cached committed snapshot, every reader's map and
    a writer's private fork share entry objects.

    Hand-rolled ``__slots__`` class (not a dataclass): maps hold one
    entry per chunk, so the per-instance dict overhead dominates decoded
    map memory on wide objects.
    """

    __slots__ = ("offset", "length", "chunk_id", "cached", "dirty", "valid")

    def __init__(
        self,
        offset: int,
        length: int,
        chunk_id: str = "",
        cached: bool = True,
        dirty: bool = True,
        valid: Optional[Tuple[Tuple[int, int], ...]] = None,
    ):
        if valid is None:
            valid = ((0, length),) if cached and length > 0 else ()
        else:
            valid = merge_ranges(valid)
        if not cached and valid:
            raise ValueError("non-cached entry cannot have valid ranges")
        if cached and not valid:
            raise ValueError("cached entry must have valid ranges")
        _init_field(self, "offset", offset)
        _init_field(self, "length", length)
        _init_field(self, "chunk_id", chunk_id)
        _init_field(self, "cached", cached)
        _init_field(self, "dirty", dirty)
        _init_field(self, "valid", valid)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"ChunkMapEntry is immutable: cannot set {name!r}; "
            "install entry.replace(...) with ChunkMap.set()"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ChunkMapEntry is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        return (
            f"ChunkMapEntry(offset={self.offset!r}, length={self.length!r}, "
            f"chunk_id={self.chunk_id!r}, cached={self.cached!r}, "
            f"dirty={self.dirty!r}, valid={self.valid!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChunkMapEntry):
            return NotImplemented
        return (
            self.offset == other.offset
            and self.length == other.length
            and self.chunk_id == other.chunk_id
            and self.cached == other.cached
            and self.dirty == other.dirty
            and self.valid == other.valid
        )

    @property
    def end(self) -> int:
        """Exclusive end offset of this chunk's range."""
        return self.offset + self.length

    def fully_cached(self) -> bool:
        """Whether every byte of the chunk is in the data part."""
        return self.valid == ((0, self.length),)

    def replace(
        self,
        length: Optional[int] = None,
        chunk_id: Optional[str] = None,
        dirty: Optional[bool] = None,
        valid: Optional[Tuple[Tuple[int, int], ...]] = None,
    ) -> "ChunkMapEntry":
        """A new entry with the given fields changed.

        ``offset`` is the row's identity and never changes; ``cached``
        follows ``valid`` (``valid=()`` is "nothing cached").
        """
        if valid is None:
            valid = self.valid
        return ChunkMapEntry(
            self.offset,
            self.length if length is None else length,
            self.chunk_id if chunk_id is None else chunk_id,
            bool(valid),
            self.dirty if dirty is None else dirty,
            valid,
        )

    def valid_with(self, start: int, end: int) -> Optional[Tuple[Tuple[int, int], ...]]:
        """``valid`` once ``[start, end)`` (chunk-relative) is cached too.

        Returns ``None`` when the merged set would exceed
        :data:`MAX_VALID_RANGES` — the caller must then coalesce via a
        full pre-read instead.
        """
        merged = merge_ranges(self.valid + ((start, end),))
        return merged if len(merged) <= MAX_VALID_RANGES else None

    def missing_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Chunk-relative ranges *not* in the cache (complement of valid)."""
        out = []
        pos = 0
        for start, end in self.valid:
            if start > pos:
                out.append((pos, start))
            pos = max(pos, end)
        if pos < self.length:
            out.append((pos, self.length))
        return tuple(out)

    def pack(self) -> bytes:
        """Serialise to exactly :data:`CHUNK_MAP_ENTRY_BYTES` bytes."""
        cid = self.chunk_id.encode("ascii")
        fixed = _ENTRY_FIXED.size + len(cid) + 1 + _RANGE.size * len(self.valid)
        if fixed > CHUNK_MAP_ENTRY_BYTES:
            raise ValueError(f"chunk id too long: {len(cid)} bytes")
        flags = (_FLAG_CACHED if self.cached else 0) | (_FLAG_DIRTY if self.dirty else 0)
        parts = [
            _ENTRY_FIXED.pack(self.offset, self.length, flags, len(cid)),
            cid,
            bytes([len(self.valid)]),
        ]
        for start, end in self.valid:
            parts.append(_RANGE.pack(start, end))
        blob = b"".join(parts)
        return blob + b"\x00" * (CHUNK_MAP_ENTRY_BYTES - len(blob))

    @classmethod
    def unpack(cls, blob: bytes) -> "ChunkMapEntry":
        """Inverse of :meth:`pack`."""
        offset, length, flags, id_len = _ENTRY_FIXED.unpack_from(blob)
        pos = _ENTRY_FIXED.size
        # Fingerprints repeat across entries (dedup!); interning collapses
        # duplicates to one string object and makes equality a pointer test.
        chunk_id = sys.intern(blob[pos : pos + id_len].decode("ascii"))
        pos += id_len
        n_ranges = blob[pos]
        pos += 1
        valid = []
        for _ in range(n_ranges):
            start, end = _RANGE.unpack_from(blob, pos)
            valid.append((start, end))
            pos += _RANGE.size
        return cls(
            offset=offset,
            length=length,
            chunk_id=chunk_id,
            cached=bool(flags & _FLAG_CACHED),
            dirty=bool(flags & _FLAG_DIRTY),
            valid=tuple(valid),
        )


class ChunkMap:
    """The chunk map of one metadata object: index -> entry.

    Entries are keyed by chunk index (``offset // chunk_size``); static
    chunking keeps offsets aligned, so the index is derivable from any
    byte offset.

    :meth:`set` is the only way the map changes (entries themselves are
    immutable), so it is also where the map keeps what the per-op paths
    ask of it — logical size and the dirty / cached / promotable index
    sets — up to date: every query below costs what the answer holds,
    never a walk over the entries, and :meth:`copy` shares the entries.
    """

    # ``copy`` fills these without going through ``__init__``; slots turn
    # a field added to one and forgotten in the other into an error.
    __slots__ = (
        "chunk_size", "version", "_entries", "_touched", "_dirty", "_cached",
        "_promotable", "_size",
    )

    def __init__(self, chunk_size: int):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        #: Version of the stored header this map was decoded from (0 for
        #: a map never committed); each commit stores one more.
        self.version = 0
        self._entries: Dict[int, ChunkMapEntry] = {}
        #: Indices set since the last commit; drives the incremental
        #: writer, which serialises only these entries.
        self._touched: Set[int] = set()
        self._dirty: Set[int] = set()
        self._cached: Set[int] = set()
        self._promotable: Set[int] = set()
        self._size = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ChunkMapEntry]:
        for idx in sorted(self._entries):
            yield self._entries[idx]

    def get(self, index: int) -> Optional[ChunkMapEntry]:
        """Entry at chunk ``index``, or ``None``."""
        return self._entries.get(index)

    def set(self, entry: ChunkMapEntry) -> None:
        """Install ``entry`` (keyed by its offset's chunk index),
        replacing the row there, and record the index as touched."""
        offset, length = entry.offset, entry.length
        if offset % self.chunk_size != 0:
            raise ValueError(
                f"entry offset {offset} not aligned to {self.chunk_size}"
            )
        if not (0 < length <= self.chunk_size):
            raise ValueError(f"entry length {length} out of range")
        idx = offset // self.chunk_size
        old = self._entries.get(idx)
        self._entries[idx] = entry
        self._touched.add(idx)
        dirty, valid = entry.dirty, entry.valid
        (self._dirty.add if dirty else self._dirty.discard)(idx)
        (self._cached.add if valid else self._cached.discard)(idx)
        # Promotable: flushed, clean and not fully cached — a copy from
        # the chunk pool would add bytes the data part does not hold.
        if entry.chunk_id and not dirty and valid != ((0, length),):
            self._promotable.add(idx)
        else:
            self._promotable.discard(idx)
        end = offset + length
        if end >= self._size:
            self._size = end
        elif old is not None and old.offset + old.length == self._size:
            # The row that set the size shrank: the one recount.
            self._size = max(e.offset + e.length for e in self._entries.values())

    def copy(self) -> "ChunkMap":
        """An independent map over the *same* entry objects: ``set`` on
        either side is invisible to the other, and entries cannot
        change.  Touched tracking carries over, so a copy commits
        identically."""
        dup = ChunkMap.__new__(ChunkMap)
        dup.chunk_size = self.chunk_size
        dup.version = self.version
        dup._entries = self._entries.copy()
        dup._touched = self._touched.copy()
        dup._dirty = self._dirty.copy()
        dup._cached = self._cached.copy()
        dup._promotable = self._promotable.copy()
        dup._size = self._size
        return dup

    def touched_indices(self) -> List[int]:
        """Sorted indices set since the last :meth:`clear_touched`."""
        return sorted(self._touched)

    def clear_touched(self) -> None:
        """Reset mutation tracking (after a successful commit)."""
        self._touched.clear()

    def indices(self) -> List[int]:
        """Sorted chunk indices present in the map."""
        return sorted(self._entries)

    def logical_size(self) -> int:
        """Logical object size implied by the map (max entry end)."""
        return self._size

    def dirty_indices(self) -> List[int]:
        """Indices whose chunks need dedup processing."""
        return sorted(self._dirty)

    def cached_indices(self) -> List[int]:
        """Indices whose chunks are cached in the metadata object."""
        return sorted(self._cached)

    def promotable_indices(self) -> List[int]:
        """Indices of flushed, clean chunks the data part does not fully
        hold — what a hot object's promotion would copy back."""
        return sorted(self._promotable)

    def all_clean(self) -> bool:
        """True when no entry is dirty."""
        return not self._dirty

    def serialize_header_v2(self, version: int) -> bytes:
        """Header xattr for the incremental (v2) format.

        Entries live in omap under :func:`map_entry_key`; the xattr
        carries only magic, chunk size, entry count, and the map
        version being committed.
        """
        return _MAP_HEADER_V2.pack(
            _MAP_MAGIC_V2, self.chunk_size, len(self._entries), version
        )

    def omap_entries(self, indices: Optional[List[int]] = None) -> Dict[str, bytes]:
        """Packed omap records for ``indices`` (default: every entry)."""
        if indices is None:
            indices = sorted(self._entries)
        return {map_entry_key(i): self._entries[i].pack() for i in indices}


def decode_stored_map(header: bytes, omap: Mapping[str, bytes]) -> ChunkMap:
    """Decode a stored chunk map: the ``CMP2`` header xattr (magic,
    chunk size, entry count, version) plus one omap record per entry
    under ``map.<idx>``; other omap keys are ignored.  The map carries
    the header's version."""
    magic, chunk_size, count, version = _MAP_HEADER_V2.unpack_from(header)
    if magic != _MAP_MAGIC_V2:
        raise ValueError(f"bad chunk map magic {magic!r}")
    cmap = ChunkMap(chunk_size)
    cmap.version = version
    for key, blob in omap.items():
        if key.startswith(MAP_OMAP_PREFIX):
            cmap.set(ChunkMapEntry.unpack(blob))
    if len(cmap) != count:
        raise ValueError(
            f"chunk map header claims {count} entries, omap has {len(cmap)}"
        )
    cmap.clear_touched()
    return cmap


def stored_dirty_count(header: bytes, omap: Mapping[str, bytes]) -> int:
    """How many entries of a stored chunk map are dirty.

    Equals ``len(decode_stored_map(header, omap).dirty_indices())`` but
    reads only each packed entry's flags byte — what rebuilding the
    dirty list and pacing a dedup pass need from a map they otherwise
    never look at.
    """
    magic, _chunk_size, count, _version = _MAP_HEADER_V2.unpack_from(header)
    if magic != _MAP_MAGIC_V2:
        raise ValueError(f"bad chunk map magic {magic!r}")
    dirty = found = 0
    for key, blob in omap.items():
        if key.startswith(MAP_OMAP_PREFIX):
            found += 1
            if blob[_ENTRY_FLAGS_AT] & _FLAG_DIRTY:
                dirty += 1
    if found != count:
        raise ValueError(f"chunk map header claims {count} entries, omap has {found}")
    return dirty


@dataclass(frozen=True, order=True)
class ChunkRef:
    """One back-reference from a chunk object: who uses this chunk.

    Matches the paper's reference record: (pool id, source object ID,
    offset).
    """

    __slots__ = ("pool_id", "source_oid", "offset")

    pool_id: int
    source_oid: str
    offset: int


class RefSet:
    """The reference records of one chunk object.

    Serialised at :data:`REFERENCE_ENTRY_BYTES` per record into the
    chunk object's xattr; the reference *count* is simply the set size.
    """

    def __init__(self, refs: Optional[List[ChunkRef]] = None):
        self._refs = set(refs or [])

    def __len__(self) -> int:
        return len(self._refs)

    def __contains__(self, ref: ChunkRef) -> bool:
        return ref in self._refs

    def __iter__(self) -> Iterator[ChunkRef]:
        return iter(sorted(self._refs))

    def add(self, ref: ChunkRef) -> None:
        """Record a referrer (idempotent)."""
        self._refs.add(ref)

    def discard(self, ref: ChunkRef) -> None:
        """Drop a referrer if present."""
        self._refs.discard(ref)

    def serialize(self) -> bytes:
        """Fixed-width records, 64 bytes each."""
        parts = []
        max_oid = REFERENCE_ENTRY_BYTES - 13  # header is 4 + 8 + 1 bytes
        for ref in sorted(self._refs):
            oid = ref.source_oid.encode("utf-8")
            if len(oid) > max_oid:
                # Long object names hash down to stay within the record.
                import hashlib

                oid = hashlib.blake2b(oid, digest_size=16).hexdigest().encode("ascii")
            blob = struct.pack(">IQB", ref.pool_id, ref.offset, len(oid)) + oid
            parts.append(blob + b"\x00" * (REFERENCE_ENTRY_BYTES - len(blob)))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, blob: bytes) -> "RefSet":
        """Inverse of :meth:`serialize` (hashed long names round-trip as
        their hash — identity, not the original string)."""
        refs = []
        for pos in range(0, len(blob), REFERENCE_ENTRY_BYTES):
            rec = blob[pos : pos + REFERENCE_ENTRY_BYTES]
            pool_id, offset, oid_len = struct.unpack_from(">IQB", rec)
            raw = rec[13 : 13 + oid_len]
            try:
                oid = raw.decode("utf-8")
            except UnicodeDecodeError:
                oid = raw.hex()
            refs.append(ChunkRef(pool_id=pool_id, source_oid=oid, offset=offset))
        return cls(refs)

    def serialized_bytes(self) -> int:
        """Size of the serialised reference set."""
        return len(self._refs) * REFERENCE_ENTRY_BYTES
