"""Per-OSD object store: objects with data, xattrs, and omap.

This is the analogue of Ceph's ObjectStore (FileStore/BlueStore): a flat
namespace of named objects, each carrying

* a byte payload (an extent map of immutable blobs — see
  :class:`StoredObject`),
* small extended attributes (``xattrs``) — where the paper keeps the
  chunk map of metadata objects and reference info of chunk objects
  ("self-contained object", §4.1/§5), and
* a key-value map (``omap``) for larger metadata such as dirty lists.

Mutations are applied through :class:`Transaction`, the atomic multi-op
unit the paper's consistency model (§4.6) relies on: either every op in
the transaction applies or none does.

Space accounting matches the paper's §5 notes: every object pays a fixed
metadata overhead (512 bytes in Ceph) plus the bytes of its payload,
xattrs, and omap.  Table 2's "actual deduplication ratio" falls out of
this accounting.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = [
    "ObjectKey",
    "StoredObject",
    "Transaction",
    "ObjectStore",
    "NoSuchObject",
    "ObjectExists",
]

#: Fixed per-object metadata footprint (paper §5: "Ceph's object has its
#: own metadata at least 512 bytes").
PER_OBJECT_OVERHEAD = 512

#: An object's extent map may hold ``size // EXTENT_GRAIN + EXTENT_SLACK``
#: extents before every run of touching extents is collapsed into one
#: blob, so sub-4 KiB random writes cannot shred an object into
#: unboundedly many tiny ones (holes are kept, so an object whose
#: *holes* are shredded that finely stays at one extent per run).
#: Writes aligned to 4 KiB or more never reach the line.
EXTENT_GRAIN = 4096
EXTENT_SLACK = 8

#: Transaction ops that bring their target into existence when absent.
_CREATING_OPS = frozenset(
    ("create", "write", "write_full", "truncate", "zero", "setxattr", "omap_set")
)


class NoSuchObject(KeyError):
    """Raised when an operation targets a non-existent object."""


class ObjectExists(ValueError):
    """Raised by exclusive create when the object already exists."""


class ObjectKey(NamedTuple):
    """Globally unique object identity: pool, placement group, name."""

    pool_id: int
    pg: int
    name: str


class StoredObject:
    """One stored object: payload plus metadata maps.

    The payload is an extent map: sorted, disjoint ``(start, blob)``
    pairs of immutable ``bytes``.  A gap below ``size`` is a *hole* — a
    punched (deallocated) range that reads as zeros and does not count
    toward the footprint; the dedup tier punches a cached chunk out of
    a metadata object once the chunk lives in the chunk pool.

    A blob is never mutated, only replaced, so the store *adopts* the
    ``bytes`` a :class:`Transaction` carries instead of copying them:
    replicas that commit the same transaction, clones, and whatever
    :meth:`read` handed out all alias one blob in host memory, and any
    of them may still diverge (a later write, :meth:`corrupt`) without
    the others seeing it.  The *modelled* disks are charged per replica
    as before — :meth:`footprint` counts every allocated byte.
    """

    __slots__ = ("size", "xattrs", "omap", "_starts", "_blobs", "_allocated")

    def __init__(
        self,
        data: bytes = b"",
        xattrs: Optional[Dict[str, bytes]] = None,
        omap: Optional[Dict[str, bytes]] = None,
    ) -> None:
        self.xattrs: Dict[str, bytes] = {} if xattrs is None else xattrs
        self.omap: Dict[str, bytes] = {} if omap is None else omap
        self.write_full(bytes(data))

    # -- payload: reads ------------------------------------------------------

    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        """``length`` bytes at ``offset`` (short past EOF, zeros in holes).

        A range that is exactly one extent returns that blob itself.
        """
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        size = self.size
        end = size if length is None or offset + length > size else offset + length
        if offset >= end:
            return b""
        starts, blobs = self._starts, self._blobs
        first = bisect_right(starts, offset) - 1
        if first < 0:
            first = 0
        else:
            start, blob = starts[first], blobs[first]
            if end <= start + len(blob):  # within one extent
                if offset == start and end - start == len(blob):
                    return blob
                return blob[offset - start : end - start]
        parts = []
        pos = offset
        for i in range(first, len(starts)):
            start = starts[i]
            if start >= end:
                break
            blob = blobs[i]
            stop = start + len(blob)
            if stop <= pos:
                continue
            if start > pos:
                parts.append(bytes(start - pos))
                pos = start
            if stop > end:
                stop = end
            parts.append(blob[pos - start : stop - start])
            pos = stop
        if pos < end:
            parts.append(bytes(end - pos))
        return b"".join(parts)

    @property
    def data(self) -> bytes:
        """The whole payload, materialised — O(size); tests and debugging."""
        return self.read()

    def extents(self) -> List[Tuple[int, bytes]]:
        """The extent map as ``(start, blob)`` pairs, in offset order."""
        return list(zip(self._starts, self._blobs))

    def allocated_bytes(self) -> int:
        """Payload bytes actually occupying disk (length minus holes)."""
        return self._allocated

    def footprint(self) -> int:
        """Bytes this object occupies, including metadata overhead."""
        # A full recount on purpose (tests corrupt ``xattrs`` directly),
        # but in C: a generator here is a Python frame per record.
        xattrs, omap = self.xattrs, self.omap
        meta = sum(map(len, xattrs)) + sum(map(len, xattrs.values()))
        meta += sum(map(len, omap)) + sum(map(len, omap.values()))
        return PER_OBJECT_OVERHEAD + self._allocated + meta

    def clone(self) -> "StoredObject":
        """An independent object sharing this one's blobs (used when
        replicating/recovering an object)."""
        dup = StoredObject.__new__(StoredObject)
        dup.size = self.size
        dup.xattrs = dict(self.xattrs)
        dup.omap = dict(self.omap)
        dup._starts = list(self._starts)
        dup._blobs = list(self._blobs)
        dup._allocated = self._allocated
        return dup

    # -- payload: mutation (what a Transaction op does to one object) --------

    def write(self, offset: int, data: bytes) -> None:
        """Adopt ``data`` as the extent at ``offset``; a gap between the
        old EOF and ``offset`` becomes allocated zeros."""
        if offset > self.size:
            self.truncate(offset)
        if not data:
            return
        end = offset + len(data)
        starts = self._starts
        if offset == self.size:  # append
            starts.append(offset)
            self._blobs.append(data)
        else:
            at = self._punch(offset, end)
            starts.insert(at, offset)
            self._blobs.insert(at, data)
        self._allocated += len(data)
        if end > self.size:
            self.size = end
        if len(starts) > self.size // EXTENT_GRAIN + EXTENT_SLACK:
            self._collapse()

    def write_full(self, data: bytes) -> None:
        """Replace the whole payload with ``data`` (adopted)."""
        self.size = self._allocated = len(data)
        self._starts = [0] if data else []
        self._blobs = [data] if data else []

    def truncate(self, size: int) -> None:
        """Cut the payload to ``size``, or extend it with allocated zeros."""
        if size < self.size:
            self._punch(size, self.size)
        elif size > self.size:
            self._starts.append(self.size)
            self._blobs.append(bytes(size - self.size))
            self._allocated += size - self.size
        self.size = size
        if len(self._starts) > size // EXTENT_GRAIN + EXTENT_SLACK:
            self._collapse()

    def zero(self, offset: int, length: int) -> None:
        """Punch ``[offset, offset + length)`` (clipped to EOF) into a hole."""
        end = min(offset + length, self.size)
        if end > offset:
            self._punch(offset, end)
            if len(self._starts) > self.size // EXTENT_GRAIN + EXTENT_SLACK:
                self._collapse()

    def corrupt(self, offset: int, mask: int = 0xFF) -> None:
        """Flip the bits of ``mask`` in the stored byte at ``offset``.

        Silent corruption of *this* holder only: the covering extent is
        replaced by a private flipped copy, so other holders of the blob
        and earlier :meth:`read` results keep the good bytes.  Footprint
        is unchanged; a hole has no stored byte to flip.
        """
        i = bisect_right(self._starts, offset) - 1
        blob = self._blobs[i] if i >= 0 else b""
        at = offset - self._starts[i] if i >= 0 else 0
        if at >= len(blob):
            raise ValueError(f"no stored byte at offset {offset}")
        self._blobs[i] = blob[:at] + bytes((blob[at] ^ mask,)) + blob[at + 1 :]

    def _punch(self, lo: int, hi: int) -> int:
        """Drop ``[lo, hi)`` from the extent map, trimming the extents
        that straddle its edges; returns the index an extent starting at
        ``lo`` would take."""
        starts, blobs = self._starts, self._blobs
        first = bisect_right(starts, lo) - 1
        if first < 0 or starts[first] + len(blobs[first]) <= lo:
            first += 1
        last = bisect_left(starts, hi, first)
        if first == last:
            return first
        keep_starts: List[int] = []
        keep_blobs: List[bytes] = []
        at = first
        start, blob = starts[first], blobs[first]
        if start < lo:
            keep_starts.append(start)
            keep_blobs.append(blob[: lo - start])
            at += 1
        start, blob = starts[last - 1], blobs[last - 1]
        if start + len(blob) > hi:
            keep_starts.append(hi)
            keep_blobs.append(blob[hi - start :])
        self._allocated += sum(map(len, keep_blobs)) - sum(map(len, blobs[first:last]))
        starts[first:last] = keep_starts
        blobs[first:last] = keep_blobs
        return at

    def _collapse(self) -> None:
        """Merge every run of touching extents into one blob (holes stay)."""
        starts: List[int] = []
        runs: List[List[bytes]] = []
        stop = -1
        for start, blob in zip(self._starts, self._blobs):
            if start == stop:
                runs[-1].append(blob)
            else:
                starts.append(start)
                runs.append([blob])
            stop = start + len(blob)
        self._starts = starts
        self._blobs = [run[0] if len(run) == 1 else b"".join(run) for run in runs]


class Transaction:
    """An ordered list of mutations applied atomically to one store.

    Supported ops mirror the subset of Ceph's ObjectStore transactions
    the dedup design needs.  ``io_bytes`` approximates the device write
    cost of the transaction for the simulation's disk model.
    """

    def __init__(self):
        self.ops: List[Tuple] = []

    # -- op constructors ---------------------------------------------------

    def create(self, key: ObjectKey, exclusive: bool = False) -> "Transaction":
        """Create an empty object (optionally failing if it exists)."""
        self.ops.append(("create", key, exclusive))
        return self

    def write(self, key: ObjectKey, offset: int, data: bytes) -> "Transaction":
        """Write ``data`` at ``offset``, extending/creating as needed."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        self.ops.append(("write", key, offset, bytes(data)))
        return self

    def write_full(self, key: ObjectKey, data: bytes) -> "Transaction":
        """Replace the whole payload."""
        self.ops.append(("write_full", key, bytes(data)))
        return self

    def truncate(self, key: ObjectKey, size: int) -> "Transaction":
        """Truncate (or zero-extend) the payload to ``size`` bytes."""
        if size < 0:
            raise ValueError(f"negative truncate size {size}")
        self.ops.append(("truncate", key, size))
        return self

    def remove(self, key: ObjectKey) -> "Transaction":
        """Delete the object."""
        self.ops.append(("remove", key))
        return self

    def zero(self, key: ObjectKey, offset: int, length: int) -> "Transaction":
        """Punch a hole: zero ``[offset, offset + length)`` and deallocate it.

        The payload length is unchanged (reads of the range return
        zeros), but the range stops counting toward the object's
        footprint.
        """
        if offset < 0 or length < 0:
            raise ValueError(f"invalid zero range ({offset}, {length})")
        self.ops.append(("zero", key, offset, length))
        return self

    def setxattr(self, key: ObjectKey, name: str, value: bytes) -> "Transaction":
        """Set one extended attribute."""
        self.ops.append(("setxattr", key, name, bytes(value)))
        return self

    def rmxattr(self, key: ObjectKey, name: str) -> "Transaction":
        """Remove one extended attribute (must exist)."""
        self.ops.append(("rmxattr", key, name))
        return self

    def omap_set(self, key: ObjectKey, entries: Dict[str, bytes]) -> "Transaction":
        """Insert/overwrite omap entries."""
        self.ops.append(("omap_set", key, {k: bytes(v) for k, v in entries.items()}))
        return self

    def omap_rm(self, key: ObjectKey, names: List[str]) -> "Transaction":
        """Remove omap entries (missing names are ignored)."""
        self.ops.append(("omap_rm", key, list(names)))
        return self

    # -- costing -----------------------------------------------------------

    @property
    def io_bytes(self) -> int:
        """Approximate device bytes written by this transaction."""
        total = 0
        for op in self.ops:
            kind = op[0]
            if kind == "write":
                total += len(op[3])
            elif kind == "write_full":
                total += len(op[2])
            elif kind == "setxattr":
                total += len(op[3])
            elif kind == "omap_set":
                records = op[2]
                total += sum(map(len, records)) + sum(map(len, records.values()))
            else:
                total += 64  # metadata-only mutation
        return total

    def __len__(self) -> int:
        return len(self.ops)


class ObjectStore:
    """The object namespace of one OSD, with atomic transactions."""

    def __init__(self):
        self._objects: Dict[ObjectKey, StoredObject] = {}
        # Incrementally maintained sum of footprints: used_bytes() is on
        # the per-write capacity-check path and must be O(1).
        self._used_bytes = 0

    # -- reads ---------------------------------------------------------------

    def exists(self, key: ObjectKey) -> bool:
        """Whether ``key`` is stored here."""
        return key in self._objects

    def get(self, key: ObjectKey) -> StoredObject:
        """The stored object, or raise :class:`NoSuchObject`."""
        try:
            return self._objects[key]
        except KeyError:
            raise NoSuchObject(key) from None

    def read(self, key: ObjectKey, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Read ``length`` bytes at ``offset`` (short reads past EOF).

        Returns the stored blob itself when the range is one whole
        extent (a chunk object read in full), a copy otherwise.
        """
        obj = self._objects.get(key)
        if obj is None:
            raise NoSuchObject(key)
        return obj.read(offset, length)

    def getxattr(self, key: ObjectKey, name: str) -> bytes:
        """One xattr value; raises ``KeyError`` when absent."""
        return self.get(key).xattrs[name]

    def omap_get(self, key: ObjectKey, name: str) -> bytes:
        """One omap value; raises ``KeyError`` when absent."""
        return self.get(key).omap[name]

    def stat(self, key: ObjectKey) -> int:
        """Payload size in bytes."""
        return self.get(key).size

    def keys(self) -> Iterator[ObjectKey]:
        """Iterate all object keys (snapshot)."""
        return iter(list(self._objects.keys()))

    def keys_in_pg(self, pool_id: int, pg: int) -> List[ObjectKey]:
        """All object keys in one placement group."""
        return [k for k in self._objects if k.pool_id == pool_id and k.pg == pg]

    def __len__(self) -> int:
        return len(self._objects)

    # -- space accounting ------------------------------------------------------

    def used_bytes(self) -> int:
        """Total footprint of all stored objects (O(1))."""
        return self._used_bytes

    def data_bytes(self) -> int:
        """Allocated payload bytes only (no metadata overhead, no holes)."""
        return sum(obj.allocated_bytes() for obj in self._objects.values())

    # -- mutation -----------------------------------------------------------

    def put_object(self, key: ObjectKey, obj: StoredObject) -> None:
        """Install a full object (replication/recovery path)."""
        old = self._objects.get(key)
        if old is not None:
            self._used_bytes -= old.footprint()
        self._objects[key] = obj
        self._used_bytes += obj.footprint()

    def delete_object(self, key: ObjectKey) -> None:
        """Drop an object if present (recovery cleanup path)."""
        old = self._objects.pop(key, None)
        if old is not None:
            self._used_bytes -= old.footprint()

    def apply(self, txn: Transaction) -> None:
        """Apply ``txn`` atomically: validate every op, then mutate.

        Validation covers the failure modes that could abort midway
        (remove/rmxattr of missing targets, exclusive create of an
        existing object); after validation, the mutation loop cannot
        fail, so atomicity holds.
        """
        self._validate(txn)
        touched = {op[1] for op in txn.ops}
        self._used_bytes -= sum(
            self._objects[key].footprint()
            for key in touched
            if key in self._objects
        )
        try:
            self._apply_ops(txn)
        finally:
            self._used_bytes += sum(
                self._objects[key].footprint()
                for key in touched
                if key in self._objects
            )

    def _apply_ops(self, txn: Transaction) -> None:
        objects = self._objects
        for op in txn.ops:
            kind, key = op[0], op[1]
            # Get-or-create: ``_validate`` has established that the
            # target of every other op kind exists by now.
            obj = objects.get(key)
            if obj is None and kind in _CREATING_OPS:
                obj = objects[key] = StoredObject()
            if kind == "create":
                pass
            elif kind == "write":
                obj.write(op[2], op[3])
            elif kind == "write_full":
                obj.write_full(op[2])
            elif kind == "truncate":
                obj.truncate(op[2])
            elif kind == "zero":
                obj.zero(op[2], op[3])
            elif kind == "remove":
                del objects[key]
            elif kind == "setxattr":
                obj.xattrs[op[2]] = op[3]
            elif kind == "rmxattr":
                del obj.xattrs[op[2]]
            elif kind == "omap_set":
                obj.omap.update(op[2])
            elif kind == "omap_rm":
                omap = obj.omap
                for name in op[2]:
                    omap.pop(name, None)
            else:  # pragma: no cover - constructor-enforced
                raise ValueError(f"unknown transaction op {kind!r}")

    def _validate(self, txn: Transaction) -> None:
        # Track objects created/removed earlier in the same transaction so
        # e.g. create-then-setxattr validates.
        created = set()
        removed = set()
        set_xattrs = set()

        def will_exist(key: ObjectKey) -> bool:
            if key in removed:
                return False
            return key in created or key in self._objects

        for op in txn.ops:
            kind, key = op[0], op[1]
            if kind == "create":
                if op[2] and will_exist(key):
                    raise ObjectExists(key)
                created.add(key)
                removed.discard(key)
            elif kind in _CREATING_OPS:
                created.add(key)
                removed.discard(key)
                if kind == "setxattr":
                    set_xattrs.add((key, op[2]))
            elif kind == "remove":
                if not will_exist(key):
                    raise NoSuchObject(key)
                removed.add(key)
                created.discard(key)
            elif kind == "rmxattr":
                if not will_exist(key):
                    raise NoSuchObject(key)
                if (key, op[2]) not in set_xattrs:
                    if key not in self._objects or op[2] not in self._objects[key].xattrs:
                        raise KeyError(f"no xattr {op[2]!r} on {key}")
            elif kind == "omap_rm":
                if not will_exist(key):
                    raise NoSuchObject(key)
