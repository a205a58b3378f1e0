"""Per-OSD object store: objects with data, xattrs, and omap.

This is the analogue of Ceph's ObjectStore (FileStore/BlueStore): a flat
namespace of named objects, each carrying

* a byte payload (``data``),
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

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..util.intervals import IntervalSet

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


@dataclass
class StoredObject:
    """One stored object: payload plus metadata maps.

    ``holes`` tracks punched (deallocated) ranges of the payload — the
    dedup tier punches a cached chunk out of a metadata object once the
    chunk lives in the chunk pool, and the freed space must show up in
    space accounting even though the payload length is unchanged.
    """

    data: bytearray = field(default_factory=bytearray)
    xattrs: Dict[str, bytes] = field(default_factory=dict)
    omap: Dict[str, bytes] = field(default_factory=dict)
    holes: IntervalSet = field(default_factory=IntervalSet)

    def allocated_bytes(self) -> int:
        """Payload bytes actually occupying disk (length minus holes)."""
        if not self.holes:
            return len(self.data)
        return len(self.data) - self.holes.total_within(0, len(self.data))

    def footprint(self) -> int:
        """Bytes this object occupies, including metadata overhead."""
        # A full recount on purpose (tests corrupt ``xattrs`` directly),
        # but in C: a generator here is a Python frame per record.
        xattrs, omap = self.xattrs, self.omap
        meta = sum(map(len, xattrs)) + sum(map(len, xattrs.values()))
        meta += sum(map(len, omap)) + sum(map(len, omap.values()))
        return PER_OBJECT_OVERHEAD + self.allocated_bytes() + meta

    def clone(self) -> "StoredObject":
        """Deep copy (used when replicating/recovering an object)."""
        return StoredObject(
            data=bytearray(self.data),
            xattrs=dict(self.xattrs),
            omap=dict(self.omap),
            holes=self.holes.copy(),
        )


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
        """Read ``length`` bytes at ``offset`` (short reads past EOF)."""
        obj = self.get(key)
        if length is None:
            return bytes(obj.data[offset:])
        return bytes(obj.data[offset : offset + length])

    def getxattr(self, key: ObjectKey, name: str) -> bytes:
        """One xattr value; raises ``KeyError`` when absent."""
        return self.get(key).xattrs[name]

    def omap_get(self, key: ObjectKey, name: str) -> bytes:
        """One omap value; raises ``KeyError`` when absent."""
        return self.get(key).omap[name]

    def stat(self, key: ObjectKey) -> int:
        """Payload size in bytes."""
        return len(self.get(key).data)

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
                _, _, offset, data = op
                end = offset + len(data)
                if len(obj.data) < offset:
                    obj.data.extend(b"\x00" * (offset - len(obj.data)))
                if len(obj.data) < end:
                    obj.data.extend(b"\x00" * (end - len(obj.data)))
                obj.data[offset:end] = data
                obj.holes.remove(offset, end)
            elif kind == "write_full":
                obj.data = bytearray(op[2])
                obj.holes = IntervalSet()
            elif kind == "truncate":
                size = op[2]
                if size <= len(obj.data):
                    del obj.data[size:]
                    obj.holes.clip(size)
                else:
                    obj.data.extend(b"\x00" * (size - len(obj.data)))
            elif kind == "zero":
                _, _, offset, length = op
                end = min(offset + length, len(obj.data))
                if end > offset:
                    obj.data[offset:end] = b"\x00" * (end - offset)
                    obj.holes.add(offset, end)
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
