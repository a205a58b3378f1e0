"""Tests for the per-OSD object store and atomic transactions."""

import pytest

from repro.cluster import NoSuchObject, ObjectExists, ObjectKey, PER_OBJECT_OVERHEAD, Transaction
from repro.cluster.objectstore import ObjectStore, StoredObject
from repro.cluster.objectstore import EXTENT_GRAIN, EXTENT_SLACK


def key(name="obj", pool=1, pg=0):
    return ObjectKey(pool, pg, name)


def test_write_full_and_read():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"hello"))
    assert store.read(key()) == b"hello"
    assert store.stat(key()) == 5


def test_partial_write_within_object():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"aaaaaaaa"))
    store.apply(Transaction().write(key(), 2, b"BB"))
    assert store.read(key()) == b"aaBBaaaa"


def test_partial_write_extends_object():
    store = ObjectStore()
    store.apply(Transaction().write(key(), 4, b"xy"))
    assert store.read(key()) == b"\x00\x00\x00\x00xy"


def test_read_offset_length_and_short_read():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"0123456789"))
    assert store.read(key(), 2, 3) == b"234"
    assert store.read(key(), 8, 100) == b"89"
    assert store.read(key(), 3) == b"3456789"


def test_truncate_shrinks_and_extends():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"0123456789"))
    store.apply(Transaction().truncate(key(), 4))
    assert store.read(key()) == b"0123"
    store.apply(Transaction().truncate(key(), 6))
    assert store.read(key()) == b"0123\x00\x00"


def test_remove():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"x"))
    store.apply(Transaction().remove(key()))
    assert not store.exists(key())


def test_remove_missing_raises_and_nothing_applied():
    store = ObjectStore()
    txn = Transaction().write_full(key("a"), b"data").remove(key("missing"))
    with pytest.raises(NoSuchObject):
        store.apply(txn)
    # Atomicity: the earlier write did not happen either.
    assert not store.exists(key("a"))


def test_exclusive_create():
    store = ObjectStore()
    store.apply(Transaction().create(key(), exclusive=True))
    with pytest.raises(ObjectExists):
        store.apply(Transaction().create(key(), exclusive=True))
    # Non-exclusive create of existing object is fine.
    store.apply(Transaction().create(key()))


def test_create_then_remove_in_one_txn():
    store = ObjectStore()
    txn = Transaction().write_full(key(), b"x").remove(key())
    store.apply(txn)
    assert not store.exists(key())


def test_xattrs():
    store = ObjectStore()
    store.apply(
        Transaction().write_full(key(), b"d").setxattr(key(), "chunkmap", b"\x01\x02")
    )
    assert store.getxattr(key(), "chunkmap") == b"\x01\x02"
    store.apply(Transaction().rmxattr(key(), "chunkmap"))
    with pytest.raises(KeyError):
        store.getxattr(key(), "chunkmap")


def test_rmxattr_missing_raises():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"d"))
    with pytest.raises(KeyError):
        store.apply(Transaction().rmxattr(key(), "nope"))


def test_setxattr_then_rmxattr_same_txn():
    store = ObjectStore()
    store.apply(
        Transaction()
        .write_full(key(), b"d")
        .setxattr(key(), "tmp", b"v")
        .rmxattr(key(), "tmp")
    )
    with pytest.raises(KeyError):
        store.getxattr(key(), "tmp")


def test_omap_set_get_rm():
    store = ObjectStore()
    store.apply(Transaction().omap_set(key(), {"k1": b"v1", "k2": b"v2"}))
    assert store.omap_get(key(), "k1") == b"v1"
    store.apply(Transaction().omap_rm(key(), ["k1", "missing-is-ok"]))
    with pytest.raises(KeyError):
        store.omap_get(key(), "k1")
    assert store.omap_get(key(), "k2") == b"v2"


def test_footprint_accounting():
    store = ObjectStore()
    store.apply(
        Transaction()
        .write_full(key(), b"x" * 100)
        .setxattr(key(), "a", b"y" * 10)
        .omap_set(key(), {"k": b"z" * 5})
    )
    expected = PER_OBJECT_OVERHEAD + 100 + (1 + 10) + (1 + 5)
    assert store.used_bytes() == expected
    assert store.data_bytes() == 100


def test_keys_in_pg():
    store = ObjectStore()
    store.apply(Transaction().write_full(ObjectKey(1, 3, "a"), b"1"))
    store.apply(Transaction().write_full(ObjectKey(1, 4, "b"), b"2"))
    store.apply(Transaction().write_full(ObjectKey(2, 3, "c"), b"3"))
    assert store.keys_in_pg(1, 3) == [ObjectKey(1, 3, "a")]
    assert len(store) == 3


def test_io_bytes_costing():
    txn = (
        Transaction()
        .write_full(key(), b"x" * 100)
        .write(key(), 0, b"y" * 50)
        .setxattr(key(), "a", b"z" * 10)
        .remove(key())
    )
    assert txn.io_bytes == 100 + 50 + 10 + 64


def test_clone_is_deep():
    """A transaction applied to the clone is invisible to the original,
    and vice versa — though the two start out sharing one blob."""
    obj = StoredObject(data=b"abc", xattrs={"k": b"v"})
    theirs, mine = ObjectStore(), ObjectStore()
    theirs.put_object(key(), obj.clone())
    mine.put_object(key(), obj)
    assert theirs.get(key()).extents()[0][1] is obj.extents()[0][1]
    theirs.apply(Transaction().write(key(), 0, b"z").setxattr(key(), "k", b"w"))
    assert (obj.data, obj.xattrs["k"]) == (b"abc", b"v")
    mine.apply(Transaction().zero(key(), 1, 1).truncate(key(), 2))
    assert (obj.data, obj.allocated_bytes()) == (b"a\x00", 1)
    clone = theirs.get(key())
    assert (clone.data, clone.xattrs["k"]) == (b"zbc", b"w")
    assert clone.allocated_bytes() == 3


def test_corrupt_is_private_to_one_holder():
    """``corrupt`` flips a byte on one holder; the other holder of the
    same blob and bytes already handed out by ``read`` stay good, and
    the modelled footprint does not move."""
    a, b = ObjectStore(), ObjectStore()
    txn = Transaction().write_full(key(), b"payload").setxattr(key(), "k", b"v")
    a.apply(txn)
    b.apply(txn)
    assert a.read(key()) is b.read(key())  # one blob, two holders
    handed_out = a.read(key())
    used = a.used_bytes()
    a.get(key()).corrupt(3)
    assert a.read(key()) == b"pay" + bytes([ord("l") ^ 0xFF]) + b"oad"
    assert b.read(key()) == handed_out == b"payload"
    assert a.used_bytes() == used == b.used_bytes()
    a.get(key()).corrupt(3, mask=0x01)
    assert a.read(key())[3] == ord("l") ^ 0xFF ^ 0x01


def test_corrupt_needs_a_stored_byte():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"x" * 8).zero(key(), 2, 4))
    obj = store.get(key())
    for offset in (-1, 2, 5, 8):  # before, in the hole (both ends), past EOF
        with pytest.raises(ValueError):
            obj.corrupt(offset)
    obj.corrupt(6)
    assert store.read(key()) == b"xx\x00\x00\x00\x00" + bytes([ord("x") ^ 0xFF]) + b"x"


def test_whole_extent_read_is_the_blob_itself():
    """Zero-copy where it matters: the transaction's bytes are adopted,
    and a read of exactly one extent hands the same object back."""
    store = ObjectStore()
    first, second = b"a" * 4096, b"b" * 4096
    store.apply(Transaction().write(key(), 0, first).write(key(), 4096, second))
    assert store.read(key(), 0, 4096) is first
    assert store.read(key(), 4096, 4096) is second
    assert store.read(key(), 4096) is second
    assert store.read(key(), 1, 4096) == b"a" * 4095 + b"b"
    assert store.read(key()) == first + second
    assert store.get(key()).data == first + second
    assert store.read(key(), 9000, 10) == b""
    with pytest.raises(ValueError):
        store.read(key(), -1, 4)


def test_aligned_writes_never_reach_the_extent_bound(monkeypatch):
    """The e2e workloads write whole 4-128 KiB granules: replaying
    8 KiB-aligned writes and chunk-sized punches keeps every object
    inside the bound with the collapse disabled."""
    import random

    def no_collapse(self):
        raise AssertionError("collapse fired on aligned writes")

    monkeypatch.setattr(StoredObject, "_collapse", no_collapse)
    rng = random.Random(7)
    store = ObjectStore()
    granule, size = 8192, 64 * 8192
    for _ in range(2000):
        k = key(f"obj{rng.randrange(4)}")
        offset = rng.randrange(size // granule) * granule
        if rng.random() < 0.2:
            store.apply(Transaction().zero(k, offset, 4 * granule))
        else:
            store.apply(Transaction().write(k, offset, rng.randbytes(granule)))
    for k in store.keys():
        obj = store.get(k)
        assert len(obj.extents()) <= obj.size // EXTENT_GRAIN + EXTENT_SLACK


def test_shredding_writes_are_collapsed_to_the_bound():
    """Sub-4 KiB random writes cannot grow the extent map without
    limit; holes survive the collapse."""
    import random

    rng = random.Random(3)
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), bytes(32768)).zero(key(), 8192, 4096))
    shadow = bytearray(32768)
    for _ in range(500):
        offset = rng.choice([rng.randrange(0, 8192 - 64), rng.randrange(12288, 32768 - 64)])
        piece = rng.randbytes(rng.randrange(1, 64))
        store.apply(Transaction().write(key(), offset, piece))
        shadow[offset : offset + len(piece)] = piece
        obj = store.get(key())
        assert len(obj.extents()) <= obj.size // EXTENT_GRAIN + EXTENT_SLACK
    assert store.read(key()) == bytes(shadow)
    assert obj.allocated_bytes() == 32768 - 4096
    assert store.used_bytes() == PER_OBJECT_OVERHEAD + 32768 - 4096


def test_negative_offset_rejected():
    with pytest.raises(ValueError):
        Transaction().write(key(), -1, b"x")
    with pytest.raises(ValueError):
        Transaction().truncate(key(), -5)


def test_zero_punches_hole():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"x" * 100))
    store.apply(Transaction().zero(key(), 20, 30))
    assert store.read(key(), 20, 30) == b"\x00" * 30
    assert store.stat(key()) == 100  # length unchanged
    obj = store.get(key())
    assert obj.allocated_bytes() == 70
    assert store.used_bytes() == PER_OBJECT_OVERHEAD + 70


def test_write_into_hole_reallocates():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"x" * 100))
    store.apply(Transaction().zero(key(), 0, 50))
    store.apply(Transaction().write(key(), 10, b"y" * 20))
    obj = store.get(key())
    assert obj.allocated_bytes() == 70  # 50 + re-filled 20
    assert store.read(key(), 10, 20) == b"y" * 20
    assert store.read(key(), 0, 10) == b"\x00" * 10


def test_write_full_clears_holes():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"x" * 100))
    store.apply(Transaction().zero(key(), 0, 100))
    store.apply(Transaction().write_full(key(), b"z" * 40))
    assert store.get(key()).allocated_bytes() == 40


def test_zero_beyond_eof_clamped():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"x" * 10))
    store.apply(Transaction().zero(key(), 5, 100))
    assert store.get(key()).allocated_bytes() == 5
    assert store.stat(key()) == 10


def test_truncate_clips_holes():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"x" * 100))
    store.apply(Transaction().zero(key(), 50, 100))
    store.apply(Transaction().truncate(key(), 60))
    assert store.get(key()).allocated_bytes() == 50


def test_zero_invalid_range():
    with pytest.raises(ValueError):
        Transaction().zero(key(), -1, 5)


def test_clone_preserves_holes():
    store = ObjectStore()
    store.apply(Transaction().write_full(key(), b"x" * 100))
    store.apply(Transaction().zero(key(), 0, 40))
    clone = store.get(key()).clone()
    assert clone.allocated_bytes() == 60
