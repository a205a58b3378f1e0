"""Property-based tests: ObjectStore transactions vs a reference model."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import PER_OBJECT_OVERHEAD, NoSuchObject, ObjectKey, Transaction
from repro.cluster.objectstore import ObjectStore
from repro.cluster.objectstore import EXTENT_GRAIN, EXTENT_SLACK

KEY = ObjectKey(1, 0, "obj")


class Model:
    """Reference semantics: a byte buffer + hole set + dicts."""

    def __init__(self):
        self.exists = False
        self.data = bytearray()
        self.allocated = set()
        self.xattrs = {}
        self.omap = {}

    def footprint(self):
        """Brute-force recount of what ``used_bytes()`` maintains."""
        if not self.exists:
            return 0
        records = list(self.xattrs.items()) + list(self.omap.items())
        return (
            PER_OBJECT_OVERHEAD
            + len(self.allocated)
            + sum(len(name) + len(value) for name, value in records)
        )

    def write(self, offset, payload):
        self.exists = True
        old_len = len(self.data)
        end = offset + len(payload)
        if old_len < end:
            self.data.extend(b"\x00" * (end - old_len))
            # Extending allocates the zero gap and the new region; holes
            # inside the old extent stay holes.
            self.allocated |= set(range(old_len, end))
        self.data[offset:end] = payload
        self.allocated |= set(range(offset, end))

    def write_full(self, payload):
        self.exists = True
        self.data = bytearray(payload)
        self.allocated = set(range(len(payload)))

    def truncate(self, size):
        self.exists = True
        if size <= len(self.data):
            del self.data[size:]
        else:
            self.allocated |= set(range(len(self.data), size))
            self.data.extend(b"\x00" * (size - len(self.data)))
        self.allocated = {i for i in self.allocated if i < len(self.data)}

    def zero(self, offset, length):
        self.exists = True
        end = min(offset + length, len(self.data))
        for i in range(offset, end):
            self.data[i] = 0
            self.allocated.discard(i)

    def remove(self):
        self.exists = False
        self.data = bytearray()
        self.allocated = set()
        self.xattrs = {}
        self.omap = {}


op_strategy = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(min_value=0, max_value=64),
        st.binary(min_size=0, max_size=48),
    ),
    st.tuples(st.just("write_full"), st.binary(max_size=96), st.none()),
    st.tuples(
        st.just("truncate"), st.integers(min_value=0, max_value=96), st.none()
    ),
    st.tuples(
        st.just("zero"),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
    ),
    st.tuples(st.just("remove"), st.none(), st.none()),
    st.tuples(
        st.sampled_from(["setxattr", "omap_set"]),
        st.text(alphabet="abc", min_size=1, max_size=3),
        st.binary(max_size=8),
    ),
    st.tuples(st.just("create"), st.none(), st.none()),
)


def apply_both(store, model, op, a, b):
    """One op through a transaction on ``store``, mirrored on ``model``."""
    txn = Transaction()
    if op == "write":
        txn.write(KEY, a, b)
    elif op == "write_full":
        txn.write_full(KEY, a)
    elif op == "truncate":
        txn.truncate(KEY, a)
    elif op == "zero":
        txn.zero(KEY, a, b)
    elif op == "remove":
        if not model.exists:
            with pytest.raises(NoSuchObject):
                store.apply(txn.remove(KEY))
            return
        txn.remove(KEY)
    elif op == "setxattr":
        txn.setxattr(KEY, a, b)
    elif op == "omap_set":
        txn.omap_set(KEY, {a: b})
    elif op == "create":
        txn.create(KEY)

    store.apply(txn)
    if op == "write":
        model.write(a, b)
    elif op == "write_full":
        model.write_full(a)
    elif op == "truncate":
        model.truncate(a)
    elif op == "zero":
        model.zero(a, b)
    elif op == "remove":
        model.remove()
    elif op == "setxattr":
        model.exists = True
        model.xattrs[a] = b
    elif op == "omap_set":
        model.exists = True
        model.omap[a] = b
    elif op == "create":
        model.exists = True


def check(store, model):
    """The store equals the model: bytes, space accounting, metadata."""
    assert store.exists(KEY) == model.exists
    assert store.used_bytes() == model.footprint()
    assert store.data_bytes() == len(model.allocated)
    if not model.exists:
        return
    obj = store.get(KEY)
    assert store.read(KEY) == obj.data == bytes(model.data)
    assert store.stat(KEY) == obj.size == len(model.data)
    assert obj.allocated_bytes() == len(model.allocated)
    assert obj.footprint() == model.footprint()
    assert obj.xattrs == model.xattrs
    assert obj.omap == model.omap
    # The extent map itself: sorted, disjoint, non-empty, inside the
    # payload, bounded — and exactly the model's allocated set.
    covered = set()
    stop = 0
    for start, blob in obj.extents():
        assert type(blob) is bytes and blob
        assert stop <= start
        stop = start + len(blob)
        covered.update(range(start, stop))
    assert stop <= obj.size
    assert covered == model.allocated
    extents = obj.extents()
    assert len(extents) <= obj.size // EXTENT_GRAIN + EXTENT_SLACK or all(
        start + len(blob) < after  # past the line: one extent per run
        for (start, blob), (after, _) in zip(extents, extents[1:])
    )


@given(ops=st.lists(op_strategy, min_size=1, max_size=30))
# A truncate that extends by a zero extent must respect the extent
# bound like a write does (1-byte extents shredded by tiny writes, then
# one more appended by the truncate).
@example(ops=[
    ("write_full", b"\x00" * 7, None), ("write", 3, b"\x00"), ("write", 5, b"\x00"),
    ("truncate", 8, None), ("write", 1, b"\x00"), ("truncate", 9, None),
])
@settings(max_examples=150, deadline=None)
def test_transactions_match_reference_model(ops):
    store = ObjectStore()
    model = Model()
    for op, a, b in ops:
        apply_both(store, model, op, a, b)
        check(store, model)


@given(
    ops=st.lists(op_strategy, min_size=1, max_size=30),
    reads=st.lists(
        st.tuples(st.integers(0, 100), st.one_of(st.none(), st.integers(0, 100))),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=100, deadline=None)
def test_ranged_reads_match_reference_model(ops, reads):
    """Every (offset, length) — inside one extent, across extents and
    holes, past EOF — reads what a flat buffer would."""
    store = ObjectStore()
    model = Model()
    for op, a, b in ops:
        apply_both(store, model, op, a, b)
    if model.exists:
        flat = bytes(model.data)
        for offset, length in reads:
            want = flat[offset:] if length is None else flat[offset : offset + length]
            assert store.read(KEY, offset, length) == want


def test_space_accounting_at_the_edges():
    """The cases the extent map could get wrong, pinned one by one."""
    store = ObjectStore()
    model = Model()
    steps = [
        ("write_full", b"a" * 32, None),
        ("zero", 8, 8),  # punch a hole ...
        ("write", 10, b"bb"),  # ... and write into the middle of it
        ("write", 40, b"cc"),  # past EOF: the gap is allocated zeros
        ("write", 50, b""),  # zero-length past EOF still extends
        ("zero", 45, 100),  # zero running past EOF is clipped to it
        ("zero", 60, 4),  # zero wholly past EOF: nothing
        ("truncate", 64, None),  # up: allocated zeros
        ("truncate", 9, None),  # down, into the hole
        ("truncate", 12, None),  # and up again from inside it
        ("write", 0, b""),  # zero-length in place: nothing
    ]
    for op, a, b in steps:
        apply_both(store, model, op, a, b)
        check(store, model)
    assert store.read(KEY) == b"a" * 8 + bytes(4)
    assert store.get(KEY).allocated_bytes() == 8 + 3


store_ops = st.one_of(
    st.tuples(st.just("all"), op_strategy),
    st.tuples(st.just("one"), st.integers(0, 2), op_strategy),
    st.tuples(st.just("corrupt"), st.integers(0, 2), st.integers(0, 95)),
)


@given(steps=st.lists(store_ops, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_holders_that_share_blobs_diverge_independently(steps):
    """Three stores commit one transaction stream — so they alias the
    same blobs — with occasional transactions and corruptions on one
    store only.  Each store keeps equalling its own model, and no bytes
    ever handed out by ``read`` change afterwards."""
    stores = [ObjectStore() for _ in range(3)]
    models = [Model() for _ in range(3)]
    handed_out = []  # (the bytes object, a private copy of its content)
    for step in steps:
        if step[0] == "all":
            op, a, b = step[1]
            targets = range(3)
        elif step[0] == "one":
            op, a, b = step[2]
            targets = [step[1]]
        else:
            _, which, offset = step
            obj = stores[which].get(KEY) if models[which].exists else None
            if obj is not None and offset in models[which].allocated:
                used = stores[which].used_bytes()
                obj.corrupt(offset)
                models[which].data[offset] ^= 0xFF
                assert stores[which].used_bytes() == used
            elif obj is not None:
                with pytest.raises(ValueError):
                    obj.corrupt(offset)
            targets = []
        for i in targets:
            apply_both(stores[i], models[i], op, a, b)
        for store, model in zip(stores, models):
            check(store, model)
            if model.exists:
                got = store.read(KEY)
                handed_out.append((got, bytes(bytearray(got))))
        for got, snapshot in handed_out:
            assert got == snapshot
