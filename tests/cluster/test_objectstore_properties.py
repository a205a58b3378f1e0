"""Property-based tests: ObjectStore transactions vs a reference model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    PER_OBJECT_OVERHEAD,
    NoSuchObject,
    ObjectKey,
    ObjectStore,
    Transaction,
)

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
        st.binary(min_size=1, max_size=48),
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


@given(ops=st.lists(op_strategy, min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_transactions_match_reference_model(ops):
    store = ObjectStore()
    model = Model()
    for op, a, b in ops:
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
                continue
            txn.remove(KEY)
        elif op == "setxattr":
            txn.setxattr(KEY, a, b)
        elif op == "omap_set":
            txn.omap_set(KEY, {a: b})
        elif op == "create":
            txn.create(KEY)

        store.apply(txn)
        # Mirror on the model.
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

        # Invariants after every step.
        assert store.exists(KEY) == model.exists
        assert store.used_bytes() == model.footprint()
        if model.exists:
            assert store.read(KEY) == bytes(model.data)
            obj = store.get(KEY)
            assert obj.allocated_bytes() == len(model.allocated)
            assert obj.xattrs == model.xattrs
            assert obj.omap == model.omap
