"""LCK001 fixture: unsorted multi-acquire, a two-class cycle, and the
clean sorted counterpart.

Linted with a module override placing it under ``repro.core``.
"""


def unsorted_multi(self, chunk_ids):
    held = []
    try:
        for cid in chunk_ids:
            yield self.chunk_locks.acquire(cid, held)  # line 12: LCK001 (unsorted self-cycle)
        yield None
    finally:
        self.chunk_locks.release(held)


def take_object_then_chunk(self, oid, cid):
    outer = []
    try:
        yield self.object_locks.acquire(oid, outer)  # line 21: LCK001 (edge object -> chunk)
        inner = []
        try:
            yield self.chunk_locks.acquire(cid, inner)
            yield None
        finally:
            self.chunk_locks.release(inner)
    finally:
        self.object_locks.release(outer)


def take_chunk_then_object(self, oid, cid):
    outer = []
    try:
        yield self.chunk_locks.acquire(cid, outer)  # line 35: LCK001 (edge chunk -> object)
        inner = []
        try:
            yield self.object_locks.acquire(oid, inner)
            yield None
        finally:
            self.object_locks.release(inner)
    finally:
        self.chunk_locks.release(outer)


def sorted_multi(self, chunk_ids):
    # Clean: the loop iterates sorted(...) keys, so every task acquires
    # in the same global order.
    held = []
    try:
        for cid in sorted(chunk_ids):
            yield self.chunk_locks.acquire(cid, held)
        yield None
    finally:
        self.chunk_locks.release(held)
