"""LCK002 fixture: I/O, retry entries, and blocking waits under locks.

Linted with a module override placing it under ``repro.core`` (which is
also FLT001's scope: the unguarded submit lines fire both rules).
"""


def io_under_write_lock(self, key, txn, via):
    held = []
    try:
        yield self.write_locks.acquire(key, held)
        yield from self.cluster.submit(self.pool, key, txn, via)  # line 12
    finally:
        self.write_locks.release(held)


def retry_under_write_lock(self, tier, key):
    held = []
    try:
        yield self.write_locks.acquire(key, held)
        result = yield from tier.retrying(lambda: key, op="noop")  # line 21
    finally:
        self.write_locks.release(held)
    return result


def throttle_under_chunk_lock(self, limiter, cid, nbytes):
    held = []
    try:
        yield self.chunk_locks.acquire(cid, held)
        yield from limiter.throttle(nbytes)  # line 31: blocking, any class
    finally:
        self.chunk_locks.release(held)


def retry_under_tier_lock(self, tier, oid):
    # Clean for LCK002: the tier deliberately retries its two-phase
    # commits under its own object/chunk locks (the paper's serialised
    # write path); only rados.write regions forbid retry entries.
    held = []
    try:
        yield self.object_locks.acquire(oid, held)
        result = yield from tier.retrying(lambda: oid, op="noop")
    finally:
        self.object_locks.release(held)
    return result
