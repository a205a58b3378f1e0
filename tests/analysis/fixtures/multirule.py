"""Multi-rule same-line fixture: LCK002 and FLT001 both fire on an
unguarded substrate submit under a write lock, and the report carries
each of them.

Linted with a module override placing it under ``repro.core``.
"""


def both_fire(self, key, txn, via):
    held = []
    try:
        yield self.write_locks.acquire(key, held)
        yield from self.cluster.submit(self.pool, key, txn, via)  # line 13
    finally:
        self.write_locks.release(held)

