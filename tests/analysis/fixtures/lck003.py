"""LCK003 fixture: leaked acquisitions vs properly released shapes.

Linted with a module override placing it under ``repro.core``.
"""


def bare_acquire(self, lock):
    yield lock.acquire()  # line 8: LCK003 (not a lock-table acquire)
    lock.release()


def acquire_before_try(self, key):
    held = []
    yield self.write_locks.acquire(key, held)  # line 14: LCK003 (outside the try)
    try:
        yield None
    finally:
        self.write_locks.release(held)


def multi_before_try(self, keys):
    held = []
    for key in sorted(keys):
        yield self.write_locks.acquire(key, held)  # line 24: LCK003 (mid-loop exit leaks)
    try:
        yield None
    finally:
        self.write_locks.release(held)


def released_through_another_table(self, key):
    held = []
    try:
        yield self.write_locks.acquire(key, held)  # line 34: LCK003 (wrong table)
        yield None
    finally:
        self.object_locks.release(held)


def guarded(self, key):
    held = []
    try:
        yield self.write_locks.acquire(key, held)
        yield None
    finally:
        self.write_locks.release(held)


def sorted_multi_guarded(self, keys):
    held = []
    try:
        for key in sorted(keys):
            yield self.write_locks.acquire(key, held)
        yield None
    finally:
        self.write_locks.release(held)


def shared_before_try(self, key):
    held = []
    yield self.write_locks.acquire(key, held, shared=True)  # line 61: LCK003 (outside the try)
    try:
        yield None
    finally:
        self.write_locks.release(held)


def shared_guarded(self, key, ec):
    held = []
    try:
        yield self.write_locks.acquire(key, held, shared=not ec)
        yield None
    finally:
        self.write_locks.release(held)


def mode_as_a_positional(self, key, ec):
    held = []
    try:
        yield self.write_locks.acquire(key, held, not ec)  # line 80: LCK003 (mode not named)
        yield None
    finally:
        self.write_locks.release(held)
