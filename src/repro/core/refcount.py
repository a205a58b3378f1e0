"""Reference-counting strategies (paper §4.6).

The consistency model tracks, per chunk object, every referencing
(pool, source object, offset).  Two strategies are provided:

* :class:`StrictRefcount` — the default: before re-pointing a chunk-map
  entry, the engine "sends old chunk object a de-reference message and
  waits for its completion" (§4.4.1 step 3).  Correct but synchronous:
  the object stays locked until the dereference lands (an engine
  worker hands that wait to a process of its own and moves on).
* :class:`FalsePositiveRefcount` — the §4.6 optimisation ("strictly
  locks on increment but no locking on decrement"): dereferences are
  queued in memory and return immediately; chunk objects may temporarily
  carry garbage references (false positives), which a separate GC pass
  resolves.
"""

from __future__ import annotations

from typing import List, Tuple

from .objects import ChunkRef
from .tier import DedupTier

__all__ = ["StrictRefcount", "FalsePositiveRefcount", "make_refcounter"]


class StrictRefcount:
    """Synchronous dereference; no garbage is ever left behind."""

    name = "strict"

    def __init__(self, tier: DedupTier):
        self.tier = tier

    @property
    def pending(self) -> int:
        """Queued (unprocessed) dereferences — always 0 for strict."""
        return 0

    def deref(self, chunk_id: str, ref: ChunkRef, via):
        """Process: drop the reference now and wait for completion."""
        yield from self.tier.release_refs([(chunk_id, ref)], via)

    def gc(self, via):
        """Process: nothing to collect under strict counting."""
        return
        yield  # pragma: no cover - makes this a generator


class FalsePositiveRefcount:
    """Deferred dereference: fast decrements, garbage collected later."""

    name = "false_positive"

    def __init__(self, tier: DedupTier):
        self.tier = tier
        self._queue: List[Tuple[str, ChunkRef]] = []
        #: Total dereferences resolved by GC.
        self.collected = 0

    @property
    def pending(self) -> int:
        """Dereferences queued for the next GC pass."""
        return len(self._queue)

    def deref(self, chunk_id: str, ref: ChunkRef, via):
        """Process: record the dereference and return immediately.

        The stale reference remains on the chunk object until
        :meth:`gc` runs — space is temporarily over-retained, never
        under-retained, so reads stay safe.
        """
        self._queue.append((chunk_id, ref))
        return
        yield  # pragma: no cover - makes this a generator

    def gc(self, via):
        """Process: apply all queued dereferences (the GC pass).

        The whole backlog goes through
        :meth:`~repro.core.tier.DedupTier.release_refs` — with batching
        enabled, one prepared transaction per placement group instead of
        one round trip per stale reference.
        """
        queue, self._queue = self._queue, []
        yield from self.tier.release_refs(queue, via)
        self.collected += len(queue)


def make_refcounter(tier: DedupTier):
    """Build the strategy selected by ``tier.config.refcount_mode``."""
    if tier.config.refcount_mode == "strict":
        return StrictRefcount(tier)
    return FalsePositiveRefcount(tier)
