"""Cache manager: HitSet-based hotness tracking and LRU chunk cache.

Paper §4.3 and §5: the cache manager decides whether a chunk stays
cached in the metadata object's data part.  Hotness comes from Ceph's
HitSet mechanism — a rotating ring of per-interval access sets (bloom
filters in memory) — and an object whose access count reaches
``hit_count_threshold`` is *hot*: it is served from the metadata pool
and the dedup engine leaves it alone until it cools down.  Hot means
*sustained* access: the counted periods must also span the elapsed time
they stand for (:meth:`CacheManager.is_hot`), so two accesses a moment
apart on either side of a rotation never count as two periods.

A simple LRU list (paper: "we used a LRU based approach, which is
simple") bounds the total cached bytes when a capacity is configured.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..sim import Simulator
from ..util import BloomFilter
from .config import DedupConfig

__all__ = ["HitSet", "CacheManager"]

#: Bloom filters in the HitSet ring, one per ``hitset_period``.
HITSET_COUNT = 8


class HitSet:
    """A rotating ring of per-period bloom filters of accessed objects.

    ``hit_count(oid)`` approximates "in how many of the last N periods
    was this object accessed" — the paper's per-object access count.
    ``first_access(oid)`` is when the object's current run of accesses
    began: a run ends after a whole ring (``period * count``) without an
    access, and so does its record, so the records stay bounded by the
    objects the ring remembers.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float = 1.0,
        count: int = 8,
        capacity: int = 4096,
        error_rate: float = 0.01,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.sim = sim
        self.period = period
        self.count = count
        self.capacity = capacity
        self.error_rate = error_rate
        self._ring: List[Tuple[float, BloomFilter]] = []
        #: oid -> [first, last] access time of its current run.
        self._runs: Dict[str, List[float]] = {}

    def _rotate(self, now: float) -> None:
        if not self._ring or now - self._ring[-1][0] >= self.period:
            self._ring.append((now, BloomFilter(self.capacity, self.error_rate)))
            if len(self._ring) > self.count:
                del self._ring[0 : len(self._ring) - self.count]
            horizon = now - self.period * self.count
            self._runs = {
                oid: run for oid, run in self._runs.items() if run[1] >= horizon
            }

    def record(self, oid: str) -> None:
        """Record one access to ``oid`` at the current simulated time."""
        now = self.sim.now
        self._rotate(now)
        self._ring[-1][1].add(oid)
        run = self._runs.get(oid)
        if run is None or run[1] < now - self.period * self.count:
            self._runs[oid] = [now, now]
        else:
            run[1] = now

    def first_access(self, oid: str) -> Optional[float]:
        """When ``oid``'s current run of accesses began (``None``: no
        access within the last ``period * count`` seconds)."""
        run = self._runs.get(oid)
        if run is None or run[1] < self.sim.now - self.period * self.count:
            return None
        return run[0]

    def hit_count(self, oid: str) -> int:
        """Number of recent periods in which ``oid`` was accessed."""
        ring = self._ring
        if not ring:
            return 0
        horizon = self.sim.now - self.period * self.count
        # Every filter of the ring has one geometry: hash the oid once.
        probes = ring[-1][1].probes(oid)
        hits = 0
        for start, bf in ring:
            if start >= horizon and bf.has_probes(probes):
                hits += 1
        return hits

    def memory_bytes(self) -> int:
        """In-memory footprint of the bloom filter ring."""
        return sum(bf.memory_bytes() for _start, bf in self._ring)


class CacheManager:
    """Hotness + LRU policy for cached chunks in the metadata pool."""

    def __init__(self, sim: Simulator, config: DedupConfig):
        self.sim = sim
        self.config = config
        self.hitset = HitSet(
            sim, period=config.hitset_period, count=HITSET_COUNT
        )
        # (oid, chunk_index) -> cached bytes; insertion order doubles as
        # the LRU/FIFO queue order.
        self._cached: "OrderedDict[Tuple[str, int], int]" = OrderedDict()
        #: oid -> its cached chunk indices, in their relative ``_cached``
        #: order, so an access touches one object's chunks rather than
        #: scanning the whole tier.
        self._cached_by_oid: Dict[str, Dict[int, None]] = {}
        #: (oid, chunk_index) -> access count, for the LFU policy.
        self._freq: Dict[Tuple[str, int], int] = {}
        self.cached_bytes = 0
        #: Counters for tests/metrics.
        self.promotions = 0
        self.demotions = 0

    # -- hotness ------------------------------------------------------------

    def record_access(self, oid: str) -> None:
        """Note a foreground access (read or write) to ``oid``."""
        self.hitset.record(oid)
        if self.config.cache_capacity_bytes is None:
            return  # no victims(), the one reader of the order kept below
        indices = self._cached_by_oid.get(oid)
        if not indices:
            return
        lru = self.config.cache_policy == "lru"
        for index in indices:
            k = (oid, index)
            self._freq[k] = self._freq.get(k, 0) + 1
            if lru:
                self._cached.move_to_end(k)

    def is_hot(self, oid: str) -> bool:
        """Paper §5: hot when the access count reaches Hitcount — and,
        for a count above one, the accesses are sustained: the object's
        first access of its run lies at least ``threshold - 1`` periods
        back.  Hits in ``n`` periods then stand for ``n - 1`` elapsed
        periods whatever the phase of the ring's rotations, so a burst
        that straddles a rotation is not hot, and a run that is made a
        little faster or slower keeps its verdict."""
        threshold = self.config.hit_count_threshold
        hitset = self.hitset
        if hitset.hit_count(oid) < threshold:
            return False
        if threshold == 1:
            return True
        first = hitset.first_access(oid)
        return first is not None and (
            self.sim.now - first >= (threshold - 1) * hitset.period
        )

    # -- cached-chunk bookkeeping ----------------------------------------------

    def note_cached(self, oid: str, index: int, nbytes: int) -> None:
        """A chunk's bytes now live in the metadata object (cached)."""
        key = (oid, index)
        old = self._cached.pop(key, 0)
        self.cached_bytes -= old
        self._cached[key] = nbytes
        # Pop + re-insert, as above: the chunk moves to the back of both.
        indices = self._cached_by_oid.setdefault(oid, {})
        indices.pop(index, None)
        indices[index] = None
        self.cached_bytes += nbytes
        self._freq[key] = self._freq.get(key, 0) + 1
        self.promotions += old == 0

    def note_evicted(self, oid: str, index: int) -> None:
        """A chunk was punched out of its metadata object."""
        old = self._cached.pop((oid, index), 0)
        self._freq.pop((oid, index), None)
        indices = self._cached_by_oid.get(oid)
        if indices is not None:
            indices.pop(index, None)
            if not indices:
                del self._cached_by_oid[oid]
        if old:
            self.cached_bytes -= old
            self.demotions += 1

    def unnote_promoted(self, oid: str, index: int) -> None:
        """Take back a promotion's :meth:`note_cached` whose map commit
        faulted: the chunk was not cached before, so it leaves the books
        as if it had never been noted."""
        demotions = self.demotions
        self.note_evicted(oid, index)
        if self.demotions != demotions:
            self.demotions = demotions
            self.promotions -= 1

    def keep_cached_on_flush(self, oid: str) -> bool:
        """Whether a just-deduplicated chunk should stay cached."""
        if not self.config.cache_on_flush:
            return False
        return self.is_hot(oid)

    def over_capacity(self) -> bool:
        """Whether cached bytes exceed the configured capacity."""
        cap = self.config.cache_capacity_bytes
        return cap is not None and self.cached_bytes > cap

    def victims(self) -> List[Tuple[str, int]]:
        """(oid, chunk index) pairs to demote to fit the capacity.

        Order depends on ``cache_policy``: least-recently-used (the
        paper's choice), least-frequently-used, or insertion order.
        """
        cap = self.config.cache_capacity_bytes
        if cap is None:
            return []
        if self.config.cache_policy == "lfu":
            candidates = sorted(
                self._cached.items(), key=lambda kv: self._freq.get(kv[0], 0)
            )
        else:  # lru and fifo both evict from the front of the queue
            candidates = list(self._cached.items())
        out = []
        excess = self.cached_bytes - cap
        for key, nbytes in candidates:
            if excess <= 0:
                break
            out.append(key)
            excess -= nbytes
        return out
