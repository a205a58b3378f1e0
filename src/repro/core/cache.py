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
    """Hotness + LRU policy for cached chunks in the metadata pool.

    The books (what is cached, in LRU order) follow the committed maps:
    :meth:`note_committed`, run by the tier's map commit, is their one
    writer of cached state.  Only a delete (no map commit) and a
    demotion of an already uncached chunk remove entries themselves.
    """

    def __init__(self, sim: Simulator, config: DedupConfig):
        self.sim = sim
        self.config = config
        self.hitset = HitSet(
            sim, period=config.hitset_period, count=HITSET_COUNT
        )
        # (oid, chunk_index) -> cached bytes, least recently used first.
        self._cached: "OrderedDict[Tuple[str, int], int]" = OrderedDict()
        #: oid -> its cached chunk indices, in their relative ``_cached``
        #: order, so an access touches one object's chunks rather than
        #: scanning the whole tier.
        self._cached_by_oid: Dict[str, Dict[int, None]] = {}
        self.cached_bytes = 0
        #: Chunks put on the books and taken off them — by a write, a
        #: pass, a promotion or a demotion alike (the engine's
        #: ``chunks_promoted`` counts promotions).
        self.chunks_cached = 0
        self.chunks_uncached = 0

    # -- hotness ------------------------------------------------------------

    def record_access(self, oid: str) -> None:
        """Note a foreground access (read or write) to ``oid``."""
        self.hitset.record(oid)
        if self.config.cache_capacity_bytes is None:
            return  # no victims(), the one reader of the order kept below
        indices = self._cached_by_oid.get(oid)
        if not indices:
            return
        move_to_end = self._cached.move_to_end
        for index in indices:
            move_to_end((oid, index))

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

    def note_committed(self, oid: str, cmap, indices) -> None:
        """``oid``'s map ``cmap`` committed with ``indices`` touched: each
        such chunk caches the sum of its valid ranges (0: evicted); one
        whose cached bytes are unchanged keeps its LRU place."""
        cached = self._cached
        get = cmap.get
        for index in indices:
            nbytes = 0
            for start, end in get(index).valid:
                nbytes += end - start
            if nbytes != cached.get((oid, index), 0):
                if nbytes:
                    self.note_cached(oid, index, nbytes)
                else:
                    self.note_evicted(oid, index)

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
        self.chunks_cached += old == 0

    def note_evicted(self, oid: str, index: int) -> None:
        """A chunk was punched out of its metadata object."""
        old = self._cached.pop((oid, index), 0)
        indices = self._cached_by_oid.get(oid)
        if indices is not None:
            indices.pop(index, None)
            if not indices:
                del self._cached_by_oid[oid]
        if old:
            self.cached_bytes -= old
            self.chunks_uncached += 1

    def is_cached(self, oid: str, index: int) -> bool:
        """Whether chunk ``index`` of ``oid`` is on the books."""
        return (oid, index) in self._cached

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
        """(oid, chunk index) pairs to demote to fit the capacity,
        least recently used first."""
        cap = self.config.cache_capacity_bytes
        if cap is None:
            return []
        out = []
        excess = self.cached_bytes - cap
        for key, nbytes in self._cached.items():
            if excess <= 0:
                break
            out.append(key)
            excess -= nbytes
        return out
