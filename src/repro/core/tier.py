"""The deduplication tier: pools, chunk-map I/O, and chunk-pool ops.

This wires the paper's §4 design onto the storage substrate:

* a **metadata pool** holding metadata objects (user-visible IDs, chunk
  maps in xattrs, cached chunks in the data part) and
* a **chunk pool** holding content-addressed chunk objects (double
  hashing: the chunk's fingerprint is its object ID, so the cluster's
  placement hash *is* the fingerprint index).

Pool-based object management (§4.2): each pool picks its own redundancy
scheme, so e.g. a replicated metadata pool can front an erasure-coded
chunk pool.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..chunking import StaticChunker
from ..compression import ZlibCodec
from ..cluster import (
    NotEnoughReplicas,
    ObjectKey,
    PER_OBJECT_OVERHEAD,
    Pool,
    RadosCluster,
    Replicated,
    Transaction,
)
from ..faults.retry import RetryPolicy, RetryStats, call_with_retries
from ..sim import Event, LockTable
from .config import DedupConfig
from .cache import CacheManager
from .objects import (
    CHUNK_MAP_XATTR,
    MAP_OMAP_PREFIX,
    REFS_XATTR,
    ChunkMap,
    ChunkRef,
    RefSet,
    decode_stored_map,
    stored_dirty_count,
)
from .rate_control import OpWindow, RateController

__all__ = [
    "ChunkBatch",
    "DedupTier",
    "SpaceReport",
    "StageCounters",
    "CHUNK_ENCODING_XATTR",
]

#: xattr on chunk objects recording the payload encoding ("raw"/"zlib").
CHUNK_ENCODING_XATTR = "dedup.encoding"
#: Decoded chunk maps the tier keeps in its LRU in front of
#: ``load_chunk_map``.
MAP_CACHE_ENTRIES = 256


@dataclass
class StageCounters:
    """Always-on counters for the dedup hot path, by stage.

    One per :class:`DedupTier` (``tier.stage``), bumped inline by the
    tier, the engine and the read path.  Plain ints/floats, cheap enough
    to stay on; :func:`repro.obs.storage_metrics` and ``benchmarks/e2e``
    read them through :meth:`snapshot`.
    """

    # -- chunking: dirty chunk assembly ---------------------------------
    chunking_ops: int = 0
    chunking_bytes: int = 0

    # -- fingerprint ----------------------------------------------------
    fingerprint_ops: int = 0
    fingerprint_bytes: int = 0
    #: Wall-clock seconds inside the hash call (synchronous, so this is
    #: real host time, not simulated time).
    fingerprint_seconds: float = 0.0

    # -- ref: chunk-pool reference traffic ------------------------------
    #: Logical reference mutations (each ref or deref counts once).
    ref_ops: int = 0
    #: Prepared transactions those mutations cost (round trips), as the
    #: submit made them: one per placement group of a batch on a
    #: replicated chunk pool, one per chunk object on an EC one.
    ref_commits: int = 0
    #: Batched commits (each covers >= 1 ref_ops).
    ref_batches: int = 0

    # -- map: chunk-map codec traffic -----------------------------------
    #: ``load_chunk_map`` calls served from the decoded-map LRU (no
    #: disk read, no deserialize).
    map_cache_hits: int = 0
    map_cache_misses: int = 0
    #: Cache entries dropped by explicit invalidation (faulted commits,
    #: deletes, PG convergence) — LRU evictions not included.
    map_cache_invalidations: int = 0
    #: Chunk-map entries actually serialised by commits vs. the entries
    #: the committed maps held in total.  Incremental (v2) commits keep
    #: the first well below the second on small-I/O workloads.
    map_entries_serialized: int = 0
    map_entries_total: int = 0
    #: Bytes of map metadata written by commits (headers + entries).
    map_bytes_serialized: int = 0
    #: Map commits (all in the incremental v2 format).
    map_commits_incremental: int = 0

    # -- read path: cache and fan-out -----------------------------------
    #: Chunk segments served from the metadata-pool cache vs redirected
    #: to the chunk pool.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Chunk-object fetches the read path issued to the pool (same-chunk
    #: pieces merged).
    fanout_chunk_reads: int = 0

    # -- read path anomalies --------------------------------------------
    #: Chunk segments that came back short from the substrate and were
    #: zero-padded to the expected length (see ``io_path._read_once``).
    read_short_segments: int = 0

    # -- flush: new chunk payloads --------------------------------------
    flush_ops: int = 0
    flush_bytes: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy (JSON-ready)."""
        return asdict(self)


class ChunkBatch:
    """Chunk-pool reference work accumulated by one dedup pass.

    Instead of paying one serialized round trip per refcount update, the
    engine records every ``ref``/``deref`` of a pass here and commits
    them all at once through :meth:`DedupTier.commit_chunk_batch`, which
    collapses the work into one prepared transaction per placement
    group (see :meth:`~repro.cluster.RadosCluster.submit_batch`).
    """

    def __init__(self):
        #: Ordered ops: ``("ref", chunk_id, ref, data, nbytes)`` or
        #: ``("deref", chunk_id, ref)``.
        self.ops: List[Tuple] = []

    def ref(
        self, chunk_id: str, ref: ChunkRef, data: Optional[bytes], nbytes: int = 0
    ) -> None:
        """Record a store-or-reference of ``chunk_id`` by ``ref``.

        ``data`` is the chunk payload, used only if the commit finds no
        object at the content-derived location (first reference) — or
        ``None``, when the caller found the chunk stored and kept no
        bytes: should the chunk be gone by the commit, the commit reads
        its ``nbytes`` from ``ref``'s cached copy, which the caller keeps
        (under its object lock) until the commit returns.
        """
        self.ops.append(("ref", chunk_id, ref, data, nbytes))

    def deref(self, chunk_id: str, ref: ChunkRef) -> None:
        """Record dropping ``ref``'s reference to ``chunk_id``."""
        self.ops.append(("deref", chunk_id, ref))

    def chunk_ids(self) -> List[str]:
        """Distinct chunk object IDs this batch touches (sorted)."""
        return sorted({op[1] for op in self.ops})

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)


@dataclass
class SpaceReport:
    """Space accounting for the dedup tier (drives Table 2 / Fig 12-e).

    ``ideal_dedup_ratio`` considers data only; ``actual_dedup_ratio``
    charges the dedup metadata too (chunk maps at 150 B/entry, reference
    records at 64 B, and the fixed per-object overhead) — the paper's
    distinction in Table 2.
    """

    logical_bytes: int = 0
    chunk_data_bytes: int = 0
    cached_data_bytes: int = 0
    metadata_bytes: int = 0
    raw_used_bytes: int = 0
    chunk_objects: int = 0
    metadata_objects: int = 0

    @property
    def stored_bytes(self) -> int:
        """Data + metadata, each object counted once (no redundancy)."""
        return self.chunk_data_bytes + self.cached_data_bytes + self.metadata_bytes

    @property
    def ideal_dedup_ratio(self) -> float:
        """1 - unique data / logical data (valid after a full drain)."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - self.chunk_data_bytes / self.logical_bytes

    @property
    def actual_dedup_ratio(self) -> float:
        """1 - (stored data + metadata) / logical data."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - self.stored_bytes / self.logical_bytes


class DedupTier:
    """State and helper operations shared by the I/O paths and engine.

    Chunk maps move through here by one protocol: :meth:`load_chunk_map`
    hands every caller its own fork of a shared immutable snapshot (the
    decoded-map cache holds committed snapshots only), the caller
    replaces rows of its fork with ``ChunkMap.set``, and
    :meth:`commit_map` commits it: on success a fork of it becomes the
    next snapshot, on failure the cached decode is dropped.  The map's
    version lives in its stored header, not here.

    A foreground write commits after releasing its object lock, so the
    tier keeps a *write line* per object with a write in flight
    (:meth:`join_write_line`): the next write builds on the map the last
    one will commit, and commits after it.  Every other user of the
    object lock waits for the line to empty (:meth:`writes_landed`).
    """

    def __init__(
        self,
        cluster: RadosCluster,
        config: Optional[DedupConfig] = None,
        metadata_redundancy=None,
        chunk_redundancy=None,
        metadata_pool_name: str = "dedup-metadata",
        chunk_pool_name: str = "dedup-chunks",
    ):
        self.cluster = cluster
        #: The cluster's simulator.
        self.sim = cluster.sim
        self.config = config if config is not None else DedupConfig()
        self.metadata_pool: Pool = cluster.create_pool(
            metadata_pool_name,
            metadata_redundancy if metadata_redundancy is not None else Replicated(2),
        )
        self.chunk_pool: Pool = cluster.create_pool(
            chunk_pool_name,
            chunk_redundancy if chunk_redundancy is not None else Replicated(2),
        )
        self.chunker = StaticChunker(self.config.chunk_size)
        self.codec = ZlibCodec()
        self.cache = CacheManager(cluster.sim, self.config)
        self.fg_window = OpWindow(cluster.sim)
        self.rate = RateController(cluster.sim, self.fg_window, self.config)
        #: Retry/backoff plumbing for transient substrate faults; every
        #: I/O-path and engine op funnels through :meth:`retrying`, which
        #: reads this attribute on every call (so it can be swapped).
        self.retry_policy = RetryPolicy()
        self.retry_stats = RetryStats()
        # Dirty object ID list (paper Figure 8), in one bucket per
        # metadata PG: metadata PG -> its dirty oids, both in the order
        # they were first logged.  A bucket exists only while it holds
        # an oid, so an engine pass pops a whole PG in O(its size).
        # In-memory, rebuildable from the dirty bits persisted in every
        # chunk map.
        self._dirty_pgs: "OrderedDict[int, Dict[str, None]]" = OrderedDict()
        self._dirty_total = 0
        # Delayed requeues already scheduled but not yet fired: a second
        # requeue (or a fired one racing a foreground mark_dirty) must
        # not enqueue the oid twice.
        self._pending_requeues: Set[str] = set()
        #: Per-chunk-object locks serialising reference read-modify-write.
        self.chunk_locks = LockTable(cluster.sim, "tier.chunk:{}", 1)
        #: Per-metadata-object locks serialising every mutation of one
        #: object: foreground writes (each until it has its place in the
        #: write line) and deletes, dedup passes (two engine workers, or
        #: flush-on-write racing the engine), promotion/demotion and GC.
        self.object_locks = LockTable(cluster.sim, "tier.object:{}", 0)
        #: References left for the GC (``DedupEngine.deref_queue``): kept
        #: here, beside the locks the GC takes, so that the offline
        #: repair (:func:`~repro.core.scrub.collect_garbage`) takes off
        #: the queue the pairs it has checked.
        self.deref_queue: List[Tuple[str, ChunkRef]] = []
        # The write line: oid -> [projected map, outcome, chain] for each
        # object with a write in flight past its object lock, and only
        # while it has one.  The projected map is the map the last write
        # in line commits (version one past, touched rows cleared); its
        # outcome event succeeds with whether that write committed; the
        # chain is the first outcome of the run of writes built on one
        # another, so a failure drops only its own run's entry.
        self._write_line: Dict[str, list] = {}
        #: Hot-path stage counters (chunking/fingerprint/ref/flush);
        #: always on, bumped inline.
        self.stage = StageCounters()
        # LRU of decoded ChunkMaps in front of load_chunk_map: oid ->
        # committed snapshot.  Snapshots are immutable and every load
        # hands out a fork (ChunkMap.copy — a new index over the same
        # entries), so a caller replacing rows of its map across yields
        # can never pollute what concurrent readers see.  A hit is "an
        # entry exists": commit_map replaces the entry and every
        # invalidation pops it.
        self._map_cache: "OrderedDict[str, ChunkMap]" = OrderedDict()
        # Fences of the misses in flight: oid -> [misses parked on their
        # disk read, marks].  A commit or invalidation of the oid marks
        # it, and a miss installs its decode only if no mark landed
        # during its read — so a stale decode never re-enters the cache,
        # even after the fresh entry was evicted or the object deleted
        # and recreated.  An entry lives only while a miss on its oid is
        # in flight.
        self._map_fences: Dict[str, List[int]] = {}
        # PG convergence (repro.cluster.converge) can rewrite metadata
        # objects underneath the tier (restoring an older committed
        # state); every run notifies the cluster's repair listeners, and
        # the tier answers by dropping every decoded map.
        cluster.add_repair_listener(self._on_cluster_repair)
        #: Hook invoked (with the oid) when a read finds a hot object
        #: whose chunks are not cached; the facade wires it to the
        #: engine's promotion path (§5: hot objects are cached into the
        #: metadata pool).
        self.on_hot_read = None

    def retrying(self, factory, op: str = "op"):
        """Process: run ``factory()`` under the tier's retry policy.

        ``factory`` must build a *fresh* op generator per call (each
        attempt needs its own); see
        :func:`repro.faults.retry.call_with_retries`.
        """
        return call_with_retries(
            self.sim, self.retry_policy, factory, self.retry_stats, op=op
        )

    # -- dirty object ID list -------------------------------------------------

    def mark_dirty(self, oid: str) -> None:
        """Log ``oid`` for background deduplication."""
        pg = self.metadata_pool.pg_of(oid)
        bucket = self._dirty_pgs.get(pg)
        if bucket is None:
            bucket = self._dirty_pgs[pg] = {}
        if oid not in bucket:
            bucket[oid] = None
            self._dirty_total += 1

    def next_dirty_group(self, pgs=None) -> List[str]:
        """Pop the dirty objects of the metadata PG logged first — with
        ``pgs`` (one OSD's PGs from :meth:`dirty_pgs_by_primary`), of the
        first of ``pgs`` still dirty, taking it and those before it off
        ``pgs`` — in the order they were logged (an engine pass's group);
        ``[]`` when there is none."""
        if pgs is None:
            if not self._dirty_pgs:
                return []
            group = list(self._dirty_pgs.popitem(last=False)[1])
        else:
            while pgs:
                bucket = self._dirty_pgs.pop(pgs.popleft(), None)
                if bucket is not None:
                    break
            else:
                return []
            group = list(bucket)
        self._dirty_total -= len(group)
        return group

    def dirty_primary(self, pg: int, bucket):
        """The OSD a pass over dirty PG ``pg`` (its ``bucket`` of oids)
        runs on: the primary of its first oid, as the pass finds it;
        ``None`` while no acting OSD of ``pg`` is up."""
        try:
            return self.cluster.primary(self.metadata_pool, next(iter(bucket)), pg)
        except NotEnoughReplicas:
            return None

    def dirty_pgs_by_primary(self) -> dict:
        """Every dirty metadata PG under its :meth:`dirty_primary`, worked
        out once: ``{OSD or None: deque of PGs}``, each deque and the
        OSDs in the order the PGs were logged."""
        by_primary: dict = {}
        for pg, bucket in self._dirty_pgs.items():
            osd = self.dirty_primary(pg, bucket)
            pgs = by_primary.get(osd)
            if pgs is None:
                pgs = by_primary[osd] = deque()
            pgs.append(pg)
        return by_primary

    def requeue_dirty(self, oid: str, delay: float = 0.0) -> None:
        """Put ``oid`` back on the dirty list, optionally after a delay.

        Deduplicated: an oid already on the list, or with a delayed
        requeue still pending, is not enqueued again — a retryable
        engine abort can otherwise requeue the same object from both
        the pass's fault handler and the worker loop's, and the second
        firing would re-add (and re-process) an oid the engine already
        drained.
        """
        if delay > 0:
            if oid in self._pending_requeues or oid in self._dirty_pgs.get(
                self.metadata_pool.pg_of(oid), ()
            ):
                return
            self._pending_requeues.add(oid)
            self.sim.call_later(delay, self._fire_requeue, oid)
        else:
            self.mark_dirty(oid)

    def _fire_requeue(self, oid: str) -> None:
        self._pending_requeues.discard(oid)
        self.mark_dirty(oid)

    @property
    def dirty_count(self) -> int:
        """Objects currently on the dirty list."""
        return self._dirty_total

    @property
    def dirty_pg_count(self) -> int:
        """Metadata PGs with an object on the dirty list: how many
        engine passes the list makes at most at once."""
        return len(self._dirty_pgs)

    def rebuild_dirty_list(self) -> int:
        """Recover the dirty list by scanning persisted chunk maps.

        The list itself is volatile; the authoritative dirty state is
        the per-entry dirty bit inside every (replicated) chunk map, so
        a restart can always reconstruct it.  Returns the number of
        dirty objects found.
        """
        self._dirty_pgs.clear()
        self._dirty_total = 0
        for oid in self.cluster.list_objects(self.metadata_pool):
            if self.peek_dirty_count(oid):
                self.mark_dirty(oid)
        return self.dirty_count

    # -- chunk map I/O -------------------------------------------------------

    def metadata_key(self, oid: str) -> ObjectKey:
        """Fully qualified key of a metadata object."""
        return self.cluster.object_key(self.metadata_pool, oid)

    def _peek_stored_map(self, oid: str) -> Optional[Tuple[bytes, Dict[str, bytes]]]:
        """The stored chunk map of ``oid`` as ``(header xattr, omap)``,
        still packed and without charging simulated time."""
        found = self.cluster.peek(self.metadata_pool, oid)
        if found is None:
            return None
        obj = found[1]
        blob = obj.xattrs.get(CHUNK_MAP_XATTR)
        return (blob, obj.omap) if blob else None

    def peek_chunk_map(self, oid: str) -> Optional[ChunkMap]:
        """Read the chunk map without charging simulated time (tests,
        accounting, scrub)."""
        stored = self._peek_stored_map(oid)
        return decode_stored_map(*stored) if stored else None

    def peek_dirty_count(self, oid: str) -> int:
        """Dirty chunks of ``oid`` per its stored map (0 for an unknown
        object), without decoding the map or charging simulated time."""
        stored = self._peek_stored_map(oid)
        return stored_dirty_count(*stored) if stored else 0

    # -- decoded-map cache ----------------------------------------------------

    def _cache_map(self, oid: str, cmap: ChunkMap) -> None:
        cache = self._map_cache
        cache[oid] = cmap
        cache.move_to_end(oid)
        while len(cache) > MAP_CACHE_ENTRIES:
            cache.popitem(last=False)

    def _fence(self, oid: str) -> None:
        """Mark the fence of ``oid``'s misses in flight, if any."""
        fence = self._map_fences.get(oid)
        if fence is not None:
            fence[1] += 1

    def invalidate_map_cache(self, oid: Optional[str] = None) -> None:
        """Drop decoded maps (one object, or all when ``None``).

        Owners: faulted commits (:meth:`commit_map`: the commit may have
        partially landed), deletes, and PG convergence (through the
        cluster's repair listeners).  Marking the fences too — not just
        popping the cache entry — keeps a stale decode still held by an
        in-flight miss from being installed later.
        """
        if oid is None:
            self.stage.map_cache_invalidations += len(self._map_cache)
            self._map_cache.clear()
            for fence in self._map_fences.values():
                fence[1] += 1
        else:
            if self._map_cache.pop(oid, None) is not None:
                self.stage.map_cache_invalidations += 1
            self._fence(oid)

    def _on_cluster_repair(self) -> None:
        # Recovery / rebalance rewrote objects under us: every cached
        # decoded map is suspect.
        self.invalidate_map_cache()

    def load_chunk_map(self, oid: str):
        """Process: fetch the chunk map at the object's first holder
        (:meth:`~repro.cluster.RadosCluster.peek`).

        The lookup happens server-side as part of whatever operation
        carries it (the map lives in the object's own metadata), so the
        cost is a small primary disk read — no extra network round trip.
        On the common path the decoded-map cache serves the map without
        touching the disk at all.  Returns ``None`` for an unknown
        object.

        The returned ChunkMap is the caller's own *fork* of the shared
        immutable snapshot (hit or miss): the same entry objects under a
        private index, at the cost of one dict copy however many chunks
        the object holds.  Readers get a consistent committed snapshot
        even while a lock-holding writer replaces rows of its fork
        across yields, and a caller that changed its fork either commits
        it (:meth:`commit_map`) or drops it — the cache itself only ever
        holds committed snapshots.
        """
        cached = self._map_cache.get(oid)
        if cached is not None:
            self._map_cache.move_to_end(oid)
            self.stage.map_cache_hits += 1
            return cached.copy()
        found = self.cluster.peek(self.metadata_pool, oid)
        if found is None:
            return None
        primary, obj = found
        blob = obj.xattrs.get(CHUNK_MAP_XATTR)
        if blob is None:
            return None
        # Snapshot everything the decode needs *before* the disk
        # yield: a lock-holding writer may commit while this process
        # is parked on the read, replacing the header xattr and the
        # omap records under us — decoding a mix of old header and
        # new records raises (the entry-count check) or yields a
        # torn map.
        omap_records = {
            k: v for k, v in obj.omap.items() if k.startswith(MAP_OMAP_PREFIX)
        }
        nbytes = len(blob) + sum(map(len, omap_records.values()))
        fence = self._map_fences.get(oid)
        if fence is None:
            fence = self._map_fences[oid] = [0, 0]
        fence[0] += 1
        marks = fence[1]
        try:
            yield from primary.disk.read(nbytes)
        finally:
            fence[0] -= 1
            if not fence[0]:
                del self._map_fences[oid]
        self.stage.map_cache_misses += 1
        cmap = decode_stored_map(blob, omap_records)
        # Install only when nothing committed or invalidated the object
        # during the yield.  The decode itself is still returned: it is
        # a consistent snapshot of the pre-yield committed map.
        if fence[1] == marks:
            self._cache_map(oid, cmap.copy())
        return cmap

    # -- the write line ----------------------------------------------------------

    def write_line_tip(self, oid: str):
        """``(map, after)`` for a write of ``oid`` built under its object
        lock: the caller's fork of the projected map of the last write in
        line and that write's outcome event, or ``(None, None)`` when no
        write is in flight (the caller loads the committed map)."""
        tip = self._write_line.get(oid)
        if tip is None:
            return None, None
        return tip[0].copy(), tip[1]

    def join_write_line(self, oid: str, cmap: ChunkMap, after: Optional[Event]):
        """Put a write of ``oid`` built as ``cmap`` on ``after`` (from
        :meth:`write_line_tip`) at the end of the line, under the object
        lock, just before the caller releases it to commit.  Returns its
        place, for :meth:`leave_write_line` or
        :meth:`abandon_write_line`."""
        projected = cmap.copy()
        projected.version += 1
        projected.clear_touched()
        outcome = Event(self.sim)
        # The write built on may have resolved (and left) meanwhile: a
        # pre-read yields under the lock.
        tip = self._write_line.get(oid)
        chain = outcome if tip is None else tip[2]
        self._write_line[oid] = [projected, outcome, chain]
        return outcome, chain, after

    def leave_write_line(self, oid: str, place) -> None:
        """A write in line committed: its entry goes if it is still the
        last in line, and the writes built on it may commit."""
        outcome = place[0]
        tip = self._write_line.get(oid)
        if tip is not None and tip[1] is outcome:
            del self._write_line[oid]
        outcome.succeed(True)

    def abandon_write_line(self, oid: str, place) -> None:
        """A write in line failed.  Once the write it was built on has
        resolved — so the line resolves in order — the entry goes if it
        still belongs to this write's chain (later writes then build
        from the committed map), and the writes built on this one fail
        at their commit point.  It does not yield, so an interrupt of
        the failed attempt (its deadline) cannot cut it short: the
        resolution waits on a callback instead."""
        outcome, chain, after = place

        def resolve(_=None):
            tip = self._write_line.get(oid)
            if tip is not None and tip[2] is chain:
                del self._write_line[oid]
            outcome.succeed(False)

        if after is None or after.triggered:
            resolve()
        else:
            after.subscribe(resolve)

    def writes_landed(self, oid: str):
        """Process: wait until ``oid`` has no write in flight.

        Every exclusive user of the object lock — an engine pass, a
        delete, promotion, demotion, GC — calls it right after taking
        the lock: no write can join the line while the lock is held, and
        the last write resolves only after every write ahead of it."""
        tip = self._write_line.get(oid)
        if tip is not None:
            yield tip[1]

    # A commit primitive: a fault drops the cached decodes and propagates
    # to the caller's retry scope, which retries, requeues or gives up.
    def commit_map(self, maps, client=None, sent=None, after=None):
        """Process: commit each ``(oid, cmap, txn)`` of ``maps`` — ``cmap``
        as ``oid``'s chunk map, with ``txn`` — in one submit.

        The one way a chunk map is committed.  Appends to each ``txn``
        the small header xattr (entry count, and the version one past
        ``cmap``'s) plus one omap record per *touched* entry — a 1-chunk
        update serialises one 150-byte record instead of the whole map;
        a new map has every entry touched.  One map goes to the metadata
        pool through :meth:`RadosCluster.submit` (``sent`` and ``after``
        as it takes them); several — an engine pass over one PG's dirty objects — go
        through one :meth:`RadosCluster.submit_batch`: one prepared
        transaction per PG, all-or-nothing.  On success each ``cmap``
        takes its new version, its touched entries go on the cache
        books (:meth:`CacheManager.note_committed`, their one writer)
        and a fork of it becomes the cached snapshot; on a fault, which may have partially landed, every
        cached decode of ``maps`` is dropped and the fault re-raised.
        Each ``cmap`` keeps its touched entries then, so a retry commits
        the same records.  The caller yields its own reply.
        """
        stage = self.stage
        items = []
        touched = []
        for oid, cmap, txn in maps:
            key = self.metadata_key(oid)
            header = cmap.serialize_header_v2(cmap.version + 1)
            touched.append(cmap.touched_indices())
            entries = cmap.omap_entries(touched[-1])
            txn.setxattr(key, CHUNK_MAP_XATTR, header)
            if entries:
                txn.omap_set(key, entries)
            stage.map_commits_incremental += 1
            stage.map_entries_serialized += len(entries)
            stage.map_bytes_serialized += len(header) + sum(map(len, entries.values()))
            stage.map_entries_total += len(cmap)
            items.append((oid, txn))
        try:
            if len(items) == 1:
                oid, txn = items[0]
                yield from self.cluster.submit(
                    self.metadata_pool, oid, txn, client, sent, after
                )
            else:
                yield from self.cluster.submit_batch(self.metadata_pool, items, client)
        except Exception:
            for oid, _cmap, _txn in maps:
                self.invalidate_map_cache(oid)
            raise
        for (oid, cmap, _txn), indices in zip(maps, touched):
            self.cache.note_committed(oid, cmap, indices)
            cmap.version += 1
            cmap.clear_touched()
            self._fence(oid)
            # Cache a fork: the caller keeps ownership of ``cmap`` and
            # may keep replacing its rows without polluting the
            # committed state served to concurrent loads.
            self._cache_map(oid, cmap.copy())

    def read_local_chunk(self, oid: str, offset: int, length: int):
        """Process: read cached chunk bytes at the metadata primary.

        Used by the dedup engine, which runs next to the data: no client
        network transfer, just a local disk read (an EC decode when the
        metadata pool is erasure-coded).  Returns the generator of the
        cluster's one read path rather than wrapping it.
        """
        key = self.metadata_key(oid)
        return self.cluster.read_key(self.metadata_pool, key, offset, length, None)

    # -- chunk reference state -------------------------------------------------

    def chunk_exists(self, chunk_id: str) -> bool:
        """Whether a chunk object is stored: the cluster's existence
        probe of the chunk pool (map-time, no simulated cost)."""
        return self.cluster.exists(self.chunk_pool, chunk_id)

    def _peek_refs(self, chunk_id: str):
        """``chunk_id``'s stored copy as :meth:`~repro.cluster.RadosCluster.peek`
        finds it (``None`` when there is none) and its reference set
        (map-time, no simulated cost)."""
        found = self.cluster.peek(self.chunk_pool, chunk_id)
        if found is None:
            return None, RefSet()
        return found, RefSet.deserialize(found[1].xattrs.get(REFS_XATTR, b""))

    def _load_refs(self, chunk_id: str) -> RefSet:
        return self._peek_refs(chunk_id)[1]

    # -- reference commits ------------------------------------------------------

    # A commit primitive: the two-phase prepare makes a fault
    # all-or-nothing, and its callers own the requeue/defer policy.
    def commit_chunk_batch(self, batch: ChunkBatch, via):
        """Process: apply a pass's accumulated ref/deref ops at once.

        The one way a chunk's references change (§4.4.1 steps 4-5):
        the first reference stores the chunk object, a duplicate only
        appends its reference record (the write of the duplicate data
        never happens, which *is* the deduplication), and the last
        dereference removes the object.  Dropping a reference a chunk
        does not hold, or of a chunk that is gone, is a no-op (a crashed
        pass may retry a release that already happened; §4.6 relies on
        this idempotence).  With ``compress_chunks`` on, a stored
        payload is compressed first; the chunk's ID stays the
        fingerprint of the uncompressed content.

        Per-chunk final states (refcounts, payload stores, removals)
        are computed in memory under the chunk locks, then the whole
        batch is committed through
        :meth:`~repro.cluster.RadosCluster.submit_batch` — one prepared
        transaction per placement group on a replicated chunk pool, one
        per chunk on an EC one — and a chunk whose reference set the
        batch leaves unchanged is not written at all.  A transient fault
        during the prepare leaves no chunk object mutated, on either
        pool type, so the caller retries the batch as a unit without
        undo.  :attr:`StageCounters.ref_commits` counts the prepared
        transactions the submit made.

        Returns a list aligned with ``batch.ops``: ``True`` when that
        ref op newly stored the chunk payload, ``False`` when it
        deduplicated against an existing chunk, ``None`` for derefs.
        """
        outcomes: List[Optional[bool]] = [None] * len(batch.ops)
        if not batch:
            return outcomes
        per_chunk: "OrderedDict[str, List[Tuple[int, Tuple]]]" = OrderedDict()
        for i, op in enumerate(batch.ops):
            per_chunk.setdefault(op[1], []).append((i, op))
        # Sorted acquisition: concurrent batches cannot deadlock.
        held: list = []
        try:
            for cid in sorted(per_chunk):
                yield self.chunk_locks.acquire(cid, held)
            self.stage.ref_ops += len(batch.ops)
            items: List[Tuple[str, Transaction]] = []
            stored_blobs: List[bytes] = []
            for cid, ops in per_chunk.items():
                found, refs = self._peek_refs(cid)
                existed = found is not None
                payload = None
                changed = False
                for i, op in ops:
                    if op[0] == "ref":
                        _, _, ref, data, nbytes = op
                        if not existed and payload is None:
                            if data is None:
                                # Released since the pass found it
                                # stored: its bytes are still in the
                                # referrer's cached copy.
                                data = yield from self.read_local_chunk(
                                    ref.source_oid, ref.offset, nbytes
                                )
                            payload = bytes(data)
                            outcomes[i] = True
                        else:
                            outcomes[i] = False
                        if ref not in refs:
                            refs.add(ref)
                            changed = True
                    elif op[2] in refs:
                        refs.discard(op[2])
                        changed = True
                if not changed:
                    continue
                key = self.cluster.object_key(self.chunk_pool, cid)
                txn = Transaction()
                if len(refs) == 0:
                    if existed:
                        txn.remove(key)
                    else:
                        # Net no-op: every ref taken in this batch was
                        # also dropped in it — never create the object,
                        # and downgrade the "stored" outcome.
                        for i, op in ops:
                            if op[0] == "ref":
                                outcomes[i] = False
                        payload = None
                else:
                    if not existed:
                        blob, encoding = payload, b"raw"
                        if self.config.compress_chunks:
                            cpu = getattr(via, "cpu", None)
                            if cpu is not None:
                                yield from cpu.execute(
                                    cpu.spec.compress_time(len(payload))
                                )
                            coded = self.codec.compress(payload)
                            if len(coded) < len(payload):
                                blob, encoding = coded, b"zlib"
                        txn.write_full(key, blob)
                        if self.config.compress_chunks:
                            txn.setxattr(key, CHUNK_ENCODING_XATTR, encoding)
                        stored_blobs.append(blob)
                    txn.setxattr(key, REFS_XATTR, refs.serialize())
                if len(txn):
                    items.append((cid, txn))
            groups = yield from self.cluster.submit_batch(self.chunk_pool, items, via)
            if items:
                yield self.cluster.reply()
                self.stage.ref_batches += 1
                self.stage.ref_commits += groups
            self.stage.flush_ops += len(stored_blobs)
            self.stage.flush_bytes += sum(map(len, stored_blobs))
            return outcomes
        finally:
            self.chunk_locks.release(held)

    def read_chunk(self, chunk_id: str, offset: int, length: Optional[int], client):
        """Process: read chunk bytes from the chunk pool (redirection).

        Transparently decompresses tier-compressed chunks (the whole
        chunk must be fetched and decoded before slicing — the CPU and
        extra-bytes cost of compression's read path).
        """
        if not self.config.compress_chunks:
            data = yield from self.cluster.read(
                self.chunk_pool, chunk_id, offset, length, client
            )
            return data
        # The encoding, and the CPU that decodes, come from the holder
        # before the read: a release landing during the read's transfer
        # must not turn the compressed bytes it returns into "raw" data.
        found = self.cluster.peek(self.chunk_pool, chunk_id)
        if found is None:
            # Fail now, as the read would: NoSuchObject (``read_path``
            # retries from a fresh map), or NotEnoughReplicas when no
            # acting OSD is up.  Reading on would let a pass store the
            # chunk during the request's latency and hand back its zlib
            # blob as data.
            key = self.cluster.object_key(self.chunk_pool, chunk_id)
            self.cluster.readable_holders(self.chunk_pool, key)
        zlib = found[1].xattrs.get(CHUNK_ENCODING_XATTR) == b"zlib"
        blob = yield from self.cluster.read(self.chunk_pool, chunk_id, 0, None, client)
        if zlib:
            cpu = found[0].node.cpu
            yield from cpu.execute(cpu.spec.compress_time(len(blob)))
            blob = self.codec.decompress(blob)
        if length is None:
            return blob[offset:]
        return blob[offset : offset + length]

    def chunk_refcount(self, chunk_id: str) -> int:
        """Reference count of a chunk object (map-time, for tests)."""
        return len(self._load_refs(chunk_id))

    # -- accounting ----------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        """Measure current space use (see :class:`SpaceReport`)."""
        report = SpaceReport()
        cluster = self.cluster
        # Each object counted once, as its first holder stores it.
        for oid in cluster.list_objects(self.metadata_pool):
            found = cluster.peek(self.metadata_pool, oid)
            if found is None:
                continue
            obj = found[1]
            cmap_blob = obj.xattrs.get(CHUNK_MAP_XATTR, b"")
            cmap = decode_stored_map(cmap_blob, obj.omap) if cmap_blob else None
            # v2 maps keep entries in omap records; charge their
            # keys+values alongside the header so both formats are
            # billed for what they actually store.
            map_bytes = len(cmap_blob) + sum(
                len(k) + len(v)
                for k, v in obj.omap.items()
                if k.startswith(MAP_OMAP_PREFIX)
            )
            report.metadata_objects += 1
            report.logical_bytes += cmap.logical_size() if cmap else obj.size
            if self.metadata_pool.is_ec:
                # Each OSD holds one shard; payload-once bytes are k
                # shards' worth (parity excluded).
                report.cached_data_bytes += (
                    obj.allocated_bytes() * self.metadata_pool.codec.k
                )
            else:
                report.cached_data_bytes += obj.allocated_bytes()
            report.metadata_bytes += PER_OBJECT_OVERHEAD + map_bytes
        for cid in cluster.list_objects(self.chunk_pool):
            found = cluster.peek(self.chunk_pool, cid)
            if found is not None:
                report.chunk_objects += 1
                report.metadata_bytes += PER_OBJECT_OVERHEAD + len(
                    found[1].xattrs.get(REFS_XATTR, b"")
                )
        report.chunk_data_bytes = cluster.pool_logical_bytes(self.chunk_pool)
        report.raw_used_bytes = cluster.pool_used_bytes(
            self.metadata_pool
        ) + cluster.pool_used_bytes(self.chunk_pool)
        return report
