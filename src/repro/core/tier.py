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
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..chunking import StaticChunker
from ..compression import ZlibCodec
from ..cluster import (
    ObjectKey,
    PER_OBJECT_OVERHEAD,
    Pool,
    RadosCluster,
    Replicated,
    Transaction,
)
from ..faults.retry import RetryPolicy, RetryStats, call_with_retries
from ..perf.stages import StageCounters
from ..sim import LockTable
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
    "NodeClient",
    "CHUNK_ENCODING_XATTR",
]

#: xattr on chunk objects recording the payload encoding ("raw"/"zlib").
CHUNK_ENCODING_XATTR = "dedup.encoding"


class NodeClient:
    """Adapter letting a storage node act as the I/O initiator.

    The background dedup engine runs on storage nodes, not on clients;
    its chunk-pool traffic originates from the metadata-pool primary's
    NIC.
    """

    def __init__(self, node):
        self.node = node
        self.nic = node.nic


class ChunkBatch:
    """Chunk-pool reference work accumulated by one dedup pass.

    Instead of paying one serialized round trip per refcount update, the
    engine records every ``ref``/``deref`` of a pass here and commits
    them all at once through :meth:`DedupTier.commit_chunk_batch`, which
    collapses the work into one prepared transaction per placement
    group (see :meth:`~repro.cluster.RadosCluster.submit_batch`).
    """

    def __init__(self):
        #: Ordered ops: ``("ref", chunk_id, ref, data)`` or
        #: ``("deref", chunk_id, ref)``.
        self.ops: List[Tuple] = []

    def ref(self, chunk_id: str, ref: ChunkRef, data) -> None:
        """Record a store-or-reference of ``chunk_id`` by ``ref``.

        ``data`` is the chunk payload, used only if the commit finds no
        object at the content-derived location (first reference).
        """
        self.ops.append(("ref", chunk_id, ref, data))

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
    replaces rows of its fork with ``ChunkMap.set``, builds the commit
    with :meth:`append_map_commit`, and then either
    :meth:`note_map_committed` (the fork's state becomes the next
    snapshot) or :meth:`invalidate_map_cache`.
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
        # Dirty object ID list (paper Figure 8). In-memory, rebuildable
        # from the dirty bits persisted in every chunk map.
        self._dirty_queue: Deque[str] = deque()
        self._dirty_set: Set[str] = set()
        # Delayed requeues already scheduled but not yet fired: a second
        # requeue (or a fired one racing a foreground mark_dirty) must
        # not enqueue the oid twice.
        self._pending_requeues: Set[str] = set()
        #: Per-chunk-object locks serialising reference read-modify-write.
        self.chunk_locks = LockTable(cluster.sim, "tier.chunk:{}")
        #: Per-metadata-object locks serialising every mutation of one
        #: object: foreground writes and deletes, dedup passes (two
        #: engine workers, or flush-on-write racing the engine), and
        #: promotion/demotion.
        self.object_locks = LockTable(cluster.sim, "tier.object:{}")
        #: Hot-path stage counters (chunking/fingerprint/ref/flush);
        #: always on, bumped inline.
        self.stage = StageCounters()
        # Versioned LRU of decoded ChunkMaps in front of load_chunk_map:
        # oid -> (version, ChunkMap).  The cache holds *committed
        # snapshots only*, which nothing ever changes: entries are
        # immutable and every load hands out a fork (ChunkMap.copy — a
        # new index over the same entries), so a caller replacing rows
        # of its map across yields can never pollute what concurrent
        # readers see.  The per-oid version counters in
        # _map_versions advance on every committed mutation (and on
        # explicit invalidation), so a cached decode is served only when
        # its version still matches — an explicit version instead of a
        # pop, so an in-flight stale decode can never be re-installed.
        self._map_cache: "OrderedDict[str, Tuple[int, ChunkMap]]" = OrderedDict()
        self._map_cache_cap = self.config.map_cache_entries
        self._map_versions: Dict[str, int] = {}
        # Global fence for invalidate-all: per-oid version bumps only
        # cover oids with a version entry, but an object cached purely
        # via load misses sits at version 0 — the epoch catches its
        # in-flight decodes too (bumped alongside full invalidation).
        self._map_epoch = 0
        # Recovery and rebalance can rewrite metadata objects underneath
        # the tier (restoring an older committed state); both notify the
        # cluster's repair listeners, and the tier answers by dropping
        # every decoded map.
        cluster.add_repair_listener(self._on_cluster_repair)
        #: Hook invoked (with the oid) when a read finds a hot object
        #: whose chunks are not cached; the facade wires it to the
        #: engine's promotion path (§5: hot objects are cached into the
        #: metadata pool).
        self.on_hot_read = None

    @property
    def sim(self):
        """The cluster's simulator."""
        return self.cluster.sim

    def retrying(self, factory, op: str = "op"):
        """Process: run ``factory()`` under the tier's retry policy.

        ``factory`` must build a *fresh* op generator per call (each
        attempt needs its own); see
        :func:`repro.faults.retry.call_with_retries`.
        """
        result = yield from call_with_retries(
            self.sim, self.retry_policy, factory, self.retry_stats, op=op
        )
        return result

    # -- dirty object ID list -------------------------------------------------

    def mark_dirty(self, oid: str) -> None:
        """Log ``oid`` for background deduplication."""
        if oid not in self._dirty_set:
            self._dirty_set.add(oid)
            self._dirty_queue.append(oid)

    def next_dirty(self) -> Optional[str]:
        """Pop the next dirty object ID, or ``None`` when list is empty."""
        if not self._dirty_queue:
            return None
        oid = self._dirty_queue.popleft()
        self._dirty_set.discard(oid)
        return oid

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
            if oid in self._dirty_set or oid in self._pending_requeues:
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
        return len(self._dirty_queue)

    def rebuild_dirty_list(self) -> int:
        """Recover the dirty list by scanning persisted chunk maps.

        The list itself is volatile; the authoritative dirty state is
        the per-entry dirty bit inside every (replicated) chunk map, so
        a restart can always reconstruct it.  Returns the number of
        dirty objects found.
        """
        self._dirty_queue.clear()
        self._dirty_set.clear()
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
        key = self.metadata_key(oid)
        # acting_osds (not acting_set_for): mid-rebalance the object may
        # still be parked on its pre-remap acting set.
        for osd in self.cluster.acting_osds(self.metadata_pool, oid):
            if osd.up and osd.store.exists(key):
                obj = osd.store.get(key)
                blob = obj.xattrs.get(CHUNK_MAP_XATTR)
                return (blob, obj.omap) if blob else None
        return None

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

    def map_version(self, oid: str) -> int:
        """Current committed map version for ``oid`` (0 = never seen)."""
        return self._map_versions.get(oid, 0)

    def _cache_map(self, oid: str, cmap: ChunkMap, version: int) -> None:
        if self._map_cache_cap <= 0:
            return
        cache = self._map_cache
        cache[oid] = (version, cmap)
        cache.move_to_end(oid)
        while len(cache) > self._map_cache_cap:
            cache.popitem(last=False)

    def note_map_committed(self, oid: str, cmap: ChunkMap) -> int:
        """Record that ``cmap`` is now the committed map of ``oid``.

        Bumps the object's map version, resets the map's touched-entry
        tracking, and installs the decoded map in the cache so the next
        ``load_chunk_map`` is a hit.  Must be called only after the
        commit transaction succeeded.  Returns the new version.
        """
        version = self.map_version(oid) + 1
        self._map_versions[oid] = version
        cmap.clear_touched()
        # Cache a fork: the caller keeps ownership of ``cmap`` and may
        # keep replacing its rows without polluting the committed state
        # served to concurrent loads.
        self._cache_map(oid, cmap.copy(), version)
        return version

    def invalidate_map_cache(self, oid: Optional[str] = None) -> None:
        """Drop decoded maps (one object, or all when ``None``).

        Owners: faulted/aborted commits (the in-memory map may have been
        mutated without landing), deletes, GC, recovery, and rebalance
        migration.  Bumping the version — not just popping the cache
        entry — also fences any stale decode still held by an in-flight
        op from being re-installed later.
        """
        if oid is None:
            self.stage.map_cache_invalidations += len(self._map_cache)
            self._map_cache.clear()
            # The epoch fences in-flight decodes of objects with no
            # version entry yet (still at version 0, e.g. cached purely
            # via load misses after a tier restart) — the per-oid bumps
            # below cannot reach those.
            self._map_epoch += 1
            for known in self._map_versions:
                self._map_versions[known] += 1
        else:
            if self._map_cache.pop(oid, None) is not None:
                self.stage.map_cache_invalidations += 1
            self._map_versions[oid] = self.map_version(oid) + 1

    def _on_cluster_repair(self) -> None:
        # Recovery / rebalance rewrote objects under us: every cached
        # decoded map is suspect.
        self.invalidate_map_cache()

    def load_chunk_map(self, oid: str):
        """Process: fetch the chunk map at the metadata primary.

        The lookup happens server-side as part of whatever operation
        carries it (the map lives in the object's own metadata), so the
        cost is a small primary disk read — no extra network round trip.
        On the common path the versioned decoded-map cache serves the
        map without touching the disk at all.  Returns ``None`` for an
        unknown object.

        The returned ChunkMap is the caller's own *fork* of the shared
        immutable snapshot (hit or miss): the same entry objects under a
        private index, at the cost of one dict copy however many chunks
        the object holds.  Readers get a consistent committed snapshot
        even while a lock-holding writer replaces rows of its fork
        across yields, and a caller that changed its fork either commits
        (``note_map_committed``) or invalidates
        (``invalidate_map_cache``) — the cache itself only ever holds
        committed snapshots.
        """
        cached = self._map_cache.get(oid)
        if cached is not None and cached[0] == self.map_version(oid):
            self._map_cache.move_to_end(oid)
            self.stage.map_cache_hits += 1
            return cached[1].copy()
        primary = self.cluster._primary(self.metadata_pool, oid)
        key = self.metadata_key(oid)
        if not primary.store.exists(key):
            return None
        obj = primary.store.get(key)
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
        version = self.map_version(oid)
        epoch = self._map_epoch
        yield from primary.disk.read(nbytes)
        self.stage.map_cache_misses += 1
        cmap = decode_stored_map(blob, omap_records)
        # Install only when nothing committed or invalidated during
        # the yield — a stale decode must not overwrite the fresh
        # entry a concurrent commit just installed, nor re-enter
        # after a repair fence.  The decode itself is still returned:
        # it is a consistent snapshot of the pre-yield committed map.
        if version == self.map_version(oid) and epoch == self._map_epoch:
            self._cache_map(oid, cmap.copy(), version)
        return cmap

    def append_map_commit(self, txn: Transaction, oid: str, cmap: ChunkMap) -> None:
        """Add ``cmap``'s commit ops for ``oid`` to ``txn``.

        Writes the small header xattr plus one omap record per
        *touched* entry — a 1-chunk update serialises one 150-byte
        record instead of the whole map; a new map has every entry
        touched.

        The caller owns the commit outcome: on success call
        :meth:`note_map_committed`; on a fault that may have mutated the
        in-memory map without landing, call :meth:`invalidate_map_cache`.
        Safe to call again for a retry attempt — touched tracking is
        only cleared by ``note_map_committed``.
        """
        key = self.metadata_key(oid)
        header = cmap.serialize_header_v2(self.map_version(oid) + 1)
        entries = cmap.omap_entries(cmap.touched_indices())
        txn.setxattr(key, CHUNK_MAP_XATTR, header)
        if entries:
            txn.omap_set(key, entries)
        self.stage.map_commits_incremental += 1
        self.stage.map_entries_serialized += len(entries)
        self.stage.map_bytes_serialized += len(header) + sum(
            map(len, entries.values())
        )
        self.stage.map_entries_total += len(cmap)

    def read_local_chunk(self, oid: str, offset: int, length: int):
        """Process: read cached chunk bytes at the metadata primary.

        Used by the dedup engine, which runs next to the data: no client
        network transfer, just a local disk read (an EC decode when the
        metadata pool is erasure-coded).
        """
        if self.metadata_pool.is_ec:
            data = yield from self.cluster._ec_read_internal(self.metadata_pool, oid)
            return data[offset : offset + length]
        primary = self.cluster._primary(self.metadata_pool, oid)
        key = self.metadata_key(oid)
        data = yield from primary.execute_read(key, offset, length)
        return data

    # -- chunk reference state -------------------------------------------------

    def chunk_exists(self, chunk_id: str) -> bool:
        """Whether a chunk object is stored: the cluster's existence
        probe of the chunk pool (map-time, no simulated cost)."""
        return self.cluster.exists(self.chunk_pool, chunk_id)

    def _load_refs(self, chunk_id: str) -> RefSet:
        key = self.cluster.object_key(self.chunk_pool, chunk_id)
        # acting_osds: a chunk mid-migration (and its self-contained
        # refcounts) may only exist on the old acting set — reading the
        # strict set here would return an empty RefSet and drop its refs.
        for osd in self.cluster.acting_osds(self.chunk_pool, chunk_id):
            if osd.up and osd.store.exists(key):
                blob = osd.store.get(key).xattrs.get(REFS_XATTR, b"")
                return RefSet.deserialize(blob)
        return RefSet()

    # -- reference commits ------------------------------------------------------

    # repro-lint: flt-scope -- commit primitive: two-phase prepare makes a fault all-or-nothing; callers own the requeue/defer policy
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
        undo.

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
                existed = self.chunk_exists(cid)
                refs = self._load_refs(cid) if existed else RefSet()
                payload = None
                changed = False
                for i, op in ops:
                    if op[0] == "ref":
                        _, _, ref, data = op
                        if not existed and payload is None:
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
                            node = getattr(via, "node", None)
                            if node is not None:
                                yield from node.cpu.execute(
                                    node.cpu.spec.compress_time(len(payload))
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
            yield from self.cluster.submit_batch(self.chunk_pool, items, via)
            self.stage.flush_ops += len(stored_blobs)
            self.stage.flush_bytes += sum(map(len, stored_blobs))
            if items:
                self.stage.ref_batches += 1
                self.stage.ref_commits += len(
                    {self.chunk_pool.pg_of(cid) for cid, _ in items}
                )
            return outcomes
        finally:
            self.chunk_locks.release(held)

    # repro-lint: flt-scope -- commit primitive: idempotent (§4.6); a fault propagates to the caller's scope, which retries or defers the set to GC
    def release_refs(self, pairs, via):
        """Process: release a set of ``(chunk_id, ref)`` references.

        The one way references are dropped: a single
        :meth:`commit_chunk_batch` (a set of one is a batch of one).
        All-or-nothing — a fault leaves *every* reference over-retained,
        never dangling — and idempotent: a caller may retry the whole
        set or leave it to the GC.
        """
        batch = ChunkBatch()
        for chunk_id, ref in pairs:
            batch.deref(chunk_id, ref)
        yield from self.commit_chunk_batch(batch, via)

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
        blob = yield from self.cluster.read(self.chunk_pool, chunk_id, 0, None, client)
        encoding = self._chunk_encoding(chunk_id)
        if encoding == b"zlib":
            primary = self.cluster._primary(self.chunk_pool, chunk_id)
            yield from primary.node.cpu.execute(
                primary.node.cpu.spec.compress_time(len(blob))
            )
            blob = self.codec.decompress(blob)
        if length is None:
            return blob[offset:]
        return blob[offset : offset + length]

    def _chunk_encoding(self, chunk_id: str) -> bytes:
        key = self.cluster.object_key(self.chunk_pool, chunk_id)
        for osd in self.cluster.acting_osds(self.chunk_pool, chunk_id):
            if osd.up and osd.store.exists(key):
                return osd.store.get(key).xattrs.get(CHUNK_ENCODING_XATTR, b"raw")
        return b"raw"

    def chunk_refcount(self, chunk_id: str) -> int:
        """Reference count of a chunk object (map-time, for tests)."""
        return len(self._load_refs(chunk_id))

    # -- accounting ----------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        """Measure current space use (see :class:`SpaceReport`)."""
        report = SpaceReport()
        cluster = self.cluster
        for oid in cluster.list_objects(self.metadata_pool):
            key = self.metadata_key(oid)
            for osd in cluster.acting_osds(self.metadata_pool, oid):
                if osd.store.exists(key):
                    obj = osd.store.get(key)
                    cmap_blob = obj.xattrs.get(CHUNK_MAP_XATTR, b"")
                    cmap = (
                        decode_stored_map(cmap_blob, obj.omap) if cmap_blob else None
                    )
                    # v2 maps keep entries in omap records; charge their
                    # keys+values alongside the header so both formats
                    # are billed for what they actually store.
                    map_bytes = len(cmap_blob) + sum(
                        len(k) + len(v)
                        for k, v in obj.omap.items()
                        if k.startswith(MAP_OMAP_PREFIX)
                    )
                    report.metadata_objects += 1
                    report.logical_bytes += (
                        cmap.logical_size() if cmap else obj.size
                    )
                    if self.metadata_pool.is_ec:
                        # Each OSD holds one shard; payload-once bytes
                        # are k shards' worth (parity excluded).
                        report.cached_data_bytes += (
                            obj.allocated_bytes() * self.metadata_pool.codec.k
                        )
                    else:
                        report.cached_data_bytes += obj.allocated_bytes()
                    report.metadata_bytes += PER_OBJECT_OVERHEAD + map_bytes
                    break
        for cid in cluster.list_objects(self.chunk_pool):
            key = cluster.object_key(self.chunk_pool, cid)
            for osd in cluster.acting_osds(self.chunk_pool, cid):
                if osd.store.exists(key):
                    obj = osd.store.get(key)
                    report.chunk_objects += 1
                    report.metadata_bytes += PER_OBJECT_OVERHEAD + len(
                        obj.xattrs.get(REFS_XATTR, b"")
                    )
                    break
        report.chunk_data_bytes = cluster.pool_logical_bytes(self.chunk_pool)
        report.raw_used_bytes = cluster.pool_used_bytes(
            self.metadata_pool
        ) + cluster.pool_used_bytes(self.chunk_pool)
        return report
