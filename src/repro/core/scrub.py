"""Scrub and offline garbage collection for the dedup tier.

Two maintenance passes a production deployment of this design needs:

* :func:`scrub` — integrity verification ("fsck for dedup"): every
  chunk object's content must hash to its object ID (double hashing
  makes this check free of any index), every chunk-map entry must point
  at an existing chunk object, and every reference record must point
  back at a metadata object whose map actually uses the chunk.
* :func:`collect_garbage` — offline GC: the §4.6 false-positive
  refcount mode queues dereferences in memory, so a crash can leak
  references (and therefore chunk objects).  This pass recomputes the
  true reference set from the chunk maps and drops anything stale.

Both are simulation processes and charge device time for what they
read/write, so their cost can be measured too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..fingerprint import fingerprint
from .objects import REFS_XATTR, ChunkRef, RefSet
from .tier import DedupTier, NodeClient

__all__ = ["ScrubReport", "scrub", "scrub_sync", "GcReport", "collect_garbage", "collect_garbage_sync"]


@dataclass
class ScrubReport:
    """Findings of one scrub pass."""

    chunks_checked: int = 0
    corrupt_chunks: List[str] = field(default_factory=list)
    dangling_map_entries: List[Tuple[str, int]] = field(default_factory=list)
    stale_references: List[Tuple[str, ChunkRef]] = field(default_factory=list)
    unreferenced_chunks: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing is wrong."""
        return not (
            self.corrupt_chunks
            or self.dangling_map_entries
            or self.stale_references
            or self.unreferenced_chunks
        )


def _live_refs(tier: DedupTier) -> Dict[str, Set[ChunkRef]]:
    """chunk id -> the references the chunk maps actually imply."""
    live: Dict[str, Set[ChunkRef]] = {}
    for oid in tier.cluster.list_objects(tier.metadata_pool):
        cmap = tier.peek_chunk_map(oid)
        if cmap is None:
            continue
        for entry in cmap:
            if entry.chunk_id:
                live.setdefault(entry.chunk_id, set()).add(
                    ChunkRef(tier.metadata_pool.pool_id, oid, entry.offset)
                )
    return live


def scrub(tier: DedupTier):
    """Process: verify dedup-tier integrity; returns a ScrubReport.

    Scrubbing is read-only; use :func:`collect_garbage` to repair the
    reference findings.
    """
    report = ScrubReport()
    cluster = tier.cluster
    live = _live_refs(tier)
    # 1. Chunk-map entries must point at existing chunks (skip dirty
    #    entries: their chunk IDs may legitimately lag behind).
    for oid in cluster.list_objects(tier.metadata_pool):
        cmap = tier.peek_chunk_map(oid)
        if cmap is None:
            continue
        for entry in cmap:
            if entry.chunk_id and not entry.dirty:
                if not cluster.exists(tier.chunk_pool, entry.chunk_id):
                    report.dangling_map_entries.append((oid, entry.offset))
    # 2. Chunk content must hash to the chunk ID (double hashing means
    #    the expected digest needs no lookup), and every stored
    #    reference must be implied by some chunk map.
    for chunk_id in cluster.list_objects(tier.chunk_pool):
        report.chunks_checked += 1
        # read_chunk decompresses tier-compressed payloads, so the
        # fingerprint check always runs over the logical content.
        data = yield from tier.read_chunk(chunk_id, 0, None, None)
        primary = cluster._primary(tier.chunk_pool, chunk_id)
        yield from primary.node.cpu.fingerprint(len(data))
        if fingerprint(data) != chunk_id:
            report.corrupt_chunks.append(chunk_id)
        implied = live.get(chunk_id, set())
        stored = set(tier._load_refs(chunk_id))
        for ref in sorted(stored - implied):
            report.stale_references.append((chunk_id, ref))
        if not implied:
            report.unreferenced_chunks.append(chunk_id)
    return report


def scrub_sync(tier: DedupTier) -> ScrubReport:
    """Synchronous :func:`scrub`."""
    return tier.cluster.run(scrub(tier))


@dataclass
class GcReport:
    """Outcome of one offline garbage-collection pass."""

    references_dropped: int = 0
    chunks_removed: int = 0
    bytes_reclaimed: int = 0


# repro-lint: flt-scope -- offline GC runs post-drain; a faulted remove() is retried by the next pass (refs recomputed each pass)
def collect_garbage(tier: DedupTier):
    """Process: drop stale references and unreferenced chunk objects.

    Recomputes the authoritative reference set from the (persisted,
    replicated) chunk maps, so it recovers from any amount of lost
    in-memory deref state.  Dirty objects are skipped — their chunks are
    in flux — so run after a drain for a full collection.
    """
    report = GcReport()
    cluster = tier.cluster
    live = _live_refs(tier)
    node = next(iter(cluster.nodes.values()))
    via = NodeClient(node)
    for chunk_id in cluster.list_objects(tier.chunk_pool):
        held: list = []
        try:
            yield tier.chunk_locks.acquire(chunk_id, held)
            if not cluster.exists(tier.chunk_pool, chunk_id):
                continue
            implied = live.get(chunk_id, set())
            stored = set(tier._load_refs(chunk_id))
            stale = stored - implied
            if not stale:
                continue
            keep = stored & implied
            report.references_dropped += len(stale)
            if keep:
                yield from cluster.setxattr(
                    tier.chunk_pool, chunk_id, REFS_XATTR,
                    RefSet(sorted(keep)).serialize(), via,
                )
            else:
                length = yield from cluster.stat(tier.chunk_pool, chunk_id)
                yield from cluster.remove(tier.chunk_pool, chunk_id, via)
                report.chunks_removed += 1
                report.bytes_reclaimed += length
        finally:
            tier.chunk_locks.release(held)
    # GC rewrites reference state the maps imply; a decoded map cached
    # across the collection could disagree with what GC just decided
    # was live.  Defensive full drop — GC is rare and offline.
    tier.invalidate_map_cache()
    return report


def collect_garbage_sync(tier: DedupTier) -> GcReport:
    """Synchronous :func:`collect_garbage`."""
    return tier.cluster.run(collect_garbage(tier))
