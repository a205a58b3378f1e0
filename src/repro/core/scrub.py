"""Scrub and offline garbage collection for the dedup tier.

Two maintenance passes a production deployment of this design needs:

* :func:`scrub` — integrity verification ("fsck for dedup"): every
  chunk object's content must hash to its object ID (double hashing
  makes this check free of any index), every chunk-map entry must point
  at an existing chunk object, and every reference record must point
  back at a metadata object whose map actually uses the chunk.
* :func:`collect_garbage` — the one GC: it releases stored references
  their referrer's chunk map no longer implies, for the §4.6
  false-positive deref queue and as the offline repair.

Both are simulation processes and charge device time for what they
read/write, so their cost can be measured too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..fingerprint import fingerprint
from .objects import ChunkRef
from .tier import DedupTier

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


def _implied(tier: DedupTier, oid: str) -> Iterator[Tuple[str, ChunkRef]]:
    """``(chunk_id, ref)`` per entry of ``oid``'s stored map with a
    chunk, dirty or not (map-time; nothing once ``oid`` is gone)."""
    cmap = tier.peek_chunk_map(oid)
    for entry in cmap if cmap is not None else ():
        if entry.chunk_id:
            yield entry.chunk_id, ChunkRef(tier.metadata_pool.pool_id, oid, entry.offset)


def _live_refs(tier: DedupTier) -> Dict[str, Set[ChunkRef]]:
    """chunk id -> the references the chunk maps actually imply."""
    live: Dict[str, Set[ChunkRef]] = {}
    for oid in tier.cluster.list_objects(tier.metadata_pool):
        for chunk_id, ref in _implied(tier, oid):
            live.setdefault(chunk_id, set()).add(ref)
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
        primary = cluster.primary(tier.chunk_pool, chunk_id)
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
    """Outcome of one GC pass, read back after its release committed."""

    references_dropped: int = 0
    chunks_removed: int = 0
    bytes_reclaimed: int = 0


def collect_garbage(tier: DedupTier, candidates: Optional[List[Tuple[str, ChunkRef]]] = None):
    """Process: release stale references; returns a :class:`GcReport`.

    ``candidates`` are the ``(chunk_id, ref)`` pairs to check (the
    false-positive deref queue :meth:`DedupEngine.drain` hands over);
    ``None`` checks every stored reference — the offline repair.  A
    candidate is stale when its referrer is gone or the referrer's map
    has no entry at ``ref.offset`` pointing at ``chunk_id`` (a dirty
    entry still needs its old chunk).  Each map is read under the
    referrer's object lock, taken in sorted order before any chunk lock,
    so nothing in flight on a referrer commits between the check and the
    one all-or-nothing :meth:`~repro.core.tier.DedupTier.release_refs`
    of every stale pair.  No candidates: no lock, no simulated time.
    """
    cluster = tier.cluster
    if candidates is None:
        chunks = cluster.list_objects(tier.chunk_pool)
        candidates = [(cid, ref) for cid in chunks for ref in tier._load_refs(cid)]
    if not candidates:
        return GcReport()
    held: list = []
    try:
        live: Set[Tuple[str, ChunkRef]] = set()
        for oid in sorted({ref.source_oid for _cid, ref in candidates}):
            yield tier.object_locks.acquire(oid, held)
            yield from tier.writes_landed(oid)
            live.update(_implied(tier, oid))
        stale = sorted(set(candidates) - live)
        stored = [(cid, ref) for cid, ref in stale if ref in tier._load_refs(cid)]
        sizes = {cid: cluster.payload_bytes(tier.chunk_pool, cid) for cid, _ref in stored}
        yield from tier.release_refs(stale, next(iter(cluster.nodes.values())))
        # Read back under the referrers' locks: nothing re-took them yet.
        gone = [cid for cid in sizes if not tier.chunk_exists(cid)]
        return GcReport(
            references_dropped=sum(ref not in tier._load_refs(cid) for cid, ref in stored),
            chunks_removed=len(gone),
            bytes_reclaimed=sum(sizes[cid] for cid in gone),
        )
    finally:
        tier.object_locks.release(held)


def collect_garbage_sync(tier: DedupTier) -> GcReport:
    """Synchronous :func:`collect_garbage` (the offline repair)."""
    return tier.cluster.run(collect_garbage(tier))
