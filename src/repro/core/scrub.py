"""Scrub and offline garbage collection for the dedup tier.

The maintenance passes a production deployment of this design needs:

* :func:`scrub` — integrity verification ("fsck for dedup"): every
  chunk object's content must hash to its object ID (double hashing
  makes this check free of any index), every chunk-map entry must point
  at an existing chunk object, every reference record must point back
  at a metadata object whose map actually uses the chunk, and every
  such use must have its reference record.
* :func:`collect_garbage` — the one GC: it releases stored references
  their referrer's chunk map no longer implies: the §4.6
  false-positive deref queue, a deleted object's references and the
  offline repair.
* :func:`verdict` — the one judgement of a quiesced store: both scrubs,
  a read-back, placement and every per-key table (:data:`TABLES`).

All three charge device time for what they read/write, so their cost
can be measured too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ..cluster import placement_report, scrub_pool_sync
from ..fingerprint import fingerprint
from .objects import ChunkRef
from .tier import ChunkBatch, DedupTier

__all__ = [
    "ScrubReport", "scrub", "scrub_sync", "GcReport", "collect_garbage", "collect_garbage_sync",
    "TABLES", "Verdict", "verdict",
]


@dataclass
class ScrubReport:
    """Findings of one scrub pass."""

    chunks_checked: int = 0
    corrupt_chunks: List[str] = field(default_factory=list)
    dangling_map_entries: List[Tuple[str, int]] = field(default_factory=list)
    stale_references: List[Tuple[str, ChunkRef]] = field(default_factory=list)
    #: Under-retained: a chunk map uses the chunk, but the chunk holds
    #: no reference record for it (or is gone), so its last other
    #: dereference would remove the chunk under that map.
    missing_references: List[Tuple[str, ChunkRef]] = field(default_factory=list)
    unreferenced_chunks: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing is wrong."""
        return not (
            self.corrupt_chunks
            or self.dangling_map_entries
            or self.stale_references
            or self.missing_references
            or self.unreferenced_chunks
        )

    @property
    def findings(self) -> List[Any]:
        """Every finding of the scrub, in the order of the fields."""
        return [*self.corrupt_chunks, *self.dangling_map_entries, *self.stale_references,
                *self.missing_references, *self.unreferenced_chunks]


#: The per-key tables, finding -> ``(owner, attribute)`` of a
#: ``DedupedStorage``: each holds an entry only while work on its key is
#: in flight, so one left at quiesce is state that grows without bound.
TABLES = {
    "rados.write locks": ("cluster", "write_locks"),
    "tier.object locks": ("tier", "object_locks"),
    "tier.chunk locks": ("tier", "chunk_locks"),
    "write line": ("tier", "_write_line"),
    "map fences": ("tier", "_map_fences"),
    "pending requeues": ("tier", "_pending_requeues"),
    "promotions": ("engine", "_promoting"),
    "demotions": ("engine", "_demoting"),
    "releases": ("engine", "_releases"),
    "deref queue": ("engine", "deref_queue"),
}


@dataclass
class Verdict:
    """One judgement of a quiesced store (:func:`verdict`)."""

    #: The dedup scrub's report; its findings are ``"dedup scrub"``.
    scrub: ScrubReport
    #: Check name -> what it found, in the order the checks ran.
    findings: Dict[str, List[Any]]
    #: :func:`~repro.obs.storage_metrics` once quiesced, before the pool scrubs.
    metrics: Any

    @property
    def problems(self) -> List[str]:
        """The checks that found something; none on a sound store."""
        return [name for name, found in self.findings.items() if found]

    @property
    def clean(self) -> bool:
        """True when every check found nothing."""
        return not self.problems


def verdict(storage: Any, shadow: Optional[Mapping[str, bytes]] = None) -> Verdict:
    """Judge a quiesced ``storage`` (a ``DedupedStorage``), read back
    against ``shadow`` (oid -> its bytes): the one code that decides
    whether a store is sound.  The checks run in the order of
    ``findings``, as reads and scrubs charge simulated time; between the
    read-back and the pool scrubs the loop runs dry (reads may leave
    cache promotions behind) and ``metrics`` is taken.
    """
    from ..obs import storage_metrics

    tier, cluster = storage.tier, storage.cluster
    storage.engine.stop()  # the loop cannot run dry while it ticks
    report = scrub_sync(tier)
    findings: Dict[str, List[Any]] = {
        "dedup scrub": report.findings,
        "lost": [oid for oid, data in sorted((shadow or {}).items())
                 if storage.read_sync(oid) != data],
    }
    storage.sim.run()
    metrics = storage_metrics(storage)
    for name, pool in (("metadata", tier.metadata_pool), ("chunk", tier.chunk_pool)):
        found = scrub_pool_sync(cluster, pool)
        findings[f"{name} pool scrub"] = found.inconsistent + found.missing + found.bad_shards
    findings["placement"] = placement_report(cluster)
    for name, (owner, attr) in TABLES.items():
        findings[name] = list(getattr(getattr(storage, owner), attr))
    return Verdict(report, findings, metrics)


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
    #    the expected digest needs no lookup), and a chunk's stored
    #    references must be exactly those its chunk maps imply.
    for chunk_id in cluster.list_objects(tier.chunk_pool):
        report.chunks_checked += 1
        # read_chunk decompresses tier-compressed payloads, so the
        # fingerprint check always runs over the logical content.
        data = yield from tier.read_chunk(chunk_id, 0, None, None)
        primary = cluster.primary(tier.chunk_pool, chunk_id)
        yield from primary.node.cpu.fingerprint(len(data))
        if fingerprint(data) != chunk_id:
            report.corrupt_chunks.append(chunk_id)
        implied = live.pop(chunk_id, set())
        stored = set(tier._load_refs(chunk_id))
        for ref in sorted(stored ^ implied):
            found = report.stale_references if ref in stored else report.missing_references
            found.append((chunk_id, ref))
        if not implied:
            report.unreferenced_chunks.append(chunk_id)
    # 3. A use of a chunk that is gone has no reference record either.
    for chunk_id in live:
        report.missing_references.extend((chunk_id, ref) for ref in sorted(live[chunk_id]))
    return report


def scrub_sync(tier: DedupTier) -> ScrubReport:
    """Synchronous :func:`scrub`."""
    return tier.cluster.run(scrub(tier))


@dataclass
class GcReport:
    """Outcome of one offline GC pass (:func:`collect_garbage_sync`)."""

    references_dropped: int = 0
    chunks_removed: int = 0
    bytes_reclaimed: int = 0


def collect_garbage(tier: DedupTier, candidates: Optional[List] = None, via=None):
    """Process: release stale references; returns the stale pairs.

    ``candidates`` are the ``(chunk_id, ref)`` pairs to check (the
    engine's deref queue, or the references a delete dropped); ``None``
    checks every stored reference — the offline repair.  A candidate is
    stale when its referrer is gone or the referrer's map has no entry
    at ``ref.offset`` pointing at ``chunk_id`` (a dirty entry still
    needs its old chunk).  Each map is read under the referrer's object
    lock, taken in sorted order before any chunk lock, so nothing in
    flight on a referrer commits between the check and the one
    all-or-nothing dereference batch
    (:meth:`~repro.core.tier.DedupTier.commit_chunk_batch`) of every
    stale pair, sent via ``via`` (default: the first node).  A batch
    that faults leaves every pair over-retained, and a retry of it is
    idempotent.  The offline repair then takes off the tier's deref
    queue every pair it checked that was queued when it had its locks;
    a pair queued later stays.  No candidates: no lock, no simulated
    time.
    """
    cluster = tier.cluster
    offline = candidates is None
    if offline:
        chunks = cluster.list_objects(tier.chunk_pool)
        candidates = [(cid, ref) for cid in chunks for ref in tier._load_refs(cid)]
    if not candidates:
        return []
    held: list = []
    try:
        live: Set[Tuple[str, ChunkRef]] = set()
        for oid in sorted({ref.source_oid for _cid, ref in candidates}):
            yield tier.object_locks.acquire(oid, held)
            yield from tier.writes_landed(oid)
            live.update(_implied(tier, oid))
        checked = set(candidates)
        settled = [pair for pair in tier.deref_queue if pair in checked] if offline else ()
        stale = sorted(checked - live)
        batch = ChunkBatch()
        for chunk_id, ref in stale:
            batch.deref(chunk_id, ref)
        yield from tier.commit_chunk_batch(batch, via or next(iter(cluster.nodes.values())))
        for pair in settled:
            if pair in tier.deref_queue:
                tier.deref_queue.remove(pair)
        return stale
    finally:
        tier.object_locks.release(held)


def collect_garbage_sync(tier: DedupTier) -> GcReport:
    """Synchronous :func:`collect_garbage` (the offline repair); its
    report compares the stale pairs' chunks before and after the GC."""
    cluster = tier.cluster
    before = {
        cid: (tier._load_refs(cid), cluster.payload_bytes(tier.chunk_pool, cid))
        for cid in cluster.list_objects(tier.chunk_pool)
    }
    stale = [pair for pair in cluster.run(collect_garbage(tier)) if pair[0] in before]
    dropped = [r for cid, r in stale if r in before[cid][0] and r not in tier._load_refs(cid)]
    touched = {cid for cid, _ref in stale}
    gone = [cid for cid in before if cid in touched and not tier.chunk_exists(cid)]
    return GcReport(len(dropped), len(gone), sum(before[cid][1] for cid in gone))
