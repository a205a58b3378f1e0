"""The comparison points the paper measures the design against.

* :func:`analyze_dedup_potential` — offline local-vs-global dedup-ratio
  analysis (Figure 3 / Table 1): local dedup runs independently per OSD,
  global dedup across the whole cluster.  Redundancy copies are excluded
  (the paper computes ratios "excluding the redundancy caused by
  replication"), so each object is attributed to its primary OSD.
* :class:`InlineDedupStorage` — inline (foreground) deduplication: every
  write chunks, fingerprints, and stores/references chunk objects before
  acknowledging.  Exhibits the partial-write read-modify-write problem
  of Figure 5-(a) and the latency overhead that motivates
  post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..chunking import StaticChunker
from ..cluster import NoSuchObject, Pool, RadosCluster, Transaction
from ..fingerprint import fingerprint
from .config import DedupConfig
from .objects import ChunkMap, ChunkMapEntry, ChunkRef
from .tier import ChunkBatch, DedupTier

__all__ = [
    "DedupPotential",
    "analyze_dedup_potential",
    "InlineDedupStorage",
    "PlainStorage",
]


class PlainStorage:
    """The *Original* system: the scale-out store with no dedup at all.

    Exposes the same write/read interface as
    :class:`~repro.core.DedupedStorage` so workloads and benchmarks can
    swap the two (the paper's "Original" baseline in every figure).
    """

    def __init__(
        self,
        cluster: Optional[RadosCluster] = None,
        redundancy=None,
        pool_name: str = "plain-data",
    ):
        self.cluster = cluster if cluster is not None else RadosCluster()
        #: The cluster's simulation clock.
        self.sim = self.cluster.sim
        self.pool = self.cluster.create_pool(pool_name, redundancy)

    def write(self, oid: str, data: bytes, offset: int = 0, client=None):
        """Process: plain object write."""
        if not data:
            return
        yield from self.cluster.write(self.pool, oid, offset, data, client)

    def read(self, oid: str, offset: int = 0, length: Optional[int] = None, client=None):
        """Process: plain object read."""
        return self.cluster.read(self.pool, oid, offset, length, client)

    def write_sync(self, oid: str, data: bytes, offset: int = 0) -> None:
        """Synchronous :meth:`write`."""
        self.cluster.run(self.write(oid, data, offset))

    def read_sync(self, oid: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Synchronous :meth:`read`."""
        return self.cluster.run(self.read(oid, offset, length))

    def client(self, name: str):
        """A new client host."""
        return self.cluster.client(name)


@dataclass
class DedupPotential:
    """Local vs global dedup ratios over the same stored data."""

    total_bytes: int = 0
    global_unique_bytes: int = 0
    local_unique_bytes: int = 0
    per_osd_unique: Dict[int, int] = field(default_factory=dict)
    per_osd_total: Dict[int, int] = field(default_factory=dict)

    @property
    def global_ratio(self) -> float:
        """Cluster-wide dedup ratio (what the paper's design achieves)."""
        if self.total_bytes == 0:
            return 0.0
        return 1.0 - self.global_unique_bytes / self.total_bytes

    @property
    def local_ratio(self) -> float:
        """Per-OSD dedup ratio (block-dedup-per-node baseline)."""
        if self.total_bytes == 0:
            return 0.0
        return 1.0 - self.local_unique_bytes / self.total_bytes


def analyze_dedup_potential(
    cluster: RadosCluster, pool: Pool, chunk_size: int
) -> DedupPotential:
    """Measure local vs global dedup ratio of the data stored in ``pool``.

    Each object is chunked at ``chunk_size``; a chunk is a duplicate
    when its fingerprint was seen before — within the same OSD for the
    local measure, anywhere for the global one.  Only primary copies are
    scanned (redundancy excluded).
    """
    result = DedupPotential()
    global_seen: Set[str] = set()
    local_seen: Dict[int, Set[str]] = {}
    chunker = StaticChunker(chunk_size)
    for oid in cluster.list_objects(pool):
        found = cluster.peek(pool, oid)
        if found is None:
            continue
        data = found[1].read()
        primary_id = found[0].osd_id
        result.total_bytes += len(data)
        result.per_osd_total[primary_id] = (
            result.per_osd_total.get(primary_id, 0) + len(data)
        )
        seen_here = local_seen.setdefault(primary_id, set())
        for span in chunker.chunk(data):
            fp = fingerprint(span.data)
            if fp not in global_seen:
                global_seen.add(fp)
                result.global_unique_bytes += span.length
            if fp not in seen_here:
                seen_here.add(fp)
                result.local_unique_bytes += span.length
                result.per_osd_unique[primary_id] = (
                    result.per_osd_unique.get(primary_id, 0) + span.length
                )
    return result


class InlineDedupStorage:
    """Inline (foreground) global deduplication baseline.

    The metadata object carries only the chunk map (nothing is cached);
    all data lives in chunk objects.  A write must therefore:

    1. read-modify-write any partially covered chunk (fetch the old
       chunk from the chunk pool first — Figure 5-(a)'s problem);
    2. fingerprint every chunk on the write path (client-visible
       latency);
    3. dereference/reference chunk objects synchronously;
    4. update the chunk map — all before the ack.
    """

    def __init__(
        self,
        cluster: Optional[RadosCluster] = None,
        config: Optional[DedupConfig] = None,
        metadata_redundancy=None,
        chunk_redundancy=None,
    ):
        self.cluster = cluster if cluster is not None else RadosCluster()
        self.tier = DedupTier(
            self.cluster,
            config,
            metadata_redundancy=metadata_redundancy,
            chunk_redundancy=chunk_redundancy,
            metadata_pool_name="inline-metadata",
            chunk_pool_name="inline-chunks",
        )
        self.config = self.tier.config
        #: The cluster's simulation clock.
        self.sim = self.cluster.sim

    def client(self, name: str):
        """A new client host."""
        return self.cluster.client(name)

    # The comparison baseline for the paper's original system sits outside
    # the fault model: its faults surface to the benchmark driver directly.
    def write(self, oid: str, data: bytes, offset: int = 0, client=None):
        """Process: inline-deduplicating write."""
        if not data:
            return
        tier = self.tier
        cs = tier.config.chunk_size
        cmap = yield from tier.load_chunk_map(oid)
        if cmap is None:
            cmap = ChunkMap(cs)
        key = tier.metadata_key(oid)
        primary = tier.cluster.primary(tier.metadata_pool, oid)
        end = offset + len(data)
        for idx in tier.chunker.aligned_range(offset, len(data)):
            cstart = idx * cs
            wstart, wend = max(offset, cstart), min(end, cstart + cs)
            entry = cmap.get(idx)
            old_id = entry.chunk_id if entry else ""
            new_len = max(entry.length if entry else 0, wend - cstart)
            buf = bytearray(new_len)
            if old_id and not (wstart == cstart and wend >= entry.end):
                # Partial write: read-modify-write against the old chunk.
                old = yield from tier.read_chunk(old_id, 0, entry.length, client)
                buf[: len(old)] = old
            buf[wstart - cstart : wend - cstart] = data[
                wstart - offset : wend - offset
            ]
            chunk_bytes = bytes(buf)
            # Fingerprint inline, on the write path.
            yield from primary.node.cpu.fingerprint(len(chunk_bytes))
            fp = fingerprint(chunk_bytes)
            ref = ChunkRef(tier.metadata_pool.pool_id, oid, cstart)
            if old_id != fp:
                batch = ChunkBatch()
                if old_id:
                    batch.deref(old_id, ref)
                batch.ref(fp, ref, chunk_bytes)
                yield from tier.commit_chunk_batch(batch, client)
            cmap.set(
                ChunkMapEntry(
                    offset=cstart,
                    length=new_len,
                    chunk_id=fp,
                    cached=False,
                    dirty=False,
                )
            )
        yield from tier.commit_map([(oid, cmap, Transaction().create(key))], client)
        yield tier.cluster.reply()
        tier.fg_window.note(len(data))

    def read(self, oid: str, offset: int = 0, length: Optional[int] = None, client=None):
        """Process: read via chunk-pool redirection (nothing is cached)."""
        tier = self.tier
        cmap = yield from tier.load_chunk_map(oid)
        if cmap is None:
            raise NoSuchObject(oid)
        size = cmap.logical_size()
        end = size if length is None else min(offset + length, size)
        if end <= offset:
            return b""
        cs = tier.config.chunk_size
        jobs = []
        for idx in tier.chunker.aligned_range(offset, end - offset):
            entry = cmap.get(idx)
            if entry is None:
                continue
            cstart = idx * cs
            sstart, send = max(offset, cstart), min(end, entry.end)
            if send <= sstart:
                continue
            jobs.append(
                (
                    sstart,
                    send - sstart,
                    tier.sim.process(
                        tier.read_chunk(entry.chunk_id, sstart - cstart, send - sstart, client)
                    ),
                )
            )
        buf = bytearray(end - offset)
        results = yield tier.sim.all_of([p for _s, _l, p in jobs])
        for (sstart, seg_len, _p), segment in zip(jobs, results):
            buf[sstart - offset : sstart - offset + seg_len] = segment[:seg_len]
        return bytes(buf)

    def write_sync(self, oid: str, data: bytes, offset: int = 0) -> None:
        """Synchronous :meth:`write`."""
        self.cluster.run(self.write(oid, data, offset))

    def read_sync(self, oid: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Synchronous :meth:`read`."""
        return self.cluster.run(self.read(oid, offset, length))

    def space_report(self):
        """Space accounting (same shape as the post-processing tier's)."""
        return self.tier.space_report()
