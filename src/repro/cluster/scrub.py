"""Replica scrub and repair (the substrate's deep-scrub analogue).

Replicated pools: every copy of an object must be byte- and
metadata-identical across its acting set; a divergent or missing copy is
repaired from the reference copy — the first of the cluster's holder
rule (:meth:`RadosCluster._holders`), which convergence sources by and
reads are served by.  EC pools: the stored shards must be exactly the
codec's encoding of the decoded payload (any single corrupt shard is
detected and re-derivable from the others).

Because the dedup tier's chunk maps and reference records live in
ordinary object metadata (self-contained objects), this scrub covers
dedup state with no extra code — which is precisely the paper's
argument for the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .ec import _crc_ok, _payload_length, _shard_index
from .pool import Pool
from .rados import RadosCluster
from .converge import _same_content, converge

__all__ = ["ReplicaScrubReport", "scrub_pool", "scrub_pool_sync", "repair_pool", "repair_pool_sync"]


@dataclass
class ReplicaScrubReport:
    """Findings of one pool scrub."""

    objects_checked: int = 0
    #: (oid, osd_id) pairs whose copy diverges from the reference copy.
    inconsistent: List[Tuple[str, int]] = field(default_factory=list)
    #: (oid, osd_id) pairs where an acting OSD lacks its copy/shard.
    missing: List[Tuple[str, int]] = field(default_factory=list)
    #: (oid, shard_index) pairs whose EC shard does not match re-encoding.
    bad_shards: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every object is fully consistent."""
        return not (self.inconsistent or self.missing or self.bad_shards)


def scrub_pool(cluster: RadosCluster, pool: Pool):
    """Process: verify replica/shard consistency of every object."""
    report = ReplicaScrubReport()
    for oid in cluster.list_objects(pool):
        key = cluster.object_key(pool, oid)
        acting = [cluster.osds[i] for i in pool.acting_set_for(oid)]
        holders = cluster._holders(pool, key, acting)
        if not holders:
            continue
        report.objects_checked += 1
        for osd in acting:
            if osd.up and not osd.store.exists(key):
                report.missing.append((oid, osd.osd_id))
        if pool.is_ec:
            yield from _scrub_ec_object(cluster, pool, oid, key, holders, report)
        else:
            want = holders[0].store.get(key)
            yield from holders[0].disk.read(max(want.footprint(), 1))
            for osd in holders[1:]:
                obj = osd.store.get(key)
                yield from osd.disk.read(max(obj.footprint(), 1))
                if not _same_content(obj, want):
                    report.inconsistent.append((oid, osd.osd_id))
    return report


def _scrub_ec_object(cluster, pool, oid, key, holders, report):
    length = _payload_length(holders[0].store.get(key))
    by_idx = {}
    bad = set()
    for osd in holders:
        obj = osd.store.get(key)
        yield from osd.disk.read(max(obj.size, 1))
        idx = _shard_index(obj)
        shard = obj.read()
        by_idx[idx] = shard
        # Per-shard checksum localises corruption unambiguously — with
        # only one parity, consistency voting alone cannot tell which
        # shard lies (any k-subset explains a single corruption).
        if not _crc_ok(obj, shard):
            bad.add(idx)
    good = {idx: s for idx, s in by_idx.items() if idx not in bad}
    if len(good) >= pool.codec.k:
        # Cross-check parity coherence of the checksum-clean shards.
        primary = holders[0]
        yield from primary.node.cpu.execute(primary.node.cpu.spec.ec_time(length))
        slots = [None] * pool.codec.n
        for idx, shard in list(good.items())[: pool.codec.k]:
            slots[idx] = shard
        try:
            expected = pool.codec.encode(pool.codec.decode(slots, length))
            for idx, shard in good.items():
                if shard != expected[idx]:
                    bad.add(idx)
        except ValueError:
            bad.update(good)
    for idx in sorted(bad):
        report.bad_shards.append((oid, idx))


def scrub_pool_sync(cluster: RadosCluster, pool: Pool) -> ReplicaScrubReport:
    """Synchronous :func:`scrub_pool`."""
    return cluster.run(scrub_pool(cluster, pool))


def repair_pool(cluster: RadosCluster, pool: Pool, report: ReplicaScrubReport):
    """Process: repair the findings of a prior scrub; returns the copies
    convergence moved.

    The bad EC shards the scrub found are dropped; then
    :func:`~repro.cluster.converge.converge` rewrites every missing,
    divergent or dropped copy from the holders reads are served by
    (the first of ``RadosCluster._holders``, the copy scrub compared
    against), under each object's write lock.  Convergence runs over the
    whole cluster, so it also settles whatever else is unclean, in any
    pool, and the count includes those copies.
    """
    for oid, idx in report.bad_shards:
        key = cluster.object_key(pool, oid)
        for osd in cluster.osds.values():
            if osd.up and osd.store.exists(key) and _shard_index(osd.store.get(key)) == idx:
                osd.store.delete_object(key)
    stats = yield from converge(cluster)
    return stats.objects_moved


def repair_pool_sync(cluster: RadosCluster, pool: Pool, report: ReplicaScrubReport) -> int:
    """Synchronous :func:`repair_pool`."""
    return cluster.run(repair_pool(cluster, pool, report))
