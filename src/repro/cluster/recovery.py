"""Data recovery and rebalancing.

When an OSD fails (or is added), CRUSH remaps the affected placement
groups and the cluster heals itself by copying replicated objects — or
reconstructing erasure-coded shards — onto the new acting sets.  The
paper's Table 3 measures exactly this: with deduplication, the bytes
that must be recovered shrink by the dedup ratio, so recovery completes
proportionally faster.

Recovery here is a real data movement on the simulated devices: reads at
the sources, network transfers, writes at the targets, all contending
with whatever else is running.  The returned :class:`RecoveryStats`
reports duration in *simulated* seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .objectstore import ObjectKey, StoredObject
from .osd import OSD, OsdDownError, OsdFullError
from .pool import Pool
from .rados import (
    RadosCluster,
    _EC_CRC_XATTR,
    _EC_IDX_XATTR,
    _EC_LEN_XATTR,
    _shard_crc,
)

__all__ = ["RecoveryStats", "plan_recovery", "recover", "recover_sync"]


@dataclass
class RecoveryStats:
    """Outcome of one recovery pass."""

    objects_recovered: int = 0
    bytes_moved: int = 0
    objects_lost: int = 0
    objects_deleted: int = 0
    #: Stale copies on restarted (needs_backfill) OSDs overwritten from
    #: a continuously-up replica.
    objects_reconciled: int = 0
    #: Copy/reconstruct tasks abandoned because a device failed mid-task
    #: (a later recovery pass picks the object up again).
    tasks_failed: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        """Simulated seconds the recovery took."""
        return self.finished_at - self.started_at


@dataclass
class _CopyTask:
    key: ObjectKey
    target: OSD
    source: Optional[OSD] = None  # replicated copy
    #: True when overwriting a stale copy on a restarted OSD (counted
    #: as reconciliation, not plain recovery).
    reconcile: bool = False
    ec_pool: Optional[Pool] = None  # EC reconstruction
    ec_index: int = -1
    ec_length: int = 0
    #: Snapshot of (shard_index, holder, shard_bytes) captured at plan
    #: time: recovery tasks run in parallel and may overwrite each
    #: other's inputs, so sources are pinned when the plan is made (the
    #: plan is computed at a single simulated instant, so the snapshot
    #: is consistent).
    ec_sources: List[Tuple[int, OSD, bytes]] = field(default_factory=list)
    #: User-level metadata snapshotted alongside the shards: every EC
    #: shard duplicates the object's xattrs/omap (that is what makes
    #: dedup refcounts self-contained), so a reconstructed shard must
    #: carry them too or the object's metadata is silently lost.
    ec_xattrs: Dict[str, bytes] = field(default_factory=dict)
    ec_omap: Dict[str, bytes] = field(default_factory=dict)


def _same_content(a: StoredObject, b: StoredObject) -> bool:
    """Whether two replicas carry identical payload and metadata."""
    return (
        a.size == b.size
        and a.xattrs == b.xattrs
        and a.omap == b.omap
        and a.data == b.data
    )


def _object_union(cluster: RadosCluster, pool: Pool) -> Dict[int, Set[str]]:
    """pg -> object names, unioned over every OSD (up or down).

    Down OSDs' contents are unreachable as recovery *sources*, but they
    still witness that an object existed, so an object whose every copy
    sits on dead disks is reported as lost rather than silently dropped.
    """
    by_pg: Dict[int, Set[str]] = {}
    for osd in cluster.osds.values():
        for key in osd.store.keys():
            if key.pool_id == pool.pool_id:
                by_pg.setdefault(key.pg, set()).add(key.name)
    return by_pg


def plan_recovery(cluster: RadosCluster) -> Tuple[List[_CopyTask], List[Tuple[OSD, ObjectKey]], int]:
    """Compute the copy/reconstruct/delete work implied by the current map.

    Returns ``(copy_tasks, deletions, lost)`` where ``lost`` counts
    objects with no surviving source.
    """
    tasks: List[_CopyTask] = []
    deletions: List[Tuple[OSD, ObjectKey]] = []
    lost = 0
    for pool in cluster.pools.values():
        union = _object_union(cluster, pool)
        for pg, names in union.items():
            acting_ids = pool.acting_set(pg)
            acting = [cluster.osds[i] for i in acting_ids]
            for name in names:
                key = ObjectKey(pool.pool_id, pg, name)
                holders = [
                    osd
                    for osd in cluster.osds.values()
                    if osd.up and osd.store.exists(key)
                ]
                # Copies on continuously-up OSDs are authoritative; a
                # restarted (needs_backfill) OSD's copy may predate the
                # outage or outlive a deletion that happened during it.
                clean_holders = [o for o in holders if not o.needs_backfill]
                if holders and not clean_holders:
                    witnesses = [
                        o for o in acting if o.up and not o.needs_backfill
                    ]
                    if witnesses:
                        # Every continuously-up acting replica lacks the
                        # object: it was deleted while the stale holders
                        # were down.  Drop the lingering copies instead
                        # of resurrecting the object.
                        for osd in holders:
                            deletions.append((osd, key))
                        continue
                if pool.is_ec:
                    # Snapshot one source shard per distinct index,
                    # preferring clean holders so a stale shard is never
                    # mixed into a decode when enough fresh ones exist.
                    by_idx: Dict[int, Tuple[OSD, bytes]] = {}
                    for osd in clean_holders + [
                        o for o in holders if o.needs_backfill
                    ]:
                        idx = int(
                            osd.store.getxattr(key, _EC_IDX_XATTR).decode("ascii")
                        )
                        by_idx.setdefault(idx, (osd, osd.store.read(key)))
                    if len(by_idx) < pool.codec.k:
                        lost += 1
                        continue
                    meta_src = (clean_holders or holders)[0].store.get(key)
                    length = int(meta_src.xattrs[_EC_LEN_XATTR].decode("ascii"))
                    ec_xattrs = {
                        n: v
                        for n, v in meta_src.xattrs.items()
                        if n not in (_EC_LEN_XATTR, _EC_IDX_XATTR, _EC_CRC_XATTR)
                    }
                    ec_omap = dict(meta_src.omap)
                    sources = [
                        (idx, osd, shard)
                        for idx, (osd, shard) in sorted(by_idx.items())
                    ][: pool.codec.k]
                    for idx, target in enumerate(acting):
                        if not target.up:
                            continue
                        reconcile = False
                        if target.store.exists(key):
                            have = int(
                                target.store.getxattr(key, _EC_IDX_XATTR).decode("ascii")
                            )
                            if have == idx:
                                if not target.needs_backfill:
                                    continue
                                # Right slot, possibly stale bytes:
                                # rebuild the shard from clean sources.
                                reconcile = True
                        tasks.append(
                            _CopyTask(
                                key=key,
                                target=target,
                                reconcile=reconcile,
                                ec_pool=pool,
                                ec_index=idx,
                                ec_length=length,
                                ec_sources=sources,
                                ec_xattrs=ec_xattrs,
                                ec_omap=ec_omap,
                            )
                        )
                else:
                    if not holders:
                        lost += 1
                        continue
                    source = (clean_holders or holders)[0]
                    for target in acting:
                        if not target.up:
                            continue
                        if target.store.exists(key):
                            if target is source or not target.needs_backfill:
                                continue
                            if _same_content(
                                target.store.get(key), source.store.get(key)
                            ):
                                continue
                            tasks.append(
                                _CopyTask(
                                    key=key,
                                    target=target,
                                    source=source,
                                    reconcile=True,
                                )
                            )
                        else:
                            tasks.append(
                                _CopyTask(key=key, target=target, source=source)
                            )
                # Objects parked on OSDs no longer in the acting set.
                for osd in holders:
                    if osd.osd_id not in acting_ids:
                        deletions.append((osd, key))
    return tasks, deletions, lost


def recover(cluster: RadosCluster, stats: Optional[RecoveryStats] = None):
    """Process: heal the cluster to match the current map; returns stats.

    Restarted OSDs (``needs_backfill``) are reconciled against the
    continuously-up replicas and their flags cleared, so by the time
    this returns every up replica of every object is identical again.
    """
    stats = stats if stats is not None else RecoveryStats()
    stats.started_at = cluster.sim.now
    tasks, deletions, lost = plan_recovery(cluster)
    stats.objects_lost = lost
    jobs = [cluster.sim.process(_run_task(cluster, task, stats)) for task in tasks]
    if jobs:
        yield cluster.sim.all_of(jobs)
    for osd, key in deletions:
        # The safety check and the delete inspect holder state that the
        # rebalance engine mutates under the per-object write lock; while
        # any PG is mid-remap, take the same lock here (mirrors _run_task)
        # so a migration can never interleave between the check and the
        # delete.  With no remaps active nothing else races recovery.
        held: list = []
        try:
            if cluster._active_remaps:
                yield cluster.write_locks.acquire(key, held)
            if not osd.store.exists(key):
                continue
            if not _safe_to_delete(cluster, osd, key, stats):
                # A copy task feeding this deletion failed (target died
                # mid-push): deleting now could drop the last real copy.
                # Keep it; the next recovery pass re-plans both sides.
                continue
            osd.store.delete_object(key)
            stats.objects_deleted += 1
        finally:
            cluster.write_locks.release(held)
    if stats.tasks_failed == 0:
        for osd in cluster.osds.values():
            if osd.up and osd.needs_backfill:
                osd.needs_backfill = False
    # PGs healed straight to the current map no longer need their
    # old+new union view; drop any remap whose old side has drained.
    cluster.retire_remaps()
    # Healing may have replaced object state (reconciling stale copies,
    # re-replicating from survivors): caches decoded from the old state
    # must not outlive it.
    cluster.notify_repaired()
    stats.finished_at = cluster.sim.now
    return stats


def _safe_to_delete(
    cluster: RadosCluster, osd: OSD, key: ObjectKey, stats: RecoveryStats
) -> bool:
    """Re-derive, at execution time, that dropping this copy is safe.

    The deletion was planned before the copy tasks ran; if tasks failed
    the acting set may not actually own the object yet.  Safe when the
    clean up acting replicas hold at least ``min_size`` copies/shards
    (the acting set owns it), or — the deleted-while-down case — when
    clean acting witnesses exist, none holds it, and no task failed.
    """
    pool = next(
        p for p in cluster.pools.values() if p.pool_id == key.pool_id
    )
    acting = [cluster.osds[i] for i in pool.acting_set(key.pg)]
    clean = [
        o for o in acting if o.up and not o.needs_backfill and o is not osd
    ]
    holders = [o for o in clean if o.store.exists(key)]
    if len(holders) >= pool.redundancy.min_size:
        return True
    if not holders:
        return bool(clean) and stats.tasks_failed == 0
    return False


def _run_task(cluster: RadosCluster, task: _CopyTask, stats: RecoveryStats):
    """Process: one recovery task, tolerant of devices failing mid-task.

    A source or target dying (or an injected transient error / full
    OSD) abandons this task only — the rest of the recovery proceeds,
    and the next pass re-plans whatever is still missing.

    While any PG is mid-remap the task runs under the object's write
    lock: a concurrent rebalance pass (or a client write routed through
    the union view) mutates holder sets under that lock, and an
    unlocked recovery push could interleave with it.  With no remaps
    active nothing else races recovery, so the lock is skipped and the
    legacy task parallelism (and its device timing) is preserved.
    """
    held: list = []
    try:
        if cluster._active_remaps:
            yield cluster.write_locks.acquire(task.key, held)
        if task.ec_pool is None:
            yield from _copy_object(cluster, task, stats)
        else:
            yield from _reconstruct_shard(cluster, task, stats)
    except (OsdDownError, OsdFullError):
        stats.tasks_failed += 1
    except Exception as exc:
        if not getattr(exc, "retryable", False):
            raise
        stats.tasks_failed += 1
    finally:
        cluster.write_locks.release(held)


def _charge_shard_read(cluster: RadosCluster, holder: OSD, target: OSD, nbytes: int):
    """Charge disk + network time for moving one source shard."""
    yield from holder.disk.read(max(nbytes, 1))
    if holder.node is not target.node:
        yield from cluster._transfer(holder.node.nic, target.node.nic, nbytes)


def _copy_object(cluster: RadosCluster, task: _CopyTask, stats: RecoveryStats):
    source, target, key = task.source, task.target, task.key
    if not source.up or not source.store.exists(key):  # raced with a failure/deletion
        stats.tasks_failed += 1
        return
    obj = source.store.get(key).clone()
    # Punched ranges (evicted cached chunks) cost nothing to move: only
    # allocated bytes hit the disk and the wire.
    moved = obj.footprint()
    source.op_reads += 1
    yield from source.disk.read(max(moved, 1))
    if source.node is not target.node:
        yield from cluster._transfer(source.node.nic, target.node.nic, moved)
    yield from target.execute_push(key, obj)
    if task.reconcile:
        stats.objects_reconciled += 1
    else:
        stats.objects_recovered += 1
    stats.bytes_moved += moved


def _reconstruct_shard(cluster: RadosCluster, task: _CopyTask, stats: RecoveryStats):
    pool, key, target, idx = task.ec_pool, task.key, task.target, task.ec_index
    length = task.ec_length
    slots: List[Optional[bytes]] = [None] * pool.codec.n
    reads = []
    for src_idx, holder, shard in task.ec_sources:
        slots[src_idx] = shard
        reads.append(
            cluster.sim.process(_charge_shard_read(cluster, holder, target, len(shard)))
        )
    yield cluster.sim.all_of(reads)
    yield from target.node.cpu.execute(target.node.cpu.spec.ec_time(length))
    shard = pool.codec.reconstruct_shard(slots, idx, length)
    obj = StoredObject(
        data=shard,
        xattrs={
            **task.ec_xattrs,
            _EC_LEN_XATTR: str(length).encode("ascii"),
            _EC_IDX_XATTR: str(idx).encode("ascii"),
            _EC_CRC_XATTR: _shard_crc(shard),
        },
        omap=dict(task.ec_omap),
    )
    yield from target.execute_push(key, obj)
    if task.reconcile:
        stats.objects_reconciled += 1
    else:
        stats.objects_recovered += 1
    stats.bytes_moved += len(shard)


def recover_sync(cluster: RadosCluster) -> RecoveryStats:
    """Synchronous :func:`recover` (drives the event loop)."""
    return cluster.run(recover(cluster))
