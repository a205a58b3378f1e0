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

This module also holds the only two ways a copy moves between OSDs —
:func:`_copy_replica` and :func:`_rebuild_shard`; the rebalancer and
scrub repair move copies through them too.  Sources are chosen by the
cluster's one holder rule, :meth:`RadosCluster._holders`, which the data
path reads by as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .ec import ReedSolomon, _payload_length, _shard_index, _shard_object, _user_xattrs
from .objectstore import ObjectKey, StoredObject
from .osd import OSD, OsdDownError, OsdFullError
from .pool import Pool
from .rados import RadosCluster, _pick_shards

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
class _ShardSources:
    """The inputs of a shard rebuild, snapshotted at one instant.

    Copy tasks run in parallel and may overwrite each other's inputs,
    so the ``k`` source shards are pinned when the work is planned.
    The object's user xattrs and omap ride along: every shard carries
    them, so a rebuilt shard must too or the object's metadata (its
    dedup refcounts) is silently lost.
    """

    codec: ReedSolomon
    length: int
    #: (shard index, holder, shard bytes), ``k`` of them, by index.
    sources: List[Tuple[int, OSD, bytes]]
    xattrs: Dict[str, bytes]
    omap: Dict[str, bytes]

    def shard(self, index: int) -> StoredObject:
        """Shard ``index`` as it must be stored."""
        slots: List[Optional[bytes]] = [None] * self.codec.n
        for idx, _holder, shard in self.sources:
            slots[idx] = shard
        data = self.codec.reconstruct_shard(slots, index, self.length)
        return _shard_object(self.length, index, data, self.xattrs, self.omap)


@dataclass
class _CopyTask:
    key: ObjectKey
    target: OSD
    source: Optional[OSD] = None  # replicated copy
    #: True when overwriting a stale copy on a restarted OSD (counted
    #: as reconciliation, not plain recovery).
    reconcile: bool = False
    shards: Optional[_ShardSources] = None  # EC rebuild of slot ``index``
    index: int = -1


def _same_content(a: StoredObject, b: StoredObject) -> bool:
    """Whether two replicas carry identical payload and metadata."""
    return (
        a.size == b.size
        and a.xattrs == b.xattrs
        and a.omap == b.omap
        and a.data == b.data
    )


def _snapshot_shards(pool: Pool, key: ObjectKey, holders: List[OSD]) -> Optional[_ShardSources]:
    """The ``k`` source shards an EC read of ``holders``
    (:meth:`RadosCluster._holders` order) would decode — never a
    restarted OSD's shard beside clean ones (:func:`_pick_shards`) —
    with the first holder's metadata; ``None`` when fewer than ``k``
    are reachable."""
    picked = _pick_shards(pool, key, holders)
    if len(picked) < pool.codec.k:
        return None
    meta = holders[0].store.get(key)
    return _ShardSources(
        codec=pool.codec,
        length=_payload_length(meta),
        sources=[(idx, osd, osd.store.read(key)) for idx, osd in picked],
        xattrs=_user_xattrs(meta),
        omap=dict(meta.omap),
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
    everywhere = list(cluster.osds.values())
    for pool in cluster.pools.values():
        union = _object_union(cluster, pool)
        for pg, names in union.items():
            acting_ids = pool.acting_set(pg)
            acting = [cluster.osds[i] for i in acting_ids]
            serving = cluster._acting_osds(pool, pg)
            for name in names:
                key = ObjectKey(pool.pool_id, pg, name)
                copies = [o for o in everywhere if o.up and o.store.exists(key)]
                holders = cluster._holders(pool, key, copies)
                if copies and not holders:
                    # Deleted while these restarted copies were down:
                    # drop them instead of resurrecting the object.
                    deletions.extend((osd, key) for osd in copies)
                    continue
                if pool.is_ec:
                    shards = _snapshot_shards(pool, key, holders)
                    if shards is None:
                        lost += 1
                        continue
                    for idx, target in enumerate(acting):
                        if not target.up:
                            continue
                        # Right slot on a restarted OSD: possibly stale
                        # bytes, so rebuild it from clean sources.
                        reconcile = target.store.exists(key) and (
                            _shard_index(target.store.get(key)) == idx
                        )
                        if reconcile and not target.needs_backfill:
                            continue
                        tasks.append(
                            _CopyTask(
                                key=key,
                                target=target,
                                reconcile=reconcile,
                                shards=shards,
                                index=idx,
                            )
                        )
                else:
                    if not holders:
                        lost += 1
                        continue
                    source = holders[0]
                    # A stray parked outside the acting set misses every
                    # write from then on: when it differs from the copy
                    # reads are served from, that copy is the source.
                    served = next((o for o in holders if o in serving), source)
                    if served.needs_backfill == source.needs_backfill and not (
                        served is source
                        or _same_content(served.store.get(key), source.store.get(key))
                    ):
                        source = served
                    for target in acting:
                        if not target.up or target is source:
                            continue
                        reconcile = target.store.exists(key)
                        if reconcile and (
                            not target.needs_backfill
                            or _same_content(
                                target.store.get(key), source.store.get(key)
                            )
                        ):
                            continue
                        tasks.append(
                            _CopyTask(
                                key=key, target=target, source=source, reconcile=reconcile
                            )
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
        if task.shards is not None:
            moved = yield from _rebuild_shard(
                cluster, task.key, task.target, task.shards,
                task.shards.shard(task.index),
            )
        elif task.source.up and task.source.store.exists(task.key):
            moved = yield from _copy_replica(
                cluster, task.key, task.source, task.target
            )
        else:  # the source failed or the object was deleted since planning
            stats.tasks_failed += 1
            return
        if task.reconcile:
            stats.objects_reconciled += 1
        else:
            stats.objects_recovered += 1
        stats.bytes_moved += moved
    except (OsdDownError, OsdFullError):
        stats.tasks_failed += 1
    except Exception as exc:
        if not getattr(exc, "retryable", False):
            raise
        stats.tasks_failed += 1
    finally:
        cluster.write_locks.release(held)


def _copy_replica(cluster: RadosCluster, key: ObjectKey, source: OSD, target: OSD):
    """Process: copy ``source``'s replica of ``key`` onto ``target`` —
    read it, move it across hosts, push it; returns the bytes moved.

    The one body behind recovery, rebalance and scrub repair of a
    replicated object.
    """
    obj = source.store.get(key).clone()
    # Punched ranges (evicted cached chunks) cost nothing to move: only
    # allocated bytes hit the disk and the wire.
    moved = obj.footprint()
    yield from source.disk.read(max(moved, 1))
    if source.node is not target.node:
        yield from cluster._transfer(source.node.nic, target.node.nic, moved)
    yield from target.execute_push(key, obj)
    return moved


def _charge_shard_read(cluster: RadosCluster, holder: OSD, target: OSD, nbytes: int):
    """Charge disk + network time for moving one source shard."""
    yield from holder.disk.read(max(nbytes, 1))
    if holder.node is not target.node:
        yield from cluster._transfer(holder.node.nic, target.node.nic, nbytes)


def _rebuild_shard(
    cluster: RadosCluster,
    key: ObjectKey,
    target: OSD,
    shards: _ShardSources,
    obj: StoredObject,
):
    """Process: install ``obj`` (``shards.shard(i)``) on ``target`` —
    read the ``k`` sources in parallel, decode on the target's CPU,
    push; returns the shard bytes moved.

    The one body behind recovery and rebalance of an EC shard.
    """
    reads = [
        cluster.sim.process(_charge_shard_read(cluster, holder, target, len(shard)))
        for _idx, holder, shard in shards.sources
    ]
    yield cluster.sim.all_of(reads)
    yield from target.node.cpu.execute(target.node.cpu.spec.ec_time(shards.length))
    yield from target.execute_push(key, obj)
    return obj.size


def recover_sync(cluster: RadosCluster) -> RecoveryStats:
    """Synchronous :func:`recover` (drives the event loop)."""
    return cluster.run(recover(cluster))
