"""One PG-convergence engine: recovery, backfill and rebalance.

An OSD failing or restarting, a host joining (:meth:`RadosCluster.expand`)
or an OSD draining (:meth:`RadosCluster.decommission_osd`) only marks
placement groups unclean: ``RadosCluster._unclean`` records since when,
and which earlier members may still hold each PG's data (reads and
writes route over them too).  :func:`converge` then drives every PG to
its CRUSH placement with one per-PG step, :func:`converge_pg`, built on
one per-object diff, :func:`_diff`:

* *desired* — the PG's CRUSH acting set, whose up members are the targets;
* *holders* — :meth:`RadosCluster._holders`, the clean-first rule every
  read uses, over the PG's routing candidates and then every other OSD.

The step copies (:func:`_copy_replica`) or rebuilds (:func:`_rebuild_shard`)
what *desired* lacks and trims every other copy once *desired* holds the
object, all under the object's write lock.  A PG's state
(:func:`pg_state`) is the name of the same diff; :func:`placement_report`
lists it.

The paper's Table 3 measures this engine.  Chunk objects carry their
reference counts in their own xattrs (§4.1), so moving an object moves
its dedup metadata, and the bytes to recover shrink by the dedup ratio.
Every move is a real data movement on the simulated devices (source
reads, transfers, target pushes), contending with foreground I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from .ec import ReedSolomon, _payload_length, _shard_index, _shard_object, _user_xattrs
from .objectstore import ObjectKey, StoredObject
from .osd import OSD, OsdDownError, OsdFullError
from .pool import Pool
from .rados import RadosCluster, _pick_shards, _Unclean

__all__ = [
    "ConvergeStats",
    "PGState",
    "converge",
    "converge_pg",
    "converge_sync",
    "pg_state",
    "placement_report",
    "placement_skew",
]


class PGState(Enum):
    """A placement group's state: the name of its convergence diff."""

    ACTIVE_CLEAN = "active+clean"
    #: Some acting member is down or awaits backfill, or some object has
    #: fewer copies than the pool keeps.
    ACTIVE_DEGRADED = "active+degraded"
    #: Every object has its copies, but not (only) where CRUSH wants them.
    ACTIVE_REMAPPED = "active+remapped"
    #: Fewer than ``min_size`` acting members are up: no write commits.
    INACTIVE = "inactive"


@dataclass
class ConvergeStats:
    """Outcome of :func:`converge`: one bag for recovery, backfill and
    rebalance alike."""

    #: PGs that left the unclean record: their data sits where CRUSH wants it.
    pgs_converged: int = 0
    #: Replica copies and EC shards pushed onto acting members.
    objects_moved: int = 0
    #: Payload bytes pushed (the traffic ``rate_limit_bps`` paces).
    bytes_moved: int = 0
    #: ``bytes_moved`` by pool name.
    bytes_by_pool: Dict[str, int] = field(default_factory=dict)
    #: Copies deleted: parked outside the acting set, or left on restarted
    #: OSDs by an object deleted while they were down.
    objects_trimmed: int = 0
    #: Objects of the last pass with no readable source (every copy on a
    #: down OSD, or fewer than ``k`` shards).
    objects_lost: int = 0
    #: Moves abandoned because a device failed or faulted mid-move; a
    #: later pass retries them.
    tasks_failed: int = 0
    #: Passes over the PGs; the loop stops after one that changes nothing.
    passes: int = 0
    #: Longest per-PG degraded window: from the PG going unclean to its
    #: convergence, in simulated seconds.
    degraded_seconds: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        """Simulated seconds the convergence took."""
        return self.finished_at - self.started_at

    def summary_lines(self) -> List[str]:
        """Human-readable counter dump (CLI output)."""
        by_pool = ", ".join(
            f"{name}: {nbytes / 1024:.0f}KiB"
            for name, nbytes in sorted(self.bytes_by_pool.items())
        )
        return [
            f"PGs converged      {self.pgs_converged} in {self.passes} pass(es)",
            f"copies moved       {self.objects_moved}"
            f" ({self.bytes_moved / 1024:.0f} KiB" + (f"; {by_pool}" if by_pool else "") + ")",
            f"copies trimmed     {self.objects_trimmed}",
            f"objects lost       {self.objects_lost}",
            f"tasks failed       {self.tasks_failed}",
            f"degraded window    {self.degraded_seconds:.3f}s (longest PG)",
        ]


@dataclass
class _ShardSources:
    """The inputs of a shard rebuild, snapshotted at one instant.

    An object's targets are rebuilt in parallel, and a target may also
    be a source, so the ``k`` source shards are pinned before any push.
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


def _same_content(a: StoredObject, b: StoredObject) -> bool:
    """Whether two copies carry identical payload and metadata."""
    return a.size == b.size and a.xattrs == b.xattrs and a.omap == b.omap and a.data == b.data


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


# -- the diff -----------------------------------------------------------------


@dataclass
class _Diff:
    """What converging one object needs, computed at map time."""

    #: The up copies in read order (:meth:`RadosCluster._holders`).
    holders: List[OSD]
    #: ``(slot, up acting member)`` pairs lacking their copy or shard, or
    #: holding a wrong one.
    targets: List[Tuple[int, OSD]]
    #: Up copies no slot wants: parked outside the acting set, or left by
    #: an object deleted while they were down.
    extras: List[OSD]
    #: No readable source: every copy is down, or fewer than ``k`` shards.
    lost: bool
    #: The EC sources, when the diff already needed them.
    shards: Optional[_ShardSources] = None

    @property
    def settled(self) -> bool:
        """Whether the object's up copies sit exactly, and identically, on
        its up acting members.

        Copies on down OSDs do not count: a down acting member keeps its
        PG unclean anyway, and an OSD outside the acting set rejoins
        flagged, so its copies are trimmed, never served, once it is up.
        """
        return not (self.targets or self.extras or self.lost)


def _diff(cluster: RadosCluster, pool: Pool, key: ObjectKey, acting: List[OSD]) -> _Diff:
    """Map-time: ``key``'s copies against its acting set, in slot order."""
    routing = cluster._acting_osds(pool, key.pg)
    seen = {osd.osd_id for osd in routing}
    copies = [
        osd
        for osd in routing + [o for o in cluster.osds.values() if o.osd_id not in seen]
        if osd.store.exists(key)
    ]
    holders = cluster._holders(pool, key, copies)
    if not holders:
        # Restarted copies of an object deleted while they were down, or
        # only unreachable ones.
        up = [osd for osd in copies if osd.info.up]
        return _Diff(holders, [], up, lost=not up)
    extras = [osd for osd in holders if osd not in acting]
    if not pool.is_ec:
        want = holders[0].store.get(key)
        targets = [
            (idx, osd)
            for idx, osd in enumerate(acting)
            if osd.info.up
            and osd is not holders[0]
            and not (osd.store.exists(key) and _same_content(osd.store.get(key), want))
        ]
        return _Diff(holders, targets, extras, lost=False)
    if len(_pick_shards(pool, key, holders)) < pool.codec.k:
        return _Diff(holders, [], extras, lost=True)
    shards = None
    targets = []
    for idx, osd in enumerate(acting):
        if not osd.info.up:
            continue
        if osd.store.exists(key) and _shard_index(osd.store.get(key)) == idx:
            if not osd.needs_backfill:
                continue
            # A restarted OSD's shard may predate a stripe it missed.
            shards = shards or _snapshot_shards(pool, key, holders)
            if _same_content(osd.store.get(key), shards.shard(idx)):
                continue
        targets.append((idx, osd))
    return _Diff(holders, targets, extras, False, shards)


def _names(cluster: RadosCluster, pool: Pool, pg: int) -> List[str]:
    """The objects of one PG that any OSD, up or down, holds."""
    return sorted(
        {key.name for osd in cluster.osds.values() for key in osd.store.keys_in_pg(pool.pool_id, pg)}
    )


def _survey(cluster: RadosCluster, pool: Pool, pg: int) -> Tuple[PGState, List[str]]:
    """Map-time: the PG's state and what keeps it from clean."""
    acting = [cluster.osds[i] for i in pool.acting_set(pg)]
    where = f"{pool.name}/pg {pg}"
    problems = [f"{where}: osd.{osd.osd_id} is down" for osd in acting if not osd.info.up]
    problems += [
        f"{where}: osd.{osd.osd_id} awaits backfill"
        for osd in acting
        if osd.info.up and osd.needs_backfill
    ]
    degraded = bool(problems)
    for name in _names(cluster, pool, pg):
        diff = _diff(cluster, pool, ObjectKey(pool.pool_id, pg, name), acting)
        at = f"{pool.name}/{name}"
        if diff.lost:
            problems.append(f"{at}: no readable copy")
        problems += [f"{at}: osd.{osd.osd_id} lacks its copy" for _idx, osd in diff.targets]
        problems += [f"{at}: stray copy on osd.{osd.osd_id}" for osd in diff.extras]
        degraded = degraded or diff.lost or len(diff.holders) < len(acting)
    if sum(osd.info.up for osd in acting) < pool.redundancy.min_size:
        return PGState.INACTIVE, problems
    if degraded:
        return PGState.ACTIVE_DEGRADED, problems
    return (PGState.ACTIVE_REMAPPED if problems else PGState.ACTIVE_CLEAN), problems


def pg_state(cluster: RadosCluster, pool: Pool, pg: int) -> PGState:
    """Map-time: the state of one placement group (see :class:`PGState`)."""
    return _survey(cluster, pool, pg)[0]


def placement_report(cluster: RadosCluster) -> List[str]:
    """Map-time placement audit: why each PG is not ``active+clean``
    (``[]`` exactly when every PG is).

    Clean means every acting member is up and trusted (none awaits
    backfill) and every object's up copies sit exactly on them: no stray
    copy, replicas byte-identical to the copy reads are served from, EC
    shards in the slot their index demands.
    """
    problems: List[str] = []
    for pool in cluster.pools.values():
        for pg in range(pool.pg_num):
            problems += _survey(cluster, pool, pg)[1]
    return problems


# -- the step and the loop ------------------------------------------------------


def converge(
    cluster: RadosCluster,
    rate_limit_bps: Optional[float] = None,
    stats: Optional[ConvergeStats] = None,
):
    """Process: drive every PG to its CRUSH placement; returns the stats
    (``stats``, when given, accumulates across runs).

    Passes over every PG (:func:`_pass`) until one changes nothing: every
    PG converged, or what is left waits on a down OSD.  Then each
    restarted OSD that every PG has reconciled is trusted again (its
    ``needs_backfill`` flag cleared, see :func:`_unreconciled`), and the
    layers caching decoded objects are told copies were rewritten.  With
    ``rate_limit_bps`` objects move one at a time, each followed by a
    ``nbytes / rate`` sleep so foreground I/O keeps its share of the
    devices; without it every object moves at once (Table 3's recovery).
    """
    if rate_limit_bps is not None and rate_limit_bps <= 0:
        raise ValueError(f"rate_limit_bps must be positive, got {rate_limit_bps}")
    stats = stats if stats is not None else ConvergeStats()
    if stats.passes == 0:
        stats.started_at = cluster.sim.now
    while (yield from _pass(cluster, stats, rate_limit_bps)):
        pass
    flagged = [osd for osd in cluster.osds.values() if osd.info.up and osd.needs_backfill]
    if flagged:
        keep = _unreconciled(cluster)
        for osd in flagged:
            if osd.osd_id not in keep:
                osd.needs_backfill = False
    cluster.notify_repaired()
    stats.finished_at = cluster.sim.now
    return stats


def converge_sync(cluster: RadosCluster, rate_limit_bps: Optional[float] = None) -> ConvergeStats:
    """Synchronous :func:`converge` (drives the event loop)."""
    return cluster.run(converge(cluster, rate_limit_bps))


def _unreconciled(cluster: RadosCluster) -> Set[int]:
    """Map-time: the OSDs that must stay untrusted — the acting members
    and stray holders of every PG with an object that is not
    :attr:`_Diff.settled`.

    A down acting member or a copy on a down OSD holds no flag: the up
    members agree, and the down one rejoins flagged itself.  A lost
    object does: an up member that lacks it must not witness its
    deletion when the OSD holding it comes back.
    """
    keep: Set[int] = set()
    for pool in cluster.pools.values():
        for pg in range(pool.pg_num):
            acting = [cluster.osds[i] for i in pool.acting_set(pg)]
            for name in _names(cluster, pool, pg):
                diff = _diff(cluster, pool, ObjectKey(pool.pool_id, pg, name), acting)
                if not diff.settled:
                    keep.update(osd.osd_id for osd in acting + diff.extras)
    return keep


def _run(cluster: RadosCluster, steps: list, serial: bool):
    """Process: run the generator ``steps`` one after another (``serial``)
    or all at once; returns whether any returned true."""
    if serial:
        changed = False
        for step in steps:
            changed = (yield from step) or changed
        return changed
    if not steps:
        return False
    sim = cluster.sim
    return any((yield sim.all_of([sim.process(step) for step in steps])))


def _pass(cluster: RadosCluster, stats: ConvergeStats, rate_limit_bps: Optional[float]):
    """Process: :func:`converge_pg` over every PG; returns whether any changed."""
    stats.passes += 1
    stats.objects_lost = 0
    steps = [
        converge_pg(cluster, pool, pg, stats, rate_limit_bps)
        for pool in cluster.pools.values()
        for pg in range(pool.pg_num)
    ]
    return (yield from _run(cluster, steps, bool(rate_limit_bps)))


def converge_pg(
    cluster: RadosCluster,
    pool: Pool,
    pg: int,
    stats: ConvergeStats,
    rate_limit_bps: Optional[float] = None,
):
    """Process: one convergence step of one PG; returns whether it
    changed anything.

    Diffs every object the PG holds anywhere, then settles each one that
    has a move or a trim to make (:func:`_converge_object`): one after
    another when ``rate_limit_bps`` paces the loop, all at once when it
    does not.  A PG whose objects all settled, with every acting member
    up, leaves the unclean record, which closes its degraded window; one
    that did not stays in it (or enters it), so its earlier members stay
    routed.
    """
    sim = cluster.sim
    acting = [cluster.osds[i] for i in pool.acting_set(pg)]
    todo = []
    for name in _names(cluster, pool, pg):
        key = ObjectKey(pool.pool_id, pg, name)
        diff = _diff(cluster, pool, key, acting)
        if diff.lost:
            stats.objects_lost += 1
        elif diff.targets or diff.extras:
            todo.append(key)
    steps = [_converge_object(cluster, pool, key, stats, rate_limit_bps) for key in todo]
    changed = yield from _run(cluster, steps, bool(rate_limit_bps))
    acting = [cluster.osds[i] for i in pool.acting_set(pg)]
    settled = all(osd.info.up for osd in acting) and all(
        _diff(cluster, pool, ObjectKey(pool.pool_id, pg, name), acting).settled
        for name in _names(cluster, pool, pg)
    )
    record = cluster._unclean
    if not settled:
        members = tuple(pool.acting_set(pg))
        record.setdefault((pool.pool_id, pg), _Unclean(sim.now, members, members))
        return changed
    entry = record.pop((pool.pool_id, pg), None)
    if entry is None:
        return changed
    stats.pgs_converged += 1
    stats.degraded_seconds = max(stats.degraded_seconds, sim.now - entry.since)
    return True


def _converge_object(
    cluster: RadosCluster,
    pool: Pool,
    key: ObjectKey,
    stats: ConvergeStats,
    rate_limit_bps: Optional[float],
):
    """Process: settle one object; returns whether a copy moved or was
    trimmed.

    Under the object's write lock, held exclusively — every client write
    holds it through its commit point (shared on a replicated pool), so
    none commits between a copy's read and its push — the object is
    diffed again, pushed to every target in parallel and, once every
    acting member is up and holds it, trimmed everywhere else.  A failed
    push abandons the trim; the next pass retries both.
    """
    sim = cluster.sim
    held: list = []
    moved: list = []
    trimmed = 0
    try:
        yield cluster.write_locks.acquire(key, held)
        acting = [cluster.osds[i] for i in pool.acting_set(key.pg)]
        diff = _diff(cluster, pool, key, acting)
        if diff.lost:
            return False
        if diff.targets:
            shards = diff.shards
            if pool.is_ec and shards is None:
                shards = _snapshot_shards(pool, key, diff.holders)
            moved = yield sim.all_of([
                sim.process(_push(cluster, key, diff.holders[0], shards, idx, osd))
                for idx, osd in diff.targets
            ])
        if None not in moved and all(osd.info.up for osd in acting):
            for osd in diff.extras:
                if osd.info.up and osd.store.exists(key):
                    osd.store.delete_object(key)
                    trimmed += 1
    finally:
        cluster.write_locks.release(held)
    nbytes = 0
    for n in moved:
        if n is None:
            stats.tasks_failed += 1
        else:
            stats.objects_moved += 1
            nbytes += n
    stats.bytes_moved += nbytes
    stats.bytes_by_pool[pool.name] = stats.bytes_by_pool.get(pool.name, 0) + nbytes
    stats.objects_trimmed += trimmed
    if rate_limit_bps and nbytes:
        yield from _throttle(cluster, nbytes, rate_limit_bps)
    return bool(trimmed) or any(n is not None for n in moved)


def _throttle(cluster: RadosCluster, nbytes: int, rate_limit_bps: float):
    """Process: pace convergence traffic to ``rate_limit_bps``."""
    yield cluster.sim.timeout(nbytes / rate_limit_bps)


# -- the movers -------------------------------------------------------------------


def _push(
    cluster: RadosCluster,
    key: ObjectKey,
    source: OSD,
    shards: Optional[_ShardSources],
    index: int,
    target: OSD,
):
    """Process: copy ``source``'s replica, or rebuild shard ``index``,
    onto ``target``; returns the bytes moved, or ``None`` when a device
    failed or faulted mid-move."""
    try:
        if shards is None:
            return (yield from _copy_replica(cluster, key, source, target))
        return (yield from _rebuild_shard(cluster, key, target, shards, shards.shard(index)))
    except (OsdDownError, OsdFullError):
        return None
    except Exception as exc:
        if not getattr(exc, "retryable", False):
            raise
        return None


def _copy_replica(cluster: RadosCluster, key: ObjectKey, source: OSD, target: OSD):
    """Process: copy ``source``'s replica of ``key`` onto ``target`` —
    read it, move it across hosts, push it; returns the bytes moved."""
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
    push; returns the shard bytes moved."""
    reads = [
        cluster.sim.process(_charge_shard_read(cluster, holder, target, len(shard)))
        for _idx, holder, shard in shards.sources
    ]
    yield cluster.sim.all_of(reads)
    yield from target.node.cpu.execute(target.node.cpu.spec.ec_time(shards.length))
    yield from target.execute_push(key, obj)
    return obj.size


# -- placement report ---------------------------------------------------------------


def placement_skew(cluster: RadosCluster) -> Dict[str, Dict[str, Dict[str, float]]]:
    """PGs per OSD under the current map: how even is placement?

    Per pool, the max / mean / min over the OSDs in placement of (a) the
    PGs an OSD is *primary* for and (b) the PGs it holds *any replica or
    shard* of::

        {"pool": {"primary": {"max": 8, "mean": 4.0, "min": 1},
                  "replica": {"max": 12, "mean": 8.0, "min": 4}}}

    A report, not an audit: straw2 draws are independent per PG, so with
    few PGs per OSD the counts spread like balls thrown into bins, and
    the busiest device saturates first (docs/simulation.md, "Placement
    skew").  It changes no placement and is not part of any verdict.
    """
    in_osds = cluster.cluster_map.in_osds()
    report: Dict[str, Dict[str, Dict[str, float]]] = {}
    for pool in cluster.pools.values():
        primary = dict.fromkeys(in_osds, 0)
        replica = dict.fromkeys(in_osds, 0)
        for pg in range(pool.pg_num):
            acting = pool.acting_set(pg)
            if acting:
                primary[acting[0]] += 1
            for osd_id in acting:
                replica[osd_id] += 1
        report[pool.name] = {"primary": _spread(primary), "replica": _spread(replica)}
    return report


def _spread(per_osd: Dict[int, int]) -> Dict[str, float]:
    counts = list(per_osd.values()) or [0]
    return {"max": max(counts), "mean": sum(counts) / len(counts), "min": min(counts)}
