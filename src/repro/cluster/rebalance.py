"""Online cluster elasticity: remap diffs and the rebalance engine.

When the topology changes — :meth:`RadosCluster.expand` adds a host,
:meth:`RadosCluster.decommission_osd` marks an OSD out — CRUSH moves a
(minimal) subset of placement groups to new acting sets.  This module
owns everything between those two maps:

* :func:`compute_remap` diffs the before/after acting sets into a
  :class:`RemapDiff` of per-PG :class:`PgRemap` entries;
* while a remap is *active*, the cluster serves reads and writes
  against the **union** of the old and new locations (see
  ``RadosCluster._commit_groups``), so clients never notice the
  move;
* :class:`Rebalancer` drains the remaps incrementally: object by
  object, under the same per-object write lock the data path uses, it
  copies replicas (or reconstructs EC shards) onto the new acting set,
  trims the copies parked on the old one, and retires each PG's remap
  once the new set fully holds it.

The migration is *dedup-aware* by construction: chunk objects carry
their reference counts in their own xattrs (the paper's self-contained
metadata, §4.1), so moving the object moves the refcounts — there is no
separate index to keep consistent.  It is also resumable and
idempotent: every step compares content before copying, so a crash
mid-migration simply leaves work for the next pass (or for
:func:`~repro.cluster.recovery.recover`, which heals straight to the
new map and retires any remaining remaps).

Device costing reuses the recovery machinery: source disk reads,
inter-host transfers and target pushes all charge simulated time, and
an optional byte-rate limit (a sleep of ``nbytes / rate_limit_bps``
after each copy) paces migration traffic so the foreground workload
keeps its throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .ec import _shard_index
from .objectstore import ObjectKey
from .osd import OSD, OsdDownError, OsdFullError
from .pool import Pool
from .rados import NotEnoughReplicas, RadosCluster
from .recovery import (
    _copy_replica,
    _rebuild_shard,
    _same_content,
    _snapshot_shards,
)

__all__ = [
    "PgRemap",
    "RemapDiff",
    "RebalanceStats",
    "Rebalancer",
    "compute_remap",
    "placement_report",
    "placement_skew",
    "rebalance_sync",
]

#: Re-scan ceiling per PG per pass: each round either migrates or trims
#: something, so this only guards against a pathological livelock.
_MAX_ROUNDS = 64


@dataclass(frozen=True)
class PgRemap:
    """One placement group's move from an old acting set to a new one.

    While the remap is active the cluster reads and writes against the
    union of ``old`` and ``new`` (old first, so established copies keep
    serving); :meth:`Rebalancer` migrates the data and retires the
    entry.
    """

    pool_id: int
    pool_name: str
    pg: int
    old: Tuple[int, ...]
    new: Tuple[int, ...]
    #: Simulated time the remap was registered (start of the PG's
    #: degraded window).
    registered_at: float = 0.0

    def union_ids(self) -> List[int]:
        """Old + new acting OSDs, old first, without duplicates."""
        return list(self.old) + [i for i in self.new if i not in self.old]

    def chained_from(self, prior: "PgRemap") -> "PgRemap":
        """Fold a newer topology change onto a still-active remap.

        Sources accumulate (data may sit anywhere the prior union
        reached) while the destination is always the latest map; the
        degraded window keeps the *first* registration time.
        """
        return PgRemap(
            pool_id=self.pool_id,
            pool_name=self.pool_name,
            pg=self.pg,
            old=tuple(prior.union_ids()),
            new=self.new,
            registered_at=prior.registered_at,
        )

    def describe(self) -> str:
        """One human-readable line for the diff listing."""
        return (
            f"pool {self.pool_name!r} pg {self.pg}:"
            f" {list(self.old)} -> {list(self.new)}"
        )


@dataclass
class RemapDiff:
    """The PG movements one topology change implies."""

    remaps: List[PgRemap] = field(default_factory=list)
    #: Cluster-map epoch the new acting sets were computed at.
    epoch: int = 0

    @property
    def pgs_remapped(self) -> int:
        """Number of placement groups that must move."""
        return len(self.remaps)

    def describe(self) -> List[str]:
        """Human-readable listing, one line per remapped PG."""
        return [remap.describe() for remap in self.remaps]


def compute_remap(
    cluster: RadosCluster, before: Dict[Tuple[int, int], List[int]]
) -> RemapDiff:
    """Diff a :meth:`RadosCluster.snapshot_acting_sets` against the
    current map; returns the PGs whose acting sets changed."""
    diff = RemapDiff(epoch=cluster.cluster_map.epoch)
    for pool in cluster.pools.values():
        for pg in range(pool.pg_num):
            old = before.get((pool.pool_id, pg), [])
            new = pool.acting_set(pg)
            if list(old) != list(new):
                diff.remaps.append(
                    PgRemap(
                        pool_id=pool.pool_id,
                        pool_name=pool.name,
                        pg=pg,
                        old=tuple(old),
                        new=tuple(new),
                        registered_at=cluster.sim.now,
                    )
                )
    return diff


@dataclass
class RebalanceStats:
    """Outcome of a rebalance run (the issue's migration metrics)."""

    #: PG remaps retired by this rebalancer.
    pgs_completed: int = 0
    #: Replica copies / EC shards pushed onto new acting sets.
    objects_moved: int = 0
    #: Payload bytes pushed (the migration traffic the rate limit paces).
    bytes_moved: int = 0
    #: Copies deleted from old locations after the new set held them.
    objects_trimmed: int = 0
    #: Migrations abandoned mid-flight (device died / quorum lost); the
    #: PG stays active and a later pass resumes it.
    tasks_failed: int = 0
    #: Full scan passes over the active remaps.
    passes: int = 0
    #: Longest observed per-PG degraded window (registration of the
    #: remap to its retirement), in simulated seconds.
    degraded_seconds: float = 0.0
    #: Migration bytes broken down by pool name.
    bytes_by_pool: Dict[str, int] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        """Simulated seconds the rebalance spent."""
        return self.finished_at - self.started_at

    def summary_lines(self) -> List[str]:
        """Human-readable counter dump (CLI output)."""
        by_pool = ", ".join(
            f"{name}: {nbytes / 1024:.0f}KiB"
            for name, nbytes in sorted(self.bytes_by_pool.items())
        )
        return [
            f"PGs completed      {self.pgs_completed}"
            f" in {self.passes} pass(es)",
            f"copies moved       {self.objects_moved}"
            f" ({self.bytes_moved / 1024:.0f} KiB"
            + (f"; {by_pool}" if by_pool else "")
            + ")",
            f"old copies trimmed {self.objects_trimmed}",
            f"tasks failed       {self.tasks_failed}",
            f"degraded window    {self.degraded_seconds:.3f}s (longest PG)",
        ]


class Rebalancer:
    """Incremental, rate-limited migration engine for active remaps.

    Drives each active :class:`PgRemap` to completion: per object,
    under the object's write lock, ensure every (up) member of the new
    acting set holds an identical copy/its shard, then trim the copies
    parked on old-only members, and finally retire the PG's remap.
    Safe to run while the workload is live — reads and writes keep
    using the union view until the remap retires — and safe to re-run
    after a crash: already-migrated objects are detected by content and
    skipped.

    Parameters
    ----------
    cluster:
        The substrate whose ``_active_remaps`` to drain.
    rate_limit_bps:
        Optional migration budget in bytes per simulated second; after
        each copy the engine sleeps ``nbytes / rate`` so foreground I/O
        keeps its share of the devices.  ``None`` migrates flat out.
    """

    def __init__(
        self,
        cluster: RadosCluster,
        rate_limit_bps: Optional[float] = None,
    ):
        if rate_limit_bps is not None and rate_limit_bps <= 0:
            raise ValueError(f"rate_limit_bps must be positive, got {rate_limit_bps}")
        self.cluster = cluster
        self.rate_limit_bps = rate_limit_bps
        self.stats = RebalanceStats()

    # -- driving --------------------------------------------------------------

    def run(self):
        """Process: one pass over every active remap; returns stats.

        PGs whose migration hits a fault (source died, quorum lost)
        stay active for a later pass; everything else completes and
        retires.
        """
        sim = self.cluster.sim
        if self.stats.passes == 0:
            self.stats.started_at = sim.now
        self.stats.passes += 1
        keys = sorted(self.cluster._active_remaps)
        pools_by_id = {p.pool_id: p for p in self.cluster.pools.values()}
        for pool_id, pg in keys:
            remap = self.cluster._active_remaps.get((pool_id, pg))
            if remap is None:  # retired concurrently (e.g. by recovery)
                continue
            pool = pools_by_id[pool_id]
            complete = yield from self._migrate_pg(pool, pg, remap)
            if complete:
                self.cluster.complete_remap(pool_id, pg)
                self.stats.pgs_completed += 1
                self.stats.degraded_seconds = max(
                    self.stats.degraded_seconds, sim.now - remap.registered_at
                )
        # Migration copies (and trims) object state outside the client
        # I/O path; let cache-holding layers above drop decoded state.
        self.cluster.notify_repaired()
        self.stats.finished_at = sim.now
        return self.stats

    def run_to_completion(self, max_passes: int = 16, settle: float = 0.1):
        """Process: run passes until no remap stays active.

        Between passes (a PG can stay active when a device involved is
        down or faulting) the engine backs off ``settle`` simulated
        seconds.  Gives up after ``max_passes`` — a final
        :func:`~repro.cluster.recovery.recover` can always finish the
        job, since recovery heals straight to the new map.
        """
        for _ in range(max_passes):
            yield from self.run()
            if not self.cluster._active_remaps:
                break
            yield self.cluster.sim.timeout(settle)
        return self.stats

    # -- per-PG migration ------------------------------------------------------

    def _migrate_pg(self, pool: Pool, pg: int, remap: PgRemap):
        """Process: migrate one PG; returns True when fully settled."""
        for _ in range(_MAX_ROUNDS):
            pending = self._pending_objects(pool, pg, remap)
            if not pending:
                return True
            progressed = False
            failed = False
            for name in pending:
                try:
                    moved = yield from self._migrate_object(pool, pg, name, remap)
                    progressed = progressed or moved
                except (OsdDownError, OsdFullError, NotEnoughReplicas):
                    self.stats.tasks_failed += 1
                    failed = True
                except Exception as exc:
                    if not getattr(exc, "retryable", False):
                        raise
                    self.stats.tasks_failed += 1
                    failed = True
            if failed or not progressed:
                return False
        return False

    def _pending_objects(self, pool: Pool, pg: int, remap: PgRemap) -> List[str]:
        """Objects in this PG not yet settled on the new acting set.

        Enumerates every union member's store — including *down* OSDs,
        whose unreachable copies must keep the PG active (completing
        the remap while the only copy sits on a dead disk would orphan
        it)."""
        names = set()
        for osd_id in remap.union_ids():
            osd = self.cluster.osds.get(osd_id)
            if osd is None:
                continue
            for key in osd.store.keys_in_pg(pool.pool_id, pg):
                names.add(key.name)
        return sorted(n for n in names if not self._settled(pool, pg, n, remap))

    def _settled(self, pool: Pool, pg: int, name: str, remap: PgRemap) -> bool:
        """Map-time check: does the new acting set fully own the object?"""
        cluster = self.cluster
        key = ObjectKey(pool.pool_id, pg, name)
        union, up_holders, down_holders = self._union_holders(pool, key, remap)
        if not up_holders:
            # Either deleted everywhere, or only unreachable copies
            # remain — the latter must keep the PG active until the
            # holder restarts (recovery then reconciles or trims it).
            return not down_holders
        new_ids = set(remap.new)
        if any(o.up and o.store.exists(key) for o in union if o.osd_id not in new_ids):
            return False  # a live parked copy still needs trimming
        new_targets = [cluster.osds[i] for i in remap.new if i in cluster.osds]
        if any(not o.up for o in new_targets):
            return False  # cannot vouch for a down target's copy
        if not all(o.store.exists(key) for o in new_targets):
            return False
        return not _wrong_copies(pool, key, new_targets)

    # -- per-object migration --------------------------------------------------

    def _migrate_object(self, pool: Pool, pg: int, name: str, remap: PgRemap):
        """Process: settle one object onto the new acting set.

        Runs under the object's write lock — the same lock the data
        path takes — so a migration never interleaves with a client
        write and copies can never diverge.  Returns True when any
        copy moved or was trimmed (progress tracking).
        """
        cluster = self.cluster
        key = ObjectKey(pool.pool_id, pg, name)
        held: list = []
        try:
            yield cluster.write_locks.acquire(key, held)
            moved = yield from self._migrate_locked(pool, key, remap)
        finally:
            cluster.write_locks.release(held)
        return moved

    def _union_holders(self, pool: Pool, key: ObjectKey, remap: PgRemap):
        cluster = self.cluster
        union = [
            cluster.osds[i] for i in remap.union_ids() if i in cluster.osds
        ]
        down_holders = [o for o in union if not o.up and o.store.exists(key)]
        return union, cluster._holders(pool, key, union), down_holders

    def _migrate_locked(self, pool: Pool, key: ObjectKey, remap: PgRemap):
        """Copy the first holder's replica (or rebuild each EC slot's
        shard) onto every new acting member that lacks it, then trim."""
        cluster = self.cluster
        union, holders, down_holders = self._union_holders(pool, key, remap)
        if not holders:
            if down_holders:
                raise OsdDownError(down_holders[0].osd_id)
            return False  # deleted while we scanned
        source, shards = holders[0], None
        if pool.is_ec:
            shards = _snapshot_shards(pool, key, holders)
            if shards is None:
                raise NotEnoughReplicas(
                    f"fewer than {pool.codec.k} distinct shards reachable"
                    f" for {key.name!r}"
                )
        new_targets = [cluster.osds[i] for i in remap.new]
        for target in new_targets:
            if not target.up:
                raise OsdDownError(target.osd_id)
        moved = False
        for idx, target in enumerate(new_targets):
            if shards is None and target is source:
                continue
            want = source.store.get(key) if shards is None else shards.shard(idx)
            if target.store.exists(key) and _same_content(
                target.store.get(key), want
            ):
                continue  # idempotent resume: this copy already landed
            if shards is None:
                nbytes = yield from _copy_replica(cluster, key, source, target)
            else:
                nbytes = yield from _rebuild_shard(cluster, key, target, shards, want)
            self._account(pool, nbytes)
            moved = True
            yield from self._throttle(nbytes)
        return self._trim_parked(key, union, remap) or moved

    def _trim_parked(self, key: ObjectKey, union: List[OSD], remap: PgRemap) -> bool:
        """Delete up old-only copies now the new acting set holds the
        object (map-time, under the caller's write lock)."""
        new_ids = set(remap.new)
        trimmed = False
        for osd in union:
            if osd.osd_id in new_ids:
                continue
            if osd.up and osd.store.exists(key):
                osd.store.delete_object(key)
                self.stats.objects_trimmed += 1
                trimmed = True
        return trimmed

    # -- costing helpers -------------------------------------------------------

    def _account(self, pool: Pool, nbytes: int) -> None:
        self.stats.objects_moved += 1
        self.stats.bytes_moved += nbytes
        self.stats.bytes_by_pool[pool.name] = (
            self.stats.bytes_by_pool.get(pool.name, 0) + nbytes
        )

    def _throttle(self, nbytes: int):
        """Process: pace migration traffic to the configured rate."""
        if not self.rate_limit_bps:
            return
        yield self.cluster.sim.timeout(nbytes / self.rate_limit_bps)


def placement_report(cluster: RadosCluster) -> List[str]:
    """Map-time placement audit; returns violations ([] means clean).

    Clean means CRUSH-clean: every object's copies sit exactly on the
    up members of its *current* acting set (no parked copies, no
    missing replicas), replicated copies are byte-identical, and EC
    shards carry the index their slot demands.
    """
    problems: List[str] = []
    for pool in cluster.pools.values():
        for name in cluster.list_objects(pool):
            key = cluster.object_key(pool, name)
            acting_ids = pool.acting_set_for(name)
            acting = [cluster.osds[i] for i in acting_ids]
            holders = sorted(
                osd.osd_id
                for osd in cluster.osds.values()
                if osd.store.exists(key)
            )
            expect = sorted(o.osd_id for o in acting if o.up)
            if holders != expect:
                problems.append(
                    f"{pool.name}/{name}: copies on {holders},"
                    f" expected up acting {expect}"
                )
                continue
            problems.extend(
                f"{pool.name}/{name}: {why}" for why in _wrong_copies(pool, key, acting)
            )
    return problems


def _wrong_copies(pool: Pool, key: ObjectKey, slots: List[OSD]) -> List[str]:
    """Map-time: what is wrong with the copies held by the up members of
    ``slots`` (an acting set in slot order, every up member a holder) —
    an EC shard whose index is not its slot's, or a replica unlike the
    first up member's."""
    up = [(idx, osd) for idx, osd in enumerate(slots) if osd.up]
    wrong = []
    for idx, osd in up:
        obj = osd.store.get(key)
        if pool.is_ec:
            have = _shard_index(obj)
            if have != idx:
                wrong.append(f"osd.{osd.osd_id} holds shard {have}, slot demands {idx}")
        elif not _same_content(up[0][1].store.get(key), obj):
            wrong.append(f"osd.{osd.osd_id} copy diverges from osd.{up[0][1].osd_id}")
    return wrong


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


def rebalance_sync(
    cluster: RadosCluster,
    rate_limit_bps: Optional[float] = None,
    max_passes: int = 16,
) -> RebalanceStats:
    """Synchronous :class:`Rebalancer` run-to-completion helper."""
    engine = Rebalancer(cluster, rate_limit_bps=rate_limit_bps)
    return cluster.run(engine.run_to_completion(max_passes=max_passes))
