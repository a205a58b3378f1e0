"""The simulated scale-out storage cluster (RADOS-like facade).

:class:`RadosCluster` wires together the cluster map, CRUSH placement,
nodes, OSDs, and pools, and exposes the client operations the dedup tier
is built on: full/partial object writes, reads, removes, xattr/omap
access, and atomic per-object transactions — over replicated *and*
erasure-coded pools, with degraded-mode handling when OSDs are down.

All operations are simulation processes (generators): they charge
network, CPU, and disk time on the modelled devices and therefore
exhibit queueing and interference.  Synchronous helpers (``*_sync`` and
:meth:`RadosCluster.run`) drive the event loop for callers outside the
simulation (tests, benchmarks).

Semantics follow Ceph:

* Writes go to the PG primary, which fans out to replicas (or encodes
  and distributes shards); the ack returns once every available copy is
  durable.
* Reads are served by the primary (or by ``k`` shards + decode for EC).
* A write succeeds in degraded mode while at least ``min_size`` copies
  (or ``k`` shards) are writable; otherwise it raises.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from ..sim import LockTable, Simulator, Timeout
from .clustermap import ClusterMap
from .crush import CrushMap
from .ec import _payload_length, _shard_index, _shard_xattrs, _user_xattrs
from .hardware import HardwareProfile, Nic
from .objectstore import NoSuchObject, ObjectKey, ObjectStore, StoredObject, Transaction
from .osd import Node, OSD, OsdDownError
from .pool import Pool, Replicated

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .rebalance import PgRemap, RemapDiff

__all__ = ["Client", "RadosCluster", "NotEnoughReplicas"]

_needs_backfill = attrgetter("needs_backfill")

#: Transaction ops that leave an EC object's payload as it is: a shard
#: applies them without the stripe being decoded or re-encoded.
_SHARD_LOCAL_OPS = frozenset(("setxattr", "rmxattr", "omap_set", "omap_rm"))


class NotEnoughReplicas(RuntimeError):
    """Fewer than ``min_size`` copies/shards are writable or readable.

    Retryable: recovery or an OSD restart can restore the missing
    copies, so a backed-off retry may find the PG healthy again.
    """

    retryable = True


class _NodeAsClient:
    """Lets a storage node stand in as the initiator of an internal op."""

    def __init__(self, node):
        self.node = node
        self.nic = node.nic


class Client:
    """A client host with its own NIC (the paper uses three of them)."""

    def __init__(self, sim: Simulator, name: str, profile: HardwareProfile):
        self.sim = sim
        self.name = name
        self.nic = Nic(sim, profile.nic)
        # The fault injector partitions hosts by NIC owner name.
        self.nic.owner = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Client {self.name}>"


class RadosCluster:
    """A simulated shared-nothing scale-out storage cluster."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        profile: Optional[HardwareProfile] = None,
        num_hosts: int = 4,
        osds_per_host: int = 4,
        pg_num: int = 64,
    ):
        self.sim = sim if sim is not None else Simulator()
        self.profile = profile if profile is not None else HardwareProfile()
        self.default_pg_num = pg_num
        self.cluster_map = ClusterMap()
        self.crush = CrushMap(self.cluster_map)
        self.nodes: Dict[str, Node] = {}
        self.osds: Dict[int, OSD] = {}
        self.pools: Dict[str, Pool] = {}
        self._next_pool_id = 1
        for h in range(num_hosts):
            self.add_host(f"host{h}", osds_per_host)
        self._default_client = Client(self.sim, "client0", self.profile)
        #: Fault-injection hook (a FaultInjector, or None); consulted on
        #: every inter-host transfer.
        self.faults = None
        # RADOS orders mutations per object at the PG: concurrent writes
        # to one object serialise.
        self.write_locks = LockTable(self.sim, "rados.write:{0.pool_id}/{0.pg}/{0.name}")
        # PGs whose acting set changed under live data (expansion /
        # decommission).  While an entry is active, IO for the PG runs
        # against the union of old+new locations; the rebalance engine
        # (repro.cluster.rebalance) migrates the data and retires it.
        self._active_remaps: Dict[Tuple[int, int], "PgRemap"] = {}
        # Callbacks fired after recovery / rebalance rewrites stored
        # objects (see notify_repaired): layers holding decoded caches
        # above the substrate (e.g. the dedup tier's chunk-map LRU)
        # register here to drop state the repair may have replaced
        # underneath them.
        self._repair_listeners: List[Callable[[], None]] = []

    def add_repair_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever stored objects may have
        been rewritten outside the normal client I/O path."""
        self._repair_listeners.append(listener)

    def notify_repaired(self) -> None:
        """Tell listeners that recovery/rebalance rewrote objects."""
        for listener in self._repair_listeners:
            listener()

    # -- topology -----------------------------------------------------------

    def add_host(self, name: str, num_osds: int, rack: str = "default") -> Node:
        """Add a server with ``num_osds`` OSDs to the cluster."""
        if name in self.nodes:
            raise ValueError(f"duplicate host name {name!r}")
        node = Node(self.sim, name, self.profile)
        self.nodes[name] = node
        for _ in range(num_osds):
            osd_id = self.cluster_map.add_osd(name, rack=rack)
            osd = OSD(
                self.sim, osd_id, node, self.cluster_map.osds[osd_id], self.profile
            )
            # An attached fault injector only wires the OSDs that exist
            # at attach time; hosts added online inherit the hook here
            # (getattr: __init__ builds the seed hosts before .faults).
            osd.faults = getattr(self, "faults", None)
            self.osds[osd_id] = osd
        return node

    def client(self, name: str) -> Client:
        """Create an additional client host."""
        return Client(self.sim, name, self.profile)

    def create_pool(
        self,
        name: str,
        redundancy=None,
        pg_num: Optional[int] = None,
        failure_domain: str = "host",
    ) -> Pool:
        """Create a pool (default: 2-way replication, host domains)."""
        if name in self.pools:
            raise ValueError(f"duplicate pool name {name!r}")
        if redundancy is None:
            redundancy = Replicated(2)
        pool = Pool(
            pool_id=self._next_pool_id,
            name=name,
            redundancy=redundancy,
            pg_num=pg_num if pg_num is not None else self.default_pg_num,
            crush=self.crush,
            failure_domain=failure_domain,
        )
        self._next_pool_id += 1
        self.pools[name] = pool
        return pool

    def object_key(self, pool: Pool, oid: str) -> ObjectKey:
        """The fully qualified key for an object name in ``pool``."""
        return ObjectKey(pool.pool_id, pool.pg_of(oid), oid)

    # -- acting-set helpers ---------------------------------------------------

    def _remap_for(self, pool: Pool, pg: int) -> Optional["PgRemap"]:
        """The active remap covering ``(pool, pg)``, if any."""
        if not self._active_remaps:
            return None
        return self._active_remaps.get((pool.pool_id, pg))

    def _acting_osds(self, pool: Pool, pg: int) -> List[OSD]:
        # Takes the PG, not the object name: each rados op resolves
        # `pool.pg_of(oid)` once and hands it to every helper.
        if self._active_remaps:
            remap = self._active_remaps.get((pool.pool_id, pg))
            if remap is not None:
                # Mid-remap, data may sit on the old acting set, the new
                # one, or both: IO runs against the union (old first, so
                # established copies keep serving) until the rebalance
                # engine retires the remap.
                return [self.osds[i] for i in remap.union_ids() if i in self.osds]
        return [self.osds[i] for i in pool.acting_set(pg)]

    def acting_osds(self, pool: Pool, oid: str) -> List[OSD]:
        """Every OSD that may hold a copy of ``oid`` right now.

        The CRUSH acting set — widened to the old+new union while the
        object's PG is mid-remap.  Callers that locate copies by probing
        stores (the dedup tier's holder loops, scrub, space accounting)
        must use this rather than ``pool.acting_set_for`` directly, or
        they would miss objects still parked on a pre-remap acting set.
        """
        return self._acting_osds(pool, pool.pg_of(oid))

    def _up_subset(self, osds: Iterable[OSD]) -> List[OSD]:
        # Replicas rejoining after a crash hold possibly-stale contents
        # until recovery reconciles them; ordering them last keeps them
        # out of the primary role (stable within each class).  The sort
        # is stable, so with nobody backfilling — the steady state — it
        # would be the identity and is skipped.
        up = [o for o in osds if o.info.up]
        for osd in up:
            if osd.needs_backfill:
                up.sort(key=_needs_backfill)
                break
        return up

    def _primary(self, pool: Pool, oid: str, pg: Optional[int] = None) -> OSD:
        if pg is None:
            pg = pool.pg_of(oid)
        up = self._up_subset(self._acting_osds(pool, pg))
        if not up:
            raise NotEnoughReplicas(f"no up OSD for {oid!r} in pool {pool.name!r}")
        if self._active_remaps and self._remap_for(pool, pg) is not None:
            # Prefer a member that actually holds the object: mid-remap
            # the nominal first member may not have received it yet.
            key = ObjectKey(pool.pool_id, pg, oid)
            holders = [o for o in up if o.store.exists(key)]
            if holders:
                return holders[0]
        return up[0]

    # -- network helper ---------------------------------------------------------

    def _transfer(self, src_nic: Nic, dst_nic: Nic, nbytes: int):
        """Process: move ``nbytes`` between two NICs (store-and-forward).

        Raises :class:`~repro.faults.errors.NetworkPartitionError` when
        a fault injector holds the two hosts partitioned.
        """
        if src_nic is dst_nic:
            return
        if self.faults is not None:
            self.faults.check_link(src_nic, dst_nic)
        yield from src_nic.send(nbytes)
        yield self.sim.timeout(src_nic.spec.latency)
        yield from dst_nic.receive(nbytes)

    def _rpc_latency(self) -> Timeout:
        """Event: one small control message (request or ack) has arrived."""
        return self.sim.timeout(self.profile.nic.latency)

    # -- replicated data path -----------------------------------------------------

    def submit(
        self,
        pool: Pool,
        oid: str,
        txn: Transaction,
        client: Optional[Client] = None,
    ):
        """Process: apply ``txn`` atomically on every replica of ``oid``.

        This is the self-contained-object workhorse: chunk-map updates,
        reference counts, dirty flags, and data all travel in one
        transaction, so replication and recovery cover dedup metadata
        with no extra machinery (paper §4.1).

        Replication is all-or-nothing: every replica first *prepares*
        (transfers, charges device time, runs fault hooks — anything
        that can fail), and only when all prepares succeed does the
        transaction *commit* on each replica, instantly.  A transient
        error or crash during prepare thus leaves no replica mutated,
        so a caller's retry can never diverge the copies.  A replica
        that dies between its prepare and the commit point is simply
        skipped — it rejoins stale and recovery reconciles it, exactly
        as for a crash before the write.

        On an erasure-coded pool the same protocol runs over shards
        (:meth:`_ec_encode`): a payload change is a full-stripe
        read-modify-write (decode, apply, re-encode, rewrite all
        shards) — the cost that makes EC random writes so slow in the
        paper's Figure 12 — while an xattr/omap update or a remove goes
        to each shard as it stands.

        Returns the generator of :meth:`_submit`, the pipeline shared
        with :meth:`submit_batch`, rather than wrapping it: a wrapping
        generator is one more frame to resume at every yield.
        """
        return self._submit(pool, [(oid, txn)], client)

    def submit_batch(self, pool: Pool, items, client: Optional[Client] = None):
        """Process: apply many ``(oid, txn)`` pairs with one prepared
        round per placement group.

        The multi-op companion of :meth:`submit`: items are grouped by
        PG, each group's transactions are merged into a single
        transaction, and the same prepare/commit protocol runs once per
        group instead of once per item — collapsing N refcount-sized
        round trips into one prepared transaction per PG.

        The two-phase guarantee extends across the *whole batch*: every
        replica of every group prepares before any group commits, so a
        transient fault anywhere during prepare leaves no object on any
        OSD mutated and the caller can retry the batch as a unit.  (As
        in :meth:`submit`, an OSD that dies after its prepare is
        skipped at commit as long as each group keeps quorum.)

        On an erasure-coded pool each object is a group of its own
        (its shards are distinct transactions), but every shard of
        every group still prepares before any commits: an EC batch is
        all-or-nothing too.
        """
        items = [(oid, txn) for oid, txn in items if len(txn)]
        return self._submit(pool, items, client)

    def _submit(
        self,
        pool: Pool,
        items: List[Tuple[str, Transaction]],
        client: Optional[Client],
    ):
        """Process: the one commit pipeline of :meth:`submit` and
        :meth:`submit_batch` (docs/internals.md, "The commit pipeline").

        1. Resolve every item's replicas (:meth:`_commit_groups`) without
           any lock, to pick each group's primary — a PG already short of
           ``min_size`` fails here, before a byte moves — and send the
           payload there.
        2. Take the items' write locks in key order.
        3. Resolve again, under the locks: this resolution is what
           commits.  Rebalance migrations change holder sets only under
           the same locks, so a write that queued on the client NIC
           while its PG was remapped, migrated and settled lands on the
           replicas of *now*; an item whose primary changed meanwhile
           has its payload forwarded primary to primary.  When no remap
           was active at either point and the map epoch has not moved,
           step 1's resolution still holds and is reused.
        4. On an EC pool, encode: each group's transaction becomes one
           transaction per shard (:meth:`_ec_encode`), on the primary.
        5. Prepare every replica (shard) of every group, check quorum
           for all groups, then commit all of them — one fault anywhere
           and nothing is mutated.  Drop the parked copies of every
           rewritten stripe; release; ack.
        """
        if not items:
            return
        keys = [ObjectKey(pool.pool_id, pool.pg_of(oid), oid) for oid, _txn in items]
        single = len(items) == 1
        ec = pool.is_ec
        client = client or self._default_client
        sent: Dict[int, Tuple[Node, int]] = {}  # item -> (node, payload bytes)
        sends = []
        epoch = self.cluster_map.epoch
        settled = not self._active_remaps
        groups = self._commit_groups(pool, keys)
        for _gid, targets, members in groups:
            node = targets[0].node
            nbytes = 0
            for i in members:
                size = items[i][1].io_bytes
                sent[i] = (node, size)
                nbytes += size
            sends.append(self._transfer(client.nic, node.nic, nbytes))
        if single:  # a lone transfer needs no process of its own
            yield from sends[0]
        else:
            yield self.sim.all_of([self.sim.process(send) for send in sends])
        held: list = []
        try:
            for key in sorted(set(keys)):
                yield self.write_locks.acquire(key, held)
            # Every change of an OSD's up/in state bumps the epoch,
            # and settled groups depend on nothing else but the
            # needs_backfill flags, which recovery clears without a
            # bump: that only reorders the same up members, so the
            # reused primary is still an up replica.
            if not (
                settled
                and not self._active_remaps
                and epoch == self.cluster_map.epoch
            ):
                groups = self._commit_groups(pool, keys)
            plan = []  # (primary, [(OSD, txn, payload bytes)]) per group
            stripes = []  # keys of the EC objects whose stripe is rewritten
            for _gid, targets, members in groups:
                primary = targets[0]
                node = primary.node
                nbytes = 0
                for i in members:
                    src, size = sent[i]
                    if src is not node:  # the primary moved: forward
                        yield from self._transfer(src.nic, node.nic, size)
                    nbytes += size
                if len(members) == 1:
                    txn = items[members[0]][1]
                else:
                    txn = Transaction()
                    for i in members:
                        txn.ops.extend(items[i][1].ops)
                if ec:
                    key = keys[members[0]]
                    shards, stripe = yield from self._ec_encode(pool, key, txn, primary)
                    if stripe:
                        stripes.append(key)
                    plan.append((primary, [(osd, t, t.io_bytes) for osd, t in shards]))
                else:
                    plan.append((primary, [(osd, txn, nbytes) for osd in targets]))
            jobs = []
            for primary, shards in plan:
                for osd, txn, nbytes in shards:
                    jobs.append(self.sim.process(
                        self._replica_prepare(primary, osd, txn, nbytes)
                    ))
            yield self.sim.all_of(jobs)
            # Commit point: every replica of every group prepared and
            # none is mutated yet.  Applying is instantaneous, so no
            # fault can interleave and split the copies.  An OSD that
            # crashed after its prepare is skipped (it rejoins stale
            # and recovery reconciles it), but a group that lost
            # quorum aborts the whole batch before anything applies.
            survivors = []
            for _primary, shards in plan:
                alive = [(osd, txn) for osd, txn, _nbytes in shards if osd.info.up]
                if len(alive) < pool.redundancy.min_size:
                    raise NotEnoughReplicas(
                        f"{len(alive)}/{len(shards)} replicas survived "
                        f"prepare; need {pool.redundancy.min_size}"
                    )
                survivors.append(alive)
            for alive in survivors:
                for osd, txn in alive:
                    osd.commit_transaction(txn)
            for key in stripes:
                self._purge_parked_ec_copies(pool, key)
        finally:
            self.write_locks.release(held)
        yield self._rpc_latency()  # ack to client

    def _commit_groups(
        self, pool: Pool, keys: List[ObjectKey]
    ) -> List[Tuple[Tuple[int, str], List[OSD], List[int]]]:
        """``(group id, replicas, item indices)`` per commit group,
        resolved now, in group-id — (PG, object) — order.

        The items of a settled PG form one group — one merged
        transaction on the PG's up acting set.  Each item of a PG that
        is mid-remap is a group of its own, on the up members of the
        old+new union that *hold* the object: writing to a non-holder
        would materialise a partial copy (a zero-extended overwrite)
        that a later migration could mistake for the real thing.  A new
        object goes to every up union member, so a creation needs no
        migration pass of its own (the rebalancer merely trims the
        old-side copies when it retires the PG).

        On an EC pool every object is a group of its own, on the up
        members of the *strict* CRUSH acting set in slot order: the
        shard index is the slot, so a mid-remap stripe write lands whole
        on the new acting set (the encode step picks the shards).

        Raises :class:`NotEnoughReplicas` when a group has fewer than
        ``min_size`` replicas up.
        """
        remaps = self._active_remaps
        ec = pool.is_ec
        groups: Dict[Tuple[int, str], Tuple[Tuple[int, str], List[OSD], List[int]]] = {}
        for i, key in enumerate(keys):
            pg = key.pg
            remapped = (pool.pool_id, pg) in remaps if remaps else False
            gid = (pg, key.name) if remapped or ec else (pg, "")
            group = groups.get(gid)
            if group is None:
                if ec:
                    up = [self.osds[n] for n in pool.acting_set(pg)]
                    up = [osd for osd in up if osd.info.up]
                else:
                    up = self._up_subset(self._acting_osds(pool, pg))
                    if remapped:
                        up = [osd for osd in up if osd.store.exists(key)] or up
                if len(up) < pool.redundancy.min_size:
                    raise NotEnoughReplicas(
                        f"{len(up)} replicas up for {key.name!r} in pg {pg}; "
                        f"need {pool.redundancy.min_size}"
                    )
                group = groups[gid] = (gid, up, [i])
            else:
                group[2].append(i)
        return sorted(groups.values()) if len(groups) > 1 else list(groups.values())

    def _replica_prepare(self, primary: OSD, replica: OSD, txn: Transaction, payload: int):
        if replica.node is not primary.node:
            yield from self._transfer(primary.node.nic, replica.node.nic, payload)
        yield from replica.prepare_transaction(txn)
        if replica is not primary:
            yield self._rpc_latency()  # replica ack to primary

    def write_full(
        self,
        pool: Pool,
        oid: str,
        data: bytes,
        client: Optional[Client] = None,
    ):
        """Process: replace the whole object payload."""
        key = self.object_key(pool, oid)
        txn = Transaction().write_full(key, data)
        yield from self.submit(pool, oid, txn, client)

    def write(self, pool: Pool, oid: str, offset: int, data: bytes, client: Optional[Client] = None):
        """Process: write ``data`` at ``offset`` (partial overwrite).

        On EC pools this is a full-stripe read-modify-write, which is
        exactly the penalty the paper measures for EC random writes
        (§6.4.1).
        """
        key = self.object_key(pool, oid)
        txn = Transaction().write(key, offset, data)
        yield from self.submit(pool, oid, txn, client)

    def remove(self, pool: Pool, oid: str, client: Optional[Client] = None):
        """Process: delete the object from every replica/shard."""
        key = self.object_key(pool, oid)
        txn = Transaction().remove(key)
        yield from self.submit(pool, oid, txn, client)

    def read(
        self,
        pool: Pool,
        oid: str,
        offset: int = 0,
        length: Optional[int] = None,
        client: Optional[Client] = None,
    ):
        """Process: read ``length`` bytes at ``offset``; returns bytes."""
        key = ObjectKey(pool.pool_id, pool.pg_of(oid), oid)
        if pool.is_ec:
            data = yield from self._ec_read(pool, oid, client)
            if length is None:
                return data[offset:]
            return data[offset : offset + length]
        client = client or self._default_client
        yield self._rpc_latency()  # request
        primary, data = yield from self._read_with_failover(
            pool, oid, key, offset, length
        )
        yield from self._transfer(primary.node.nic, client.nic, len(data))
        return data

    def _read_with_failover(self, pool: Pool, oid: str, key: ObjectKey, offset, length):
        """Process: read at the primary, failing over to the next up
        replica if the primary dies between dispatch and execution.

        Only :class:`OsdDownError` triggers failover — injected
        transient errors are the *client's* retry layer's problem (Ceph
        likewise re-peers on OSD death but returns EIO to the client).
        """
        last_exc: Optional[BaseException] = None
        for _ in range(max(1, len(self._acting_osds(pool, key.pg)))):
            primary = self._primary(pool, oid, key.pg)
            try:
                data = yield from primary.execute_read(key, offset, length)
                return primary, data
            except OsdDownError as exc:
                last_exc = exc
                yield self._rpc_latency()  # redirect to next replica
        raise last_exc

    # -- metadata access -----------------------------------------------------------

    def stat(self, pool: Pool, oid: str):
        """Process: object payload size (logical size for EC)."""
        key = self.object_key(pool, oid)
        primary = self._primary(pool, oid, key.pg)
        yield self._rpc_latency()
        if pool.is_ec:
            return _payload_length(primary.store.get(key))
        return primary.store.stat(key)

    def exists(self, pool: Pool, oid: str) -> bool:
        """Whether any up replica holds the object (map-time check)."""
        key = self.object_key(pool, oid)
        return any(
            osd.store.exists(key)
            for osd in self._up_subset(self._acting_osds(pool, key.pg))
        )

    def getxattr(self, pool: Pool, oid: str, name: str):
        """Process: read one xattr from the primary."""
        key = self.object_key(pool, oid)
        primary = self._primary(pool, oid, key.pg)
        yield self._rpc_latency()
        return primary.store.getxattr(key, name)

    def setxattr(
        self,
        pool: Pool,
        oid: str,
        name: str,
        value: bytes,
        client: Optional[Client] = None,
    ):
        """Process: set one xattr on all replicas/shards."""
        key = self.object_key(pool, oid)
        txn = Transaction().setxattr(key, name, value)
        yield from self.submit(pool, oid, txn, client)

    def omap_get(self, pool: Pool, oid: str, name: str):
        """Process: read one omap value from the primary."""
        key = self.object_key(pool, oid)
        primary = self._primary(pool, oid, key.pg)
        yield self._rpc_latency()
        return primary.store.omap_get(key, name)

    def omap_keys(self, pool: Pool, oid: str) -> List[str]:
        """Map-time snapshot of omap keys on the primary."""
        key = self.object_key(pool, oid)
        primary = self._primary(pool, oid, key.pg)
        return list(primary.store.get(key).omap.keys())

    # -- EC data path -------------------------------------------------------------

    def _ec_read(self, pool: Pool, oid: str, client: Optional[Client]):
        client = client or self._default_client
        key = self.object_key(pool, oid)
        acting = self._acting_osds(pool, key.pg)
        holders = [o for o in acting if o.up and o.store.exists(key)]
        if not holders:
            raise NoSuchObject(key)
        # Mid-remap the union can hold the same shard index twice (an
        # old copy and its migrated twin): pick one holder per distinct
        # index — union order is old-first, and writes purge parked old
        # shards, so duplicates are always the same generation.
        by_idx: Dict[int, OSD] = {}
        for osd in holders:
            by_idx.setdefault(_shard_index(osd.store.get(key)), osd)
        if len(by_idx) < pool.codec.k:
            raise NotEnoughReplicas(
                f"only {len(by_idx)} distinct shards readable for {oid!r}; "
                f"need {pool.codec.k}"
            )
        primary = holders[0]
        length = _payload_length(primary.store.get(key))
        chosen = [by_idx[idx] for idx in sorted(by_idx)][: pool.codec.k]
        yield self._rpc_latency()  # request fan-out
        jobs = [
            self.sim.process(self._ec_fetch_shard(primary, osd, key))
            for osd in chosen
        ]
        results = yield self.sim.all_of(jobs)
        slots: List[Optional[bytes]] = [None] * pool.codec.n
        for idx, shard in results:
            slots[idx] = shard
        # Decode on the primary's CPU, then return to the client.
        yield from primary.node.cpu.execute(primary.node.cpu.spec.ec_time(length))
        data = pool.codec.decode(slots, length)
        yield from self._transfer(primary.node.nic, client.nic, length)
        return data

    def _ec_fetch_shard(self, primary: OSD, holder: OSD, key: ObjectKey):
        shard = yield from holder.execute_read(key)
        idx = _shard_index(holder.store.get(key))
        if holder.node is not primary.node:
            yield from self._transfer(holder.node.nic, primary.node.nic, len(shard))
        return (idx, shard)

    def _ec_read_internal(self, pool: Pool, oid: str):
        """Process: EC read delivered to the primary (no client hop)."""
        acting = self._acting_osds(pool, pool.pg_of(oid))
        primary = next(o for o in acting if o.up)
        data = yield from self._ec_read(pool, oid, _NodeAsClient(primary.node))
        return data

    def _ec_encode(self, pool: Pool, key: ObjectKey, txn: Transaction, primary: OSD):
        """Process: the encode step of :meth:`_submit` for one EC object.

        Returns ``(shards, stripe)``: the ``(OSD, transaction)`` pairs
        that apply ``txn`` to ``key``'s shards, and whether they rewrite
        the whole stripe.

        * A transaction of xattr/omap ops only, or one that ends by
          removing the object, leaves every shard's payload as it is: it
          goes as it stands to every up holder of a shard, parked copies
          of a mid-remap PG included (so they stay the same generation),
          with no decode and no encode.
        * Any other transaction changes the payload.  ``primary`` reads
          and decodes the stripe (not when ``txn`` starts by replacing
          the payload), applies ``txn``, encodes the result on its CPU
          and rewrites the shard of every up slot of the strict CRUSH
          acting set, the object's metadata with it.
        """
        holders = [
            osd for osd in self._acting_osds(pool, key.pg)
            if osd.up and osd.store.exists(key)
        ]
        kinds = {op[0] for op in txn.ops}
        if (
            holders
            and kinds - {"remove"} <= _SHARD_LOCAL_OPS
            and ("remove" not in kinds or txn.ops[-1][0] == "remove")
        ):
            return [(osd, txn) for osd in holders], False
        scratch = ObjectStore()
        if holders:
            current = holders[0].store.get(key)
            data = b""
            if txn.ops[0][0] != "write_full":
                data = yield from self._ec_read_internal(pool, key.name)
            scratch.put_object(
                key, StoredObject(data, _user_xattrs(current), dict(current.omap))
            )
        scratch.apply(txn)
        if not scratch.exists(key):
            return [(osd, Transaction().remove(key)) for osd in holders], False
        obj = scratch.get(key)
        data = obj.read()
        yield from primary.node.cpu.execute(primary.node.cpu.spec.ec_time(len(data)))
        encoded = pool.codec.encode(data)
        shards = []
        for idx, osd_id in enumerate(pool.acting_set(key.pg)):
            osd = self.osds[osd_id]
            if not osd.up:
                continue  # degraded: this shard is skipped until recovery
            shard = encoded[idx]
            shard_txn = Transaction().write_full(key, shard)
            for name, value in _shard_xattrs(len(data), idx, shard).items():
                shard_txn.setxattr(key, name, value)
            if osd.store.exists(key):
                # The stripe replaces the object's metadata: drop what
                # the new state no longer carries.
                current = osd.store.get(key)
                for name in _user_xattrs(current):
                    if name not in obj.xattrs:
                        shard_txn.rmxattr(key, name)
                stale = [name for name in current.omap if name not in obj.omap]
                if stale:
                    shard_txn.omap_rm(key, stale)
            for name, value in obj.xattrs.items():
                shard_txn.setxattr(key, name, value)
            if obj.omap:
                shard_txn.omap_set(key, obj.omap)
            shards.append((osd, shard_txn))
        return shards, True

    def _purge_parked_ec_copies(self, pool: Pool, key: ObjectKey) -> None:
        """Drop shards parked outside the strict acting set (mid-remap).

        A full-stripe write lands the whole new generation on the new
        acting set, so any copy still sitting on an old-only union
        member is stale the instant the stripe commits; dropping it here
        (map-time, under the caller's write lock) keeps every reachable
        shard the same generation — the invariant _ec_read's
        distinct-index selection relies on.
        """
        remap = self._remap_for(pool, key.pg)
        if remap is None:
            return
        acting_ids = set(pool.acting_set(key.pg))
        for osd_id in remap.union_ids():
            if osd_id in acting_ids:
                continue
            osd = self.osds.get(osd_id)
            if osd is not None and osd.up and osd.store.exists(key):
                osd.store.delete_object(key)

    # -- enumeration & accounting -----------------------------------------------------

    def list_objects(self, pool: Pool) -> List[str]:
        """All object names in ``pool`` (union over all OSD stores)."""
        names: Set[str] = set()
        for osd in self.osds.values():
            for key in osd.store.keys():
                if key.pool_id == pool.pool_id:
                    names.add(key.name)
        return sorted(names)

    def pool_used_bytes(self, pool: Pool) -> int:
        """Raw bytes (all copies/shards, incl. metadata) used by ``pool``."""
        total = 0
        for osd in self.osds.values():
            for key in osd.store.keys():
                if key.pool_id == pool.pool_id:
                    total += osd.store.get(key).footprint()
        return total

    def pool_logical_bytes(self, pool: Pool) -> int:
        """Payload bytes counting each object once (primary copy)."""
        total = 0
        for oid in self.list_objects(pool):
            key = self.object_key(pool, oid)
            for osd in self._acting_osds(pool, key.pg):
                if osd.store.exists(key):
                    if pool.is_ec:
                        total += _payload_length(osd.store.get(key))
                    else:
                        total += osd.store.stat(key)
                    break
        return total

    def total_used_bytes(self) -> int:
        """Raw bytes used across every OSD."""
        return sum(osd.store.used_bytes() for osd in self.osds.values())

    # -- online elasticity ----------------------------------------------------

    def snapshot_acting_sets(self) -> Dict[Tuple[int, int], List[int]]:
        """(pool_id, pg) -> acting set under the current map.

        Take one before a topology change; :func:`~repro.cluster.rebalance.compute_remap`
        diffs it against the post-change map.
        """
        snap: Dict[Tuple[int, int], List[int]] = {}
        for pool in self.pools.values():
            for pg in range(pool.pg_num):
                snap[(pool.pool_id, pg)] = list(pool.acting_set(pg))
        return snap

    def expand(self, name: str, num_osds: int, rack: str = "default") -> "RemapDiff":
        """Add a host with ``num_osds`` OSDs *online*; returns the remap diff.

        CRUSH immediately includes the new OSDs, moving a (minimal)
        subset of PGs onto them.  Every moved PG becomes an active
        remap: IO keeps flowing against the old+new union while a
        :class:`~repro.cluster.rebalance.Rebalancer` migrates the data.
        """
        before = self.snapshot_acting_sets()
        self.add_host(name, num_osds, rack=rack)
        return self._register_topology_change(before)

    def decommission_osd(self, osd_id: int) -> "RemapDiff":
        """Take an OSD out of placement *online*; returns the remap diff.

        The OSD keeps serving as a migration source (it is out, not
        down); once every remap that references it has retired and its
        store has drained, :meth:`finalize_decommission` removes it.
        """
        if osd_id not in self.osds:
            raise KeyError(f"unknown osd.{osd_id}")
        if not self.cluster_map.osds[osd_id].in_cluster:
            raise ValueError(f"osd.{osd_id} is already out of placement")
        before = self.snapshot_acting_sets()
        self.cluster_map.mark_out(osd_id)
        self.cluster_map.osds[osd_id].decommissioned = True
        return self._register_topology_change(before)

    def _register_topology_change(self, before: Dict[Tuple[int, int], List[int]]) -> "RemapDiff":
        from .rebalance import compute_remap

        diff = compute_remap(self, before)
        for remap in diff.remaps:
            prior = self._active_remaps.get((remap.pool_id, remap.pg))
            if prior is not None:
                # A second change landed while the PG was still mid-
                # remap: widen the sources to the prior union, keep the
                # newest destination (and the original degraded clock).
                remap = remap.chained_from(prior)
            self._active_remaps[(remap.pool_id, remap.pg)] = remap
        return diff

    def active_remaps(self) -> List["PgRemap"]:
        """The PGs currently mid-remap, in deterministic order."""
        return [self._active_remaps[k] for k in sorted(self._active_remaps)]

    def complete_remap(self, pool_id: int, pg: int) -> None:
        """Retire one PG's remap (the rebalancer verified it settled)."""
        self._active_remaps.pop((pool_id, pg), None)

    def retire_remaps(self) -> int:
        """Drop remaps whose old-side members hold nothing any more.

        When no union member outside the strict acting set holds any
        object of the PG, the union view and the strict view are the
        same, so serving from the strict map is safe.  Recovery calls
        this after healing to the current map; returns the number
        retired.
        """
        pools_by_id = {p.pool_id: p for p in self.pools.values()}
        retired = 0
        for (pool_id, pg), remap in sorted(self._active_remaps.items()):
            pool = pools_by_id.get(pool_id)
            if pool is None:
                continue
            acting_ids = set(pool.acting_set(pg))
            parked = False
            for osd_id in remap.union_ids():
                if osd_id in acting_ids:
                    continue
                osd = self.osds.get(osd_id)
                if osd is not None and osd.store.keys_in_pg(pool_id, pg):
                    parked = True
                    break
            if not parked:
                del self._active_remaps[(pool_id, pg)]
                retired += 1
        return retired

    def finalize_decommission(self, osd_id: int) -> None:
        """Remove a drained, decommissioned OSD from the cluster.

        Requires the OSD to be out of placement, unreferenced by any
        active remap, and empty — i.e. the rebalance actually finished.
        """
        osd = self.osds.get(osd_id)
        if osd is None:
            raise KeyError(f"unknown osd.{osd_id}")
        if self.cluster_map.osds[osd_id].in_cluster:
            raise ValueError(
                f"osd.{osd_id} is still in placement; decommission it first"
            )
        for (_pool_id, pg), remap in sorted(self._active_remaps.items()):
            if osd_id in remap.union_ids():
                raise ValueError(
                    f"osd.{osd_id} is still a migration source for pg {pg}"
                )
        leftover = len(list(osd.store.keys()))
        if leftover:
            raise ValueError(
                f"osd.{osd_id} still holds {leftover} object(s); "
                f"run the rebalance to completion first"
            )
        osd.node.osds.remove(osd)
        del self.osds[osd_id]
        self.cluster_map.remove_osd(osd_id)

    # -- failure injection ---------------------------------------------------------

    def fail_osd(self, osd_id: int, mark_out: bool = True) -> None:
        """Simulate an OSD failure (down, and optionally out of placement).

        The dead disk keeps its contents — they are simply unreachable —
        so the cluster can still tell "degraded" apart from "lost".
        """
        self.cluster_map.mark_down(osd_id)
        if mark_out:
            self.cluster_map.mark_out(osd_id)

    def revive_osd(self, osd_id: int) -> None:
        """Re-add a failed OSD with a fresh (empty) disk.

        Matches the paper's Table 3 methodology ("removing and re-adding
        the OSD"): the rejoining OSD starts empty and recovery backfills
        it.

        Like :meth:`restart_osd`, the OSD rejoins flagged
        ``needs_backfill`` and only :func:`~repro.cluster.recovery.recover`
        clears the flag (the single owner of that transition).  The
        empty store cannot serve reads anyway, and — crucially — the
        flag keeps the revived OSD from acting as a deletion *witness*:
        an empty acting replica that recovery would otherwise read as
        "this object was deleted while the stale holders were down",
        deleting the last real copy.
        """
        self.osds[osd_id].store = type(self.osds[osd_id].store)()
        self.osds[osd_id].needs_backfill = True
        self.cluster_map.mark_up(osd_id)
        # Re-adding cancels an auto-out, but never a decommission: an
        # administratively-out OSD stays out across daemon restarts
        # (mark_in would silently undo the drain with no remap to move
        # the data back).
        if not self.cluster_map.osds[osd_id].decommissioned:
            self.cluster_map.mark_in(osd_id)

    def restart_osd(self, osd_id: int) -> None:
        """Bring a crashed OSD back with its disk contents *intact*.

        Models a daemon restart (Ceph's down-but-in window): the disk
        survived, but any write that landed while the OSD was down is
        missing from it, and any object deleted meanwhile still lingers.
        The OSD rejoins flagged ``needs_backfill``; it is kept out of
        the primary role until :func:`~repro.cluster.recovery.recover`
        reconciles its contents against the continuously-up replicas.
        """
        self.osds[osd_id].needs_backfill = True
        self.cluster_map.mark_up(osd_id)
        # See revive_osd: a decommissioned OSD stays out across restarts.
        if not self.cluster_map.osds[osd_id].decommissioned:
            self.cluster_map.mark_in(osd_id)

    # -- sync bridge -----------------------------------------------------------------

    def run(self, gen):
        """Drive the event loop until process ``gen`` completes."""
        return self.sim.run_until_complete(self.sim.process(gen))

    def write_full_sync(self, pool: Pool, oid: str, data: bytes) -> None:
        """Synchronous :meth:`write_full` (drives the event loop)."""
        self.run(self.write_full(pool, oid, data))

    def write_sync(self, pool: Pool, oid: str, offset: int, data: bytes) -> None:
        """Synchronous :meth:`write`."""
        self.run(self.write(pool, oid, offset, data))

    def read_sync(self, pool: Pool, oid: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Synchronous :meth:`read`."""
        return self.run(self.read(pool, oid, offset, length))

    def remove_sync(self, pool: Pool, oid: str) -> None:
        """Synchronous :meth:`remove`."""
        self.run(self.remove(pool, oid))

    def submit_sync(self, pool: Pool, oid: str, txn: Transaction) -> None:
        """Synchronous :meth:`submit`."""
        self.run(self.submit(pool, oid, txn))

    def submit_batch_sync(self, pool: Pool, items) -> None:
        """Synchronous :meth:`submit_batch`."""
        self.run(self.submit_batch(pool, items))
