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
* Reads are served by the first of :meth:`RadosCluster._holders` (or by
  ``k`` shards + decode for EC), the rule recovery sources by too.
* A write succeeds in degraded mode while at least ``min_size`` copies
  (or ``k`` shards) are writable; otherwise it raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..sim import Event, LockTable, Simulator, Timeout
from .clustermap import ClusterMap
from .crush import CrushMap
from .ec import _payload_length, _shard_index, _shard_xattrs, _user_xattrs
from .hardware import HardwareProfile, Nic
from .objectstore import NoSuchObject, ObjectKey, ObjectStore, StoredObject, Transaction
from .osd import Node, OSD, OsdDownError
from .pool import Pool, Replicated

__all__ = [
    "Client", "PgMove", "PriorWriteFailed", "RadosCluster", "RemapDiff", "NotEnoughReplicas",
    "Sent",
]

_needs_backfill = attrgetter("needs_backfill")

#: Transaction ops that leave an EC object's payload as it is: a shard
#: applies them without the stripe being decoded or re-encoded.
_SHARD_LOCAL_OPS = frozenset(("setxattr", "rmxattr", "omap_set", "omap_rm"))


def _pick_shards(pool: Pool, key: ObjectKey, holders: List[OSD]) -> List[Tuple[int, OSD]]:
    """``(shard index, holder)`` for the ``k`` lowest distinct indices
    that ``holders`` (:meth:`RadosCluster._holders` order) of the first
    holder's class hold; fewer when fewer are held.  A restarted OSD's
    shard may predate a stripe it missed, so it is never decoded with
    clean ones; of a mid-remap index held twice, the first holder wins."""
    by_idx: Dict[int, OSD] = {}
    for osd in holders:
        if osd.needs_backfill != holders[0].needs_backfill:
            break
        by_idx.setdefault(_shard_index(osd.store.get(key)), osd)
    return sorted(by_idx.items())[: pool.codec.k]


def _logical_size(pool: Pool, obj: StoredObject) -> int:
    """Payload bytes of the object a stored copy (or shard) belongs to."""
    return _payload_length(obj) if pool.is_ec else obj.size


class Sent:
    """Step 1 of the commit pipeline, done (:meth:`RadosCluster.send`):
    where every item's payload went before any lock, for
    :meth:`RadosCluster.submit` to consume."""

    __slots__ = ("keyed", "epoch", "settled", "groups", "at", "legs")

    def __init__(self, keyed, epoch, settled, groups, at, legs) -> None:
        #: The ``(key, transaction)`` items it resolved.
        self.keyed: List[Tuple[ObjectKey, Optional[Transaction]]] = keyed
        #: Cluster-map epoch of the resolution.
        self.epoch = epoch
        #: No PG was unclean and no replicated group was resolved by its
        #: holders: ``groups`` still holds while the epoch stays.
        self.settled = settled
        #: :meth:`RadosCluster._commit_groups` as resolved at send time.
        self.groups = groups
        #: Per item: ``(node, payload bytes, legs)`` — the primary's node
        #: the payload reached, and its group's legs by replica node.
        self.at: List[Tuple[Node, int, Dict[Node, Event]]] = at
        #: Every leg's landing event.
        self.legs: List[Event] = legs


class _Unclean(NamedTuple):
    """One unclean PG in ``RadosCluster._unclean``."""

    #: When the PG went unclean: its degraded window opens here.
    since: float
    #: Its acting set then: a member still acting and never flagged
    #: since has seen every write and delete (a deletion witness).
    origin: Tuple[int, ...]
    #: Earlier acting members, oldest first, that may still hold the
    #: PG's data; reads and writes route over them until it converges.
    prior: Tuple[int, ...]


class PgMove(NamedTuple):
    """One placement group whose acting set a topology change moved."""

    pool_id: int
    pg: int
    old: Tuple[int, ...]
    new: Tuple[int, ...]


@dataclass
class RemapDiff:
    """The PG movements one topology change implies."""

    #: Cluster-map epoch the new acting sets were computed at.
    epoch: int
    remaps: List[PgMove] = field(default_factory=list)

    @property
    def pgs_remapped(self) -> int:
        """Number of placement groups that must move."""
        return len(self.remaps)


class NotEnoughReplicas(RuntimeError):
    """Fewer than ``min_size`` copies/shards are writable or readable.

    Retryable: recovery or an OSD restart can restore the missing
    copies, so a backed-off retry may find the PG healthy again.
    """

    retryable = True


class PriorWriteFailed(RuntimeError):
    """The write a submit was built on (its ``after``) did not commit.

    Raised between the prepare and the commit point, so nothing is
    mutated.  Retryable: the retry builds from the committed state.
    """

    retryable = True


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
        self.default_client = Client(self.sim, "client0", self.profile)
        #: Fault-injection hook (a FaultInjector, or None); consulted on
        #: every inter-host transfer.
        self.faults = None
        # Per-object write locks (docs/internals.md, "The commit
        # pipeline"): a replicated write holds its key's lock shared, and
        # writes built on one another commit in the order the caller
        # gives (``after``); an EC write, whose read-modify-write reads
        # the stripe under the lock, and convergence hold it exclusively.
        self.write_locks = LockTable(self.sim, "rados.write:{0.pool_id}/{0.pg}/{0.name}", 2)
        # (pool_id, pg) -> _Unclean for every PG an OSD failure, restart,
        # expand or decommission left away from its CRUSH placement; IO
        # routes over its earlier members too until repro.cluster.converge
        # settles it and drops the entry.  Empty in the steady state.
        self._unclean: Dict[Tuple[int, int], _Unclean] = {}
        # Callbacks fired after convergence rewrites stored
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
        """Tell listeners that convergence rewrote objects."""
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

    def _acting_osds(self, pool: Pool, pg: int) -> List[OSD]:
        # Takes the PG, not the object name: each rados op resolves
        # `pool.pg_of(oid)` once and hands it to every helper.
        if self._unclean:
            entry = self._unclean.get((pool.pool_id, pg))
            if entry is not None:
                # Until the PG converges its data may sit on earlier
                # members, the acting set, or both: IO runs against the
                # union (earlier members first, so established copies
                # keep serving).
                ids = list(entry.prior)
                ids += [i for i in pool.acting_set(pg) if i not in entry.prior]
                return [self.osds[i] for i in ids if i in self.osds]
        return [self.osds[i] for i in pool.acting_set(pg)]

    def _strays(self, pool: Pool, pg: int) -> List[int]:
        """Earlier members of an unclean PG outside its acting set: the
        PG is remapped while there are any."""
        entry = self._unclean.get((pool.pool_id, pg))
        if entry is None:
            return []
        acting = pool.acting_set(pg)
        return [i for i in entry.prior if i not in acting]

    def acting_osds(self, pool: Pool, oid: str) -> List[OSD]:
        """Every OSD that may hold a copy of ``oid`` right now.

        The CRUSH acting set — widened by the earlier members while the
        object's PG is unclean: the candidates :meth:`_holders` picks
        from, so a copy still parked on a pre-remap acting set is found.
        Reading a copy goes through :meth:`peek` or :meth:`_holders`,
        never through a probe of these stores.
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

    def primary(self, pool: Pool, oid: str, pg: Optional[int] = None) -> OSD:
        """The OSD that runs an op on ``oid``: its first holder, else
        (no copy yet) the first up acting member."""
        if pg is None:
            pg = pool.pg_of(oid)
        holders = self._holders(pool, ObjectKey(pool.pool_id, pg, oid))
        if holders:
            return holders[0]
        up = self._up_subset(self._acting_osds(pool, pg))
        if not up:
            raise NotEnoughReplicas(f"no up OSD for {oid!r} in pool {pool.name!r}")
        return up[0]

    def _holders(
        self, pool: Pool, key: ObjectKey, osds: Optional[Iterable[OSD]] = None
    ) -> List[OSD]:
        """The up OSDs among ``osds`` (default: :meth:`_acting_osds`)
        holding ``key``, continuously-up first: the one answer to "which
        copy do I read?" (docs/internals.md, "Reads").  A restarted
        (``needs_backfill``) OSD's copy may predate its outage, so it
        comes after every clean one.  When it comes first and a clean up
        acting member lacks the object, the object was deleted while it
        was down, and no OSD holds it.  While the PG is unclean only a
        member it had when it went unclean witnesses that: a new one may
        simply not have received the object yet."""
        if osds is None:
            osds = self._acting_osds(pool, key.pg)
        holders = [o for o in osds if o.info.up and o.store.exists(key)]
        for osd in holders:
            if osd.needs_backfill:
                holders.sort(key=_needs_backfill)
                if holders[0].needs_backfill:
                    entry = self._unclean.get((pool.pool_id, key.pg))
                    for i in pool.acting_set(key.pg):
                        witness = self.osds[i]
                        if (
                            witness.info.up
                            and not witness.needs_backfill
                            and (entry is None or i in entry.origin)
                        ):
                            return []
                break
        return holders

    def readable_holders(self, pool: Pool, key: ObjectKey) -> List[OSD]:
        """:meth:`_holders`, or raise: the retryable
        :class:`NotEnoughReplicas` when no acting OSD is up, else
        :class:`NoSuchObject`."""
        holders = self._holders(pool, key)
        if holders:
            return holders
        if any(o.info.up for o in self._acting_osds(pool, key.pg)):
            raise NoSuchObject(key)
        raise NotEnoughReplicas(f"no up OSD for {key.name!r} in pool {pool.name!r}")

    def peek(self, pool: Pool, oid: str) -> Optional[Tuple[OSD, StoredObject]]:
        """Map-time, no simulated cost: the first of :meth:`_holders` of
        ``oid`` and its stored copy (on EC a shard, which carries the
        object's xattrs and omap too), or ``None``."""
        key = ObjectKey(pool.pool_id, pool.pg_of(oid), oid)
        holders = self._holders(pool, key)
        return (holders[0], holders[0].store.get(key)) if holders else None

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

    def reply(self) -> Timeout:
        """Event: the ack of a committed :meth:`submit` or
        :meth:`submit_batch` has reached the client.

        The commit pipeline ends at its commit point; its caller sends
        the reply, inside or after its own locks as its op requires
        (docs/internals.md, "The commit pipeline")."""
        return self.sim.timeout(self.profile.nic.latency)

    # -- replicated data path -----------------------------------------------------

    def submit(
        self,
        pool: Pool,
        oid: str,
        txn: Transaction,
        client: Optional[Client] = None,
        sent: Optional[Sent] = None,
        after: Optional[Event] = None,
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

        ``sent`` is the record of a :meth:`send` of the payload the
        caller made before taking locks of its own; without one, the
        pipeline sends ``txn`` whole from ``client`` first.

        ``after`` is the outcome event of the write ``txn`` was built on
        (it succeeds with whether that write committed): this commit
        point waits for it, and raises :class:`PriorWriteFailed` before
        anything is mutated when it did not commit.  On a replicated pool
        the write waits holding its shared write locks, on an EC pool its
        exclusive ones.

        Returns the generator of :meth:`_submit`, the pipeline shared
        with :meth:`submit_batch`, rather than wrapping it: a wrapping
        generator is one more frame to resume at every yield.
        """
        return self._submit(pool, [(oid, txn)], client, sent, after)

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

        Returns (as the process's value) the number of prepared
        transactions — commit groups — it committed; 0 for a batch with
        no item.
        """
        items = [(oid, txn) for oid, txn in items if len(txn)]
        return self._submit(pool, items, client, None, None)

    def send(self, pool: Pool, oid: str, nbytes: int, client: Optional[Client] = None):
        """Process: step 1 of the commit pipeline for a write into
        ``oid`` (a transaction that does not start by replacing its
        payload) of ``nbytes`` of payload; returns the :class:`Sent`
        record to hand to :meth:`submit`.

        The payload goes from ``client`` to the primary, and a leg
        starts from there to every other up replica node.  No lock is
        taken, so a caller can send before it queues for locks of its
        own; the bytes the transaction adds at the primary travel under
        the locks.  A caller whose attempt fails before its submit owes
        :meth:`settle`.
        """
        key = ObjectKey(pool.pool_id, pool.pg_of(oid), oid)
        return self._send(pool, [(key, None)], [nbytes], client)

    def settle(self, sent: Sent):
        """Process: wait until every leg of ``sent`` has landed — what an
        abandoned send owes before its attempt ends."""
        pending = [leg for leg in sent.legs if not leg.processed]
        if pending:
            yield self.sim.all_of(pending)

    def _send(
        self,
        pool: Pool,
        keyed: List[Tuple[ObjectKey, Optional[Transaction]]],
        sizes: List[int],
        client: Optional[Client],
    ):
        """Process: step 1 of :meth:`_submit` — resolve the ``(key,
        transaction)`` items' replicas (:meth:`_commit_groups`) without
        any lock, move each group's ``sizes`` bytes from ``client`` to
        its primary's node, then start a leg (:meth:`Nic.post
        <repro.cluster.hardware.Nic.post>`, not a process) to each of
        its other up replica nodes (none on an EC pool, whose shards are
        built under the locks).  A PG already short of ``min_size``, or
        a partitioned link, fails here before a leg starts."""
        client = client or self.default_client
        ec = pool.is_ec
        epoch = self.cluster_map.epoch
        settled = not self._unclean
        groups = self._commit_groups(pool, keyed)
        at: list = [None] * len(keyed)
        sends = []
        for gid, targets, members in groups:
            if gid[1] and not ec:  # resolved by holders, not by the map alone
                settled = False
            node = targets[0].node
            legs: Dict[Node, Event] = {}
            nbytes = 0
            for i in members:
                at[i] = (node, sizes[i], legs)
                nbytes += sizes[i]
            sends.append((node, nbytes, legs, () if ec else targets))
        # A primary on the client's own node already has its payload.
        moves = [(node, nbytes) for node, nbytes, _legs, _targets in sends
                 if node.nic is not client.nic]
        if len(moves) == 1:  # a lone transfer needs no process of its own
            node, nbytes = moves[0]
            yield from self._transfer(client.nic, node.nic, nbytes)
        elif moves:
            yield self.sim.all_of([
                self.sim.process(self._transfer(client.nic, node.nic, nbytes))
                for node, nbytes in moves
            ])
        if self.faults is not None:  # every link first: no leg of a failed send
            for node, _nbytes, _legs, targets in sends:
                for osd in targets:
                    self.faults.check_link(node.nic, osd.node.nic)
        started = []
        for node, nbytes, legs, targets in sends:
            for osd in targets:
                dst = osd.node
                if dst is not node and dst not in legs:
                    legs[dst] = leg = node.nic.post(dst.nic, nbytes)
                    started.append(leg)
        return Sent(keyed, epoch, settled, groups, at, started)

    def _submit(
        self,
        pool: Pool,
        items: List[Tuple[str, Transaction]],
        client: Optional[Client],
        sent: Optional[Sent],
        after: Optional[Event],
    ):
        """Process: the one commit pipeline of :meth:`submit` and
        :meth:`submit_batch` (docs/internals.md, "The commit pipeline").

        1. Send (:meth:`_send`, or the caller's :meth:`send`): resolve
           every item's replicas without any lock, move the payload to
           each group's primary and start its legs to the other
           replicas.
        2. Take the items' write locks in key order: shared on a
           replicated pool, where the order of writes to one object is
           the caller's (``after``), exclusive on an EC one.
        3. Resolve again, under the locks: this resolution is what
           commits.  Convergence changes holder sets only under the
           same locks, so a write that queued on the client NIC while
           its PG was remapped, migrated and settled lands on the
           replicas of *now*; an item whose primary changed meanwhile
           has its payload forwarded primary to primary, and a member
           with no leg gets the whole transaction from the primary.
           When no PG was unclean at either point, no replicated group
           was resolved by its holders and the map epoch has not moved,
           step 1's resolution still holds and is reused.
        4. On an EC pool, encode: each group's transaction becomes one
           transaction per shard (:meth:`_ec_encode`), on the primary.
        5. Prepare every replica (shard) of every group — a replica
           whose leg carried the payload is sent only the control
           message, the transaction's bytes beyond it — wait for
           ``after`` (a write this one was built on that did not commit
           fails it here), check quorum for all groups, then commit all
           of them: one fault anywhere and nothing is mutated.  Drop
           the parked copies of every rewritten stripe; release.  The
           pipeline ends here, at its commit point, once every leg has
           landed: the caller sends the :meth:`reply`.  Returns the
           number of groups committed.
        """
        if not items:
            return 0
        if sent is None:
            keyed = [(ObjectKey(pool.pool_id, pool.pg_of(oid), oid), txn) for oid, txn in items]
            sizes = [txn.io_bytes for _oid, txn in items]
            sent = yield from self._send(pool, keyed, sizes, client)
        else:
            keyed = [(key, txn) for (key, _none), (_oid, txn) in zip(sent.keyed, items)]
        ec = pool.is_ec
        groups = sent.groups
        held: list = []
        try:
            for key in sorted({key for key, _txn in keyed}):
                yield self.write_locks.acquire(key, held, shared=not ec)
            # Every change of an OSD's up/in state bumps the epoch,
            # and settled groups depend on nothing else but the
            # needs_backfill flags, which convergence clears without a
            # bump: that only reorders the same up members, so the
            # reused primary is still an up replica.
            if not (
                sent.settled
                and not self._unclean
                and sent.epoch == self.cluster_map.epoch
            ):
                groups = self._commit_groups(pool, keyed)
            plan = []  # (primary, [(OSD, txn, bytes to send, leg)]) per group
            stripes = []  # keys of the EC objects whose stripe is rewritten
            for _gid, targets, members in groups:
                primary = targets[0]
                node = primary.node
                nbytes = 0
                legs: Optional[Dict[Node, Event]] = sent.at[members[0]][2]
                for i in members:
                    src, size, item_legs = sent.at[i]
                    if src is not node:  # the primary moved: forward
                        yield from self._transfer(src.nic, node.nic, size)
                        legs = None
                    elif item_legs is not legs:
                        legs = None
                    nbytes += size
                if len(members) == 1:
                    txn = items[members[0]][1]
                else:
                    txn = Transaction()
                    for i in members:
                        txn.ops.extend(items[i][1].ops)
                if ec:
                    key = keyed[members[0]][0]
                    shards, stripe = yield from self._ec_encode(pool, key, txn, primary)
                    if stripe:
                        stripes.append(key)
                    plan.append((primary, [(osd, t, t.io_bytes, None) for osd, t in shards]))
                else:
                    # The legs carried what was sent: the whole transaction,
                    # or (a send() of no transaction yet) its payload only.
                    whole = txn.io_bytes if sent.keyed[members[0]][1] is None else nbytes
                    copies = []
                    for osd in targets:
                        leg = legs.get(osd.node) if legs else None
                        copies.append((osd, txn, whole if leg is None else whole - nbytes, leg))
                    plan.append((primary, copies))
            yield self.sim.all_of([
                self.sim.process(self._replica_prepare(primary, osd, txn, nbytes, leg))
                for primary, shards in plan
                for osd, txn, nbytes, leg in shards
            ])
            if after is not None:
                if not after.triggered:
                    yield after
                if not after.value:
                    raise PriorWriteFailed(
                        f"the write {items[0][0]!r} was built on did not commit"
                    )
            # Commit point: every replica of every group prepared and
            # none is mutated yet.  Applying is instantaneous, so no
            # fault can interleave and split the copies.  An OSD that
            # crashed after its prepare is skipped (it rejoins stale
            # and recovery reconciles it), but a group that lost
            # quorum aborts the whole batch before anything applies.
            survivors = []
            for _primary, shards in plan:
                alive = [(osd, txn) for osd, txn, _nbytes, _leg in shards if osd.info.up]
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
        except Exception:
            # No leg outlives its submit: the locks go now, the failure
            # once every leg has landed.
            self.write_locks.release(held)
            held.clear()
            yield from self.settle(sent)
            raise
        finally:
            self.write_locks.release(held)
        if groups is not sent.groups:  # a leg to a member left out lands here
            yield from self.settle(sent)
        return len(plan)

    def _commit_groups(
        self, pool: Pool, items: List[Tuple[ObjectKey, Optional[Transaction]]]
    ) -> List[Tuple[Tuple[int, str], List[OSD], List[int]]]:
        """``(group id, replicas, item indices)`` per commit group of the
        ``(key, transaction)`` items, resolved now, in group-id — (PG,
        object) — order.  A transaction of ``None`` stands for a write
        into the object not yet built (:meth:`send`).

        The items of a PG that is not remapped form one group — one
        merged transaction on the PG's up acting set.  Each item of a
        remapped PG (one with :meth:`_strays`) is a group of its own, on
        the up members of the earlier+acting union that *hold* the
        object: writing to a non-holder would materialise a partial copy
        (a zero-extended overwrite) that a later migration could mistake
        for the real thing.  A new object goes to every up union member,
        so a creation needs no migration of its own (convergence merely
        trims the earlier members' copies).

        An item that ends by removing its object, or that does not start
        by replacing its payload, goes to the object's :meth:`_holders`,
        as a group of its own (joined by any later item on the object)
        when they are not the whole up set: a restarted replica that
        never received the object has nothing to remove, and an up
        member that does not hold it — CRUSH moved the PG when an OSD
        was marked out — must not be handed a partial write, which would
        materialise a zero-filled copy.

        On an EC pool every object is a group of its own, on the up
        members of the *strict* CRUSH acting set in slot order: the
        shard index is the slot, so a mid-remap stripe write lands whole
        on the new acting set (the encode step picks the shards).

        Raises :class:`NotEnoughReplicas` when a group has fewer than
        ``min_size`` replicas up.
        """
        unclean = self._unclean
        ec = pool.is_ec
        groups: Dict[Tuple[int, str], Tuple[Tuple[int, str], List[OSD], List[int]]] = {}
        for i, (key, txn) in enumerate(items):
            pg = key.pg
            gid = (pg, key.name)
            up: Optional[List[OSD]] = None
            if not ec and gid not in groups and not (unclean and self._strays(pool, pg)):
                gid = (pg, "")
                ops = None if txn is None else txn.ops
                if ops is None or ops and (ops[-1][0] == "remove" or ops[0][0] != "write_full"):
                    up = self._up_subset(self._acting_osds(pool, pg))
                    # Every up member holds it: the holders are the up
                    # set (their order agrees) — the common case.
                    if len([o for o in up if o.store.exists(key)]) != len(up):
                        holders = self._holders(pool, key)
                        if holders and holders != up:
                            gid, up = (pg, key.name), holders
            group = groups.get(gid)
            if group is None:
                if ec:
                    up = [self.osds[n] for n in pool.acting_set(pg)]
                    up = [osd for osd in up if osd.info.up]
                elif up is None:
                    up = self._up_subset(self._acting_osds(pool, pg))
                    if gid[1]:  # remapped: the holders, or all for a creation
                        up = self._holders(pool, key) or up
                if len(up) < pool.redundancy.min_size:
                    raise NotEnoughReplicas(
                        f"{len(up)} replicas up for {key.name!r} in pg {pg}; "
                        f"need {pool.redundancy.min_size}"
                    )
                group = groups[gid] = (gid, up, [i])
            else:
                group[2].append(i)
        return sorted(groups.values()) if len(groups) > 1 else list(groups.values())

    def _replica_prepare(
        self, primary: OSD, replica: OSD, txn: Transaction, nbytes: int, leg: Optional[Event]
    ):
        """Process: one replica's prepare — ``nbytes`` from the primary's
        node, the prepare, the ack.  Without a ``leg`` that is the whole
        transaction; with one, only the control message: the bytes the
        leg did not carry, through the same NIC queues (so it lands
        after the leg), or with none a bare go, costed as a request."""
        if replica.node is not primary.node:
            if leg is None or nbytes:
                yield from self._transfer(primary.node.nic, replica.node.nic, nbytes)
            else:
                if self.faults is not None:
                    self.faults.check_link(primary.node.nic, replica.node.nic)
                yield self._rpc_latency()
            if leg is not None and not leg.processed:
                yield leg
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
        yield self.reply()

    def write(self, pool: Pool, oid: str, offset: int, data: bytes, client: Optional[Client] = None):
        """Process: write ``data`` at ``offset`` (partial overwrite).

        On EC pools this is a full-stripe read-modify-write, which is
        exactly the penalty the paper measures for EC random writes
        (§6.4.1).
        """
        key = self.object_key(pool, oid)
        txn = Transaction().write(key, offset, data)
        yield from self.submit(pool, oid, txn, client)
        yield self.reply()

    def remove(self, pool: Pool, oid: str, client: Optional[Client] = None):
        """Process: delete the object from every replica/shard."""
        key = self.object_key(pool, oid)
        txn = Transaction().remove(key)
        yield from self.submit(pool, oid, txn, client)
        yield self.reply()

    def read(
        self,
        pool: Pool,
        oid: str,
        offset: int = 0,
        length: Optional[int] = None,
        client: Optional[Client] = None,
    ):
        """Process: read ``length`` bytes at ``offset``; returns bytes
        (the generator of :meth:`read_key`, not a wrapper of it)."""
        key = ObjectKey(pool.pool_id, pool.pg_of(oid), oid)
        return self.read_key(pool, key, offset, length, client or self.default_client, True)

    def read_key(
        self,
        pool: Pool,
        key: ObjectKey,
        offset: int,
        length: Optional[int],
        client: Optional[Client],
        request: bool = False,
    ):
        """Process: the one read path of both pool types; returns the
        bytes (docs/internals.md, "Reads").

        Replicated: after the ``request`` message, if asked for, the
        first of :meth:`_holders` reads the range, failing over to the
        next only on :class:`OsdDownError` (a transient error is the
        client retry layer's, as Ceph re-peers on OSD death but returns
        EIO).  EC: the first holder fans out to :func:`_pick_shards`,
        decodes the whole stripe on its CPU and slices it; fewer than
        ``k`` shards raise the retryable :class:`NotEnoughReplicas`.  The
        bytes travel to ``client``, or stay at the serving OSD for
        ``None``.
        """
        if pool.is_ec:
            holders = self.readable_holders(pool, key)
            primary = holders[0]
            shards = _pick_shards(pool, key, holders)
            if len(shards) < pool.codec.k:
                raise NotEnoughReplicas(f"{len(shards)} shards of {key.name!r}; need {pool.codec.k}")
            size = _payload_length(primary.store.get(key))
            nic = primary.node.nic

            def fetch(holder: OSD):
                shard = yield from holder.execute_read(key)
                yield from self._transfer(holder.node.nic, nic, len(shard))
                return shard

            yield self._rpc_latency()  # request fan-out
            jobs = [self.sim.process(fetch(osd)) for _idx, osd in shards]
            results = yield self.sim.all_of(jobs)
            slots: List[Optional[bytes]] = [None] * pool.codec.n
            for (idx, _osd), shard in zip(shards, results):
                slots[idx] = shard
            yield from primary.node.cpu.execute(primary.node.cpu.spec.ec_time(size))
            data = pool.codec.decode(slots, size)
            if client is not None:
                yield from self._transfer(nic, client.nic, size)
            return data[offset : None if length is None else offset + length]
        if request:
            yield self._rpc_latency()
        last_exc: Optional[BaseException] = None
        for osd in self.readable_holders(pool, key):
            try:
                data = yield from osd.execute_read(key, offset, length)
            except OsdDownError as exc:
                last_exc = exc
                yield self._rpc_latency()  # redirect to the next holder
                continue
            if client is not None:
                yield from self._transfer(osd.node.nic, client.nic, len(data))
            return data
        raise last_exc

    # -- metadata access -----------------------------------------------------------

    def _copy(self, pool: Pool, oid: str) -> StoredObject:
        """The first holder's copy of ``oid`` (see :meth:`readable_holders`)."""
        key = self.object_key(pool, oid)
        return self.readable_holders(pool, key)[0].store.get(key)

    def stat(self, pool: Pool, oid: str):
        """Process: object payload size (logical size for EC)."""
        yield self._rpc_latency()
        return _logical_size(pool, self._copy(pool, oid))

    def exists(self, pool: Pool, oid: str) -> bool:
        """Whether :meth:`_holders` finds the object (map-time check)."""
        return bool(self._holders(pool, self.object_key(pool, oid)))

    def getxattr(self, pool: Pool, oid: str, name: str):
        """Process: read one xattr from the first holder."""
        yield self._rpc_latency()
        return self._copy(pool, oid).xattrs[name]

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
        yield self.reply()

    def omap_get(self, pool: Pool, oid: str, name: str):
        """Process: read one omap value from the first holder."""
        yield self._rpc_latency()
        return self._copy(pool, oid).omap[name]

    def omap_keys(self, pool: Pool, oid: str) -> List[str]:
        """Map-time snapshot of omap keys on the first holder."""
        return list(self._copy(pool, oid).omap)

    # -- EC data path -------------------------------------------------------------

    def _ec_encode(self, pool: Pool, key: ObjectKey, txn: Transaction, primary: OSD):
        """Process: the encode step of :meth:`_submit` for one EC object.

        Returns ``(shards, stripe)``: the ``(OSD, transaction)`` pairs
        that apply ``txn`` to ``key``'s shards, and whether they rewrite
        the whole stripe.

        * A transaction of xattr/omap ops only, or one that ends by
          removing the object, leaves every shard's payload as it is: it
          goes as it stands to every holder of a shard (:meth:`_holders`),
          parked copies of a mid-remap PG included (so they stay the same
          generation), with no decode and no encode.
        * Any other transaction changes the payload.  The stripe is read
          and decoded by :meth:`read_key` (not when ``txn`` starts by
          replacing the payload) and the object's metadata taken from the
          first holder; ``primary`` applies ``txn``, encodes the result on
          its CPU and rewrites the shard of every up slot of the strict
          CRUSH acting set, the object's metadata with it.
        """
        holders = self._holders(pool, key)
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
                data = yield from self.read_key(pool, key, 0, None, None)
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
        shard the same generation — the invariant :func:`_pick_shards`'
        distinct-index selection relies on.
        """
        if not self._unclean:
            return
        for osd_id in self._strays(pool, key.pg):
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

    def payload_bytes(self, pool: Pool, oid: str) -> int:
        """Payload bytes of one object, 0 when no up OSD holds it
        (map-time, no simulated cost)."""
        found = self.peek(pool, oid)
        return _logical_size(pool, found[1]) if found is not None else 0

    def pool_logical_bytes(self, pool: Pool) -> int:
        """Payload bytes counting each object once (primary copy)."""
        return sum(self.payload_bytes(pool, oid) for oid in self.list_objects(pool))

    def total_used_bytes(self) -> int:
        """Raw bytes used across every OSD."""
        return sum(osd.store.used_bytes() for osd in self.osds.values())

    # -- online elasticity and failures -----------------------------------------

    def _acting_sets(self) -> Dict[Tuple[int, int], List[int]]:
        """(pool_id, pg) -> acting set under the current map."""
        return {
            (pool.pool_id, pg): pool.acting_set(pg)
            for pool in self.pools.values()
            for pg in range(pool.pg_num)
        }

    def _mark_unclean(
        self, before: Dict[Tuple[int, int], List[int]], osd_id: Optional[int] = None
    ) -> RemapDiff:
        """Record every PG a change left unclean; returns the moved ones.

        ``before`` is :meth:`_acting_sets` from just before the change.
        A PG is unclean when its acting set moved, or when it has
        ``osd_id`` (an OSD that failed, restarted or rejoined) as a
        member.  A PG already unclean keeps its degraded clock and its
        origin, and its earlier members grow by the acting set it had:
        no location that may still hold data is forgotten.
        """
        diff = RemapDiff(epoch=self.cluster_map.epoch)
        now = self.sim.now
        for pool in self.pools.values():
            for pg in range(pool.pg_num):
                old = before[(pool.pool_id, pg)]
                new = pool.acting_set(pg)
                if old != new:
                    diff.remaps.append(PgMove(pool.pool_id, pg, tuple(old), tuple(new)))
                elif osd_id not in old:
                    continue
                entry = self._unclean.get((pool.pool_id, pg))
                if entry is None:
                    entry = _Unclean(now, tuple(old), tuple(old))
                else:
                    prior = entry.prior + tuple(i for i in old if i not in entry.prior)
                    entry = entry._replace(prior=prior)
                self._unclean[(pool.pool_id, pg)] = entry
        return diff

    def expand(self, name: str, num_osds: int, rack: str = "default") -> RemapDiff:
        """Add a host with ``num_osds`` OSDs *online*; returns the remap diff.

        CRUSH immediately includes the new OSDs, moving a (minimal)
        subset of PGs onto them.  Every moved PG turns unclean: IO keeps
        flowing against its earlier and new members while
        :func:`~repro.cluster.converge.converge` migrates the data.
        """
        before = self._acting_sets()
        self.add_host(name, num_osds, rack=rack)
        return self._mark_unclean(before)

    def decommission_osd(self, osd_id: int) -> RemapDiff:
        """Take an OSD out of placement *online*; returns the remap diff.

        The OSD keeps serving as a migration source (it is out, not
        down); once no unclean PG names it and its store has drained,
        :meth:`finalize_decommission` removes it.
        """
        if osd_id not in self.osds:
            raise KeyError(f"unknown osd.{osd_id}")
        if not self.cluster_map.osds[osd_id].in_cluster:
            raise ValueError(f"osd.{osd_id} is already out of placement")
        before = self._acting_sets()
        self.cluster_map.mark_out(osd_id)
        self.cluster_map.osds[osd_id].decommissioned = True
        return self._mark_unclean(before)

    def finalize_decommission(self, osd_id: int) -> None:
        """Remove a drained, decommissioned OSD from the cluster.

        Requires the OSD to be out of placement, named by no unclean PG,
        and empty — i.e. convergence actually finished.
        """
        osd = self.osds.get(osd_id)
        if osd is None:
            raise KeyError(f"unknown osd.{osd_id}")
        if self.cluster_map.osds[osd_id].in_cluster:
            raise ValueError(
                f"osd.{osd_id} is still in placement; decommission it first"
            )
        for (_pool_id, pg), entry in sorted(self._unclean.items()):
            if osd_id in entry.prior:
                raise ValueError(
                    f"osd.{osd_id} is still a migration source for pg {pg}"
                )
        leftover = len(list(osd.store.keys()))
        if leftover:
            raise ValueError(
                f"osd.{osd_id} still holds {leftover} object(s); "
                f"run convergence to completion first"
            )
        osd.node.osds.remove(osd)
        del self.osds[osd_id]
        self.cluster_map.remove_osd(osd_id)

    def fail_osd(self, osd_id: int, mark_out: bool = True) -> None:
        """Simulate an OSD failure (down, and optionally out of placement).

        The dead disk keeps its contents — they are simply unreachable —
        so the cluster can still tell "degraded" apart from "lost".  Its
        PGs turn unclean.
        """
        before = self._acting_sets()
        self.cluster_map.mark_down(osd_id)
        if mark_out:
            self.cluster_map.mark_out(osd_id)
        self._mark_unclean(before, osd_id)

    def revive_osd(self, osd_id: int) -> None:
        """Re-add a failed OSD with a fresh (empty) disk.

        Matches the paper's Table 3 methodology ("removing and re-adding
        the OSD"): the rejoining OSD starts empty and convergence
        backfills it.

        Like :meth:`restart_osd`, the OSD rejoins flagged
        ``needs_backfill`` and only :func:`~repro.cluster.converge.converge`
        clears the flag (the single owner of that transition).  The
        empty store cannot serve reads anyway, and — crucially — the
        flag keeps the revived OSD from acting as a deletion *witness*:
        an empty acting replica that convergence would otherwise read as
        "this object was deleted while the stale holders were down",
        deleting the last real copy.
        """
        before = self._acting_sets()
        self.osds[osd_id].store = type(self.osds[osd_id].store)()
        self.osds[osd_id].needs_backfill = True
        self.cluster_map.mark_up(osd_id)
        # Re-adding cancels an auto-out, but never a decommission: an
        # administratively-out OSD stays out across daemon restarts
        # (mark_in would silently undo the drain with no convergence to
        # move the data back).
        if not self.cluster_map.osds[osd_id].decommissioned:
            self.cluster_map.mark_in(osd_id)
        self._mark_unclean(before, osd_id)

    def restart_osd(self, osd_id: int) -> None:
        """Bring a crashed OSD back with its disk contents *intact*.

        Models a daemon restart (Ceph's down-but-in window): the disk
        survived, but any write that landed while the OSD was down is
        missing from it, and any object deleted meanwhile still lingers.
        The OSD rejoins flagged ``needs_backfill``; it is kept out of
        the primary role until :func:`~repro.cluster.converge.converge`
        reconciles its contents against the continuously-up replicas.
        """
        before = self._acting_sets()
        self.osds[osd_id].needs_backfill = True
        self.cluster_map.mark_up(osd_id)
        # See revive_osd: a decommissioned OSD stays out across restarts.
        if not self.cluster_map.osds[osd_id].decommissioned:
            self.cluster_map.mark_in(osd_id)
        self._mark_unclean(before, osd_id)

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
