"""Simulated storage nodes and OSD daemons.

A :class:`Node` models one physical server: a NIC and a CPU shared by
all OSD daemons on it (the paper's testbed runs four OSDs per server).
An :class:`OSD` couples an object store with a disk device model; its
execute methods are simulation processes that charge device and CPU time
before touching the store.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import Simulator
from .clustermap import OsdInfo
from .hardware import Cpu, Disk, HardwareProfile, Nic
from .objectstore import ObjectKey, ObjectStore, Transaction

__all__ = ["Node", "OSD", "OsdError", "OsdDownError", "OsdFullError"]


class Node:
    """One server: a NIC and CPU shared by its resident OSDs."""

    def __init__(self, sim: Simulator, name: str, profile: HardwareProfile):
        self.sim = sim
        self.name = name
        self.nic = Nic(sim, profile.nic)
        # The fault injector partitions hosts by NIC owner name.
        self.nic.owner = name
        self.cpu = Cpu(sim, profile.cpu)
        self.osds: List["OSD"] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} osds={[o.osd_id for o in self.osds]}>"


class OSD:
    """One object storage daemon: store + disk + liveness."""

    def __init__(
        self,
        sim: Simulator,
        osd_id: int,
        node: Node,
        info: OsdInfo,
        profile: HardwareProfile,
    ):
        self.sim = sim
        self.osd_id = osd_id
        self.node = node
        self.info = info
        self.store = ObjectStore()
        self.disk = Disk(sim, profile.disk)
        node.osds.append(self)
        #: Fault-injection hook (a FaultInjector, or None); consulted at
        #: the head of every execute path.
        self.faults = None
        #: Set when the daemon rejoins after a crash with its (possibly
        #: stale) disk contents intact; recovery reconciles and clears it.
        self.needs_backfill = False

    @property
    def up(self) -> bool:
        """Whether the daemon is serving (mirrors the cluster map)."""
        return self.info.up

    @property
    def full_threshold(self) -> float:
        """Bytes of usage at which this OSD refuses further writes."""
        return self.disk.spec.capacity_bytes * self.disk.spec.full_ratio

    @property
    def is_full(self) -> bool:
        """Whether usage has crossed the full threshold."""
        return self.store.used_bytes() >= self.full_threshold

    def _check_capacity(self, incoming_bytes: int) -> None:
        used = self.store.used_bytes()
        if used + incoming_bytes > self.full_threshold:
            raise OsdFullError(
                self.osd_id,
                needed_bytes=incoming_bytes,
                available_bytes=max(0, int(self.full_threshold) - used),
            )

    # -- simulation processes -------------------------------------------------

    def execute_read(self, key: ObjectKey, offset: int = 0, length: Optional[int] = None):
        """Process: read object bytes, charging disk and CPU time."""
        if not self.info.up:
            raise OsdDownError(self.osd_id)
        data = self.store.read(key, offset, length)
        if self.faults is not None:
            yield from self.faults.before_op(self, "read", len(data))
        yield from self.node.cpu.execute(self.node.cpu.spec.per_io_cost)
        yield from self.disk.read(max(len(data), 1))
        if not self.info.up:  # daemon died while the op was in flight
            raise OsdDownError(self.osd_id)
        return data

    def prepare_transaction(self, txn: Transaction):
        """Process: everything that can *fail* or take *time* for a txn.

        Charges disk and CPU time, checks capacity, and runs the
        fault-injection hook — but does not touch the store.  Injected
        transient errors therefore fire before any mutation, so a
        retried transaction never observes a half-applied store, and a
        replicated submit can prepare every replica before committing
        any of them (see :meth:`RadosCluster.submit`).
        """
        if not self.info.up:
            raise OsdDownError(self.osd_id)
        io_bytes = txn.io_bytes
        self._check_capacity(io_bytes)
        if self.faults is not None:
            yield from self.faults.before_op(self, "write", io_bytes)
        yield from self.node.cpu.execute(self.node.cpu.spec.per_io_cost)
        yield from self.disk.write(max(io_bytes, 1))
        if not self.info.up:  # died mid-op: the mutation never commits
            raise OsdDownError(self.osd_id)

    def commit_transaction(self, txn: Transaction) -> None:
        """Apply a prepared transaction instantly (the commit point).

        No simulated time elapses and nothing can fail once the prepare
        phase has succeeded, which is what lets ``submit`` make a
        replicated transaction all-or-nothing across replicas.
        """
        self.store.apply(txn)

    def execute_push(self, key: ObjectKey, obj) -> object:
        """Process: install a recovered/replicated full object copy."""
        if not self.info.up:
            raise OsdDownError(self.osd_id)
        footprint = obj.footprint()
        self._check_capacity(footprint)
        if self.faults is not None:
            yield from self.faults.before_op(self, "write", footprint)
        yield from self.disk.write(max(footprint, 1))
        if not self.info.up:  # died mid-op: the push never lands
            raise OsdDownError(self.osd_id)
        self.store.put_object(key, obj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OSD {self.osd_id} on {self.node.name} up={self.up}>"


class OsdError(RuntimeError):
    """Base for typed OSD operation errors.

    ``retryable`` feeds the fault layer's classification
    (:func:`repro.faults.errors.is_retryable`): retry-with-backoff can
    only help when the condition is transient.
    """

    retryable = False

    def __init__(self, osd_id: int, message: str):
        super().__init__(message)
        self.osd_id = osd_id


class OsdDownError(OsdError):
    """An operation was routed to an OSD that is not serving.

    Retryable: the daemon may restart, or a retry may be routed to a
    different (up) replica after primary failover.
    """

    retryable = True

    def __init__(self, osd_id: int):
        super().__init__(osd_id, f"osd.{osd_id} is down")


class OsdFullError(OsdError):
    """A write was refused because the OSD crossed its full ratio.

    Fatal: retrying cannot free space — only deletion or rebalancing
    can, so the error must surface to the caller immediately.
    """

    retryable = False

    def __init__(self, osd_id: int, needed_bytes: int = 0, available_bytes: int = 0):
        detail = ""
        if needed_bytes:
            detail = f" ({needed_bytes}B needed, {available_bytes}B under full ratio)"
        super().__init__(osd_id, f"osd.{osd_id} is full{detail}")
        self.needed_bytes = needed_bytes
        self.available_bytes = available_bytes
