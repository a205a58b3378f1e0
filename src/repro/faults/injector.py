"""The fault injector: executes a :class:`FaultPlan` against a cluster.

Attaching an injector wires it into the substrate's execute paths:

* ``OSD.execute_read/prepare_transaction/execute_push`` call
  :meth:`FaultInjector.before_op`, which may raise an injected
  :class:`~repro.faults.errors.TransientOpError` (EIO) or charge extra
  device time (slow-disk degradation);
* ``RadosCluster._transfer`` calls :meth:`FaultInjector.check_link`,
  which raises :class:`~repro.faults.errors.NetworkPartitionError`
  while the two hosts are partitioned;
* crash/restart events drive ``fail_osd(mark_out=False)`` /
  ``restart_osd`` — the disk keeps its contents across the outage, so a
  restarted OSD rejoins *stale* and convergence must reconcile it (the
  scenario where dedup refcounts are easiest to lose).

All per-op randomness (EIO coin flips) comes from a stream derived from
the plan's seed, so a given (plan, workload) pair replays identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Generator, List, Set

from ..cluster import converge
from ..sim.rng import RngRegistry
from .errors import NetworkPartitionError, TransientOpError
from .plan import FaultEvent, FaultPlan

__all__ = ["FaultInjector", "FaultStats"]


@dataclass
class FaultStats:
    """Counters describing what the injector actually did."""

    crashes: int = 0
    restarts: int = 0
    eio_injected: int = 0
    slow_ops_delayed: int = 0
    partition_drops: int = 0
    partitions_started: int = 0
    windows_expired: int = 0


class FaultInjector:
    """Schedules a :class:`FaultPlan` onto a cluster's simulated clock."""

    def __init__(self, cluster: Any, plan: FaultPlan, auto_recover: bool = True) -> None:
        self.cluster = cluster
        self.plan = plan
        #: Kick off a convergence run whenever a crashed OSD restarts
        #: (what Ceph's peering would do); hand-driven tests disable it.
        self.auto_recover = auto_recover
        self.stats = FaultStats()
        self._rng = RngRegistry(plan.seed).stream("faults.injector")
        self._slow: Dict[int, float] = {}
        self._eio: Dict[int, float] = {}
        self._partitions: Set[FrozenSet[str]] = set()
        self._crashed: Set[int] = set()
        self._attached = False

    # -- lifecycle ------------------------------------------------------------

    def attach(self) -> "FaultInjector":
        """Wire into the cluster and schedule every plan event."""
        if self._attached:
            return self
        self._attached = True
        self.cluster.faults = self
        for osd in self.cluster.osds.values():
            osd.faults = self
        for ev in self.plan:
            self.cluster.sim.call_later(ev.time, self._apply, ev)
        return self

    def detach(self) -> None:
        """Stop injecting (already-scheduled crashes still fire)."""
        self.cluster.faults = None
        for osd in self.cluster.osds.values():
            osd.faults = None
        self._slow.clear()
        self._eio.clear()
        self._partitions.clear()

    def heal_all(self) -> None:
        """End every active fault window and restart crashed OSDs.

        Does *not* run convergence — callers decide when to heal data
        (tests heal, converge, then scrub).
        """
        self._slow.clear()
        self._eio.clear()
        self._partitions.clear()
        for osd_id in sorted(self._crashed):
            self._restart(osd_id, recover_after=False)

    @property
    def down_osds(self) -> List[int]:
        """OSD ids currently crashed by this injector."""
        return sorted(self._crashed)

    # -- plan execution -------------------------------------------------------

    def _apply(self, ev: FaultEvent) -> None:
        if ev.kind == "osd_crash":
            self._crash(int(ev.target))
        elif ev.kind == "osd_restart":
            self._restart(int(ev.target))
        elif ev.kind == "slow_disk":
            osd_id = int(ev.target)
            self._slow[osd_id] = float(ev.params.get("factor", 4.0))
            self.cluster.sim.call_later(ev.duration, self._end_slow, osd_id)
        elif ev.kind == "transient_errors":
            osd_id = int(ev.target)
            self._eio[osd_id] = float(ev.params.get("probability", 0.1))
            self.cluster.sim.call_later(ev.duration, self._end_eio, osd_id)
        elif ev.kind == "partition":
            pair = frozenset(ev.target.split("|", 1))
            self._partitions.add(pair)
            self.stats.partitions_started += 1
            self.cluster.sim.call_later(ev.duration, self._end_partition, pair)

    def _crash(self, osd_id: int) -> None:
        osd = self.cluster.osds[osd_id]
        if not osd.up:
            return
        # Down but *in*: placement is unchanged and the dead disk keeps
        # its contents — the restart path rejoins with stale state.
        self.cluster.fail_osd(osd_id, mark_out=False)
        self._crashed.add(osd_id)
        self.stats.crashes += 1

    def _restart(self, osd_id: int, recover_after: bool = True) -> None:
        if osd_id not in self._crashed:
            return
        self.cluster.restart_osd(osd_id)
        self._crashed.discard(osd_id)
        self.stats.restarts += 1
        if recover_after and self.auto_recover:
            self.cluster.sim.process(converge(self.cluster))

    def _end_slow(self, osd_id: int) -> None:
        self._slow.pop(osd_id, None)
        self.stats.windows_expired += 1

    def _end_eio(self, osd_id: int) -> None:
        self._eio.pop(osd_id, None)
        self.stats.windows_expired += 1

    def _end_partition(self, pair: FrozenSet[str]) -> None:
        self._partitions.discard(pair)
        self.stats.windows_expired += 1

    # -- substrate hooks ------------------------------------------------------

    def before_op(self, osd: Any, op: str, nbytes: int) -> Generator[Any, Any, None]:
        """Process: runs at the head of every OSD execute path.

        May raise :class:`TransientOpError` (before any store mutation,
        so a retry observes an untouched object) or charge extra device
        time while the OSD's disk is degraded.
        """
        probability = self._eio.get(osd.osd_id)
        if probability is not None and self._rng.random() < probability:
            self.stats.eio_injected += 1
            raise TransientOpError(osd.osd_id, op)
        factor = self._slow.get(osd.osd_id)
        if factor is not None and factor > 1.0:
            spec = osd.disk.spec
            base = (
                spec.read_time(max(nbytes, 1))
                if op == "read"
                else spec.write_time(max(nbytes, 1))
            )
            self.stats.slow_ops_delayed += 1
            yield osd.sim.timeout((factor - 1.0) * base)

    def check_link(self, src_nic: Any, dst_nic: Any) -> None:
        """Raise :class:`NetworkPartitionError` across a partitioned pair."""
        if not self._partitions:
            return
        src = getattr(src_nic, "owner", None)
        dst = getattr(dst_nic, "owner", None)
        if src is None or dst is None or src == dst:
            return
        if frozenset((src, dst)) in self._partitions:
            self.stats.partition_drops += 1
            raise NetworkPartitionError(src, dst)
