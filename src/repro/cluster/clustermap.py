"""Cluster membership map (the analogue of Ceph's OSDMap).

Tracks every OSD's host, weight, and liveness.  Placement (CRUSH) reads
this map; failure injection and recovery mutate it.  Every mutation bumps
``epoch`` so cached placements can be invalidated.

An OSD has two independent flags, mirroring Ceph:

* ``up`` — the daemon is running and can serve I/O.
* ``in_cluster`` — the OSD participates in placement.  A down OSD stays
  ``in`` (degraded PGs) until it is marked out, which triggers remapping
  and recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["OsdInfo", "ClusterMap"]


@dataclass
class OsdInfo:
    """Static description plus liveness of one OSD."""

    osd_id: int
    host: str
    weight: float = 1.0
    up: bool = True
    in_cluster: bool = True
    rack: str = "default"
    #: Administratively out (being drained for removal), as opposed to
    #: auto-out after a failure.  A daemon restart must NOT bring a
    #: decommissioned OSD back into placement.
    decommissioned: bool = False


@dataclass
class ClusterMap:
    """The set of OSDs, organised by host, with an epoch counter."""

    osds: Dict[int, OsdInfo] = field(default_factory=dict)
    epoch: int = 0
    _next_id: int = 0

    def add_osd(self, host: str, weight: float = 1.0, rack: str = "default") -> int:
        """Register a new OSD on ``host`` (in ``rack``); returns its id."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        osd_id = self._next_id
        self._next_id += 1
        self.osds[osd_id] = OsdInfo(
            osd_id=osd_id, host=host, weight=weight, rack=rack
        )
        self.epoch += 1
        return osd_id

    def rack_of_host(self, host: str) -> str:
        """The rack a host lives in."""
        for info in self.osds.values():
            if info.host == host:
                return info.rack
        raise KeyError(f"unknown host {host!r}")

    def _get(self, osd_id: int) -> OsdInfo:
        try:
            return self.osds[osd_id]
        except KeyError:
            raise KeyError(f"unknown osd id {osd_id}") from None

    def mark_down(self, osd_id: int) -> None:
        """The OSD daemon stopped; data it holds is inaccessible."""
        self._get(osd_id).up = False
        self.epoch += 1

    def mark_up(self, osd_id: int) -> None:
        """The OSD daemon is serving again."""
        self._get(osd_id).up = True
        self.epoch += 1

    def mark_out(self, osd_id: int) -> None:
        """Remove the OSD from placement (triggers remapping)."""
        self._get(osd_id).in_cluster = False
        self.epoch += 1

    def mark_in(self, osd_id: int) -> None:
        """Return the OSD to placement (cancels a pending decommission)."""
        info = self._get(osd_id)
        info.in_cluster = True
        info.decommissioned = False
        self.epoch += 1

    def remove_osd(self, osd_id: int) -> None:
        """Forget a decommissioned OSD entirely.

        Only valid once the OSD is out of placement and drained; the
        cluster facade (:meth:`RadosCluster.finalize_decommission`)
        enforces that.
        """
        info = self._get(osd_id)
        if info.in_cluster:
            raise ValueError(f"osd.{osd_id} is still in placement; mark it out first")
        del self.osds[osd_id]
        self.epoch += 1

    def hosts(self) -> Dict[str, List[int]]:
        """Mapping host name -> ids of OSDs that are ``in`` placement."""
        by_host: Dict[str, List[int]] = {}
        for info in self.osds.values():
            if info.in_cluster and info.weight > 0:
                by_host.setdefault(info.host, []).append(info.osd_id)
        return by_host

    def in_osds(self) -> List[int]:
        """Ids of OSDs that are in placement (up or not)."""
        return [i for i, info in self.osds.items() if info.in_cluster]
