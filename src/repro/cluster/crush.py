"""CRUSH-style pseudo-random placement.

This is the "hash algorithm" of Figure 2-(b) in the paper: a
decentralised, deterministic function from an identifier to a set of
OSDs, computed independently by every client without a metadata server.
It is also one half of the paper's *double hashing* idea — the dedup tier
feeds content fingerprints into this same function to place chunk
objects, which is what lets the design drop the fingerprint index.

We implement straw2 selection (the algorithm in modern Ceph) over a
two-level hierarchy (hosts containing OSDs), with host-level failure
domains: replicas/shards of a placement group land on distinct hosts
whenever enough hosts exist.

Key straw2 property (and the reason Ceph adopted it): when one device's
weight changes, only mappings involving that device can change, so data
movement on reweight/out is proportional to the weight change.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Dict, List, Sequence, Tuple

from .clustermap import ClusterMap

__all__ = ["stable_hash64", "straw2_select", "CrushMap"]

_U64_MAX = 2**64 - 1


def stable_hash64(*parts: object) -> int:
    """A stable 64-bit hash of the parts, identical across processes.

    Python's builtin ``hash`` is salted per-process, so placement would
    not be reproducible with it; we use BLAKE2b instead.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bytes):
            h.update(b"b")
            h.update(part)
        else:
            h.update(b"s")
            h.update(str(part).encode("utf-8"))
        h.update(b"\x00")
    return struct.unpack(">Q", h.digest())[0]


def _draw(key: int, item: str, weight: float) -> float:
    """The straw2 draw: ``ln(u) / w`` with ``u`` uniform in (0, 1]."""
    u = (stable_hash64(key, item) + 1) / (_U64_MAX + 2)  # in (0, 1)
    return math.log(u) / weight


def straw2_select(key: int, items: Sequence[Tuple[str, float]], n: int) -> List[str]:
    """Select ``n`` distinct items, weight-proportionally, deterministically.

    ``items`` is a sequence of ``(name, weight)``.  Items with larger
    draws win; the draw for an item depends only on ``(key, item,
    weight)``, giving straw2's minimal-movement property.
    """
    if n <= 0:
        return []
    scored = sorted(
        ((_draw(key, name, weight), name) for name, weight in items if weight > 0),
        reverse=True,
    )
    return [name for _score, name in scored[:n]]


class CrushMap:
    """Placement over a host/OSD hierarchy derived from a ClusterMap.

    Stateless: every call recomputes from the map as it is now.  The
    per-epoch memo of PG -> acting set lives with the caller that asks
    per I/O, :meth:`repro.cluster.pool.Pool.acting_set`.
    """

    def __init__(self, cluster_map: ClusterMap):
        self.cluster_map = cluster_map

    def select(self, key: int, n: int, failure_domain: str = "host") -> List[int]:
        """Map ``key`` to ``n`` OSD ids with the given failure domain.

        ``failure_domain``:

        * ``"host"`` (default) — replicas/shards land on distinct hosts;
        * ``"rack"`` — distinct racks (one rack is chosen per slot, then
          one host inside it, then one OSD);
        * ``"osd"`` — only distinct devices, no topology constraint.

        Domains are chosen first (straw2 over summed OSD weights), then
        narrowed level by level.  If the cluster has fewer domains than
        ``n``, the remaining slots are filled by straw2 over all
        not-yet-chosen OSDs, relaxing the constraint rather than failing.
        """
        if failure_domain not in ("host", "rack", "osd"):
            raise ValueError(
                f"failure_domain must be 'host', 'rack' or 'osd', "
                f"got {failure_domain!r}"
            )
        by_host = self.cluster_map.hosts()
        osd_weight = {
            osd_id: self.cluster_map.osds[osd_id].weight
            for ids in by_host.values()
            for osd_id in ids
        }
        chosen: List[int] = []
        if failure_domain == "osd":
            picked = straw2_select(
                key, [(str(i), w) for i, w in sorted(osd_weight.items())], n
            )
            chosen = [int(i) for i in picked]
        elif failure_domain == "host":
            host_weights = [
                (host, sum(osd_weight[i] for i in ids))
                for host, ids in sorted(by_host.items())
            ]
            hosts = straw2_select(key, host_weights, min(n, len(host_weights)))
            for host in hosts:
                chosen.extend(self._pick_in_host(key, host, by_host, osd_weight))
        else:  # rack
            by_rack: Dict[str, List[str]] = {}
            for host in by_host:
                by_rack.setdefault(self.cluster_map.rack_of_host(host), []).append(host)
            rack_weights = [
                (
                    rack,
                    sum(osd_weight[i] for h in hosts_ for i in by_host[h]),
                )
                for rack, hosts_ in sorted(by_rack.items())
            ]
            racks = straw2_select(key, rack_weights, min(n, len(rack_weights)))
            for rack in racks:
                host_weights = [
                    (h, sum(osd_weight[i] for i in by_host[h]))
                    for h in sorted(by_rack[rack])
                ]
                hosts = straw2_select(
                    stable_hash64(key, "rack", rack), host_weights, 1
                )
                if hosts:
                    chosen.extend(
                        self._pick_in_host(key, hosts[0], by_host, osd_weight)
                    )
        if len(chosen) < n:
            remaining = [
                (str(i), w) for i, w in sorted(osd_weight.items()) if i not in chosen
            ]
            extra = straw2_select(
                stable_hash64(key, "overflow"), remaining, n - len(chosen)
            )
            chosen.extend(int(i) for i in extra)
        return chosen

    def _pick_in_host(self, key, host, by_host, osd_weight):
        candidates = [(str(i), osd_weight[i]) for i in by_host[host]]
        picked = straw2_select(stable_hash64(key, "host", host), candidates, 1)
        return [int(picked[0])] if picked else []

    def pg_seed(self, pool_id: int, pg: int) -> int:
        """The placement key for a placement group."""
        return stable_hash64("pg", pool_id, pg)

    def map_pg(
        self, pool_id: int, pg: int, n: int, failure_domain: str = "host"
    ) -> List[int]:
        """Acting set (primary first) for placement group ``pg``."""
        return self.select(self.pg_seed(pool_id, pg), n, failure_domain)
