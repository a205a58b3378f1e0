"""Pools: named object namespaces with a redundancy scheme.

The paper's design uses exactly two pools (§4.2): a *metadata pool* for
metadata objects and a *chunk pool* for deduplicated chunk objects, each
free to pick its own redundancy scheme (replication or erasure coding)
and placement.  This module provides the generic pool abstraction those
two are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from .crush import CrushMap, stable_hash64
from .ec import ReedSolomon

__all__ = ["Redundancy", "Replicated", "ErasureCoded", "Pool"]

#: Bound of the object-name hash memo below.  One I/O asks for the PG of
#: the same name at several layers (tier, rados, object store key) and
#: hot names recur across ops, so a bounded LRU removes nearly every
#: BLAKE2b call without growing with the number of objects ever touched.
#: Sized on the e2e benchmark: `rand-small-cold` hashes 1.63 names/op at
#: 1024 entries, 0.79 at 2048, 0.30 at 4096 and 0.28 at 8192 (27.8
#: unmemoised); an entry is about 180 bytes, so the bound is ~0.7 MB.
OID_HASH_MEMO_ENTRIES = 4096


@lru_cache(maxsize=OID_HASH_MEMO_ENTRIES)
def _object_hash(pool_id: int, oid: str) -> int:
    """``stable_hash64("obj", pool_id, oid)``, memoised (a pure function)."""
    return stable_hash64("obj", pool_id, oid)


@dataclass(frozen=True)
class Replicated:
    """Primary-copy replication with ``size`` total copies."""

    size: int = 2

    @property
    def width(self) -> int:
        """Number of OSDs in each acting set."""
        return self.size

    @property
    def min_size(self) -> int:
        """Minimum replicas that must be writable to accept I/O."""
        return max(1, self.size - 1)

    def raw_multiplier(self) -> float:
        """Raw-to-logical space multiplier."""
        return float(self.size)


@dataclass(frozen=True)
class ErasureCoded:
    """Reed-Solomon ``k + m`` erasure coding."""

    k: int = 2
    m: int = 1

    @property
    def width(self) -> int:
        """Number of OSDs in each acting set (``k + m`` shards)."""
        return self.k + self.m

    @property
    def min_size(self) -> int:
        """Minimum shards that must be available to serve I/O."""
        return self.k

    def raw_multiplier(self) -> float:
        """Raw-to-logical space multiplier, e.g. 1.5 for 2+1."""
        return (self.k + self.m) / self.k

    def codec(self) -> ReedSolomon:
        """The codec instance for this profile."""
        return ReedSolomon(self.k, self.m)


Redundancy = object  # typing alias: Replicated | ErasureCoded


class Pool:
    """A pool: id, name, redundancy scheme, and PG-based placement.

    Placement is memoised here, where it is asked: the PG -> acting-set
    table is kept per cluster-map epoch, so ``redundancy``, ``pg_num``
    and ``failure_domain`` are fixed once the first acting set has been
    computed (changing them under live data would need a migration, not
    an attribute write).
    """

    def __init__(
        self,
        pool_id: int,
        name: str,
        redundancy,
        pg_num: int,
        crush: CrushMap,
        failure_domain: str = "host",
    ):
        if pg_num < 1:
            raise ValueError(f"pg_num must be >= 1, got {pg_num}")
        self.pool_id = pool_id
        self.name = name
        self.redundancy = redundancy
        self.pg_num = pg_num
        self.crush = crush
        self.failure_domain = failure_domain
        self._codec: Optional[ReedSolomon] = (
            redundancy.codec() if isinstance(redundancy, ErasureCoded) else None
        )
        # PG -> acting set under cluster-map epoch `_acting_epoch`.  Every
        # map mutation (add/remove OSD, mark_*) bumps the epoch, so the
        # compare in acting_set() is the only invalidation hook needed.
        self._acting: Dict[int, List[int]] = {}
        self._acting_epoch = -1

    @property
    def is_ec(self) -> bool:
        """Whether this pool is erasure-coded."""
        return self._codec is not None

    @property
    def codec(self) -> Optional[ReedSolomon]:
        """The EC codec, or ``None`` for replicated pools."""
        return self._codec

    def pg_of(self, oid: str) -> int:
        """Placement group for an object name."""
        return _object_hash(self.pool_id, oid) % self.pg_num

    def acting_set(self, pg: int) -> List[int]:
        """OSDs (primary first) for ``pg`` under the current map.

        Computed once per PG and map epoch; the caller gets its own copy.
        """
        epoch = self.crush.cluster_map.epoch
        if epoch != self._acting_epoch:
            self._acting.clear()
            self._acting_epoch = epoch
        acting = self._acting.get(pg)
        if acting is None:
            acting = self._acting[pg] = self.crush.map_pg(
                self.pool_id, pg, self.redundancy.width, self.failure_domain
            )
        return list(acting)

    def acting_set_for(self, oid: str) -> List[int]:
        """OSDs (primary first) for an object name."""
        return self.acting_set(self.pg_of(oid))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pool {self.name!r} id={self.pool_id} {self.redundancy}>"
