"""Simulated scale-out distributed storage substrate (RADOS-like).

The decentralised, shared-nothing storage system of the paper's §2.1:
CRUSH-style hash placement over hosts and OSDs, replicated and
erasure-coded pools, per-object transactions with xattr/omap metadata,
failure handling, and one convergence engine for recovery and
rebalance — all running on modelled hardware under a discrete-event
clock.
"""

from .clustermap import ClusterMap, OsdInfo
from .crush import CrushMap, stable_hash64, straw2_select
from .ec import GF256, ReedSolomon
from .hardware import (
    Cpu,
    CpuSpec,
    Disk,
    DiskSpec,
    HardwareProfile,
    Nic,
    NicSpec,
)
from .objectstore import (
    NoSuchObject,
    ObjectExists,
    ObjectKey,
    ObjectStore,
    StoredObject,
    Transaction,
    PER_OBJECT_OVERHEAD,
)
from .osd import Node, OSD, OsdDownError, OsdError, OsdFullError
from .pool import ErasureCoded, Pool, Replicated
from .rados import Client, NotEnoughReplicas, PriorWriteFailed, RadosCluster, RemapDiff
from .converge import (
    ConvergeStats,
    PGState,
    converge,
    converge_sync,
    pg_state,
    placement_report,
    placement_skew,
)
from .scrub import (
    ReplicaScrubReport,
    repair_pool,
    repair_pool_sync,
    scrub_pool,
    scrub_pool_sync,
)

__all__ = [
    "ClusterMap",
    "OsdInfo",
    "CrushMap",
    "stable_hash64",
    "straw2_select",
    "GF256",
    "ReedSolomon",
    "HardwareProfile",
    "DiskSpec",
    "NicSpec",
    "CpuSpec",
    "Disk",
    "Nic",
    "Cpu",
    "ObjectKey",
    "StoredObject",
    "Transaction",
    "ObjectStore",
    "NoSuchObject",
    "ObjectExists",
    "PER_OBJECT_OVERHEAD",
    "Node",
    "OSD",
    "OsdError",
    "OsdDownError",
    "OsdFullError",
    "Pool",
    "Replicated",
    "ErasureCoded",
    "Client",
    "RadosCluster",
    "NotEnoughReplicas",
    "PriorWriteFailed",
    "RemapDiff",
    "ConvergeStats",
    "PGState",
    "converge",
    "converge_sync",
    "pg_state",
    "placement_report",
    "placement_skew",
    "ReplicaScrubReport",
    "scrub_pool",
    "scrub_pool_sync",
    "repair_pool",
    "repair_pool_sync",
]
