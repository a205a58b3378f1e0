"""Simulated scale-out distributed storage substrate (RADOS-like).

The decentralised, shared-nothing storage system of the paper's §2.1:
CRUSH-style hash placement over hosts and OSDs, replicated and
erasure-coded pools, per-object transactions with xattr/omap metadata,
failure handling, and one convergence engine for recovery and
rebalance — all running on modelled hardware under a discrete-event
clock.
"""

from .objectstore import (
    NoSuchObject,
    ObjectExists,
    ObjectKey,
    Transaction,
    PER_OBJECT_OVERHEAD,
)
from .osd import OsdDownError, OsdError, OsdFullError
from .pool import ErasureCoded, Pool, Replicated
from .rados import NotEnoughReplicas, PriorWriteFailed, RadosCluster
from .converge import (
    ConvergeStats,
    converge,
    converge_sync,
    placement_report,
    placement_skew,
)
from .scrub import repair_pool, repair_pool_sync, scrub_pool, scrub_pool_sync

__all__ = [
    "ObjectKey",
    "Transaction",
    "NoSuchObject",
    "ObjectExists",
    "PER_OBJECT_OVERHEAD",
    "OsdError",
    "OsdDownError",
    "OsdFullError",
    "Pool",
    "Replicated",
    "ErasureCoded",
    "RadosCluster",
    "NotEnoughReplicas",
    "PriorWriteFailed",
    "ConvergeStats",
    "converge",
    "converge_sync",
    "placement_report",
    "placement_skew",
    "scrub_pool",
    "scrub_pool_sync",
    "repair_pool",
    "repair_pool_sync",
]
