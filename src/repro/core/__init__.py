"""The paper's contribution: global dedup for scale-out storage.

Key pieces:

* double hashing / content-addressed chunk pool (:mod:`.tier`),
* self-contained metadata & chunk objects (:mod:`.objects`),
* post-processing dedup engine with rate control and selective
  (hotness-aware) dedup (:mod:`.engine`, :mod:`.rate_control`,
  :mod:`.cache`),
* the public facade (:class:`DedupedStorage`), and
* the baselines the paper compares against (:mod:`.baselines`).
"""

from .baselines import (
    DedupPotential,
    InlineDedupStorage,
    PlainStorage,
    analyze_dedup_potential,
)
from .blockdev import BlockDevice
from .cache import CacheManager, HitSet
from .client import DedupedStorage
from .config import DedupConfig
from .engine import DedupEngine, EngineStats
from .io_path import read_path, write_path
from .objects import (
    CHUNK_MAP_ENTRY_BYTES,
    CHUNK_MAP_XATTR,
    REFERENCE_ENTRY_BYTES,
    ChunkMap,
    ChunkMapEntry,
    ChunkRef,
    RefSet,
)
from .rate_control import OpWindow, RateController
from .scrub import (
    GcReport,
    ScrubReport,
    collect_garbage,
    collect_garbage_sync,
    scrub,
    scrub_sync,
)
from .tier import DedupTier, NodeClient, SpaceReport

__all__ = [
    "BlockDevice",
    "DedupedStorage",
    "DedupConfig",
    "DedupTier",
    "DedupEngine",
    "EngineStats",
    "SpaceReport",
    "NodeClient",
    "ChunkMap",
    "ChunkMapEntry",
    "ChunkRef",
    "RefSet",
    "CHUNK_MAP_ENTRY_BYTES",
    "REFERENCE_ENTRY_BYTES",
    "CHUNK_MAP_XATTR",
    "CacheManager",
    "HitSet",
    "OpWindow",
    "RateController",
    "ScrubReport",
    "scrub",
    "scrub_sync",
    "GcReport",
    "collect_garbage",
    "collect_garbage_sync",
    "write_path",
    "read_path",
    "DedupPotential",
    "analyze_dedup_potential",
    "InlineDedupStorage",
    "PlainStorage",
]
