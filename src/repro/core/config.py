"""Configuration for the deduplication tier.

Defaults follow the paper's evaluation setup (§6.1): 32 KiB static
chunks, SHA-1 fingerprints, post-processing with watermark rate
control on foreground IOPS, HitSet-based selective dedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DedupConfig"]

KiB = 1024


@dataclass
class DedupConfig:
    """Tuning knobs of the dedup tier.

    Attributes
    ----------
    chunk_size:
        Static chunk size in bytes (paper default 32 KiB).
    cache_on_flush:
        Master switch for hot-data caching.  On: a flushed chunk of a
        hot object stays cached in the metadata object, and reads of
        hot-but-evicted objects trigger background promotion back into
        the cache.  Off: clean data never lives in the metadata pool.
    cache_capacity_bytes:
        Cap on total cached chunk bytes in the metadata pool; ``None``
        means uncapped.  When exceeded, the engine demotes the least
        recently used chunks (paper §4.3: "a LRU based approach, which
        is simple"; the only eviction policy).
    hitset_period / hit_count_threshold:
        HitSet tuning (paper §5): accesses are recorded into a rotating
        ring of ``cache.HITSET_COUNT`` (8) bloom filters, one per
        ``hitset_period`` seconds; an object is *hot* when it appears in
        at least ``hit_count_threshold`` of them and its current run of
        accesses began at least ``hit_count_threshold - 1`` periods ago —
        hot means sustained access, so two accesses a moment apart on
        either side of a rotation are not two periods' worth.  A run ends after
        ``hitset_period * HITSET_COUNT`` seconds without an access.  Hot
        objects are never deduplicated by the background engine
        (selective dedup, §3.2).
    rate_control:
        Enable watermark-based throttling of background dedup I/O.
    ops_per_dedup_mid / ops_per_dedup_high:
        Pacing between and above the foreground IOPS watermarks
        (``rate_control.LOW_WATERMARK``/``HIGH_WATERMARK``, paper
        §4.4.2): one dedup I/O per this many foreground ops (paper's
        example values 100 and 500), one budget shared by all
        ``engine_workers``.  Below the low watermark dedup runs
        unthrottled.
    dedup_interval:
        Engine idle poll period (seconds) when the dirty list is empty.
    refcount_mode:
        ``"strict"`` — release the old chunks of a pass right behind
        its map commit, through the GC (paper §4.4.1 step 3); a
        drain releases those of every pass of a round in one GC, once
        the round's passes have all ended;
        ``"false_positive"`` — queue them instead, leaving garbage
        references for the GC (§4.6's
        OrderMergeDedup-style variant), which ``drain()`` and every idle
        background worker run over the engine's deref queue.
    """

    chunk_size: int = 32 * KiB

    cache_on_flush: bool = True
    cache_capacity_bytes: Optional[int] = None
    hitset_period: float = 1.0
    hit_count_threshold: int = 2

    #: Compress chunk payloads before storing them in the chunk pool
    #: (tier-level compression; the paper instead relies on the node
    #: filesystem — Figure 13 — but a content-addressed chunk store can
    #: compress beneath the fingerprint transparently).  Chunks that do
    #: not shrink are stored raw.
    compress_chunks: bool = False

    rate_control: bool = True
    ops_per_dedup_mid: int = 100
    ops_per_dedup_high: int = 500

    dedup_interval: float = 0.05
    refcount_mode: str = "strict"

    #: Background dedup thread count (paper §3.2: "background
    #: deduplication threads periodically conduct a deduplication job").
    #: Sizes the rate-paced background workers only: ``drain()`` runs
    #: its own forced workers, two per metadata primary OSD with a
    #: dirty PG.
    engine_workers: int = 8

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.cache_capacity_bytes is not None and self.cache_capacity_bytes < 0:
            raise ValueError(
                f"cache_capacity_bytes must be >= 0 or None, "
                f"got {self.cache_capacity_bytes}"
            )
        # A ratio of 0 would read as "unthrottled" above the watermarks.
        if self.ops_per_dedup_mid < 1 or self.ops_per_dedup_high < 1:
            raise ValueError("ops_per_dedup_mid and ops_per_dedup_high must be >= 1")
        # An idle background worker sleeps dedup_interval per poll: at 0
        # it would poll forever without the clock ever advancing.
        if self.dedup_interval <= 0:
            raise ValueError(
                f"dedup_interval must be positive, got {self.dedup_interval}"
            )
        if self.refcount_mode not in ("strict", "false_positive"):
            raise ValueError(
                f"refcount_mode must be 'strict' or 'false_positive', "
                f"got {self.refcount_mode!r}"
            )
        if self.hit_count_threshold < 1:
            raise ValueError("hit_count_threshold must be >= 1")
        if self.engine_workers < 1:
            raise ValueError("engine_workers must be >= 1")
