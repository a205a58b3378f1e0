"""Configuration for the deduplication tier.

Defaults follow the paper's evaluation setup (§6.1): 32 KiB static
chunks, SHA-1-class fingerprints, post-processing with watermark rate
control, HitSet-based selective dedup.
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
    fingerprint_algorithm:
        Hash used for chunk IDs (double hashing's first hash).
    selective_dedup:
        Skip deduplicating hot objects (paper §3.2): a hot object stays
        cached in the metadata pool until its HitSet count cools down.
    cache_on_flush:
        Master switch for hot-data caching.  On: a flushed chunk of a
        hot object stays cached in the metadata object, and reads of
        hot-but-evicted objects trigger background promotion back into
        the cache.  Off: clean data never lives in the metadata pool.
    cache_capacity_bytes:
        Cap on total cached chunk bytes in the metadata pool; ``None``
        means uncapped.  When exceeded, the engine demotes LRU chunks.
    hitset_period / hitset_count / hit_count_threshold:
        HitSet tuning (paper §5): accesses are recorded into a rotating
        ring of ``hitset_count`` bloom filters, one per ``hitset_period``
        seconds; an object is *hot* when it appears in at least
        ``hit_count_threshold`` of them.
    rate_control:
        Enable watermark-based throttling of background dedup I/O.
    watermark_metric:
        ``"iops"`` or ``"throughput"`` — what the watermarks compare
        against (paper §4.4.2 allows either).
    low_watermark / high_watermark:
        Below low: dedup unthrottled.  Between: one dedup I/O per
        ``ops_per_dedup_mid`` foreground ops.  Above high: one per
        ``ops_per_dedup_high`` (paper's example values 100 and 500).
    dedup_interval:
        Engine idle poll period (seconds) when the dirty list is empty.
    hot_requeue_delay:
        How long a skipped-because-hot object waits before the engine
        looks at it again.
    refcount_mode:
        ``"strict"`` — dereference synchronously before re-pointing a
        chunk (paper §4.4.1 step 3); ``"false_positive"`` — skip the
        wait, leaving garbage references for a GC pass (§4.6's
        OrderMergeDedup-style variant).
    """

    chunk_size: int = 32 * KiB
    fingerprint_algorithm: str = "sha1"

    selective_dedup: bool = True
    cache_on_flush: bool = True
    cache_capacity_bytes: Optional[int] = None
    #: Eviction policy for cached chunks: "lru" (the paper's choice),
    #: "lfu", or "fifo" (§4.3 notes other algorithms could slot in).
    cache_policy: str = "lru"
    hitset_period: float = 1.0
    hitset_count: int = 8
    hit_count_threshold: int = 2

    #: Compress chunk payloads before storing them in the chunk pool
    #: (tier-level compression; the paper instead relies on the node
    #: filesystem — Figure 13 — but a content-addressed chunk store can
    #: compress beneath the fingerprint transparently).  Chunks that do
    #: not shrink are stored raw.
    compress_chunks: bool = False
    compress_level: int = 1

    rate_control: bool = True
    watermark_metric: str = "iops"
    low_watermark: float = 100.0
    high_watermark: float = 1_000.0
    ops_per_dedup_mid: int = 100
    ops_per_dedup_high: int = 500

    dedup_interval: float = 0.05
    hot_requeue_delay: float = 1.0
    refcount_mode: str = "strict"

    #: LRU cache of decoded ChunkMaps in front of ``load_chunk_map``,
    #: versioned per object: every committed map mutation bumps the
    #: object's map version, and a cached decode is served only when its
    #: version matches.  0 disables.
    map_cache_entries: int = 256
    #: Background dedup thread count (paper §3.2: "background
    #: deduplication threads periodically conduct a deduplication job").
    engine_workers: int = 8

    #: Retry/backoff plumbing (see ``repro.faults.retry``): transient
    #: substrate errors (injected EIO, partitions, degraded PGs) are
    #: retried up to ``retry_max_attempts`` total attempts, sleeping
    #: ``retry_base_delay * retry_backoff**(n-1)`` (capped at
    #: ``retry_max_delay``) before attempt n+1.
    retry_max_attempts: int = 4
    retry_base_delay: float = 0.002
    retry_backoff: float = 2.0
    retry_max_delay: float = 0.25
    #: Per-attempt deadline in simulated seconds; ``None`` disables the
    #: deadline race (an op then runs until it finishes or fails).
    op_timeout: Optional[float] = None
    #: How long a dedup pass that hit a fault waits before the object is
    #: retried from the dirty list (skip-and-requeue degradation).
    fault_requeue_delay: float = 0.2

    #: Record per-op span trees (``repro.obs``): every write/read/delete
    #: and dedup pass produces a tree of timed stage spans on the
    #: simulation clock.  Off by default — the disabled tracer hands out
    #: a shared null span, so the hot path pays only no-op method calls.
    trace_ops: bool = False
    #: Cap on buffered spans per tracer; further spans are counted as
    #: dropped instead of growing memory without bound.
    trace_max_spans: int = 250_000

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.watermark_metric not in ("iops", "throughput"):
            raise ValueError(
                f"watermark_metric must be 'iops' or 'throughput', "
                f"got {self.watermark_metric!r}"
            )
        if self.low_watermark > self.high_watermark:
            raise ValueError("low_watermark must be <= high_watermark")
        if self.refcount_mode not in ("strict", "false_positive"):
            raise ValueError(
                f"refcount_mode must be 'strict' or 'false_positive', "
                f"got {self.refcount_mode!r}"
            )
        if self.hit_count_threshold < 1:
            raise ValueError("hit_count_threshold must be >= 1")
        if self.engine_workers < 1:
            raise ValueError("engine_workers must be >= 1")
        if self.cache_policy not in ("lru", "lfu", "fifo"):
            raise ValueError(
                f"cache_policy must be 'lru', 'lfu' or 'fifo', "
                f"got {self.cache_policy!r}"
            )
        if not (0 <= self.compress_level <= 9):
            raise ValueError(
                f"compress_level must be 0..9, got {self.compress_level}"
            )
        if self.retry_max_attempts < 1:
            raise ValueError(
                f"retry_max_attempts must be >= 1, got {self.retry_max_attempts}"
            )
        if self.retry_base_delay < 0 or self.retry_max_delay < 0:
            raise ValueError("retry delays must be >= 0")
        if self.retry_backoff < 1.0:
            raise ValueError(f"retry_backoff must be >= 1, got {self.retry_backoff}")
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ValueError(f"op_timeout must be positive, got {self.op_timeout}")
        if self.fault_requeue_delay < 0:
            raise ValueError("fault_requeue_delay must be >= 0")
        if self.map_cache_entries < 0:
            raise ValueError(
                f"map_cache_entries must be >= 0, got {self.map_cache_entries}"
            )
        if self.trace_max_spans < 0:
            raise ValueError(
                f"trace_max_spans must be >= 0, got {self.trace_max_spans}"
            )
