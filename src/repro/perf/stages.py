"""Per-stage counters for the dedup hot path.

The tier and engine keep one :class:`StageCounters` per
:class:`~repro.core.tier.DedupTier` and bump it inline as work flows
through the four hot-path stages:

* **chunking** — dirty-chunk assembly (cache reads + merge) in the
  engine;
* **fingerprint** — content hashing (count, bytes, and the wall-clock
  seconds spent inside the hash call itself);
* **ref** — chunk-pool reference traffic: logical ref/deref operations,
  the round trips (prepared commits) they cost, and how many were
  collapsed into batches;
* **flush** — chunk payloads newly stored in the chunk pool.

Counters are plain ints/floats — cheap enough to stay always-on — and
live here (not in ``repro.core``) so ``benchmarks/e2e`` and
``repro.obs.collect`` can snapshot them without reaching into engine
internals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["StageCounters"]


@dataclass
class StageCounters:
    """Always-on counters for the dedup hot path, by stage."""

    # -- chunking: dirty chunk assembly ---------------------------------
    chunking_ops: int = 0
    chunking_bytes: int = 0

    # -- fingerprint ----------------------------------------------------
    fingerprint_ops: int = 0
    fingerprint_bytes: int = 0
    #: Wall-clock seconds inside the hash call (synchronous, so this is
    #: real host time, not simulated time).
    fingerprint_seconds: float = 0.0

    # -- ref: chunk-pool reference traffic ------------------------------
    #: Logical reference mutations (each ref or deref counts once).
    ref_ops: int = 0
    #: Prepared commits those mutations cost (round trips).  Unbatched,
    #: this tracks ``ref_ops``; batched, it collapses toward one per
    #: placement group per pass.
    ref_commits: int = 0
    #: Batched commits (each covers >= 1 ref_ops).
    ref_batches: int = 0

    # -- map: chunk-map codec traffic -----------------------------------
    #: ``load_chunk_map`` calls served from the decoded-map LRU (no
    #: disk read, no deserialize).
    map_cache_hits: int = 0
    map_cache_misses: int = 0
    #: Cache entries dropped by explicit invalidation (faulted commits,
    #: deletes, PG convergence) — LRU evictions not included.
    map_cache_invalidations: int = 0
    #: Chunk-map entries actually serialised by commits vs. the entries
    #: the committed maps held in total.  Incremental (v2) commits keep
    #: the first well below the second on small-I/O workloads.
    map_entries_serialized: int = 0
    map_entries_total: int = 0
    #: Bytes of map metadata written by commits (headers + entries).
    map_bytes_serialized: int = 0
    #: Map commits (all in the incremental v2 format).
    map_commits_incremental: int = 0

    # -- read path: cache and fan-out -----------------------------------
    #: Chunk segments served from the metadata-pool cache vs redirected
    #: to the chunk pool.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Chunk-object fetches the read path issued to the pool (same-chunk
    #: pieces merged).
    fanout_chunk_reads: int = 0

    # -- read path anomalies --------------------------------------------
    #: Chunk segments that came back short from the substrate and were
    #: zero-padded to the expected length (see ``io_path._read_once``).
    read_short_segments: int = 0

    # -- flush: new chunk payloads --------------------------------------
    flush_ops: int = 0
    flush_bytes: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy (JSON-ready)."""
        return asdict(self)
