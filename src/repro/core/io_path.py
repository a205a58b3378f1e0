"""Foreground I/O paths (paper §4.5).

**Write path** — indistinguishable from the underlying storage system in
the common case, because dedup is post-processed: the data lands in the
metadata object's data part (as cached chunks), chunk-map entries are
created/updated with ``cached = dirty = True`` (the chunk ID stays unset
— fingerprinting would add latency), and the object is logged in the
dirty list.  As RADOS orders the writes to one object without waiting
for each to replicate, a write holds the object lock only to build its
transaction and take its place in the object's write line; it
replicates beside the writes ahead of it and commits after them.  The
one exception to original-system cost: a write that partially covers a
chunk whose bytes are *not* cached, once too fragmented to track, has
the metadata primary pre-read the missing part from the chunk object.

**Read path** — the chunk map routes each requested range either to the
metadata object's data part (cached chunk: same cost as the original
system) or to the chunk pool (redirection: metadata pool -> chunk pool
-> client, two one-way hops more than a cached read; the overhead
visible in Figures 10/11).  Chunks are fetched
in parallel, which is why large sequential reads recover the lost
throughput (Figure 11's 128 KiB case).

**Delete path** — the client's delete is done once the metadata object
is removed (§4.6 asks only that a dereference never dangle).  The delete
frees its object lock, then the chunk references its map held are
released behind the reply by the one GC, which re-checks each under the
object lock, so a recreate that took one of them in between keeps it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..cluster import NoSuchObject, Transaction
from ..sim import Timeout
from .objects import ChunkMap, ChunkMapEntry
from .tier import DedupTier

__all__ = ["write_path", "read_path", "delete_path"]


def _split_by_valid(start: int, end: int, valid):
    """Split chunk-relative ``[start, end)`` by the valid-range set.

    Yields ``(piece_start, piece_end, in_cache)`` in offset order.
    """
    pos = start
    for v_start, v_end in valid:
        if v_end <= pos or v_start >= end:
            continue
        if v_start > pos:
            yield (pos, min(v_start, end), False)
            pos = min(v_start, end)
        if pos >= end:
            return
        covered_end = min(v_end, end)
        if covered_end > pos:
            yield (pos, covered_end, True)
            pos = covered_end
        if pos >= end:
            return
    if pos < end:
        yield (pos, end, False)


def _read_cached_piece(tier, oid, offset, length, client):
    """Process: read cached bytes at the metadata primary and return
    them to the client (original-system read cost).

    The cluster's one read path serves it (an EC decode on an
    erasure-coded metadata pool), retried under the tier's policy.
    """
    cluster = tier.cluster
    client = client or cluster.default_client
    key = tier.metadata_key(oid)
    return tier.retrying(
        lambda: cluster.read_key(tier.metadata_pool, key, offset, length, client),
        op="read_cached",
    )


def _read_chunk_piece(tier, chunk_id, offset, length, client):
    """Process: redirected read — metadata pool forwards to the chunk
    pool; chunk primary reads (and decompresses, when the tier stores
    chunks compressed) and returns the data to the client.

    Two one-way hops more than a cached read: the forward below and
    the chunk-pool read's own request.  The second is what reproduces
    the paper's redirection gap (Fig. 11's 32 KiB sequential-read
    ratio; ``tests/core/test_io_path.py`` pins the cost)."""
    cluster = tier.cluster
    client = client or cluster.default_client

    def attempt():
        # Forwarding hop: metadata primary -> chunk primary.
        yield Timeout(tier.sim, cluster.profile.nic.latency)
        data = yield from tier.read_chunk(chunk_id, offset, length, client)
        return data

    return tier.retrying(attempt, op="read_chunk")


def write_path(tier: DedupTier, oid: str, offset: int, data: bytes, client=None):
    """Process: write ``data`` at ``offset`` of object ``oid``.

    Steps (paper §4.5 write path):

    1. the client sends the payload to the object's primary (placement
       hashes the unchanged, user-visible object ID), which starts it
       on to every other replica (:meth:`~repro.cluster.RadosCluster.send`);
    2. under the object lock, the write builds on the map the last write
       in the object's line will commit (else the committed map), and a
       too-fragmented partial overwrite of a non-cached chunk has the
       primary pre-read the missing bytes from the chunk pool;
    3. chunk-map entries are created/updated — cached and dirty set,
       chunk ID left as-is — the write takes its place at the end of the
       line, and the lock is released;
    4. data is written to the object's data part together with the map,
       committed after the write ahead of it in line; the object ID is
       logged in the dirty list and the reply travels back to the
       client.

    The map update and the data write are one transaction, so a crash
    either persists both or neither (§4.6).  The object lock covers only
    building the write (steps 2–3): writers of one object replicate side
    by side and queue only for each other's commit points, not for wire
    time or replication.  A write built on one that does not commit
    fails before its commit point and is retried from the committed map.
    On an erasure-coded metadata pool the write keeps the lock through
    its commit instead (its read-modify-write reads the stripe under the
    lock).  One retry scope covers send, lock and commit, so a retry
    re-sends the payload, as a client does, and no backoff sleeps under
    the lock.
    """
    if offset < 0:
        raise ValueError(f"negative offset {offset}")
    if not data:
        return
    client = client or tier.cluster.default_client
    yield from tier.retrying(
        lambda: _write_once(tier, oid, offset, data, client), op="meta_write"
    )
    yield tier.cluster.reply()


# One attempt of write_path's retry scope (send, lock, commit): a fault
# propagates to it, which re-sends.
def _write_once(tier: DedupTier, oid: str, offset: int, data: bytes, client):
    """Process: one attempt of :func:`write_path` — send the payload,
    take the object lock, build the transaction and take a place in the
    object's write line, release the lock, commit."""
    cluster = tier.cluster
    pool = tier.metadata_pool
    key = tier.metadata_key(oid)
    sent = yield from cluster.send(pool, oid, len(data), client)
    # Mutations of one object are ordered (as RADOS orders ops per
    # object at its PG): the chunk-map read-modify-write below must not
    # interleave with another write's or a dedup pass's.  A write builds
    # on the map the write ahead of it in line commits, and commits
    # after it; the lock is held only until it has its place in line.
    held: list = []
    place = None
    try:
        yield tier.object_locks.acquire(oid, held)
        cs = tier.config.chunk_size
        cmap, after = tier.write_line_tip(oid)
        if cmap is None:
            cmap = yield from tier.load_chunk_map(oid)
            if cmap is None:
                cmap = ChunkMap(cs)
        txn = Transaction()
        end = offset + len(data)
        for idx in tier.chunker.aligned_range(offset, len(data)):
            cstart = idx * cs
            wstart, wend = max(offset, cstart), min(end, cstart + cs)
            rel_start, rel_end = wstart - cstart, wend - cstart
            entry = cmap.get(idx)
            if entry is None:
                entry = ChunkMapEntry(
                    offset=cstart, length=rel_end, cached=True, dirty=True
                )
            else:
                length = max(entry.length, rel_end)
                whole = ((0, length),)
                if not entry.chunk_id or (rel_start == 0 and rel_end >= length):
                    # Never flushed — the whole (zero-extended) chunk
                    # lives in the data part — or overwritten end to end.
                    valid = whole
                else:
                    valid = entry.valid_with(rel_start, rel_end)
                if valid is None:
                    # Too fragmented to track: coalesce with a foreground
                    # pre-read from the chunk object (the paper's pre-read
                    # corner case; common sub-chunk writes never hit it —
                    # the read-modify-write is deferred to the engine).
                    # The primary reads it: its bytes go into the
                    # transaction the primary ships to the replicas.
                    via = cluster.primary(pool, oid).node
                    chunk_bytes = yield from tier.retrying(
                        lambda cid=entry.chunk_id, ln=length: tier.read_chunk(
                            cid, 0, ln, via
                        ),
                        op="preread",
                    )
                    chunk_bytes = chunk_bytes + b"\x00" * (length - len(chunk_bytes))
                    # Fill only the ranges the cache does not hold — the
                    # cached ranges carry newer data.
                    for seg_start, seg_end in entry.replace(length=length).missing_ranges():
                        txn.write(
                            key, cstart + seg_start, chunk_bytes[seg_start:seg_end]
                        )
                    valid = whole
                entry = entry.replace(length=length, dirty=True, valid=valid)
            cmap.set(entry)
        txn.write(key, offset, data)
        if not pool.is_ec:
            # An EC write's read-modify-write reads the stripe under its
            # locks: it keeps the object lock through its commit.
            place = tier.join_write_line(oid, cmap, after)
            tier.object_locks.release(held)
            held.clear()
        # The payload is already at the replicas, or on its way: the
        # commit sends each only the transaction's bytes beyond it.
        # Safe to retry: the transaction writes absolute offsets, so a
        # replay after a partial failure converges to the same state.
        yield from tier.commit_map([(oid, cmap, txn)], sent=sent, after=after)
        if place is not None:
            tier.leave_write_line(oid, place)
            place = None
        tier.mark_dirty(oid)
        tier.fg_window.note(len(data))
        tier.cache.record_access(oid)
    except Exception:
        # An attempt abandoned before its submit ends once its legs
        # have landed (the submit settles its own).
        tier.object_locks.release(held)
        held.clear()
        if place is not None:
            tier.abandon_write_line(oid, place)
        yield from cluster.settle(sent)
        raise
    finally:
        tier.object_locks.release(held)


def delete_path(tier: DedupTier, oid: str, release, client=None):
    """Process: delete object ``oid``; returns once its metadata object
    is gone.

    Under the object lock, the metadata object is removed (the
    user-visible delete) and its chunks leave the cache manager's books.
    The delete then frees the lock, starts ``release(pairs, client)`` —
    the engine's :meth:`~repro.core.engine.DedupEngine.release`, the one GC
    (:func:`~repro.core.scrub.collect_garbage`) over every reference the
    map held — and replies without waiting for it.  The GC re-checks
    each reference under the object lock (a recreate that took it again
    keeps it) and drops the rest in one batched, all-or-nothing commit.
    A crash or a retry give-up in between leaves only over-retained
    chunks (never dangling pointers, never a released prefix of a
    batch), which the GC reclaims — the same §4.6 safety direction as
    flush.
    """
    held: list = []
    pairs = []
    try:
        yield tier.object_locks.acquire(oid, held)
        yield from tier.writes_landed(oid)
        cmap = yield from tier.load_chunk_map(oid)
        if cmap is None:
            raise NoSuchObject(oid)
        key = tier.metadata_key(oid)
        cluster = tier.cluster
        # Removing an already-removed object is a no-op, so the delete
        # is idempotent under retry.
        yield from tier.retrying(
            lambda: cluster.submit(
                tier.metadata_pool, oid, Transaction().remove(key), client
            ),
            op="meta_delete",
        )
        # The decoded map of a removed object must not be served to
        # a later recreate (load_chunk_map hits skip the existence
        # probe entirely).
        tier.invalidate_map_cache(oid)
        # The object is gone whatever happens to its references:
        # take its chunks off the cache manager's books first.
        for entry in cmap:
            tier.cache.note_evicted(oid, entry.offset // tier.config.chunk_size)
            if entry.chunk_id:
                pairs.append((entry.chunk_id, entry_ref(tier, oid, entry)))
    finally:
        tier.object_locks.release(held)
    if pairs:
        release(pairs, client)
    tier.fg_window.note(0)
    yield cluster.reply()


def entry_ref(tier: DedupTier, oid: str, entry):
    """The reference record a chunk-map entry implies."""
    from .objects import ChunkRef

    return ChunkRef(tier.metadata_pool.pool_id, oid, entry.offset)


def read_path(
    tier: DedupTier,
    oid: str,
    offset: int = 0,
    length: Optional[int] = None,
    client=None,
):
    """Process: read ``length`` bytes at ``offset``; returns bytes.

    Cached chunks are served from the metadata object (original-system
    cost); non-cached chunks are fetched from the chunk pool in parallel
    (redirection cost).
    """
    if offset < 0:
        raise ValueError(f"negative offset {offset}")
    # A concurrent dedup pass can re-point a chunk between our map read
    # and the chunk-object read (the old chunk object disappears once
    # dereferenced).  Retrying from a fresh map resolves it.
    for attempt in range(3):
        try:
            data = yield from _read_once(tier, oid, offset, length, client)
            return data
        except NoSuchObject:
            if attempt == 2:
                raise


def _place_segment(tier, buf, base, sstart, seg_len, segment):
    """Copy one gathered segment into the assembly buffer.

    A segment can come back short when the backing object was truncated
    or re-pointed mid-read; pad to keep the gather shape, but never
    silently — the ``read_short_segments`` counter makes the anomaly
    visible to the harness.
    """
    if len(segment) != seg_len:
        tier.stage.read_short_segments += 1
        segment = segment[:seg_len] + b"\x00" * (seg_len - len(segment))
    buf[sstart - base : sstart - base + seg_len] = segment


def _gather(tier, oid, buf, base, cached_pieces, chunk_pieces, client):
    """Process: fetch every planned piece and assemble ``buf`` in place.

    Pieces of the same chunk object merge into one covering fetch; the
    jobs (cached pieces + one redirected fetch per chunk) then run
    concurrently — a read's fan-out is bounded by its own chunk count.
    """
    by_chunk: "OrderedDict[str, list]" = OrderedDict()
    for piece in chunk_pieces:
        by_chunk.setdefault(piece[1], []).append(piece)

    def place_fetch(f_off, pieces, data):
        for sstart, _cid, rel, ln in pieces:
            _place_segment(
                tier, buf, base, sstart, ln, data[rel - f_off : rel - f_off + ln]
            )

    # Build the job list: (generator, result handler).
    jobs: List[Tuple[object, object]] = []
    for sstart, ln in cached_pieces:
        gen = _read_cached_piece(tier, oid, sstart, ln, client)
        jobs.append((gen, lambda seg, s=sstart, n=ln: _place_segment(
            tier, buf, base, s, n, seg)))
    for chunk_id, pieces in by_chunk.items():
        f_off = min(p[2] for p in pieces)
        f_len = max(p[2] + p[3] for p in pieces) - f_off
        gen = _read_chunk_piece(tier, chunk_id, f_off, f_len, client)
        jobs.append((gen, lambda data, o=f_off, ps=pieces: place_fetch(o, ps, data)))

    if len(jobs) <= 1:
        # A single job runs inline: a process would add only cost.
        for gen, handle in jobs:
            result = yield from gen
            handle(result)
    else:
        procs = [tier.sim.process(gen) for gen, _handle in jobs]
        results = yield tier.sim.all_of(procs)
        for (_gen, handle), result in zip(jobs, results):
            handle(result)
    tier.stage.fanout_chunk_reads += len(by_chunk)


def _read_once(tier, oid, offset, length, client):
    cmap = yield from tier.load_chunk_map(oid)
    if cmap is None:
        raise NoSuchObject(oid)
    # The client's request reaches the metadata pool first (one RPC).
    yield Timeout(tier.sim, tier.cluster.profile.nic.latency)
    size = cmap.logical_size()
    end = size if length is None else min(offset + length, size)
    if end <= offset:
        tier.cache.record_access(oid)
        return b""
    cs = tier.config.chunk_size
    # Plan the read: split the requested range into cache-valid pieces
    # (served from the metadata object) and chunk-backed pieces (served
    # by the chunk pool, or zeros when the chunk was never flushed).
    cached_pieces: List[Tuple[int, int]] = []  # (abs start, length)
    chunk_pieces: List[Tuple[int, str, int, int]] = []
    # ^ (abs start, chunk id, chunk-relative offset, length)
    for idx in tier.chunker.aligned_range(offset, end - offset):
        cstart = idx * cs
        entry = cmap.get(idx)
        if entry is None:
            continue  # hole: zero-filled below
        sstart = max(offset, cstart)
        send = min(end, entry.end)
        if send <= sstart:
            continue
        for piece_start, piece_end, in_cache in _split_by_valid(
            sstart - cstart, send - cstart, entry.valid
        ):
            if in_cache:
                # Served by the metadata primary directly — the same
                # cost as the original system's read.
                tier.stage.cache_hits += 1
                cached_pieces.append(
                    (cstart + piece_start, piece_end - piece_start)
                )
            elif entry.chunk_id:
                tier.stage.cache_misses += 1
                # Redirection (paper §6.2.1): the metadata pool forwards
                # the request to the chunk pool, which returns the data
                # to the client — two extra one-way hops per chunk
                # fetch (see _read_chunk_piece).
                chunk_pieces.append(
                    (
                        cstart + piece_start,
                        entry.chunk_id,
                        piece_start,
                        piece_end - piece_start,
                    )
                )
            # else: sparse zeros within the chunk
    buf = bytearray(end - offset)
    yield from _gather(tier, oid, buf, offset, cached_pieces, chunk_pieces, client)
    tier.fg_window.note(end - offset)
    tier.cache.record_access(oid)
    # Hot object served from the chunk pool: promote it back into the
    # metadata-pool cache (asynchronously — the read is already done).
    # ``cache_on_flush`` is the master switch for hot caching: off means
    # the metadata pool never holds clean data, so no promotion either.
    if (
        tier.on_hot_read is not None
        and tier.config.cache_on_flush
        and cmap.promotable_indices()
        and tier.cache.is_hot(oid)
    ):
        tier.on_hot_read(oid)
    return bytes(buf)
