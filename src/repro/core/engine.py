"""The post-processing deduplication engine (paper §4.4.1).

A background process drains the dirty object ID list:

1. pop a dirty metadata object;
2. find its dirty chunks from the chunk map (they are cached in the
   object's data part) and assemble their bytes.  A fully cached chunk
   is one local read, made one after another.  A partially cached one
   is the deferred read-modify-write of a sub-chunk overwrite: its
   cached ranges overlay the old chunk object's bytes.  The pass issues
   the reads of all its partially cached chunks at once — one local
   read per cached range and one chunk-pool read spanning a chunk's
   missing ranges;
3. if the cache manager deems the object cold, fingerprint each dirty
   chunk; store-or-reference the chunk in the chunk pool (double
   hashing places it by content);
4-5. the chunk pool either stores the object with its first reference
   or just appends reference information;
6. update the metadata object's chunk map (dirty cleared, cached per
   cache policy) in a single transaction;
7. only then dereference the chunk objects whose entries moved to new
   content (step 3's dereference, deferred past the commit).

Rate control (§4.4.2) paces step 3's I/O against foreground load, and
hot objects are skipped entirely (selective dedup) until they cool off.

A pass holds the object's lock from its map load until step 7 has
landed, the same lock every foreground write and delete of the object
takes, so no mutation can land mid-pass.  A worker does not wait for
step 7: the pass hands it, with the lock, to a process of its own and
the worker takes its next object.  No ABA fence is needed: until the
release lands and frees the lock, no write can revert the entry to the
old content and no later pass can take the reference it drops.  A pass
that faults instead aborts before the chunk map commits (undoing the
references it took) and the object is re-queued — the dirty bits, which
are part of the same transactions as the data they describe, remain the
source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from ..cluster import Transaction
from ..faults.errors import is_retryable
from ..fingerprint import timed_fingerprint
from .objects import ChunkRef
from .refcount import make_refcounter
from .tier import ChunkBatch, DedupTier, NodeClient

__all__ = ["DedupEngine", "EngineStats"]

#: How long an object skipped because it is hot waits before the engine
#: looks at it again.
HOT_REQUEUE_DELAY = 1.0
#: How long an object whose pass hit a fault waits before it is retried
#: from the dirty list (skip-and-requeue degradation).
FAULT_REQUEUE_DELAY = 0.2


def _missing_span(entry):
    """``(start, end)`` covering every missing range of ``entry``."""
    missing = entry.missing_ranges()
    return missing[0][0], missing[-1][1]


def _merge_partial(entry, parts):
    """The bytes of a partially cached chunk from its reads' results.

    ``parts`` yields them in :meth:`DedupEngine._start_merge_reads`
    order: the old chunk's bytes first (a short read, e.g. of a chunk
    the entry has grown past, leaves zeros), then the cached ranges
    overlaying them.
    """
    buf = bytearray(entry.length)
    if entry.chunk_id:
        start = _missing_span(entry)[0]
        old = next(parts)
        buf[start : start + len(old)] = old
    for start, _end in entry.valid:
        part = next(parts)
        buf[start : start + len(part)] = part
    return bytes(buf)


def _settle(proc):
    """Process: wait until ``proc`` has ended, whatever its outcome."""
    if not proc.triggered:
        try:
            yield proc
        except Exception:
            pass  # reported by the caller's own error or by _release_errors


@dataclass
class EngineStats:
    """Counters describing what the engine has done."""

    objects_processed: int = 0
    objects_skipped_hot: int = 0
    #: Always 0: a pass holds the object lock every mutation takes, so
    #: none can race it.  Kept while the e2e benchmark reads it.
    objects_aborted_race: int = 0
    #: Passes abandoned because the substrate faulted mid-pass (the
    #: object is requeued; references taken this pass are released).
    objects_requeued_fault: int = 0
    #: Dereferences skipped because the substrate faulted; the chunk is
    #: left over-retained for the offline GC (never dangling).
    derefs_deferred_fault: int = 0
    chunks_flushed: int = 0
    chunks_deduped: int = 0
    bytes_flushed: int = 0
    bytes_deduped: int = 0
    chunks_evicted: int = 0
    chunks_promoted: int = 0


class DedupEngine:
    """Background post-processing deduplication."""

    def __init__(self, tier: DedupTier):
        self.tier = tier
        self.config = tier.config
        self.sim = tier.sim
        self.stats = EngineStats()
        self.refcount = make_refcounter(tier)
        self._running = False
        self._procs = []
        self._promoting = set()
        #: Tasks running a worker loop (:meth:`_worker`).  A strict-mode
        #: pass run by one hands its old-chunk release off; any other
        #: caller of :meth:`process_object` gets it inline.
        self._worker_tasks = set()
        #: Old-chunk releases handed off by worker passes and still in
        #: flight, by object ID, in start order.  Each owns its object's
        #: lock and removes itself when it ends.
        self._releases = {}
        #: Non-retryable errors raised by handed-off releases, for the
        #: next :meth:`drain` to re-raise.
        self._release_errors = []

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether any background worker is active."""
        return self._running and any(p.is_alive for p in self._procs)

    def start(self, workers: Optional[int] = None) -> None:
        """Launch the background worker loops (idempotent).

        ``workers`` defaults to ``config.engine_workers`` — the paper's
        design runs multiple background deduplication threads.
        """
        if self.running:
            return
        self._running = True
        count = workers if workers is not None else self.config.engine_workers
        self._procs = [
            self.sim.process(self._worker(False, lambda: not self._running))
            for _ in range(count)
        ]

    def stop(self) -> None:
        """Ask the background workers to exit at their next wakeup."""
        self._running = False

    def _worker(self, force: bool, stop):
        """Process: pop a dirty object, run one pass on it, repeat.

        The body of every engine worker — the background loops and the
        forced passes of :meth:`drain`.  Runs until ``stop()`` is true;
        on an empty dirty list a background worker sleeps
        ``dedup_interval`` and a forced one returns.

        A worker takes its next object as soon as a pass's chunk map
        commits: the pass's old-chunk release runs on as a process of its
        own, holding the object lock until it lands (:meth:`process_object`).
        """
        tier = self.tier
        task = self.sim.current_task
        self._worker_tasks.add(task)
        try:
            while not stop():
                oid = tier.next_dirty()
                if oid is None:
                    if force:
                        return
                    yield self.sim.timeout(self.config.dedup_interval)
                    continue
                try:
                    yield from self.process_object(oid, force=force)
                except Exception as exc:
                    # Graceful degradation: a transient substrate fault
                    # must never kill a worker — requeue the object and
                    # keep draining.  Non-retryable errors are real bugs
                    # and stay loud.
                    if not is_retryable(exc):
                        raise
                    self.stats.objects_requeued_fault += 1
                    tier.requeue_dirty(oid, delay=FAULT_REQUEUE_DELAY)
        finally:
            self._worker_tasks.discard(task)

    # -- one object -------------------------------------------------------------

    def process_object(self, oid: str, force: bool = False):
        """Process: deduplicate all dirty chunks of one object.

        ``force`` bypasses the hot-object skip *and* rate control — it is
        used by drains and by flush-on-write, where the caller is already
        foreground.  Returns one of ``"done"``, ``"skipped_hot"``,
        ``"missing"``, ``"faulted"``, once the pass's old-chunk references
        are released (§4.4.1 step 3, after the map commits).

        In an engine worker, a strict-mode pass instead hands that release
        to a process of its own, which takes over the object lock and
        frees it once the release lands; the worker moves on at the map
        commit.  Every write, delete, promotion and later pass on the
        object still waits for the lock, so none sees the entry between
        its commit and its release, and no later pass can take a
        reference the release would then drop.
        """
        tier = self.tier
        if not force and tier.cache.is_hot(oid):
            self.stats.objects_skipped_hot += 1
            tier.requeue_dirty(oid, delay=HOT_REQUEUE_DELAY)
            return "skipped_hot"
        if not force:
            # Rate-control *before* taking the object lock: a paced
            # background pass must never stall foreground writers that
            # need the same lock (§4.4.2 — dedup yields to foreground).
            for _ in range(max(1, tier.peek_dirty_count(oid))):
                yield from tier.rate.throttle()
        held: list = []
        handed_off = False
        try:
            yield tier.object_locks.acquire(oid, held)
            result, derefs, via = yield from self._process_object_locked(oid, force)
            if (
                derefs
                and self.refcount.name == "strict"
                and self.sim.current_task in self._worker_tasks
            ):
                self._releases[oid] = self.sim.process(
                    self._release(oid, derefs, via, held)
                )
                handed_off = True
            elif derefs:
                yield from self._apply_derefs(derefs, via)
        finally:
            if not handed_off:
                tier.object_locks.release(held)
        # Outside the lock: a capacity victim may be this same object.
        yield from self.enforce_cache_capacity()
        return result

    def _process_object_locked(self, oid: str, force: bool):
        """Process: the pass itself, under the object lock.

        Returns ``(result, derefs, via)``: ``derefs`` are the ``(chunk_id,
        ref)`` references to the old chunks of entries the committed map
        re-pointed, for the caller to release through ``via``.
        """
        tier = self.tier
        cmap = yield from tier.load_chunk_map(oid)
        if cmap is None:
            return "missing", (), None
        primary = tier.cluster._primary(tier.metadata_pool, oid)
        via = NodeClient(primary.node)
        key = tier.metadata_key(oid)
        txn = Transaction()
        taken = []  # (chunk_id, ref) references acquired this pass
        pending_derefs = []  # old chunks to release once the map commits
        # The pass accumulates its store-or-reference ops in a
        # ChunkBatch and commits them at the end through one prepared
        # round, instead of paying a serialized round trip per chunk.
        batch = ChunkBatch()
        planned = []  # (batch op index, fp, ref, nbytes) awaiting commit
        changed = False
        # Stage 1 of the flush pipeline assembles each dirty chunk's
        # bytes, the digests are then computed in one go, and stage 2
        # applies the map/refcount updates in chunk-index order.
        staged = []  # (chunk index, entry, data) awaiting fingerprints
        try:
            whole = []  # (index, entry) of fully cached dirty chunks
            partial = []  # (index, entry) of partially cached ones
            for idx in cmap.dirty_indices():
                entry = cmap.get(idx)
                if not entry.cached:
                    # Dirty implies cached by construction; tolerate anyway.
                    cmap.set(entry.replace(dirty=False))
                    changed = True
                    continue
                (whole if entry.fully_cached() else partial).append((idx, entry))
            # Deferred read-modify-write: every read the partially
            # cached chunks need starts now, beside the whole chunks'
            # local reads, which stay one after another — concurrent
            # reads of the one primary disk would stall sibling
            # passes' commits.
            reads = self._start_merge_reads(oid, partial, via) if partial else ()
            try:
                for idx, entry in whole:
                    data = yield from tier.read_local_chunk(
                        oid, entry.offset, entry.length
                    )
                    tier.stage.chunking_ops += 1
                    tier.stage.chunking_bytes += len(data)
                    yield from primary.node.cpu.fingerprint(len(data))
                    staged.append((idx, entry, data))
                if reads:
                    parts = iter((yield self.sim.all_of(reads)))
            except Exception:
                # Fail only once every read this pass started has
                # ended: none may outlive the pass and its lock.
                for read in reads:
                    yield from _settle(read)
                raise
            if reads:
                for idx, entry in partial:
                    data = _merge_partial(entry, parts)
                    tier.stage.chunking_ops += 1
                    tier.stage.chunking_bytes += len(data)
                    yield from primary.node.cpu.fingerprint(len(data))
                    staged.append((idx, entry, data))
                staged.sort(key=itemgetter(0))
            digests = []  # hex fingerprints aligned with ``staged``
            for _idx, _entry, data in staged:
                fp, seconds = timed_fingerprint(data)
                tier.stage.fingerprint_seconds += seconds
                tier.stage.fingerprint_ops += 1
                tier.stage.fingerprint_bytes += len(data)
                digests.append(fp)
            for (idx, entry, data), fp in zip(staged, digests):
                ref = ChunkRef(tier.metadata_pool.pool_id, oid, entry.offset)
                if entry.chunk_id and entry.chunk_id != fp:
                    # §4.4.1 step 3: the entry stops referencing its old
                    # chunk object.  The actual dereference is deferred
                    # until the chunk-map update commits: a partially-cached
                    # entry still *needs* the old chunk for its missing
                    # ranges if this pass aborts on a fault.
                    pending_derefs.append((entry.chunk_id, ref))
                if entry.chunk_id != fp:
                    planned.append((len(batch.ops), fp, ref, len(data)))
                    batch.ref(fp, ref, data)
                valid = entry.valid
                if tier.cache.keep_cached_on_flush(oid):
                    if not entry.fully_cached():
                        # Materialise the merged chunk in the cache.
                        txn.write(key, entry.offset, data)
                        valid = ((0, entry.length),)
                        tier.cache.note_cached(oid, idx, entry.length)
                else:
                    txn.zero(key, entry.offset, entry.length)
                    valid = ()
                    tier.cache.note_evicted(oid, idx)
                    self.stats.chunks_evicted += 1
                cmap.set(entry.replace(chunk_id=fp, dirty=False, valid=valid))
                changed = True
            if changed and cmap.cached_indices() == []:
                # Paper Figure 8, "object 2": when no chunk remains cached,
                # the metadata object holds no data at all — only metadata.
                txn.truncate(key, 0)
            if batch:
                outcomes = yield from tier.commit_chunk_batch(batch, via)
                for op_i, fp, ref, nbytes in planned:
                    taken.append((fp, ref))
                    if outcomes[op_i]:
                        self.stats.chunks_flushed += 1
                        self.stats.bytes_flushed += nbytes
                    else:
                        self.stats.chunks_deduped += 1
                        self.stats.bytes_deduped += nbytes
            if changed:
                tier.append_map_commit(txn, oid, cmap)
                yield from tier.cluster.submit(tier.metadata_pool, oid, txn, via)
                tier.note_map_committed(oid, cmap)
        except Exception as exc:
            # The map commit may have faulted after partially landing:
            # drop the cached decode before any other cleanup so no
            # later load serves a snapshot the store no longer matches.
            tier.invalidate_map_cache(oid)
            # Skip-and-requeue degradation: a fault mid-pass (after the
            # I/O path's retries gave up) abandons the pass *before* the
            # chunk map commits — the dirty bits stay authoritative, so
            # nothing is lost.  References taken this pass are released;
            # the object comes back via the dirty list.
            if not is_retryable(exc):
                raise
            yield from self._release_or_defer(taken, via)
            self.stats.objects_requeued_fault += 1
            tier.requeue_dirty(oid, delay=FAULT_REQUEUE_DELAY)
            return "faulted", (), None
        self.stats.objects_processed += 1
        return "done", pending_derefs, via

    def _start_merge_reads(self, oid, partial, via):
        """Start every read that assembles the partially cached chunks
        ``partial`` (``(index, entry)`` pairs); returns their processes,
        in the order :func:`_merge_partial` consumes the results.

        Per chunk: one chunk-pool read of the old chunk spanning all its
        missing ranges (none for a chunk never flushed, whose gaps are
        zeros), then one local read per cached range.  This is the
        "reading data for flush" background cost the paper lists for the
        Proposed system — paid here, not on the foreground write path.
        """
        tier = self.tier
        process = self.sim.process
        reads = []
        for _idx, entry in partial:
            if entry.chunk_id:
                lo, hi = _missing_span(entry)
                reads.append(
                    process(tier.read_chunk(entry.chunk_id, lo, hi - lo, via))
                )
            for start, end in entry.valid:
                reads.append(
                    process(tier.read_local_chunk(oid, entry.offset + start, end - start))
                )
        return reads

    def _release(self, oid, pairs, via, held):
        """Process: a worker pass's handed-off old-chunk release.

        Owns the pass's object-lock grant ``held`` and frees it once the
        release has landed (or been deferred to the GC by a fault).
        """
        try:
            yield from self._apply_derefs(pairs, via)
        except Exception as exc:
            self._release_errors.append(exc)
            raise
        finally:
            del self._releases[oid]
            self.tier.object_locks.release(held)

    def _releases_landed(self):
        """Process: wait until no handed-off release is in flight."""
        while self._releases:
            yield from _settle(next(iter(self._releases.values())))

    def _apply_derefs(self, pairs, via):
        """Process: release old-chunk references after the map commits.

        Strict refcounting drops the set now, in one batched commit;
        ``false_positive`` just queues each dereference in memory for
        the GC.
        """
        if self.refcount.name == "strict":
            yield from self._release_or_defer(pairs, via)
            return
        for chunk_id, ref in pairs:
            yield from self.refcount.deref(chunk_id, ref, via)

    def _release_or_defer(self, pairs, via):
        """Process: best-effort release of a set of references.

        Used for the old chunks of a committed pass and to undo the
        references an aborted pass took.  A release that itself faults
        leaves *over*-retained references (safe: the offline GC reclaims
        them); the refcount invariant "never dangling" holds either way.
        The release is one all-or-nothing batch, so a fault defers
        exactly the whole set.
        """
        try:
            yield from self.tier.release_refs(pairs, via)
        except Exception as exc:
            if not is_retryable(exc):
                raise
            self.stats.derefs_deferred_fault += len(pairs)

    # -- cache maintenance -----------------------------------------------------------

    def promote_object(self, oid: str):
        """Process: pull a hot object's chunks back into the cache.

        Paper §5: "If an access count for an object is higher than
        pre-defined parameter Hitcount, then the object is cached into
        the metadata pool."  Promotion copies each clean, non-cached
        chunk from the chunk pool into the metadata object's data part;
        the chunk object (and its reference) stays — the cache is a
        duplicate, paid for to serve reads at original-system cost.
        """
        tier = self.tier
        if oid in self._promoting:
            return "in_progress"
        self._promoting.add(oid)
        held: list = []
        try:
            yield tier.object_locks.acquire(oid, held)
            cmap = yield from tier.load_chunk_map(oid)
            if cmap is None:
                return "missing"
            primary = tier.cluster._primary(tier.metadata_pool, oid)
            via = NodeClient(primary.node)
            key = tier.metadata_key(oid)
            txn = Transaction()
            promoted = 0
            for idx in cmap.promotable_indices():
                entry = cmap.get(idx)
                data = yield from tier.read_chunk(entry.chunk_id, 0, entry.length, via)
                if len(data) < entry.length:
                    # Short read (e.g. a replica still being reconciled):
                    # caching it would serve the gap as zeros forever.
                    # Skip the entry; a later pass can promote it once
                    # the chunk reads whole.
                    continue
                txn.write(key, entry.offset, data)
                cmap.set(entry.replace(valid=((0, entry.length),)))
                tier.cache.note_cached(oid, idx, entry.length)
                promoted += 1
            if promoted == 0:
                return "nothing"
            tier.append_map_commit(txn, oid, cmap)
            try:
                yield from tier.cluster.submit(tier.metadata_pool, oid, txn, via)
            except Exception as exc:
                # Promotion is purely an optimisation: on a fault the
                # chunk map stays authoritative and the object is
                # re-promoted the next time its hit count trips.
                tier.invalidate_map_cache(oid)
                if not is_retryable(exc):
                    raise
                return "faulted"
            tier.note_map_committed(oid, cmap)
            self.stats.chunks_promoted += promoted
        finally:
            tier.object_locks.release(held)
            self._promoting.discard(oid)
        yield from self.enforce_cache_capacity()
        return "done"

    def enforce_cache_capacity(self):
        """Process: demote LRU cached chunks until within capacity."""
        for v_oid, v_idx in self.tier.cache.victims():
            yield from self.demote_chunk(v_oid, v_idx)

    def demote_chunk(self, oid: str, index: int):
        """Process: punch one clean cached chunk out of its object."""
        tier = self.tier
        held: list = []
        try:
            yield tier.object_locks.acquire(oid, held)
            yield from self._demote_chunk_locked(oid, index)
        finally:
            tier.object_locks.release(held)

    def _demote_chunk_locked(self, oid: str, index: int):
        tier = self.tier
        cmap = yield from tier.load_chunk_map(oid)
        entry = cmap.get(index) if cmap is not None else None
        if entry is None or not entry.cached:
            tier.cache.note_evicted(oid, index)
            return
        if entry.dirty:
            # Must be flushed first; leave it for the dirty-list pass.
            return
        primary = tier.cluster._primary(tier.metadata_pool, oid)
        via = NodeClient(primary.node)
        key = tier.metadata_key(oid)
        cmap.set(entry.replace(valid=()))
        txn = Transaction().zero(key, entry.offset, entry.length)
        tier.append_map_commit(txn, oid, cmap)
        if cmap.cached_indices() == []:
            txn.truncate(key, 0)  # fully evicted: metadata only
        try:
            yield from tier.cluster.submit(tier.metadata_pool, oid, txn, via)
        except Exception as exc:
            # Eviction is deferrable: the faulted commit may have
            # partially landed — drop the cached decode; the LRU offers
            # the chunk again on the next pass.
            tier.invalidate_map_cache(oid)
            if not is_retryable(exc):
                raise
            return
        tier.note_map_committed(oid, cmap)
        tier.cache.note_evicted(oid, index)
        self.stats.chunks_evicted += 1

    # -- draining (tests & benches) -----------------------------------------------------

    def drain(self, run_gc: bool = True):
        """Process: dedup everything on the dirty list, ignoring hotness.

        The list is handed to ``min(engine_workers, dirty_count)``
        concurrent forced workers (the paper's background deduplication
        thread*s*; a single dirty object runs inline) and rebuilt from
        the authoritative dirty bits until a rebuild finds nothing.
        Optionally runs the refcount GC afterwards.  Used by benchmarks
        to reach the fully deduplicated steady state before measuring
        space.

        Before each rebuild, and so before GC and before returning, it
        waits until no release a worker handed off is in flight: a drain
        returns with every reference settled and every lock free.

        A non-retryable error in one pass stops the hand-out: no worker
        pops another object, siblings finish the pass they hold (they
        are never interrupted), and once the releases in flight have
        ended the first error is re-raised — a pass's, else one a
        handed-off release raised since the last drain.  The dirty bits
        stay authoritative, so a later ``drain()`` converges.
        """
        tier = self.tier
        errors = []

        def worker():
            try:
                yield from self._worker(force=True, stop=lambda: bool(errors))
            except Exception as exc:
                errors.append(exc)

        rounds = 0
        while True:
            width = min(self.config.engine_workers, tier.dirty_count)
            if width == 0:
                yield from self._releases_landed()
                if self._release_errors:
                    error, self._release_errors = self._release_errors[0], []
                    raise error
                # Hot-skipped objects are requeued with a delay, which a
                # drain must not wait for: rebuild the list from the
                # authoritative dirty bits instead.
                if tier.rebuild_dirty_list() == 0:
                    break
                continue
            if width == 1:
                yield from worker()
            else:
                yield self.sim.all_of(
                    [self.sim.process(worker()) for _ in range(width)]
                )
            if errors:
                yield from self._releases_landed()
                raise errors[0]
            rounds += 1
            if rounds > 1_000_000:
                raise RuntimeError("drain did not converge")
        if run_gc:
            node = next(iter(tier.cluster.nodes.values()))
            yield from self.refcount.gc(NodeClient(node))

    def drain_sync(self, run_gc: bool = True) -> None:
        """Synchronous :meth:`drain`."""
        self.tier.cluster.run(self.drain(run_gc=run_gc))
