"""The post-processing deduplication engine (paper §4.4.1).

Background processes drain the dirty object ID list, which keeps one
bucket per metadata placement group.  A pass is the dirty objects of one
metadata PG (a direct call — flush, flush-on-write — is a group of one):

1. in the background, wait for the rate budget, pop the head PG's
   objects (hot ones are requeued) and charge the budget the cold ones'
   dirty chunks — in a drain, pop the next PG whose primary is the
   worker's OSD (two workers per primary, :data:`PASSES_PER_OSD`); take
   the members' object locks in sorted order;
2. find each member's dirty chunks from its chunk map (they are cached
   in the object's data part) and assemble their bytes, the members side
   by side.  Within a member a fully cached chunk is one local read, one
   in flight at a time: the next one starts as the current one is
   hashed.  A partially cached one is the deferred read-modify-write of
   a sub-chunk overwrite: its cached ranges overlay the old chunk
   object's bytes.  A member issues the reads of all its partially
   cached chunks at once — one local read per cached range and one
   chunk-pool read spanning a chunk's missing ranges;
3. fingerprint each dirty chunk as it is assembled, and plan its
   store-or-reference in the chunk pool (double hashing places it by
   content): the pass keeps a chunk's bytes only when the pool lacks
   its fingerprint (or the chunk was partially cached, its merged bytes
   new), so a reference holds no payload;
4-5. commit every member's references in one chunk batch: the chunk
   pool either stores the object with its first reference or just
   appends reference information;
6. commit every member's chunk map (dirty cleared, cached per cache
   policy) in one map commit — one prepared transaction for the PG —
   and free the members' object locks: the pass ends here;
7. dereference the chunk objects whose entries moved to new content
   (step 3's dereference, deferred past the commit) behind the pass: in
   strict mode the one GC (:func:`~repro.core.scrub.collect_garbage`)
   runs over them as a release of its own, the same process a delete
   starts (:meth:`DedupEngine.release`); in ``false_positive`` mode
   they go on the GC's queue.

Rate control (§4.4.2) is one budget for every background worker, waited
on before a group is taken, so a waiting group stays listed for every
other worker and a drain; hot objects are skipped entirely (selective
dedup), at no cost to the budget, until they cool off.

A pass holds its members' locks from their map loads to its map commit,
the locks every foreground write and delete of those objects takes, and
once it has them waits for the writes already in flight to commit
(:meth:`~repro.core.tier.DedupTier.writes_landed`), so no mutation can
land mid-pass.  Step 7 needs no lock of the pass: the GC re-reads each
referrer's map under its object lock and drops only the pairs no map
implies, so a write that reverts an entry to the old content, and a
later pass that takes its reference again, keep it.  A pass that faults
anywhere instead aborts the whole group before any chunk map commits,
leaving every old chunk its reference, and every member is re-queued —
the dirty bits, which are part of the same transactions as the data
they describe, remain the source of truth.  The references it took are
the pairs it drops, handed to step 7 as a committed pass's old chunks
are: the GC drops those no map implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..cluster import Transaction
from ..faults.errors import is_retryable
from ..faults.retry import call_with_retries
from ..fingerprint import fingerprint
from ..sim import Event
from .objects import ChunkRef
from .scrub import collect_garbage
from .tier import ChunkBatch, DedupTier

__all__ = ["DedupEngine", "EngineStats"]

#: How long an object skipped because it is hot waits before the engine
#: looks at it again.
HOT_REQUEUE_DELAY = 1.0
#: How long an object whose pass hit a fault waits before it is retried
#: from the dirty list (skip-and-requeue degradation).
FAULT_REQUEUE_DELAY = 0.2
#: Forced workers a drain runs per metadata primary OSD with a dirty PG:
#: one pass reads its members' chunks off the primary's disk while the
#: other commits on the chunk pool.
PASSES_PER_OSD = 2


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
            pass  # the caller reports its own error


@dataclass
class EngineStats:
    """Counters describing what the engine has done."""

    objects_processed: int = 0
    objects_skipped_hot: int = 0
    #: Always 0: a pass holds the object lock every mutation takes, so
    #: none can race it.  Kept while the e2e benchmark reads it.
    objects_aborted_race: int = 0
    #: Passes abandoned because the substrate faulted mid-pass (the
    #: object is requeued; references taken this pass go to the GC).
    objects_requeued_fault: int = 0
    #: Dereferences skipped because the substrate faulted; the chunk is
    #: left over-retained (never dangling) and the pair is queued on
    #: :attr:`DedupEngine.deref_queue` for the next drain's GC.
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
        #: References left for the GC, which an idle worker or a drain
        #: hands to :meth:`release`: in ``refcount_mode="false_positive"``
        #: (§4.6) the pairs passes dropped; in either mode a release
        #: that gave up.
        self.deref_queue: List[Tuple[str, ChunkRef]] = []
        self._running = False
        self._procs = []
        self._promoting = set()
        self._demoting = set()  # (oid, index) victims being demoted
        #: Releases in flight (:meth:`release`), in start order,
        #: and failed ones not yet reported (:meth:`releases_landed`).
        self._releases: Dict[Event, None] = {}

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether any background worker is active."""
        return self._running and any(p.is_alive for p in self._procs)

    def start(self, workers: Optional[int] = None) -> None:
        """Launch the background worker loops (idempotent).

        ``workers`` defaults to ``config.engine_workers`` — the paper's
        design runs multiple background deduplication threads.  A
        :meth:`drain` sizes its own forced workers by the primaries.
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

    def _worker(self, force: bool, stop, pgs=None):
        """Process: pop a dirty PG's objects, run one pass on them, repeat.

        The body of every engine worker — the background loops, which pop
        the PG logged first, and the forced passes of :meth:`drain`, which
        pop only ``pgs``, one primary's dirty PGs
        (:meth:`~DedupTier.next_dirty_group`).  Runs until ``stop()`` is
        true; when it finds no group a forced worker returns and a
        background one collects :attr:`deref_queue`, then sleeps
        ``dedup_interval``.  A background worker waits for the rate
        budget *before* it pops a group: while it waits the group stays
        listed, for other workers and for a drain.
        """
        tier = self.tier
        while not stop():
            if not force:
                yield from tier.rate.throttle()
            group = tier.next_dirty_group(pgs)
            if not group:
                if force:
                    return
                if self.deref_queue:
                    queue, self.deref_queue = self.deref_queue, []
                    yield self.release(queue, None)
                yield self.sim.timeout(self.config.dedup_interval)
                continue
            try:
                yield from self.process_object(*group, force=force)
            except Exception as exc:
                # Graceful degradation: a transient substrate fault must
                # never kill a worker — requeue the group and keep
                # draining.  Non-retryable errors are real bugs and stay
                # loud.
                if not is_retryable(exc):
                    raise
                self._requeue_faulted(group)

    # -- one pass ---------------------------------------------------------------

    def process_object(self, *oids: str, force: bool = False):
        """Process: deduplicate all dirty chunks of ``oids`` in one pass.

        A worker passes the dirty objects of one metadata PG (the dirty
        list's bucket); any other caller — flush, flush-on-write, a test
        — names one object, a group of one.  ``force`` bypasses the
        hot-object skip — it is used by drains and by flush-on-write,
        where the caller is already foreground.  The pass itself is never
        paced: a background pass charges its cold members' dirty chunks
        to the rate budget before its first yield.  Returns
        ``"faulted"`` when a fault aborted the pass (every member
        requeued), else ``"done"`` when a member was processed,
        ``"skipped_hot"`` when every member was hot, or ``"missing"``.

        The pass ends at its map commit, or at its abort, and frees its
        members' object locks; then it starts the release of the pairs
        it dropped — a committed pass's old chunks (§4.4.1 step 3), an
        aborted pass's own references — and returns without waiting for
        it: a strict release is the one GC over them (:meth:`release`),
        which :meth:`releases_landed` awaits, so it drops none that a
        map implies, now or after a later write or pass.
        """
        tier = self.tier
        if not force:
            cold = []
            for oid in oids:
                if tier.cache.is_hot(oid):
                    self.stats.objects_skipped_hot += 1
                    tier.requeue_dirty(oid, delay=HOT_REQUEUE_DELAY)
                else:
                    cold.append(oid)
            if not cold:
                return "skipped_hot"
            tier.rate.charge(sum(map(tier.peek_dirty_count, cold)))
            oids = tuple(cold)
        held: list = []
        try:
            # Sorted acquisition: concurrent passes cannot deadlock.
            for oid in sorted(oids):
                yield tier.object_locks.acquire(oid, held)
            for oid in oids:
                yield from tier.writes_landed(oid)
            result, dropped, via = yield from self._process_locked(oids)
        finally:
            tier.object_locks.release(held)
        # Outside the locks: the GC takes its referrers' object locks.
        if dropped:
            if self.config.refcount_mode == "strict":
                self.release(dropped, via)
            else:
                self.deref_queue.extend(dropped)
        # Outside the locks: a capacity victim may be a member.
        yield from self.enforce_cache_capacity()
        return result

    def _process_locked(self, oids):
        """Process: the pass itself, under its members' object locks.

        Loads every member's chunk map, assembles and fingerprints their
        dirty chunks, commits every reference in one
        :meth:`~DedupTier.commit_chunk_batch` and every map in one
        :meth:`~DedupTier.commit_map`.  Returns ``(result, dropped,
        via)``: :meth:`process_object`'s result, the ``(chunk id, ref)``
        pairs the pass drops — the old chunks the committed maps no
        longer use, or, on an abort, the references the pass took — and
        the member primary's node that ran the pass.
        """
        tier = self.tier
        members = []  # (oid, cmap, primary) of the members that exist
        taken = []  # (chunk_id, ref) references acquired this pass
        via = None
        try:
            for oid in oids:
                cmap = yield from tier.load_chunk_map(oid)
                if cmap is not None:
                    primary = tier.cluster.primary(tier.metadata_pool, oid)
                    members.append((oid, cmap, primary))
            if not members:
                return "missing", (), via
            # One PG, one primary: it initiates the pass's chunk-pool
            # traffic and its commits, and needs no reply from itself.
            via = members[0][2].node
            # The members assemble side by side, each under the read
            # rules of :meth:`_assemble`.
            if len(members) == 1:
                oid, cmap, primary = members[0]
                assembled = [(yield from self._assemble(oid, cmap, primary, via))]
            else:
                procs = [
                    self.sim.process(self._assemble(oid, cmap, primary, via))
                    for oid, cmap, primary in members
                ]
                try:
                    assembled = yield self.sim.all_of(procs)
                except Exception:
                    for proc in procs:
                        yield from _settle(proc)
                    raise
            staged = [  # (oid, cmap, [(index, entry, fp, nbytes, data)]) per member
                (oid, cmap, chunks)
                for (oid, cmap, _primary), chunks in zip(members, assembled)
            ]
            derefs, taken, maps, evicted = yield from self._commit_refs(staged, via)
            if maps:
                yield from tier.commit_map(maps, via)
            self.stats.chunks_evicted += evicted
        except Exception as exc:
            # Skip-and-requeue degradation: a fault mid-pass (after the
            # I/O path's retries gave up) abandons the whole pass
            # *before* any chunk map commits — the dirty bits stay
            # authoritative, so nothing is lost.  References taken this
            # pass are dropped by the GC behind it; every member comes
            # back via the dirty list.
            if not is_retryable(exc):
                raise
            self._requeue_faulted(oids)
            return "faulted", taken, via
        self.stats.objects_processed += len(members)
        return "done", derefs, via

    def _requeue_faulted(self, oids):
        """Put the members of a pass a fault abandoned back on the dirty
        list, after :data:`FAULT_REQUEUE_DELAY`."""
        self.stats.objects_requeued_fault += len(oids)
        for oid in oids:
            self.tier.requeue_dirty(oid, delay=FAULT_REQUEUE_DELAY)

    def _assemble(self, oid, cmap, primary, via):
        """Process: ``oid``'s dirty chunks, as ``(index, entry, fp,
        nbytes, data)`` in index order, each charged to ``primary``'s CPU
        as chunking and fingerprint work and hashed as it is read.
        ``data`` is kept only where the pass may store it: a fully cached
        chunk the chunk pool already holds is a reference, and its bytes
        are dropped (``None``); a partially cached one's merged bytes
        are new, and always kept.  A dirty entry with nothing cached is
        cleaned in ``cmap`` in place (dirty implies cached by
        construction; tolerated anyway) and left out.
        """
        tier = self.tier
        stage = tier.stage
        whole = []  # (index, entry) of fully cached dirty chunks
        partial = []  # (index, entry) of partially cached ones
        for idx in cmap.dirty_indices():
            entry = cmap.get(idx)
            if not entry.cached:
                cmap.set(entry.replace(dirty=False))
                continue
            (whole if entry.fully_cached() else partial).append((idx, entry))
        # Deferred read-modify-write: every read the partially cached
        # chunks need starts now, beside the whole chunks' local reads,
        # which stay one in flight at a time — concurrent reads of the
        # one primary disk would stall sibling passes' commits — but the
        # next one starts as the current one is hashed.
        reads = self._start_merge_reads(oid, partial, via) if partial else ()
        chunks = []
        ahead = None  # the read of whole chunk n + 1, in flight
        try:
            for n, (idx, entry) in enumerate(whole):
                if n == 0:
                    data = yield from tier.read_local_chunk(oid, entry.offset, entry.length)
                else:
                    data = yield ahead
                if n + 1 < len(whole):
                    nxt = whole[n + 1][1]
                    ahead = self.sim.process(
                        tier.read_local_chunk(oid, nxt.offset, nxt.length)
                    )
                stage.chunking_ops += 1
                stage.chunking_bytes += len(data)
                yield from primary.node.cpu.fingerprint(len(data))
                fp = self._hash(data)
                # A reference: the pass never stores these bytes.
                kept = None if tier.chunk_exists(fp) else data
                chunks.append((idx, entry, fp, len(data), kept))
            if reads:
                parts = iter((yield self.sim.all_of(reads)))
        except Exception:
            # Fail only once every read this pass started has ended:
            # none may outlive the pass and its locks.
            for read in (*reads, ahead) if ahead is not None else reads:
                yield from _settle(read)
            raise
        if reads:
            for idx, entry in partial:
                data = _merge_partial(entry, parts)
                stage.chunking_ops += 1
                stage.chunking_bytes += len(data)
                yield from primary.node.cpu.fingerprint(len(data))
                fp = self._hash(data)
                chunks.append((idx, entry, fp, len(data), data))
            chunks.sort(key=itemgetter(0))
        return chunks

    def _hash(self, data):
        """The fingerprint of ``data``, hashed on the host (its simulated
        CPU is the caller's to charge), timed and counted."""
        stage = self.tier.stage
        started = perf_counter()
        fp = fingerprint(data)
        stage.fingerprint_seconds += perf_counter() - started
        stage.fingerprint_ops += 1
        stage.fingerprint_bytes += len(data)
        return fp

    def _commit_refs(self, staged, via):
        """Process: re-point the entries of the assembled, fingerprinted
        chunks of every member in ``staged`` (``(oid, cmap, chunks)`` per
        member) and commit every reference the pass takes in one
        :meth:`~DedupTier.commit_chunk_batch` (§4.4.1 steps 3-5).  A
        chunk staged without its bytes is referenced by its length: the
        commit re-reads it from the member's cached copy should the
        chunk pool have lost it since the assembly.

        Returns ``(derefs, taken, maps, evicted)``: the old chunks'
        references to release once the maps commit, the references
        taken, the ``(oid, cmap, txn)`` of every member whose map
        changed, and how many chunks those maps evict.
        """
        tier = self.tier
        pool_id = tier.metadata_pool.pool_id
        batch = ChunkBatch()
        planned = []  # (batch op index, fp, ref, nbytes) awaiting commit
        derefs = []
        maps = []
        evicted = 0
        for oid, cmap, chunks in staged:
            key = tier.metadata_key(oid)
            txn = Transaction()
            keep = tier.cache.keep_cached_on_flush(oid)
            for idx, entry, fp, nbytes, data in chunks:
                ref = ChunkRef(pool_id, oid, entry.offset)
                if entry.chunk_id and entry.chunk_id != fp:
                    # §4.4.1 step 3: the entry stops referencing its old
                    # chunk object.  The actual dereference is deferred
                    # until the chunk-map update commits: a partially
                    # cached entry still *needs* the old chunk for its
                    # missing ranges if this pass aborts on a fault.
                    derefs.append((entry.chunk_id, ref))
                if entry.chunk_id != fp:
                    planned.append((len(batch.ops), fp, ref, nbytes))
                    batch.ref(fp, ref, data, nbytes)
                valid = entry.valid
                if keep:
                    if not entry.fully_cached():
                        # Materialise the merged chunk in the cache.
                        txn.write(key, entry.offset, data)
                        valid = ((0, entry.length),)
                else:
                    txn.zero(key, entry.offset, entry.length)
                    valid = ()
                    evicted += 1
                cmap.set(entry.replace(chunk_id=fp, dirty=False, valid=valid))
            if chunks or cmap.touched_indices():
                if cmap.cached_indices() == []:
                    # Paper Figure 8, "object 2": when no chunk remains
                    # cached, the metadata object holds no data at all —
                    # only metadata.
                    txn.truncate(key, 0)
                maps.append((oid, cmap, txn))
        taken = []
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
        return derefs, taken, maps, evicted

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

    # -- releases behind the foreground, and the GC ------------------------------------

    def release(self, pairs, client):
        """Start the one GC over the references ``pairs`` dropped: a
        pass's, an aborted pass's, a deleted object's
        (:func:`~repro.core.io_path.delete_path` calls it once the
        metadata object is gone and its lock free), or the ones
        :attr:`deref_queue` held.  Returns the release's process, which
        :meth:`releases_landed` awaits; the caller need not."""
        release = self.sim.process(self._release(pairs, client))
        self._releases[release] = None
        release.subscribe(self._landed)
        return release

    def _landed(self, release):
        """Unlist ``release`` once it has landed; a failed one stays
        listed until :meth:`releases_landed` raises its error."""
        if release.ok:
            del self._releases[release]

    def _release(self, pairs, client):
        """Process: :func:`~repro.core.scrub.collect_garbage` over the
        references ``pairs``, sent via ``client`` and retried.  A
        give-up leaves them over-retained and queues them on
        :attr:`deref_queue`."""
        tier = self.tier
        try:
            # Retried outside tier.retry_stats: a release is background
            # work, and the availability those stats report is the
            # client's.
            yield from call_with_retries(
                tier.sim, tier.retry_policy,
                lambda: collect_garbage(tier, pairs, client), None, "chunk_deref",
            )
        except Exception as exc:
            if not is_retryable(exc):
                raise
            self.stats.derefs_deferred_fault += len(pairs)
            self.deref_queue.extend(pairs)

    def releases_landed(self):
        """Process: wait until no release is in flight (a pass's, a
        deleted object's, or an idle worker's GC); then re-raises the
        first error a release ended with."""
        error = None
        while self._releases:
            release = next(iter(self._releases))
            try:
                yield release
            except Exception:
                if release.exception is None:
                    raise  # thrown into this waiter, not the release's
                error = error or release.exception
            self._releases.pop(release, None)
        if error is not None:
            raise error

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
            yield from tier.writes_landed(oid)
            cmap = yield from tier.load_chunk_map(oid)
            if cmap is None:
                return "missing"
            primary = tier.cluster.primary(tier.metadata_pool, oid)
            via = primary.node
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
                promoted += 1
            if not promoted:
                return "nothing"
            try:
                yield from tier.commit_map([(oid, cmap, txn)], via)
            except Exception as exc:
                # Promotion is purely an optimisation: on a fault the
                # chunk map stays authoritative, the books (written by a
                # committed map only) never saw it, and the object is
                # re-promoted the next time its hit count trips.
                if not is_retryable(exc):
                    raise
                return "faulted"
            self.stats.chunks_promoted += promoted
        finally:
            tier.object_locks.release(held)
            self._promoting.discard(oid)
        yield from self.enforce_cache_capacity()
        return "done"

    def enforce_cache_capacity(self):
        """Process: demote LRU cached chunks until within capacity,
        skipping a victim that a concurrent enforcement (a promotion's,
        beside its caller's) is demoting or took off the books."""
        cache = self.tier.cache
        for victim in cache.victims():
            if victim in self._demoting or not cache.is_cached(*victim):
                continue
            self._demoting.add(victim)
            try:
                yield from self.demote_chunk(*victim)
            finally:
                self._demoting.discard(victim)

    def demote_chunk(self, oid: str, index: int):
        """Process: punch one clean cached chunk out of its object."""
        tier = self.tier
        held: list = []
        try:
            yield tier.object_locks.acquire(oid, held)
            yield from tier.writes_landed(oid)
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
        primary = tier.cluster.primary(tier.metadata_pool, oid)
        via = primary.node
        key = tier.metadata_key(oid)
        cmap.set(entry.replace(valid=()))
        txn = Transaction().zero(key, entry.offset, entry.length)
        if cmap.cached_indices() == []:
            txn.truncate(key, 0)  # fully evicted: metadata only
        try:
            yield from tier.commit_map([(oid, cmap, txn)], via)
        except Exception as exc:
            # Eviction is deferrable: the LRU offers the chunk again on
            # the next pass.
            if not is_retryable(exc):
                raise
            return
        self.stats.chunks_evicted += 1

    # -- draining (tests & benches) -----------------------------------------------------

    def drain(self, run_gc: bool = True):
        """Process: dedup everything on the dirty list, ignoring hotness.

        Each round works out every dirty PG's primary once
        (:meth:`~DedupTier.dirty_pgs_by_primary`, the OSD its pass runs
        on) and gives every primary :data:`PASSES_PER_OSD` concurrent
        forced workers, which pop only its PGs, in logged order — the
        paper's background deduplication threads inside the OSDs, one
        pass per dirty PG at a time (a single dirty PG runs inline).  The
        PGs with no acting OSD up get workers of their own.  A remap or
        a failure mid-round moves only where a pass runs, never what it
        commits; PGs dirtied mid-round wait for the next round.  The
        list is rebuilt from the authoritative dirty bits until a
        rebuild finds nothing.  Optionally hands a non-empty
        :attr:`deref_queue` to the GC afterwards (:meth:`release`); a
        give-up in it leaves the pairs on the queue for the next
        collection.  Used by benchmarks to reach the fully deduplicated
        steady state before measuring space.  A worker takes its next group as soon as its
        pass has committed its maps; the drain waits for every release
        in flight — its passes' old chunks, a delete's, an idle worker's
        GC (:meth:`releases_landed`) — before its GC, so it returns with
        every reference settled and every lock free.

        A non-retryable error in one pass stops the hand-out: no worker
        pops another group, siblings finish the pass they hold (they
        are never interrupted), and the first error is re-raised.  The
        dirty bits stay authoritative, so a later ``drain()`` converges.
        """
        tier = self.tier
        errors = []

        def worker(pgs):
            try:
                yield from self._worker(force=True, stop=lambda: bool(errors), pgs=pgs)
            except Exception as exc:
                errors.append(exc)

        rounds = 0
        while True:
            by_primary = tier.dirty_pgs_by_primary()
            if not by_primary:
                # Hot-skipped objects are requeued with a delay, which a
                # drain must not wait for: rebuild the list from the
                # authoritative dirty bits instead.
                if tier.rebuild_dirty_list() == 0:
                    break
                continue
            if tier.dirty_pg_count == 1:
                yield from worker(*by_primary.values())
            else:
                yield self.sim.all_of([
                    self.sim.process(worker(pgs))
                    for _ in range(PASSES_PER_OSD)
                    for pgs in by_primary.values()
                ])
            if errors:
                raise errors[0]
            rounds += 1
            if rounds > 1_000_000:
                raise RuntimeError("drain did not converge")
        if self._releases:
            yield from self.releases_landed()
        if run_gc and self.deref_queue:
            queue, self.deref_queue = self.deref_queue, []
            self.release(queue, None)
            yield from self.releases_landed()

    def drain_sync(self, run_gc: bool = True) -> None:
        """Synchronous :meth:`drain`."""
        self.tier.cluster.run(self.drain(run_gc=run_gc))
