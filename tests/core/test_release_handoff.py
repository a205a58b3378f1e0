"""A pass ends at its map commit; its old chunks go through the one GC.

When a strict-mode pass re-points chunk-map entries, it must drop the
references to their old chunk objects once the map commits (§4.4.1
step 3).  The pass frees its members' object locks at its map commit;
the release runs behind it as a process of its own: the one GC
(``collect_garbage``) over the dropped pairs, which re-reads each
referrer's map under its object lock and drops only the pairs no map
implies.  A direct pass (a flush) starts its own release; the passes of
a drain round hand their pairs to the round, which starts one GC over
them all once its passes have ended.  These tests pin that a write at
the map commit goes before the release, that a worker takes its next
group before the round's release starts, that a round's GC is one
dereference commit per chunk PG, that a release behind a write and a
flush that revert an entry drops none of its live references, also mid
round, that a drain or ``flush_sync`` returns with every reference
settled, that a pass whose map commit faults hands the GC only the
references it took, in either refcount mode, that a release that gives
up is deferred to the GC, and the drain's simulated time.
"""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage, scrub_sync, verdict
from repro.core import engine as engine_module
from repro.core.objects import ChunkRef
from repro.core.scrub import collect_garbage_sync
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import FaultEvent
from repro.fingerprint import fingerprint
from repro.obs import Tracer, check_trace

KiB = 1024
CHUNK = 16 * KiB

#: Simulated seconds of the drain in :func:`test_drain_time_is_pinned`:
#: every primary with a dirty PG runs its passes from the drain's first
#: instant, each worker takes its next object at its pass's map commit,
#: and the drain ends once the round's one GC over every pass's old
#: chunk has landed.  That GC starts only after the last pass has
#: ended, where a release per pass overlapped the passes still running,
#: so this four-pass drain takes 1.6 % longer than with those releases
#: (0.001044626267751059 s); a drain of many passes commits fewer
#: dereference transactions and takes less.
DRAIN_S = 0.001061537075042726


#: A fault window this long outlasts every retry of a release.
RELEASE_GIVES_UP_S = 1.0


def make_storage(**config):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    defaults = dict(chunk_size=CHUNK, dedup_interval=0.01, cache_on_flush=False)
    defaults.update(config)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def original(oid):
    """The content ``oid`` is first written with: one chunk of its own."""
    return bytes([int(oid[3:]) + 1]) * CHUNK


def flushed_then_patched(storage, oids):
    """Each of ``oids`` (``objN``) one flushed, evicted chunk, then
    overwritten mid-chunk: the next pass replaces the chunk and releases
    the old."""
    expected = {}
    for oid in oids:
        data = bytearray(original(oid))
        storage.write_sync(oid, bytes(data))
        expected[oid] = data
    storage.drain()
    for oid, data in expected.items():
        storage.write_sync(oid, b"M" * 100, offset=6 * KiB)
        data[6 * KiB : 6 * KiB + 100] = b"M" * 100
    return {oid: bytes(data) for oid, data in expected.items()}


def derefs_of(batch):
    """The ``(chunk_id, ref)`` pairs a chunk batch dereferences."""
    return [(op[1], op[2]) for op in batch.ops if op[0] == "deref"]


def assert_settled(storage):
    """The store's verdict finds nothing: every chunk's reference
    records are exactly the uses its chunk maps imply (the dedup scrub
    checks both ways), scrubs, placement, no lock held, nothing queued."""
    found = verdict(storage)
    assert found.clean, found.problems


def test_a_write_at_the_map_commit_goes_before_the_release():
    storage = make_storage()
    oids = [f"obj{i}" for i in range(6)]
    expected = flushed_then_patched(storage, oids)
    tier, sim = storage.tier, storage.sim
    grants = []  # (oid, requested, granted) per object-lock grant
    released = {}  # oid -> when its old-chunk release landed
    writes = {}  # oid -> (issued, lock granted) of a write made at its commit
    acquire = tier.object_locks.acquire
    commit_chunk_batch = tier.commit_chunk_batch
    commit_map = tier.commit_map

    def recording_acquire(oid, held):
        requested = sim.now
        grant = acquire(oid, held)
        grant.subscribe(lambda _e: grants.append((oid, requested, sim.now)))
        return grant

    def recording_release(batch, via):
        outcomes = yield from commit_chunk_batch(batch, via)
        for _chunk_id, ref in derefs_of(batch):
            released.setdefault(ref.source_oid, sim.now)
        return outcomes

    def writer(oid):
        # Back to the content of the chunk the release drops: the write
        # makes the entry dirty again, and its next pass takes the old
        # chunk's reference back.
        # The pass that set this write off asked for its lock before the
        # commit, and no later pass asks before the write commits: the
        # write's grant is the first one on ``oid`` asked for since.
        issued = sim.now
        yield from storage.write(oid, original(oid)[6 * KiB : 6 * KiB + 100], offset=6 * KiB)
        granted = next(when for o, asked, when in grants if o == oid and asked >= issued)
        writes[oid] = (issued, granted)

    def write_at_commit(maps, client=None, sent=None, after=None):
        yield from commit_map(maps, client, sent, after)
        for oid, _cmap, _txn in maps:
            if oid not in writes and oid not in released and len(writes) < 2:
                writes[oid] = None
                sim.process(writer(oid))

    tier.object_locks.acquire = recording_acquire
    tier.commit_chunk_batch = recording_release
    tier.commit_map = write_at_commit
    storage.engine.drain_sync(run_gc=False)

    assert sorted(released) == oids
    assert len(writes) == 2
    for oid, (issued, granted) in writes.items():
        # The pass frees the lock at its map commit: the write has it
        # before the release, which checks the map behind the write.
        assert issued <= granted < released[oid], oid
    for oid, data in expected.items():
        assert storage.read_sync(oid) == (original(oid) if oid in writes else data)
    assert_settled(storage)


def test_a_worker_takes_its_next_group_before_the_release_lands():
    from repro.core.engine import PASSES_PER_OSD

    storage = make_storage()
    tier, sim = storage.tier, storage.sim
    pool = tier.metadata_pool
    # One more dirty PG than a primary runs passes at once: its third
    # waits for a worker of that primary to finish a pass.
    by_primary = {}  # primary -> first oid of each of its PGs
    for oid in (f"obj{i}" for i in range(64)):
        pgs = by_primary.setdefault(tier.cluster.primary(pool, oid).osd_id, {})
        pgs.setdefault(pool.pg_of(oid), oid)
    oids = next(list(pgs.values()) for pgs in by_primary.values()
                if len(pgs) > PASSES_PER_OSD)[: PASSES_PER_OSD + 1]
    flushed_then_patched(storage, oids)
    assert tier.dirty_pg_count == PASSES_PER_OSD + 1
    loads = []  # (oid, when) per chunk-map load, in order
    committed = []  # when each map commit landed
    started = []  # (when, referrers) per release
    load_chunk_map, commit_map = tier.load_chunk_map, tier.commit_map
    release = storage.engine._release

    def recording_load(oid):
        loads.append((oid, sim.now))
        return (yield from load_chunk_map(oid))

    def recording_commit(*args):
        yield from commit_map(*args)
        committed.append(sim.now)

    def recording_release(pairs, client):
        started.append((sim.now, sorted(ref.source_oid for _cid, ref in pairs)))
        yield from release(pairs, client)

    tier.load_chunk_map = recording_load
    tier.commit_map = recording_commit
    storage.engine._release = recording_release
    storage.engine.drain_sync(run_gc=False)
    assert sorted(oid for oid, _when in loads) == sorted(oids)
    *first, (_last, last_loaded) = loads
    assert len({when for _oid, when in first}) == 1  # side by side
    # The third pass loads at a first pass's map commit, and the round
    # releases every pass's old chunk in one GC once the last has ended.
    ((released, referrers),) = started
    assert referrers == sorted(oids)
    assert first[0][1] < last_loaded == min(committed) < max(committed) <= released
    assert_settled(storage)


def test_a_drain_round_releases_its_old_chunks_in_one_gc(monkeypatch):
    # Many dirty PGs, one old chunk each: the round's one GC drops them
    # all in one dereference batch, one prepared transaction per chunk
    # PG, where a GC per pass would commit one per pass.
    storage = make_storage()
    tier = storage.tier
    oids = [f"obj{i}" for i in range(24)]
    flushed_then_patched(storage, oids)
    assert tier.dirty_pg_count > 2 * len(tier.dirty_pgs_by_primary())  # a third pass waits
    old = {tier.peek_chunk_map(oid).get(0).chunk_id for oid in oids}
    chunk_pgs = {tier.chunk_pool.pg_of(cid) for cid in old}
    assert len(chunk_pgs) < len(old)
    gcs = []  # the pairs of each GC
    prepared = []  # prepared transactions per dereference batch
    collect_garbage = engine_module.collect_garbage
    commit_chunk_batch = tier.commit_chunk_batch

    def recording_gc(tier, pairs, via=None):
        gcs.append(sorted(pairs))
        return (yield from collect_garbage(tier, pairs, via))

    def counting_commit(batch, via):
        before = tier.stage.ref_commits
        outcomes = yield from commit_chunk_batch(batch, via)
        if derefs_of(batch):
            prepared.append(tier.stage.ref_commits - before)
        return outcomes

    monkeypatch.setattr(engine_module, "collect_garbage", recording_gc)
    tier.commit_chunk_batch = counting_commit
    storage.engine.drain_sync(run_gc=False)
    (pairs,) = gcs
    assert sorted(cid for cid, _ref in pairs) == sorted(old)
    assert prepared == [len(chunk_pgs)]
    for cid in old:
        assert not storage.cluster.exists(tier.chunk_pool, cid)
    assert_settled(storage)


def test_a_revert_mid_round_keeps_its_live_reference(monkeypatch):
    # X -> Y -> X inside one drain round: obj0's pass re-points its
    # entry from X to Y and hands (X, obj0) to the round.  A write then
    # reverts the bytes and a flush re-points the entry back to X,
    # taking that very reference again, while another primary's pass
    # holds the round open; the round's GC, which starts after, keeps it.
    storage = make_storage()
    tier, sim = storage.tier, storage.sim
    pool = tier.metadata_pool
    home = tier.cluster.primary(pool, "obj0").osd_id
    other = next(f"obj{i}" for i in range(1, 64)
                 if tier.cluster.primary(pool, f"obj{i}").osd_id != home)
    expected = flushed_then_patched(storage, ["obj0", other])
    x = tier.peek_chunk_map("obj0").get(0).chunk_id
    y = fingerprint(expected["obj0"])
    reverted = sim.event()
    reverting = []  # the revert's process, once started
    gcs = []  # pairs per GC, in start order
    collect_garbage = engine_module.collect_garbage
    commit_map = tier.commit_map

    def revert():
        yield from storage.write("obj0", original("obj0")[6 * KiB : 6 * KiB + 100],
                                 offset=6 * KiB)
        yield from storage.flush("obj0")  # Y -> X
        reverted.succeed()

    def held_commit(maps, *args, **kwargs):
        members = [oid for oid, _cmap, _txn in maps]
        if other in members:
            yield reverted  # the round stays open until the revert commits
        yield from commit_map(maps, *args, **kwargs)
        if members == ["obj0"] and not reverting:  # the drain's pass: start the revert once
            reverting.append(sim.process(revert()))

    def recording_gc(tier, pairs, via=None):
        gcs.append(sorted(pairs))
        return (yield from collect_garbage(tier, pairs, via))

    monkeypatch.setattr(engine_module, "collect_garbage", recording_gc)
    tier.commit_map = held_commit
    storage.engine.drain_sync(run_gc=False)
    ref = ChunkRef(pool.pool_id, "obj0", 0)
    # The flush's own release of Y, then the round's GC over X and
    # ``other``'s old chunk.
    flushed, round_pairs = gcs
    assert flushed == [(y, ref)]
    assert (x, ref) in round_pairs and len(round_pairs) == 2
    assert tier.peek_chunk_map("obj0").get(0).chunk_id == x
    assert tier.chunk_refcount(x) == 1
    assert not storage.cluster.exists(tier.chunk_pool, y)
    assert storage.read_sync("obj0") == original("obj0")
    assert storage.read_sync(other) == expected[other]
    assert_settled(storage)


def test_a_release_behind_a_revert_keeps_the_live_reference(monkeypatch):
    # X -> Y -> X: a pass re-points the entry from X to Y, and its
    # release is held before its GC begins.  Meanwhile a write reverts
    # the bytes and a flush re-points the entry back to X, taking the
    # very reference (same oid, same offset) the release was handed.
    storage = make_storage()
    tier, sim, engine = storage.tier, storage.sim, storage.engine
    expected = flushed_then_patched(storage, ["obj0"])
    x = tier.peek_chunk_map("obj0").get(0).chunk_id
    y = fingerprint(expected["obj0"])
    retried = engine_module.call_with_retries

    def held_release(sim, policy, factory, stats, op):
        yield sim.timeout(0.05)
        return (yield from retried(sim, policy, factory, stats, op))

    monkeypatch.setattr(engine_module, "call_with_retries", held_release)

    def repoint_and_revert():
        yield from storage.flush("obj0")  # X -> Y
        assert len(engine._releases) == 1 and tier.chunk_refcount(x) == 1
        yield from storage.write("obj0", original("obj0")[6 * KiB : 6 * KiB + 100],
                                 offset=6 * KiB)
        yield from storage.flush("obj0")  # Y -> X
        assert len(engine._releases) == 2  # neither release has begun

    storage.cluster.run(repoint_and_revert())
    storage.cluster.run(engine.releases_landed())
    assert tier.peek_chunk_map("obj0").get(0).chunk_id == x
    assert tier.chunk_refcount(x) == 1
    assert not storage.cluster.exists(tier.chunk_pool, y)
    assert storage.read_sync("obj0") == original("obj0")
    assert_settled(storage)


def test_a_strict_drain_returns_with_every_reference_settled():
    storage = make_storage()
    expected = flushed_then_patched(storage, [f"obj{i}" for i in range(8)])
    storage.engine.drain_sync(run_gc=False)
    for oid, data in expected.items():
        assert storage.read_sync(oid) == data
    assert_settled(storage)


def test_flush_returns_with_the_old_chunk_released():
    storage = make_storage()
    expected = flushed_then_patched(storage, ["obj0"])
    tier = storage.tier
    old = tier.peek_chunk_map("obj0").get(0).chunk_id
    assert tier.chunk_refcount(old) == 1
    storage.flush_sync("obj0")
    assert not storage.cluster.exists(tier.chunk_pool, old)
    assert storage.read_sync("obj0") == expected["obj0"]
    assert_settled(storage)


def test_drain_time_is_pinned():
    storage = make_storage()
    flushed_then_patched(storage, [f"obj{i}" for i in range(4)])
    start = storage.sim.now
    storage.engine.drain_sync(run_gc=False)
    elapsed = storage.sim.now - start
    assert elapsed == pytest.approx(DRAIN_S, rel=1e-9)
    assert_settled(storage)


def test_content_reverted_to_a_released_chunk_is_counted_exactly():
    # A, then B, then A again in the same chunk of many objects: the
    # chunk A's last release dropped comes back while other objects'
    # releases of B are still in flight.
    storage = make_storage()
    oids = [f"obj{i}" for i in range(16)]
    a = bytes([7]) * CHUNK
    b = bytes([8]) * CHUNK
    for content in (a, b):
        for oid in oids:
            storage.write_sync(oid, content)
        storage.engine.drain_sync(run_gc=False)
    for n, oid in enumerate(oids):
        # Half revert the whole chunk, half only the bytes that differ
        # from a chunk they share with the other half.
        if n % 2:
            storage.write_sync(oid, a)
        else:
            storage.write_sync(oid, a[: CHUNK // 2], offset=0)
            storage.write_sync(oid, a[CHUNK // 2 :], offset=CHUNK // 2)
    storage.engine.drain_sync(run_gc=False)
    for oid in oids:
        assert storage.read_sync(oid) == a
    (chunk_id,) = storage.cluster.list_objects(storage.tier.chunk_pool)
    assert storage.tier.chunk_refcount(chunk_id) == len(oids)
    assert_settled(storage)


def release_start(oids):
    """When the first old-chunk release of a drain over
    :func:`flushed_then_patched` ``oids`` starts, from a traced dry run."""
    storage = make_storage()
    flushed_then_patched(storage, oids)
    with Tracer(storage.sim) as tracer:
        storage.engine.drain_sync(run_gc=False)
    assert check_trace(tracer.to_records(), coverage_threshold=0.0) == []
    return next(s for s in tracer.spans if s.stage == "op.release").start


def fault_the_release(storage, oids):
    """Attach transient errors from the first release of a drain over
    ``oids`` (already :func:`flushed_then_patched` in ``storage``) on,
    for longer than the release's retries, on the OSDs that hold an old
    chunk and no member's metadata object: every map commit has landed
    before it opens, and the releases alone fault and give up."""
    start = release_start(oids)
    end = start + RELEASE_GIVES_UP_S
    tier, cluster = storage.tier, storage.cluster
    chunk_osds = {
        osd.osd_id
        for oid in oids
        for osd in cluster.acting_osds(tier.chunk_pool, tier.peek_chunk_map(oid).get(0).chunk_id)
    }
    metadata_osds = {
        osd.osd_id for oid in oids for osd in cluster.acting_osds(tier.metadata_pool, oid)
    }
    targets = sorted(chunk_osds - metadata_osds)
    assert targets
    now = storage.sim.now
    return FaultInjector(cluster, FaultPlan([
        FaultEvent(start - now, "transient_errors", str(osd), duration=end - start,
                   params={"probability": 1.0})
        for osd in targets
    ], seed=1)).attach()


def map_commit_window(oid):
    """``(start, end)`` of the map commit of a forced pass over
    :func:`flushed_then_patched` ``oid``, from a traced dry run."""
    storage = make_storage()
    flushed_then_patched(storage, [oid])
    with Tracer(storage.sim) as tracer:
        storage.cluster.run(storage.engine.process_object(oid, force=True))
    span = next(
        s for s in tracer.spans
        if s.stage == "rados.submit" and s.tags["pool"] == storage.tier.metadata_pool.name
    )
    return span.start, span.end


def fault_the_map_commit(storage, oid, data):
    """Attach transient errors, over the window of the map commit of a
    forced pass over :func:`flushed_then_patched` ``oid`` (already so in
    ``storage``, with content ``data``), on the metadata object's
    replicas that hold no chunk of the pass: the map commit fails, and
    nothing else does."""
    start, end = map_commit_window(oid)
    tier, cluster = storage.tier, storage.cluster
    old = tier.peek_chunk_map(oid).get(0).chunk_id
    new = fingerprint(data)
    chunk_osds = {
        osd.osd_id for cid in (old, new) for osd in cluster.acting_osds(tier.chunk_pool, cid)
    }
    targets = sorted(
        {osd.osd_id for osd in cluster.acting_osds(tier.metadata_pool, oid)} - chunk_osds
    )
    assert targets
    now = storage.sim.now
    return FaultInjector(cluster, FaultPlan([
        FaultEvent(start - now, "transient_errors", str(osd), duration=end - start,
                   params={"probability": 1.0})
        for osd in targets
    ], seed=1)).attach()


def test_a_map_commit_that_faults_leaves_every_old_chunk_its_reference():
    oid = "obj0"
    storage = make_storage()
    expected = flushed_then_patched(storage, [oid])
    tier, cluster, engine = storage.tier, storage.cluster, storage.engine
    old = tier.peek_chunk_map(oid).get(0).chunk_id
    new = fingerprint(expected[oid])
    errors = []  # the type of each release's error, None when it committed
    commit_chunk_batch = tier.commit_chunk_batch

    def recording_release(batch, via):
        if not derefs_of(batch):
            return (yield from commit_chunk_batch(batch, via))
        try:
            outcomes = yield from commit_chunk_batch(batch, via)
        except Exception as exc:
            errors.append(type(exc).__name__)
            raise
        errors.append(None)
        return outcomes

    tier.commit_chunk_batch = recording_release
    injector = fault_the_map_commit(storage, oid, expected[oid])
    assert cluster.run(engine.process_object(oid, force=True)) == "faulted"
    cluster.run(engine.releases_landed())
    injector.detach()
    # The one release is the GC over the pass's new reference: the old
    # chunk, which the map still uses, is not among its pairs.
    assert errors == [None]
    assert tier.chunk_refcount(old) == 1
    assert not cluster.exists(tier.chunk_pool, new)
    assert tier.peek_chunk_map(oid).get(0).chunk_id == old
    assert engine.stats.derefs_deferred_fault == 0
    assert engine.stats.objects_requeued_fault == 1
    found = verdict(storage)  # nothing queued for the GC, no lock held
    assert found.clean, found.problems
    # The requeued pass commits; its release drops the old chunk.
    engine.drain_sync(run_gc=False)
    assert not cluster.exists(tier.chunk_pool, old)
    assert storage.read_sync(oid) == expected[oid]
    assert_settled(storage)


@pytest.mark.parametrize("mode", ["strict", "false_positive"])
def test_an_aborted_pass_hands_the_references_it_took_to_the_gc(mode):
    """A pass whose map commit faults took a reference to its new chunk
    and committed no map.  It returns with its object lock free and
    drops that reference as a committed pass drops its old chunks: in
    strict mode the GC runs behind it, and in ``false_positive`` mode
    the pair waits on the deref queue for the next drain's GC."""
    oid = "obj0"
    storage = make_storage(refcount_mode=mode)
    expected = flushed_then_patched(storage, [oid])
    tier, cluster, engine = storage.tier, storage.cluster, storage.engine
    chunks = sorted(cluster.list_objects(tier.chunk_pool))
    taken = (fingerprint(expected[oid]), ChunkRef(tier.metadata_pool.pool_id, oid, 0))
    injector = fault_the_map_commit(storage, oid, expected[oid])

    def aborted_pass():
        result = yield from engine.process_object(oid, force=True)
        return result, len(tier.object_locks), len(engine._releases)

    assert cluster.run(aborted_pass()) == ("faulted", 0, 1 if mode == "strict" else 0)
    injector.detach()
    assert tier.chunk_refcount(taken[0]) == 1  # over-retained, never dangling
    if mode == "strict":
        assert engine.deref_queue == []
        cluster.run(engine.releases_landed())
    else:
        assert engine.deref_queue == [taken]
        assert cluster.exists(tier.chunk_pool, taken[0])
        cluster.run(engine.drain())
        assert engine.deref_queue == []
        assert tier.chunk_refcount(taken[0]) == 1  # taken again by the retried pass
    assert engine.stats.objects_requeued_fault == 1
    assert engine.stats.derefs_deferred_fault == 0
    if mode == "strict":
        assert sorted(cluster.list_objects(tier.chunk_pool)) == chunks
        assert tier.peek_dirty_count(oid) == 1
    assert storage.read_sync(oid) == expected[oid]
    assert_settled(storage)


def test_a_release_that_faults_is_deferred_to_the_gc():
    oids = ["obj0", "obj1"]
    storage = make_storage()
    expected = flushed_then_patched(storage, oids)
    injector = fault_the_release(storage, oids)
    storage.engine.drain_sync(run_gc=False)
    injector.detach()
    assert storage.engine.stats.derefs_deferred_fault >= 1
    assert storage.engine.stats.objects_requeued_fault == 0  # the maps committed
    # Over-retained references, queued for the GC; no lock held.
    found = verdict(storage)
    assert found.problems == ["dedup scrub", "deref queue"], found.problems
    report = found.scrub
    assert report.stale_references and not report.dangling_map_entries
    assert collect_garbage_sync(storage.tier).references_dropped >= 1
    for oid, data in expected.items():
        assert storage.read_sync(oid) == data
    # The offline repair checked the deferred pairs: it takes them off
    # the queue.
    assert storage.engine.deref_queue == []
    assert_settled(storage)


def test_a_release_that_gives_up_leaves_availability_at_one():
    """A release is background work: its attempts and its give-up stay
    off the client's retry stats, and its pairs are counted as left for
    the GC."""
    oids = ["obj0", "obj1"]
    storage = make_storage()
    flushed_then_patched(storage, oids)
    stats = storage.tier.retry_stats
    before = (stats.attempts, stats.giveups, stats.availability)
    injector = fault_the_release(storage, oids)
    storage.engine.drain_sync(run_gc=False)
    injector.detach()
    engine = storage.engine
    assert engine.stats.derefs_deferred_fault == len(engine.deref_queue) == len(oids)
    assert (stats.attempts, stats.giveups, stats.availability) == before
    assert stats.availability == 1.0


def test_a_release_that_faults_is_reclaimed_by_the_drains_gc():
    """The deferred set goes on the deref queue and a drain's GC drops
    it: no stale reference is left for the offline repair.  The fault
    window still covers the faulted drain's own GC, which keeps the
    queue; the next drain, once the window has closed, reclaims it."""
    oids = ["obj0", "obj1"]
    storage = make_storage()
    expected = flushed_then_patched(storage, oids)
    injector = fault_the_release(storage, oids)
    storage.engine.drain_sync()
    injector.detach()
    assert storage.engine.stats.derefs_deferred_fault >= 1
    assert storage.engine.stats.objects_requeued_fault == 0  # the maps committed
    storage.engine.drain_sync()
    assert storage.engine.deref_queue == []
    assert not scrub_sync(storage.tier).stale_references
    for oid, data in expected.items():
        assert storage.read_sync(oid) == data
    assert_settled(storage)


def test_a_release_error_that_is_not_retryable_is_raised_by_drain():
    storage = make_storage()
    expected = flushed_then_patched(storage, [f"obj{i}" for i in range(4)])
    tier = storage.tier
    commit_chunk_batch = tier.commit_chunk_batch
    failed = []

    def broken_release(batch, via):
        if not failed and derefs_of(batch):
            failed.append(batch)
            raise RuntimeError("boom")
        return (yield from commit_chunk_batch(batch, via))

    tier.commit_chunk_batch = broken_release
    with pytest.raises(RuntimeError, match="boom"):
        storage.engine.drain_sync(run_gc=False)
    # The failed release left its pairs over-retained, and nothing else:
    # no lock held, nothing queued.
    found = verdict(storage)
    assert found.problems == ["dedup scrub"], found.problems
    del tier.commit_chunk_batch
    storage.engine.drain_sync(run_gc=False)  # the error was reported once
    assert collect_garbage_sync(tier).references_dropped == len(failed[0])
    for oid, data in expected.items():
        assert storage.read_sync(oid) == data
    assert_settled(storage)
