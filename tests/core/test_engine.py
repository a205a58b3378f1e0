"""Tests for the post-processing dedup engine."""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage, verdict
from repro.fingerprint import fingerprint
from repro.obs import Tracer


def make_storage(**config_overrides):
    defaults = dict(chunk_size=1024, dedup_interval=0.01, hitset_period=0.5)
    defaults.update(config_overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def test_flush_moves_chunk_to_chunk_pool():
    storage = make_storage()
    storage.write_sync("obj1", b"a" * 1024)
    storage.drain()
    fp = fingerprint(b"a" * 1024)
    assert storage.cluster.exists(storage.tier.chunk_pool, fp)
    cmap = storage.tier.peek_chunk_map("obj1")
    entry = cmap.get(0)
    assert entry.chunk_id == fp
    assert not entry.dirty
    assert storage.read_sync("obj1") == b"a" * 1024


def test_a_drained_pass_times_its_hashing_on_the_host_clock():
    """``fingerprint_seconds`` is the host time the pass spent hashing,
    read beside its op and byte counts (the e2e benchmark's
    ``fingerprint.mb_per_host_s``); it never feeds simulated state."""
    storage = make_storage()
    storage.write_sync("obj1", bytes(range(256)) * 64)
    storage.drain()
    stage = storage.tier.stage
    assert (stage.fingerprint_ops, stage.fingerprint_bytes) == (16, 16 * 1024)
    assert stage.fingerprint_seconds > 0


def test_duplicate_chunks_stored_once():
    storage = make_storage()
    for i in range(10):
        storage.write_sync(f"obj{i}", b"same-content" * 100)  # 1200 bytes
    storage.drain()
    report = storage.space_report()
    assert report.logical_bytes == 12000
    # Two unique chunks (1024 split + 176 tail) regardless of 10 copies.
    assert report.chunk_objects == 2
    assert report.chunk_data_bytes == 1200
    assert report.ideal_dedup_ratio == pytest.approx(0.9)


def test_refcount_tracks_all_referrers():
    storage = make_storage()
    for i in range(5):
        storage.write_sync(f"obj{i}", b"x" * 1024)
    storage.drain()
    fp = fingerprint(b"x" * 1024)
    assert storage.tier.chunk_refcount(fp) == 5


def test_overwrite_derefs_old_chunk():
    storage = make_storage()
    storage.write_sync("obj1", b"old-content" + b"\x00" * 1013)
    storage.drain()
    old_fp = fingerprint(b"old-content" + b"\x00" * 1013)
    assert storage.cluster.exists(storage.tier.chunk_pool, old_fp)
    storage.write_sync("obj1", b"new-content" + b"\xff" * 1013)
    storage.drain()
    # Sole referrer moved away: old chunk object is gone.
    assert not storage.cluster.exists(storage.tier.chunk_pool, old_fp)
    new_fp = fingerprint(b"new-content" + b"\xff" * 1013)
    assert storage.cluster.exists(storage.tier.chunk_pool, new_fp)


def test_shared_chunk_survives_one_dereference():
    storage = make_storage()
    storage.write_sync("obj1", b"s" * 1024)
    storage.write_sync("obj2", b"s" * 1024)
    storage.drain()
    fp = fingerprint(b"s" * 1024)
    storage.write_sync("obj1", b"t" * 1024)
    storage.drain()
    assert storage.cluster.exists(storage.tier.chunk_pool, fp)
    assert storage.tier.chunk_refcount(fp) == 1
    assert storage.read_sync("obj2") == b"s" * 1024


def test_a_chunk_released_between_assembly_and_commit_is_stored_from_the_cache():
    """A pass drops the bytes of a chunk the pool holds; when the GC of
    its only other referrer removes it before the pass commits, the
    commit re-reads it from the member's cached copy."""
    from repro.core.scrub import scrub_sync

    storage = make_storage()
    tier, engine = storage.tier, storage.engine
    payload = bytes(range(256)) * 4
    fp = fingerprint(payload)
    storage.write_sync("donor", payload)
    storage.drain()
    storage.write_sync("obj1", payload)
    commit_chunk_batch = tier.commit_chunk_batch
    staged = []  # what the pass handed the commit for ``fp``

    def delete_donor():
        yield from storage.delete("donor")
        yield from engine.releases_landed()

    def donor_released_first(batch, via):
        if not staged:  # the pass's batch, not the GC's
            staged.extend(op[3:] for op in batch.ops if op[1] == fp)
            # The donor's delete and its GC run in the window, as a
            # client's would: a process of their own.
            yield storage.sim.process(delete_donor())
            assert not tier.chunk_exists(fp)
        return (yield from commit_chunk_batch(batch, via))

    tier.commit_chunk_batch = donor_released_first
    storage.flush_sync("obj1")
    del tier.commit_chunk_batch
    assert staged == [(None, len(payload))]  # a reference: no bytes kept
    found = storage.cluster.peek(tier.chunk_pool, fp)
    assert found is not None and bytes(found[1].data) == payload
    assert engine.stats.chunks_flushed == 2  # stored twice: donor, obj1
    assert tier.peek_chunk_map("obj1").get(0).chunk_id == fp
    assert storage.read_sync("obj1") == payload
    for cid in storage.cluster.list_objects(tier.chunk_pool):
        live = sum(
            1
            for oid in storage.cluster.list_objects(tier.metadata_pool)
            for entry in tier.peek_chunk_map(oid)
            if entry.chunk_id == cid
        )
        assert tier.chunk_refcount(cid) == live, cid
    assert scrub_sync(tier).clean


def test_rewrite_same_content_is_stable():
    storage = make_storage()
    storage.write_sync("obj1", b"same" * 256)
    storage.drain()
    fp = fingerprint(b"same" * 256)
    storage.write_sync("obj1", b"same" * 256)
    storage.drain()
    assert storage.tier.chunk_refcount(fp) == 1
    assert storage.read_sync("obj1") == b"same" * 256


def test_cold_object_evicted_after_flush():
    storage = make_storage()
    storage.write_sync("obj1", b"c" * 2048)
    storage.drain()
    cmap = storage.tier.peek_chunk_map("obj1")
    assert all(not e.cached for e in cmap)
    # Data part is punched out: allocated bytes ~ 0.
    key = storage.tier.metadata_key("obj1")
    holder = next(
        o for o in storage.cluster.osds.values() if o.store.exists(key)
    )
    assert holder.store.get(key).allocated_bytes() == 0
    # Reads still work (redirected to the chunk pool).
    assert storage.read_sync("obj1") == b"c" * 2048


def test_a_pass_whose_map_commit_faults_leaves_the_cache_books(monkeypatch):
    """A pass notes what its maps cache or evict only once they commit:
    a cold object's pass that faults at its map commit leaves the chunk
    cached in the stored map and on the cache manager's books."""
    from repro.core.tier import DedupTier
    from repro.faults.errors import TransientOpError

    storage = make_storage()
    storage.write_sync("obj1", b"c" * 2048)
    cache = storage.tier.cache
    books = (cache.cached_bytes, dict(cache._cached), dict(cache._cached_by_oid))
    assert cache.cached_bytes == 2048

    def faulty(*_args, **_kwargs):
        raise TransientOpError(0, "write")
        yield

    monkeypatch.setattr(DedupTier, "commit_map", faulty)
    result = storage.cluster.run(storage.engine.process_object("obj1", force=True))
    assert result == "faulted"
    assert all(e.cached for e in storage.tier.peek_chunk_map("obj1"))
    assert (cache.cached_bytes, dict(cache._cached), dict(cache._cached_by_oid)) == books
    assert storage.engine.stats.chunks_evicted == 0
    monkeypatch.undo()
    storage.drain()
    assert cache.cached_bytes == 0
    assert storage.read_sync("obj1") == b"c" * 2048


def test_a_write_that_gives_up_leaves_nothing_on_the_cache_books(monkeypatch):
    """Only a committed map writes the cache books: a write whose every
    prepare faults gives up, and leaves neither bytes nor entries of the
    object it never created on them."""
    from repro.cluster.osd import OSD
    from repro.faults.errors import TransientOpError

    storage = make_storage()

    def faulty(osd, _txn):
        raise TransientOpError(osd.osd_id, "write")
        yield

    monkeypatch.setattr(OSD, "prepare_transaction", faulty)
    with pytest.raises(TransientOpError):
        storage.write_sync("obj1", b"w" * 3000)
    cache = storage.tier.cache
    assert storage.tier.peek_chunk_map("obj1") is None
    assert cache.cached_bytes == 0
    assert not [key for key in cache._cached if key[0] == "obj1"]
    assert "obj1" not in cache._cached_by_oid


def test_hot_object_stays_cached():
    storage = make_storage(hit_count_threshold=2, hitset_period=0.1)
    storage.write_sync("hot", b"h" * 1024)
    storage.sim.run(until=storage.sim.now + 0.2)
    storage.read_sync("hot")  # second period access -> hot
    # Engine pass (not forced): should skip the hot object entirely.
    result = storage.cluster.run(
        storage.engine.process_object("hot", force=False)
    )
    assert result == "skipped_hot"
    assert storage.engine.stats.objects_skipped_hot == 1
    cmap = storage.tier.peek_chunk_map("hot")
    assert cmap.get(0).dirty  # untouched


def test_hot_object_flushed_but_kept_cached_when_forced():
    storage = make_storage(hit_count_threshold=2, hitset_period=0.1)
    storage.write_sync("hot", b"h" * 1024)
    storage.sim.run(until=storage.sim.now + 0.2)
    storage.read_sync("hot")
    storage.cluster.run(storage.engine.process_object("hot", force=True))
    cmap = storage.tier.peek_chunk_map("hot")
    entry = cmap.get(0)
    assert not entry.dirty
    assert entry.cached  # hot -> stays cached after flush
    assert entry.chunk_id == fingerprint(b"h" * 1024)


def test_background_engine_drains_on_its_own():
    storage = make_storage()
    storage.engine.start()
    for i in range(5):
        storage.cluster.run(storage.write(f"obj{i}", b"bg" * 512))
    storage.sim.run(until=storage.sim.now + 10.0)
    assert storage.tier.dirty_count == 0
    assert storage.engine.stats.objects_processed == 5
    storage.engine.stop()


def test_engine_start_stop_idempotent():
    storage = make_storage()
    storage.engine.start()
    storage.engine.start()
    assert storage.engine.running
    storage.engine.stop()
    storage.sim.run(until=storage.sim.now + 1.0)
    assert not storage.engine.running


def test_race_with_foreground_write_aborts_cleanly():
    """A write racing a dedup pass waits for the pass's object lock:
    no data lost, no refs leaked."""
    storage = make_storage()
    storage.write_sync("obj1", b"v1" * 512)

    def racer():
        # Start the dedup pass and a foreground write concurrently.
        pass_proc = storage.sim.process(
            storage.engine.process_object("obj1", force=True)
        )
        write_proc = storage.sim.process(storage.write("obj1", b"v2" * 512))
        yield storage.sim.all_of([pass_proc, write_proc])
        return pass_proc.value

    assert storage.cluster.run(racer()) == "done"
    storage.drain()
    assert storage.read_sync("obj1") == b"v2" * 512
    # No leaked chunk objects: only the live content's chunk remains.
    chunks = storage.cluster.list_objects(storage.tier.chunk_pool)
    assert chunks == [fingerprint(b"v2" * 512)]


def test_false_positive_refcount_defers_deref():
    storage = make_storage(refcount_mode="false_positive")
    storage.write_sync("obj1", b"A" * 1024)
    storage.drain()
    old_fp = fingerprint(b"A" * 1024)
    storage.write_sync("obj1", b"B" * 1024)
    storage.engine.tier.cluster.run(
        storage.engine.process_object("obj1", force=True)
    )
    # Deref was deferred: the dead chunk still exists (false positive).
    assert storage.cluster.exists(storage.tier.chunk_pool, old_fp)
    assert len(storage.engine.deref_queue) == 1
    # GC collects it.
    storage.drain()  # drain runs gc
    assert not storage.cluster.exists(storage.tier.chunk_pool, old_fp)
    assert storage.engine.deref_queue == []


def test_dirty_list_rebuild_from_chunk_maps():
    storage = make_storage()
    storage.write_sync("obj1", b"1" * 1024)
    storage.write_sync("obj2", b"2" * 1024)
    storage.drain()
    storage.write_sync("obj3", b"3" * 1024)
    # Simulate a restart: volatile dirty list lost.
    storage.tier._dirty_pgs.clear()
    storage.tier._dirty_total = 0
    found = storage.tier.rebuild_dirty_list()
    assert found == 1
    assert storage.tier.next_dirty_group() == ["obj3"]


def test_cache_capacity_enforced_by_demotion():
    storage = make_storage(
        cache_capacity_bytes=2048,
        hit_count_threshold=1,  # everything counts as hot -> stays cached
        hitset_period=10.0,
    )
    for i in range(6):
        storage.write_sync(f"obj{i}", bytes([i]) * 1024)
    storage.drain()
    assert storage.tier.cache.cached_bytes <= 2048
    assert storage.engine.stats.chunks_evicted >= 4
    # Every object still reads back correctly (demoted ones via chunk pool).
    for i in range(6):
        assert storage.read_sync(f"obj{i}") == bytes([i]) * 1024


def test_engine_stats_accumulate():
    storage = make_storage()
    storage.write_sync("a", b"unique-a" * 128)
    storage.write_sync("b", b"unique-b" * 128)
    storage.write_sync("c", b"unique-a" * 128)  # dup of a
    storage.drain()
    stats = storage.engine.stats
    assert stats.objects_processed == 3
    assert stats.chunks_flushed == 2
    assert stats.chunks_deduped == 1
    assert stats.bytes_deduped == 1024


def test_missing_object_is_handled():
    storage = make_storage()
    result = storage.cluster.run(storage.engine.process_object("ghost"))
    assert result == "missing"


# -- drain at the cluster's width ---------------------------------------------


def max_open_spans(spans):
    """Most of ``spans`` open at one simulated instant (a span that ends
    where the next one starts does not overlap it)."""
    edges = []
    for span in spans:
        edges.append((span.start, 1))
        edges.append((span.end, -1))
    open_now = peak = 0
    for _time, delta in sorted(edges):
        open_now += delta
        peak = max(peak, open_now)
    return peak


def test_drain_runs_passes_per_osd_passes_on_every_primary_at_once():
    """A drain works every metadata primary with a dirty PG from its
    first instant, and never runs more than ``PASSES_PER_OSD`` passes on
    one primary at once."""
    from repro.core.engine import PASSES_PER_OSD

    storage = make_storage()
    tier = storage.tier
    oids = [f"obj{i}" for i in range(24)]
    for i, oid in enumerate(oids):
        storage.write_sync(oid, bytes([i]) * 2048)
    assert not storage.engine.running

    def primary(oid):
        return tier.cluster.primary(tier.metadata_pool, oid).osd_id

    pgs_of = {}  # primary -> its dirty metadata PGs
    for oid in oids:
        pgs_of.setdefault(primary(oid), set()).add(tier.metadata_pool.pg_of(oid))
    assert len(pgs_of) > 1
    assert max(map(len, pgs_of.values())) > PASSES_PER_OSD  # the bound can bind
    start = storage.sim.now
    with Tracer(storage.sim) as tracer:
        storage.drain()
    assert storage.engine.stats.objects_processed == 24
    passes_on = {}  # primary -> its passes' spans
    for span in tracer.spans:
        if span.stage == "op.dedup_pass":
            passes_on.setdefault(primary(span.tags["oid"]), []).append(span)
    assert passes_on.keys() == pgs_of.keys()
    for osd, spans in passes_on.items():
        assert len(spans) == len(pgs_of[osd])  # one pass per dirty PG
        assert max_open_spans(spans) == min(PASSES_PER_OSD, len(pgs_of[osd])), osd
        assert any(span.start == start for span in spans), osd


@pytest.mark.parametrize("workers", [8, 1])
def test_drain_runs_engine_workers_passes_at_once(workers):
    """The background workers drain the dirty list
    ``min(engine_workers, dirty metadata PGs)`` passes at once, one per
    PG; ``engine_workers`` sizes them, not a forced drain."""
    storage = make_storage(engine_workers=workers)
    for i in range(24):
        storage.write_sync(f"obj{i}", bytes([i]) * 2048)
    pgs = storage.tier.dirty_pg_count
    assert workers < pgs < 24  # some PGs hold several objects
    with Tracer(storage.sim) as tracer:
        storage.engine.start()
        storage.sim.run(until=storage.sim.now + 10.0)
        storage.engine.stop()
    assert storage.tier.dirty_count == 0
    assert storage.engine.stats.objects_processed == 24
    passes = [span for span in tracer.spans if span.stage == "op.dedup_pass"]
    assert len(passes) == pgs
    assert max_open_spans(passes) == min(workers, pgs)


def test_drain_of_one_dirty_object_spawns_no_process():
    """One dirty object runs inline: the drain costs exactly the
    processes the pass itself starts."""

    def processes_started(run_pass):
        storage = make_storage()
        storage.write_sync("obj1", b"solo" * 512)
        started = []
        spawn = storage.sim.process

        def counting(gen):
            started.append(gen)
            return spawn(gen)

        storage.sim.process = counting
        run_pass(storage)
        assert storage.tier.peek_dirty_count("obj1") == 0
        return len(started)

    assert processes_started(lambda s: s.drain()) == processes_started(
        lambda s: s.flush_sync("obj1")
    )


def test_drain_beside_background_workers_and_a_writer_converges(monkeypatch):
    from repro.core import engine

    monkeypatch.setattr(engine, "HOT_REQUEUE_DELAY", 5.0)
    storage = make_storage(hit_count_threshold=1)
    sim = storage.sim
    latest = {}

    def writer():
        for generation in range(4):
            for i in range(6):
                data = bytes([16 * generation + i]) * 3000
                yield from storage.write(f"obj{i}", data)
                latest[f"obj{i}"] = data

    def scenario():
        storage.engine.start()
        racing = [sim.process(writer()), sim.process(storage.engine.drain())]
        yield sim.all_of(racing)
        # The writer is done; the background workers (every object is
        # hot to them, so they only skip and requeue) are still running.
        yield from storage.engine.drain()

    storage.cluster.run(scenario())
    assert storage.engine.running
    assert storage.tier.dirty_count == 0
    for oid, data in latest.items():
        assert storage.tier.peek_dirty_count(oid) == 0
        assert storage.read_sync(oid) == data
    storage.engine.stop()
    from repro.core.scrub import scrub_sync

    assert scrub_sync(storage.tier).clean


def test_failed_drain_fails_once_and_cleanly():
    """A non-retryable error in one pass: nothing more is handed out,
    siblings finish what they hold, the first error is what drain
    raises, and a later drain on the healed tier converges."""
    storage = make_storage()
    for i in range(24):
        storage.write_sync(f"obj{i}", bytes([i]) * 2048)
    tier, sim = storage.tier, storage.sim
    real_load = tier.load_chunk_map

    def broken_load(oid):
        if oid == "obj1":
            raise RuntimeError("boom")
        return real_load(oid)

    popped = []  # (when, group) per group handed out
    pop = tier.next_dirty_group

    def recording(pgs=None):
        group = pop(pgs)
        if group:
            popped.append((sim.now, group))
        return group

    tier.load_chunk_map = broken_load
    tier.next_dirty_group = recording
    start = sim.now
    with pytest.raises(RuntimeError, match="boom"):
        storage.drain()
    del tier.next_dirty_group
    # Every worker took its group at the drain's first instant, obj1's
    # among them; obj1's pass failed, the others finished theirs and
    # took nothing further.
    assert {when for when, _group in popped} == {start}
    handed = [oid for _when, group in popped for oid in group]
    failed = next(group for _when, group in popped if "obj1" in group)
    assert storage.engine.stats.objects_processed == len(handed) - len(failed)
    assert tier.dirty_count == 24 - len(handed) > 0
    assert tier.peek_dirty_count("obj1") == 2
    found = verdict(storage)
    assert found.clean, found.problems

    tier.load_chunk_map = real_load
    storage.drain()
    assert tier.dirty_count == 0
    assert all(tier.peek_dirty_count(f"obj{i}") == 0 for i in range(24))
    assert storage.engine.stats.objects_processed == 24
    found = verdict(storage, shadow={f"obj{i}": bytes([i]) * 2048 for i in range(24)})
    assert found.clean, found.problems


def test_end_state_is_independent_of_drain_width():
    """A drain that runs one pass at a time and drains of one, two (the
    default) or three passes per primary leave a tier holding the same
    bytes, the same references and the same chunk maps."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    from repro.core import engine as engine_module
    from repro.core.scrub import scrub_sync

    chunk = 1024
    objects = 5
    object_size = 4 * chunk
    # A four-letter alphabet: whole-chunk writes repeat content inside an
    # object and across objects; odd offsets/lengths overwrite sub-chunk.
    op_strategy = st.one_of(
        st.tuples(
            st.just("w"),
            st.integers(0, objects - 1),
            st.integers(0, object_size - 1),
            st.integers(1, 2 * chunk),
            st.integers(0, 3),
        ),
        st.tuples(
            st.just("w"),
            st.integers(0, objects - 1),
            st.integers(0, 3).map(lambda i: i * chunk),
            st.just(chunk),
            st.integers(0, 3),
        ),
        st.tuples(st.just("d")),
    )

    def one_pass_at_a_time(storage):
        # One forced worker popping the list from its head, as a
        # background worker does, pass after pass.
        storage.cluster.run(
            storage.engine._worker(force=True, stop=lambda: False)
        )
        assert storage.tier.rebuild_dirty_list() == 0
        storage.drain()  # no pass left: lands the releases, runs the GC

    def passes_per_osd(width):
        def drain(storage):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine_module, "PASSES_PER_OSD", width)
                storage.drain()

        return drain

    def end_state(drain, ops):
        storage = make_storage(cache_on_flush=False)
        shadow = {}
        for op in ops:
            if op[0] == "d":
                drain(storage)
                continue
            _kind, obj, offset, length, fill = op
            storage.write_sync(f"o{obj}", bytes([fill]) * length, offset=offset)
            buf = shadow.setdefault(obj, bytearray())
            buf.extend(b"\x00" * (offset + length - len(buf)))
            buf[offset : offset + length] = bytes([fill]) * length
        drain(storage)
        tier = storage.tier
        for obj, buf in shadow.items():
            assert storage.read_sync(f"o{obj}") == bytes(buf)
        assert scrub_sync(tier).clean
        refs = {
            cid: list(tier._load_refs(cid))
            for cid in storage.cluster.list_objects(tier.chunk_pool)
        }
        maps = {
            oid: [
                (e.offset, e.length, e.chunk_id, e.dirty, e.valid)
                for e in tier.peek_chunk_map(oid)
            ]
            for oid in storage.cluster.list_objects(tier.metadata_pool)
        }
        return storage.cluster.total_used_bytes(), refs, maps

    @hypothesis.settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=list(hypothesis.HealthCheck),
    )
    @hypothesis.given(ops=st.lists(op_strategy, min_size=1, max_size=30))
    def check(ops):
        serial = end_state(one_pass_at_a_time, ops)
        for width in (1, 2, 3):
            assert end_state(passes_per_osd(width), ops) == serial, width

    check()
