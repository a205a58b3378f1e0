"""Failure-injection tests for the consistency model (paper §4.6).

The paper argues correctness step by step: a write is one transaction
(data + chunk map); the dedup flush stores the chunk + reference first
and only then clears the dirty state, so a crash at any point either
loses nothing or leaves a dirty bit that a later pass re-processes.

We reproduce those arguments by interrupting the engine mid-pass at
arbitrary points (the simulation makes "crash at step N" deterministic)
and checking that (a) reads never return wrong data, and (b) a later
drain converges to the same state as an uninterrupted run.
"""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.fingerprint import fingerprint


def make_storage(**overrides):
    defaults = dict(chunk_size=1024, dedup_interval=0.01)
    defaults.update(overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def interrupted_pass(storage, oid, kill_after: float):
    """Run one dedup pass but kill it after ``kill_after`` sim-seconds."""
    sim = storage.sim
    pass_proc = sim.process(storage.engine.process_object(oid, force=True))

    def killer():
        yield sim.timeout(kill_after)
        pass_proc.interrupt("crash")

    sim.process(killer())
    sim.run()
    return pass_proc


@pytest.mark.parametrize("kill_after", [1e-6, 5e-5, 2e-4, 5e-4, 1e-3, 3e-3])
def test_crash_mid_flush_never_corrupts(kill_after):
    """Whatever instant the dedup pass dies at, data stays correct and a
    later drain converges."""
    storage = make_storage()
    payload = bytes(range(256)) * 12  # 3 chunks
    storage.write_sync("obj1", payload)
    proc = interrupted_pass(storage, "obj1", kill_after)
    # The pass either finished or was interrupted — both acceptable.
    assert proc.triggered
    # (a) reads are correct right now, whatever intermediate state the
    # crash left behind.
    assert storage.read_sync("obj1") == payload
    # (b) the dirty bits drive re-processing to the clean steady state.
    storage.tier.rebuild_dirty_list()
    storage.drain()
    assert storage.read_sync("obj1") == payload
    cmap = storage.tier.peek_chunk_map("obj1")
    assert cmap.all_clean()
    # No duplicate/garbage chunk objects: each live chunk referenced once.
    live = {e.chunk_id for e in cmap}
    pool_chunks = set(storage.cluster.list_objects(storage.tier.chunk_pool))
    assert pool_chunks == live


@pytest.mark.parametrize("kill_after", [5e-5, 3e-4, 1e-3])
def test_crash_during_overwrite_flush(kill_after):
    """Crash while flushing an overwrite (deref + re-ref in flight)."""
    storage = make_storage()
    storage.write_sync("obj1", b"OLD" * 400)
    storage.drain()
    old_fp = fingerprint((b"OLD" * 400)[:1024])
    storage.write_sync("obj1", b"NEW" * 400)
    interrupted_pass(storage, "obj1", kill_after)
    assert storage.read_sync("obj1") == b"NEW" * 400
    storage.tier.rebuild_dirty_list()
    storage.drain()
    assert storage.read_sync("obj1") == b"NEW" * 400
    # The old content's chunks are eventually dereferenced and gone.
    assert not storage.cluster.exists(storage.tier.chunk_pool, old_fp)


def test_write_transaction_is_atomic_on_all_replicas():
    """§4.6 step (1)-(2): the cached data and its dirty chunk-map state
    commit in a single transaction — no replica can hold one without
    the other."""
    storage = make_storage()
    storage.write_sync("obj1", b"x" * 2048)
    key = storage.tier.metadata_key("obj1")
    from repro.core.objects import CHUNK_MAP_XATTR
    from repro.core.objects import decode_stored_map

    for osd in storage.cluster.osds.values():
        if not osd.store.exists(key):
            continue
        obj = osd.store.get(key)
        cmap = decode_stored_map(obj.xattrs[CHUNK_MAP_XATTR], obj.omap)
        assert len(obj.data) == cmap.logical_size()
        assert all(e.dirty and e.cached for e in cmap)


def test_reference_before_clean_invariant():
    """§4.6 step (3)-(5): the chunk object and its reference exist
    *before* the dirty bit clears, so a crash between them only
    over-retains (never loses) data."""
    storage = make_storage()
    for i in range(10):
        storage.write_sync(f"obj{i}", b"shared" * 200)
    storage.drain()
    fp = fingerprint((b"shared" * 200)[:1024])
    # Every clean entry's chunk is present and referenced.
    for i in range(10):
        cmap = storage.tier.peek_chunk_map(f"obj{i}")
        for entry in cmap:
            assert not entry.dirty
            assert storage.cluster.exists(storage.tier.chunk_pool, entry.chunk_id)
    assert storage.tier.chunk_refcount(fp) == 10


def test_redundant_flush_is_idempotent():
    """§4.6: "if reference data already exists, the ack is sent without
    storing chunk and reference data" — re-processing a dirty object
    whose chunks were already flushed changes nothing."""
    storage = make_storage()
    storage.write_sync("obj1", b"idem" * 300)
    storage.drain()
    before = storage.space_report()
    # Force re-processing by faking a dirty bit (as a crashed step-5
    # would leave behind).
    storage.tier.peek_chunk_map("obj1")
    storage.tier.mark_dirty("obj1")
    storage.drain()
    after = storage.space_report()
    assert after.chunk_objects == before.chunk_objects
    assert after.stored_bytes == before.stored_bytes
    assert storage.read_sync("obj1") == b"idem" * 300


def test_engine_crash_then_restart_via_rebuild():
    """A 'restarted' engine recovers its work queue purely from the
    persisted dirty bits (the dirty list itself is volatile)."""
    storage = make_storage()
    for i in range(6):
        storage.write_sync(f"obj{i}", bytes([i]) * 1024)
    # Kill the engine after it processed some objects.
    storage.engine.start(workers=1)
    storage.sim.run(until=storage.sim.now + 0.002)
    storage.engine.stop()
    # "Restart": a fresh engine + rebuilt dirty list.
    from repro.core.engine import DedupEngine

    storage.engine = DedupEngine(storage.tier)
    storage.tier.rebuild_dirty_list()
    storage.drain()
    for i in range(6):
        assert storage.read_sync(f"obj{i}") == bytes([i]) * 1024
        assert storage.tier.peek_chunk_map(f"obj{i}").all_clean()


@pytest.mark.parametrize("kill_after", [0.0, 2e-5, 6e-5, 1.2e-4, 2e-4])
def test_crash_inside_a_pass_release_only_over_retains(kill_after, monkeypatch):
    """A worker pass releases its old chunks behind its map commit: the
    one GC runs over them in a process of its own, after the pass has
    freed its locks.  Kill that GC at any instant: the old chunk is at
    worst over-retained (never dangling), the locks are freed, the drain
    reports the crash, and GC reclaims what the release did not drop."""
    from repro.core import engine as engine_module
    from repro.core import scrub_sync
    from repro.core.engine import DedupEngine
    from repro.core.scrub import collect_garbage_sync
    from repro.faults.scenario import locks_left
    from repro.sim.core import Interrupt

    storage = make_storage()
    sim = storage.sim
    old = {f"obj{i}": bytes([i + 1]) * 3072 for i in range(4)}
    # Each write re-points two chunks: every kill point below lands
    # inside the GC of obj0's release, before its dereferences commit.
    new = {oid: data[:1000] + b"N" * 100 + data[1100:] for oid, data in old.items()}
    for oid, data in old.items():
        storage.write_sync(oid, data)
    storage.drain()
    for oid, data in new.items():
        storage.write_sync(oid, data[1000:1100], offset=1000)
    collect_garbage = engine_module.collect_garbage
    killed = []  # the GC process that is killed
    crashed = []  # the interrupts that landed inside that GC

    def gc(tier, pairs, via=None):
        if not killed and pairs[0][1].source_oid == "obj0":
            task = sim.current_task
            killed.append(task)

            def killer():
                yield sim.timeout(kill_after)
                task.interrupt("crash")

            sim.process(killer())
        try:
            return (yield from collect_garbage(tier, pairs, via))
        except Interrupt as exc:
            crashed.append(exc)
            raise

    monkeypatch.setattr(engine_module, "collect_garbage", gc)
    with pytest.raises(Interrupt):  # the drain reports the crash
        storage.engine.drain_sync(run_gc=False)
    assert len(crashed) == 1 and not killed[0].is_alive
    assert killed[0].gen.gi_code is gc.__code__  # the GC's own process
    assert locks_left(storage) == []
    for oid, data in new.items():
        assert storage.read_sync(oid) == data
    report = scrub_sync(storage.tier)
    assert report.stale_references  # over-retained ...
    assert not report.dangling_map_entries and not report.corrupt_chunks  # ... only
    # A restarted engine (its in-memory state is gone) converges, and
    # GC drops whatever the killed release left over-retained.
    monkeypatch.undo()
    storage.engine = DedupEngine(storage.tier)
    storage.tier.rebuild_dirty_list()
    storage.engine.drain_sync(run_gc=False)
    collect_garbage_sync(storage.tier)
    assert scrub_sync(storage.tier).clean
    for oid, data in new.items():
        assert storage.read_sync(oid) == data
