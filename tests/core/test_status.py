"""Tests for the operational status snapshot (``repro.obs.storage_metrics``)."""

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent
from repro.obs import status_lines, storage_metrics


def make_storage(**overrides):
    defaults = dict(chunk_size=1024, dedup_interval=0.01)
    defaults.update(overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def value(registry, name, **labels):
    return registry.get(name).labels(**labels).value


def test_status_fresh_store():
    storage = make_storage()
    snap = storage_metrics(storage)
    assert value(snap, "repro_engine_running") == 0
    assert value(snap, "repro_dirty_objects") == 0
    assert value(snap, "repro_space_bytes", kind="logical") == 0
    assert value(snap, "repro_refcount_mode", mode="strict") == 1


def test_status_reflects_dirty_backlog_and_cache():
    storage = make_storage()
    for i in range(4):
        storage.write_sync(f"obj{i}", b"x" * 2048)
    snap = storage_metrics(storage)
    assert value(snap, "repro_dirty_objects") == 4
    assert value(snap, "repro_cache_tier", stat="cached_bytes") == 4 * 2048
    assert value(snap, "repro_foreground_iops") > 0
    assert value(snap, "repro_space_bytes", kind="logical") == 4 * 2048


def test_status_after_drain():
    storage = make_storage()
    for i in range(4):
        storage.write_sync(f"obj{i}", b"same" * 512)
    storage.drain()
    snap = storage_metrics(storage)
    assert value(snap, "repro_dirty_objects") == 0
    assert value(snap, "repro_engine_ops", stat="objects_processed") == 4
    assert storage.space_report().chunk_objects == 1
    # metadata-heavy at tiny scale
    assert value(snap, "repro_dedup_ratio_actual") > 0.2
    assert value(snap, "repro_pool_used_bytes", pool="dedup-chunks") > 0


def test_a_flush_is_not_a_promotion():
    """A write caches its chunks and the pass that flushes them evicts
    them: the books count both, and ``status`` reports no promotion."""
    storage = make_storage()
    storage.write_sync("obj1", b"w" * 3000)
    storage.drain()
    cache = storage.tier.cache
    assert (cache.chunks_cached, cache.chunks_uncached) == (3, 3)
    assert storage.engine.stats.chunks_promoted == 0
    snap = storage_metrics(storage)
    assert value(snap, "repro_cache_tier", stat="chunks_cached") == 3
    line = next(line for line in status_lines(snap) if line.startswith("cache "))
    assert line.endswith("(0 chunks promoted, 3 evicted)")


def test_status_engine_running_flag():
    storage = make_storage()
    storage.engine.start()
    assert value(storage_metrics(storage), "repro_engine_running") == 1
    storage.engine.stop()
    storage.sim.run(until=storage.sim.now + 1.0)
    assert value(storage_metrics(storage), "repro_engine_running") == 0


def test_status_pending_derefs_in_fp_mode():
    storage = make_storage(refcount_mode="false_positive")
    storage.write_sync("obj1", b"A" * 1024)
    storage.drain()
    storage.write_sync("obj1", b"B" * 1024)
    storage.cluster.run(storage.engine.drain(run_gc=False))
    snap = storage_metrics(storage)
    assert value(snap, "repro_refcount_mode", mode="false_positive") == 1
    assert value(snap, "repro_refcount_pending_derefs") == 1
    assert "refcount           false_positive (1 derefs pending GC)" in (
        status_lines(snap)
    )


def test_summary_lines_render():
    storage = make_storage()
    storage.write_sync("obj1", b"y" * 4096)
    storage.drain()
    lines = status_lines(storage_metrics(storage))
    assert any("dedup ratio" in line for line in lines)
    assert all(isinstance(line, str) for line in lines)


def test_snapshot_does_not_move_with_later_work():
    # A snapshot copies values: writing, draining and faulting after it
    # must leave its engine, retry and fault numbers (and its text) alone.
    storage = make_storage()
    # At 30 % EIO on every OSD, about one plan seed in four makes some op
    # exhaust its retries and the run raise; this seed lets every op of
    # the run through.
    storage.inject_faults(FaultPlan([
        FaultEvent(0.0, "transient_errors", str(osd), duration=10.0,
                   params={"probability": 0.3})
        for osd in range(8)
    ], seed=4))
    storage.write_sync("obj0", b"a" * 2048)
    storage.drain()
    snap = storage_metrics(storage)
    text = status_lines(snap)
    frozen = {
        ("repro_engine_ops", "objects_processed"):
            value(snap, "repro_engine_ops", stat="objects_processed"),
        ("repro_retry_stats", "attempts"):
            value(snap, "repro_retry_stats", stat="attempts"),
        ("repro_fault_events", "eio_injected"):
            value(snap, "repro_fault_events", kind="eio_injected"),
    }
    for i in range(1, 7):
        storage.write_sync(f"obj{i}", bytes([i]) * 2048)
    storage.drain()
    live = storage_metrics(storage)
    for (name, label), before in frozen.items():
        key = "kind" if name == "repro_fault_events" else "stat"
        assert value(snap, name, **{key: label}) == before
        assert value(live, name, **{key: label}) > before  # the work ran
    assert status_lines(snap) == text
