"""Tests for hot-object promotion back into the metadata-pool cache."""


from repro.cluster import RadosCluster
from repro.cluster.osd import OSD
from repro.core import DedupConfig, DedupedStorage, verdict
from repro.faults.errors import TransientOpError
from repro.fingerprint import fingerprint


def make_storage(**overrides):
    defaults = dict(
        chunk_size=1024,
        dedup_interval=0.01,
        hit_count_threshold=2,
        hitset_period=0.1,
    )
    defaults.update(overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def evicted(storage, oid):
    cmap = storage.tier.peek_chunk_map(oid)
    return all(not e.cached for e in cmap)


def heat_up(storage, oid, reads=3):
    for _ in range(reads):
        storage.read_sync(oid)
        storage.sim.run(until=storage.sim.now + 0.15)  # next hitset period
    storage.sim.run()  # let the async promotion complete


def test_hot_read_promotes_evicted_object():
    storage = make_storage()
    storage.write_sync("obj1", b"hot" * 1000)
    storage.drain()
    assert evicted(storage, "obj1")
    heat_up(storage, "obj1")
    cmap = storage.tier.peek_chunk_map("obj1")
    assert all(e.fully_cached() for e in cmap)
    assert storage.engine.stats.chunks_promoted == 3
    # Subsequent reads are cache hits.
    before = storage.tier.stage.cache_hits
    storage.read_sync("obj1")
    assert storage.tier.stage.cache_hits > before
    assert storage.read_sync("obj1") == b"hot" * 1000


def test_cold_read_does_not_promote():
    storage = make_storage()
    storage.write_sync("obj1", b"cold" * 500)
    storage.drain()
    storage.read_sync("obj1")  # single access: below the hitcount
    storage.sim.run()
    assert evicted(storage, "obj1")
    assert storage.engine.stats.chunks_promoted == 0


def test_promotion_keeps_chunk_objects_and_refs():
    """Promotion duplicates data into the cache; the chunk pool copy and
    its reference stay (eviction later must not need a re-flush)."""
    storage = make_storage()
    storage.write_sync("obj1", b"keep" * 256)
    storage.drain()
    fp = fingerprint(b"keep" * 256)
    heat_up(storage, "obj1")
    assert storage.cluster.exists(storage.tier.chunk_pool, fp)
    assert storage.tier.chunk_refcount(fp) == 1
    cmap = storage.tier.peek_chunk_map("obj1")
    assert cmap.get(0).chunk_id == fp  # map still points at the chunk


def test_promotion_races_with_write_safely():
    storage = make_storage()
    storage.write_sync("obj1", b"x" * 2048)
    storage.drain()

    def race():
        promo = storage.sim.process(storage.engine.promote_object("obj1"))
        write = storage.sim.process(storage.write("obj1", b"y" * 2048))
        yield storage.sim.all_of([promo, write])
        return promo.value

    result = storage.cluster.run(race())
    assert result in ("done", "nothing")
    storage.drain()
    assert storage.read_sync("obj1") == b"y" * 2048


def test_a_promotion_whose_map_commit_faults_changes_nothing(monkeypatch):
    """Promotion is an optimisation: a fault at its map commit returns
    "faulted", the stored chunk map stays authoritative (nothing cached),
    the cache manager's books are as they were and the object lock is
    free for the next writer."""
    storage = make_storage()
    payload = b"hot" * 1000
    storage.write_sync("obj1", payload)
    storage.drain()
    cache = storage.tier.cache

    def books():
        return (cache.cached_bytes, dict(cache._cached), dict(cache._cached_by_oid),
                cache.chunks_cached, cache.chunks_uncached)

    before = books()
    prepare = OSD.prepare_transaction

    def faulty(osd, txn):
        yield from prepare(osd, txn)
        raise TransientOpError(osd.osd_id, "write")

    with monkeypatch.context() as patched:
        patched.setattr(OSD, "prepare_transaction", faulty)
        assert storage.cluster.run(storage.engine.promote_object("obj1")) == "faulted"
    assert evicted(storage, "obj1")
    assert storage.engine.stats.chunks_promoted == 0
    assert books() == before
    found = verdict(storage, shadow={"obj1": payload})
    assert found.clean, found.problems
    storage.write_sync("obj1", b"new" * 1000)
    assert storage.read_sync("obj1") == b"new" * 1000


def test_promote_missing_and_clean_objects():
    storage = make_storage()
    assert storage.cluster.run(storage.engine.promote_object("ghost")) == "missing"
    storage.write_sync("obj1", b"z" * 1024)  # still cached (not flushed)
    assert storage.cluster.run(storage.engine.promote_object("obj1")) == "nothing"


def test_promotion_respects_capacity_via_demotion():
    storage = make_storage(
        cache_capacity_bytes=2048, hit_count_threshold=1, hitset_period=100.0
    )
    # hitcount 1: everything hot, flush keeps cached, capacity demotes.
    for i in range(5):
        storage.write_sync(f"obj{i}", bytes([i]) * 1024)
    storage.drain()
    assert storage.tier.cache.cached_bytes <= 2048
    # Reading an evicted object re-promotes it and re-evicts another.
    victim = next(
        f"obj{i}" for i in range(5) if evicted(storage, f"obj{i}")
    )
    storage.read_sync(victim)
    storage.sim.run()
    assert storage.tier.cache.cached_bytes <= 2048
    cmap = storage.tier.peek_chunk_map(victim)
    assert all(e.fully_cached() for e in cmap)


def test_concurrent_capacity_enforcements_demote_each_victim_once(monkeypatch):
    """A promotion and its caller may enforce the capacity at once: two
    enforcements started at the same instant share the victims rather
    than both demoting each (a lock wait and a map load for a chunk the
    other already evicted)."""
    storage = make_storage(hit_count_threshold=1, hitset_period=100.0)
    for i in range(5):
        storage.write_sync(f"obj{i}", bytes([i]) * 1024)
    storage.drain()  # hot: every flushed chunk stays cached
    cache, engine = storage.tier.cache, storage.engine
    assert cache.cached_bytes == 5 * 1024
    storage.config.cache_capacity_bytes = 1024
    victims = cache.victims()
    assert len(victims) == 4
    demoted = []
    demote = type(engine).demote_chunk

    def spy(self, oid, index):
        demoted.append((oid, index))
        return demote(self, oid, index)

    monkeypatch.setattr(type(engine), "demote_chunk", spy)

    def both():
        yield storage.sim.all_of([
            storage.sim.process(engine.enforce_cache_capacity()),
            storage.sim.process(engine.enforce_cache_capacity()),
        ])

    storage.cluster.run(both())
    assert sorted(demoted) == sorted(victims)
    assert engine.stats.chunks_evicted == 4
    assert cache.cached_bytes == 1024
    found = verdict(storage, shadow={f"obj{i}": bytes([i]) * 1024 for i in range(5)})
    assert found.clean, found.problems
