"""Seeded chaos test: everything at once, then prove nothing broke.

Random writes/reads/deletes from multiple clients, the background
engine running with rate control and hot-caching, periodic OSD failures
and recoveries, plus promotion churn — followed by a full drain, GC,
scrub, replica scrub, and byte-for-byte verification against a
reference model.  Deterministic per seed.
"""

import pytest

from repro.cluster import RadosCluster, converge_sync
from repro.cluster.scrub import scrub_pool_sync
from repro.core import DedupConfig, DedupedStorage
from repro.core.scrub import collect_garbage_sync, scrub_sync
from repro.sim import RngRegistry

OIDS = [f"obj{i}" for i in range(12)]
CHUNK = 1024


def run_chaos(seed: int, refcount_mode: str = "strict", compress: bool = False):
    rng = RngRegistry(seed).stream("chaos")
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster,
        DedupConfig(
            chunk_size=CHUNK,
            dedup_interval=0.005,
            hit_count_threshold=2,
            hitset_period=0.05,
            refcount_mode=refcount_mode,
            compress_chunks=compress,
            engine_workers=4,
        ),
        start_engine=True,
    )
    model = {}
    failed = None
    for step in range(120):
        action = rng.random()
        oid = OIDS[rng.randrange(len(OIDS))]
        if action < 0.45:  # write
            offset = rng.randrange(0, 3 * CHUNK)
            length = rng.randrange(1, 2 * CHUNK)
            if rng.random() < 0.3:
                data = b"dup-block!" * ((length // 10) + 1)
                data = data[:length]
            else:
                data = rng.randbytes(length)
            storage.write_sync(oid, data, offset=offset)
            buf = model.setdefault(oid, bytearray())
            end = offset + len(data)
            if len(buf) < end:
                buf.extend(b"\x00" * (end - len(buf)))
            buf[offset:end] = data
        elif action < 0.80:  # read + verify
            if oid in model:
                expected = bytes(model[oid])
                assert storage.read_sync(oid) == expected, f"step {step}: {oid}"
        elif action < 0.88:  # delete
            if oid in model:
                storage.delete_sync(oid)
                del model[oid]
        elif action < 0.94 and failed is None:  # fail an OSD
            failed = rng.randrange(len(cluster.osds))
            cluster.fail_osd(failed)
            stats = converge_sync(cluster)
            assert stats.objects_lost == 0
        elif failed is not None:  # revive it
            cluster.revive_osd(failed)
            stats = converge_sync(cluster)
            assert stats.objects_lost == 0
            failed = None
        # Let background work interleave.
        storage.sim.run(until=storage.sim.now + rng.random() * 0.01)

    # Settle: stop the engine, drain, GC.
    storage.engine.stop()
    storage.drain()
    collect_garbage_sync(storage.tier)
    if failed is not None:
        cluster.revive_osd(failed)
        converge_sync(cluster)

    # Every surviving object is byte-identical to the model.
    for oid, buf in model.items():
        assert storage.read_sync(oid) == bytes(buf), oid
    # Dedup metadata is internally consistent...
    report = scrub_sync(storage.tier)
    assert report.clean, report
    # ...and every replica of every pool agrees.
    for pool in (storage.tier.metadata_pool, storage.tier.chunk_pool):
        assert scrub_pool_sync(cluster, pool).clean
    return storage


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_chaos_strict(seed):
    run_chaos(seed, refcount_mode="strict")


@pytest.mark.parametrize("seed", [5, 6])
def test_chaos_false_positive_refcount(seed):
    run_chaos(seed, refcount_mode="false_positive")


@pytest.mark.parametrize("seed", [7, 8])
def test_chaos_with_chunk_compression(seed):
    run_chaos(seed, compress=True)
