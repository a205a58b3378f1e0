"""Tests for the FIO-like workload runner."""

import hashlib

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage, PlainStorage
from repro.workloads import FioJobSpec, FioRunner

KiB = 1024


def plain_storage():
    return PlainStorage(RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32))


def test_spec_validation():
    with pytest.raises(ValueError):
        FioJobSpec(pattern="bogus")
    with pytest.raises(ValueError):
        FioJobSpec(block_size=3000, object_size=65536)  # not a multiple
    with pytest.raises(ValueError):
        FioJobSpec(block_size=4096, file_size=10_000)
    with pytest.raises(ValueError):
        FioJobSpec(dedupe_percentage=200)


def test_sequential_write_covers_file():
    storage = plain_storage()
    spec = FioJobSpec(
        pattern="write", block_size=4 * KiB, file_size=64 * KiB, object_size=16 * KiB
    )
    result = FioRunner(storage, spec).run()
    assert result.total_ops == 16
    assert result.total_bytes == 64 * KiB
    # Every object exists and is full size.
    for i in range(4):
        assert len(storage.read_sync(f"fio.j0.o{i}")) == 16 * KiB


def test_read_after_prefill_returns_data():
    storage = plain_storage()
    spec = FioJobSpec(
        pattern="read", block_size=4 * KiB, file_size=32 * KiB, object_size=16 * KiB
    )
    runner = FioRunner(storage, spec)
    runner.prefill()
    result = runner.run()
    assert result.total_ops == 8
    assert result.total_bytes == 32 * KiB
    assert result.mean_latency > 0


def test_random_ops_stay_in_file():
    storage = plain_storage()
    spec = FioJobSpec(
        pattern="randwrite",
        block_size=4 * KiB,
        file_size=64 * KiB,
        object_size=16 * KiB,
        seed=3,
    )
    FioRunner(storage, spec).run()
    oids = storage.cluster.list_objects(storage.pool)
    assert all(oid.startswith("fio.j0.o") for oid in oids)
    assert all(int(oid.rsplit("o", 1)[1]) < 4 for oid in oids)


def test_a_seeded_run_replays_byte_for_byte():
    """Two runs at one seed write the same bytes at the same offsets, not
    only the same op count and timings: every draw comes from the
    runner's own seeded streams, none from a process-wide one."""

    def run():
        storage = plain_storage()
        spec = FioJobSpec(
            pattern="randwrite",
            block_size=4 * KiB,
            file_size=64 * KiB,
            object_size=16 * KiB,
            dedupe_percentage=50,
            seed=5,
        )
        result = FioRunner(storage, spec).run()
        stored = hashlib.sha256()
        for oid in sorted(storage.cluster.list_objects(storage.pool)):
            stored.update(oid.encode() + storage.read_sync(oid))
        return result.total_ops, result.latency_sum, stored.hexdigest()

    assert run() == run()


def test_numjobs_use_separate_files():
    storage = plain_storage()
    spec = FioJobSpec(
        pattern="write",
        block_size=4 * KiB,
        file_size=16 * KiB,
        object_size=16 * KiB,
        numjobs=3,
    )
    result = FioRunner(storage, spec).run()
    assert result.total_ops == 12
    oids = set(storage.cluster.list_objects(storage.pool))
    assert oids == {"fio.j0.o0", "fio.j1.o0", "fio.j2.o0"}


def test_iodepth_improves_throughput():
    def bandwidth(iodepth):
        storage = plain_storage()
        spec = FioJobSpec(
            pattern="randread",
            block_size=4 * KiB,
            file_size=256 * KiB,
            object_size=64 * KiB,
            iodepth=iodepth,
            seed=7,
        )
        runner = FioRunner(storage, spec)
        runner.prefill()
        return runner.run().bandwidth

    assert bandwidth(8) > 1.5 * bandwidth(1)


def test_runtime_bounded_run():
    storage = plain_storage()
    spec = FioJobSpec(
        pattern="write",
        block_size=4 * KiB,
        file_size=64 * KiB,
        object_size=16 * KiB,
        runtime=0.05,
    )
    result = FioRunner(storage, spec).run()
    assert result.duration >= 0.05
    assert result.total_ops > 16  # wrapped around the file


def test_dedupe_percentage_flows_to_storage():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster, DedupConfig(chunk_size=4 * KiB), start_engine=False
    )
    spec = FioJobSpec(
        pattern="write",
        block_size=4 * KiB,
        file_size=128 * KiB,
        object_size=16 * KiB,
        dedupe_percentage=50,
        seed=11,
    )
    FioRunner(storage, spec).run()
    storage.drain()
    report = storage.space_report()
    assert report.ideal_dedup_ratio == pytest.approx(0.5, abs=0.15)


def test_result_metrics_consistent():
    storage = plain_storage()
    spec = FioJobSpec(
        pattern="write", block_size=8 * KiB, file_size=64 * KiB, object_size=32 * KiB
    )
    result = FioRunner(storage, spec).run()
    assert result.iops == pytest.approx(result.total_ops / result.duration)
    assert result.bandwidth == pytest.approx(result.total_bytes / result.duration)
    assert result.mean_latency == pytest.approx(result.latency_sum / result.total_ops)
    assert result.cpu_percent >= 0


def test_fio_sequential_wraps_with_runtime():
    storage = PlainStorage(RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16))
    spec = FioJobSpec(
        pattern="write",
        block_size=4 * KiB,
        file_size=16 * KiB,
        object_size=16 * KiB,
        runtime=0.02,
    )
    result = FioRunner(storage, spec).run()
    # Far more ops than one pass over the 4-block file: it wrapped.
    assert result.total_ops > 8
    assert len(storage.read_sync("fio.j0.o0")) == 16 * KiB


def test_cpu_percent_is_the_runs_own():
    """A run's CPU figure covers its own window only: the same job run
    again on the same store reads the same, however much the store did
    before it (the prefill, the first run)."""
    storage = plain_storage()
    spec = FioJobSpec(
        pattern="read", block_size=4 * KiB, file_size=64 * KiB, object_size=16 * KiB
    )
    runner = FioRunner(storage, spec)
    runner.prefill()
    first = runner.run()
    second = runner.run()
    assert first.cpu_percent > 0
    assert second.cpu_percent == pytest.approx(first.cpu_percent, rel=1e-6)
