"""Workload generators driving the full dedup stack end-to-end."""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.workloads import (
    SfsDatabaseSpec,
    SfsDatabaseWorkload,
    VmImagePopulation,
    VmPopulationSpec,
)

KiB = 1024


def make_storage(**overrides):
    defaults = dict(chunk_size=8 * KiB, dedup_interval=0.01)
    defaults.update(overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def test_sfs_workload_on_dedup_storage():
    storage = make_storage()
    spec = SfsDatabaseSpec(
        load=1,
        ops_per_load=100,
        dataset_per_load=256 * KiB,
        block_size=8 * KiB,
        object_size=64 * KiB,
        duration=1.0,
        dedupe_ratio=0.7,
    )
    wl = SfsDatabaseWorkload(storage, spec)
    wl.prefill()
    result = wl.run()
    assert result.completed_ops == result.requested_ops
    storage.drain()
    report = storage.space_report()
    assert report.ideal_dedup_ratio > 0.3


def test_vm_population_striped_onto_dedup_storage():
    storage = make_storage(chunk_size=16 * KiB)
    spec = VmPopulationSpec(
        num_vms=3,
        image_size=512 * KiB,
        block_size=64 * KiB,
        os_base_fraction=0.75,
        common_fraction=0.0,
        seed=4,
    )
    population = VmImagePopulation(spec)
    population.write_all(storage, object_size=128 * KiB)
    storage.drain()
    report = storage.space_report()
    assert report.logical_bytes == 3 * 512 * KiB
    # The shared 75% base is stored once.
    assert report.ideal_dedup_ratio == pytest.approx(0.5, abs=0.05)
