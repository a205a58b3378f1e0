"""Tests for the SFS-DB workload and VM populations."""

import pytest

from repro.cluster import RadosCluster
from repro.core import PlainStorage
from repro.fingerprint import fingerprint
from repro.workloads import (
    SfsDatabaseSpec,
    SfsDatabaseWorkload,
    VmImagePopulation,
    VmPopulationSpec,
    private_cloud_spec,
)

KiB = 1024
MiB = 1024 * KiB


def plain_storage():
    return PlainStorage(RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32))


# ------------------------------------------------------------------- SFS


def test_sfs_spec_scaling():
    spec = SfsDatabaseSpec(load=3, ops_per_load=100, dataset_per_load=1 * MiB)
    assert spec.op_rate == 300
    assert spec.dataset_bytes == 3 * MiB


def test_sfs_spec_validation():
    with pytest.raises(ValueError):
        SfsDatabaseSpec(load=0)
    with pytest.raises(ValueError):
        SfsDatabaseSpec(block_size=3000, object_size=64 * KiB)


def test_sfs_requested_rate_is_fixed():
    storage = plain_storage()
    spec = SfsDatabaseSpec(
        load=1, ops_per_load=100, dataset_per_load=256 * KiB, duration=2.0
    )
    wl = SfsDatabaseWorkload(storage, spec)
    wl.prefill()
    result = wl.run()
    assert result.requested_ops == pytest.approx(200, abs=2)
    assert result.completed_ops == result.requested_ops
    assert sum(result.per_op_count.values()) == result.completed_ops
    assert result.mean_latency == pytest.approx(
        sum(result.op_mean_latency(op) * n for op, n in result.per_op_count.items())
        / result.completed_ops
    )


def test_sfs_mix_includes_all_op_types():
    storage = plain_storage()
    spec = SfsDatabaseSpec(
        load=2, ops_per_load=150, dataset_per_load=256 * KiB, duration=2.0, seed=5
    )
    wl = SfsDatabaseWorkload(storage, spec)
    wl.prefill()
    result = wl.run()
    assert result.per_op_count["randread"] > 0
    assert result.per_op_count["randwrite"] > 0
    assert result.per_op_count["read"] > 0
    assert sum(result.per_op_count.values()) == result.completed_ops


def test_sfs_custom_mix_validation():
    storage = plain_storage()
    with pytest.raises(ValueError):
        SfsDatabaseWorkload(storage, SfsDatabaseSpec(), mix={"read": 0.5})


def test_sfs_op_iops_sums():
    storage = plain_storage()
    spec = SfsDatabaseSpec(
        load=1, ops_per_load=80, dataset_per_load=256 * KiB, duration=1.0
    )
    wl = SfsDatabaseWorkload(storage, spec)
    wl.prefill()
    result = wl.run()
    total = sum(result.op_iops(op) for op in result.per_op_count)
    assert total == pytest.approx(result.achieved_iops)


# ------------------------------------------------------------------ cloud


def test_vm_population_base_blocks_shared():
    spec = VmPopulationSpec(
        num_vms=3, image_size=256 * KiB, block_size=64 * KiB, os_base_fraction=0.75
    )
    pop = VmImagePopulation(spec)
    images = [dict(pop.image_blocks(v)) for v in range(3)]
    # First 3 blocks (75%) identical across VMs; last differs.
    for b in range(3):
        assert images[0][f"vm0.b{b}"] == images[1][f"vm1.b{b}"] == images[2][f"vm2.b{b}"]
    assert images[0]["vm0.b3"] != images[1]["vm1.b3"]


def test_vm_population_deterministic():
    spec = VmPopulationSpec(num_vms=2, image_size=256 * KiB, block_size=64 * KiB)
    a = [blk for _oid, blk in VmImagePopulation(spec).image_blocks(1)]
    b = [blk for _oid, blk in VmImagePopulation(spec).image_blocks(1)]
    assert a == b


def test_vm_population_write_all():
    storage = plain_storage()
    spec = VmPopulationSpec(num_vms=2, image_size=128 * KiB, block_size=64 * KiB)
    written = VmImagePopulation(spec).write_all(storage)
    assert written == 2 * 128 * KiB
    assert len(storage.cluster.list_objects(storage.pool)) == 4


def test_vm_population_dedup_structure():
    """~90% base fraction -> marginal unique data per extra VM is small
    (the Figure 13 shape)."""
    spec = VmPopulationSpec(
        num_vms=4,
        image_size=512 * KiB,
        block_size=64 * KiB,
        os_base_fraction=0.75,
        common_fraction=0.0,
    )
    pop = VmImagePopulation(spec)
    seen = set()
    unique_after_vm = []
    for vm in range(4):
        for _oid, blk in pop.image_blocks(vm):
            seen.add(fingerprint(blk))
        unique_after_vm.append(len(seen))
    # First VM contributes 8 blocks; each later VM only its unique 25%.
    assert unique_after_vm[0] == 8
    assert unique_after_vm[1] - unique_after_vm[0] == 2
    assert unique_after_vm[3] - unique_after_vm[2] == 2


def test_private_cloud_spec_shape():
    spec = private_cloud_spec(num_vms=12, image_size=512 * KiB)
    pop = VmImagePopulation(spec)
    blocks = [blk for vm in range(12) for _o, blk in pop.image_blocks(vm)]
    unique = len({fingerprint(b) for b in blocks})
    ratio = 1 - unique / len(blocks)
    # Tuned toward the paper's 44.8% global ratio at 32 KiB chunks; at
    # whole-block granularity with this few VMs it sits somewhat lower.
    assert 0.25 < ratio < 0.6


def test_vm_spec_validation():
    with pytest.raises(ValueError):
        VmPopulationSpec(num_vms=0)
    with pytest.raises(ValueError):
        VmPopulationSpec(image_size=100, block_size=64)
    with pytest.raises(ValueError):
        VmPopulationSpec(os_base_fraction=0.8, common_fraction=0.3)
