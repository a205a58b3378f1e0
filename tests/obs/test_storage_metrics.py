"""The one store snapshot, ``storage_metrics``: CPU, pool usage and
fault state land in it, and it scales with the cluster."""

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent
from repro.obs import fault_lines, status_lines, storage_metrics


def usage_storage():
    cluster = RadosCluster(num_hosts=2, osds_per_host=1, pg_num=16)
    return DedupedStorage(cluster, DedupConfig(chunk_size=1024), start_engine=False)


def make_storage():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=16)
    return DedupedStorage(cluster, DedupConfig(chunk_size=1024), start_engine=False)


def test_cpu_usage_snapshot():
    snap = storage_metrics(usage_storage())
    nodes = snap.get("repro_cpu_utilization")
    assert [labels for labels, _series in nodes.series_items()] == [
        ("host0",), ("host1",)
    ]
    assert snap.get("repro_cpu_utilization_mean").labels().value == 0.0


def test_cpu_usage_reflects_work():
    storage = usage_storage()
    node = storage.cluster.nodes["host0"]

    def burn():
        yield from node.cpu.execute(1.0)
        yield storage.sim.timeout(1.0)

    storage.cluster.run(burn())
    nodes = storage_metrics(storage).get("repro_cpu_utilization")
    assert nodes.labels(node="host0").value > 0
    assert nodes.labels(node="host1").value == 0.0


def test_storage_breakdown():
    storage = usage_storage()
    storage.write_sync("o", b"x" * 1000)
    snap = storage_metrics(storage)
    pools = snap.get("repro_pool_used_bytes")
    assert pools.labels(pool="dedup-metadata").value >= 2000
    assert snap.get("repro_used_bytes_total").labels().value == (
        pools.labels(pool="dedup-metadata").value
        + pools.labels(pool="dedup-chunks").value
    )


def test_fault_report_export_with_and_without_injector():
    storage = make_storage()
    reg = storage_metrics(storage)  # no injector attached
    assert reg.get("repro_availability").labels().value == 1.0
    assert reg.get("repro_fault_events") is None
    assert fault_lines(reg)[-1] == "down OSDs          none"

    storage.inject_faults(FaultPlan([
        FaultEvent(0.0, "osd_crash", "3"),
        FaultEvent(0.0, "osd_crash", "7"),
    ], seed=1), auto_recover=False)
    storage.sim.run(until=storage.sim.now + 0.001)
    reg = storage_metrics(storage)
    assert reg.get("repro_fault_events").labels(kind="crashes").value == 2
    assert reg.get("repro_down_osds").labels().value == 2.0
    assert reg.get("repro_osd_down").labels(osd=3).value == 1
    assert reg.get("repro_osd_down").labels(osd=0).value == 0
    assert reg.get("repro_retry_stats") is not None
    assert fault_lines(reg)[-1] == "down OSDs          3,7"


def test_cluster_usage_collectors_export_into_one_registry():
    storage = make_storage()
    storage.write_sync("o", b"x" * 1000)
    reg = storage_metrics(storage)
    assert len(reg.get("repro_cpu_utilization").series_items()) == 4
    pools = reg.get("repro_pool_used_bytes")
    assert pools.labels(pool="dedup-metadata").value >= 2000
    assert reg.get("repro_used_bytes_total").labels().value == sum(
        series.value for _labels, series in pools.series_items()
    )
    # A second snapshot is a registry of its own; the first does not move.
    storage.write_sync("p", b"y" * 1000)
    assert storage_metrics(storage).get("repro_used_bytes_total").labels().value > (
        reg.get("repro_used_bytes_total").labels().value
    )


def test_snapshot_of_a_272_osd_cluster():
    # 17 hosts x 16 OSDs: one repro_osd_down series per OSD, more than
    # any fixed per-family cap of 256 would allow.
    cluster = RadosCluster(num_hosts=17, osds_per_host=16, pg_num=64)
    storage = DedupedStorage(cluster, DedupConfig(), start_engine=False)
    reg = storage_metrics(storage)
    osd_down = reg.get("repro_osd_down").series_items()
    assert len(osd_down) == 272
    assert not any(series.value for _labels, series in osd_down)
    assert len(reg.get("repro_cpu_utilization").series_items()) == 17
    lines = status_lines(reg)
    assert lines[0] == "sim time           0.000s"
    assert fault_lines(reg)[-1] == "down OSDs          none"
