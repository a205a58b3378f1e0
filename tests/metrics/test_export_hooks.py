"""Fault and usage counters land in one registry through
``storage_metrics``, and the latency percentile stays clamped at the
float edges."""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent
from repro.metrics import LatencyRecorder
from repro.obs import fault_lines, storage_metrics


def make_storage():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=16)
    return DedupedStorage(cluster, DedupConfig(chunk_size=1024), start_engine=False)


def test_latency_percentile_float_rank_stays_in_bounds():
    # Regression: p/100 * (n-1) can round a hair past the last index for
    # p just under 100; the interpolation indices must clamp, not raise.
    rec = LatencyRecorder()
    for v in range(1, 30):
        rec.record(float(v))
    for p in (99.99999999999999, 100.0 - 1e-12, 100.0):
        assert rec.percentile(p) == pytest.approx(29.0)
    assert rec.percentile(0.0) == 1.0


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
    assert len(reg.get("repro_cpu_utilization")) == 4
    pools = reg.get("repro_pool_used_bytes")
    assert pools.labels(pool="dedup-metadata").value >= 2000
    assert reg.get("repro_used_bytes_total").labels().value == sum(
        series.value for _labels, series in pools.series_items()
    )
    # Snapshotting again into the same registry overwrites, never errors.
    assert storage_metrics(storage, reg) is reg
