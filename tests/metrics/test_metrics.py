"""Tests for latency recorder, throughput series, and usage snapshots."""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.metrics import LatencyRecorder, ThroughputSeries
from repro.obs import storage_metrics


def usage_storage():
    cluster = RadosCluster(num_hosts=2, osds_per_host=1, pg_num=16)
    return DedupedStorage(cluster, DedupConfig(chunk_size=1024), start_engine=False)


def test_latency_basic_stats():
    rec = LatencyRecorder()
    for v in [1.0, 2.0, 3.0, 4.0]:
        rec.record(v)
    assert rec.count == 4
    assert rec.mean == 2.5
    assert rec.minimum == 1.0
    assert rec.maximum == 4.0
    assert rec.p50 == 2.5


def test_latency_percentiles():
    rec = LatencyRecorder()
    for v in range(1, 101):
        rec.record(float(v))
    assert rec.percentile(0) == 1.0
    assert rec.percentile(100) == 100.0
    assert rec.p99 == pytest.approx(99.01)
    assert rec.percentile(50) == pytest.approx(50.5)


def test_latency_empty():
    rec = LatencyRecorder()
    assert rec.mean == 0.0
    assert rec.p50 == 0.0
    assert rec.summary()["count"] == 0


def test_latency_single_sample():
    rec = LatencyRecorder()
    rec.record(5.0)
    assert rec.percentile(37) == 5.0


def test_latency_validation():
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.record(-1.0)
    with pytest.raises(ValueError):
        rec.percentile(101)


def test_latency_merge():
    a, b = LatencyRecorder(), LatencyRecorder()
    a.record(1.0)
    b.record(3.0)
    a.merge(b)
    assert a.count == 2
    assert a.mean == 2.0


def test_series_buckets_and_gaps():
    s = ThroughputSeries(interval=1.0)
    s.note(0.5, 100)
    s.note(0.9, 100)
    s.note(3.2, 300)
    points = dict(s.series())
    assert points[0.0] == 200.0
    assert points[1.0] == 0.0  # gap filled
    assert points[3.0] == 300.0
    assert s.total_bytes == 500
    assert s.total_ops == 3


def test_series_min_and_mean():
    s = ThroughputSeries(interval=1.0)
    s.note(0.0, 600)
    s.note(1.0, 200)
    s.note(2.0, 400)
    assert s.min_throughput() == 200.0
    assert s.mean_throughput() == 400.0


def test_series_empty():
    s = ThroughputSeries()
    assert s.series() == []
    assert s.mean_throughput() == 0.0


def test_series_invalid_interval():
    with pytest.raises(ValueError):
        ThroughputSeries(interval=0)


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
