"""FaultInjector against a real (simulated) cluster."""

import pytest

from repro.cluster import RadosCluster, converge_sync
from repro.faults import FaultInjector, FaultPlan, NetworkPartitionError, TransientOpError
from repro.faults.plan import FaultEvent


def make_cluster():
    return RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)


def test_crash_and_restart_keep_disk_contents():
    cluster = make_cluster()
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "x", b"payload")
    holder = next(
        o for o in cluster.osds.values()
        if any(k.name == "x" for k in o.store.keys())
    )
    plan = FaultPlan.single_osd_kill(holder.osd_id, at=1.0, restart_after=1.0)
    inj = FaultInjector(cluster, plan, auto_recover=False).attach()

    cluster.sim.run(until=1.5)
    assert not holder.up
    assert inj.down_osds == [holder.osd_id]
    assert inj.stats.crashes == 1
    # Dead disk keeps its contents (down, not wiped).
    assert any(k.name == "x" for k in holder.store.keys())

    cluster.sim.run(until=2.5)
    assert holder.up
    assert holder.needs_backfill  # stale until recovery reconciles
    assert inj.stats.restarts == 1
    converge_sync(cluster)
    assert not holder.needs_backfill
    assert cluster.read_sync(pool, "x") == b"payload"


def test_restart_triggers_auto_recovery():
    cluster = make_cluster()
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "x", b"payload")
    osd_id = next(iter(cluster.osds))
    plan = FaultPlan.single_osd_kill(osd_id, at=0.5, restart_after=0.5)
    FaultInjector(cluster, plan, auto_recover=True).attach()
    cluster.sim.run(until=5.0)
    assert cluster.osds[osd_id].up
    assert not cluster.osds[osd_id].needs_backfill  # recovery already ran


def test_transient_error_window_injects_eio():
    cluster = make_cluster()
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "x", b"payload")
    events = [
        FaultEvent(0.5, "transient_errors", str(osd_id), duration=10.0,
                   params={"probability": 1.0})
        for osd_id in cluster.osds
    ]
    inj = FaultInjector(cluster, FaultPlan(events)).attach()
    cluster.sim.run(until=1.0)
    with pytest.raises(TransientOpError) as excinfo:
        cluster.read_sync(pool, "x")
    assert excinfo.value.retryable
    assert inj.stats.eio_injected >= 1


def test_transient_error_window_expires():
    cluster = make_cluster()
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "x", b"payload")
    events = [
        FaultEvent(0.5, "transient_errors", str(osd_id), duration=1.0,
                   params={"probability": 1.0})
        for osd_id in cluster.osds
    ]
    inj = FaultInjector(cluster, FaultPlan(events)).attach()
    cluster.sim.run(until=2.0)  # past every window
    assert cluster.read_sync(pool, "x") == b"payload"
    assert inj.stats.windows_expired == len(events)


def test_slow_disk_window_charges_extra_device_time():
    cluster = make_cluster()
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "x", b"z" * 4096)
    baseline_start = cluster.sim.now
    cluster.read_sync(pool, "x")
    baseline = cluster.sim.now - baseline_start

    # Event times are relative to attach(); time 0.0 means "now".
    events = [
        FaultEvent(0.0, "slow_disk", str(osd_id), duration=100.0,
                   params={"factor": 5.0})
        for osd_id in cluster.osds
    ]
    inj = FaultInjector(cluster, FaultPlan(events)).attach()
    cluster.sim.run(until=cluster.sim.now + 1e-6)  # deliver the window events
    slow_start = cluster.sim.now
    cluster.read_sync(pool, "x")
    slowed = cluster.sim.now - slow_start
    assert slowed > baseline
    assert inj.stats.slow_ops_delayed >= 1


def test_partition_blocks_cross_host_transfers():
    cluster = make_cluster()
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "x", b"payload")
    inj = FaultInjector(
        cluster,
        FaultPlan([FaultEvent(0.1, "partition", "host0|host1", duration=50.0)]),
    ).attach()
    cluster.sim.run(until=1.0)
    nic0 = cluster.nodes["host0"].nic
    nic1 = cluster.nodes["host1"].nic
    with pytest.raises(NetworkPartitionError):
        inj.check_link(nic0, nic1)
    with pytest.raises(NetworkPartitionError):
        inj.check_link(nic1, nic0)  # symmetric
    # Same-host and client links are unaffected.
    inj.check_link(nic0, nic0)
    inj.check_link(cluster.default_client.nic, nic0)
    assert inj.stats.partition_drops == 2
    # A replicated write across the pair must fail while partitioned.
    with pytest.raises(NetworkPartitionError):
        cluster.write_full_sync(pool, "y", b"blocked")


def test_heal_all_restarts_and_clears_windows():
    cluster = make_cluster()
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "x", b"payload")
    osd_id = next(iter(cluster.osds))
    plan = FaultPlan(
        [
            FaultEvent(0.5, "osd_crash", str(osd_id)),
            FaultEvent(0.6, "partition", "host0|host1", duration=100.0),
        ]
        + [
            FaultEvent(0.6, "transient_errors", str(o), duration=100.0,
                       params={"probability": 1.0})
            for o in cluster.osds
        ]
    )
    inj = FaultInjector(cluster, plan, auto_recover=False).attach()
    cluster.sim.run(until=1.0)
    assert inj.down_osds == [osd_id]
    inj.heal_all()
    assert inj.down_osds == []
    assert cluster.osds[osd_id].up
    converge_sync(cluster)
    assert cluster.read_sync(pool, "x") == b"payload"


def test_detach_stops_injection():
    cluster = make_cluster()
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "x", b"payload")
    events = [
        FaultEvent(0.5, "transient_errors", str(o), duration=100.0,
                   params={"probability": 1.0})
        for o in cluster.osds
    ]
    inj = FaultInjector(cluster, FaultPlan(events)).attach()
    cluster.sim.run(until=1.0)
    inj.detach()
    assert cluster.faults is None
    assert cluster.read_sync(pool, "x") == b"payload"


def test_read_fails_over_when_primary_crashes_mid_workload():
    cluster = make_cluster()
    pool = cluster.create_pool("p")
    cluster.write_full_sync(pool, "x", b"payload")
    primary = cluster.primary(pool, "x")
    plan = FaultPlan.single_osd_kill(primary.osd_id, at=0.5)
    FaultInjector(cluster, plan, auto_recover=False).attach()
    cluster.sim.run(until=1.0)
    # Primary down (still "in"): the read path must fail over to the
    # surviving replica rather than surface OsdDownError.
    assert cluster.read_sync(pool, "x") == b"payload"
    assert cluster.primary(pool, "x") is not primary
