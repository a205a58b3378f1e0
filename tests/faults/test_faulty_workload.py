"""The acceptance scenario: faulted workloads end with zero data loss.

The CI ``scenario-smoke`` job runs this module under several values of
``REPRO_FAULT_SEED``; locally the default seed exercises a crash plus
window faults.
"""

import os

import pytest

from repro.cluster import placement_report, scrub_pool_sync
from repro.faults import STATIC, FaultPlan, run_scenario
from repro.faults.scenario import ScenarioResult
from repro.faults.scenario import locks_left
from repro.obs import fault_lines, status_lines, storage_metrics

SEED = int(os.environ.get("REPRO_FAULT_SEED", "1"))


def test_generated_plan_zero_data_loss_and_clean_scrub():
    result = run_scenario(STATIC, seed=SEED, num_objects=16, horizon=3.0)
    assert result.zero_data_loss, f"lost objects: {result.corrupted_objects}"
    assert result.scrub.clean
    assert result.scrub.chunks_checked > 0
    assert result.injector.down_osds == []


def test_kill_one_osd_mid_flush():
    # The ISSUE's acceptance scenario: a seeded plan that kills 1 of N
    # OSDs mid-flush; the client workload completes with zero data
    # loss and the scrub reports zero refcount leaks.
    plan = FaultPlan.single_osd_kill(2, at=1.0, restart_after=1.0, seed=SEED)
    result = run_scenario(
        STATIC, seed=SEED, plan=plan, num_objects=16, horizon=3.0
    )
    assert result.injector.stats.crashes == 1
    assert result.injector.stats.restarts == 1
    assert result.zero_data_loss
    assert result.scrub.clean
    assert not result.scrub.stale_references  # zero refcount leaks
    assert not result.scrub.dangling_map_entries  # zero missing chunks


def test_counters_surface_through_metrics_and_status():
    result = run_scenario(STATIC, seed=SEED, num_objects=8, horizon=2.0)
    snap = storage_metrics(result.storage)
    events = snap.get("repro_fault_events")
    assert events.labels(kind="crashes").value == result.injector.stats.crashes
    assert snap.get("repro_retry_stats").labels(stat="attempts").value > 0
    assert 0.0 <= snap.get("repro_availability").labels().value <= 1.0
    joined = "\n".join(fault_lines(snap))
    assert "osd crashes" in joined and "availability" in joined

    status = "\n".join(status_lines(snap))
    assert "retries" in status
    assert "osd crashes" in status  # injector attached -> visible


def test_eio_storm_is_absorbed_by_retries():
    from repro.faults.plan import FaultEvent

    events = [
        FaultEvent(0.2, "transient_errors", str(o), duration=2.0,
                   params={"probability": 0.2})
        for o in range(8)
    ]
    result = run_scenario(
        STATIC, seed=SEED, plan=FaultPlan(events, seed=SEED), num_objects=12, horizon=3.0
    )
    assert result.injector.stats.eio_injected > 0
    assert result.storage.tier.retry_stats.retries > 0
    assert result.zero_data_loss
    assert result.scrub.clean


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seed_sweep_smoke(seed):
    result = run_scenario(STATIC, seed=seed, num_objects=10, horizon=2.5)
    assert result.ok


# The static verdict, and the elasticity verdict of a run whose
# decommissioned OSD drained fully: a leaked lock fails either.
@pytest.mark.parametrize(
    "decommissioned_osd", [None, 1], ids=["ScenarioResult", "ElasticityResult"]
)
def test_a_lock_left_held_at_quiesce_fails_the_verdict(decommissioned_osd):
    from repro.cluster import RadosCluster
    from repro.core import DedupConfig, DedupedStorage, scrub_sync

    storage = DedupedStorage(
        RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16),
        DedupConfig(chunk_size=4096),
        start_engine=False,
    )
    storage.write_sync("obj", bytes(range(256)) * 32)
    storage.drain()
    result = ScenarioResult(
        storage=storage, injector=None, plan=FaultPlan([], seed=SEED),
        scrub=scrub_sync(storage.tier),
        decommissioned_osd=decommissioned_osd, finalized=True,
    )
    assert result.ok and locks_left(storage) == []
    # A grant that is never released: its task ended still owing it.
    storage.tier.object_locks.acquire("obj", [])
    assert locks_left(storage) == ["tier.object=1"]
    assert not result.ok


def _clean_static_run():
    result = run_scenario(
        STATIC, seed=SEED, plan=FaultPlan([], seed=SEED), num_objects=6, horizon=1.0
    )
    assert result.ok
    return result, result.storage.cluster


def test_a_diverged_replica_fails_the_static_verdict():
    result, cluster = _clean_static_run()
    pool = result.storage.tier.metadata_pool
    key = cluster.object_key(pool, "obj-0")
    holders = [osd for osd in cluster.osds.values() if osd.store.exists(key)]
    holders[1].store.get(key).xattrs["dedup.chunk_map"] = b"divergent"
    result.replica_reports = [scrub_pool_sync(cluster, pool)]
    assert result.replica_reports[0].inconsistent == [("obj-0", holders[1].osd_id)]
    assert not result.ok


def test_an_unclean_pg_fails_the_static_verdict():
    result, cluster = _clean_static_run()
    cluster.fail_osd(0)  # and no convergence afterwards
    result.placement_violations = placement_report(cluster)
    assert result.placement_violations
    assert not result.ok


def test_an_unfinished_decommission_fails_the_verdict():
    result, _cluster = _clean_static_run()
    result.decommissioned_osd = 1  # asked for, never finalized
    assert not result.ok
    result.finalized = True
    assert result.ok
