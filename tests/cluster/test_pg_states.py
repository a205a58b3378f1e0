"""Tests for PG states: the name of the convergence diff.

Every PG is ``active+clean`` after a load; an OSD failing in place makes
its PGs ``active+degraded``; an expand makes the moved PGs
``active+remapped``; one convergence makes every PG clean again.
``placement_report`` is empty exactly when every PG is clean.
"""

import pytest

from repro.cluster import ErasureCoded, RadosCluster, Replicated, converge_sync, placement_report
from repro.cluster.converge import PGState, pg_state

CLEAN = PGState.ACTIVE_CLEAN


def _loaded(redundancy, num_hosts=4):
    cluster = RadosCluster(num_hosts=num_hosts, osds_per_host=1, pg_num=8)
    pool = cluster.create_pool("data", redundancy)
    for i in range(48):
        cluster.write_full_sync(pool, f"obj{i}", bytes([i]) * 6144)
    assert {pool.pg_of(n) for n in cluster.list_objects(pool)} == set(range(pool.pg_num))
    return cluster, pool


def _states(cluster, pool):
    return {pg: pg_state(cluster, pool, pg) for pg in range(pool.pg_num)}


def _clean_iff_no_report(cluster, pool):
    states = _states(cluster, pool)
    assert (placement_report(cluster) == []) == all(s is CLEAN for s in states.values())
    return states


REDUNDANCY = pytest.mark.parametrize(
    "redundancy", [Replicated(2), ErasureCoded(2, 1)], ids=["rep2", "ec21"]
)


@REDUNDANCY
def test_every_pg_is_clean_after_load(redundancy):
    cluster, pool = _loaded(redundancy)
    assert set(_clean_iff_no_report(cluster, pool).values()) == {CLEAN}
    assert placement_report(cluster) == []


@REDUNDANCY
def test_a_failure_in_place_degrades_exactly_its_pgs(redundancy):
    cluster, pool = _loaded(redundancy)
    cluster.fail_osd(1, mark_out=False)
    states = _clean_iff_no_report(cluster, pool)
    for pg, state in states.items():
        want = PGState.ACTIVE_DEGRADED if 1 in pool.acting_set(pg) else CLEAN
        assert state is want, pg
    cluster.restart_osd(1)
    assert PGState.ACTIVE_DEGRADED in _clean_iff_no_report(cluster, pool).values()
    converge_sync(cluster)
    assert set(_clean_iff_no_report(cluster, pool).values()) == {CLEAN}


@REDUNDANCY
def test_an_expand_remaps_exactly_the_moved_pgs(redundancy):
    cluster, pool = _loaded(redundancy, num_hosts=3)
    diff = cluster.expand("host3", 1)
    moved = {m.pg for m in diff.remaps if m.pool_id == pool.pool_id}
    assert moved
    states = _clean_iff_no_report(cluster, pool)
    for pg, state in states.items():
        assert state is (PGState.ACTIVE_REMAPPED if pg in moved else CLEAN), pg
    stats = converge_sync(cluster)
    assert stats.pgs_converged == len(moved)
    assert set(_clean_iff_no_report(cluster, pool).values()) == {CLEAN}
    for i in range(48):
        assert cluster.read_sync(pool, f"obj{i}") == bytes([i]) * 6144


def test_too_few_up_members_make_a_pg_inactive():
    cluster, pool = _loaded(Replicated(2))
    first, second = pool.acting_set(0)
    cluster.fail_osd(first, mark_out=False)
    cluster.fail_osd(second, mark_out=False)
    assert pg_state(cluster, pool, 0) is PGState.INACTIVE
    assert placement_report(cluster) != []
