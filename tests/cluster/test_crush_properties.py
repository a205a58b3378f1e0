"""Property-based tests for CRUSH placement invariants."""

import copy
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ErasureCoded, RadosCluster, Replicated
from repro.cluster.clustermap import ClusterMap
from repro.cluster.crush import CrushMap, stable_hash64
from repro.cluster.pool import OID_HASH_MEMO_ENTRIES, _object_hash


def build_map(host_osds):
    """host_osds: list of OSD counts per host."""
    cmap = ClusterMap()
    for h, count in enumerate(host_osds):
        for _ in range(count):
            cmap.add_osd(f"host{h}")
    return cmap


@given(
    host_osds=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=6),
    n=st.integers(min_value=1, max_value=3),
    keys=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_selection_invariants(host_osds, n, keys):
    """For any topology: deterministic, distinct OSDs, host-distinct
    while enough hosts exist."""
    cmap = build_map(host_osds)
    crush = CrushMap(cmap)
    for key in keys:
        osds = crush.select(key, n)
        assert osds == crush.select(key, n)  # deterministic
        assert len(osds) == min(n, sum(host_osds))
        assert len(set(osds)) == len(osds)  # distinct devices
        hosts = [cmap.osds[i].host for i in osds]
        if len(host_osds) >= n:
            assert len(set(hosts)) == len(hosts)  # distinct hosts


@given(
    out_victim=st.integers(min_value=0, max_value=11),
    n=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_minimal_movement_on_out(out_victim, n):
    """Marking one OSD out never moves PGs whose hosts were untouched."""
    cmap = build_map([3, 3, 3, 3])
    crush = CrushMap(cmap)
    before = {pg: crush.map_pg(1, pg, n) for pg in range(150)}
    victim_host = cmap.osds[out_victim].host
    cmap.mark_out(out_victim)
    for pg in range(150):
        hosts_before = {cmap.osds[i].host for i in before[pg]}
        after = crush.map_pg(1, pg, n)
        assert out_victim not in after
        if victim_host not in hosts_before:
            assert after == before[pg]


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_weight_increase_only_attracts(seed):
    """Doubling one OSD's weight only pulls PGs toward it — placements
    that did not involve its host stay identical (straw2's guarantee)."""
    cmap = build_map([1, 1, 1, 1])
    crush = CrushMap(cmap)
    keys = [seed * 1000 + i for i in range(100)]
    before = {k: crush.select(k, 2) for k in keys}
    cmap.osds[0].weight = 2.0
    cmap.epoch += 1
    gained = lost = 0
    for k in keys:
        after = crush.select(k, 2)
        if 0 in after and 0 not in before[k]:
            gained += 1
        if 0 in before[k] and 0 not in after:
            lost += 1
        if 0 not in before[k] and 0 not in after:
            assert after == before[k]
    assert lost == 0  # never repels


def test_balance_tracks_weights():
    """Long-run placement share is roughly weight-proportional."""
    cmap = build_map([1, 1])
    cmap.osds[0].weight = 3.0
    cmap.epoch += 1
    crush = CrushMap(cmap)
    wins = Counter(crush.select(k, 1)[0] for k in range(4000))
    ratio = wins[0] / wins[1]
    assert 2.3 < ratio < 3.8


# -- placement memos: Pool.acting_set per map epoch, pg_of per object name ------

_MAP_OPS = ("add_host", "mark_out", "mark_in", "mark_down", "mark_up", "remove_osd")


@given(
    steps=st.lists(
        st.tuples(st.sampled_from(_MAP_OPS), st.integers(min_value=0, max_value=63)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_acting_set_memo_follows_every_map_change(steps):
    """Whatever sequence of map mutations runs, the memoised acting set
    of every PG equals what a CrushMap built from scratch over a copy of
    the map computes, and callers cannot reach the memo through the
    list they are handed."""
    cluster = RadosCluster(num_hosts=3, osds_per_host=2, pg_num=8)
    pools = [
        cluster.create_pool("rep", Replicated(2)),
        cluster.create_pool("ec", ErasureCoded(2, 1), failure_domain="osd"),
    ]
    cmap = cluster.cluster_map

    def check():
        fresh = CrushMap(copy.deepcopy(cmap))
        for pool in pools:
            for pg in range(pool.pg_num):
                expect = fresh.map_pg(
                    pool.pool_id, pg, pool.redundancy.width, pool.failure_domain
                )
                got = pool.acting_set(pg)
                assert got == expect
                got.append(-1)  # a private copy: the memo must not see this
                assert pool.acting_set(pg) == expect

    check()  # warm the memo, so every later step has something stale to drop
    for op, pick in steps:
        ids = sorted(cmap.osds)
        victim = ids[pick % len(ids)]
        if op == "add_host":
            cluster.add_host(f"extra{len(cluster.nodes)}", 1 + pick % 2)
        elif op == "remove_osd":
            if cmap.osds[victim].in_cluster or len(ids) <= 3:
                continue
            cmap.remove_osd(victim)
        else:
            getattr(cmap, op)(victim)
        check()


@given(oids=st.lists(st.text(max_size=12), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_pg_of_equals_the_unmemoised_hash_for_pools_sharing_names(oids):
    cluster = RadosCluster(num_hosts=2, osds_per_host=1)
    a = cluster.create_pool("a", pg_num=64)
    b = cluster.create_pool("b", pg_num=48)
    for _ in range(2):  # second lap is served from the memo
        for oid in oids:
            for pool in (a, b):
                assert pool.pg_of(oid) == (
                    stable_hash64("obj", pool.pool_id, oid) % pool.pg_num
                )


def test_object_hash_memo_is_bounded():
    cluster = RadosCluster(num_hosts=2, osds_per_host=1)
    pool = cluster.create_pool("p")
    for i in range(10 * OID_HASH_MEMO_ENTRIES):
        pool.pg_of(f"obj-{i}")
    assert _object_hash.cache_info().currsize <= OID_HASH_MEMO_ENTRIES
    assert pool.pg_of("obj-0") == stable_hash64("obj", pool.pool_id, "obj-0") % pool.pg_num
