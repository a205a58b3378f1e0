"""Property-based tests: elasticity event sequences always converge.

Any interleaving of expand / decommission / fail / restart events,
once every OSD is back up and one convergence has run, must leave
the cluster CRUSH-clean (every copy exactly on the acting set, replicas
byte-identical, EC shards in their slots) with every object readable and
byte-identical to what was written.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cluster import (  # noqa: E402
    NotEnoughReplicas,
    OsdDownError,
    RadosCluster,
    Replicated,
    converge_sync,
    placement_report,
)

# Each event is (kind, argument-seed); arguments are resolved against the
# cluster state at apply time so every sequence is valid by construction.
EVENT = st.tuples(
    st.sampled_from(["expand", "decommission", "fail", "restart"]),
    st.integers(min_value=0, max_value=7),
)


def apply_event(cluster, kind, arg, state):
    osd_ids = sorted(cluster.osds)
    if kind == "expand" and state["hosts"] < 6:
        cluster.expand(f"host{state['hosts']}", 2)
        state["hosts"] += 1
    elif kind == "decommission":
        in_ids = [
            i for i in osd_ids
            if cluster.cluster_map.osds[i].in_cluster
            and i not in state["decommissioned"]
        ]
        # Keep enough OSDs in placement for Replicated(2) to make sense.
        if len(in_ids) > 3:
            victim = in_ids[arg % len(in_ids)]
            cluster.decommission_osd(victim)
            state["decommissioned"].add(victim)
    elif kind == "fail":
        up_ids = [i for i in osd_ids if cluster.osds[i].up]
        # Never take the last two down: writes must stay serviceable.
        if len(up_ids) > 2:
            victim = up_ids[arg % len(up_ids)]
            cluster.fail_osd(victim, mark_out=False)
            state["down"].add(victim)
    elif kind == "restart":
        if state["down"]:
            victim = sorted(state["down"])[arg % len(state["down"])]
            cluster.restart_osd(victim)
            state["down"].discard(victim)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(events=st.lists(EVENT, min_size=1, max_size=6), data_seed=st.integers(0, 3))
def test_event_sequences_converge_to_clean_placement(events, data_seed):
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    pool = cluster.create_pool("data", Replicated(2))
    payloads = {
        f"obj{i}": bytes([(i * 7 + data_seed) % 256]) * 4096 for i in range(12)
    }
    for oid, data in sorted(payloads.items()):
        cluster.write_full_sync(pool, oid, data)
    state = {"hosts": 2, "down": set(), "decommissioned": set()}
    for i, (kind, arg) in enumerate(events):
        apply_event(cluster, kind, arg, state)
        # Interleave writes between events so data lands mid-topology-change.
        # A write may be refused outright when every acting replica of its
        # PG is down — the two-phase commit fails closed rather than
        # accepting a write it cannot make durable; such an object simply
        # does not exist.
        oid = f"mid{i}"
        data = bytes([(i + 11) % 256]) * 4096
        try:
            cluster.write_full_sync(pool, oid, data)
            payloads[oid] = data
        except (NotEnoughReplicas, OsdDownError):
            pass
    # Converge: everything back up, then one run of the loop.
    for osd_id in sorted(state["down"]):
        cluster.restart_osd(osd_id)
    converge_sync(cluster)
    assert not cluster._unclean
    assert placement_report(cluster) == []
    for oid, data in sorted(payloads.items()):
        assert cluster.read_sync(pool, oid) == data
