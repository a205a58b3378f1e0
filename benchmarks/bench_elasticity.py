"""Online elasticity — Table 1's scaling story without stopping the world.

Table 1 shows why dedup must be *global*: per-OSD dedup ratios collapse
as the cluster grows.  This experiment replays the growth itself online:
half the dataset lands on a 4-OSD cluster, then the cluster doubles to
8 OSDs *mid-workload* with a rate-limited rebalance migrating chunk
objects (refcounts ride along in their xattrs) while the second half of
the dataset is being written.

Measured: dedup-ratio continuity (global ratio before vs after the
expansion — dedup metadata survives migration, so the ratio must not
degrade), write-throughput continuity across the expansion, bytes moved,
and post-rebalance placement cleanliness.
"""

from repro.bench import KiB, MiB, build_cluster, proposed, render_table, report
from repro.cluster import ConvergeStats, converge
from repro.core import verdict
from repro.workloads import ContentGenerator

NUM_OBJECTS = 48
OBJECT_SIZE = 128 * KiB
DEDUPE_RATIO = 0.5
REBALANCE_RATE = 64 * MiB  # background migration throttle, bytes/s


def _write_batch(storage, payloads):
    """Write ``payloads`` concurrently; returns elapsed simulated time."""
    sim = storage.sim
    start = sim.now

    def run():
        procs = [
            sim.process(storage.write(oid, data))
            for oid, data in sorted(payloads.items())
        ]
        yield sim.all_of(procs)

    storage.cluster.run(run())
    return sim.now - start


def run_experiment():
    cluster = build_cluster(num_hosts=2, osds_per_host=2, pg_num=32)
    storage = proposed(cluster, start_engine=True)
    sim = storage.sim
    gen = ContentGenerator(seed=7, dedupe_ratio=DEDUPE_RATIO)
    payloads = {
        f"obj-{i}": gen.block(OBJECT_SIZE) for i in range(NUM_OBJECTS)
    }
    items = sorted(payloads.items())
    first, second = dict(items[: len(items) // 2]), dict(items[len(items) // 2:])

    # Phase 1: half the dataset on the small cluster, fully deduped.
    t_before = _write_batch(storage, first)
    storage.drain()
    report_before = storage.space_report()

    # Phase 2: double the cluster and write the rest WHILE a throttled
    # rebalance migrates the existing chunk/metadata objects.
    diff = cluster.expand("host2", 2)
    stats = ConvergeStats()
    start = sim.now
    writes_done = {}

    def phase2():
        migration = sim.process(converge(cluster, REBALANCE_RATE, stats))
        procs = [
            sim.process(storage.write(oid, data))
            for oid, data in sorted(second.items())
        ]
        yield sim.all_of(procs)
        writes_done["at"] = sim.now
        yield sim.all_of([migration])

    cluster.run(phase2())
    t_during = writes_done["at"] - start
    storage.drain()
    # Chunks minted by the post-expansion dedup pass may have landed on
    # PGs that were still remapped; one more (unthrottled) run settles
    # them.
    cluster.run(converge(cluster, None, stats))
    report_after = storage.space_report()

    found = verdict(storage, shadow=payloads)
    return {
        "diff": diff,
        "stats": stats,
        "before": report_before,
        "after": report_after,
        "t_before": t_before,
        "t_during": t_during,
        "bytes_before": sum(len(d) for d in first.values()),
        "bytes_during": sum(len(d) for d in second.values()),
        "verdict": found,
    }


def test_elasticity_online_expansion(benchmark):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    mbs_before = r["bytes_before"] / r["t_before"] / MiB
    mbs_during = r["bytes_during"] / r["t_during"] / MiB
    ratio_before = r["before"].ideal_dedup_ratio
    ratio_after = r["after"].ideal_dedup_ratio
    stats = r["stats"]
    rows = [
        ("4 OSDs (before)", f"{100 * ratio_before:.1f}", f"{mbs_before:.1f}", "-"),
        (
            "8 OSDs (expanding)",
            f"{100 * ratio_after:.1f}",
            f"{mbs_during:.1f}",
            f"{stats.bytes_moved / KiB:.0f} KiB",
        ),
    ]
    report(
        render_table(
            "Online elasticity: dedup ratio and throughput across a 4->8"
            " OSD expansion",
            ["cluster", "dedup %", "write MiB/s", "migrated"],
            rows,
            notes=[
                f"{r['diff'].pgs_remapped} PGs remapped;"
                f" {stats.objects_moved} objects moved;"
                f" rebalance throttled to {REBALANCE_RATE // MiB} MiB/s",
                f"placement violations after settle:"
                f" {len(r['verdict'].findings['placement'])}",
            ],
        )
    )
    benchmark.extra_info["elasticity"] = {
        "pgs_remapped": r["diff"].pgs_remapped,
        "bytes_moved": stats.bytes_moved,
        "dedup_pct_before": round(100 * ratio_before, 2),
        "dedup_pct_after": round(100 * ratio_after, 2),
        "write_mibs_before": round(mbs_before, 2),
        "write_mibs_during": round(mbs_during, 2),
    }
    # Zero data loss, clean final placement, clean scrubs, no leaked state.
    assert r["verdict"].clean, r["verdict"].problems
    # The expansion actually moved data (chunk objects migrated with
    # their refcount xattrs intact — the scrubbed invariant).
    assert r["diff"].pgs_remapped > 0
    assert stats.bytes_moved > 0
    # Dedup-ratio continuity: global dedup survives the migration.
    assert ratio_after >= ratio_before - 0.08
    # Throughput continuity: writes during the (throttled) rebalance keep
    # flowing — allow degradation, not collapse.
    assert mbs_during >= 0.3 * mbs_before
