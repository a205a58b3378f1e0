"""Figure 14 — deduplication rate control.

Paper: a foreground thread issues sequential writes while a background
dedup job runs.  Ideal (no dedup): ~500-600 MB/s.  Un-throttled dedup:
collapses to ~200 MB/s.  With watermark rate control: 400-500 MB/s —
most of the foreground throughput is preserved while dedup still makes
progress.

Reproduction: same scenario as Figure 5-(b) plus the rate-controlled
run (high-watermark pacing, one dedup I/O per 500 foreground ops above
the high watermark, per the paper's example values).
"""

from repro.bench import KiB, MiB, build_cluster, proposed, render_table, report
from repro.workloads import FioJobSpec, FioRunner

WINDOW = 0.35


def fg_spec(seed):
    return FioJobSpec(
        pattern="write",
        block_size=64 * KiB,
        file_size=24 * MiB,
        object_size=64 * KiB,
        numjobs=3,
        iodepth=8,
        runtime=WINDOW,
        seed=seed,
    )


def backlog_spec():
    return FioJobSpec(
        pattern="write",
        block_size=64 * KiB,
        file_size=64 * MiB,
        object_size=64 * KiB,
        numjobs=4,
        iodepth=4,
        seed=9,
    )


def run_with_engine(rate_control: bool):
    storage = proposed(
        build_cluster(),
        rate_control=rate_control,
        ops_per_dedup_mid=100,
        ops_per_dedup_high=500,
        engine_workers=128,
    )
    FioRunner(storage, backlog_spec()).run()
    storage.engine.start()
    result = FioRunner(storage, fg_spec(3)).run()
    storage.engine.stop()
    processed = (
        storage.engine.stats.chunks_flushed + storage.engine.stats.chunks_deduped
    )
    return result, processed


def run_experiment():
    out = {}
    storage = proposed(build_cluster())
    out["No deduplication (ideal)"] = (FioRunner(storage, fg_spec(1)).run(), 0)
    out["Dedup w/o rate control"] = run_with_engine(rate_control=False)
    out["Dedup w/ rate control"] = run_with_engine(rate_control=True)
    return out


def test_fig14_rate_control(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for name, (res, processed) in results.items():
        rows.append((name, f"{res.bandwidth / 1e6:.0f}", processed))
        benchmark.extra_info[name] = round(res.bandwidth / 1e6, 1)
    report(
        render_table(
            "Figure 14: foreground MB/s under background dedup",
            ["scenario", "MB/s", "chunks deduped in window"],
            rows,
            notes=[
                "paper: ideal 500-600, w/o control ~200, w/ control 400-500 MB/s"
            ],
        )
    )
    ideal = results["No deduplication (ideal)"][0].bandwidth
    wo = results["Dedup w/o rate control"][0].bandwidth
    w = results["Dedup w/ rate control"][0].bandwidth
    # Un-throttled dedup collapses foreground throughput (~3x)...
    assert wo < 0.55 * ideal
    # ...rate control restores most of it...
    assert w > 0.80 * ideal
    assert w > 1.3 * wo
    # ...while dedup still makes some progress.
    assert results["Dedup w/ rate control"][1] > 0
