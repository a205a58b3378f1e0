#!/usr/bin/env python3
"""Dedup rate control protecting foreground I/O (the Figure 14 scenario).

Writes a large dirty backlog, then measures a foreground sequential
write stream while the background dedup engine chews through the
backlog — first un-throttled, then with the paper's watermark-based
rate control (one dedup I/O per 100 foreground ops between the
watermarks, one per 500 above the high watermark).

Run:  python examples/rate_control_demo.py
"""

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.workloads import FioJobSpec, FioRunner

KiB, MiB = 1024, 1024 * 1024


def build(rate_control: bool):
    cluster = RadosCluster(num_hosts=4, osds_per_host=4, pg_num=64)
    config = DedupConfig(
        rate_control=rate_control,
        ops_per_dedup_mid=100,
        ops_per_dedup_high=500,
        engine_workers=128,
    )
    return DedupedStorage(cluster, config, start_engine=False)


def foreground_spec(seed):
    return FioJobSpec(
        pattern="write",
        block_size=64 * KiB,
        file_size=24 * MiB,
        object_size=64 * KiB,
        numjobs=3,
        iodepth=8,
        runtime=0.35,
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


def main():
    # Baseline: nothing to deduplicate.
    storage = build(rate_control=True)
    ideal = FioRunner(storage, foreground_spec(1)).run()
    print(f"ideal (no dedup pending):     {ideal.bandwidth / 1e6:7.0f} MB/s")

    for rate_control in (False, True):
        storage = build(rate_control)
        FioRunner(storage, backlog_spec()).run()  # dirty backlog
        storage.engine.start()
        result = FioRunner(storage, foreground_spec(3)).run()
        storage.engine.stop()
        done = (
            storage.engine.stats.chunks_flushed
            + storage.engine.stats.chunks_deduped
        )
        label = "with rate control" if rate_control else "w/o rate control "
        print(
            f"dedup {label}:      {result.bandwidth / 1e6:7.0f} MB/s"
            f"   ({done} chunks deduplicated during the window)"
        )

    print(
        "\nWatermark pacing keeps foreground throughput near the ideal while"
        "\nthe backlog still drains — the paper's Figure 14."
    )


if __name__ == "__main__":
    main()
