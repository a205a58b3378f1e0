#!/usr/bin/env python3
"""Failure and recovery with deduplication (the Table 3 scenario).

Self-contained objects mean the cluster's recovery machinery covers the
dedup tier for free: chunk maps, reference records, and chunk data all
re-replicate like any other object.  And because dedup shrinks the
stored bytes, recovery finishes faster.

This example stores a 50 %-duplicate dataset with and without dedup,
kills OSDs, re-adds them, and compares recovery.

Run:  python examples/failure_recovery.py
"""

from repro.cluster import RadosCluster, converge_sync
from repro.core import DedupConfig, DedupedStorage, PlainStorage
from repro.workloads import FioJobSpec, FioRunner

KiB, MiB = 1024, 1024 * 1024


def build_and_fill(dedup: bool):
    cluster = RadosCluster(num_hosts=4, osds_per_host=4, pg_num=64)
    if dedup:
        storage = DedupedStorage(
            cluster, DedupConfig(cache_on_flush=False), start_engine=False
        )
    else:
        storage = PlainStorage(cluster)
    spec = FioJobSpec(
        pattern="write",
        block_size=32 * KiB,
        file_size=8 * MiB,
        object_size=64 * KiB,
        numjobs=4,
        dedupe_percentage=50,
        seed=3,
    )
    FioRunner(storage, spec).run()
    if dedup:
        storage.drain()
    return storage


def main():
    for dedup in (False, True):
        label = "Proposed (dedup)" if dedup else "Original"
        storage = build_and_fill(dedup)
        cluster = storage.cluster
        used = cluster.total_used_bytes()

        # Kill two OSDs on the same host (host-level failure domains
        # guarantee no PG loses both replicas), heal, then re-add them.
        for osd_id in (0, 1):
            cluster.fail_osd(osd_id)
        heal = converge_sync(cluster)
        for osd_id in (0, 1):
            cluster.revive_osd(osd_id)
        backfill = converge_sync(cluster)

        print(f"== {label} ==")
        print(f"  raw bytes stored:   {used / MiB:6.2f} MiB")
        print(f"  heal:     {heal.objects_moved:4d} objects, "
              f"{heal.bytes_moved / MiB:6.2f} MiB in {heal.duration * 1e3:6.1f} ms")
        print(f"  backfill: {backfill.objects_moved:4d} objects, "
              f"{backfill.bytes_moved / MiB:6.2f} MiB in {backfill.duration * 1e3:6.1f} ms")
        assert heal.objects_lost == 0 and backfill.objects_lost == 0

        # Prove the data (and all dedup metadata) survived.
        sample = storage.read_sync("fio.j0.o0")
        print(f"  sample object intact after recovery: {len(sample)} bytes\n")


if __name__ == "__main__":
    main()
