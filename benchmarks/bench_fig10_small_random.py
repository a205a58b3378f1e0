"""Figure 10 — small random performance (8 KiB, 32 KiB chunks).

Paper setup: single client, FIO 4 threads x 4 iodepth, 8 KiB random
read/write on a 32 KiB-chunk system.  Paper findings:

* random write: *Proposed* +<=20 % latency and ~2x CPU vs *Original*
  (extra chunk-map updates and background flush work);
  *Proposed-flush* (immediate dedup) is the worst of all;
  *Proposed-cache* (data still in the metadata pool) ~= Original.
* random read: *Proposed* pays the redirection to the chunk pool;
  *Proposed-cache* ~= Original.
"""


import os

from repro.bench import KiB, MiB, build_cluster, original, proposed, render_table, report
from repro.workloads import FioJobSpec, FioRunner

# REPRO_BENCH_FAST=1 (the CI paper-benches job) shrinks the files and the
# timed window; the latency *ratios* the assertions check are unaffected.
FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

RUNTIME = 0.15 if FAST else 0.3


def rand_spec(pattern, seed=5):
    return FioJobSpec(
        pattern=pattern,
        block_size=8 * KiB,
        file_size=(2 if FAST else 4) * MiB,
        object_size=64 * KiB,
        numjobs=4,
        iodepth=4,
        runtime=RUNTIME,
        seed=seed,
    )


def prefill(storage):
    FioRunner(
        storage,
        FioJobSpec(
            pattern="write",
            block_size=32 * KiB,
            file_size=(2 if FAST else 4) * MiB,
            object_size=64 * KiB,
            numjobs=4,
            seed=1,
        ),
    ).run()


def run_experiment():
    out = {"write": {}, "read": {}}

    storage = original(build_cluster())
    prefill(storage)
    out["write"]["Original"] = FioRunner(storage, rand_spec("randwrite")).run()
    out["read"]["Original"] = FioRunner(storage, rand_spec("randread")).run()

    # Proposed: rate-controlled post-processing with the background
    # engine active; data has been flushed to the chunk pool (steady
    # state), so reads pay the redirection.  Hot caching is off so the
    # working set stays in the chunk pool (that is what this
    # configuration measures — Proposed-cache below measures the other).
    storage = proposed(
        build_cluster(),
        ops_per_dedup_high=10,
        ops_per_dedup_mid=2,
        engine_workers=16,
        cache_on_flush=False,
    )
    prefill(storage)
    storage.drain()
    storage.engine.start()
    out["write"]["Proposed"] = FioRunner(storage, rand_spec("randwrite")).run()
    storage.engine.stop()
    storage.drain()
    out["read"]["Proposed"] = FioRunner(storage, rand_spec("randread")).run()

    # Proposed-flush: every write deduplicates before the ack.
    storage = proposed(build_cluster(), flush_on_write=True)
    prefill(storage)
    storage.drain()
    out["write"]["Proposed-flush"] = FioRunner(storage, rand_spec("randwrite")).run()

    # Proposed-cache: the working set stays cached in the metadata pool
    # (hitcount threshold 1 -> everything is hot).
    storage = proposed(
        build_cluster(), hit_count_threshold=1, hitset_period=100.0
    )
    prefill(storage)
    storage.drain()  # flushes but keeps the data cached
    storage.engine.start()
    out["write"]["Proposed-cache"] = FioRunner(storage, rand_spec("randwrite")).run()
    out["read"]["Proposed-cache"] = FioRunner(storage, rand_spec("randread")).run()
    return out


def test_fig10_small_random(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for direction in ("write", "read"):
        rows = []
        for name, res in results[direction].items():
            rows.append(
                (name, f"{res.mean_latency * 1e3:.3f}", f"{res.cpu_percent:.1f}")
            )
            benchmark.extra_info[f"{direction}:{name}"] = {
                "latency_ms": round(res.mean_latency * 1e3, 3),
                "cpu_pct": round(res.cpu_percent, 1),
            }
        report(
            render_table(
                f"Figure 10: 8KiB random {direction} (4 jobs x 4 iodepth)",
                ["system", "mean latency (ms)", "CPU (%)"],
                rows,
                notes=[
                    "paper: Proposed write +<=20% latency/~2x CPU; "
                    "flush worst; cache ~= Original; read pays redirection"
                ],
            )
        )

    w = {k: v.mean_latency for k, v in results["write"].items()}
    r = {k: v.mean_latency for k, v in results["read"].items()}
    # Write: Proposed within ~40% of Original; flush clearly worst;
    # cache close to Original.
    assert w["Proposed"] < 1.40 * w["Original"]
    assert w["Proposed-flush"] > 1.5 * w["Proposed"]
    assert w["Proposed-cache"] < 1.35 * w["Original"]
    # Read: redirection penalty for Proposed; cache ~= Original.
    assert r["Proposed"] > 1.2 * r["Original"]
    assert r["Proposed-cache"] < 1.2 * r["Original"]
