#!/usr/bin/env python
"""Gate the observability layer's runtime overhead (CI's ``obs-overhead``).

Measures the dedup-drain cost of op tracing on one small fixed-seed fio
workload: traced and untraced passes run as back-to-back pairs, each
pair yields one traced/untraced throughput ratio, and the gate reads the
median of those ratios, so slow host drift hits both legs of a pair
equally and one noisy pair cannot decide the verdict.  Fails if tracing
costs more than the allowed fraction of dedup throughput (5 %), if any
pair's legs disagree on the read-back or the chunk refcounts, or if the
traced legs recorded no span roll-up.

The gate is deliberately *not* a ``benchmarks/e2e`` workload yet:
docs/observability.md ("Tracing cost on the e2e workloads") records why.

Writes the comparison as ``BENCH_obs_overhead.json`` (the job's
artifact).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from time import perf_counter

from repro.bench.harness import KiB, MiB, build_cluster, proposed
from repro.obs import stage_rollup
from repro.workloads import FioJobSpec, FioRunner


def run_leg(trace: bool) -> dict:
    """One pass of the workload: two small-random write + drain cycles
    (the second hits existing chunks), then a full read-back.  Only the
    drains are timed."""
    spec = FioJobSpec(
        pattern="randwrite",
        block_size=32 * KiB,
        object_size=512 * KiB,
        file_size=2 * MiB,
        numjobs=2,
        iodepth=4,
        dedupe_percentage=90.0,
        seed=0,
    )
    # Wide objects (16 chunks) over few placement groups, so a pass's
    # chunks share PGs; cache_on_flush=False sends the read-back to the
    # chunk pool instead of the metadata tier's local copies.
    storage = proposed(
        build_cluster(pg_num=4),
        start_engine=False,
        cache_on_flush=False,
        trace_ops=trace,
    )
    runner = FioRunner(storage, spec)
    drain_seconds = 0.0
    for _cycle in range(2):
        runner.run()
        started = perf_counter()
        storage.drain()
        drain_seconds += perf_counter() - started
    readback = hashlib.sha1()
    for job in range(spec.numjobs):
        for obj in range(spec.file_size // spec.object_size):
            readback.update(storage.read_sync(f"fio.j{job}.o{obj}"))
    tier = storage.tier
    stats = storage.engine.stats
    return {
        "drain_seconds": drain_seconds,
        "dedup_ops": stats.chunks_flushed + stats.chunks_deduped,
        "readback_digest": readback.hexdigest(),
        "refcounts": {
            cid: tier.chunk_refcount(cid)
            for cid in storage.cluster.list_objects(tier.chunk_pool)
        },
        "span_stages": len(stage_rollup(tier.tracer.to_records())),
    }


def rate(leg: dict) -> float:
    """Dedup ops per host second of one leg's drains."""
    return leg["dedup_ops"] / leg["drain_seconds"]


def measure_overhead(repeats: int) -> dict:
    """Median traced/untraced dedup-rate ratio over interleaved pairs."""
    pairs = [(run_leg(True), run_leg(False)) for _ in range(repeats)]
    ratios = [rate(traced) / rate(untraced) for traced, untraced in pairs]
    return {
        "untraced_dedup_ops_per_sec": statistics.median(
            rate(untraced) for _traced, untraced in pairs
        ),
        "traced_dedup_ops_per_sec": statistics.median(
            rate(traced) for traced, _untraced in pairs
        ),
        "pair_ratios": ratios,
        "ratio": statistics.median(ratios),
        "identical_results": all(
            traced["readback_digest"] == untraced["readback_digest"]
            and traced["refcounts"] == untraced["refcounts"]
            for traced, untraced in pairs
        ),
        "span_stages": min(traced["span_stages"] for traced, _u in pairs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="allowed fractional dedup-throughput loss with tracing on "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=7,
        help="traced/untraced pairs to run (default: %(default)s; the "
        "drains are ~50 ms, so the gate takes the median pair ratio to "
        "shake host jitter out)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_obs_overhead.json",
        help="where to write the comparison report (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    print("measuring tracing overhead (interleaved traced/untraced) ...")
    overhead = measure_overhead(args.repeats)
    print(
        f"  {overhead['untraced_dedup_ops_per_sec']:.0f} -> "
        f"{overhead['traced_dedup_ops_per_sec']:.0f} dedup ops/s "
        f"(median pair ratio {overhead['ratio']:.3f}x traced/untraced)"
    )
    failures = []
    if overhead["ratio"] < 1.0 - args.max_overhead:
        failures.append(
            f"tracing costs {1.0 - overhead['ratio']:.1%} of dedup"
            f" throughput (allowed {args.max_overhead:.0%})"
        )
    if not overhead["identical_results"]:
        failures.append("traced and untraced runs produced different results")
    if not overhead["span_stages"]:
        failures.append("traced run recorded no span rollup")

    report = {
        "schema": 3,
        "max_overhead": args.max_overhead,
        "overhead": overhead,
        "failures": failures,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {args.out}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"obs-overhead gate passed (tolerance {args.max_overhead:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
