#!/usr/bin/env python3
"""Where ``peak_rss_mb`` comes from: memory by lap, by allocation site, by pool.

    python3 scripts/rss_by_site.py WORKLOAD [--seed N] [--seconds S] [--smoke] [--top K]

The e2e benchmark's ``peak_rss_mb`` is one number, read once when its
child exits.  This runs ``benchmarks/e2e/child.py``'s own pass (imported,
not copied: same plan, set-up, warm-up, measured and tail rounds and the
same verify read-back as the driver form ``run.py --workload W --seed N
--seconds S --trace 0``) under ``tracemalloc`` and prints

* per lap of the pass (generate / setup / warmup / measured / tail /
  verify): resident set now, the process's high-water mark so far, and
  the traced Python heap now and at its peak within the lap;
* the top allocation sites still live when the pass ends, split into
  ``src/repro`` (the program), ``benchmarks/`` (the harness's own arena,
  oracle and op logs — not the program's to fix) and everything else;
* a census of the object stores per pool: objects and payload MiB as the
  modelled disks are charged for them (every replica), the MiB of
  *distinct* blobs behind them in host memory, the most extents any one
  object has, and the live entries of the per-key tables: the three
  lock tables, the tier's map-miss fences, its write line and its
  pending dirty-list requeues, and the engine's promotions, demotions,
  releases in flight (every GC a pass, an aborted pass, a delete or the
  deref queue started) and deref queue (the references left for the
  GC), all 0 once the pass has quiesced.

Exits 1 when any per-key table is not empty at the end of the pass (a
leaked lock, fence, write-line entry, requeue, promotion, demotion or
release, or a deferred reference nothing collects: state that grows
without bound).

``tracemalloc`` costs 2-3x in time and ~20 % in RSS, so read the RSS
columns for shape and ``peak_rss_mb`` itself from the driver form.
``--smoke`` is the benchmark's ``--smoke`` size (seconds, not minutes).
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tracemalloc
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")
MiB = 1024.0 * 1024.0


def rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MiB


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def store_census(storage):
    """Per pool: what the modelled disks hold and what the host holds."""
    cluster = storage.cluster
    names = {pool.pool_id: pool.name for pool in cluster.pools.values()}
    rows = defaultdict(lambda: {"objects": 0, "payload": 0, "blobs": {}, "extents": 0})
    everything = {}
    for osd in cluster.osds.values():
        for key in osd.store.keys():
            obj = osd.store.get(key)
            row = rows[names.get(key.pool_id, str(key.pool_id))]
            extents = obj.extents()
            row["objects"] += 1
            row["payload"] += obj.allocated_bytes()
            row["extents"] = max(row["extents"], len(extents))
            for _start, blob in extents:
                row["blobs"][id(blob)] = everything[id(blob)] = len(blob)
    return rows, sum(everything.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured-phase budget, as the driver's --seconds")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's --smoke size")
    parser.add_argument("--top", type=int, default=12, help="allocation sites to list per group")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # run.py starts its children this way; the op stream depends on it.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))

    sys.path.insert(0, E2E)
    import child
    import run
    import workloads

    if args.workload not in workloads.SPECS:
        parser.error("unknown workload %r (known: %s)" % (
            args.workload, ", ".join(sorted(workloads.SPECS))))
    sys.path.insert(0, child.SRC)

    # The pass marks its laps by calling perf_counter() from a closure
    # named ``lap``; sample there instead of editing the benchmark.
    laps = []
    kept = {}
    clock = child.perf_counter

    def sampling_clock():
        caller = sys._getframe(1)
        if caller.f_code.co_name == "lap":
            now, peak = tracemalloc.get_traced_memory()
            name = caller.f_locals["name"]
            laps.append((name, rss_mib(), peak_rss_mib(), now / MiB, peak / MiB))
            if name == "verify":  # the last lap: the plan and oracle are still alive
                kept["snapshot"] = tracemalloc.take_snapshot()
            tracemalloc.reset_peak()
        return clock()

    set_up = child.set_up

    def keeping_set_up(*a, **kw):
        made = set_up(*a, **kw)
        kept["storage"] = made[0]
        return made

    child.perf_counter = sampling_clock
    child.set_up = keeping_set_up
    if args.smoke:
        rounds, tail_rounds = run.SMOKE_ROUNDS, 1
    else:
        rounds = workloads.rounds_for(workloads.SPECS[args.workload], args.seconds)
        tail_rounds = workloads.tail_rounds_for(rounds)
    tracemalloc.start(1)
    result = child.run_pass(argparse.Namespace(
        workload=args.workload, seed=args.seed, rounds=rounds,
        tail_rounds=tail_rounds, setup_repeats=1, mode="untraced",
        scale="smoke" if args.smoke else "full", config=[], plain_replay=False, spans_out=None,
    ))
    tracemalloc.stop()
    if "snapshot" not in kept:
        raise SystemExit("child.run_pass no longer marks its laps by calling "
                         "perf_counter() from lap(name): nothing was sampled")
    storage, snapshot = kept["storage"], kept["snapshot"]

    print("%s  seed %d  %s scale  %d measured + %d tail rounds  failures %d  (under tracemalloc)" % (
        args.workload, args.seed, "smoke" if args.smoke else "full",
        rounds, tail_rounds, result["failure_count"]))
    print("\n%-10s %10s %14s %12s %16s" % (
        "lap", "rss MiB", "peak rss MiB", "traced MiB", "traced peak MiB"))
    for row in laps:
        print("%-10s %10.1f %14.1f %12.1f %16.1f" % row)

    groups = {"src/repro": Counter(), "benchmarks/": Counter(), "elsewhere": Counter()}
    blocks: Counter = Counter()
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        path = os.path.realpath(frame.filename)
        if path.startswith(os.path.join(ROOT, "src", "repro") + os.sep):
            group, shown = "src/repro", os.path.relpath(path, os.path.join(ROOT, "src", "repro"))
        elif path.startswith(os.path.join(ROOT, "benchmarks") + os.sep):
            group, shown = "benchmarks/", os.path.relpath(path, os.path.join(ROOT, "benchmarks"))
        else:
            group, shown = "elsewhere", os.path.basename(path)
        site = "%s:%d" % (shown, frame.lineno)
        groups[group][site] += stat.size
        blocks[(group, site)] += stat.count
    print("\nlive at the end of the pass, by allocation site:")
    for group, sites in groups.items():
        print("  %-12s %8.1f MiB" % (group, sum(sites.values()) / MiB))
        for site, size in sites.most_common(args.top if group != "elsewhere" else 3):
            print("    %-44s %8.1f MiB %9d blocks" % (site, size / MiB, blocks[(group, site)]))

    rows, distinct = store_census(storage)
    print("\nobject stores (%d OSDs):" % len(storage.cluster.osds))
    print("  %-12s %9s %13s %19s %20s" % (
        "pool", "objects", "payload MiB", "distinct-blob MiB", "extents/object max"))
    for name, row in sorted(rows.items()):
        print("  %-12s %9d %13.1f %19.1f %20d" % (
            name, row["objects"], row["payload"] / MiB,
            sum(row["blobs"].values()) / MiB, row["extents"]))
    print("  %-12s %9d %13.1f %19.1f" % (
        "all", sum(r["objects"] for r in rows.values()),
        sum(r["payload"] for r in rows.values()) / MiB, distinct / MiB))
    tier, cluster = storage.tier, storage.cluster
    print("\nper-key tables (entries):")
    left = 0
    for name, table in (
        ("tier.chunk_locks", tier.chunk_locks),
        ("tier.object_locks", tier.object_locks),
        ("cluster.write_locks", cluster.write_locks),
        ("tier._map_fences", tier._map_fences),
        ("tier._write_line", tier._write_line),
        ("tier._pending_requeues", tier._pending_requeues),
        ("engine._promoting", storage.engine._promoting),
        ("engine._demoting", storage.engine._demoting),
        ("engine._releases", storage.engine._releases),
        ("engine.deref_queue", storage.engine.deref_queue),
    ):
        print("  %-22s %8d" % (name, len(table)))
        left += len(table)
    if left:
        print("per-key tables not empty after the pass: %d entries left" % left)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
