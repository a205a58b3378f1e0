"""Ablation — strict vs false-positive reference counting (§4.6).

Strict counting releases a pass's old chunks right behind its map
commit — in a drain, one GC behind each round over every pass's old
chunks — and a drain returns only once that release has landed; the
false-positive variant only queues them, leaving temporary garbage
references that a later GC resolves.  The paper notes the trade: better
flush latency vs an extra GC process.

This bench rewrites a working set repeatedly (every rewrite forces a
dereference of the previous chunk), comparing total simulated dedup
time, then shows the garbage that accrues before GC and that GC clears
it.
"""


from repro.bench import KiB, build_cluster, proposed, render_table, report
from repro.workloads import ContentGenerator


def rewrite_workload(storage, rounds=4, objects=24, seed=3):
    gen = ContentGenerator(seed=seed, dedupe_ratio=0.0)
    for round_no in range(rounds):
        for i in range(objects):
            storage.write_sync(f"obj{i}", gen.block(32 * KiB))
        start = storage.sim.now
        storage.cluster.run(storage.engine.drain(run_gc=False))
        yield storage.sim.now - start


def run_experiment():
    out = {}
    for mode in ("strict", "false_positive"):
        storage = proposed(
            build_cluster(), refcount_mode=mode, cache_on_flush=False
        )
        drain_times = list(rewrite_workload(storage, seed=7))
        pending = len(storage.engine.deref_queue)
        chunk_objects_before_gc = len(
            storage.cluster.list_objects(storage.tier.chunk_pool)
        )
        start = storage.sim.now
        storage.drain()  # nothing left dirty: only the GC runs
        gc_time = storage.sim.now - start
        chunk_objects_after_gc = len(
            storage.cluster.list_objects(storage.tier.chunk_pool)
        )
        out[mode] = {
            "drain_time": sum(drain_times),
            "gc_time": gc_time,
            "pending_before_gc": pending,
            "chunks_before_gc": chunk_objects_before_gc,
            "chunks_after_gc": chunk_objects_after_gc,
        }
    return out


def test_ablation_refcount_modes(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for mode, r in results.items():
        rows.append(
            (
                mode,
                f"{r['drain_time'] * 1e3:.2f}",
                f"{r['gc_time'] * 1e3:.3f}",
                r["pending_before_gc"],
                r["chunks_before_gc"],
                r["chunks_after_gc"],
            )
        )
        benchmark.extra_info[mode] = round(r["drain_time"] * 1e3, 3)
        benchmark.extra_info[f"{mode}_gc_ms"] = round(r["gc_time"] * 1e3, 3)
    report(
        render_table(
            "Ablation: strict vs false-positive refcount (rewrite-heavy)",
            [
                "mode",
                "dedup time (ms)",
                "GC time (ms)",
                "pending derefs",
                "chunk objs pre-GC",
                "post-GC",
            ],
            rows,
            notes=["false-positive defers deref work to GC (paper §4.6)"],
        )
    )
    strict, fp = results["strict"], results["false_positive"]
    # Deferring dereferences makes the dedup passes themselves faster.
    assert fp["drain_time"] < strict["drain_time"]
    # The cost: garbage accumulates until GC...
    assert fp["pending_before_gc"] > 0
    assert fp["chunks_before_gc"] > strict["chunks_after_gc"]
    # ...and GC converges to the same live set as strict.
    assert fp["chunks_after_gc"] == strict["chunks_after_gc"]
