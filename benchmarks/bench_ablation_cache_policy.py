"""Ablation — the LRU chunk cache's capacity under a skewed working set.

The paper caches hot chunks in the metadata pool and bounds them with a
simple LRU (§4.3: "Various cache algorithms could be applied here but
in our experiment, we used a LRU based approach").  This ablation reads
a hot/cold skewed stream three ways: with no cache at all (a flushed
chunk never stays in, nor comes back to, the metadata pool), with an
LRU capacity that holds only the hot set, and uncapped.  Each step up
must show as a lower mean read latency, and the capped cache must both
hit and miss.  (The file keeps its name, from when it compared LRU with
LFU and FIFO; both lost to LRU and were removed.)
"""


from repro.bench import KiB, build_cluster, proposed, render_table, report
from repro.sim import RngRegistry

NUM_OBJECTS = 40
OBJ_SIZE = 2 * KiB
HOT_SET = 8  # the first N objects take most of the traffic
READS = 600

CONFIGS = {
    "no cache": dict(cache_on_flush=False),
    "capped LRU": dict(cache_capacity_bytes=HOT_SET * OBJ_SIZE),  # the hot set only
    "uncapped": dict(),
}


def run_config(name: str):
    storage = proposed(
        build_cluster(),
        chunk_size=1 * KiB,
        hit_count_threshold=1,
        hitset_period=1_000.0,  # everything counts as hot: cache-on-flush
        **CONFIGS[name],
    )
    # Every row reads the one stream the LRU row has always read, so
    # the rows compare with each other and the capped row across commits.
    rng = RngRegistry(seed=17).stream("access-lru")
    for i in range(NUM_OBJECTS):
        storage.write_sync(f"obj{i}", bytes([i]) * OBJ_SIZE)
    storage.drain()

    latencies = []
    for _ in range(READS):
        # 80% of reads hit the hot set, 20% spread over the rest.
        if rng.random() < 0.8:
            oid = f"obj{rng.randrange(HOT_SET)}"
        else:
            oid = f"obj{HOT_SET + rng.randrange(NUM_OBJECTS - HOT_SET)}"
        t0 = storage.sim.now
        storage.read_sync(oid)
        latencies.append(storage.sim.now - t0)
        # Let the engine enforce capacity between reads.
        storage.cluster.run(storage.engine.enforce_cache_capacity())
    hits, misses = storage.tier.stage.cache_hits, storage.tier.stage.cache_misses
    return {
        "hit_rate": hits / (hits + misses),
        "mean_latency": sum(latencies) / len(latencies),
    }


def run_experiment():
    return {name: run_config(name) for name in CONFIGS}


def test_ablation_cache_policy(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for name, r in results.items():
        rows.append(
            (
                name,
                f"{100 * r['hit_rate']:.1f}",
                f"{r['mean_latency'] * 1e3:.3f}",
            )
        )
        benchmark.extra_info[name] = round(100 * r["hit_rate"], 1)
    report(
        render_table(
            "Ablation: LRU cache capacity (80/20 skewed reads)",
            ["cache", "cache hit rate (%)", "mean read latency (ms)"],
            rows,
            notes=["paper §4.3 bounds the cache with an LRU; capped to the hot set here"],
        )
    )
    latency = {name: r["mean_latency"] for name, r in results.items()}
    # Each step up in cache serves more reads from the metadata pool.
    assert latency["no cache"] > latency["capped LRU"] > latency["uncapped"]
    # The capped cache keeps some of the stream, and not all of it.
    assert 0 < results["capped LRU"]["hit_rate"] < 1
