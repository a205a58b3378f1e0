"""Ablation — chunk size vs foreground cost of immediate dedup.

Table 2 showed chunk size trading dedup ratio against metadata; this
ablation shows its *performance* face: under flush-on-write (immediate
dedup), a sub-chunk random write's read-modify-write grows with the
chunk size (§3.1: "reading 32KB chunk => modifying 16KB data => writing
32KB chunk"), while the post-processing design stays flat because the
RMW is deferred off the foreground path.
"""


from repro.bench import KiB, MiB, build_cluster, proposed, render_table, report
from repro.workloads import FioJobSpec, FioRunner

CHUNK_SIZES = (16 * KiB, 32 * KiB, 64 * KiB)


def rand_write_spec(seed):
    return FioJobSpec(
        pattern="randwrite",
        block_size=8 * KiB,
        file_size=2 * MiB,
        object_size=64 * KiB,
        numjobs=2,
        iodepth=4,
        runtime=0.15,
        seed=seed,
    )


def measure(chunk_size: int, flush_on_write: bool) -> float:
    storage = proposed(
        build_cluster(), chunk_size=chunk_size, flush_on_write=flush_on_write
    )
    prefill = FioJobSpec(
        pattern="write",
        block_size=64 * KiB,
        file_size=2 * MiB,
        object_size=64 * KiB,
        numjobs=2,
        seed=1,
    )
    FioRunner(storage, prefill).run()
    storage.drain()
    result = FioRunner(storage, rand_write_spec(seed=3)).run()
    if not flush_on_write:
        storage.drain()
    return result.mean_latency


def run_experiment():
    out = {}
    for chunk in CHUNK_SIZES:
        out[chunk] = (
            measure(chunk, flush_on_write=True),
            measure(chunk, flush_on_write=False),
        )
    return out


def test_ablation_chunk_size_vs_write_latency(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for chunk, (inline_lat, post_lat) in results.items():
        rows.append(
            (
                f"{chunk // KiB}KiB",
                f"{inline_lat * 1e3:.3f}",
                f"{post_lat * 1e3:.3f}",
            )
        )
        benchmark.extra_info[f"{chunk // KiB}KiB"] = {
            "flush_ms": round(inline_lat * 1e3, 3),
            "post_ms": round(post_lat * 1e3, 3),
        }
    report(
        render_table(
            "Ablation: 8KiB random-write latency vs chunk size",
            ["chunk", "flush-on-write (ms)", "post-processing (ms)"],
            rows,
            notes=[
                "immediate dedup pays a chunk-sized RMW per sub-chunk write;",
                "post-processing defers it off the foreground path",
            ],
        )
    )
    # Immediate dedup degrades with chunk size...
    assert results[64 * KiB][0] > 1.3 * results[16 * KiB][0]
    # ...post-processing stays roughly flat (within 30%)...
    assert results[64 * KiB][1] < 1.3 * results[16 * KiB][1]
    # ...and beats flush-on-write at every chunk size.
    for chunk in CHUNK_SIZES:
        assert results[chunk][1] < results[chunk][0]
