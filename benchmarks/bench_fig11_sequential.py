"""Figure 11 — sequential read/write at 32/64/128 KiB (3 clients).

Paper findings (32 KiB-chunk system, data flushed to the chunk pool
before the read tests):

* read: Proposed is ~half of Original at small block sizes (the
  redirection overhead dominates), and the gap closes at 128 KiB
  because the four 32 KiB chunks are requested from the chunk pool in
  parallel;
* write: with watermark rate control, Proposed writes at near-Original
  throughput regardless of the client block size.
"""


from repro.bench import KiB, MiB, build_cluster, original, proposed, render_table, report
from repro.workloads import FioJobSpec, FioRunner

BLOCK_SIZES = (32 * KiB, 64 * KiB, 128 * KiB)


def seq_spec(pattern, block_size, seed):
    return FioJobSpec(
        pattern=pattern,
        block_size=block_size,
        file_size=4 * MiB,
        object_size=128 * KiB,
        numjobs=3,
        iodepth=4,
        seed=seed,
    )


def run_experiment():
    out = {"read": {}, "write": {}}
    for block in BLOCK_SIZES:
        storage = original(build_cluster())
        out["write"][("Original", block)] = FioRunner(
            storage, seq_spec("write", block, seed=block)
        ).run()
        out["read"][("Original", block)] = FioRunner(
            storage, seq_spec("read", block, seed=block)
        ).run()

        storage = proposed(build_cluster(), engine_workers=16)
        out["write"][("Proposed", block)] = FioRunner(
            storage, seq_spec("write", block, seed=block)
        ).run()
        storage.drain()  # all data flushed to the chunk pool before reads
        out["read"][("Proposed", block)] = FioRunner(
            storage, seq_spec("read", block, seed=block)
        ).run()
    return out


def test_fig11_sequential(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for direction in ("write", "read"):
        rows = []
        for block in BLOCK_SIZES:
            orig = results[direction][("Original", block)]
            prop = results[direction][("Proposed", block)]
            rows.append(
                (
                    f"{block // KiB}KiB",
                    f"{orig.bandwidth / 1e6:.0f}",
                    f"{prop.bandwidth / 1e6:.0f}",
                    f"{orig.mean_latency * 1e3:.3f}",
                    f"{prop.mean_latency * 1e3:.3f}",
                )
            )
            benchmark.extra_info[f"{direction}:{block // KiB}KiB"] = {
                "original_MBps": round(orig.bandwidth / 1e6, 1),
                "proposed_MBps": round(prop.bandwidth / 1e6, 1),
            }
        report(
            render_table(
                f"Figure 11: sequential {direction} (3 clients, 32KiB chunks)",
                [
                    "block",
                    "Original MB/s",
                    "Proposed MB/s",
                    "Original ms",
                    "Proposed ms",
                ],
                rows,
                notes=[
                    "paper: read gap large at 32KiB (redirection), closes at "
                    "128KiB (parallel chunk reads); writes similar under rate control"
                ],
            )
        )

    def ratio(direction, block):
        return (
            results[direction][("Proposed", block)].bandwidth
            / results[direction][("Original", block)].bandwidth
        )

    # Reads: a visible redirection penalty at 32 KiB that shrinks by
    # 128 KiB (parallel chunk fetches).
    assert ratio("read", 32 * KiB) < 0.85
    assert ratio("read", 128 * KiB) > ratio("read", 32 * KiB)
    # Writes: Proposed holds near-Original throughput at every size.
    for block in BLOCK_SIZES:
        assert ratio("write", block) > 0.65
