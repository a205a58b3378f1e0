"""Simulation bit-identity, pinned as digests.

A change that means to leave the simulation alone (a refactor, a host
clock optimisation) must leave every simulated timestamp, every fault
draw and every byte the CLI prints exactly where they were.  This file
holds that as SHA-256 digests of

* the stdout of the deterministic CLI scenarios (``repro faults``,
  ``rebalance``, ``demo``, ``status``, ``scrub``), run in-process;
* the Prometheus text ``repro obs trace --metrics-out`` writes, with the
  one host-clock sample (``fingerprint_seconds``) masked; and
* an ``(event time, label)`` log of one small scenario that drives a
  replicated and an erasure-coded pool through client contention,
  batched commits, an EIO window, an OSD crash + restart and an online
  expansion with a concurrent rebalance, recorded the way
  ``test_event_order.py`` records its trace.

A change that *means* to move the simulation updates the digest it
moves in the same diff, with a one-line reason beside the new value.
On failure the assertion message prints every new digest, ready to
paste.
"""

import contextlib
import hashlib
import io
import re

from repro.cli import main
from repro.cluster import ErasureCoded, RadosCluster, Rebalancer, Replicated
from repro.cluster.objectstore import Transaction
from repro.faults import FaultEvent, FaultInjector, FaultPlan

KiB = 1024

CLI_DIGESTS = {
    ("--seed", "1", "faults"):
        "0e8b638d6e4f46f19932a419fa7bbdb1f492106e2f2e015472a6e2a71349fac3",
    ("--seed", "4", "faults"):
        "ca76d6038aec183b50d49c1e7a531ff281e981cb23ecc9b2504808a65769b718",
    ("--seed", "2", "faults", "--kill-osd", "2"):
        "5c1c1b09ae007bb6f25e651e08e65b97309737b30ffe9feadb6bb2f75db33e9d",
    ("--seed", "1", "rebalance"):
        "69e1bbb09a248a77c3682118b6343d05549f738a9874afed2ed90c4b6391e1e5",
    ("--seed", "4", "rebalance"):
        "cb61747f42acafe582cb8e9381e0c145856726d3cb72bd9a240047bacea85f7d",
    ("--seed", "1", "demo"):
        "b38da717d0c7c08fdc8908d1e7be4882d175c5165a33bebfa424c4ef80367c12",
    ("--seed", "1", "status"):
        "229627fb12dc906420701ebc8a100a16d66709a9048ef99b3307e4847b82e75c",
    ("--seed", "1", "scrub"):
        "72f9a9ef70c5b9cfd940592679f200201b78e8d7106adc620f847faa2e35c49f",
}

SCENARIO_DIGEST = (
    # Moved when EC mutations joined the one commit pipeline: a shard
    # write now sends its whole transaction (the shard plus its `_ec.*`
    # xattrs) from the primary, not the bare shard, so every EC op ends
    # a fraction of a microsecond later; every outcome is as it was.
    "84287cec6c4fd3fd742d9e2105817f0e07303dde90f6cd3648eb975a0227e3f3"
)


METRICS_DIGEST = (
    # Moved when the `repro_trace_spans` and `repro_trace_spans_dropped`
    # gauges went with the tier's built-in tracer; every other line is as it was.
    "208c36cc923b78a17f921cf2effdcab27b6db8c3afa47108471d26ecc71fc122"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return "exit %d\n%s" % (code, out.getvalue())


def run_scenario():
    """Log ``(sim.now, label)`` for every op outcome of a small mixed run."""
    cluster = RadosCluster(num_hosts=3, osds_per_host=2, pg_num=8)
    sim = cluster.sim
    rep = cluster.create_pool("rep", Replicated(2))
    ec = cluster.create_pool("ec", ErasureCoded(2, 1))
    log = []

    def note(label):
        log.append((sim.now, label))

    def payload(tag, i, size):
        return bytes((tag * 31 + i * 7 + j) % 251 for j in range(size))

    for i in range(8):
        cluster.write_full_sync(rep, "r%d" % i, payload(1, i, 16 * KiB))
        cluster.write_full_sync(ec, "e%d" % i, payload(2, i, 8 * KiB))
    note("loaded")

    FaultInjector(cluster, FaultPlan([
        FaultEvent(0.002, "transient_errors", "1", duration=0.004,
                   params={"probability": 0.5}),
        FaultEvent(0.003, "osd_crash", "4"),
        FaultEvent(0.012, "osd_restart", "4"),
    ], seed=7)).attach()
    base = sim.now

    def attempt(label, gen):
        try:
            yield from gen
            note(label + " ok")
        except Exception as exc:  # every outcome is part of the trace
            note("%s %s" % (label, type(exc).__name__))

    def writer(k):
        client = cluster.client("client%d" % k)
        for rnd in range(6):
            i = (k * 3 + rnd) % 8
            data = payload(10 + rnd, i, 4 * KiB)
            yield from attempt(
                "w%d.%d r%d" % (k, rnd, i),
                cluster.write(rep, "r%d" % i, 4 * KiB * k, data, client),
            )
            items = [
                ("r%d" % j, Transaction().setxattr(
                    cluster.object_key(rep, "r%d" % j), "gen", b"%d" % rnd))
                for j in ((i + 1) % 8, (i + 5) % 8)
            ]
            yield from attempt(
                "b%d.%d" % (k, rnd), cluster.submit_batch(rep, items, client)
            )
            yield from attempt(
                "w%d.%d e%d" % (k, rnd, i),
                cluster.write(ec, "e%d" % i, 0, data[: 2 * KiB], client),
            )

    def elastic():
        yield sim.timeout(0.0015)
        diff = cluster.expand("host3", 2)
        note("expand %d" % diff.pgs_remapped)
        rebalancer = Rebalancer(cluster, rate_limit_bps=64 * KiB * KiB)
        stats = yield from rebalancer.run_to_completion()
        note("rebalanced moved=%d trimmed=%d failed=%d" % (
            stats.objects_moved, stats.objects_trimmed, stats.tasks_failed))

    procs = [sim.process(writer(k)) for k in range(3)]
    procs.append(sim.process(elastic()))
    sim.run_until_complete(sim.all_of(procs))
    sim.run()
    note("settled +%r" % (sim.now - base))
    for pool, prefix in ((rep, "r"), (ec, "e")):
        for i in range(8):
            data = cluster.read_sync(pool, "%s%d" % (prefix, i))
            note("%s%d %s" % (prefix, i, hashlib.sha256(data).hexdigest()[:16]))
    return log


def test_scenario_is_deterministic_in_process():
    assert run_scenario() == run_scenario()


def test_scenario_event_digest():
    got = _sha(repr(run_scenario()))
    assert got == SCENARIO_DIGEST, "new scenario digest: %r" % got


def test_cli_output_digests():
    got = {argv: _sha(_cli_stdout(argv)) for argv in CLI_DIGESTS}
    moved = {argv: d for argv, d in got.items() if d != CLI_DIGESTS[argv]}
    assert not moved, "new CLI digests:\n" + "\n".join(
        "    %r: %r," % (argv, d) for argv, d in got.items()
    )


def test_metrics_export_digest(tmp_path):
    prom = tmp_path / "metrics.prom"
    argv = ["--seed", "0", "obs", "trace", "--out", str(tmp_path / "t.jsonl"),
            "--metrics-out", str(prom)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    text = re.sub(r'(counter="fingerprint_seconds"\}) \S+', r"\1 HOST",
                  prom.read_text())
    got = _sha(text)
    assert got == METRICS_DIGEST, "new metrics digest: %r" % got
