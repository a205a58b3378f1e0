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
from repro.cluster import ErasureCoded, RadosCluster, Replicated, converge
from repro.cluster.objectstore import Transaction
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import FaultEvent

KiB = 1024

#: Every `faults`/`rebalance` digest and `scrub`'s moved when the dedup
#: scrub began reporting under-retained references: its line gains
#: `0 missing refs` (`scrub`: a `missing references:  0` row); every
#: other line is as it was.
CLI_DIGESTS = {
    # Moved with the one scenario renderer: it adds the topology,
    # `rebalance:`, pool-scrub, placement, skew and trace lines and calls
    # the scrub line `dedup scrub`; every other line is as it was.
    ("--seed", "1", "faults"):
        "4096353a014d7af2e05269207804e63558c848e97152a9ce6a6d227ac704dc0f",
    ("--seed", "4", "faults"):
        "a932255ebf8a180398ccc736c0e0536a8153c51b4b387735dbc70081404037fe",
    ("--seed", "2", "faults", "--kill-osd", "2"):
        "108b35ff3c8ea36d172147bbc23e1ba608d5b9193e383e0a4eb0af65d3107e42",
    # Moved when a replicated commit began sending its payload to the
    # replicas before the write lock: an attempt across the partition is
    # now refused as its legs start, so `partition drops` reads 31
    # transfers (was 35); every other line is as it was.
    ("--seed", "1", "rebalance"):
        "32dc16bed210682b039dd71a5d781335922c11d82fb64cec3c142c2f7441cb01",
    # Moved when an aborted pass began handing the references it took to
    # the GC: its release is a retried op, so `op attempts` and `op
    # outcomes` read 97 (was 96); every other line is as it was.  Moved
    # back when releases left the client's retry stats: 96 again.
    ("--seed", "4", "rebalance"):
        "43dd9f418ebc5d60870b17fbb25c92fb49b5d3d12dd160f6abae9342b1c65c43",
    ("--seed", "1", "demo"):
        "b38da717d0c7c08fdc8908d1e7be4882d175c5165a33bebfa424c4ef80367c12",
    # Moved when an engine pass became the dirty objects of one
    # metadata PG: the drain ends sooner, so `sim time` reads 0.017s
    # (was 0.018s); every other line is as it was.  Moved again when a
    # drain began running two passes on every metadata primary at once
    # and `cache` began reporting the engine's promotions and evictions
    # (the book counters count every chunk a write caches and a pass
    # evicts): `sim time` reads 0.016s and `cache` reads `(0 chunks
    # promoted, 48 evicted)` (was `(+48/-48)`).
    ("--seed", "1", "status"):
        "b5851adf637dc9b26c96378240a068a5492768a98277c55e4e38f9182ca7edcc",
    ("--seed", "1", "scrub"):
        "98a6da95a029c18e7645169800eb4d4a46ad37c58d4329be86e1c4ce40d490df",
}

SCENARIO_DIGEST = (
    # Moved when a replicated write began holding its object's write
    # lock shared: from `b2.2` (7.4 ms) on, writes to one object prepare
    # side by side, so ops end in another order and the injected EIOs
    # (p = 0.5) fall on other ops: 5 TransientOpError outcomes (was 6;
    # `w0.4 r4` now fails, three EC writes that failed now succeed and
    # one that succeeded fails), the r4/e0/e5 read-backs follow those
    # outcomes, the rebalance moves 9 and trims 6 (was 10 and 7).
    # `settled` is as it was.
    "0fe3cedb708ed26d13b8288e74cf363307234c8b46be1cd9c7033b99cac58397"
)


METRICS_DIGEST = (
    # Moved when an engine pass became the dirty objects of one
    # metadata PG: the drain commits 22 chunk batches in 49 prepared
    # transactions (was 25 in 50), and the run ends 16 us sooner, which
    # moves `repro_sim_seconds` and the CPU utilizations over it; every
    # other line is as it was.  Moved again when a delete began releasing
    # its chunks as it replies, not after: the run's one delete ends
    # 50 us (one reply) sooner, with the same two effects.  Moved again
    # when a pass stopped waiting for a reply from the metadata primary
    # it runs on and began reading one whole chunk ahead of its hash:
    # the run ends 92 us sooner, with the same two effects.  Moved again
    # when `repro_engine_fault_requeues` and `repro_derefs_deferred`,
    # copies of two `repro_engine_ops` series, were dropped.  Moved again
    # when releases left the client's retry stats: the run's one delete
    # release no longer counts, so attempts and successes read 41 (was 42).
    # Moved again when a drain began running two passes on every metadata
    # primary at once: the run ends 231 us sooner, with the same two
    # effects; and when the cache-book counters were renamed, so
    # `repro_cache_tier` reads `chunks_cached`/`chunks_uncached` (was
    # `promotions`/`demotions`), values unchanged.
    "b3aac09268d8e24e4145f020d3ec2fb783a2156c68f895fb6aec392afa21aea4"
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
        stats = yield from converge(cluster, 64 * KiB * KiB)
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
